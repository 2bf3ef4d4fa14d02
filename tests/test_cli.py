"""Config parsing, report schema, determinism and the exit-code contract."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from gausscone import cli, suites
from gausscone.config import parse_config
from gausscone.errors import ConfigError, ToolkitError
from gausscone.report import emit, report_payload, run

BASE_CONFIG = {
    "dim": 1,
    "weight": {"kind": "one"},
    "quadrature": {"order": 24},
    "fields": [
        {"kind": "affine", "a": [1.0], "b": 0.0},
        {"kind": "poly_gauss", "seed": 3},
    ],
    "suites": ["poincare"],
    "seed": 0,
}


REPLICATION_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "paper_replication.json"


def _cli(args, tmp_path=None):
    return subprocess.run([sys.executable, "-m", "gausscone.cli", *args],
                          capture_output=True, text=True)


class TestConfig:
    def test_roundtrip(self):
        cfg = parse_config(dict(BASE_CONFIG))
        assert cfg.dim == 1 and cfg.suites == ("poincare",)

    def test_unknown_suite(self):
        bad = dict(BASE_CONFIG, suites=["sobolev"])
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_unknown_key(self):
        bad = dict(BASE_CONFIG, extra=1)
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_missing_quadrature_choice(self):
        bad = dict(BASE_CONFIG, quadrature={})
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_unknown_field_kind(self):
        bad = dict(BASE_CONFIG, fields=[{"kind": "wavelet"}])
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_partial_product_weight_roundtrip(self):
        cfg = parse_config({
            "dim": 3,
            "weight": {"kind": "partial_product",
                       "inner": {"kind": "gaussian_tilt", "s": 0.5},
                       "coords": [0]},
            "quadrature": {"order": 16},
            "suites": ["poincare"],
            "seed": 0})
        rep = run(cfg)
        assert rep.passed


class TestReport:
    def test_schema_keys(self):
        rep = run(parse_config(dict(BASE_CONFIG)))
        payload = report_payload(rep)
        assert set(payload) == {"config", "version", "suites", "pass"}
        check = payload["suites"][0]["checks"][0]
        for key in ("theorem", "p", "q", "lhs", "rhs", "constant", "deficit",
                    "tolerance", "pass", "diagnostics"):
            assert key in check

    def test_empty_suites(self):
        rep = run(parse_config(dict(BASE_CONFIG, suites=[])))
        payload = json.loads(emit(rep, "json"))
        assert payload["suites"] == [] and payload["pass"] is True

    def test_byte_identical_reruns(self):
        cfg = parse_config(dict(BASE_CONFIG,
                                suites=["poincare", "lsi", "beckner"]))
        b1 = emit(run(cfg), "json")
        b2 = emit(run(cfg), "json")
        assert b1 == b2

    def test_json_parses_and_has_17_digits(self):
        rep = run(parse_config(dict(BASE_CONFIG)))
        raw = emit(rep, "json").decode()
        payload = json.loads(raw)
        assert payload["pass"] is True
        # a float with a long mantissa survives the round trip
        lhs = payload["suites"][0]["checks"][3]["lhs"]
        assert isinstance(lhs, float)

    def test_csv_consistent_with_json(self):
        rep = run(parse_config(dict(BASE_CONFIG)))
        payload = json.loads(emit(rep, "json"))
        csv_rows = emit(rep, "csv").decode().strip().splitlines()
        assert csv_rows[0] == "theorem,lhs,rhs,deficit,pass"
        n_rows = sum(len(c.get("rows", [])) + 1
                     for s in payload["suites"] for c in s["checks"])
        assert len(csv_rows) == 1 + n_rows
        first = csv_rows[1].split(",")
        assert first[0] == payload["suites"][0]["checks"][0]["theorem"]


class TestCliExitCodes:
    def test_pass_is_zero(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(BASE_CONFIG))
        out = tmp_path / "report.json"
        res = _cli(["verify", "--config", str(path), "--out", str(out)])
        assert res.returncode == 0, res.stderr
        assert json.loads(out.read_text())["pass"] is True

    def test_invalid_config_is_two(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(BASE_CONFIG, suites=["sobolev"])))
        res = _cli(["verify", "--config", str(path)])
        assert res.returncode == 2
        assert "config error" in res.stderr

    def test_missing_file_is_two(self):
        res = _cli(["verify", "--config", "/nonexistent/cfg.json"])
        assert res.returncode == 2

    def test_unwritable_output_is_three(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(BASE_CONFIG))
        res = _cli(["verify", "--config", str(path),
                    "--out", "/nonexistent-dir/report.json"])
        assert res.returncode == 3

    def test_spectrum_subcommand(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(BASE_CONFIG))
        res = _cli(["spectrum", "--config", str(path)])
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert [s["name"] for s in payload["suites"]] == ["spectral"]

    def test_sharpness_subcommand(self, tmp_path):
        cfg = dict(BASE_CONFIG, dim=2,
                   weight={"kind": "monomial", "exponents": [1.5, 0.0]},
                   fields=None, suites=["lsi", "spectral"])
        cfg.pop("fields")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        res = _cli(["sharpness", "--config", str(path)])
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert set(s["name"] for s in payload["suites"]) <= {"beckner",
                                                             "poincare", "lsi"}

    def test_seed_override_changes_bytes_deterministically(self, tmp_path):
        cfg = dict(BASE_CONFIG, suites=["poincare"])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        r1 = _cli(["report", "--config", str(path), "--seed", "7"])
        r2 = _cli(["report", "--config", str(path), "--seed", "7"])
        assert r1.stdout == r2.stdout


@pytest.mark.parametrize("flag, tol", [
    ([], 1e-7),
    (["--tolerance", "3e-6"], 3e-6),
], ids=["default", "override"])
def test_tolerance_reaches_seeded_hup_stability(tmp_path, monkeypatch, flag,
                                                tol):
    # the seeded HUP-stability checks are judged at twice the run tolerance
    # and the witness on a free axis at the run tolerance; each run stops at
    # its first stability check, which is the first seeded one on the
    # half-line weight (no free axis) and the witness on the half-plane one
    seen = []

    def first_check(measure, f, improved=False, **kwargs):
        seen.append(kwargs)
        raise ToolkitError("stop after the first stability check")

    monkeypatch.setattr(suites, "check_hup_stability", first_check)
    path = tmp_path / "cfg.json"
    for exponents, expected in (([1.0], 2.0 * tol), ([1.0, 0.0], tol)):
        cfg = dict(BASE_CONFIG, dim=len(exponents),
                   weight={"kind": "monomial", "exponents": exponents},
                   suites=["hup_stability"])
        del cfg["fields"]
        path.write_text(json.dumps(cfg))
        seen.clear()
        assert cli.main(["verify", "--config", str(path), *flag]) == 1
        assert seen == [{"tolerance": expected}]


def test_replication_byte_identical_across_processes(tmp_path):
    # fresh interpreters start with cold rule caches, unlike reruns in one
    # process
    outs = [tmp_path / f"run{k}.json" for k in range(2)]
    for out in outs:
        proc = _cli(["verify", "--config", str(REPLICATION_CONFIG),
                     "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_partial_3d_spectral_suite(tmp_path):
    # the 3-D Galerkin system at its default degree, end to end in a fresh
    # process; the in-process tests stop at lower degrees
    cfg = {"dim": 3, "weight": {"kind": "monomial", "exponents": [1.5, 0.0, 0.0]},
           "quadrature": {"order": 16}, "suites": ["spectral"]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    proc = _cli(["verify", "--config", str(path), "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    checks = [c for s in json.loads(out.read_text())["suites"]
              for c in s["checks"]]
    assert len(checks) == 14
    assert all(c["pass"] for c in checks)
