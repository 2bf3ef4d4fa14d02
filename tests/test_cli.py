"""Config parsing, report schema, determinism and the exit-code contract."""

import csv
import importlib
import io
import json
import math
import os
import subprocess
import sys
import time
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
        # sweep parameters such as affine([0.0, 3.0],1.0) hold commas: every
        # row of the README's CSV example parses to 5 cells, tags whole
        args = ["sharpness", "--config", str(REPLICATION_CONFIG)]
        res = _cli([*args, "--format", "csv"])
        assert res.returncode == 0, res.stderr
        rows = list(csv.reader(io.StringIO(res.stdout)))
        assert all(len(row) == 5 for row in rows)
        payload = json.loads(_cli(args).stdout)
        tags = []
        for suite in payload["suites"]:
            for check in suite["checks"]:
                tags.append(check["theorem"])
                tags += [f"{check['theorem']}[{row['parameter']}]"
                         for row in check.get("rows", [])]
        assert any("," in tag for tag in tags)
        assert [row[0] for row in rows[1:]] == tags


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

    # the axis mass 2^((a-1)/2) Gamma((a+1)/2) is finite at a = 200 and
    # beyond the double range at a = 400
    @pytest.mark.parametrize("exponent, code", [(200.0, 0), (400.0, 2)])
    def test_large_monomial_exponent(self, tmp_path, exponent, code):
        cfg = {"dim": 1, "weight": {"kind": "monomial", "exponents": [exponent]},
               "quadrature": {"order": 8}, "suites": ["poincare"]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        res = _cli(["verify", "--config", str(path)])
        assert res.returncode == code, res.stderr
        assert "Traceback" not in res.stderr
        if code == 2:
            assert "normalization is not positive/finite" in res.stderr

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


# every malformed value exits 2 with a config error naming its key, in the
# file and as a CLI override alike
NAN = float("nan")

MALFORMED = [
    ({"dim": True}, [], "dim"),
    ({"quadrature": {"order": "8"}}, [], "quadrature.order"),
    ({"quadrature": {"order": 0}}, [], "quadrature.order"),
    ({"quadrature": {"order": 8.5}}, [], "quadrature.order"),
    ({"quadrature": {"order": True}}, [], "quadrature.order"),
    ({"quadrature": {"mc_samples": -5}}, [], "quadrature.mc_samples"),
    ({"quadrature": {"order": 8, "mc_sample": 100}}, [], "mc_sample"),
    ({"seed": "x"}, [], "seed"),
    ({"seed": -1}, [], "seed"),
    ({"seed": 1.7}, [], "seed"),
    ({"seed": 2 ** 128}, [], "seed"),
    ({"tolerance": "abc"}, [], "tolerance"),
    ({"tolerance": True}, [], "tolerance"),
    ({}, ["--seed", "-1"], "seed"),
    ({}, ["--tolerance", "0"], "tolerance"),
    ({}, ["--tolerance", "-1"], "tolerance"),
    ({}, ["--tolerance", "nan"], "tolerance"),
    ({"output": ["a"]}, [], "output"),
    ({"dim": 2, "fields": None, "cone": {"kind": "orthant", "axes": 5}}, [],
     "cone.axes"),
    ({"dim": 2, "fields": None, "cone": {"kind": "orthant", "axes": [7]}}, [],
     "cone.axes"),
    ({"dim": 2, "fields": None, "cone": {"kind": "halfspace"}}, [],
     "cone.normal"),
    ({"dim": 2, "fields": None, "cone": {"kind": "halfspace", "normal": [1]}},
     [], "cone.normal"),
    ({"dim": 2, "fields": [{"kind": "exp_axis", "b": 0.5, "axis": 5}]}, [],
     "exp_axis"),
    ({"dim": 2, "fields": [{"kind": "hermite_witness", "axis": 5}]}, [],
     "hermite_witness"),
    ({"fields": [{"kind": "exp_axis", "b": 0.5, "axis": -1}]}, [], "exp_axis"),
    ({"fields": [{"kind": "gaussian", "lam": 0}]}, [], "gaussian"),
    # a NaN exponent passes a test for a < 0 and would run as w = 1
    ({"dim": 2, "fields": None, "weight": {
        "kind": "dunkl", "roots": [[1.0, 0.0]], "multiplicities": [NAN]}}, [],
     "multiplicities"),
    ({"weight": {"kind": "monomial", "exponents": [NAN]}}, [], "exponents"),
    ({"dim": 2, "fields": None, "weight": {
        "kind": "partial_product", "coords": [0],
        "inner": {"kind": "monomial", "exponents": [NAN]}}}, [], "exponents"),
    ({"weight": {"kind": "radial", "alpha": NAN}}, [], "radial exponent"),
    ({"fields": [{"kind": "gaussian", "lam": 1e-200}]}, [], "gaussian"),
    ({"fields": [{"kind": "affine", "a": [NAN]}]}, [], "affine"),
    ({"fields": [{"kind": "affine", "a": [math.inf]}]}, [], "affine"),
    ({"fields": [{"kind": "constant", "c": NAN}]}, [], "constant"),
    ({"fields": [{"kind": "exp_axis", "b": -math.inf, "axis": 0}]}, [],
     "exp_axis"),
    ({"fields": [{"kind": "exp_axis", "b": 0.5, "axis": 0.7}]}, [], "exp_axis"),
    ({"fields": [{"kind": "poly_gauss", "degree": 2.7}]}, [], "poly_gauss"),
    ({"dim": 2, "fields": [{"kind": "poly_gauss", "even_axes": [5]}]}, [],
     "even_axes"),
    ({"dim": 2, "fields": [{"kind": "poly_gauss", "even_axes": "ab"}]}, [],
     "even_axes"),
    # every rule kind has one node cap
    ({"quadrature": {"mc_samples": 10 ** 13}}, [], "quadrature.mc_samples"),
    ({"dim": 6, "fields": None, "quadrature": {"order": 13}}, [],
     "quadrature.order"),
]


@pytest.mark.parametrize("change, flags, key", MALFORMED, ids=[
    "_".join(flags) or json.dumps(change, separators=(",", ":"))
    for change, flags, _ in MALFORMED])
def test_malformed_value_exits_two(tmp_path, capsys, change, flags, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(BASE_CONFIG, **change)))
    assert cli.main(["verify", "--config", str(path), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


def test_report_config_is_the_effective_config(tmp_path):
    # overrides show in the report's config, and the report is the one the
    # config file with those values gives
    effective = dict(BASE_CONFIG, seed=4, tolerance=3e-6)
    reports = []
    for cfg, flags in ((BASE_CONFIG, ["--seed", "4", "--tolerance", "3e-6"]),
                       (effective, [])):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / f"report{len(reports)}.json"
        assert cli.main(["verify", "--config", str(path), "--out", str(out),
                         *flags]) == 0
        reports.append(out.read_bytes())
    assert json.loads(reports[0])["config"] == effective
    assert reports[0] == reports[1]


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


def test_cli_import_loads_neither_mpmath_nor_scipy():
    # mpmath is a test dependency only, and the library does not use scipy
    code = ("import sys, gausscone.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('mpmath', 'scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_replication_byte_identical_across_processes(tmp_path):
    # fresh interpreters start with cold rule caches, unlike reruns in one
    # process
    outs = [tmp_path / f"run{k}.json" for k in range(2)]
    for out in outs:
        proc = _cli(["verify", "--config", str(REPLICATION_CONFIG),
                     "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
    assert outs[0].read_bytes() == outs[1].read_bytes()


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _env_without_thread_settings():
    return {k: v for k, v in os.environ.items() if k not in THREAD_VARS}


def test_report_bytes_do_not_depend_on_the_callers_blas_threads(tmp_path):
    # the 4-D Galerkin eigensolve rounds differently on two BLAS threads
    # (`gap` 0.9999999999999951 against 0.9999999999999979 on one); the CLI
    # pins one thread before numpy loads, whatever the caller set
    cfg = {"dim": 4, "weight": {"kind": "monomial", "exponents": [1.5, 0, 0, 0]},
           "quadrature": {"order": 8}, "suites": ["spectral"]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    reports = []
    # the console script's entry module pins the same threads as
    # `python -m gausscone.cli`
    script = [sys.executable, "-c",
              "import sys; from gausscone.program import main; "
              "sys.exit(main(sys.argv[1:]))"]
    for threads, program in ((None, "module"), ("1", "module"),
                             ("2", "module"), ("2", "script")):
        env = _env_without_thread_settings()
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"report-{threads}-{program}.json"
        argv = ([sys.executable, "-m", "gausscone.cli"] if program == "module"
                else script)
        proc = subprocess.run([*argv, "verify", "--config", str(path),
                               "--out", str(out)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    assert reports[1] == reports[0]
    assert reports[2] == reports[0]
    assert reports[3] == reports[0]


# the package's public names, by the submodule that defines each
PUBLIC_NAMES = {
    "cones": ["Cone", "FullSpace", "Halfspace", "Orthant"],
    "fields": ["Decay", "ScalarField", "affine", "constant", "exp_axis",
               "gaussian", "gaussian_quarter", "hermite_witness", "poly_gauss"],
    "functionals": ["dirichlet_energy", "entropy", "hup_deficit", "lq_norm",
                    "optimal_scale", "variance"],
    "gamma": ["apply_generator", "bochner_residual", "carre_du_champ",
              "cd_margin", "gamma2", "neumann_residual"],
    "inequalities": ["InequalityCheck", "check_beckner", "check_euclidean_lsi",
                     "check_hup", "check_lsi", "check_lsi_equivalence",
                     "check_poincare", "check_scale_poincare",
                     "sharpness_sweep"],
    "measures": ["Measure", "QuadratureRule", "build_rule", "integrate",
                 "make_measure", "special_moments"],
    "spectral": ["GalerkinSystem", "SpectralResult", "build_galerkin",
                 "poisson_solve", "semigroup_apply", "semigroup_decay_check",
                 "spectral_gap"],
    "stability": ["check_hup_stability", "distance_to_family"],
    "weights": ["CustomLogWeight", "DunklProduct", "GaussianTilt", "Monomial",
                "PartialProduct", "Radial", "Weight", "curvature_lower_bound",
                "make_weight"],
}


def test_package_import_loads_nothing_and_sets_no_thread_count():
    # a library caller keeps its own thread settings: neither the import nor
    # a public name pins anything; numpy loads only with the first name
    code = ("import os, sys, gausscone\n"
            "print('numpy' in sys.modules, gausscone.__version__)\n"
            "gausscone.make_measure\n"
            "print('numpy' in sys.modules, sorted(v for v in os.environ "
            f"if v in {THREAD_VARS!r}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=_env_without_thread_settings())
    assert out.stdout.split("\n")[:2] == ["False 0.1.0", "True []"]


def test_importing_the_cli_sets_no_thread_count():
    # only running the CLI as a program pins one thread; a process that
    # imports it (to call `main`, say) keeps its own settings
    code = ("import os, gausscone.cli\n"
            f"print(sorted(v for v in os.environ if v in {THREAD_VARS!r}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=_env_without_thread_settings())
    assert out.stdout.strip() == "[]"


def test_public_names_are_their_submodules_objects():
    import gausscone

    names = sorted(n for group in PUBLIC_NAMES.values() for n in group)
    assert gausscone.__all__ == names
    assert set(names) <= set(dir(gausscone))
    for module, group in PUBLIC_NAMES.items():
        source = importlib.import_module(f"gausscone.{module}")
        for name in group:
            assert getattr(gausscone, name) is getattr(source, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        gausscone.no_such_name


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


def _timed_cli(tmp_path, cfg, *args):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    start = time.perf_counter()
    proc = _cli(["verify", "--config", str(path), *args])
    return proc, time.perf_counter() - start


def test_order_without_a_product_rule_exits_two_fast(tmp_path):
    # a tilted Dunkl root has no product rule; `order` must not fall back to
    # Monte Carlo, the config is refused and names the knob that asks for it
    cfg = {"dim": 2, "weight": {"kind": "dunkl", "roots": [[0.6, 0.8]],
                                "multiplicities": [0.5]},
           "quadrature": {"order": 16},
           "suites": ["gamma_calculus", "beckner", "poincare", "lsi", "hup",
                      "spectral"]}
    proc, wall = _timed_cli(tmp_path, cfg)
    assert proc.returncode == 2, proc.stderr
    assert "mc_samples" in proc.stderr and "Traceback" not in proc.stderr
    assert wall < 2.0


def test_weight_vanishing_inside_the_cone_exits_two_fast(tmp_path):
    # |x_0|^1.5 vanishes on x_0 = 0, inside the full space
    cfg = {"dim": 2, "weight": {"kind": "monomial", "exponents": [1.5, 0]},
           "cone": {"kind": "full_space"}, "quadrature": {"order": 8},
           "suites": ["poincare", "hup"]}
    proc, wall = _timed_cli(tmp_path, cfg)
    assert proc.returncode == 2, proc.stderr
    assert "'kind': 'orthant'" in proc.stderr
    assert wall < 2.0


# a one-node rule makes the Gram matrix of a least-squares fit singular
@pytest.mark.parametrize("quadrature, suite", [
    ({"order": 1}, "scale_poincare"),
    ({"mc_samples": 1}, "hup_stability"),
])
def test_singular_gram_is_a_run_failure(tmp_path, quadrature, suite):
    cfg = {"dim": 2, "weight": {"kind": "monomial", "exponents": [1.5, 0]},
           "quadrature": quadrature, "suites": [suite]}
    proc, _ = _timed_cli(tmp_path, cfg)
    assert proc.returncode == 1, proc.stderr
    assert "run failed" in proc.stderr and "1-node rule" in proc.stderr
    assert "Traceback" not in proc.stderr


def _partial(coords, inner):
    return {"kind": "partial_product", "coords": coords, "inner": inner}


_MONO_1 = {"kind": "monomial", "exponents": [1.0]}
_MONO_11 = {"kind": "monomial", "exponents": [1.0, 1.0]}


@pytest.mark.parametrize("weight, key", [
    (_partial([-1], _MONO_1), "weight.coords"),
    (_partial([0, 5], _MONO_11), "weight.coords"),
    (_partial([1.5], _MONO_1), "weight.coords"),
    (_partial([0, 0], _MONO_11), "weight.coords"),
    (_partial([0], _MONO_11), "weight.coords"),
    (_partial([0, 1, 0], {"kind": "radial", "alpha": 1.0}), "weight.coords"),
    ({"kind": "dunkl", "roots": [[1.0, 0.0], [0.0, 0.0, 1.0]],
      "multiplicities": [0.5, 0.5]}, "weight.roots"),
], ids=["negative", "out-of-range", "fractional", "repeated", "too-few",
        "repeated-radial", "ragged-roots"])
def test_malformed_weight_spec_exits_two(tmp_path, weight, key):
    cfg = {"dim": 2, "weight": weight, "quadrature": {"order": 8},
           "suites": ["poincare"]}
    proc, _ = _timed_cli(tmp_path, cfg)
    assert proc.returncode == 2, proc.stderr
    assert key in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_partial_radial_product_runs_exactly(tmp_path, seed):
    # a planar radial block times a free Hermite axis: an exact polar rule
    cfg = {"dim": 3, "weight": {"kind": "partial_product", "coords": [0, 1],
                                "inner": {"kind": "radial", "alpha": 1.0}},
           "quadrature": {"order": 12},
           "suites": ["gamma_calculus", "beckner", "poincare", "lsi", "hup",
                      "spectral"]}
    proc, wall = _timed_cli(tmp_path, cfg, "--seed", str(seed))
    assert proc.returncode == 0, proc.stderr
    assert wall < 5.0
