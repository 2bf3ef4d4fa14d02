"""The gate table: every limit that decides a report record's `pass` lives in
`inequalities.GATES`, at its pinned value, and the suites read it there."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from gausscone import cli, inequalities
from gausscone.config import parse_config
from gausscone.inequalities import GATES, Gate
from gausscone.report import run
from gausscone.weights import DunklProduct

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# a literal copy of every gate: (value, "run" or "fixed", "relative" or
# "absolute"); a value that changes must change here too, and in CHANGES.md
PINNED = {
    "per_field": (1.0, "run", "relative"),
    "cd_margin": (1e-9, "fixed", "absolute"),
    "bochner_convergence": ((3.5, 4.5), "fixed", "relative"),
    "bochner_convergence_floor": (1e-13, "fixed", "absolute"),
    "bochner_convergence_min_ratios": (5, "fixed", "absolute"),
    "integration_by_parts": (1e-7, "fixed", "relative"),
    "euler_identity": (1e-10, "fixed", "relative"),
    "neumann_admission": (1e-8, "fixed", "absolute"),
    "beckner_sharpness": (1e-3, "fixed", "relative"),
    "poincare_extremal": (1e-9, "fixed", "absolute"),
    "lsi_extremal": (1e-8, "fixed", "relative"),
    "euclidean_lsi_equality": (1e-7, "fixed", "relative"),
    "euclidean_lsi_rescaling": (1e-7, "fixed", "relative"),
    "lsi_equivalence": (1e-7, "fixed", "relative"),
    "lsi_equivalence_log_slack": (1e-12, "fixed", "absolute"),
    "hup_identity": (1e-8, "fixed", "relative"),
    "hup_stability_witness": (1.0, "run", "absolute"),
    "hup_stability_witness_equality_gap": (1e-6, "fixed", "relative"),
    "hup_stability_seeded": (2.0, "run", "absolute"),
    "hup_stability_oracle": (1e-6, "fixed", "relative"),
    "spectral_gap": (1e-6, "fixed", "absolute"),
    "spectral_gap_convergence": (1e-4, "fixed", "relative"),
    "spectral_free_axis_eigenfunction": (1e-8, "fixed", "absolute"),
    "poisson_solve": (1e-6, "fixed", "absolute"),
    "poincare_duality": (1e-7, "fixed", "relative"),
    "poincare_duality_middle": (1e-9, "fixed", "relative"),
    "semigroup_decay": (1e-3, "fixed", "relative"),
    "semigroup_decay_floor": (1e-12, "fixed", "absolute"),
}

# the theorems of records built from an InequalityCheck, all judged by the
# "per_field" gate (the Euclidean-LSI equality cases by their own)
PER_FIELD = {"beckner", "poincare", "poincare_gradient_stability",
             "poincare_l2_stability", "scale_poincare", "scale_poincare_improved",
             "lsi", "euclidean_lsi", "hup"}

# the benchmark's partial_3d and dunkl_mc workloads
PARTIAL_3D = {"dim": 3, "weight": {"kind": "monomial", "exponents": [1.5, 0.0, 0.0]},
              "quadrature": {"order": 16},
              "suites": ["poincare", "lsi", "hup", "spectral"]}
DUNKL_MC = {"dim": 2, "weight": {"kind": "dunkl", "roots": [[0.6, 0.8]],
                                 "multiplicities": [0.5]},
            "quadrature": {"mc_samples": 200000},
            "suites": ["gamma_calculus", "beckner", "poincare", "lsi"]}


def _records(config):
    return [c for s in run(parse_config(config)).suites for c in s.checks]


def test_gate_table_is_pinned():
    assert GATES == PINNED
    assert inequalities.TOLERANCE_SCALE == 1e-7


def test_every_report_theorem_has_a_gate():
    theorems = set()
    for config in (str(CONFIGS / "paper_replication.json"),
                   str(CONFIGS / "gaussian_baseline.json"), PARTIAL_3D, DUNKL_MC):
        theorems |= {r["theorem"] for r in _records(config)
                     if not r["informational"]}
    assert PER_FIELD & theorems and theorems - PER_FIELD
    assert theorems - PER_FIELD <= set(GATES)


def test_limit_scales_only_run_gates():
    assert inequalities.limit("hup_stability_seeded", 3e-6) == 2.0 * 3e-6
    assert inequalities.limit("poisson_solve", 3e-6) == 1e-6
    assert inequalities.limit("per_field") == inequalities.TOLERANCE_SCALE


# a 2-D half-plane run whose records all pass at the pinned gates
LIVE = {"dim": 2, "weight": {"kind": "monomial", "exponents": [1.5, 0.0]},
        "quadrature": {"order": 16}, "suites": ["gamma_calculus", "poincare"]}


def test_suites_read_the_gate_table(monkeypatch):
    # the records read the table when judged: an impossible fixed gate and an
    # impossible run-scaled gate fail exactly the records they decide
    before = _records(LIVE)
    assert all(r["pass"] for r in before)
    monkeypatch.setitem(GATES, "integration_by_parts",
                        Gate(-1.0, "fixed", "relative"))
    monkeypatch.setitem(GATES, "per_field", Gate(-math.inf, "run", "relative"))
    after = _records(LIVE)
    assert [r["theorem"] for r in after] == [r["theorem"] for r in before]
    per_field = [r for r in after if r["theorem"] in PER_FIELD]
    assert per_field and not any(r["pass"] for r in per_field)
    for r in after:
        if r["theorem"] not in PER_FIELD:
            assert r["pass"] is (r["theorem"] != "integration_by_parts")


@pytest.mark.parametrize("scale", [inequalities.TOLERANCE_SCALE, 1e-2])
def test_equality_verdict_is_two_sided(scale):
    # a deficit of 3 scale exceeds the tolerance scale (1 + 3 scale) on
    # either side; only the equality verdict refuses the positive one
    def check(deficit):
        return inequalities.InequalityCheck(
            "euclidean_lsi", None, 2.0, lhs=0.0, rhs=deficit, constant=1.0,
            deficit=deficit)

    assert inequalities.verdict(check(3.0 * scale), scale)[0]
    assert not inequalities.verdict(check(3.0 * scale), scale, equality=True)[0]
    assert not inequalities.verdict(check(-3.0 * scale), scale)[0]
    assert inequalities.verdict(check(0.0), scale, equality=True)[0]


def test_integration_by_parts_sees_the_weight_term(monkeypatch):
    # every admissible pair is judged, among them pairs whose f varies along
    # the weighted axis, so dropping grad(log w) from L_w fails the record
    config = dict(json.loads((CONFIGS / "paper_replication.json").read_text()),
                  suites=["gamma_calculus"])

    def ibp(records):
        return next(r for r in records if r["theorem"] == "integration_by_parts")

    before = ibp(_records(config))
    assert before["pass"] and before["pairs"] == 36
    monkeypatch.setattr(DunklProduct, "grad_log",
                        lambda self, pts: np.zeros_like(pts))
    after = ibp(_records(config))
    assert after["pairs"] == 36
    assert not after["pass"]
    assert after["max_relative_residual"] > 0.1


# 2-D half-plane configs whose fields are all odd or of no parity in x_1, so
# none passes the Neumann gate
ODD_FIELDS = [{"kind": "affine", "a": [1.0, 0.0], "b": 0.3},
              {"kind": "affine", "a": [1.0, 1.0], "b": 0.0},
              {"kind": "exp_axis", "b": 0.5, "axis": 0},
              {"kind": "exp_axis", "b": -0.7, "axis": 0},
              {"kind": "hermite_witness", "axis": 0},
              {"kind": "poly_gauss", "seed": 3},
              {"kind": "poly_gauss", "seed": 4}]
GATED_FAMILIES = ["beckner", "poincare", "scale_poincare", "lsi",
                  "integration_by_parts"]


@pytest.mark.parametrize("exponents", [[1.5, 0.0], [0.0, 0.0]],
                         ids=["monomial", "flat"])
def test_a_family_that_judges_no_field_fails(tmp_path, exponents):
    config = {"dim": 2, "weight": {"kind": "monomial", "exponents": exponents},
              "cone": {"kind": "orthant", "axes": [0]},
              "quadrature": {"order": 32}, "fields": ODD_FIELDS,
              "suites": ["beckner", "poincare", "scale_poincare", "lsi",
                         "gamma_calculus"]}
    path, out = tmp_path / "odd.json", tmp_path / "report.json"
    path.write_text(json.dumps(config))
    assert cli.main(["verify", "--config", str(path), "--out", str(out)]) == 1
    records = [c for s in json.loads(out.read_text())["suites"]
               for c in s["checks"]]
    failed = [r for r in records if not r["pass"]]
    assert [r["theorem"] for r in failed] == GATED_FAMILIES
    assert all("none judged" in r["note"] for r in failed)
    assert failed[-1]["pairs"] == 0
