"""The gate table: every limit that decides a report record's `pass` lives in
`inequalities.GATES`, at its pinned value, and the suites read it there."""

import math
from pathlib import Path

import pytest

from gausscone import inequalities
from gausscone.config import parse_config
from gausscone.inequalities import GATES, Gate
from gausscone.report import run

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
