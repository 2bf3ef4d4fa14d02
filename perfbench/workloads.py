"""Workload definitions: which `gausscone verify` processes one repetition
of a workload runs, built from the benchmark seed.

Every workload passes the seed to the program (`--seed`); `sweep` also uses
it to pick its configs from a fixed pool, so the same seed always gives the
same inputs.  The pool is finite so that every config in it can carry a
stored reference (see reference.json and make_reference.py).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass

REPLICATION_CONFIG = "configs/paper_replication.json"

# the ROADMAP's 3-D partial monomial config; `hup_stability` is left out
# because it does not finish in 150 s at dim 3 (see NOTES.md)
PARTIAL_3D = {
    "dim": 3,
    "weight": {"kind": "monomial", "exponents": [1.5, 0.0, 0.0]},
    "quadrature": {"order": 16},
    "suites": ["poincare", "lsi", "hup", "spectral"],
}

# single-root Dunkl weight on its half-plane, the only Monte-Carlo workload;
# `hup` is left out because alone it takes 133 s and 2.0 GB (see NOTES.md)
DUNKL_MC = {
    "dim": 2,
    "weight": {"kind": "dunkl", "roots": [[0.6, 0.8]], "multiplicities": [0.5]},
    "quadrature": {"mc_samples": 200000},
    "suites": ["gamma_calculus", "beckner", "poincare", "lsi"],
}

SWEEP_SUITES = ["gamma_calculus", "beckner", "poincare", "scale_poincare",
                "lsi", "euclidean_lsi", "lsi_equivalence", "hup"]
# `hup` integrates on order^dim rate-matched nodes with order fixed at 32,
# which costs seconds at dim 3; a sweep config must stay cheap
SWEEP_SUITES_3D = [s for s in SWEEP_SUITES if s != "hup"]
_EXPONENTS = (0.5, 1.5, 3.0)


def _sweep_entry(dim: int, weight: dict) -> dict:
    return {
        "dim": dim,
        "weight": weight,
        "quadrature": {"order": 24 if dim < 3 else 16},
        "suites": SWEEP_SUITES if dim < 3 else SWEEP_SUITES_3D,
    }


def _axis(dim: int) -> list[float]:
    return [1.0] + [0.0] * (dim - 1)


def sweep_pool() -> dict[str, list[dict]]:
    """Every config `sweep` may draw, by slot.  A slot fixes the weight kind
    and the dimension, which set the cost of a config; the seed picks the
    exponent within each slot, so every seed does about the same work."""
    return {
        "monomial-1d": [_sweep_entry(1, {"kind": "monomial", "exponents": [a]})
                        for a in _EXPONENTS],
        "monomial-2d": [_sweep_entry(2, {"kind": "monomial",
                                         "exponents": [a, b]})
                        for a, b in itertools.product(_EXPONENTS, repeat=2)],
        "radial-1d": [_sweep_entry(1, {"kind": "radial", "alpha": a})
                      for a in _EXPONENTS],
        "radial-2d": [_sweep_entry(2, {"kind": "radial", "alpha": a})
                      for a in _EXPONENTS],
        "gaussian_tilt-3d": [_sweep_entry(3, {"kind": "gaussian_tilt", "s": s})
                             for s in (-0.5, 0.5, 2.0)],
        "partial_product-3d": [_sweep_entry(3, {
            "kind": "partial_product", "coords": [0],
            "inner": {"kind": "monomial", "exponents": [a]}})
            for a in _EXPONENTS],
        "dunkl-2d": [_sweep_entry(2, {"kind": "dunkl", "roots": [_axis(2)],
                                      "multiplicities": [k]})
                     for k in (0.25, 0.75, 1.5)],
        "dunkl-3d": [_sweep_entry(3, {"kind": "dunkl", "roots": [_axis(3)],
                                      "multiplicities": [k]})
                     for k in (0.25, 0.75, 1.5)],
    }


def sweep_configs(seed: int) -> list[dict]:
    """One config per slot of the pool, each picked by the seed."""
    rng = random.Random(seed)
    return [rng.choice(variants) for variants in sweep_pool().values()]


def config_key(config: dict) -> str:
    """Stable identifier of a config, independent of the program seed."""
    body = {k: v for k, v in config.items() if k != "seed"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # per-process wall cap in seconds; a process past it is killed
    process_cap_s: float
    # fewest repetitions one run makes, whatever --seconds says
    min_reps: int

    def configs(self, seed: int, root: str) -> list[dict]:
        if self.name == "replication":
            with open(f"{root}/{REPLICATION_CONFIG}") as fh:
                return [json.load(fh)]
        if self.name == "sweep":
            return sweep_configs(seed)
        if self.name == "partial_3d":
            return [PARTIAL_3D]
        if self.name == "dunkl_mc":
            return [DUNKL_MC]
        raise KeyError(self.name)


WORKLOADS = {w.name: w for w in (
    Workload("replication",
             "the paper's 2-D half-plane config with all ten suites; the only "
             "workload that runs hup_stability and leans on the rule cache",
             process_cap_s=40.0, min_reps=2),
    Workload("sweep",
             "8 small configs over five weight kinds and dims 1-3, exponents "
             "from the seed, cheap suites only; start-up dominates each one",
             process_cap_s=20.0, min_reps=2),
    Workload("partial_3d",
             "3-D partial monomial at order 16 with poincare, lsi, hup and "
             "spectral; shows how cost grows with dimension",
             process_cap_s=75.0, min_reps=1),
    Workload("dunkl_mc",
             "single-root Dunkl weight on a half-plane with 200000 Monte-Carlo "
             "samples; the only workload on the Monte-Carlo path",
             process_cap_s=40.0, min_reps=2),
)}

# Theorems that FAIL on a config on every seed: program defects, keyed by
# config_key, with the reason.  They are counted in checks_passed_frac; any
# other FAIL makes the run incorrect, except the one-point Bochner flake
# that harness.is_known_false_fail accepts on any config.
KNOWN_FALSE_FAILS = {
    config_key(DUNKL_MC): {
        "integration_by_parts":
            "nu_integral ignores mc_samples and seed and integrates on its "
            "own 1M-sample Monte-Carlo rule: residual 5.6e-4 against a 1e-7 "
            "gate on every seed",
    },
}
