"""Suite runners: each executes one family of checks against a weight and a
field library and returns JSON-ready records.

A record always carries "theorem", "pass" and "informational"; informational
records (skipped contracts, out-of-range parameter notes) never fail a suite.
Record lists are deterministic: fields in declared order, sub-checks in fixed
order, seeded randomness only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ToolkitError
from .fields import (
    ScalarField,
    affine,
    constant,
    exp_axis,
    gaussian,
    gaussian_quarter,
    hermite_witness,
    poly_gauss,
    scaled,
    shifted,
    squared,
)
from .gamma import (
    bochner_residual,
    cd_margin,
    integration_by_parts_residual,
    is_neumann_admissible,
    neumann_residual,
)
from .inequalities import (
    TOLERANCE_SCALE,
    InequalityCheck,
    check_beckner,
    check_euclidean_lsi,
    check_hup,
    check_lsi,
    check_lsi_equivalence,
    check_poincare,
    check_scale_poincare,
    euclidean_lsi_rescaling_invariance,
    limit,
    sharpness_sweep,
    verdict,
)
from .measures import Measure, integrate
from .spectral import (
    build_galerkin,
    duality_stability_residual,
    galerkin_applies,
    poisson_solve,
    semigroup_decay_check,
    spectral_gap,
)
from .stability import brute_force_lambda_scan, check_hup_stability, distance_to_family
from .weights import Weight

# seeded poly_gauss fields per run of the HUP identity and of HUP stability
IDENTITY_SEEDS = 50
STABILITY_SEEDS = 20

SUITE_NAMES = (
    "gamma_calculus", "beckner", "poincare", "scale_poincare", "lsi",
    "euclidean_lsi", "lsi_equivalence", "hup", "hup_stability", "spectral",
)


@dataclass
class RunContext:
    measure: Measure
    fields: list[ScalarField]
    tolerance: float = TOLERANCE_SCALE
    seed: int = 0

    @property
    def weight(self) -> Weight:
        return self.measure.weight

    @property
    def dim(self) -> int:
        return self.weight.dim

    @property
    def constrained(self) -> frozenset[int]:
        """Cone-constrained axes, where library fields are even."""
        return self.weight.cone.constrained_axes()

    @property
    def free_axis(self) -> int:
        return _free_axis(self.weight)

    @property
    def free_unit(self) -> np.ndarray:
        """Unit vector along free_axis."""
        return np.eye(self.dim)[self.free_axis]

    def judged(self, check: InequalityCheck, field_name: str) -> dict:
        """The record of a per-field check at the run tolerance."""
        return record_of(check, field_name, limit("per_field", self.tolerance))


def _free_axis(weight: Weight) -> int:
    """First free axis of the weight, or the last axis if none is free."""
    free = weight.free_axes()
    return free[0] if free else weight.dim - 1


def default_library(weight: Weight, seed: int = 0) -> list[ScalarField]:
    """Canonical field library adapted to the weight's cone."""
    dim = weight.dim
    constrained = weight.cone.constrained_axes()
    axis = _free_axis(weight)
    return [
        constant(2.0, dim),
        affine(np.eye(dim)[axis], 0.3),
        exp_axis(0.5, axis, dim),
        hermite_witness(axis, dim),
        gaussian(1.3, 1.2, dim),
        gaussian_quarter(1.1, dim),
        poly_gauss(seed, dim, even_axes=constrained),
        poly_gauss(seed + 1, dim, even_axes=constrained),
    ]


def record(theorem: str, passed, informational: bool = False, **data) -> dict:
    """A report record; an informational one never fails a suite."""
    return {"theorem": theorem, "pass": bool(passed),
            "informational": informational, **data}


def _fields_of(obj) -> dict:
    """A dataclass's fields by name, in declared order, read as they are:
    no deep copy, since `report` copies every record as it serializes it."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def record_of(check: InequalityCheck, field_name: str | None = None,
              scale: float = TOLERANCE_SCALE, equality: bool = False) -> dict:
    """The record of a per-field check, judged by `verdict` at the scale."""
    passed, tol = verdict(check, scale, equality)
    data = _fields_of(check)
    if field_name is not None:
        data["field"] = field_name
    return record(data.pop("theorem"), passed, data.pop("informational"),
                  tolerance=tol, **data)


def _info(theorem: str, note: str, **extra) -> dict:
    return record(theorem, True, True, note=note, **extra)


def _mu_admissible(ctx: RunContext, f: ScalarField) -> bool:
    return is_neumann_admissible(f, ctx.weight.cone, limit("neumann_admission"))


def _gated(ctx: RunContext, theorem: str, out: list[dict]):
    """The fields that pass the Neumann gate; each one that fails it leaves
    an informational record in `out` instead."""
    for f in ctx.fields:
        if _mu_admissible(ctx, f):
            yield f
        else:
            out.append(_info(theorem, "skipped: field violates the Neumann gate",
                             field=f.name))


# what a suite needs of its measure; without it, the suite skips with a note
_PRECONDITIONS = {
    "kw": (lambda m: m.weight.curvature is not None,
           "weight carries no curvature certificate"),
    "homogeneous": (lambda m: m.weight.is_homogeneous,
                    "weight is not homogeneous"),
    "log_concave": (lambda m: m.weight.is_homogeneous and m.weight.curvature == 0.0,
                    "requires a log-concave homogeneous weight"),
    "tensor": (galerkin_applies, "needs an axis-aligned tensor rule"),
}


def _requires(*needs: str):
    """Run the suite only where its measure meets every precondition named,
    checked in order; the first unmet one makes the suite's one record."""
    def wrap(suite):
        @functools.wraps(suite)
        def run(ctx: RunContext) -> list[dict]:
            for need in needs:
                holds, note = _PRECONDITIONS[need]
                if not holds(ctx.measure):
                    return [_info(suite.__name__.removeprefix("suite_"),
                                  f"skipped: {note}")]
            return suite(ctx)
        return run
    return wrap


# ---------------------------------------------------------------------------

@_requires("kw")
def suite_beckner(ctx: RunContext) -> list[dict]:
    out = []
    for f in _gated(ctx, "beckner", out):
        for (p, q) in ((1.0, 2.0), (1.5, 2.0)):
            out.append(ctx.judged(check_beckner(ctx.measure, f, p, q), f.name))
    if ctx.weight.free_axes():
        u = affine(ctx.free_unit, 0.0)
        sweep = sharpness_sweep(
            lambda g: check_beckner(ctx.measure, g, 1.0, 2.0),
            "perturbation", u=u, eps_list=[0.1, 0.05, 0.025])
        ratio = sweep.extrapolated_ratio
        out.append(record(
            "beckner_sharpness", abs(ratio - 1.0) <= limit("beckner_sharpness"),
            extrapolated_ratio=ratio, rows=[_fields_of(r) for r in sweep.rows]))
    return out


@_requires("kw")
def suite_poincare(ctx: RunContext) -> list[dict]:
    out = []
    for f in _gated(ctx, "poincare", out):
        for level in ("basic", "gradient_stability", "l2_stability"):
            out.append(ctx.judged(check_poincare(ctx.measure, f, 2.0, level),
                                  f.name))
    if ctx.weight.free_axes():
        members = [affine(3.0 * ctx.free_unit, 1.0)]
        sweep = sharpness_sweep(
            lambda g: check_poincare(ctx.measure, g, 2.0, "basic"),
            "extremal", members=members)
        worst = max(abs(r.deficit) for r in sweep.rows)
        out.append(record("poincare_extremal", worst <= limit("poincare_extremal"),
                          max_abs_deficit=worst,
                          rows=[_fields_of(r) for r in sweep.rows]))
    return out


@_requires("kw", "homogeneous")
def suite_scale_poincare(ctx: RunContext) -> list[dict]:
    out = []
    for f in _gated(ctx, "scale_poincare", out):
        for lam, level in ((0.5, "basic"), (1.0, "basic"), (2.0, "basic"),
                           (1.3, "improved")):
            out.append(ctx.judged(
                check_scale_poincare(ctx.measure, f, lam, level), f.name))
    return out


@_requires("kw")
def suite_lsi(ctx: RunContext) -> list[dict]:
    out = []
    for f in _gated(ctx, "lsi", out):
        out.append(ctx.judged(check_lsi(ctx.measure, f, 2.0), f.name))
    if ctx.weight.free_axes():
        members = [exp_axis(b, ctx.free_axis, ctx.dim) for b in (0.25, 0.5, 1.0)]
        sweep = sharpness_sweep(
            lambda g: check_lsi(ctx.measure, g, 2.0), "extremal", members=members)
        worst = max(abs(r.deficit) / (1.0 + abs(r.rhs)) for r in sweep.rows)
        out.append(record("lsi_extremal", worst <= limit("lsi_extremal"),
                          max_relative_deficit=worst,
                          rows=[_fields_of(r) for r in sweep.rows]))
    return out


@_requires("log_concave")
def suite_euclidean_lsi(ctx: RunContext) -> list[dict]:
    out = []
    # the equality cases: |deficit| itself must vanish
    for amp in (1.0, 2.0):
        chk = check_euclidean_lsi(ctx.measure, gaussian_quarter(amp, ctx.dim))
        out.append(record_of(chk, f"gaussian_quarter(A={amp})",
                             limit("euclidean_lsi_equality"), equality=True))
    for f in ctx.fields:
        if f.decay.is_gaussian:
            out.append(ctx.judged(check_euclidean_lsi(ctx.measure, f), f.name))
    probe = gaussian(1.0, 1.1, ctx.dim)
    inv = euclidean_lsi_rescaling_invariance(ctx.measure, probe, lam=2.0)
    out.append(record("euclidean_lsi_rescaling", inv["relative_change"]
                      <= limit("euclidean_lsi_rescaling"), **inv))
    return out


@_requires("log_concave")
def suite_lsi_equivalence(ctx: RunContext) -> list[dict]:
    candidates = [constant(1.0, ctx.dim)]
    if ctx.weight.free_axes():
        candidates.append(exp_axis(0.25, ctx.free_axis, ctx.dim))
    candidates.append(poly_gauss(ctx.seed + 7, ctx.dim, even_axes=ctx.constrained))
    out = []
    for big_f in candidates:
        res = check_lsi_equivalence(ctx.measure, big_f)
        out.append(record("lsi_equivalence", res.pop("pass"), field=big_f.name,
                          **res))
    return out


@_requires("homogeneous")
def suite_hup(ctx: RunContext) -> list[dict]:
    out = []
    for f in ctx.fields:
        if not f.decay.is_gaussian:
            out.append(_info("hup", "skipped: no Gaussian decay envelope",
                             field=f.name))
            continue
        out.append(ctx.judged(check_hup(ctx.measure, f), f.name))
    # UNP identity on seeded fields
    worst = 0.0
    for k in range(IDENTITY_SEEDS):
        g = poly_gauss(ctx.seed + 100 + k, ctx.dim, even_axes=ctx.constrained)
        chk = check_hup(ctx.measure, g)
        rel = chk.diagnostics["identity_residual"] / (
            1.0 + abs(chk.diagnostics["delta"]))
        worst = max(worst, rel)
    out.append(record("hup_identity", worst <= limit("hup_identity"),
                      seeds=IDENTITY_SEEDS, max_relative_residual=worst))
    return out


@_requires("kw", "homogeneous")
def suite_hup_stability(ctx: RunContext) -> list[dict]:
    out = []
    if ctx.weight.free_axes():
        wit = hermite_witness(ctx.free_axis, ctx.dim)
        rep = check_hup_stability(
            ctx.measure, wit, improved=True,
            tolerance=limit("hup_stability_witness", ctx.tolerance))
        eq_gap = abs(rep.delta - (1.0 + rep.kw) * rep.distance_sq)
        gap_gate = limit("hup_stability_witness_equality_gap") * (1.0 + rep.delta)
        out.append(record(
            "hup_stability_witness", rep.passed and eq_gap <= gap_gate,
            field=wit.name, delta=rep.delta, distance_sq=rep.distance_sq,
            improved_distance_sq=rep.improved_distance_sq,
            equality_gap=eq_gap, argmin=rep.argmin,
            diagnostics=rep.diagnostics))
    fails = 0
    worst_basic = math.inf
    worst_improved = math.inf
    for k in range(STABILITY_SEEDS):
        g = poly_gauss(ctx.seed + 300 + k, ctx.dim, even_axes=ctx.constrained)
        rep = check_hup_stability(
            ctx.measure, g, improved=True,
            tolerance=limit("hup_stability_seeded", ctx.tolerance))
        worst_basic = min(worst_basic, rep.basic_deficit)
        worst_improved = min(worst_improved, rep.improved_deficit)
        if not rep.passed:
            fails += 1
    out.append(record("hup_stability_seeded", fails == 0,
                      seeds=STABILITY_SEEDS, failures=fails,
                      min_basic_deficit=worst_basic,
                      min_improved_deficit=worst_improved))
    # optimizer oracle on one seeded field
    g = poly_gauss(ctx.seed + 301, ctx.dim, even_axes=ctx.constrained)
    fast = distance_to_family(ctx.measure, g)
    oracle = brute_force_lambda_scan(ctx.measure, g, num=2001)
    lam_rel = (0.0 if fast.degenerate or oracle.degenerate
               else abs(fast.lam - oracle.lam) / oracle.lam)
    dist_rel = abs(fast.distance - oracle.distance) / (1.0 + oracle.distance)
    gate = limit("hup_stability_oracle")
    out.append(record("hup_stability_oracle", lam_rel <= gate and dist_rel <= gate,
                      lambda_rel_err=lam_rel, distance_rel_err=dist_rel))
    return out


@_requires("kw", "tensor")
def suite_spectral(ctx: RunContext) -> list[dict]:
    out = []
    system = build_galerkin(ctx.measure)
    res = spectral_gap(system)
    kw = ctx.weight.kw
    gap_ok = res.gap >= (1.0 + kw) - limit("spectral_gap")
    out.append(record(
        "spectral_gap", gap_ok and res.converged, gap=res.gap,
        convergence_delta=res.convergence_delta,
        gram_residual=system.gram_residual,
        eigenvalues=[float(v) for v in res.eigenvalues[:8]],
        lower_bound=1.0 + kw, max_degree=system.max_degree))
    if ctx.weight.free_axes():
        coeffs = system.project(affine(ctx.free_unit, 0.0))
        s_c = system.stiffness @ coeffs
        rayleigh = float(coeffs @ s_c) / float(coeffs @ coeffs)
        resid = float(np.linalg.norm(s_c - rayleigh * coeffs))
        gate = limit("spectral_free_axis_eigenfunction")
        out.append(record("spectral_free_axis_eigenfunction",
                          abs(rayleigh - 1.0) <= gate and resid <= gate,
                          rayleigh=rayleigh, residual=resid))
    g = poly_gauss(ctx.seed + 11, ctx.dim, even_axes=ctx.constrained)
    sol = poisson_solve(system, shifted(g, -integrate(system.measure, g.value)))
    out.append(record("poisson_solve", sol.residual <= limit("poisson_solve"),
                      residual=sol.residual,
                      projection_error=sol.projection_error))
    dual = duality_stability_residual(system, g)
    out.append(record("poincare_duality", dual.pop("chain_holds"), **dual))
    grid = np.arange(0.0, 3.25, 0.25)
    for f in _nonneg_decay_fields(ctx):
        for (p, q) in ((1.0, 2.0), (1.5, 2.0)):
            dc = semigroup_decay_check(system, f, p, q, grid)
            out.append(record(
                "semigroup_decay", dc.passed, field=f.name, p=p, q=q,
                decreasing=dc.decreasing, quotient_bounded=dc.quotient_bounded,
                phi0=dc.phi0, phi0_expected=dc.phi0_expected,
                phi_limit=dc.phi_limit,
                phi_limit_expected=dc.phi_limit_expected, shift=dc.shift))
    return out


def _nonneg_decay_fields(ctx: RunContext) -> list[ScalarField]:
    """Small non-constant, nonnegative-leaning set for the decay grid."""
    dim = ctx.dim
    axis = ctx.free_axis
    constrained = ctx.constrained
    quad = shifted(scaled(squared(affine(ctx.free_unit, 0.0)), 0.2), 1.0)
    fields = [
        quad.with_name("1+0.2x_k^2"),
        exp_axis(0.5, axis, dim) if axis not in constrained
        else shifted(gaussian(1.0, 1.5, dim), 0.1),
        shifted(gaussian(1.0, 1.2, dim), 0.05),
        shifted(poly_gauss(ctx.seed + 21, dim, even_axes=constrained), 3.0),
        shifted(scaled(hermite_witness(axis, dim), 0.3), 1.5)
        if axis not in constrained
        else shifted(poly_gauss(ctx.seed + 22, dim, even_axes=constrained), 2.5),
    ]
    return fields


def suite_gamma_calculus(ctx: RunContext) -> list[dict]:
    out = []
    w = ctx.weight
    rng = np.random.default_rng(ctx.seed + 5)
    sample = w.cone.sample_interior(rng, 10_000, radius=6.0)
    if w.curvature is not None:
        worst = math.inf
        for f in ctx.fields:
            worst = min(worst, cd_margin(w, f, sample=sample))
        out.append(record("cd_margin", worst >= -limit("cd_margin"),
                          min_margin=worst, sample_size=len(sample)))
    else:
        out.append(_info("cd_margin", "skipped: no curvature certificate"))
    # Bochner O(h^2) convergence on seeded fields; points kept well clear of
    # the facets so the finite-difference stencil stays interior
    ratios = []
    pts = w.cone.sample_interior(rng, 200, radius=2.5)
    gaps = w.cone.facet_gaps(pts)
    if gaps.shape[1]:
        pts = pts[np.min(gaps, axis=1) > 0.3]
    for k in range(10):
        g = poly_gauss(ctx.seed + 500 + k, ctx.dim, even_axes=ctx.constrained)
        x = pts[k % len(pts)]
        r1 = bochner_residual(w, g, x, h=2e-2)
        r2 = bochner_residual(w, g, x, h=1e-2)
        if r2 > limit("bochner_convergence_floor"):
            ratios.append(r1 / r2)
    low, high = limit("bochner_convergence")
    ok = all(low <= r <= high for r in ratios) and len(ratios) >= limit(
        "bochner_convergence_min_ratios")
    out.append(record("bochner_convergence", ok, ratios=ratios))
    # integration by parts on Neumann-compatible pairs
    pairs = []
    admissible = [f for f in ctx.fields if _mu_admissible(ctx, f)]
    for i in range(len(admissible)):
        for j in range(i, len(admissible)):
            pairs.append((admissible[i], admissible[j]))
    worst = 0.0
    for f, g in pairs[:12]:
        worst = max(worst, integration_by_parts_residual(ctx.measure, f, g))
    out.append(record("integration_by_parts", worst <= limit("integration_by_parts"),
                      max_relative_residual=worst, pairs=len(pairs[:12])))
    if w.cone.has_boundary:
        recs = []
        for f in ctx.fields:
            recs.append({"field": f.name,
                         "residual": neumann_residual(f, w.cone, seed=ctx.seed)})
        out.append(record("neumann_residuals", True, True, residuals=recs))
    if w.is_homogeneous:
        pts2 = w.cone.sample_interior(rng, 1000, radius=8.0)
        res = np.abs(w.euler_residual(pts2))
        scale = w.eval(pts2) * (1.0 + np.linalg.norm(pts2, axis=1))
        worst = float(np.max(res / np.maximum(scale, 1e-300)))
        out.append(record("euler_identity", worst <= limit("euler_identity"),
                          max_scaled_residual=worst))
    return out


SUITES = {
    "beckner": suite_beckner,
    "poincare": suite_poincare,
    "scale_poincare": suite_scale_poincare,
    "lsi": suite_lsi,
    "euclidean_lsi": suite_euclidean_lsi,
    "lsi_equivalence": suite_lsi_equivalence,
    "hup": suite_hup,
    "hup_stability": suite_hup_stability,
    "spectral": suite_spectral,
    "gamma_calculus": suite_gamma_calculus,
}


def run_suite(name: str, ctx: RunContext) -> list[dict]:
    if name not in SUITES:
        raise ToolkitError(f"unknown suite {name!r}")
    return SUITES[name](ctx)
