"""Distances to the Heisenberg-uncertainty optimizer families and the
stability inequalities they control.

The optimizer family is E = {c exp(-|x|^2/(2 lambda^2))}; the improved
stability statement measures against the larger affine-Gaussian family
{(c + d.x) exp(-|x|^2/(2 lambda^2))}.  Inner minimization over the linear
coefficients is exact least squares against the lambda-Gaussian; the outer
one-dimensional minimization runs in log(lambda) with a coarse pre-scan
followed by golden-section refinement, which keeps the search deterministic
and auditable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractError, DegenerateInputError, NotHomogeneousError
from .fields import ScalarField
from .functionals import _nu_moments, hup_deficit
from .measures import nu_integral
from .weights import Weight

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0

LOG_LAMBDA_BRACKET = (math.log(1e-2), math.log(1e2))
PRESCAN_POINTS = 16
FAMILY_GAUSSIAN = "gaussian"
FAMILY_AFFINE_GAUSSIAN = "affine_gaussian"


@dataclass(frozen=True)
class DistanceResult:
    distance: float
    family: str
    c: float
    d: Optional[tuple[float, ...]]
    lam: Optional[float]
    degenerate: bool
    objective: float          # squared distance at the argmin
    prescan_best: float
    iterations: int


def _objective(weight: Weight, f: ScalarField, lam: float, affine: bool,
               norm_sq: float) -> tuple[float, np.ndarray]:
    """Least-squares residual ||f - proj_family||^2_w at fixed lambda."""
    rate_g = 0.5 / (lam * lam)

    def basis(pts):
        # e^{-|x|^2/(2 lambda^2)} times [1] or, for the affine family, [1, x]
        ones = np.ones((len(pts), 1))
        poly = np.hstack([ones, pts]) if affine else ones
        return poly * np.exp(-rate_g * np.sum(pts ** 2, axis=1))[:, None]

    def outer(pts):
        e = basis(pts)
        return e[:, :, None] * e[:, None, :]

    b = nu_integral(weight, lambda x: f.value(x)[:, None] * basis(x),
                    f.decay.rate + rate_g)
    gram = nu_integral(weight, outer, 2.0 * rate_g)
    coef = np.linalg.solve(gram, b)
    return max(norm_sq - float(b @ coef), 0.0), coef


def _golden(fn, lo: float, hi: float, tol: float = 1e-10) -> tuple[float, float, int]:
    """Golden-section minimum of fn on [lo, hi] to absolute tolerance tol."""
    h = hi - lo
    c = lo + INV_PHI2 * h
    d = lo + INV_PHI * h
    yc, yd = fn(c), fn(d)
    steps = max(int(math.ceil(math.log(tol / h) / math.log(INV_PHI))), 0)
    for _ in range(steps):
        if yc < yd:
            hi, d, yd = d, c, yc
            h *= INV_PHI
            c = lo + INV_PHI2 * h
            yc = fn(c)
        else:
            lo, c, yc = c, d, yd
            h *= INV_PHI
            d = lo + INV_PHI * h
            yd = fn(d)
    return (c, yc, steps) if yc < yd else (d, yd, steps)


def distance_to_family(weight: Weight, f: ScalarField,
                       family: str = FAMILY_GAUSSIAN,
                       prescan_points: int = PRESCAN_POINTS,
                       bracket: tuple[float, float] = LOG_LAMBDA_BRACKET) -> DistanceResult:
    """inf over the family of ||f - member||_{L2(w dx)} with its argmin.

    A flat pre-scan (the field is orthogonal to the family at every lambda,
    e.g. odd witnesses against the pure Gaussian family) short-circuits to
    distance = ||f|| with the argmin flagged degenerate.
    """
    if family not in (FAMILY_GAUSSIAN, FAMILY_AFFINE_GAUSSIAN):
        raise ContractError(f"unknown family {family!r}")
    affine = family == FAMILY_AFFINE_GAUSSIAN
    norm_sq = _nu_moments(weight, f).norm_sq
    if norm_sq <= 0.0:
        raise DegenerateInputError("zero field")

    def objective(loglam: float) -> float:
        return _objective(weight, f, math.exp(loglam), affine, norm_sq)[0]

    grid = np.linspace(bracket[0], bracket[1], prescan_points)
    vals = np.array([objective(g) for g in grid])
    spread = float(np.max(vals) - np.min(vals))
    if spread <= 1e-12 * (1.0 + norm_sq):
        return DistanceResult(
            distance=math.sqrt(norm_sq), family=family, c=0.0,
            d=tuple(0.0 for _ in range(weight.dim)) if affine else None,
            lam=None, degenerate=True, objective=norm_sq,
            prescan_best=float(np.min(vals)), iterations=0)

    best = int(np.argmin(vals))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    loglam, obj, iters = _golden(objective, lo, hi)
    lam = math.exp(loglam)
    obj, coef = _objective(weight, f, lam, affine, norm_sq)
    return DistanceResult(
        distance=math.sqrt(max(obj, 0.0)), family=family, c=float(coef[0]),
        d=tuple(float(v) for v in coef[1:]) if affine else None,
        lam=lam, degenerate=False, objective=obj,
        prescan_best=float(vals[best]), iterations=iters)


def brute_force_lambda_scan(weight: Weight, f: ScalarField,
                            family: str = FAMILY_GAUSSIAN,
                            num: int = 2001,
                            bracket: tuple[float, float] = LOG_LAMBDA_BRACKET) -> DistanceResult:
    """Optimizer oracle: the same search behind a dense num-point pre-scan,
    which checks that the coarse pre-scan brackets the global minimum."""
    return distance_to_family(weight, f, family, prescan_points=num,
                              bracket=bracket)


@dataclass(frozen=True)
class StabilityReport:
    delta: float
    distance_sq: float
    improved_distance_sq: Optional[float]
    argmin: dict
    kw: float
    basic_deficit: float        # delta - (1+K_w) d^2
    improved_deficit: Optional[float]
    passed: bool
    tolerance: float
    diagnostics: dict


def check_hup_stability(weight: Weight, f: ScalarField, improved: bool = False,
                        tolerance: float | None = None) -> StabilityReport:
    """delta_w(f) >= (1+K_w) d^2(f, E); improved version subtracts the basic
    bound and compares against the affine-Gaussian distance."""
    if not weight.is_homogeneous:
        raise NotHomogeneousError("HUP stability assumes a homogeneous weight")
    kw = weight.kw
    dres = hup_deficit(weight, f)
    base = distance_to_family(weight, f, FAMILY_GAUSSIAN)
    d_sq = base.distance ** 2
    tol = tolerance if tolerance is not None else 1e-7 * (1.0 + abs(dres.delta))
    basic_deficit = dres.delta - (1.0 + kw) * d_sq
    improved_deficit = None
    tilde_sq = None
    argmin = {"c": base.c, "lam": base.lam, "degenerate": base.degenerate}
    if improved:
        tilde = distance_to_family(weight, f, FAMILY_AFFINE_GAUSSIAN)
        tilde_sq = tilde.distance ** 2
        improved_deficit = basic_deficit - 0.5 * (1.0 + kw) * tilde_sq
        argmin["affine"] = {"c": tilde.c, "d": tilde.d, "lam": tilde.lam,
                            "degenerate": tilde.degenerate}
    ok = basic_deficit >= -tol
    if improved_deficit is not None:
        ok = ok and improved_deficit >= -tol
    return StabilityReport(
        delta=dres.delta, distance_sq=d_sq, improved_distance_sq=tilde_sq,
        argmin=argmin, kw=kw, basic_deficit=basic_deficit,
        improved_deficit=improved_deficit, passed=bool(ok), tolerance=tol,
        diagnostics={
            "lambda_star": dres.lambda_star,
            "identity_residual": dres.identity_residual,
            "prescan_best": base.prescan_best,
            "golden_iterations": base.iterations,
        })
