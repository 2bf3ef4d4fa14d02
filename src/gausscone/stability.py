"""Distances to the Heisenberg-uncertainty optimizer families and the
stability inequalities they control.

The optimizer family is E = {c exp(-|x|^2/(2 lambda^2))}; the improved
stability statement measures against the larger affine-Gaussian family
{(c + d.x) exp(-|x|^2/(2 lambda^2))}.  Inner minimization over the linear
coefficients is exact least squares against the lambda-Gaussian; the outer
one-dimensional minimization runs in log(lambda).  Every entry point takes
the run's `Measure` for its weight and rule settings.  The field must carry
its structure p(x) exp(-r |x|^2) (`ScalarField.poly_gauss`), so its norm,
its projections on the family basis and the basis Gram matrix are sums of
monomial nu-integrals, which `measures.nu_monomials` takes from the
measure's one moment table at any rate.  A pre-scan evaluates the objective
on a grid of lambda at once, and Brent's method (Brent 1973) refines the
best grid bracket, which keeps the search deterministic and auditable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractError, DegenerateInputError
from .fields import ScalarField
from .functionals import hup_deficit
from .inequalities import TOLERANCE_SCALE
from .measures import Measure, nu_monomials

GOLDEN_STEP = (3.0 - math.sqrt(5.0)) / 2.0
EPS = float(np.finfo(float).eps)

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
    prescan_best: float
    iterations: int           # objective evaluations of the refinement


def _objective(measure: Measure, f: ScalarField, lams: np.ndarray, affine: bool,
               norm_sq: float) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares residuals ||f - proj_family||^2_w at each lambda of the
    1-D array lams, with the (len(lams), m) coefficients of the projections.

    With f = sum_g c_g x^g e^{-r|x|^2} and the basis x^b e^{-|x|^2/(2 lambda^2)}
    (b = 0, and each unit vector for the affine family), the projections are
    c^T of the integrals of x^g x^b at rate r + 1/(2 lambda^2) and the Gram
    matrix holds those of x^b x^b' at rate 1/lambda^2."""
    dim = measure.dim
    # exponent rows 0, e_1, ..., e_n
    basis = np.eye(dim + 1, dim, k=-1, dtype=np.int64)[:dim + 1 if affine else 1]
    pg = f.poly_gauss
    rate_g = 0.5 / (lams * lams)
    gram = nu_monomials(measure, basis, basis, 2.0 * rate_g)
    b = pg.poly.coeffs @ nu_monomials(measure, pg.poly.expo, basis, pg.rate + rate_g)
    coef = np.linalg.solve(gram, b[..., None])[..., 0]
    return np.maximum(norm_sq - np.sum(b * coef, axis=1), 0.0), coef


def _brent(fn, lo: float, x: float, fx: float, hi: float,
           tol: float = 1e-10) -> tuple[float, float, int]:
    """Brent's minimization (Brent 1973, ch. 5) of fn on [lo, hi] from the
    point x with value fx, to absolute tolerance tol in the argument: golden
    steps, replaced by parabolic ones where those converge.  Returns the
    argmin, its value and the number of evaluations of fn."""
    w = v = x
    fw = fv = fx
    d = e = 0.0
    evals = 0
    while True:
        mid = 0.5 * (lo + hi)
        # the relative term keeps a step of tol1 from vanishing in x + tol1
        tol1 = tol + 4.0 * EPS * abs(x)
        if abs(x - mid) <= 2.0 * tol1 - 0.5 * (hi - lo):
            return x, fx, evals
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (lo - x) < p < q * (hi - x):
                e, d = d, p / q
                parabolic = True
                if (x + d) - lo < 2.0 * tol1 or hi - (x + d) < 2.0 * tol1:
                    d = tol1 if x < mid else -tol1
        if not parabolic:
            e = (hi if x < mid else lo) - x
            d = GOLDEN_STEP * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = fn(u)
        evals += 1
        if fu <= fx:
            if u < x:
                hi = x
            else:
                lo = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                lo = u
            else:
                hi = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def distance_to_family(measure: Measure, f: ScalarField,
                       family: str = FAMILY_GAUSSIAN,
                       prescan_points: int = PRESCAN_POINTS,
                       bracket: tuple[float, float] = LOG_LAMBDA_BRACKET) -> DistanceResult:
    """inf over the family of ||f - member||_{L2(w dx)} with its argmin.

    f must carry its polynomial-times-Gaussian structure, and the weight a
    degree; ||f||^2 comes from the same moment table as the projections.
    A flat pre-scan (the field is orthogonal to the family at every lambda,
    e.g. odd witnesses against the pure Gaussian family) short-circuits to
    distance = ||f|| with the argmin flagged degenerate.
    """
    if family not in (FAMILY_GAUSSIAN, FAMILY_AFFINE_GAUSSIAN):
        raise ContractError(f"unknown family {family!r}")
    pg = f.poly_gauss
    if pg is None:
        raise ContractError(
            f"field {f.name} is not a polynomial times a Gaussian")
    c = pg.poly.coeffs
    norm_sq = float(c @ nu_monomials(measure, pg.poly.expo, pg.poly.expo,
                                     2.0 * pg.rate) @ c)
    if norm_sq <= 0.0:
        raise DegenerateInputError("zero field")
    affine = family == FAMILY_AFFINE_GAUSSIAN

    def objective(loglam: float) -> float:
        return float(_objective(measure, f, np.array([math.exp(loglam)]),
                                affine, norm_sq)[0][0])

    grid = np.linspace(bracket[0], bracket[1], prescan_points)
    vals = _objective(measure, f, np.exp(grid), affine, norm_sq)[0]
    spread = float(np.max(vals) - np.min(vals))
    if spread <= 1e-12 * (1.0 + norm_sq):
        return DistanceResult(
            distance=math.sqrt(norm_sq), family=family, c=0.0,
            d=tuple(0.0 for _ in range(measure.dim)) if affine else None,
            lam=None, degenerate=True, prescan_best=float(np.min(vals)),
            iterations=0)

    best = int(np.argmin(vals))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    loglam, _, evals = _brent(objective, float(lo), float(grid[best]),
                              float(vals[best]), float(hi))
    lam = math.exp(loglam)
    objs, coefs = _objective(measure, f, np.array([lam]), affine, norm_sq)
    coef = coefs[0]
    return DistanceResult(
        distance=math.sqrt(objs[0]), family=family, c=float(coef[0]),
        d=tuple(float(v) for v in coef[1:]) if affine else None,
        lam=lam, degenerate=False, prescan_best=float(vals[best]),
        iterations=evals)


def brute_force_lambda_scan(measure: Measure, f: ScalarField,
                            family: str = FAMILY_GAUSSIAN,
                            num: int = 2001,
                            bracket: tuple[float, float] = LOG_LAMBDA_BRACKET) -> DistanceResult:
    """Optimizer oracle: the same search behind a dense num-point pre-scan,
    which checks that the coarse pre-scan brackets the global minimum."""
    return distance_to_family(measure, f, family, prescan_points=num,
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


def check_hup_stability(measure: Measure, f: ScalarField, improved: bool = False,
                        tolerance: float | None = None) -> StabilityReport:
    """delta_w(f) >= (1+K_w) d^2(f, E); improved version subtracts the basic
    bound and compares against the affine-Gaussian distance.  Each deficit
    passes at >= -tolerance, an absolute limit (the suites pass theirs from
    `inequalities.GATES`), by default TOLERANCE_SCALE (1 + |delta|); a
    weight without a degree raises NotHomogeneousError."""
    kw = measure.weight.kw
    dres = hup_deficit(measure, f)
    base = distance_to_family(measure, f, FAMILY_GAUSSIAN)
    d_sq = base.distance ** 2
    tol = (tolerance if tolerance is not None
           else TOLERANCE_SCALE * (1.0 + abs(dres.delta)))
    basic_deficit = dres.delta - (1.0 + kw) * d_sq
    improved_deficit = None
    tilde_sq = None
    argmin = {"c": base.c, "lam": base.lam, "degenerate": base.degenerate}
    if improved:
        tilde = distance_to_family(measure, f, FAMILY_AFFINE_GAUSSIAN)
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
            "refine_iterations": base.iterations,
        })
