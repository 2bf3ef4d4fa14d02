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
measure's one moment table at any rate.  The search is a grid in
log(lambda), evaluated at once, that zooms onto the bracket around its
argmin until the bracket is sqrt(eps) wide, the resolution of a smooth
minimum (Brent 1973, ch. 5; Numerical Recipes, sec. 10.1); it is
deterministic, and every value it reports was computed on a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractError, DegenerateInputError, ParameterError
from .fields import ScalarField
from .functionals import hup_deficit
from .inequalities import TOLERANCE_SCALE
from .measures import Measure, nu_monomials

LOG_LAMBDA_BRACKET = (math.log(1e-2), math.log(1e2))
LOG_LAMBDA_TOL = math.sqrt(float(np.finfo(float).eps))
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
    iterations: int           # objective evaluations of the zoom


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
    try:
        coef = np.linalg.solve(gram, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise DegenerateInputError(
            f"singular family Gram matrix on a {len(measure.nodes)}-node rule"
        ) from None
    return np.maximum(norm_sq - np.sum(b * coef, axis=1), 0.0), coef


def distance_to_family(measure: Measure, f: ScalarField,
                       family: str = FAMILY_GAUSSIAN,
                       prescan_points: int = PRESCAN_POINTS) -> DistanceResult:
    """inf over the family of ||f - member||_{L2(w dx)} with its argmin.

    f must carry its polynomial-times-Gaussian structure, and the weight a
    degree; ||f||^2 comes from the same moment table as the projections.
    While the neighbours of the grid argmin lie more than LOG_LAMBDA_TOL
    apart, PRESCAN_POINTS more points span them (at most 2/15 of the last
    bracket); the result is the lowest value evaluated, with its lambda and
    coefficients.  A flat pre-scan (the field is orthogonal to the family at
    every lambda, e.g. odd witnesses against the pure Gaussian family)
    short-circuits to distance = ||f|| with the argmin flagged degenerate.
    """
    if family not in (FAMILY_GAUSSIAN, FAMILY_AFFINE_GAUSSIAN):
        raise ContractError(f"unknown family {family!r}")
    if prescan_points < 3:
        raise ParameterError(
            f"prescan_points = {prescan_points}: the pre-scan needs at least 3")
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

    grid = np.linspace(*LOG_LAMBDA_BRACKET, prescan_points)
    lams = np.exp(grid)
    vals, coefs = _objective(measure, f, lams, affine, norm_sq)
    prescan_best = float(np.min(vals))
    if float(np.max(vals)) - prescan_best <= 1e-12 * (1.0 + norm_sq):
        return DistanceResult(
            distance=math.sqrt(norm_sq), family=family, c=0.0,
            d=tuple(0.0 for _ in range(measure.dim)) if affine else None,
            lam=None, degenerate=True, prescan_best=prescan_best,
            iterations=0)

    best, rounds = math.inf, 0
    while True:
        i = int(np.argmin(vals))
        if vals[i] <= best:
            best, coef, lam = float(vals[i]), coefs[i], float(lams[i])
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
        if hi - lo <= LOG_LAMBDA_TOL:
            break
        grid = np.linspace(lo, hi, PRESCAN_POINTS)
        lams = np.exp(grid)
        vals, coefs = _objective(measure, f, lams, affine, norm_sq)
        rounds += 1
    return DistanceResult(
        distance=math.sqrt(best), family=family, c=float(coef[0]),
        d=tuple(float(v) for v in coef[1:]) if affine else None,
        lam=lam, degenerate=False, prescan_best=prescan_best,
        iterations=rounds * PRESCAN_POINTS)


def brute_force_lambda_scan(measure: Measure, f: ScalarField,
                            family: str = FAMILY_GAUSSIAN,
                            num: int = 2001) -> DistanceResult:
    """Optimizer oracle: the same search behind a dense num-point pre-scan,
    which checks that the coarse pre-scan brackets the global minimum."""
    return distance_to_family(measure, f, family, prescan_points=num)


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
