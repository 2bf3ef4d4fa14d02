"""Scalar functionals compared by the inequality checkers: L^q norms,
variance, entropy, Dirichlet energy, weighted moments, the optimal
uncertainty scale lambda* and the Heisenberg deficit delta_w.

Each mu-functional has one formula, a private function of the field's values
or gradients at the measure's nodes that integrates through
`measures.integrate`, forming its integrand one block of nodes at a time.
The public functions evaluate the field and call it; the checkers of
`inequalities` call it on the measure's jet of the field
(`Measure.node_jet`).  Stacked integrands are built axis-first, component
rows of a C-contiguous buffer passed as its `.T` view, as the nodes are.

The weighted-Lebesgue (nu = w dx) functionals take the run's measure for its
weight and rule settings and are restricted to fields with Gaussian decay
envelopes.  They hand `measures.nu_integral` the slow factors of their
integrands, formed from the field's `fields.slow_jet`, and it sums them on
the rate-matched rule of those settings: polynomial-times-Gaussian fields
are integrated exactly, and no Gaussian is formed at a node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ContractError,
    DegenerateInputError,
    DomainError,
    NotHomogeneousError,
    ParameterError,
)
from .fields import ScalarField, slow_jet
from .measures import Measure, integrate, nu_integral

_NEG_TOL = 1e-12


def _lq_norm(measure: Measure, vals: np.ndarray, q: float) -> float:
    """(int |f|^q dmu)^(1/q) from the values of f at the nodes."""
    return integrate(measure, lambda x, v: np.abs(v) ** q, vals) ** (1.0 / q)


def _mean_variance(measure: Measure, vals: np.ndarray) -> tuple[float, float]:
    """Mean and variance of f under mu from its values at the nodes."""
    # shifted data (Chan, Golub and LeVeque 1983): the moments of f - c with
    # c the value at the heaviest node cancel only the spread of f, not its
    # size, and a constant has variance exactly 0 even though the weights
    # sum to 1 only up to round-off
    shift = vals[np.argmax(measure.rule.weights)]

    def moments(x, v):
        dev = v - shift
        return np.stack([dev, dev ** 2]).T

    m1, m2 = integrate(measure, moments, vals)
    return float(shift + m1), max(float(m2 - m1 ** 2), 0.0)


def _entropy(measure: Measure, g, *arrays) -> tuple[float, float]:
    """(Ent(g), int g dmu) for g >= 0, with 0 log 0 := 0: g(x, *rows) gives
    the values of g on a block of nodes x and the block's rows of the
    node-aligned arrays, as `integrate` calls it."""
    low, high = [0.0], [0.0]  # the least value of g and the largest |g|

    def terms(x, *rows):
        vals = g(x, *rows)
        low.append(float(np.min(vals)))
        high.append(float(np.max(np.abs(vals))))
        vals = np.maximum(vals, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            glogg = np.where(vals > 0.0, vals * np.log(vals), 0.0)
        return np.stack([vals, glogg]).T

    total, glogg_total = integrate(measure, terms, *arrays)
    if min(low) < -_NEG_TOL * (1.0 + max(high)):
        raise DomainError("entropy integrand is negative")
    if total <= 0.0:
        raise DegenerateInputError("entropy of the zero field")
    return float(glogg_total - total * math.log(total)), float(total)


def _energy(measure: Measure, grad: np.ndarray, q: float) -> float:
    """int |grad f|^q dmu from the (N, n) gradients at the nodes."""
    return integrate(measure, lambda x, d: np.sum(d ** 2, axis=1) ** (0.5 * q),
                     grad)


def lq_norm(measure: Measure, f: ScalarField, q: float) -> float:
    """(int |f|^q dmu)^(1/q)."""
    if q < 1:
        raise ParameterError("q must be >= 1")
    return _lq_norm(measure, f.value(measure.nodes), q)


def variance(measure: Measure, f: ScalarField) -> float:
    return _mean_variance(measure, f.value(measure.nodes))[1]


def entropy(measure: Measure, g: ScalarField) -> float:
    """Ent(g) = int g log g dmu - (int g) log(int g), with 0 log 0 := 0.

    g must be the nonnegative integrand itself (pass squared(f) for Ent(f^2)).
    """
    return _entropy(measure, g.value)[0]


def dirichlet_energy(measure: Measure, f: ScalarField, q: float = 2.0) -> float:
    """int |grad f|^q dmu."""
    if q < 1:
        raise ParameterError("q must be >= 1")
    return _energy(measure, f.grad(measure.nodes), q)


# ---------------------------------------------------------------------------
# weighted-Lebesgue building blocks (homogeneous HUP functionals)
# ---------------------------------------------------------------------------

class NuMoments(NamedTuple):
    """Integrals of one Gaussian-decay field against w dx."""

    norm_sq: float      # int f^2 w dx
    energy: float       # int |grad f|^2 w dx
    moment: float       # int f^2 |x|^2 w dx
    cross: float        # int f x.grad f w dx
    # int f^2 log f^2 w dx, with 0 log 0 := 0; None unless asked for
    sq_log_sq: float | None = None


def _moment_rows(f: ScalarField, pts: np.ndarray, entropy: bool) -> np.ndarray:
    """The (N, 4) slow factors over exp(-2r |x|^2), r = f.decay.rate, of f^2,
    |grad f|^2, f^2 |x|^2 and f x.grad f at the points: p^2, |G|^2,
    |x|^2 p^2 and p x.G, with p and G = grad p - 2r x p from
    `fields.slow_jet` (f = p exp(-r |x|^2)).  With `entropy` a fifth column
    holds that of f^2 log f^2, p^2 (log p^2 - 2r |x|^2), 0 where p = 0."""
    vals, grad = slow_jet(f, pts, 1)
    sq = vals ** 2
    r2 = np.sum(pts ** 2, axis=1)
    rows = [sq, np.sum(grad ** 2, axis=1), sq * r2,
            vals * np.sum(pts * grad, axis=1)]
    if entropy:
        with np.errstate(divide="ignore", invalid="ignore"):
            rows.append(np.where(
                sq > 0, sq * (np.log(sq) - 2.0 * f.decay.rate * r2), 0.0))
    return np.stack(rows).T


def _nu_moments(measure: Measure, f: ScalarField,
                entropy: bool = False) -> NuMoments:
    """The NuMoments of f from one rate-matched sum of its `_moment_rows`;
    f^2 log f^2 is formed and integrated only with `entropy` (the
    Euclidean-LSI checks), not on the HUP passes.  Each row is summed on its
    own, so the other moments do not depend on it."""
    if not f.decay.is_gaussian:
        raise ContractError(f"field {f.name} needs a Gaussian decay envelope")
    sums = nu_integral(measure, lambda pts: _moment_rows(f, pts, entropy),
                       2.0 * f.decay.rate)
    return NuMoments(*(float(v) for v in sums))


def optimal_scale(measure: Measure, f: ScalarField) -> float:
    """lambda* = (int f^2 |x|^2 w dx / int |grad f|^2 w dx)^(1/4)."""
    m = _nu_moments(measure, f)
    if m.moment <= 0.0 or m.energy <= 0.0:
        raise DegenerateInputError("optimal scale of a (numerically) zero field")
    return (m.moment / m.energy) ** 0.25


@dataclass(frozen=True)
class HupDeficit:
    delta: float
    identity_residual: float
    lambda_star: float
    energy: float       # int |grad f|^2 w dx
    moment: float       # int f^2 |x|^2 w dx
    norm_sq: float      # int f^2 w dx


def hup_deficit(measure: Measure, f: ScalarField) -> HupDeficit:
    """delta_w(f) = sqrt(energy) sqrt(moment) - (n+alpha)/2 * norm_sq, plus the
    residual of the completed-square identity

        delta_w(f) = (lam*^2/2) int |grad f + x f / lam*^2|^2 w dx,

    which is the expanded form of the Gaussian-conjugation identity and must
    vanish to quadrature precision for every admissible field.  The square
    expands to energy + 2 cross / lam*^2 + moment / lam*^4, so the residual
    is that of the integration by parts int f x.grad f w = -(n+alpha)/2 norm_sq.
    """
    weight = measure.weight
    if not weight.is_homogeneous:
        raise NotHomogeneousError("the HUP deficit assumes a homogeneous weight")
    m = _nu_moments(measure, f)
    if m.norm_sq <= 0.0:
        raise DegenerateInputError("zero field")
    n_alpha = weight.dim + weight.degree
    delta = math.sqrt(max(m.energy, 0.0)) * math.sqrt(max(m.moment, 0.0)) \
        - 0.5 * n_alpha * m.norm_sq
    lam = (m.moment / m.energy) ** 0.25
    conjugated = m.energy + 2.0 * m.cross / lam ** 2 + m.moment / lam ** 4
    residual = abs(delta - 0.5 * lam ** 2 * conjugated)
    return HupDeficit(delta=delta, identity_residual=residual, lambda_star=lam,
                      energy=m.energy, moment=m.moment, norm_sq=m.norm_sq)
