"""Galerkin discretization of -L_w in an orthonormal polynomial basis under
mu_w: spectral gap, Poisson solves for the duality-based stability argument,
and the spectral realization of the semigroup P_t.

The measure must factor per axis into |t|^a e^(-t^2/(2 s^2)) on full and
half lines (`measures.axis_factors`).  Basis function k is the tensor product
prod_ax p_(expo[k, ax])(x_ax / s_ax) of the orthonormal polynomials of the
axis factor, evaluated with their derivatives from the three-term recurrence
of `quad1d.fullline_recurrence`.  On cone-constrained axes only even indices
enter: the full-line weight is even, so its even members are orthonormal for
t^a on the half line and span exactly the polynomials with Neumann boundary
behavior.  The Gram matrix is assembled on the quadrature nodes independently
of the rule's construction, so `gram_residual` checks rule and basis against
each other.  Analytic Hermite and Laguerre families are deliberately not used
as the code path; they reappear in the tests as oracles.  The generator
itself comes from `gamma.generator`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .errors import (
    ContractError,
    DegreeTooHighError,
    DomainError,
    MeanZeroViolationError,
    ParameterError,
)
from .fields import ScalarField
from .gamma import generator
from .measures import Measure, axis_factors, build_rule
from .polys import exponent_table
from .quad1d import fullline_recurrence, orthonormal_polys

GRAM_TOL = 1e-10
# spectral_gap checks convergence against the system of this much lower degree
CONVERGENCE_STEP = 2

# per axis: recurrence (alpha, beta) of the unit-scale factor, and its scale
AxisBasis = tuple[np.ndarray, np.ndarray, float]


def default_degree(dim: int) -> int:
    if dim <= 2:
        return 16
    if dim <= 4:
        return 10
    return 8


def _tensor_values(axes: tuple[AxisBasis, ...], expo: np.ndarray,
                   pts: np.ndarray, axis: int | None = None,
                   order: int = 0) -> np.ndarray:
    """(N, m) values at pts of d^order/dx_axis^order applied to each basis
    function (plain values when axis is None)."""
    pts = np.asarray(pts, dtype=float)
    out = None
    for ax, (alpha, beta, scale) in enumerate(axes):
        d = order if ax == axis else 0
        table = orthonormal_polys(alpha, beta, pts[:, ax] / scale,
                                  int(expo[:, ax].max()), d)[d]
        col = table[:, expo[:, ax]]
        if d:
            col /= scale ** d
        if out is None:
            out = col
        else:
            out *= col
    return out


@dataclass
class GalerkinSystem:
    measure: Measure
    max_degree: int
    expo: np.ndarray            # (m, n) parity-filtered exponent table
    axes: tuple[AxisBasis, ...]  # per-axis recurrence and scale of the basis
    stiffness: np.ndarray       # (m, m) <grad p_i, grad p_j>_mu
    gram_residual: float
    nodes: np.ndarray           # quadrature nodes used for projections
    node_weights: np.ndarray    # normalized quadrature weights
    basis_values: np.ndarray    # (N, m) p_k at the nodes
    _eig: Optional[tuple[np.ndarray, np.ndarray]] = dc_field(default=None, repr=False)

    @property
    def size(self) -> int:
        return self.expo.shape[0]

    # -- evaluation ---------------------------------------------------------
    def values(self, pts: np.ndarray) -> np.ndarray:
        return _tensor_values(self.axes, self.expo, pts)

    def grad_values(self, pts: np.ndarray, axis: int) -> np.ndarray:
        return _tensor_values(self.axes, self.expo, pts, axis, 1)

    def laplacian_values(self, pts: np.ndarray) -> np.ndarray:
        return sum(_tensor_values(self.axes, self.expo, pts, ax, 2)
                   for ax in range(self.measure.dim))

    def eval_coeffs(self, coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
        return self.values(pts) @ coeffs

    def project(self, f) -> np.ndarray:
        return self.basis_values.T @ (self.node_weights * f(self.nodes))

    def generator_values(self) -> np.ndarray:
        """(N, m) matrix of L_w p_k at the nodes."""
        pts = self.nodes
        axes = range(self.measure.dim)
        grad = np.empty((len(pts), len(axes), self.size))
        for ax in axes:
            grad[:, ax] = self.grad_values(pts, ax)
        return generator(self.measure.weight, pts, grad,
                         self.laplacian_values(pts), self.measure.scale)

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        if self._eig is None:
            vals, vecs = np.linalg.eigh(self.stiffness)
            vals = np.maximum(vals, 0.0)
            self._eig = (vals, vecs)
        return self._eig


def galerkin_applies(measure: Measure) -> bool:
    """Whether build_galerkin assembles on the measure: a deterministic
    tensor rule whose density factors per axis."""
    return (measure.rule.kind == "tensor_generalized_hermite"
            and axis_factors(measure.weight, measure.scale) is not None)


def build_galerkin(measure: Measure,
                   max_degree: int | None = None) -> GalerkinSystem:
    """Orthonormal tensor polynomial Galerkin system for the Dirichlet form
    of mu_w, with only even indices on cone-constrained axes."""
    weight = measure.weight
    if not galerkin_applies(measure):
        raise ContractError(
            "Galerkin assembly requires a deterministic tensor rule whose "
            "density factors per axis")
    if max_degree is None:
        max_degree = default_degree(weight.dim)

    axes = tuple((*fullline_recurrence(float(a), max_degree + 1), scale)
                 for a, _, scale in axis_factors(weight, measure.scale))

    # the rule must integrate products of two basis gradients exactly
    order = max(measure.order, max_degree + 8)
    rule = build_rule(weight, measure.scale, order=order)
    nodes = rule.nodes
    qw = rule.weights / rule.mass
    root_w = np.sqrt(qw)[:, None]

    expo = exponent_table(weight.dim, max_degree,
                          even_axes=weight.cone.constrained_axes())
    m = expo.shape[0]
    basis = _tensor_values(axes, expo, nodes)
    scaled = basis * root_w
    gram = scaled.T @ scaled
    del scaled
    gram_residual = float(np.max(np.abs(gram - np.eye(m))))
    if gram_residual > GRAM_TOL:
        raise DegreeTooHighError(
            f"orthonormality residual {gram_residual:.3e} exceeds {GRAM_TOL}")

    # one (N, m) derivative table at a time keeps the peak memory at the
    # basis plus one table
    stiffness = np.zeros((m, m))
    for ax in range(weight.dim):
        deriv = _tensor_values(axes, expo, nodes, ax, 1)
        deriv *= root_w
        stiffness += deriv.T @ deriv
    stiffness = 0.5 * (stiffness + stiffness.T)

    return GalerkinSystem(
        measure=measure, max_degree=max_degree, expo=expo, axes=axes,
        stiffness=stiffness, gram_residual=gram_residual,
        nodes=nodes, node_weights=qw,
        basis_values=basis)


# ---------------------------------------------------------------------------
# spectral gap
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralResult:
    eigenvalues: np.ndarray
    gap: float
    eigenvectors: np.ndarray
    gap_at_lower_degree: float
    convergence_delta: float
    converged: bool
    max_degree: int


def spectral_gap(system: GalerkinSystem) -> SpectralResult:
    """Ascending spectrum of -L_w on the parity-filtered span; gap = second
    eigenvalue.  Convergence compares against the degree-(d-2) system, which
    is the leading block of the stiffness: the exponent table is sorted by
    degree and basis function k is the same tensor product whatever the
    maximal degree."""
    vals, vecs = system.eigensystem()
    gap = float(vals[1])
    degrees = system.expo.sum(axis=1)
    m = int(np.count_nonzero(degrees <= system.max_degree - CONVERGENCE_STEP))
    gap_lower = max(float(np.linalg.eigvalsh(system.stiffness[:m, :m])[1]), 0.0)
    delta = abs(gap - gap_lower)
    return SpectralResult(
        eigenvalues=vals, gap=gap, eigenvectors=vecs,
        gap_at_lower_degree=gap_lower, convergence_delta=delta,
        converged=bool(delta <= 1e-4 * max(gap, 1e-300)),
        max_degree=system.max_degree)


# ---------------------------------------------------------------------------
# Poisson equation and the duality stability chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoissonSolution:
    coeffs: np.ndarray
    residual: float           # ||-L_w u - P f||_{L2(mu)}, P = basis projection
    projection_error: float   # ||f - P f||_{L2(mu)}, off-span part of the rhs
    rhs_coeffs: np.ndarray


def poisson_solve(system: GalerkinSystem, f) -> PoissonSolution:
    """Solve -L_w u = f on the complement of constants; int u dmu = 0.

    The solve acts on the projected right-hand side; the off-span part of f
    is reported separately so in-span inputs certify the generator algebra
    (residual at round-off) while smooth generic inputs expose only their
    projection error.
    """
    fv = f(system.nodes)
    fh = system.basis_values.T @ (system.node_weights * fv)
    scale = float(np.linalg.norm(fh))
    if scale == 0.0:
        raise MeanZeroViolationError("zero right-hand side")
    if abs(fh[0]) > 1e-8 * scale:
        raise MeanZeroViolationError(
            f"constant component {fh[0]:.3e} of the rhs exceeds 1e-8 relative")
    uh = np.zeros_like(fh)
    uh[1:] = np.linalg.solve(system.stiffness[1:, 1:], fh[1:])
    lu = system.generator_values() @ uh
    proj = system.basis_values @ fh
    res = float(np.sqrt(np.sum(system.node_weights * (-lu - proj) ** 2)))
    perr = float(np.sqrt(np.sum(system.node_weights * (fv - proj) ** 2)))
    return PoissonSolution(coeffs=uh, residual=res, projection_error=perr,
                           rhs_coeffs=fh)


def duality_stability_residual(system: GalerkinSystem, f) -> dict:
    """Check the duality chain

        int |grad f|^2 - (1+K_w) int f^2  >=  int |(1+K_w) grad u - grad f|^2  >= 0

    for mean-zero f with -L_w u = f; returns the three chain values."""
    kw = system.measure.weight.kw
    fh = system.project(f)
    fh[0] = 0.0  # enforce mean zero on the projected representative
    sol_rhs = fh
    uh = np.zeros_like(fh)
    uh[1:] = np.linalg.solve(system.stiffness[1:, 1:], sol_rhs[1:])
    s = system.stiffness
    c = 1.0 + kw
    energy_f = float(fh @ s @ fh)
    norm_f = float(fh @ fh)
    cross = float(uh @ s @ fh)          # equals int f^2 by the weak Poisson form
    energy_u = float(uh @ s @ uh)
    middle = c * c * energy_u - 2.0 * c * cross + energy_f
    lhs = energy_f - c * norm_f
    return {
        "upper": lhs,
        "middle": middle,
        "chain_holds": bool(lhs >= middle - 1e-7 * (1.0 + abs(lhs))
                            and middle >= -1e-9 * (1.0 + energy_f)),
        "kw": kw,
    }


# ---------------------------------------------------------------------------
# semigroup realization
# ---------------------------------------------------------------------------

def semigroup_apply(system: GalerkinSystem, coeffs: np.ndarray,
                    t: float) -> np.ndarray:
    """exp(t L_w) in basis coordinates via the eigen-expansion."""
    if t < 0:
        raise ParameterError("semigroup time must be nonnegative")
    vals, vecs = system.eigensystem()
    return vecs @ (np.exp(-vals * t) * (vecs.T @ coeffs))


@dataclass(frozen=True)
class DecayRow:
    t: float
    phi: float
    quotient: float        # -(phi(t_next) - phi(t)) / dt; nan on the last row
    bound: float           # 2 e^{-2(1+K_w) t} (q-p) ||grad f||_q^2; nan last
    clamped_nodes: int


@dataclass(frozen=True)
class DecayCheck:
    rows: tuple[DecayRow, ...]
    decreasing: bool
    quotient_bounded: bool
    phi0: float
    phi0_expected: float       # ||f||_q^2 by direct quadrature
    phi_limit: float           # projection onto constants
    phi_limit_expected: float  # ||f||_p^2 by direct quadrature
    shift: float
    p: float
    q: float

    @property
    def passed(self) -> bool:
        return self.decreasing and self.quotient_bounded


def semigroup_decay_check(system: GalerkinSystem, f: ScalarField, p: float,
                          q: float, t_grid, slack: float = 1e-3,
                          allow_shift: bool = True) -> DecayCheck:
    """phi(t) = (int (P_t f^p)^(q/p) dmu)^(2/q) along the grid, with the
    monotonicity and difference-quotient bounds from the semigroup proof of
    the Beckner inequality.  Sign-changing f is shifted nonnegative (recorded
    in the result) unless allow_shift is False."""
    if not (1.0 <= p < q):
        raise ParameterError("need 1 <= p < q")
    t_grid = np.asarray(sorted(float(t) for t in t_grid))
    if len(t_grid) < 2 or t_grid[0] != 0.0:
        raise ParameterError("time grid must start at 0 with at least two points")
    kw = system.measure.weight.kw
    pts = system.nodes
    w = system.node_weights

    fv, grad = f.jet(pts, 1)
    shift = 0.0
    fmin = float(np.min(fv))
    if fmin < 0:
        if not allow_shift:
            raise DomainError("decay check needs a nonnegative field")
        shift = -fmin + 1e-6
        fv = fv + shift

    fp = fv ** p
    coeffs = system.basis_values.T @ (w * fp)

    # direct-quadrature reference values for phi(0) and the t->inf limit
    phi0_expected = float(np.sum(w * fv ** q)) ** (2.0 / q)
    phi_limit_expected = float(np.sum(w * fp)) ** (2.0 / p)

    # gradient energy of the (shifted) field
    grad_norm = np.linalg.norm(grad, axis=1)
    energy_q = float(np.sum(w * grad_norm ** q)) ** (2.0 / q)

    rows = []
    phis = []
    clamps = []
    for t in t_grid:
        vt = system.basis_values @ semigroup_apply(system, coeffs, float(t))
        clamped = int(np.count_nonzero(vt < 0))
        vt = np.maximum(vt, 0.0)
        phis.append(float(np.sum(w * vt ** (q / p))) ** (2.0 / q))
        clamps.append(clamped)

    decreasing = all(phis[i + 1] < phis[i] for i in range(len(phis) - 1))
    quotient_ok = True
    for i in range(len(t_grid)):
        if i + 1 < len(t_grid):
            dt = t_grid[i + 1] - t_grid[i]
            quot = -(phis[i + 1] - phis[i]) / dt
            bound = 2.0 * math.exp(-2.0 * (1.0 + kw) * t_grid[i]) * (q - p) * energy_q
            if quot > bound * (1.0 + slack) + 1e-12:
                quotient_ok = False
        else:
            quot, bound = float("nan"), float("nan")
        rows.append(DecayRow(t=float(t_grid[i]), phi=phis[i], quotient=quot,
                             bound=bound, clamped_nodes=clamps[i]))

    # t -> inf: projection onto the kernel of -L_w (the constants), the
    # eigenvector of the smallest stiffness eigenvalue
    kernel = system.eigensystem()[1][:, 0]
    v_inf = np.maximum(system.basis_values @ (kernel * (kernel @ coeffs)), 0.0)
    phi_limit = float(np.sum(w * v_inf ** (q / p))) ** (2.0 / q)
    return DecayCheck(rows=tuple(rows), decreasing=decreasing,
                      quotient_bounded=quotient_ok, phi0=phis[0],
                      phi0_expected=phi0_expected, phi_limit=phi_limit,
                      phi_limit_expected=phi_limit_expected, shift=shift,
                      p=p, q=q)
