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
behavior.

Everything is sum-factorized (Orszag 1980): the quadrature rule is the
tensor product of the 1-D axis rules of `measures.axis_rules`, and each axis
carries one (N_ax, d + 1) table of its polynomials and their first two
derivatives at its nodes.  The Gram matrix is the product over axes of the
1-D Grams taken by quadrature on each axis rule, and the stiffness is the
sum over axes of that axis's derivative Gram times the other axes' Grams;
no table over the full grid and the whole basis is ever formed.  The basis
is built independently of the rule's construction, so `gram_residual`
checks rule and basis against each other.  Node values of an expansion (and
of its derivatives) and projections onto the basis are one contraction per
axis on the tensor grid.  Analytic Hermite and Laguerre families are
deliberately not used as the code path; they reappear in the tests as
oracles.  The generator itself comes from `gamma.generator`, which the
Poisson residual applies to node derivatives of the solution, so that check
never goes through the stiffness.
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
from .measures import Measure, axis_factors, axis_rules, tensor_grid
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


def axis_jet(basis: AxisBasis, t: np.ndarray, degree: int) -> np.ndarray:
    """(3, len(t), degree + 1) table of p_j(t / s), j <= degree, and of its
    first and second derivatives in t."""
    alpha, beta, scale = basis
    table = orthonormal_polys(alpha, beta, np.asarray(t, dtype=float) / scale,
                              degree, 2)
    return table / (scale ** np.arange(3.0))[:, None, None]


def _sweep(block: np.ndarray, mats) -> np.ndarray:
    """Contract axis 1 + ax of the (K, *dims) block with mats[ax] for every
    axis in turn; each contraction moves its axis last, so the axes end in
    their original order."""
    for mat in mats:
        block = np.tensordot(block, mat, axes=([1], [0]))
    return block


@dataclass
class GalerkinSystem:
    measure: Measure
    max_degree: int
    expo: np.ndarray            # (m, n) parity-filtered exponent table
    axes: tuple[AxisBasis, ...]  # per-axis recurrence and scale of the basis
    stiffness: np.ndarray       # (m, m) <grad p_i, grad p_j>_mu
    gram_residual: float
    nodes: np.ndarray           # (N, n) tensor grid of the axis rules
    node_weights: np.ndarray    # (N,) normalized quadrature weights
    axis_weights: tuple[np.ndarray, ...]  # per axis: normalized 1-D weights
    axis_tables: tuple[np.ndarray, ...]   # per axis: axis_jet at its 1-D nodes
    _eig: Optional[tuple[np.ndarray, np.ndarray]] = dc_field(default=None, repr=False)

    @property
    def size(self) -> int:
        return self.expo.shape[0]

    # -- evaluation ---------------------------------------------------------
    def values(self, pts: np.ndarray) -> np.ndarray:
        """(N, m) basis values at arbitrary points."""
        pts = np.asarray(pts, dtype=float)
        return math.prod(axis_jet(basis, pts[:, ax], self.max_degree)[0][:, e]
                         for ax, (basis, e) in enumerate(zip(self.axes,
                                                             self.expo.T)))

    def node_values(self, coeffs: np.ndarray, axis: int | None = None,
                    order: int = 0) -> np.ndarray:
        """Values at the nodes of d^order/dx_axis^order of sum_k c_k p_k
        (plain values when axis is None), for (m,) coefficients or an
        (m, K) block of them: (N,) or (N, K).  The coefficients are
        scattered onto the dense per-axis index grid and contracted with
        one 1-D table per axis."""
        coeffs = np.asarray(coeffs, dtype=float)
        block = coeffs.reshape(self.size, -1).T
        dense = np.zeros((len(block),) + tuple(t.shape[2] for t in self.axis_tables))
        dense[(slice(None), *self.expo.T)] = block
        mats = [t[order if ax == axis else 0].T
                for ax, t in enumerate(self.axis_tables)]
        out = _sweep(dense, mats).reshape(len(block), -1).T
        return out.reshape((-1,) + coeffs.shape[1:])

    def project(self, f) -> np.ndarray:
        """Coefficients <f, p_k>_mu on the rule: f is a callable on the
        (N, n) nodes or the (N,) or (N, K) array of its values there."""
        vals = np.asarray(f(self.nodes) if callable(f) else f, dtype=float)
        block = vals.reshape(len(vals), -1).T
        grid = block.reshape((len(block),) + tuple(len(w) for w in self.axis_weights))
        mats = [w[:, None] * t[0]
                for w, t in zip(self.axis_weights, self.axis_tables)]
        coeffs = _sweep(grid, mats)[(slice(None), *self.expo.T)].T
        return coeffs.reshape((self.size,) + vals.shape[1:])

    def generator_at_nodes(self, coeffs: np.ndarray) -> np.ndarray:
        """L_w sum_k c_k p_k at the nodes, from node derivatives of the
        expansion through `gamma.generator`."""
        dim = self.measure.dim
        grad = np.moveaxis(np.stack([self.node_values(coeffs, ax, 1)
                                     for ax in range(dim)]), 0, 1)
        lap = sum(self.node_values(coeffs, ax, 2) for ax in range(dim))
        return generator(self.measure.weight, self.nodes, grad, lap,
                         self.measure.scale)

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        if self._eig is None:
            vals, vecs = np.linalg.eigh(self.stiffness)
            vals = np.maximum(vals, 0.0)
            self._eig = (vals, vecs)
        return self._eig


def galerkin_applies(measure: Measure) -> bool:
    """Whether build_galerkin assembles on the measure: a deterministic
    tensor rule, which exists only where the density factors per axis."""
    return measure.rule.kind == "tensor_generalized_hermite"


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
    rules = axis_rules(weight, measure.scale, order)
    axis_weights = tuple(q / mass for _, q, mass in rules)
    nodes, node_weights = tensor_grid([t for t, _, _ in rules], axis_weights)
    tables = tuple(axis_jet(basis, t, max_degree)
                   for basis, (t, _, _) in zip(axes, rules))

    # 1-D Gram and derivative Gram per axis, restricted to the index set;
    # the full Gram is their product and the stiffness the sum over axes of
    # the derivative Gram of that axis times the Grams of the others
    expo = exponent_table(weight.dim, max_degree,
                          even_axes=weight.cone.constrained_axes())
    grams, derivs = [], []
    for w, table, e in zip(axis_weights, tables, expo.T):
        idx = np.ix_(e, e)
        grams.append((table[0].T @ (w[:, None] * table[0]))[idx])
        derivs.append((table[1].T @ (w[:, None] * table[1]))[idx])
    gram = math.prod(grams)
    gram_residual = float(np.max(np.abs(gram - np.eye(len(expo)))))
    if gram_residual > GRAM_TOL:
        raise DegreeTooHighError(
            f"orthonormality residual {gram_residual:.3e} exceeds {GRAM_TOL}")
    stiffness = sum(d * math.prod(g for b, g in enumerate(grams) if b != ax)
                    for ax, d in enumerate(derivs))
    stiffness = 0.5 * (stiffness + stiffness.T)

    return GalerkinSystem(
        measure=measure, max_degree=max_degree, expo=expo, axes=axes,
        stiffness=stiffness, gram_residual=gram_residual,
        nodes=nodes, node_weights=node_weights, axis_weights=axis_weights,
        axis_tables=tables)


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
    fh = system.project(fv)
    scale = float(np.linalg.norm(fh))
    if scale == 0.0:
        raise MeanZeroViolationError("zero right-hand side")
    if abs(fh[0]) > 1e-8 * scale:
        raise MeanZeroViolationError(
            f"constant component {fh[0]:.3e} of the rhs exceeds 1e-8 relative")
    uh = np.zeros_like(fh)
    uh[1:] = np.linalg.solve(system.stiffness[1:, 1:], fh[1:])
    lu = system.generator_at_nodes(uh)
    proj = system.node_values(fh)
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
    coeffs = system.project(fp)

    # direct-quadrature reference values for phi(0) and the t->inf limit
    phi0_expected = float(np.sum(w * fv ** q)) ** (2.0 / q)
    phi_limit_expected = float(np.sum(w * fp)) ** (2.0 / p)

    # gradient energy of the (shifted) field
    grad_norm = np.linalg.norm(grad, axis=1)
    energy_q = float(np.sum(w * grad_norm ** q)) ** (2.0 / q)

    # every time of the grid and the t -> inf limit in one block: the limit
    # is the projection onto the kernel of -L_w (the constants), the
    # eigenvector of the smallest stiffness eigenvalue
    kernel = system.eigensystem()[1][:, 0]
    block = np.stack([semigroup_apply(system, coeffs, float(t)) for t in t_grid]
                     + [kernel * (kernel @ coeffs)], axis=1)
    values = system.node_values(block)
    rows = []
    phis = []
    clamps = []
    for vt in values[:, :-1].T:
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

    v_inf = np.maximum(values[:, -1], 0.0)
    phi_limit = float(np.sum(w * v_inf ** (q / p))) ** (2.0 / q)
    return DecayCheck(rows=tuple(rows), decreasing=decreasing,
                      quotient_bounded=quotient_ok, phi0=phis[0],
                      phi0_expected=phi0_expected, phi_limit=phi_limit,
                      phi_limit_expected=phi_limit_expected, shift=shift,
                      p=p, q=q)
