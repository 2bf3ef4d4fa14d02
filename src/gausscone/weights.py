"""Admissible weights w on cones: evaluation, log-derivatives, homogeneity
degree and the curvature lower bound K_w of the convexity condition
-hess(log w) >= K I.

Built-in variants carry exact analytic derivatives and an analytic
curvature argument where one exists (Gaussian tilts, log-concave
homogeneous families).  Homogeneous log-concave weights always get K_w = 0:
the radial second derivative of log w along rays is exactly -alpha/t^2, so
no positive bound can hold on an unbounded cone.  A `CustomLogWeight`
carries the K_w its caller claims, as it carries the claimed homogeneity
degree.  `curvature_lower_bound` checks a claim on a fixed, seeded sample of
the cone and refutes it where -hess(log w) has a smaller eigenvalue; a
sample never establishes a bound, so the certificate stays "claimed".

A spec is a frozen dataclass, so it is hashable and compares by value: the
spec, the dimension and the cone are the rule-cache key of a weight.  A
monomial prod |x_i|^a_i is the `DunklProduct` of the coordinate roots.  The
private base `_Spec` holds the protocol defaults (no dimension hint, one
opaque block, the orthant of the vanishing 1-D blocks as natural cone);
each spec overrides only what differs, and each answers
`curvature_bound(dim)`.  `blocks(dim)` says how the density factors: in
coordinate order, a `Block` is a 1-D factor |t|^a e^(-s t^2/2), a radial
factor |x_B|^a on a coordinate set B, or an opaque factor with no structure
a rule can use.  The rule builder of `measures` turns the blocks into a
product rule, and the axes on which w vanishes (`Weight.singular_axes`),
the free axes and the default natural cone are read off them.
`zero_set(dim)` lists the hyperplanes on which w vanishes.  A spec's
natural cone is a list of facet normals (see `cones`): the orthant of the
axes where w vanishes, the halfspace of a single tilted Dunkl root, or, for
a partial product, the inner cone's normals embedded into its coordinates.
On axis-first points (see `measures`) the built-in specs return grad(log w)
and hess(log w) axis-first, as the (N, n) and (N, n, n) transposed views of
(n, N) and (n, n, N) buffers.
"""

from __future__ import annotations

import operator
from dataclasses import InitVar, dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .cones import Cone, Halfspace, Orthant, _as_points
from .errors import (
    DomainError,
    InadmissibleWeightError,
    NotHomogeneousError,
    SingularityError,
    UncertifiedCurvatureError,
)

_ZERO_TOL = 1e-12


# ---------------------------------------------------------------------------
# weight specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Block:
    """One factor of a density on the coordinates `coords`: "axis" is
    |t|^a e^(-s t^2/2) on one coordinate, "radial" is |x_B|^a on the
    coordinate set B, "opaque" has no structure a rule can use."""

    kind: str
    coords: tuple[int, ...]
    a: float = 0.0
    s: float = 0.0


def _axis_blocks(exps) -> tuple[Block, ...]:
    return tuple(Block("axis", (i,), a) for i, a in enumerate(exps))


def _singular(blocks) -> tuple[int, ...]:
    """Coordinates of the 1-D blocks that vanish at t = 0."""
    return tuple(b.coords[0] for b in blocks if b.kind == "axis" and b.a > 0)


class _Spec:
    """Protocol defaults of a weight spec; each spec overrides what differs.

    Every spec answers `curvature_bound(dim)` with (K, kind, detail): K_w
    with its kind, "analytic" (proven) or "claimed" (sampling may refute
    it), or K None with kind "uncertified" and the reason as detail."""

    def dim_hint(self) -> int | None:
        return None

    def check_dim(self, dim: int) -> None:
        """Refuse a dimension the spec cannot live in."""
        hint = self.dim_hint()
        if hint is not None and hint != dim:
            raise ValueError(f"spec dimension {hint} != requested dim {dim}")

    def blocks(self, dim: int) -> tuple[Block, ...]:
        return (Block("opaque", tuple(range(dim))),)

    def zero_set(self, dim: int) -> np.ndarray:
        """The normals beta, as rows, of the hyperplanes <beta, x> = 0 on
        which w vanishes: by default the axes of the vanishing 1-D blocks."""
        return np.eye(dim)[list(_singular(self.blocks(dim)))]

    def natural_cone(self, dim: int) -> Cone:
        """The orthant of the axes where a 1-D block vanishes."""
        return Orthant(dim, _singular(self.blocks(dim)))


@dataclass(frozen=True)
class Radial(_Spec):
    """w(x) = |x|^alpha.  Log-concave only in dimension one."""

    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha < np.inf:
            raise ValueError("radial exponent must be finite and nonnegative")

    def degree(self, dim: int) -> float | None:
        return float(self.alpha)

    def log_w(self, pts: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return self.alpha * np.log(np.linalg.norm(pts, axis=1))

    def grad_log(self, pts: np.ndarray) -> np.ndarray:
        r2 = np.sum(pts ** 2, axis=1)
        return (self.alpha * pts.T / r2).T

    def hess_log(self, pts: np.ndarray) -> np.ndarray:
        x = pts.T
        r2 = np.sum(pts ** 2, axis=1)
        eye = np.eye(len(x))[:, :, None]
        outer = x[:, None, :] * x[None, :, :]
        return (self.alpha * (eye / r2 - 2.0 * outer / r2 ** 2)).transpose(2, 0, 1)

    def blocks(self, dim: int) -> tuple[Block, ...]:
        if dim == 1:
            return _axis_blocks((self.alpha,))
        return (Block("radial", tuple(range(dim)), self.alpha),)

    def curvature_bound(self, dim: int):
        if dim == 1:
            return 0.0, "analytic", "analytic: homogeneous log-concave (1-d)"
        if self.alpha == 0:
            return 0.0, "analytic", "analytic: constant weight"
        # -hess(log w) has eigenvalue -alpha/|x|^2 orthogonal to x, unbounded
        # below near the vertex: no K > -1 exists.
        return (None, "uncertified",
                "log-Hessian unbounded below near the vertex (dim >= 2)")


@dataclass(frozen=True)
class DunklProduct(_Spec):
    """w(x) = prod_beta |<beta, x>|^(a_beta) over unit roots beta, given by
    the multiplicities k_beta = a_beta / 2 or by the exponents, which the
    spec holds exactly.  Roots with a_beta = 0 are dropped (w does not
    depend on them); `dim` gives the dimension when no root is left."""

    roots: tuple[tuple[float, ...], ...]
    multiplicities: InitVar[Optional[tuple[float, ...]]] = None
    dim: Optional[int] = None
    exponents: Optional[tuple[float, ...]] = None

    def __post_init__(self, multiplicities):
        roots = tuple(tuple(float(c) for c in r) for r in self.roots)
        if (multiplicities is None) == (self.exponents is None):
            raise ValueError("give the multiplicities or the exponents of the roots")
        exps = tuple(map(float, self.exponents if multiplicities is None
                         else (2.0 * k for k in multiplicities)))
        if len(roots) != len(exps):
            raise ValueError("roots/multiplicities length mismatch")
        if not all(0.0 <= a < np.inf for a in exps):  # a NaN passes "a < 0"
            raise ValueError("multiplicities/exponents must be finite and nonnegative")
        dims = {len(r) for r in roots} | ({self.dim} - {None})
        if len(dims) > 1:
            raise ValueError(f"Dunkl roots must share one dimension, got {sorted(dims)}")
        for r in roots:
            if abs(np.linalg.norm(r) - 1.0) > 1e-10:
                raise ValueError("Dunkl roots must be unit vectors")
        kept = [i for i, a in enumerate(exps) if a > 0]
        object.__setattr__(self, "roots", tuple(roots[i] for i in kept))
        object.__setattr__(self, "exponents", tuple(exps[i] for i in kept))
        object.__setattr__(self, "dim", dims.pop() if dims else None)

    def dim_hint(self) -> int | None:
        return self.dim

    def degree(self, dim: int) -> float | None:
        return float(sum(self.exponents))

    def zero_set(self, dim: int) -> np.ndarray:
        return np.reshape(self.roots, (len(self.roots), dim))

    def _dots(self, pts: np.ndarray) -> np.ndarray:
        return self.zero_set(pts.shape[1]) @ pts.T  # (n_roots, N)

    def _exps(self) -> np.ndarray:
        return np.asarray(self.exponents)[:, None]

    def log_w(self, pts: np.ndarray) -> np.ndarray:
        dots = self._dots(pts)
        with np.errstate(divide="ignore"):
            return (self._exps() * np.log(np.abs(dots))).sum(axis=0)

    def grad_log(self, pts: np.ndarray) -> np.ndarray:
        betas = self.zero_set(pts.shape[1])
        ratio = self._exps() / self._dots(pts)
        # one root: matmul's bits without BLAS, + 0.0 giving its +0 for -0
        return (betas.T * ratio + 0.0 if len(betas) == 1 else betas.T @ ratio).T

    def hess_log(self, pts: np.ndarray) -> np.ndarray:
        betas = self.zero_set(pts.shape[1])
        outer = betas[:, :, None] * betas[:, None, :]  # (n_roots, n, n)
        coef = -self._exps() / self._dots(pts) ** 2  # (n_roots, N)
        return np.einsum("rN,rij->ijN", coef, outer).transpose(2, 0, 1)

    def blocks(self, dim: int) -> tuple[Block, ...]:
        exps = [0.0] * dim
        for r, a in zip(self.roots, self.exponents):
            hits = [i for i, c in enumerate(r) if abs(abs(c) - 1.0) < 1e-14]
            if len(hits) != 1 or sum(abs(c) > 1e-14 for c in r) != 1:
                return super().blocks(dim)
            exps[hits[0]] += a
        return _axis_blocks(exps)

    def curvature_bound(self, dim: int):
        # each factor contributes +a beta beta^T / <beta,x>^2 to -hess(log w)
        return 0.0, "analytic", "analytic: homogeneous log-concave"

    def natural_cone(self, dim: int) -> Cone:
        if self.blocks(dim)[0].kind == "axis":
            return super().natural_cone(dim)
        if len(self.roots) == 1:
            return Halfspace(dim, self.roots[0])
        raise ValueError(
            "no built-in cone variant bounds this root system; pass one explicitly")


def Monomial(exponents) -> DunklProduct:
    """w(x) = prod |x_i|^a_i, homogeneous of degree sum(a_i): the Dunkl
    product of the coordinate roots e_i with the exponents a_i."""
    exps = tuple(float(a) for a in exponents)
    if not all(0.0 <= a < np.inf for a in exps):
        raise ValueError("monomial exponents must be finite and nonnegative")
    return DunklProduct(tuple(map(tuple, np.eye(len(exps)))), dim=len(exps),
                        exponents=exps)


@dataclass(frozen=True)
class GaussianTilt(_Spec):
    """w(x) = exp(-s |x|^2 / 2) with s > -1; curvature is exactly s."""

    s: float

    def __post_init__(self):
        if self.s <= -1.0:
            raise InadmissibleWeightError(f"tilt s={self.s} violates s > -1")

    def degree(self, dim: int) -> float | None:
        return None

    def log_w(self, pts: np.ndarray) -> np.ndarray:
        return -0.5 * self.s * np.sum(pts ** 2, axis=1)

    def grad_log(self, pts: np.ndarray) -> np.ndarray:
        return (-self.s * pts.T).T

    def hess_log(self, pts: np.ndarray) -> np.ndarray:
        n = pts.shape[1]
        hess = np.broadcast_to((-self.s * np.eye(n))[:, :, None], (n, n, len(pts)))
        return hess.copy().transpose(2, 0, 1)

    def blocks(self, dim: int) -> tuple[Block, ...]:
        return tuple(Block("axis", (i,), 0.0, self.s) for i in range(dim))

    def curvature_bound(self, dim: int):
        return float(self.s), "analytic", "analytic: constant log-Hessian"


@dataclass(frozen=True)
class PartialProduct(_Spec):
    """Inner spec acting on a coordinate subset; every other axis is free."""

    inner: object
    coords: tuple[int, ...]

    def __post_init__(self):
        coords = tuple(map(operator.index, self.coords))
        if len(set(coords)) != len(coords) or min(coords, default=0) < 0:
            raise ValueError(f"coords {coords} are not distinct nonnegative integers")
        object.__setattr__(self, "coords", coords)

    def check_dim(self, dim: int) -> None:
        if (max(self.coords, default=-1) >= dim
                or self.inner.dim_hint() not in (None, len(self.coords))):
            raise ValueError(
                f"coords {self.coords} must lie in [0, {dim}), one per "
                f"dimension of the inner weight")
        self.inner.check_dim(len(self.coords))

    def _lift(self, vectors, dim: int) -> np.ndarray:
        """Inner vectors, as rows, embedded into R^dim on the coords."""
        out = np.zeros((len(vectors), dim))
        out[:, list(self.coords)] = vectors
        return out

    def _sub(self, pts: np.ndarray) -> np.ndarray:
        return pts.T[list(self.coords)].T

    def degree(self, dim: int) -> float | None:
        return self.inner.degree(len(self.coords))

    def log_w(self, pts: np.ndarray) -> np.ndarray:
        return self.inner.log_w(self._sub(pts))

    def grad_log(self, pts: np.ndarray) -> np.ndarray:
        out = np.zeros(pts.shape[::-1])
        out[list(self.coords)] = self.inner.grad_log(self._sub(pts)).T
        return out.T

    def hess_log(self, pts: np.ndarray) -> np.ndarray:
        n = pts.shape[1]
        out = np.zeros((n, n, len(pts)))
        sub = self.inner.hess_log(self._sub(pts))
        ix = np.asarray(self.coords)
        out[ix[:, None], ix[None, :]] = sub.transpose(1, 2, 0)
        return out.transpose(2, 0, 1)

    def blocks(self, dim: int) -> tuple[Block, ...]:
        # the inner blocks on the coordinates they act on, a constant 1-D
        # block on every other one, sorted: the coords may be unsorted
        inner = [replace(b, coords=tuple(sorted(self.coords[c] for c in b.coords)))
                 for b in self.inner.blocks(len(self.coords))]
        free = [Block("axis", (c,)) for c in range(dim) if c not in self.coords]
        return tuple(sorted(inner + free, key=lambda b: b.coords))

    def zero_set(self, dim: int) -> np.ndarray:
        return self._lift(self.inner.zero_set(len(self.coords)), dim)

    def curvature_bound(self, dim: int):
        k, kind, detail = self.inner.curvature_bound(len(self.coords))
        if k is not None and k > 0 and len(self.coords) < dim:
            # free coordinates contribute zero rows to hess(log w), so the
            # smallest eigenvalue of -hess(log w) cannot exceed zero
            return 0.0, kind, detail + "; capped at zero by the free coordinates"
        return k, kind, detail

    def natural_cone(self, dim: int) -> Cone:
        inner = self.inner.natural_cone(len(self.coords))
        return Cone(dim, tuple(self._lift(inner.matrix, dim)))


@dataclass(frozen=True)
class CustomLogWeight(_Spec):
    """User-supplied log-weight with first and second derivatives.

    Callables receive an (N, dim) batch; `log_value` must return -inf outside
    the support.  `homogeneity_degree` may be given when the weight is
    homogeneous, and `claimed_kw` when the caller knows a bound
    -hess(log w) >= K_w I; sampling may refute the claim but never
    establishes it.  With no claim the weight stays uncertified.
    """

    log_value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"
    homogeneity_degree: Optional[float] = None
    claimed_kw: Optional[float] = None

    def degree(self, dim: int) -> float | None:
        return self.homogeneity_degree

    def curvature_bound(self, dim: int):
        if self.claimed_kw is None:
            return None, "uncertified", "custom weight claims no curvature bound"
        return float(self.claimed_kw), "claimed", "claimed by the caller"

    def log_w(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.log_value(pts), dtype=float)

    def grad_log(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.grad(pts), dtype=float)

    def hess_log(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.hess(pts), dtype=float)


# ---------------------------------------------------------------------------
# curvature certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvatureCertificate:
    kind: str  # "analytic" | "claimed" | "uncertified"
    detail: str = ""
    num_points: int = 0
    min_eigenvalue_found: float = np.inf
    argmin: tuple[float, ...] = ()


# the fixed sample on which a claimed K_w is checked, and the slack of the check
CLAIM_SAMPLE = 2 ** 14
CLAIM_RADIUS = 10.0
CLAIM_GATE = 1e-9


def _sampled_curvature(weight: "Weight", claim: float,
                       detail: str) -> CurvatureCertificate:
    """Check a claimed K_w at seeded interior points of the cone where
    log w is finite; refuted where the smallest eigenvalue of -hess(log w)
    falls below the claim.  The claim is never raised to the minimum found."""
    pts = weight.cone.sample_interior(np.random.default_rng(0), CLAIM_SAMPLE,
                                      radius=CLAIM_RADIUS)
    pts = pts[np.isfinite(weight.spec.log_w(pts))]
    if len(pts) == 0:
        raise InadmissibleWeightError("w vanishes at every sample point")
    eigs = np.linalg.eigvalsh(-weight.spec.hess_log(pts))[:, 0]
    i = int(np.argmin(eigs))
    found, arg = float(eigs[i]), tuple(float(v) for v in pts[i])
    if not found >= claim - CLAIM_GATE * (1.0 + abs(claim)):  # nan refutes too
        raise InadmissibleWeightError(
            f"claimed K_w = {claim:.6g} is refuted at x = {arg}: the smallest "
            f"eigenvalue of -hess(log w) there is {found:.6g}")
    return CurvatureCertificate("claimed", detail, num_points=len(pts),
                                min_eigenvalue_found=found, argmin=arg)


# ---------------------------------------------------------------------------
# the certified weight
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Weight:
    """A weight spec bound to its cone, with degree and certified curvature."""

    spec: object
    dim: int
    cone: Cone
    degree: Optional[float]
    curvature: Optional[float]
    certificate: CurvatureCertificate = field(
        default_factory=lambda: CurvatureCertificate("uncertified"))

    # -- evaluation --------------------------------------------------------
    def eval(self, x) -> np.ndarray | float:
        """w(x); zero exactly on the zero set, DomainError outside closure(cone)."""
        pts, single = _as_points(x, self.dim)
        ok = self.cone.contains(pts)
        if not np.all(ok):
            raise DomainError(f"{np.count_nonzero(~ok)} point(s) outside the cone closure")
        with np.errstate(invalid="ignore"):
            vals = np.exp(self.spec.log_w(pts))
        vals = np.where(np.isfinite(vals), vals, 0.0)
        return float(vals[0]) if single else vals

    __call__ = eval

    def check_regular(self, pts: np.ndarray):
        """Refuse (N, n) points where log w has no derivative: outside the
        closed cone (DomainError), on the zero set of w or on a singular
        hyperplane (SingularityError).  The derivatives of log w at points a
        caller gives are checked; rule nodes are interior by construction."""
        ok = self.cone.contains(pts)
        if not np.all(ok):
            raise DomainError("point outside the cone closure")
        logs = self.spec.log_w(pts)
        if not np.all(np.isfinite(logs)):
            raise SingularityError("derivative of log w on the zero set of w")
        # axes where w vanishes: derivative evaluation right on them is singular
        for ax in self.singular_axes():
            if np.any(np.abs(pts[:, ax]) <= _ZERO_TOL):
                raise SingularityError(f"point on the singular hyperplane x_{ax} = 0")

    def grad_log(self, x) -> np.ndarray:
        pts, single = _as_points(x, self.dim)
        self.check_regular(pts)
        out = self.spec.grad_log(pts)
        return out[0] if single else out

    def hess_log(self, x) -> np.ndarray:
        pts, single = _as_points(x, self.dim)
        self.check_regular(pts)
        out = self.spec.hess_log(pts)
        return out[0] if single else out

    # -- structure ---------------------------------------------------------
    @property
    def is_homogeneous(self) -> bool:
        return self.degree is not None

    @property
    def kw(self) -> float:
        if self.curvature is None:
            raise UncertifiedCurvatureError(
                f"weight {self.spec!r} carries no curvature certificate")
        return self.curvature

    def singular_axes(self) -> tuple[int, ...]:
        """Axes whose hyperplane x_i = 0 carries the zero set of w."""
        return _singular(self.spec.blocks(self.dim))

    def free_axes(self) -> tuple[int, ...]:
        """Axes the weight does not depend on and the cone does not constrain."""
        sig = self.cone.axis_signature()
        if sig is None:
            return ()
        return tuple(b.coords[0] for b in self.spec.blocks(self.dim)
                     if b.kind == "axis" and b.a == 0.0 and b.s == 0.0
                     and sig[b.coords[0]] == "full")

    def euler_residual(self, x) -> float | np.ndarray:
        """x . grad(w) - alpha w; vanishes to round-off for homogeneous weights."""
        if self.degree is None:
            raise NotHomogeneousError("weight is not homogeneous")
        pts, single = _as_points(x, self.dim)
        self.check_regular(pts)
        w = np.exp(self.spec.log_w(pts))
        dot = np.sum(pts * self.spec.grad_log(pts), axis=1)
        res = w * (dot - self.degree)
        return float(res[0]) if single else res


def make_weight(spec, dim: int, cone: Cone | None = None,
                certify: bool = True) -> Weight:
    """Bind a spec to its cone (the spec's natural cone by default) and
    certify the curvature bound.

    With certify=True the weight takes the spec's bound as
    `curvature_lower_bound` certifies it: an analytic bound as it is, a
    claimed one after the sample has failed to refute it.  It stays
    uncertified, with the spec's reason as the certificate detail, when the
    spec gives no bound.  certify=False leaves the weight uncertified:
    usable for homogeneity identities, not for inequality constants.
    """
    spec.check_dim(dim)
    if cone is None:
        cone = spec.natural_cone(dim)
    if cone.dim != dim:
        raise ValueError("cone dimension mismatch")
    bound, _, detail = spec.curvature_bound(dim)
    weight = Weight(spec, dim, cone, spec.degree(dim), None,
                    CurvatureCertificate("uncertified", detail))
    if not certify or bound is None:
        # uncertified on request, or because the spec gives no bound; the
        # weight stays usable for the homogeneity identities that never touch K_w
        return weight
    curvature, cert = curvature_lower_bound(weight)
    return replace(weight, curvature=curvature, certificate=cert)


def curvature_lower_bound(weight: Weight) -> tuple[float, CurvatureCertificate]:
    """K_w with its certificate, the one place a bound is certified: an
    analytic bound is taken as it is, never sampled; a claimed one is
    checked by `_sampled_curvature`, which may refute it.  Refuses a spec
    with no bound and a bound outside (-1, inf)."""
    bound, kind, detail = weight.spec.curvature_bound(weight.dim)
    if bound is None:
        raise InadmissibleWeightError(detail)
    if not -1.0 < bound < np.inf:
        raise InadmissibleWeightError(
            f"{kind} curvature {bound:.6g} violates -1 < K_w < inf")
    if kind == "analytic":
        return float(bound), CurvatureCertificate("analytic", detail)
    return float(bound), _sampled_curvature(weight, float(bound), detail)
