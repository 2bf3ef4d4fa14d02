"""Admissible weights w on cones: evaluation, log-derivatives, homogeneity
degree and the curvature lower bound K_w of the convexity condition
-hess(log w) >= K I.

Built-in variants carry exact analytic derivatives.  Curvature is certified
analytically where a closed argument exists (Gaussian tilts, log-concave
homogeneous families) and by quasi-random sampling plus local descent
otherwise.  Homogeneous log-concave weights always get K_w = 0: the radial
second derivative of log w along rays is exactly -alpha/t^2, so no positive
bound can hold on an unbounded cone.

A spec is a frozen dataclass, so it is hashable and compares by value: the
spec, the dimension and the cone are the rule-cache key of a weight.  The
private base `_Spec` holds the protocol defaults (no dimension hint, zero
Gaussian tilts, the full space as natural cone, no analytic curvature
argument); each spec overrides only what differs.  The axes on which w
vanishes are read off the per-axis exponents (`Weight.singular_axes`).  A
spec's natural cone is a list of facet normals (see `cones`): the orthant
of the axes where w vanishes, the halfspace of a single tilted Dunkl root,
or, for a partial product, the inner cone's normals embedded into its
coordinates.
On axis-first points (see `measures`) the built-in specs return grad(log w)
and hess(log w) axis-first, as the (N, n) and (N, n, n) transposed views of
(n, N) and (n, n, N) buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .cones import Cone, FullSpace, Halfspace, Orthant, _as_points
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

def _positive_axes(exps) -> tuple[int, ...]:
    return tuple(i for i, a in enumerate(exps) if a > 0)


class _Spec:
    """Protocol defaults of a weight spec; each spec overrides what differs."""

    def dim_hint(self) -> int | None:
        return None

    def axis_tilts(self, dim: int) -> tuple[float, ...] | None:
        return (0.0,) * dim

    def analytic_curvature(self, dim: int):
        return NotImplemented

    def natural_cone(self, dim: int) -> Cone:
        return FullSpace(dim)


@dataclass(frozen=True)
class Monomial(_Spec):
    """w(x) = prod |x_i|^a_i, homogeneous of degree sum(a_i)."""

    exponents: tuple[float, ...]

    def __post_init__(self):
        exps = tuple(float(a) for a in self.exponents)
        if any(a < 0 for a in exps):
            raise ValueError("monomial exponents must be nonnegative")
        object.__setattr__(self, "exponents", exps)

    def dim_hint(self) -> int | None:
        return len(self.exponents)

    def degree(self, dim: int) -> float | None:
        return float(sum(self.exponents))

    def log_w(self, pts: np.ndarray) -> np.ndarray:
        out = np.zeros(len(pts))
        with np.errstate(divide="ignore"):
            for i, a in enumerate(self.exponents):
                if a > 0:
                    out += a * np.log(np.abs(pts[:, i]))
        return out

    def grad_log(self, pts: np.ndarray) -> np.ndarray:
        out = np.zeros(pts.shape[::-1])
        for i, a in enumerate(self.exponents):
            if a > 0:
                out[i] = a / pts[:, i]
        return out.T

    def hess_log(self, pts: np.ndarray) -> np.ndarray:
        n = pts.shape[1]
        out = np.zeros((n, n, len(pts)))
        for i, a in enumerate(self.exponents):
            if a > 0:
                out[i, i] = -a / pts[:, i] ** 2
        return out.transpose(2, 0, 1)

    def axis_exponents(self, dim: int) -> tuple[float, ...] | None:
        return self.exponents

    def analytic_curvature(self, dim: int):
        # log-concave (hess_log diagonal <= 0) and homogeneous
        return 0.0, "analytic: homogeneous log-concave"

    def natural_cone(self, dim: int) -> Cone:
        return Orthant(dim, _positive_axes(self.exponents))


@dataclass(frozen=True)
class Radial(_Spec):
    """w(x) = |x|^alpha.  Log-concave only in dimension one."""

    alpha: float

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("radial exponent must be nonnegative")

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

    def axis_exponents(self, dim: int) -> tuple[float, ...] | None:
        return (self.alpha,) if dim == 1 else None

    def analytic_curvature(self, dim: int):
        if dim == 1:
            return 0.0, "analytic: homogeneous log-concave (1-d)"
        if self.alpha == 0:
            return 0.0, "analytic: constant weight"
        # -hess(log w) has eigenvalue -alpha/|x|^2 orthogonal to x, unbounded
        # below near the vertex: no K > -1 exists.
        return None, "log-Hessian unbounded below near the vertex (dim >= 2)"

    def natural_cone(self, dim: int) -> Cone:
        return Orthant(1, frozenset({0})) if dim == 1 else FullSpace(dim)


@dataclass(frozen=True)
class DunklProduct(_Spec):
    """w(x) = prod_beta |<beta, x>|^(2 k_beta) over unit roots beta."""

    roots: tuple[tuple[float, ...], ...]
    multiplicities: tuple[float, ...]

    def __post_init__(self):
        roots = tuple(tuple(float(c) for c in r) for r in self.roots)
        mults = tuple(float(k) for k in self.multiplicities)
        if len(roots) != len(mults):
            raise ValueError("roots/multiplicities length mismatch")
        if any(k < 0 for k in mults):
            raise ValueError("multiplicities must be nonnegative")
        for r in roots:
            if abs(np.linalg.norm(r) - 1.0) > 1e-10:
                raise ValueError("Dunkl roots must be unit vectors")
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "multiplicities", mults)

    def dim_hint(self) -> int | None:
        return len(self.roots[0]) if self.roots else None

    def degree(self, dim: int) -> float | None:
        return 2.0 * sum(self.multiplicities)

    def _dots(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.roots) @ pts.T  # (n_roots, N)

    def _ks(self) -> np.ndarray:
        return np.asarray(self.multiplicities)[:, None]

    def log_w(self, pts: np.ndarray) -> np.ndarray:
        dots = self._dots(pts)
        with np.errstate(divide="ignore"):
            return (2.0 * self._ks() * np.log(np.abs(dots))).sum(axis=0)

    def grad_log(self, pts: np.ndarray) -> np.ndarray:
        betas = np.asarray(self.roots)
        return (betas.T @ (2.0 * self._ks() / self._dots(pts))).T

    def hess_log(self, pts: np.ndarray) -> np.ndarray:
        betas = np.asarray(self.roots)
        outer = betas[:, :, None] * betas[:, None, :]  # (n_roots, n, n)
        coef = -2.0 * self._ks() / self._dots(pts) ** 2  # (n_roots, N)
        return np.einsum("rN,rij->ijN", coef, outer).transpose(2, 0, 1)

    def axis_exponents(self, dim: int) -> tuple[float, ...] | None:
        exps = [0.0] * dim
        for r, k in zip(self.roots, self.multiplicities):
            hits = [i for i, c in enumerate(r) if abs(abs(c) - 1.0) < 1e-14]
            if len(hits) != 1 or sum(abs(c) > 1e-14 for c in r) != 1:
                return None
            exps[hits[0]] += 2.0 * k
        return tuple(exps)

    def analytic_curvature(self, dim: int):
        # each factor contributes +2k beta beta^T / <beta,x>^2 to -hess(log w)
        return 0.0, "analytic: homogeneous log-concave"

    def natural_cone(self, dim: int) -> Cone:
        exps = self.axis_exponents(dim)
        if exps is not None:
            return Orthant(dim, _positive_axes(exps))
        if len(self.roots) == 1:
            return Halfspace(dim, self.roots[0])
        raise ValueError(
            "no built-in cone variant bounds this root system; pass one explicitly")


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

    def axis_exponents(self, dim: int) -> tuple[float, ...] | None:
        return tuple(0.0 for _ in range(dim))

    def axis_tilts(self, dim: int) -> tuple[float, ...] | None:
        return tuple(self.s for _ in range(dim))

    def analytic_curvature(self, dim: int):
        return float(self.s), "analytic: constant log-Hessian"


@dataclass(frozen=True)
class PartialProduct(_Spec):
    """Inner spec acting on a coordinate subset; every other axis is free."""

    inner: object
    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))

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

    def axis_exponents(self, dim: int) -> tuple[float, ...] | None:
        sub = self.inner.axis_exponents(len(self.coords))
        if sub is None:
            return None
        exps = [0.0] * dim
        for c, a in zip(self.coords, sub):
            exps[c] = a
        return tuple(exps)

    def axis_tilts(self, dim: int) -> tuple[float, ...] | None:
        sub = self.inner.axis_tilts(len(self.coords))
        if sub is None:
            return None
        tilts = [0.0] * dim
        for c, t in zip(self.coords, sub):
            tilts[c] = t
        return tuple(tilts)

    def analytic_curvature(self, dim: int):
        res = self.inner.analytic_curvature(len(self.coords))
        if res is NotImplemented or res[0] is None:
            return res
        k, detail = res
        if len(self.coords) < dim and k > 0:
            # free coordinates contribute zero rows to hess(log w), so the
            # smallest eigenvalue of -hess(log w) cannot exceed zero
            return 0.0, detail + "; capped at zero by the free coordinates"
        return res

    def natural_cone(self, dim: int) -> Cone:
        # the inner cone's normals, embedded into the coordinates it acts on
        inner = self.inner.natural_cone(len(self.coords)).matrix
        normals = np.zeros((len(inner), dim))
        normals[:, list(self.coords)] = inner
        return Cone(dim, tuple(normals))


@dataclass(frozen=True)
class CustomLogWeight(_Spec):
    """User-supplied log-weight with first and second derivatives.

    Callables receive an (N, dim) batch; `log_value` must return -inf outside
    the support.  `degree` may be given when the weight is homogeneous.
    """

    log_value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"
    homogeneity_degree: Optional[float] = None

    def degree(self, dim: int) -> float | None:
        return self.homogeneity_degree

    def log_w(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.log_value(pts), dtype=float)

    def grad_log(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.grad(pts), dtype=float)

    def hess_log(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.hess(pts), dtype=float)

    def axis_exponents(self, dim: int) -> tuple[float, ...] | None:
        return None

    def axis_tilts(self, dim: int) -> tuple[float, ...] | None:
        return None


# ---------------------------------------------------------------------------
# curvature certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvatureCertificate:
    kind: str  # "analytic" | "sampled" | "uncertified"
    detail: str = ""
    num_points: int = 0
    min_eigenvalue_found: float = np.inf
    argmin: tuple[float, ...] = ()


@dataclass(frozen=True)
class CurvatureSampler:
    """Quasi-random certification sample: Sobol ball points plus local descent."""

    num_points: int = 2 ** 17  # Sobol wants powers of two
    radius: float = 10.0
    descent_from: int = 10
    seed: int = 0


def _min_eig_neg_hess(weight: "Weight", pts: np.ndarray) -> np.ndarray:
    h = -weight.spec.hess_log(pts)
    return np.linalg.eigvalsh(h)[:, 0]


def _sampled_curvature(weight: "Weight", sampler: CurvatureSampler) -> CurvatureCertificate:
    # imported here: scipy.stats dominates `import gausscone` otherwise
    from scipy.optimize import minimize
    from scipy.stats import qmc

    dim = weight.dim
    eng = qmc.Sobol(d=dim, scramble=True, seed=sampler.seed)
    raw = eng.random(sampler.num_points)
    pts = (2.0 * raw - 1.0) * sampler.radius
    inside = weight.cone.is_interior(pts, tol=1e-9)
    inside &= np.linalg.norm(pts, axis=1) <= sampler.radius
    inside &= np.isfinite(weight.spec.log_w(pts))
    pts = pts[inside]
    if len(pts) == 0:
        raise InadmissibleWeightError("no interior sample points found")
    eigs = _min_eig_neg_hess(weight, pts)
    order = np.argsort(eigs)
    best = float(eigs[order[0]])
    arg = pts[order[0]]

    def objective(x):
        x = np.asarray(x)[None, :]
        if not weight.cone.is_interior(x, tol=1e-12)[0]:
            return np.inf
        if not np.isfinite(weight.spec.log_w(x))[0]:
            return np.inf
        return float(_min_eig_neg_hess(weight, x)[0])

    for idx in order[: sampler.descent_from]:
        res = minimize(objective, pts[idx], method="Nelder-Mead",
                       options={"maxiter": 200, "xatol": 1e-10, "fatol": 1e-12})
        if res.fun < best:
            best = float(res.fun)
            arg = np.asarray(res.x)
    return CurvatureCertificate("sampled", "Sobol ball + Nelder-Mead descent",
                                num_points=len(pts), min_eigenvalue_found=best,
                                argmin=tuple(float(v) for v in arg))


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

    def _check_regular(self, pts: np.ndarray):
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
        self._check_regular(pts)
        out = self.spec.grad_log(pts)
        return out[0] if single else out

    def hess_log(self, x) -> np.ndarray:
        pts, single = _as_points(x, self.dim)
        self._check_regular(pts)
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

    def axis_exponents(self) -> tuple[float, ...] | None:
        return self.spec.axis_exponents(self.dim)

    def singular_axes(self) -> tuple[int, ...]:
        """Axes whose hyperplane x_i = 0 carries the zero set of w."""
        return _positive_axes(self.axis_exponents() or ())

    def axis_tilts(self) -> tuple[float, ...] | None:
        """Per-axis Gaussian tilt rates s_i (w carries e^{-s_i x_i^2 / 2})."""
        return self.spec.axis_tilts(self.dim)

    @property
    def is_radial(self) -> bool:
        return isinstance(self.spec, Radial)

    def free_axes(self) -> tuple[int, ...]:
        """Axes the weight does not depend on and the cone does not constrain."""
        exps = self.axis_exponents()
        tilts = self.axis_tilts()
        sig = self.cone.axis_signature()
        if sig is None:
            return ()
        free = []
        for i in range(self.dim):
            unconstrained = sig[i] == "full"
            independent = (exps is not None and exps[i] == 0.0
                           and tilts is not None and tilts[i] == 0.0)
            if isinstance(self.spec, PartialProduct) and i not in self.spec.coords:
                independent = True
            if unconstrained and independent:
                free.append(i)
        return tuple(free)

    def euler_residual(self, x) -> float | np.ndarray:
        """x . grad(w) - alpha w; vanishes to round-off for homogeneous weights."""
        if self.degree is None:
            raise NotHomogeneousError("weight is not homogeneous")
        pts, single = _as_points(x, self.dim)
        self._check_regular(pts)
        w = np.exp(self.spec.log_w(pts))
        dot = np.sum(pts * self.spec.grad_log(pts), axis=1)
        res = w * (dot - self.degree)
        return float(res[0]) if single else res


def make_weight(spec, dim: int, cone: Cone | None = None, certify: bool = True,
                sampler: CurvatureSampler | None = None) -> Weight:
    """Bind a spec to its cone (the spec's natural cone by default) and
    certify the curvature bound.

    With certify=True the weight takes the spec's analytic bound; it stays
    uncertified, with the spec's reason as the certificate detail, when the
    spec shows that no bound exists; and a spec with no analytic argument is
    sampled (`sampler`, or the default sampler).  certify=False leaves the
    weight uncertified: usable for homogeneity identities, not for
    inequality constants.  Certification is `curvature_lower_bound`.
    """
    hint = spec.dim_hint()
    if hint is not None and hint != dim:
        raise ValueError(f"spec dimension {hint} != requested dim {dim}")
    if cone is None:
        cone = spec.natural_cone(dim)
    if cone.dim != dim:
        raise ValueError("cone dimension mismatch")

    degree = spec.degree(dim)
    analytic = spec.analytic_curvature(dim)
    detail = "" if analytic is NotImplemented else analytic[1]

    weight = Weight(spec, dim, cone, degree, None,
                    CurvatureCertificate("uncertified", detail))
    if not certify or (analytic is not NotImplemented and analytic[0] is None):
        # uncertified on request, or because no admissible bound exists; the
        # weight stays usable for the homogeneity identities that never touch K_w
        return weight
    curvature, cert = curvature_lower_bound(weight, sampler or CurvatureSampler())
    return Weight(spec, dim, cone, degree, curvature, cert)


def curvature_lower_bound(weight: Weight,
                          sampler: CurvatureSampler | None = None) -> tuple[float, CurvatureCertificate]:
    """K_w with its certificate; analytic when available, sampled otherwise.
    The one place a bound K_w <= -1 is refused."""
    analytic = weight.spec.analytic_curvature(weight.dim)
    if analytic is not NotImplemented and analytic[0] is not None:
        curvature = float(analytic[0])
        cert = CurvatureCertificate("analytic", analytic[1])
    elif analytic is not NotImplemented and sampler is None:
        raise InadmissibleWeightError(analytic[1])
    else:
        cert = _sampled_curvature(weight, sampler or CurvatureSampler())
        curvature = cert.min_eigenvalue_found
    if curvature <= -1.0:
        raise InadmissibleWeightError(
            f"{cert.kind} curvature {curvature:.6g} <= -1")
    return curvature, cert
