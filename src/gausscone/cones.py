"""Convex cones with vertex at the origin.

Every supported variant satisfies x . eta = 0 a.e. on its boundary, which is
what makes the divergence-theorem identities for homogeneous weights
boundary-free.  Points are judged interior with a hard tolerance of 1e-12 per
facet coordinate so that quadrature nodes never sit exactly on a facet.
Cones are frozen dataclasses: hashable and compared by value, so a cone is
its own cache key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AmbiguousNormalError, NoBoundaryError

INTERIOR_TOL = 1e-12


def _as_points(x, dim: int) -> tuple[np.ndarray, bool]:
    """Normalize input to an (N, dim) array; report whether it was a single point."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        if arr.shape[0] != dim:
            raise ValueError(f"point has dimension {arr.shape[0]}, cone has {dim}")
        return arr[None, :], True
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"expected points of shape (N, {dim}), got {arr.shape}")
    return arr, False


@dataclass(frozen=True)
class Cone:
    """Abstract base; use FullSpace, Orthant, Halfspace or ProductCone."""

    dim: int

    @property
    def has_boundary(self) -> bool:
        raise NotImplementedError

    def facet_gaps(self, points: np.ndarray) -> np.ndarray:
        """Signed distance to each facet, shape (N, n_facets); positive inside."""
        raise NotImplementedError

    def contains(self, x, tol: float = INTERIOR_TOL) -> np.ndarray | bool:
        """Closure membership (facet gaps >= -tol)."""
        pts, single = _as_points(x, self.dim)
        gaps = self.facet_gaps(pts)
        ok = np.all(gaps >= -tol, axis=1) if gaps.shape[1] else np.ones(len(pts), bool)
        return bool(ok[0]) if single else ok

    def is_interior(self, x, tol: float = INTERIOR_TOL) -> np.ndarray | bool:
        pts, single = _as_points(x, self.dim)
        gaps = self.facet_gaps(pts)
        ok = np.all(gaps > tol, axis=1) if gaps.shape[1] else np.ones(len(pts), bool)
        return bool(ok[0]) if single else ok

    def boundary_normal(self, x) -> np.ndarray:
        """Outward unit normal at a smooth boundary point; satisfies x . eta = 0."""
        raise NoBoundaryError(f"{type(self).__name__} has no boundary")

    def boundary_sample(self, rng: np.random.Generator, count: int,
                        radius: float = 4.0) -> tuple[np.ndarray, np.ndarray]:
        """Random smooth boundary points with their outward normals."""
        raise NoBoundaryError(f"{type(self).__name__} has no boundary")

    def sample_interior(self, rng: np.random.Generator, count: int,
                        radius: float = 10.0) -> np.ndarray:
        """Uniform-ish interior sample inside a ball, strictly off every facet."""
        out = np.empty((count, self.dim))
        got = 0
        while got < count:
            batch = rng.standard_normal((2 * (count - got) + 8, self.dim))
            batch *= (radius * rng.random(len(batch)) ** (1.0 / self.dim)
                      / np.maximum(np.linalg.norm(batch, axis=1), 1e-300))[:, None]
            keep = batch[self.is_interior(batch, tol=1e-6)]
            take = min(len(keep), count - got)
            out[got:got + take] = keep[:take]
            got += take
        return out

    # tensor-rule support -------------------------------------------------
    def axis_signature(self) -> tuple[str, ...] | None:
        """Per-axis kind for tensor rules: 'full', 'half+' or 'half-'.

        None when the cone is not an axis-aligned product.
        """
        return None

    def constrained_axes(self) -> frozenset[int]:
        """Half-line axes of an axis-aligned cone; empty for any other cone."""
        sig = self.axis_signature() or ()
        return frozenset(i for i, k in enumerate(sig) if k != "full")


@dataclass(frozen=True)
class FullSpace(Cone):
    @property
    def has_boundary(self) -> bool:
        return False

    def facet_gaps(self, points: np.ndarray) -> np.ndarray:
        return np.empty((len(points), 0))

    def axis_signature(self):
        return tuple("full" for _ in range(self.dim))


@dataclass(frozen=True)
class Orthant(Cone):
    """x_i > 0 for every i in `axes`; remaining coordinates are free."""

    axes: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "axes", frozenset(self.axes))
        if any(a < 0 or a >= self.dim for a in self.axes):
            raise ValueError("orthant axis out of range")

    @property
    def has_boundary(self) -> bool:
        return bool(self.axes)

    def facet_gaps(self, points: np.ndarray) -> np.ndarray:
        ax = sorted(self.axes)
        return points[:, ax] if ax else np.empty((len(points), 0))

    def boundary_normal(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        ax = sorted(self.axes)
        if not ax:
            raise NoBoundaryError("orthant with no constrained axes")
        active = [a for a in ax if abs(x[a]) <= INTERIOR_TOL]
        if len(active) != 1:
            raise AmbiguousNormalError(
                f"{len(active)} facets active at {x}; need exactly one")
        if any(x[a] < -INTERIOR_TOL for a in ax):
            raise AmbiguousNormalError(f"{x} outside the closure")
        eta = np.zeros(self.dim)
        eta[active[0]] = -1.0
        return eta

    def boundary_sample(self, rng, count, radius=4.0):
        ax = sorted(self.axes)
        if not ax:
            raise NoBoundaryError("orthant with no constrained axes")
        pts = np.empty((count, self.dim))
        etas = np.zeros((count, self.dim))
        facet = rng.integers(0, len(ax), size=count)
        for i in range(count):
            p = rng.uniform(-radius, radius, size=self.dim)
            for a in ax:
                p[a] = rng.uniform(0.05, radius)
            p[ax[facet[i]]] = 0.0
            pts[i] = p
            etas[i, ax[facet[i]]] = -1.0
        return pts, etas

    def axis_signature(self):
        return tuple("half+" if i in self.axes else "full" for i in range(self.dim))


@dataclass(frozen=True)
class Halfspace(Cone):
    """x . normal > 0.  The outward unit normal on the boundary is -normal."""

    normal: tuple[float, ...] = ()

    def __post_init__(self):
        nu = np.asarray(self.normal, dtype=float)
        if nu.shape != (self.dim,):
            raise ValueError("normal must have the cone dimension")
        nrm = np.linalg.norm(nu)
        if nrm == 0:
            raise ValueError("zero normal")
        object.__setattr__(self, "normal", tuple(nu / nrm))

    @property
    def has_boundary(self) -> bool:
        return True

    def facet_gaps(self, points: np.ndarray) -> np.ndarray:
        nu = np.asarray(self.normal)
        return (points @ nu)[:, None]

    def boundary_normal(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        nu = np.asarray(self.normal)
        if abs(x @ nu) > INTERIOR_TOL:
            raise AmbiguousNormalError(f"{x} is not on the boundary hyperplane")
        return -nu

    def boundary_sample(self, rng, count, radius=4.0):
        nu = np.asarray(self.normal)
        raw = rng.uniform(-radius, radius, size=(count, self.dim))
        pts = raw - np.outer(raw @ nu, nu)
        etas = np.tile(-nu, (count, 1))
        return pts, etas

    def axis_signature(self):
        nu = np.asarray(self.normal)
        hit = np.nonzero(np.abs(np.abs(nu) - 1.0) < 1e-14)[0]
        if len(hit) == 1 and np.count_nonzero(nu) == 1:
            i = hit[0]
            sig = ["full"] * self.dim
            sig[i] = "half+" if nu[i] > 0 else "half-"
            return tuple(sig)
        return None


@dataclass(frozen=True)
class ProductCone(Cone):
    """Product of factor cones acting on disjoint coordinate blocks."""

    factors: tuple[tuple[Cone, tuple[int, ...]], ...] = ()

    def __post_init__(self):
        seen: set[int] = set()
        for cone, axes in self.factors:
            if cone.dim != len(axes):
                raise ValueError("factor dimension mismatch")
            if seen & set(axes):
                raise ValueError("factor coordinate blocks overlap")
            seen |= set(axes)
        if seen != set(range(self.dim)):
            raise ValueError("factors must cover every coordinate")

    @property
    def has_boundary(self) -> bool:
        return any(c.has_boundary for c, _ in self.factors)

    def facet_gaps(self, points: np.ndarray) -> np.ndarray:
        cols = [c.facet_gaps(points[:, list(ax)]) for c, ax in self.factors]
        cols = [g for g in cols if g.shape[1]]
        return np.hstack(cols) if cols else np.empty((len(points), 0))

    def boundary_normal(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        eta = np.zeros(self.dim)
        active = 0
        for cone, axes in self.factors:
            sub = x[list(axes)]
            if cone.has_boundary and not cone.is_interior(sub):
                eta_sub = cone.boundary_normal(sub)
                eta[list(axes)] = eta_sub
                active += 1
        if active != 1:
            raise AmbiguousNormalError(f"{active} factor boundaries active at {x}")
        return eta

    def axis_signature(self):
        sig = ["full"] * self.dim
        for cone, axes in self.factors:
            sub = cone.axis_signature()
            if sub is None:
                return None
            for a, s in zip(axes, sub):
                sig[a] = s
        return tuple(sig)


def boundary_normal(cone: Cone, x) -> np.ndarray:
    """Outward unit normal of the cone at a smooth boundary point."""
    return cone.boundary_normal(x)
