"""Convex cones with vertex at the origin.

A cone is the intersection of the halfspaces {<n_j, x> > 0} of orthonormal
inward unit normals n_j; no normals is the full space.  On facet j the
outward normal is -n_j and x . eta = 0, which makes the divergence-theorem
identities for homogeneous weights boundary-free.  Points are interior when
every facet gap, pts @ N^T, exceeds 1e-12, so quadrature nodes never sit on
a facet.  A `Cone` is a frozen dataclass with its normals sorted, so equal
facet sets compare equal and a cone is its own cache key.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """{x : <n, x> > 0 for every n in normals}, the normals orthonormal."""

    dim: int
    normals: tuple[tuple[float, ...], ...] = ()

    def __post_init__(self):
        unit = []
        for n in self.normals:
            nu = np.asarray(n, dtype=float)
            if nu.shape != (self.dim,):
                raise ValueError("normal must have the cone dimension")
            nrm = np.linalg.norm(nu)
            if nrm == 0:
                raise ValueError("zero normal")
            unit.append(tuple(float(c) for c in nu / nrm))
        mat = np.array(unit).reshape(len(unit), self.dim)
        if np.max(np.abs(mat @ mat.T - np.eye(len(unit))), initial=0.0) > 1e-12:
            raise ValueError("cone normals must be orthogonal")
        object.__setattr__(self, "normals", tuple(sorted(unit, reverse=True)))

    @property
    def matrix(self) -> np.ndarray:
        """The normals as the rows of a (k, dim) array."""
        return np.array(self.normals).reshape(len(self.normals), self.dim)

    @property
    def has_boundary(self) -> bool:
        return bool(self.normals)

    def facet_gaps(self, points: np.ndarray) -> np.ndarray:
        """Signed distance to each facet, shape (N, n_facets); positive inside."""
        return points @ self.matrix.T

    def contains(self, x, tol: float = INTERIOR_TOL) -> np.ndarray | bool:
        """Closure membership (facet gaps >= -tol)."""
        pts, single = _as_points(x, self.dim)
        ok = np.all(self.facet_gaps(pts) >= -tol, axis=1)
        return bool(ok[0]) if single else ok

    def is_interior(self, x, tol: float = INTERIOR_TOL) -> np.ndarray | bool:
        pts, single = _as_points(x, self.dim)
        ok = np.all(self.facet_gaps(pts) > tol, axis=1)
        return bool(ok[0]) if single else ok

    def boundary_normal(self, x) -> np.ndarray:
        """Outward unit normal at a smooth boundary point; satisfies x . eta = 0."""
        if not self.normals:
            raise NoBoundaryError("the full space has no boundary")
        pts, _ = _as_points(x, self.dim)
        gaps = self.facet_gaps(pts)[0]
        if np.any(gaps < -INTERIOR_TOL):
            raise AmbiguousNormalError(f"{pts[0]} outside the closure")
        active = np.flatnonzero(np.abs(gaps) <= INTERIOR_TOL)
        if len(active) != 1:
            raise AmbiguousNormalError(
                f"{len(active)} facets active at {pts[0]}; need exactly one")
        return -self.matrix[active[0]]

    def boundary_sample(self, rng: np.random.Generator, count: int,
                        radius: float = 4.0) -> tuple[np.ndarray, np.ndarray]:
        """Random smooth boundary points with their outward normals: a point
        of the box [-radius, radius]^n projected onto the chosen facet, at a
        uniform gap in [0.05, radius) from each other facet."""
        k = len(self.normals)
        if not k:
            raise NoBoundaryError("the full space has no boundary")
        mat = self.matrix
        facet = rng.integers(0, k, size=count)
        # per point: the box coordinates, then one gap per facet if several
        u = rng.random((count, self.dim + (k if k > 1 else 0)))
        box = -radius + (2.0 * radius) * u[:, :self.dim]
        gaps = np.zeros((count, k))
        if k > 1:
            gaps = 0.05 + (radius - 0.05) * u[:, self.dim:]
            gaps[np.arange(count), facet] = 0.0
        pts = box - (box @ mat.T) @ mat + gaps @ mat
        return pts, -mat[facet]

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

    def axis_signature(self) -> tuple[str, ...] | None:
        """Per-axis kind for tensor rules: 'full', 'half+' or 'half-'.

        None unless every normal is a signed unit axis vector."""
        sig = ["full"] * self.dim
        for n in self.normals:
            nu = np.asarray(n)
            hit = np.flatnonzero(np.abs(np.abs(nu) - 1.0) < 1e-14)
            if len(hit) != 1 or np.count_nonzero(nu) != 1:
                return None
            sig[hit[0]] = "half+" if nu[hit[0]] > 0 else "half-"
        return tuple(sig)

    def constrained_axes(self) -> frozenset[int]:
        """Half-line axes of an axis-aligned cone; empty for any other cone."""
        sig = self.axis_signature() or ()
        return frozenset(i for i, k in enumerate(sig) if k != "full")


def FullSpace(dim: int) -> Cone:
    return Cone(dim)


def Orthant(dim: int, axes=()) -> Cone:
    """x_i > 0 for every i in `axes`; remaining coordinates are free."""
    if any(a < 0 or a >= dim for a in axes):
        raise ValueError("orthant axis out of range")
    return Cone(dim, tuple(np.eye(dim)[sorted(set(axes))]))


def Halfspace(dim: int, normal) -> Cone:
    """x . normal > 0.  The outward unit normal on the boundary is -normal."""
    return Cone(dim, (normal,))
