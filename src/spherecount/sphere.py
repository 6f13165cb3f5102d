"""Geometry on S^n: the projected cube grid, distances, exp map, tangent bases.

The grid of mesh eta = 2^-k lives on the cube surface {||y||_inf = 1} in
R^{n+1}: lattice points i * 2^-k with at least one coordinate equal to +-1.
It is projected to the sphere by y -> y / ||y||.  Enumeration goes face by
face; a point shared by several faces is emitted only by the face of
smallest coordinate index, so each point appears exactly once and the
stream order is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rounding import EXACT

DEFAULT_GRID_CAP = 10**8


class GridTooLargeError(RuntimeError):
    """The requested grid exceeds the configured point cap."""


@dataclass(frozen=True)
class CubeGridSpec:
    """Cube-surface grid for S^n at refinement level k (mesh eta = 2^-k)."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")

    @property
    def eta(self) -> float:
        return 2.0**-self.k

    def point_count(self) -> int:
        side = 2 ** (self.k + 1)
        return (side + 1) ** (self.n + 1) - (side - 1) ** (self.n + 1)


def grid_lattice(spec: CubeGridSpec, cap: int = DEFAULT_GRID_CAP) -> np.ndarray:
    """All grid points as integer lattice vectors (units of 2^-k).

    Shape (N, n+1), each row once, antipodally closed.  Refuses grids with
    more than `cap` points.
    """
    total = spec.point_count()
    if total > cap:
        raise GridTooLargeError(
            f"grid at level k={spec.k} has {total} points, cap is {cap}"
        )
    half = 2**spec.k
    dim = spec.n + 1
    full = np.arange(-half, half + 1, dtype=np.int64)
    interior = np.arange(-half + 1, half, dtype=np.int64)
    blocks = []
    for j in range(dim):
        for s in (half, -half):
            # Coordinates before j must be interior, or this face is not the owner.
            axes = [interior] * j + [np.array([s], dtype=np.int64)] + [full] * (dim - 1 - j)
            mesh = np.meshgrid(*axes, indexing="ij")
            block = np.stack([m.reshape(-1) for m in mesh], axis=1)
            blocks.append(block)
    out = np.concatenate(blocks, axis=0)
    if out.shape[0] != total:
        raise RuntimeError(
            f"grid at level k={spec.k} enumerated {out.shape[0]} points, expected {total}"
        )
    return out


def generate_grid(spec: CubeGridSpec, cap: int = DEFAULT_GRID_CAP):
    """Stream the cube-surface points (floats), in deterministic order."""
    scale = spec.eta
    for row in grid_lattice(spec, cap=cap):
        yield row.astype(np.float64) * scale


def project_many(Y: np.ndarray, ar=EXACT) -> np.ndarray:
    """phi(y) = y / ||y||_2 for a batch of cube points (m, n+1)."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    Yr = ar.const(Y)
    sq = None
    for k in range(Y.shape[1]):
        t = ar.mul(Yr[:, k], Yr[:, k])
        sq = t if sq is None else ar.add(sq, t)
    nrm = ar.sqrt(sq)
    if np.any(nrm == 0):
        raise ValueError("cannot project the zero vector")
    return np.stack([ar.div(Yr[:, k], nrm) for k in range(Y.shape[1])], axis=1)


def project(y, ar=EXACT) -> np.ndarray:
    """Project a single cube point onto S^n."""
    return project_many(np.asarray(y, dtype=float)[None, :], ar)[0]


def project_inverse(x) -> np.ndarray:
    """phi^{-1}(x) = x / ||x||_inf, back onto the cube surface."""
    x = np.asarray(x, dtype=float)
    m = np.max(np.abs(x))
    if m == 0:
        raise ValueError("cannot project the zero vector")
    return x / m


def distance(x1, x2, ar=EXACT) -> float:
    """Riemannian (angular) distance on S^n, inner product clamped to [-1, 1]."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    dot = None
    s1 = None
    s2 = None
    for k in range(len(x1)):
        dot = ar.mul(x1[k], x2[k]) if dot is None else ar.add(dot, ar.mul(x1[k], x2[k]))
        s1 = ar.mul(x1[k], x1[k]) if s1 is None else ar.add(s1, ar.mul(x1[k], x1[k]))
        s2 = ar.mul(x2[k], x2[k]) if s2 is None else ar.add(s2, ar.mul(x2[k], x2[k]))
    a = ar.div(dot, ar.mul(ar.sqrt(s1), ar.sqrt(s2)))
    a = min(1.0, max(-1.0, float(a)))
    return float(ar.arccos(a))


def pairwise_distances(X: np.ndarray, ar=EXACT) -> np.ndarray:
    """Full (m, m) matrix of angular distances between unit points.

    Dot products, norms, quotient and arccos all go through the provider;
    the clamp to [-1, 1] is exact.
    """
    X = np.atleast_2d(X)
    m, dim = X.shape
    dots = None
    sq = None
    for k in range(dim):
        outer = ar.mul(X[:, k][:, None], X[None, :, k])
        dots = outer if dots is None else ar.add(dots, outer)
        t = ar.mul(X[:, k], X[:, k])
        sq = t if sq is None else ar.add(sq, t)
    nrm = ar.sqrt(sq)
    a = ar.div(dots, ar.mul(nrm[:, None], nrm[None, :]))
    a = np.clip(a, -1.0, 1.0)
    return np.asarray(ar.arccos(a))


def exp_map(x, h, tol: float = 1e-10) -> np.ndarray:
    """exp_x(h) = cos(||h||) x + sin(||h||)/||h|| h for tangent h at x."""
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    if abs(float(np.dot(x, h))) > tol:
        raise ValueError(f"h is not tangent at x: <h, x> = {np.dot(x, h)}")
    t = float(np.linalg.norm(h))
    if t == 0.0:
        return x.copy()
    return np.cos(t) * x + (np.sin(t) / t) * h


def tangent_basis(x, ar=EXACT) -> np.ndarray:
    """Orthonormal basis of T_x S^n from the Householder reflection.

    Returns the (n+1) x n matrix of the first n columns of I - 2 y y^T with
    y = (x - e_last) / ||x - e_last||; that reflection swaps e_last and x.
    When x is within 1e-8 of e_last the formula degenerates and the identity
    columns are returned directly.
    """
    return tangent_basis_many(np.asarray(x, dtype=float)[None, :], ar)[0]


def tangent_basis_many(X: np.ndarray, ar=EXACT) -> np.ndarray:
    """Batched Householder tangent bases: (m, n+1, n)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    m, dim = X.shape
    n = dim - 1
    diff = ar.sub(X, np.eye(dim)[-1])
    sq = None
    for k in range(dim):
        t = ar.mul(diff[:, k], diff[:, k])
        sq = t if sq is None else ar.add(sq, t)
    nrm = ar.sqrt(sq)
    degenerate = np.asarray(nrm) < 1e-8
    safe = np.where(degenerate, 1.0, nrm)
    Y = np.stack([ar.div(diff[:, k], safe) for k in range(dim)], axis=1)
    H = np.empty((m, dim, n))
    two = ar.const(2.0)
    for kk in range(dim):
        for j in range(n):
            val = ar.mul(two, ar.mul(Y[:, kk], Y[:, j]))
            base = 1.0 if kk == j else 0.0
            H[:, kk, j] = ar.sub(np.full(m, base), val)
    if np.any(degenerate):
        H[degenerate] = np.eye(dim)[:, :n]
    return H

