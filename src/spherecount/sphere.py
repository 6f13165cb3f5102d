"""Geometry on S^n: the projected cube grid, distances and tangent bases.

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
_CHUNK = 1 << 15  # parents expanded at a time by children()


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


def check_cap(spec: CubeGridSpec, points: int, cap: int = DEFAULT_GRID_CAP):
    """Raise GridTooLargeError when the level would hold more than `cap` points."""
    if points > cap:
        raise GridTooLargeError(
            f"level k={spec.k} needs {points} grid points, cap is {cap}"
        )


def grid_lattice(spec: CubeGridSpec, cap: int = DEFAULT_GRID_CAP) -> np.ndarray:
    """All grid points as integer lattice vectors (units of 2^-k).

    Shape (N, n+1), each row once, antipodally closed.  Refuses grids with
    more than `cap` points.
    """
    total = spec.point_count()
    check_cap(spec, total, cap)
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


def lattice_index(spec: CubeGridSpec, rows: np.ndarray) -> np.ndarray:
    """Position of each lattice row in grid_lattice(spec), in closed form.

    grid_lattice is the face blocks (j, +half), (j, -half) for j = 0..n, each
    of size B_j = (side - 1)^j (side + 1)^(n - j) and in C order over its
    coordinate ranges: interior before j, the fixed face coordinate at j,
    the full range after j.  A row's block is its first coordinate at +-half.
    """
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, spec.n + 1)
    half = 2**spec.k
    side = 2 * half
    dim = spec.n + 1
    on_face = np.abs(rows) == half
    if np.any(np.abs(rows) > half) or not np.all(on_face.any(axis=1)):
        raise ValueError(f"rows are not on the level-{spec.k} cube surface")
    face = np.argmax(on_face, axis=1)
    sizes = np.array([(side - 1) ** j * (side + 1) ** (dim - 1 - j) for j in range(dim)])
    starts = np.concatenate(([0], np.cumsum(2 * sizes)[:-1]))
    offset = np.zeros(len(rows), dtype=np.int64)
    for j in range(dim):
        before, after = j < face, j > face
        radix = np.where(before, side - 1, np.where(after, side + 1, 1))
        digit = np.where(before, rows[:, j] + half - 1, np.where(after, rows[:, j] + half, 0))
        offset = offset * radix + digit
    minus = rows[np.arange(len(rows)), face] < 0
    return starts[face] + np.where(minus, sizes[face], 0) + offset


def is_canonical(rows: np.ndarray) -> np.ndarray:
    """Mask of the nonzero rows whose first nonzero coordinate is positive.

    Of each antipodal pair y, -y exactly one row is canonical.
    """
    rows = np.asarray(rows)
    first = np.argmax(rows != 0, axis=1)
    return rows[np.arange(len(rows)), first] > 0


def children(spec: CubeGridSpec, rows: np.ndarray, cap: int = DEFAULT_GRID_CAP) -> np.ndarray:
    """Canonical level-(k+1) rows 2p + {-1, 0, 1}^(n+1) of level-k rows p.

    Keeps the children on the level-(k+1) cube surface, replaces each by
    its canonical representative (the antipode's children are the negated
    children), and returns every row once, in grid_lattice order.  Every
    level-(k+1) grid point is a child of some level-k grid point.

    Raises GridTooLargeError when the children and their antipodes exceed
    `cap` points.  Parents are expanded _CHUNK at a time; the children
    found so far are deduplicated whenever they pass half the cap or
    double, so the check is exact and memory stays within about twice the
    returned rows or the cap, not 3^(n+1) candidates per parent.
    """
    dim = spec.n + 1
    finer = CubeGridSpec(n=spec.n, k=spec.k + 1)
    steps = np.array(np.meshgrid(*[[-1, 0, 1]] * dim, indexing="ij"), dtype=np.int64)
    steps = steps.reshape(dim, -1).T
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, dim)
    index, found, held, limit = [], [], 0, cap // 2
    for lo in range(0, max(len(rows), 1), _CHUNK):
        cand = (2 * rows[lo:lo + _CHUNK, None, :] + steps[None, :, :]).reshape(-1, dim)
        cand = cand[np.abs(cand).max(axis=1) == 2**finer.k]
        cand = np.where(is_canonical(cand)[:, None], cand, -cand)
        idx, first = np.unique(lattice_index(finer, cand), return_index=True)
        index.append(idx)
        found.append(cand[first])
        held += len(idx)
        if held > limit or lo + _CHUNK >= len(rows):
            idx, first = np.unique(np.concatenate(index), return_index=True)
            index, found = [idx], [np.concatenate(found)[first]]
            check_cap(finer, 2 * len(idx), cap)
            held, limit = len(idx), max(cap // 2, 2 * len(idx))
    return found[0]


def project_many(Y: np.ndarray, ar=EXACT) -> np.ndarray:
    """phi(y) = y / ||y||_2 for a batch of cube points (m, n+1)."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    Yr = ar.const(Y)
    nrm = ar.sqrt(ar.sum(ar.mul(Yr, Yr).T))
    if np.any(nrm == 0):
        raise ValueError("cannot project the zero vector")
    return ar.div(Yr, nrm[:, None])


def pairwise_distances(X: np.ndarray, ar=EXACT) -> np.ndarray:
    """Full (m, m) matrix of angular distances between unit points.

    Dot products, norms, quotient and arccos all go through the provider;
    the clamp to [-1, 1] is exact.
    """
    X = np.atleast_2d(X)
    # A generator, so only one (m, m) term is held beside the partial sum.
    dots = ar.sum(ar.mul(X[:, k][:, None], X[None, :, k]) for k in range(X.shape[1]))
    nrm = ar.sqrt(ar.sum(ar.mul(X, X).T))
    a = ar.div(dots, ar.mul(nrm[:, None], nrm[None, :]))
    a = np.clip(a, -1.0, 1.0)
    return np.asarray(ar.arccos(a))


def tangent_basis_many(X: np.ndarray, ar=EXACT) -> np.ndarray:
    """Orthonormal bases of T_x S^n from the Householder reflection: (m, n+1, n).

    Each basis is the (n+1) x n matrix of the first n columns of I - 2 y y^T
    with y = (x - e_last) / ||x - e_last||; that reflection swaps e_last and
    x.  When x is within 1e-8 of e_last the formula degenerates and the
    identity columns are returned directly.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    eye = np.eye(X.shape[1])
    diff = ar.sub(X, eye[-1])
    nrm = ar.sqrt(ar.sum(ar.mul(diff, diff).T))
    degenerate = np.asarray(nrm) < 1e-8
    Y = ar.div(diff, np.where(degenerate, 1.0, nrm)[:, None])
    n = X.shape[1] - 1
    H = ar.sub(eye[:, :n], ar.mul(2.0, ar.mul(Y[:, :, None], Y[:, None, :n])))
    H[degenerate] = eye[:, :n]
    return H
