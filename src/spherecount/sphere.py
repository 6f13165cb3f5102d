"""Geometry on S^n: the projected cube grid, distances and tangent bases.

The grid of mesh eta = 2^-k lives on the cube surface {||y||_inf = 1} in
R^{n+1}: lattice points i * 2^-k with at least one coordinate equal to +-1.
It is projected to the sphere by y -> y / ||y||.  Enumeration goes face by
face; a point shared by several faces is emitted only by the face of
smallest coordinate index, so each point appears exactly once and the
stream order is deterministic.

A row's position in that stream, its grid index, is linear in the row
within each face block: `lattice_index` reads it from one cached table of
weights and bases per block.  A pruned level's rows are the children of
its predecessor's unresolved rows (`children`): expanded only along the
faces each parent lies on (`child_candidates`), made canonical by a sign
key and indexed by that table.  Indices are int64, so a grid of more than 2^63 - 1 points is
refused (`check_cap`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .rounding import EXACT

DEFAULT_GRID_CAP = 10**8
_CHUNK = 1 << 15  # parents children() expands at a time; largest grid canonical_grid shares
_INDEX_LIMIT = int(np.iinfo(np.int64).max)


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
    """Raise GridTooLargeError when the level would hold more than `cap`
    points, or when its grid's indices would not fit int64.

    Every grid_lattice index, and every partial sum of `lattice_index`'s
    formula, is below the grid's point count in absolute value, so a grid
    of at most 2^63 - 1 points is indexed exactly; a larger one is refused
    whatever the cap (n = 3 from k = 19, n = 2 from k = 30, n = 1 from
    k = 60).
    """
    if points > cap:
        raise GridTooLargeError(
            f"level k={spec.k} needs {points} grid points, cap is {cap}"
        )
    if spec.point_count() > _INDEX_LIMIT:
        raise GridTooLargeError(
            f"level k={spec.k} has {spec.point_count()} grid points, "
            f"more than int64 indices reach ({_INDEX_LIMIT})"
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


@lru_cache(maxsize=64)
def _index_table(spec: CubeGridSpec) -> tuple[np.ndarray, np.ndarray]:
    """(weights, bases) of `lattice_index`'s formula, one row per block.

    Block b = 2j + 0 is (j, +half) and b = 2j + 1 is (j, -half), each of
    size B_j = (2 half - 1)^j (2 half + 1)^(n - j); the pair of face j
    starts at s_j = 2 (B_0 + ... + B_(j-1)).  In C order
    over the block's ranges a row c has the mixed-radix offset
    sum_i digit_i * weight_i, with radix 2 half - 1 and digit c_i + half - 1
    before j, radix 1 at j, radix 2 half + 1 and digit c_i + half after j;
    weight_i is the product of the radices after i, and weight_j = 0.  The
    digits' constant parts and the block's start go into bases[b], so
    position = bases[b] + sum_i weights[b, i] c_i.  Raises
    GridTooLargeError when the grid's indices would not fit int64.
    """
    check_cap(spec, 0)  # the int64 bound; the table holds no points
    half = 2**spec.k
    dim = spec.n + 1
    weights, bases, start = [], [], 0
    for j in range(dim):
        radix = [2 * half - 1] * j + [1] + [2 * half + 1] * (dim - 1 - j)
        weight = [math.prod(radix[i + 1:]) if i != j else 0 for i in range(dim)]
        center = sum(w * (half - (i < j)) for i, w in enumerate(weight))
        size = math.prod(radix)
        weights += [weight, weight]
        bases += [start + center, start + size + center]
        start += 2 * size
    weights, bases = np.array(weights, dtype=np.int64), np.array(bases, dtype=np.int64)
    weights.flags.writeable = bases.flags.writeable = False
    return weights, bases


def lattice_index(spec: CubeGridSpec, rows: np.ndarray) -> np.ndarray:
    """Position of each lattice row in grid_lattice(spec), in closed form.

    grid_lattice is the face blocks (j, +half), (j, -half) for j = 0..n
    (`_index_table`), each in C order over its coordinate ranges: interior
    before j, the fixed face coordinate at j, the full range after j.  A
    row's block is its first coordinate at +-half, found by one argmax, and
    its position is linear in the row with that block's weights and base
    from the cached `_index_table`.  The rows are read coordinate-major
    (`rows.T`), so the transpose of an (n+1, N) array costs no copy.
    Raises ValueError for rows off the cube surface, and GridTooLargeError
    for a grid whose indices would not fit int64 (`check_cap`).
    """
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, spec.n + 1)
    weights, bases = _index_table(spec)
    half = 2**spec.k
    coords = rows.T
    if not (np.abs(coords).max(axis=0) == half).all():
        raise ValueError(f"rows are not on the level-{spec.k} cube surface")
    at = coords[:, None, :] == np.array([[half], [-half]])
    block = at.reshape(2 * len(coords), -1).argmax(axis=0)
    return bases.take(block) + (coords * weights.take(block, axis=0).T).sum(axis=0)


def is_canonical(rows: np.ndarray) -> np.ndarray:
    """Mask of the nonzero rows whose first nonzero coordinate is positive.

    Of each antipodal pair y, -y exactly one row is canonical.
    """
    rows = np.asarray(rows)
    first = np.argmax(rows != 0, axis=1)
    return rows[np.arange(len(rows)), first] > 0


def canonical_grid(spec: CubeGridSpec, cap: int = DEFAULT_GRID_CAP) -> np.ndarray:
    """Every canonical row of the level's grid, in grid_lattice order: the
    rows of a whole-grid level, as `children` gives them for a pruned one.

    Raises GridTooLargeError when the grid exceeds `cap` points; the cap is
    checked at every call.  A grid of at most _CHUNK canonical rows is built
    once per spec and shared, read-only: a run's whole-grid levels, and
    every pass of a sweep, ask for the same small grids.
    """
    check_cap(spec, spec.point_count(), cap)
    if spec.point_count() // 2 > _CHUNK:
        return _canonical_lattice(spec)
    return _shared_canonical_lattice(spec)


def _canonical_lattice(spec: CubeGridSpec) -> np.ndarray:
    lattice = grid_lattice(spec, cap=spec.point_count())
    return lattice[is_canonical(lattice)]


@lru_cache(maxsize=64)
def _shared_canonical_lattice(spec: CubeGridSpec) -> np.ndarray:
    rows = _canonical_lattice(spec)
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=8)
def _expansion(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(steps, powers) for `children` in dimension dim = n + 1.

    steps[:, j] holds the 3^n offsets e in {-1, 0, 1}^dim with e_j = 0,
    coordinate-major: shape (dim, dim, 3^n), indexed [coordinate, j, offset].
    powers are 3^(n - i), the weights of the sign key.
    """
    offsets = np.indices((3,) * (dim - 1)).reshape(dim - 1, -1) - 1
    steps = np.stack([np.insert(offsets, j, 0, axis=0) for j in range(dim)], axis=1)
    powers = 3 ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    steps.flags.writeable = powers.flags.writeable = False
    return steps, powers


def child_candidates(spec: CubeGridSpec, parents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The canonical children of level-k rows, with repeats: `children`'s
    expansion before it indexes and deduplicates them.

    parents is coordinate-major, (n+1, N).  A parent is expanded once
    along each face it lies on: P expansions of 3^n candidates each.
    Returns the candidates, coordinate-major (n+1, 3^n P), and the parents'
    columns, (P,): candidate c is a child of parents[:, parent[c // 3^n]].
    """
    dim = spec.n + 1
    half = 2 ** (spec.k + 1)
    steps, powers = _expansion(dim)
    face, parent = (np.abs(parents) == 2**spec.k).nonzero()
    cand = 2 * parents.take(parent, axis=1)[:, :, None] + steps.take(face, axis=1)
    cand = cand.reshape(dim, -1)
    np.minimum(cand, half, out=cand)
    np.maximum(cand, -half, out=cand)
    cand *= np.sign(powers @ np.sign(cand))
    return cand, parent


def children(spec: CubeGridSpec, rows: np.ndarray, cap: int = DEFAULT_GRID_CAP) -> np.ndarray:
    """Canonical level-(k+1) rows 2p + {-1, 0, 1}^(n+1) of level-k rows p.

    Keeps the children on the level-(k+1) cube surface, replaces each by
    its canonical representative (the antipode's children are the negated
    children), and returns every row once, in grid_lattice order: the rows
    the next level evaluates.  Every level-(k+1) grid point is a child of
    some level-k grid point.

    A child 2p + e is on the finer surface exactly when it keeps a face
    coordinate of p, e_j = 0 where |p_j| = 2^k; no other coordinate can
    reach 2^(k+1).  So each parent is expanded along each face it lies on,
    3^n offsets a face, not 3^(n+1).  Along face j, an offset that pushes a
    second face coordinate past the surface is clipped back onto it: that
    is the child with e_i = 0 there, which the expansion already holds.
    The candidates (`child_candidates`) are held coordinate-major,
    (n+1, N).  Each is made canonical by the sign of its key
    sum_i sign(c_i) 3^(n-i), which is the sign of its first nonzero
    coordinate and stays below 3^(n+1) / 2.  One `lattice_index` call
    indexes them all from its per-block table, and one stable argsort
    (`np.unique`) keeps each index once and puts the rows in grid order.

    Raises GridTooLargeError when the children and their antipodes exceed
    `cap` points, or when the finer grid's indices would not fit int64
    (`check_cap`).  Parents are expanded _CHUNK at a time.  The chunks'
    children are merged and deduplicated again when they pass half the cap
    or double, and at the end, which a level whose parents fit in one chunk
    skips.  So the check is exact and memory stays within about twice the
    returned rows or the cap, not 3^n candidates per parent.
    """
    dim = spec.n + 1
    finer = CubeGridSpec(n=spec.n, k=spec.k + 1)
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, dim)
    index, found, held, limit = [], [], 0, cap // 2
    for lo in range(0, max(len(rows), 1), _CHUNK):
        cand, _ = child_candidates(spec, rows[lo:lo + _CHUNK].T)
        idx, first = np.unique(lattice_index(finer, cand.T), return_index=True)
        index.append(idx)
        found.append(cand.T.take(first, axis=0))
        held += len(idx)
        if held > limit or lo + _CHUNK >= len(rows):
            if len(index) > 1:
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


def pairwise_distances(X: np.ndarray, ar=EXACT, Y: np.ndarray | None = None) -> np.ndarray:
    """(m, p) matrix of angular distances between the unit points X and Y.

    Y defaults to X.  Dot products, norms, quotient and arccos all go
    through the provider; the clamp to [-1, 1] is exact.  Each entry is a
    left fold of coordinate products, each row's own norm, then the
    quotient by the product of the two norms; multiplication commutes, so
    d(x, y) and d(y, x) are equal bit for bit, whichever blocks of rows X
    and Y are.
    """
    X = np.atleast_2d(X)
    Y = X if Y is None else np.atleast_2d(Y)
    # A generator, so only one (m, p) term is held beside the partial sum.
    dots = ar.sum(ar.mul(X[:, k][:, None], Y[None, :, k]) for k in range(X.shape[1]))
    nx = ar.sqrt(ar.sum(ar.mul(X, X).T))
    ny = nx if Y is X else ar.sqrt(ar.sum(ar.mul(Y, Y).T))
    a = ar.div(dots, ar.mul(nx[:, None], ny[None, :]))
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
