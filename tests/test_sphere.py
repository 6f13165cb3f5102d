import itertools
import math
import random

import numpy as np
import pytest

from spherecount import sphere
from spherecount.rounding import EXACT, make_arithmetic
from spherecount.sphere import (
    CubeGridSpec,
    GridTooLargeError,
    children,
    grid_lattice,
    is_canonical,
    lattice_index,
    pairwise_distances,
    project_many,
    tangent_basis_many,
)

from util import distance, random_sphere_point, reference_children, reference_lattice_index


def expected_grid_size(n, k):
    return (2 ** (k + 1) + 1) ** (n + 1) - (2 ** (k + 1) - 1) ** (n + 1)


def test_grid_sizes_match_closed_form():
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            if n == 3 and k == 3:
                continue
            spec = CubeGridSpec(n=n, k=k)
            lattice = grid_lattice(spec)
            assert len(lattice) == expected_grid_size(n, k) == spec.point_count()


def test_grid_no_duplicates_and_antipodal_closure():
    for n, k in [(1, 3), (2, 2)]:
        lattice = grid_lattice(CubeGridSpec(n=n, k=k))
        rows = {tuple(r) for r in lattice.tolist()}
        assert len(rows) == len(lattice)
        for r in rows:
            assert tuple(-v for v in r) in rows
        half = 2**k
        assert all(max(abs(v) for v in r) == half for r in rows)


@pytest.mark.parametrize("n,ks", [(1, (1, 2, 5)), (2, (1, 2, 4)), (3, (1, 2, 3))])
def test_lattice_index_inverts_grid_order(n, ks):
    for k in ks:
        spec = CubeGridSpec(n=n, k=k)
        L = grid_lattice(spec)
        assert np.array_equal(lattice_index(spec, L), np.arange(len(L)))
        rng = np.random.default_rng(k)
        picked = rng.permutation(len(L))[:50]
        assert np.array_equal(lattice_index(spec, L[picked]), picked)
    with pytest.raises(ValueError):
        lattice_index(CubeGridSpec(n=n, k=1), np.zeros((1, n + 1), dtype=np.int64))


@pytest.mark.parametrize("n,k", [(1, 3), (2, 2), (3, 1)])
def test_is_canonical_picks_one_of_each_antipodal_pair(n, k):
    L = grid_lattice(CubeGridSpec(n=n, k=k))
    canon = is_canonical(L)
    assert np.array_equal(canon, ~is_canonical(-L))
    first = [row[np.flatnonzero(row)[0]] for row in L]
    assert np.array_equal(canon, np.array(first) > 0)


@pytest.mark.parametrize("n,ks", [(1, (1, 2, 5)), (2, (1, 2, 3)), (3, (1, 2))])
def test_children_of_every_row_are_the_next_level(n, ks):
    """With nothing resolved, refining every canonical row gives the next grid."""
    for k in ks:
        L = grid_lattice(CubeGridSpec(n=n, k=k))
        finer = grid_lattice(CubeGridSpec(n=n, k=k + 1))
        got = children(CubeGridSpec(n=n, k=k), L[is_canonical(L)])
        assert np.array_equal(got, finer[is_canonical(finer)])


def test_children_stay_within_the_parent_cell():
    spec = CubeGridSpec(n=2, k=3)
    L = grid_lattice(spec)
    p = L[is_canonical(L)][[7]]
    got = children(spec, p)
    assert np.all(np.diff(lattice_index(CubeGridSpec(n=2, k=4), got)) > 0)
    # Each child or its antipode is 2p + an offset in {-1, 0, 1}^3.
    near = np.minimum(np.abs(got - 2 * p).max(axis=1), np.abs(-got - 2 * p).max(axis=1))
    assert np.all(near <= 1) and len(got) == len({tuple(r) for r in got.tolist()})
    assert np.all(is_canonical(got))


def _canonical_surface_rows(rng, n, k, m):
    """About m distinct canonical rows of the level-k cube surface.  Each
    coordinate is uniform, or one of -h, -h + 1, -1, 0, 1, h - 1, h
    (h = 2^k); a quarter of the rows start with 0 and a quarter lie on two
    faces or more, so leading-zero, edge and corner rows occur at every k."""
    half = 2**k
    special = np.array([-half, -half + 1, -1, 0, 1, half - 1, half])
    rows = np.where(rng.random((m, n + 1)) < 0.5,
                    rng.integers(-half, half + 1, (m, n + 1)),
                    rng.choice(special, (m, n + 1)))
    rows[: m // 4, 0] = 0
    # A face after the leading zero; a face; a second face for the second quarter.
    for lo, hi, first in ((0, m // 4, 1), (m // 4, m, 0), (m // 4, m // 2, 0)):
        face = rng.integers(first, n + 1, hi - lo)
        rows[np.arange(lo, hi), face] = rng.choice([-half, half], hi - lo)
    rows = np.where(is_canonical(rows)[:, None], rows, -rows)
    return np.unique(rows, axis=0)


@pytest.mark.parametrize("chunk", [1, 5, 1 << 15])
def test_children_by_chunks_and_their_cap(monkeypatch, chunk):
    """children gives reference_children's rows, in grid_lattice order,
    dtype included, expanding the parents a few at a time or all at once:
    on random canonical parents with edge and corner rows and leading-zero
    rows (whose children flip sign), up to the last levels whose indices
    fit int64.  The cap refuses exactly the levels whose children and
    antipodes exceed it."""
    rng = np.random.default_rng(chunk)
    cases = [(1, 1), (1, 5), (1, 30), (1, 58), (2, 1), (2, 4), (2, 20), (2, 28),
             (3, 1), (3, 3), (3, 10), (3, 17)]
    for n, k in cases:
        spec = CubeGridSpec(n=n, k=k)
        parents = _canonical_surface_rows(rng, n, k, 40)
        assert np.any((np.abs(parents) == 2**k).sum(axis=1) > 1)
        assert np.any(parents[:, 0] == 0)
        for rows in (parents, parents[:1], parents[:0]):
            want = reference_children(spec, rows)
            with monkeypatch.context() as m:
                m.setattr(sphere, "_CHUNK", chunk)
                for cap in (sphere.DEFAULT_GRID_CAP, 2 * len(want)):
                    got = children(spec, rows, cap)
                    assert got.dtype == want.dtype and np.array_equal(got, want)
                with pytest.raises(GridTooLargeError):
                    children(spec, rows, cap=2 * len(want) - 1)


@pytest.mark.parametrize("n,k", [(1, 60), (2, 30), (3, 19)])
def test_grids_beyond_int64_indices_are_refused(n, k):
    """The first level whose grid holds more than 2^63 - 1 points is
    refused, whatever the cap, where its rows or indices would be made;
    the level before it is indexed exactly up to its last row."""
    below, beyond = CubeGridSpec(n=n, k=k - 1), CubeGridSpec(n=n, k=k)
    assert below.point_count() <= 2**63 - 1 < beyond.point_count()
    half = 2 ** (k - 1)
    last = np.array([[half - 1] * n + [-half]])
    assert lattice_index(below, last)[0] == below.point_count() - 1
    assert np.array_equal(lattice_index(below, last), reference_lattice_index(below, last))
    with pytest.raises(GridTooLargeError, match="int64"):
        sphere.canonical_grid(beyond, cap=2**80)
    with pytest.raises(GridTooLargeError, match="int64"):
        children(below, np.array([[half] + [0] * n]), cap=2**80)
    with pytest.raises(GridTooLargeError, match="int64"):
        lattice_index(beyond, 2 * last)


def test_grid_lattice_scales_to_cube_surface():
    spec = CubeGridSpec(n=1, k=2)
    pts = grid_lattice(spec) * spec.eta
    assert pts.shape == (spec.point_count(), 2)
    assert np.max(np.abs(pts), axis=1).min() == 1.0
    assert np.allclose(pts * 4, np.round(pts * 4))


def test_grid_cap():
    with pytest.raises(GridTooLargeError):
        grid_lattice(CubeGridSpec(n=2, k=12), cap=10**6)


def test_projection_basics():
    rng = random.Random(3)
    for _ in range(100):
        y = np.array([rng.uniform(-1, 1) for _ in range(3)])
        y[rng.randrange(3)] = rng.choice([-1.0, 1.0])
        x = project_many(y)[0]
        assert abs(np.linalg.norm(x) - 1.0) < 1e-12
        assert np.allclose(x, y / np.linalg.norm(y), atol=1e-15)
    with pytest.raises(ValueError):
        project_many(np.zeros(3))


def test_projection_is_odd():
    rng = random.Random(5)
    Y = np.array([[rng.uniform(-1, 1) for _ in range(3)] for _ in range(50)])
    Y[:, 0] = 1.0
    assert np.allclose(project_many(-Y), -project_many(Y), atol=0)


def test_distance_properties():
    rng = random.Random(7)
    for _ in range(100):
        x = random_sphere_point(rng, 3)
        y = random_sphere_point(rng, 3)
        d = distance(x, y)
        assert 0.0 <= d <= math.pi
        assert abs(d - distance(y, x)) < 1e-15
    x = random_sphere_point(rng, 3)
    assert distance(x, x) == 0.0
    assert abs(distance(x, -x) - math.pi) < 1e-12


def test_pairwise_distances_matches_scalar():
    rng = random.Random(9)
    X = np.stack([random_sphere_point(rng, 3) for _ in range(12)])
    D = pairwise_distances(X)
    for i in range(12):
        for j in range(12):
            assert abs(D[i, j] - distance(X[i], X[j])) < 1e-12


@pytest.mark.parametrize("bits", [None, 53, 24, 12])
def test_pairwise_distances_between_blocks_are_the_full_matrix(bits):
    """Distances between two blocks of rows equal the full matrix's entries
    bit for bit, either way round, and the full matrix is symmetric."""
    ar = EXACT if bits is None else make_arithmetic("rounded", bits)
    rng = np.random.default_rng(bits or 0)
    X = project_many(rng.standard_normal((17, 4)), ar)
    D = pairwise_distances(X, ar)
    assert np.array_equal(D.view(np.int64), D.T.view(np.int64))
    for lo, hi, first in ((0, 1, 0), (3, 6, 3), (5, 17, 9), (16, 17, 0)):
        block = pairwise_distances(X[lo:hi], ar, X[first:])
        assert np.array_equal(block.view(np.int64), D[lo:hi, first:].view(np.int64))
        block = pairwise_distances(X[first:], ar, X[lo:hi])
        assert np.array_equal(block.view(np.int64), D[first:, lo:hi].view(np.int64))


def test_projection_distortion_bound():
    # d(phi(y1), phi(y2)) <= (pi/2) ||y1 - y2||_2 on the cube surface
    rng = random.Random(11)
    for _ in range(500):
        n = rng.choice([1, 2])
        y1 = np.array([rng.uniform(-1, 1) for _ in range(n + 1)])
        y1[rng.randrange(n + 1)] = rng.choice([-1.0, 1.0])
        y2 = y1 + np.array([rng.uniform(-0.2, 0.2) for _ in range(n + 1)])
        y2 /= np.max(np.abs(y2))
        x1, x2 = project_many(np.stack([y1, y2]))
        d = distance(x1, x2)
        assert d <= 0.5 * math.pi * np.linalg.norm(y1 - y2) + 1e-12


@pytest.mark.parametrize("n,kmax", [(1, 4), (2, 2)])
def test_grid_separation_lemma_exhaustive(n, kmax):
    # distinct projected grid points are at least eta / (2 sqrt(n+1)) apart
    for k in range(1, kmax + 1):
        spec = CubeGridSpec(n=n, k=k)
        X = project_many(grid_lattice(spec) * spec.eta)
        D = pairwise_distances(X)
        np.fill_diagonal(D, np.inf)
        assert D.min() >= spec.eta / (2.0 * math.sqrt(n + 1)) - 1e-12


def test_tangent_basis_orthonormal_and_tangent():
    rng = random.Random(13)
    for _ in range(200):
        dim = rng.choice([2, 3, 4])
        x = random_sphere_point(rng, dim)
        H = tangent_basis_many(x[None, :])[0]
        assert H.shape == (dim, dim - 1)
        assert np.allclose(H.T @ H, np.eye(dim - 1), atol=1e-12)
        assert np.max(np.abs(x @ H)) < 1e-12


def test_tangent_basis_near_pole():
    e_last = np.zeros(3)
    e_last[-1] = 1.0
    H = tangent_basis_many(e_last[None, :])[0]
    assert np.allclose(H, np.eye(3)[:, :2], atol=0)
    assert np.max(np.abs(e_last @ H)) == 0.0
