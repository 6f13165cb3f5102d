"""Bitwise gate for the whole-array point kernel.

Each kernel must give, bit for bit (signed zeros included), what the
per-column and per-term loops of `tests/util.py` give: the round-off
analysis of `engine._round_off_bounds` assumes that order of rounded
operations for every element, whatever the batch.
"""

import random

import numpy as np
import pytest

from spherecount import alpha, polysys, sphere
from spherecount.polysys import Monomial, Polynomial, PolynomialSystem
from spherecount.rounding import Arithmetic

from util import (
    all_exponents,
    column_compute_M_many,
    column_evaluate_many,
    column_jacobian_many,
    column_project_many,
    column_tangent_basis_many,
    random_system,
)


def _sparse_system(rng: random.Random, n, degrees):
    """A few monomials per equation, all free of one variable, some with
    zero coefficients of either sign."""
    polys = []
    for d in degrees:
        missing = rng.randrange(n + 1)
        exps = [J for J in all_exponents(d, n + 1) if J[missing] == 0]
        chosen = rng.sample(exps, min(len(exps), rng.randint(1, 3)))
        coeffs = [rng.choice([rng.gauss(0.0, 1.0), 0.0, -0.0, 1.0]) for _ in chosen]
        polys.append(Polynomial(d, [Monomial(J, c) for J, c in zip(chosen, coeffs)], n + 1))
    return PolynomialSystem(tuple(degrees), polys)


def _systems(rng: random.Random):
    """Dense and sparse systems, n = 1-3, with a first equation of each degree
    1-4: linear equations give degree-0 derivatives."""
    for n in (1, 2, 3):
        for d in (1, 2, 3, 4):
            degrees = [d] + [rng.randint(1, 4) for _ in range(n - 1)]
            yield random_system(rng, n, degrees)
            yield _sparse_system(rng, n, degrees)


def _cube_points(rng: random.Random, n):
    """The level-1 grid (coordinates 0, +-1/2, +-1) and a few random rows."""
    spec = sphere.CubeGridSpec(n=n, k=1)
    rows = sphere.grid_lattice(spec) * spec.eta
    return np.vstack([rows, [[rng.gauss(0.0, 1.0) for _ in range(n + 1)] for _ in range(8)]])


def _sphere_points(rng: random.Random, n):
    """Projected grid points, random points, and points at and within about
    1e-8 of +-e_last, where the Householder basis degenerates."""
    dim = n + 1
    e = np.eye(dim)[-1]
    near = []
    for pole in (e, -e):
        near.append(pole)
        for delta in (1e-12, 1e-9, 9e-9, 1e-8, 1.1e-8):
            v = np.array([rng.gauss(0.0, 1.0) for _ in range(dim)])
            near.append(pole + delta * v / np.linalg.norm(v))
    return np.vstack([sphere.project_many(_cube_points(rng, n)), near])


def _assert_bitwise(got, want):
    got = np.ascontiguousarray(got, dtype=np.float64)
    want = np.ascontiguousarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("bits", [None, 53, 24, 12, 3])
def test_point_kernel_matches_column_reference(bits):
    ar = Arithmetic(bits)
    rng = random.Random(1009)
    for f in _systems(rng):
        Y = _cube_points(rng, f.n)
        _assert_bitwise(sphere.project_many(Y, ar), column_project_many(Y, ar))
        X = _sphere_points(rng, f.n)
        _assert_bitwise(sphere.tangent_basis_many(X, ar), column_tangent_basis_many(X, ar))
        for got, want in zip(polysys.evaluate_many(f, X, ar), column_evaluate_many(f, X, ar)):
            _assert_bitwise(got, want)
        _assert_bitwise(polysys.jacobian_many(f, X, ar), column_jacobian_many(f, X, ar))
        M = column_compute_M_many(f, X, ar)
        _assert_bitwise(alpha.compute_M_many(f, X, ar), M)
        # One-row batches, including the poles at the end of X.
        for i in (0, len(X) // 2, len(X) - 1, len(X) - 6):
            _assert_bitwise(alpha.compute_M_many(f, X[i:i + 1], ar), M[i:i + 1])
            _assert_bitwise(sphere.project_many(Y[i % len(Y)], ar),
                            column_project_many(Y[i % len(Y)], ar))
