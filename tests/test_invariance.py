"""Symmetries of the counting loop, as hypothesis properties (exact mode).

The cube grid maps onto itself under coordinate sign flips and coordinate
permutations, and the zero set does not depend on the order of the
equations, so exclusion pruning must keep these symmetries.  The systems
are small: binary forms of degree <= 3 and pairs of linear forms in three
variables, capped at a few levels, with a handful of derandomized examples.
"""

import random

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from spherecount import engine
from spherecount.polysys import Monomial, Polynomial, PolynomialSystem

from util import all_exponents

MAX_LEVELS = 9
PROPERTY = settings(
    max_examples=6,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def small_systems(draw):
    n = draw(st.sampled_from([1, 2]))
    degrees = [draw(st.integers(1, 3))] if n == 1 else [1, 1]
    polys = []
    for d in degrees:
        exps = all_exponents(d, n + 1)
        cs = draw(st.lists(st.integers(-3, 3), min_size=len(exps), max_size=len(exps)))
        assume(any(cs))
        polys.append(Polynomial(d, [Monomial(e, float(c)) for e, c in zip(exps, cs) if c], n + 1))
    return PolynomialSystem(tuple(degrees), polys)


def _transform(f, exponent_map, coefficient_map=lambda J, c: c, order=None):
    polys = [
        Polynomial(
            p.degree,
            [Monomial(exponent_map(J), coefficient_map(J, c))
             for J, c in zip(p.exponents.tolist(), p.coefficients.tolist())],
            f.n_vars,
        )
        for p in f.polynomials
    ]
    order = range(f.n) if order is None else order
    return PolynomialSystem([f.degrees[i] for i in order], [polys[i] for i in order])


def _count(f):
    return engine.count_roots(f, max_iterations=MAX_LEVELS)


@PROPERTY
@given(small_systems(), st.data())
def test_sign_flip_keeps_every_report(f, data):
    """x_j -> -x_j maps the grid onto itself and every residual bit for bit
    (c -> c (-1)^J_j), so the reports, pruning included, must not change."""
    j = data.draw(st.integers(0, f.n))
    g = _transform(f, lambda J: J, lambda J, c: -c if J[j] % 2 else c)
    a, b = _count(f), _count(g)
    assert a.iterations == b.iterations
    assert (a.status, a.count) == (b.status, b.count)


@PROPERTY
@given(small_systems(), st.data())
def test_coordinate_permutation_keeps_count(f, data):
    perm = data.draw(st.permutations(range(f.n_vars)))
    g = _transform(f, lambda J: [J[perm[k]] for k in range(len(J))])
    a, b = _count(f), _count(g)
    if a.status == b.status == "converged":
        assert a.count == b.count


@PROPERTY
@given(small_systems(), st.randoms(use_true_random=False))
def test_equation_permutation_keeps_count(f, rnd: random.Random):
    order = list(range(f.n))
    rnd.shuffle(order)
    g = _transform(f, lambda J: J, order=order)
    a, b = _count(f), _count(g)
    if a.status == b.status == "converged":
        assert a.count == b.count
