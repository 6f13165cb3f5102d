"""Symmetries of the counting loop, as hypothesis properties.

The cube grid maps onto itself under coordinate sign flips and coordinate
permutations, and the zero set does not depend on the order of the
equations, so exclusion pruning must keep these symmetries.  The systems
are small: binary forms of degree <= 3 and pairs of linear forms in three
variables, capped at a few levels, with a handful of derandomized examples.
Sign flips are also run in rounded mode: rounding to nearest is symmetric
about zero, but see `test_sign_flip_keeps_count_at_12_bits`.

Two metamorphic properties move the zeros off the grid's symmetries: an
orthogonal change of variables x -> Q x maps the zero rays one-to-one, and
scaling an equation by a nonzero factor leaves its zero set alone.  They
run on small oracle systems, whose exact counts the results must match;
the orthogonal change also at 53 and 24 bits.
"""

import random

import pytest

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from spherecount import engine, oracle
from spherecount.polysys import Monomial, Polynomial, PolynomialSystem

from util import all_exponents, compose_orthogonal, is_squarefree, random_orthogonal

MAX_LEVELS = 9
# The (2, 1) oracle systems halt at k = 10 or 11, a little later once their
# zeros leave the grid's axes or an equation is rescaled.
ORACLE_LEVELS = 13
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


@st.composite
def oracle_systems(draw):
    """(system, exact count): a squarefree binary form of degree <= 3, or a
    product of linear forms of degrees (1, 1) or (2, 1) in three variables."""
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**16)))
        f, count = oracle.random_binary_system(rng, draw(st.sampled_from([3, 2, 1])))
        assume(is_squarefree(f.polynomials[0]))
        return f, count
    # (degrees, coeff_range, min_sigma) of the multivariate suite in conftest.py
    degrees, coeff_range, min_sigma = draw(
        st.sampled_from([((1, 1), 1, 0.90), ((2, 1), 2, 0.62)])
    )
    f, count, _ = oracle.make_linear_product_system(
        degrees, draw(st.integers(0, 3)), coeff_range=coeff_range, min_sigma=min_sigma,
        max_tries=5000,
    )
    return f, count


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


def _count(f, bits=None, levels=MAX_LEVELS):
    mode = "exact" if bits is None else "rounded"
    return engine.count_roots(f, mode=mode, bits=bits, max_iterations=levels)


def _flip(f, j):
    """The system x -> f(x with x_j negated): c -> c (-1)^J_j."""
    return _transform(f, lambda J: J, lambda J, c: -c if J[j] % 2 else c)


def _assert_sign_flip_keeps_every_report(f, j, bits=None):
    """x_j -> -x_j maps the grid onto itself and every residual bit for bit,
    so the reports, pruning included, must not change.  sigma_min is kept
    only up to rounding (see `test_sign_flip_keeps_count_at_12_bits`), which
    has not moved a vertex in these examples down to 24 bits."""
    a, b = _count(f, bits), _count(_flip(f, j), bits)
    assert a.iterations == b.iterations
    assert (a.status, a.count) == (b.status, b.count)


@PROPERTY
@given(small_systems(), st.data())
def test_sign_flip_keeps_every_report(f, data):
    _assert_sign_flip_keeps_every_report(f, data.draw(st.integers(0, f.n)))


@pytest.mark.parametrize("bits", [53, 24])
@PROPERTY
@given(small_systems(), st.data())
def test_sign_flip_keeps_every_report_rounded(bits, f, data):
    _assert_sign_flip_keeps_every_report(f, data.draw(st.integers(0, f.n)), bits)


@PROPERTY
@given(small_systems(), st.data())
def test_sign_flip_keeps_count_at_12_bits(f, data):
    """Only the count is kept at 12 bits.  The engine evaluates each grid
    point's canonical representative, and the flip of the first coordinate
    can turn it into the antipode of the image (the flip of the last
    coordinate moves the Householder pole e_last).  The tangent basis there
    is another one, so sigma_min differs by rounding, and at 12 bits that
    moves some vertices near the alpha threshold: f = (3 X1 - 2 X0,
    2 X2 - 3 X1 - 2 X0) has 14 vertices at k = 7, and 16 once X0 or X2 is
    flipped."""
    a, b = _count(f, 12), _count(_flip(f, data.draw(st.integers(0, f.n))), 12)
    if a.status == b.status == "converged":
        assert a.count == b.count


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


def _assert_oracle_count(count, *systems, bits=None):
    for f in systems:
        result = _count(f, bits, ORACLE_LEVELS)
        if result.status == "converged":
            assert result.count == count


@PROPERTY
@given(oracle_systems(), st.integers(0, 2**32 - 1))
def test_orthogonal_change_of_variables_keeps_count(case, seed):
    f, count = case
    Q = random_orthogonal(random.Random(seed), f.n_vars)
    _assert_oracle_count(count, f, compose_orthogonal(f, Q))


@pytest.mark.parametrize("bits", [53, 24])
@PROPERTY
@given(oracle_systems(), st.integers(0, 2**32 - 1))
def test_orthogonal_change_of_variables_keeps_count_rounded(bits, case, seed):
    f, count = case
    Q = random_orthogonal(random.Random(seed), f.n_vars)
    _assert_oracle_count(count, f, compose_orthogonal(f, Q), bits=bits)


# Nonzero factors of magnitude 1/2 to 2: powers of two, whose normalization
# is exact, and arbitrary floats.  Their ratio bounds how much one equation
# can weaken the others' conditioning, and so the levels needed.
FACTORS = st.builds(
    lambda sign, size: sign * size,
    st.sampled_from([1.0, -1.0]),
    st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.5, 2.0)),
)


@PROPERTY
@given(oracle_systems(), st.data())
def test_equation_scaling_keeps_count(case, data):
    f, count = case
    scales = [data.draw(FACTORS) for _ in range(f.n)]
    g = PolynomialSystem(
        f.degrees,
        [
            Polynomial(p.degree,
                       [Monomial(J, s * c)
                        for J, c in zip(p.exponents.tolist(), p.coefficients.tolist())],
                       f.n_vars)
            for p, s in zip(f.polynomials, scales)
        ],
    )
    _assert_oracle_count(count, f, g)
