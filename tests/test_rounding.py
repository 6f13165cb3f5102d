import math
import random
from functools import reduce

import numpy as np
import pytest

from spherecount.rounding import (
    EXACT,
    Arithmetic,
    make_arithmetic,
    required_precision,
    round_value,
)


def test_arithmetic_validation():
    assert EXACT == Arithmetic() and EXACT.t is None
    assert Arithmetic(2).t == 2
    with pytest.raises(ValueError):
        Arithmetic(1)


def test_round_value_examples():
    assert round_value(3, 1.3) == 1.25
    assert round_value(3, 1.0 / 3.0) == 0.3125
    assert round_value(3, -1.3) == -1.25
    # powers of two are exact at any precision
    for e in range(-20, 20):
        assert round_value(3, 2.0**e) == 2.0**e
    assert round_value(3, 0.0) == 0.0


def test_round_value_identity_at_53_bits():
    rng = random.Random(5)
    for _ in range(200):
        x = rng.gauss(0.0, 1.0) * 10.0 ** rng.randint(-8, 8)
        assert round_value(53, x) == x


def test_round_value_nearest_even_tie():
    # 1.25 = (binary) 1.01 is a tie at two significand bits; even wins.
    assert round_value(2, 1.25) == 1.0
    assert round_value(2, 1.75) == 2.0


def test_round_value_idempotent():
    rng = random.Random(11)
    for _ in range(300):
        x = rng.gauss(0.0, 3.0)
        r = round_value(7, x)
        assert round_value(7, r) == r
        assert abs(r - x) <= abs(x) * 2.0**-7


def test_rounded_ops_match_round_of_host_op():
    ar = make_arithmetic("rounded", 9)
    rng = np.random.RandomState(3)
    a = rng.uniform(0.1, 4.0, size=100)
    b = rng.uniform(0.1, 4.0, size=100)
    ra, rb = ar.const(a), ar.const(b)
    assert np.array_equal(ra, round_value(9, a))
    assert np.array_equal(ar.add(ra, rb), round_value(9, ra + rb))
    assert np.array_equal(ar.sub(ra, rb), round_value(9, ra - rb))
    assert np.array_equal(ar.mul(ra, rb), round_value(9, ra * rb))
    assert np.array_equal(ar.div(ra, rb), round_value(9, ra / rb))
    assert np.array_equal(ar.sqrt(ra), round_value(9, np.sqrt(ra)))
    c = ar.const(rng.uniform(-1.0, 1.0, size=100))
    assert np.array_equal(ar.arccos(c), round_value(9, np.arccos(c)))


def test_sum_is_the_rounded_left_fold():
    ar = Arithmetic(9)
    rng = np.random.RandomState(13)
    terms = [ar.const(t) for t in rng.uniform(-4.0, 4.0, size=(6, 500))]
    left = terms[0]
    for t in terms[1:]:
        left = round_value(9, left + t)
    got = ar.sum(iter(terms))
    assert np.array_equal(got, left)
    # The order is visible: a right fold and numpy's sum differ from it.
    right = reduce(lambda acc, t: ar.add(t, acc), reversed(terms))
    assert not np.array_equal(right, left)
    assert not np.array_equal(ar.const(np.sum(terms, axis=0)), left)
    # One term is returned as it is; ties at 9 bits round to even, so
    # 1 + 2^-9 + 2^-9 is 1 left to right but 1 + 2^-8 right to left.
    assert ar.sum([terms[0]]) is terms[0]
    assert ar.sum([1.0, 2.0**-9, 2.0**-9]) == 1.0
    assert ar.sum([2.0**-9, 2.0**-9, 1.0]) == 1.0 + 2.0**-8


def test_exact_arithmetic_is_host():
    rng = np.random.RandomState(9)
    a, b = rng.standard_normal(50), rng.standard_normal(50)
    c = rng.uniform(-1.0, 1.0, 50)
    assert np.array_equal(EXACT.add(a, b), np.add(a, b))
    assert np.array_equal(EXACT.sub(a, b), np.subtract(a, b))
    assert np.array_equal(EXACT.mul(a, b), np.multiply(a, b))
    assert np.array_equal(EXACT.div(a, b), np.divide(a, b))
    assert np.array_equal(EXACT.sqrt(np.abs(a)), np.sqrt(np.abs(a)))
    assert np.array_equal(EXACT.arccos(c), np.arccos(c))
    assert EXACT.const(0.3) == 0.3 and EXACT.const(a) is a
    assert np.array_equal(EXACT.sum([a, b, c]), (a + b) + c)


def test_make_arithmetic():
    assert make_arithmetic("exact", None) is EXACT
    assert make_arithmetic("rounded", 24) == Arithmetic(24)
    with pytest.raises(ValueError):
        make_arithmetic("exact", 12)
    with pytest.raises(ValueError):
        make_arithmetic("rounded", None)
    with pytest.raises(ValueError):
        make_arithmetic("fast", 24)


def test_required_precision_value():
    # n=1, D=1, S=2, kappa=sqrt(2):
    # 1 / (1 * 1 * kappa^3 * (log2(2) + 1 * 1 * kappa^2)) = 1 / (2^{3/2} * 3)
    got = required_precision(1, 1, 2, math.sqrt(2.0))
    assert abs(got - 1.0 / (2.0**1.5 * 3.0)) < 1e-15


def test_required_precision_monotone_in_kappa():
    prev = required_precision(2, 3, 10, 1.0)
    for kappa in (2.0, 5.0, 20.0, 100.0):
        cur = required_precision(2, 3, 10, kappa)
        assert 0.0 < cur < prev
        prev = cur


def test_required_precision_constant_scaling():
    a = required_precision(2, 2, 6, 10.0, C=1.0)
    b = required_precision(2, 2, 6, 10.0, C=2.0)
    assert abs(a - 2.0 * b) < 1e-18
