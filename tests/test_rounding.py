import math
import random
import sys
import warnings
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

from util import frexp_round_value


def test_arithmetic_validation():
    assert EXACT == Arithmetic() and EXACT.t is None
    assert Arithmetic(2).t == 2
    with pytest.raises(ValueError):
        Arithmetic(1)


def test_unit_roundoff():
    """2^-53 where the second rounding is the identity, else the double
    rounding bound 2^-t + 2^-52."""
    assert EXACT.unit_roundoff == 2.0**-53
    assert Arithmetic(53).unit_roundoff == 2.0**-53
    assert Arithmetic(60).unit_roundoff == 2.0**-53
    assert Arithmetic(24).unit_roundoff == 2.0**-24 + 2.0**-52
    assert Arithmetic(2).unit_roundoff == 0.25 + 2.0**-52


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


KERNEL_BITS = (2, 12, 24, 52, 53, 60)


def _kernel_inputs():
    """Groups of values, each rounded as one array and value by value.

    Ties at each width t = 2..52, signed zeros, subnormals, a seeded sample
    of the band 2^-1074..2^-960, infinities, NaN, the largest double,
    values just below and above the 1e150 guard of `round_value`'s split,
    random values over the whole exponent range, and arrays of small values
    that hold one value at or past the guard, which sends the whole array
    to the frexp formula."""
    big, tiny = sys.float_info.max, sys.float_info.min
    special = [0.0, -0.0, 5e-324, -5e-324, tiny, -tiny, 1.5e-310, -7.7e-315,
               math.inf, -math.inf, math.nan, big, -big, 1.0, -1.3, 1.0 / 3.0]
    # (N + 1/2) 2^-t with 2^(t-1) <= N < 2^t is a tie at t bits; N odd
    # rounds up, N even down.
    ties = [s * (2.0 ** (t - 1) + j + 0.5) * 2.0**-t
            for t in range(2, 53) for j in (1, 2) for s in (1.0, -1.0)]
    guard = [np.nextafter(1e150, 0.0), 1e150, np.nextafter(1e150, math.inf)]
    guard += [-g for g in guard]
    rng = np.random.default_rng(17)
    normal = rng.standard_normal(60) * 10.0 ** rng.integers(-300, 300, 60)
    subnormal = rng.integers(1, 2**52, 40) * 5e-324
    band = rng.choice([-1.0, 1.0], 40) * np.ldexp(rng.uniform(0.5, 1.0, 40),
                                                   rng.integers(-1073, -959, 40))
    small = rng.standard_normal(8)
    mixed = [np.append(small, g) for g in (1e150, -3e200, guard[0], big)]
    return [np.array(group, dtype=np.float64)
            for group in (special, ties, guard, normal, subnormal, band, *mixed)]


def _recorded(fn, *args):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, {str(w.message) for w in seen}


def _same_bits(a, b):
    return np.array_equal(np.asarray(a, dtype=np.float64).view(np.int64),
                          np.asarray(b, dtype=np.float64).view(np.int64))


@pytest.mark.parametrize("t", KERNEL_BITS)
def test_round_value_matches_frexp_reference(t):
    """Bit for bit the frexp formula, for every input kind, as scalars and
    as arrays on either side of the split's guard, and no warning the
    formula does not give."""
    groups = _kernel_inputs()
    values = np.concatenate(groups)
    for form in (float, np.float64, np.array):
        for v in values:
            x = form(v)
            got, new = _recorded(round_value, t, x)
            ref, old = _recorded(frexp_round_value, t, x)
            assert type(got) is float and _same_bits(got, ref), (form, v)
            assert new <= old
    for group in [*groups, values, values.reshape(-1, 2)]:
        got, new = _recorded(round_value, t, group)
        ref, old = _recorded(frexp_round_value, t, group)
        assert got.dtype == np.float64 and got.shape == group.shape
        assert _same_bits(got, ref) and new <= old, group
    # The input is not written.
    assert all(_same_bits(a, b) for a, b in zip(groups, _kernel_inputs()))


@pytest.mark.parametrize("t", [2, 12, 24, 52])
def test_round_value_overflow_is_silent_in_arrays(t):
    """An array holding +-max, which rounds past the largest double, gives
    +-inf without a warning, as a float does."""
    big = sys.float_info.max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (np.array([big, -big]), np.array([[1.0, big], [-0.5, -big]])):
            at = np.abs(x) == big
            assert np.array_equal(round_value(t, x)[at], np.sign(x[at]) * math.inf)
        assert round_value(t, big) == math.inf and round_value(t, -big) == -math.inf


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
