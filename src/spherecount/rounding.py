"""Emulated floating-point arithmetic with a configurable round-off unit.

The emulation rounds only the significand to ``t`` bits (round to nearest,
ties to even); the exponent range is the host's.  With ``u = 2**-t`` every
rounded result satisfies ``r(x) = x (1 + delta)`` with ``|delta| <= u``.

`Arithmetic(t)` is the one arithmetic provider: each of its operations is
the host operation followed by one rounding to ``t`` bits, and
``Arithmetic()`` (`EXACT`) leaves the host result as it is, so the whole
counting pipeline runs the same code at host precision and under emulated
rounding.  `Arithmetic.sum` is the one place the summation order is
written; the round-off bounds depend on it.  All methods accept scalars or
numpy arrays and broadcast elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np


def round_value(t: int, x):
    """Round the significand of x to t bits, nearest-even ties.

    The reference is the frexp formula: with (m, e) = frexp(x), m in
    [1/2, 1), the result is ldexp(rint(ldexp(m, t)), e - t).  m has 53
    bits, so for t >= 53 that is x itself.  Zero, infinities and NaN pass
    through, and a value that rounds past the largest double becomes an
    infinity.  A float scalar, Python or numpy, or a 0-d array gives a
    float; an array gives a new float64 array of its shape.

    * Arrays: Veltkamp's split (Dekker, "A floating-point technique for
      extending the available precision", Numer. Math. 18, 1971).  With
      s = 53 - t and c = x (2^s + 1), computed in doubles, the split's high
      part c - (c - x) is x rounded to 53 - s = t bits: three operations in
      place of frexp, two ldexp and rint.  It holds while c does not
      overflow, which |x| < 1e150 ensures for every t >= 2 (2^51 1e150 is
      far below the largest double).  One `np.vdot(x, x) < 1e300` guard
      checks that for the whole array; it fails for any |x| >= 1e150, and
      for an infinity or NaN, whose square sum is inf or NaN, and the array
      then takes the frexp formula.  Ties go to even and subnormal inputs
      round as in the frexp formula: `tests/rounding_sweep.py` checks every
      t = 2..52 on exact ties over the whole exponent range, on subnormals
      and on the band 2^-1074..2^-960, bit for bit.
    * Float scalars: the frexp formula in Python's math module, exact step
      by step.  math.frexp splits x exactly; m 2^t is exact, a power of two
      times a 53-bit significand below 2^53; round() rounds a float half to
      even, as rint does; its integer, at most 2^t, converts to a double
      exactly, and math.ldexp scales it by 2^(e - t), rounding once where
      the result is subnormal, as np.ldexp does.  math.ldexp raises on
      overflow where np.ldexp gives an infinity, which is returned instead.
    """
    if isinstance(x, float):
        if t >= 53 or x == 0.0 or not math.isfinite(x):
            return float(x)
        m, e = math.frexp(x)
        try:
            return math.ldexp(round(m * 2.0**t), e - t)
        except OverflowError:
            return math.copysign(math.inf, x)
    scalar = np.ndim(x) == 0
    x = np.array(x, dtype=np.float64, ndmin=1) if scalar else np.asarray(x, dtype=np.float64)
    if t >= 53:
        out = x.copy()
    elif np.vdot(x, x) < 1e300:
        c = x * (2.0 ** (53 - t) + 1.0)
        out = c - x
        np.subtract(c, out, out=out)
    else:
        out, e = np.frexp(x)
        np.ldexp(out, t, out=out)
        np.rint(out, out=out)
        e -= t
        with np.errstate(over="ignore"):  # past the largest double: an infinity
            np.ldexp(out, e, out=out)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class Arithmetic:
    """Host arithmetic with every result rounded to t significand bits.

    t = None is host precision: no operation rounds, nor does any from
    t = 53 on, where the rounding is the identity.  sqrt and arccos are
    computed at host precision and rounded once, which satisfies the
    op~(x) = op(x)(1 + delta) contract.
    """

    t: int | None = None

    def __post_init__(self):
        if self.t is not None and self.t < 2:
            raise ValueError(f"significand bit count must be >= 2, got {self.t}")

    @property
    def unit_roundoff(self) -> float:
        """u' with |op~(x) - op(x)| <= u' |op(x)| for every operation.

        Each operation is the host operation, rounded to 53 bits, then
        rounded to t bits, so it errs by at most 2^-t (1 + 2^-53) + 2^-53
        <= 2^-t + 2^-52 relative.  At host precision and from t = 53 on the
        second rounding is the identity and u' = 2^-53.
        """
        if self.t is None or self.t >= 53:
            return 2.0**-53
        return 2.0**-self.t + 2.0**-52

    def _round(self, x):
        # From t = 53 on round_value is the identity, so it is skipped as at
        # host precision.  It is looked up at each call, so a wrapper
        # installed on the module attribute sees every rounding.
        return x if self.t is None or self.t >= 53 else round_value(self.t, x)

    const = _round

    def add(self, a, b):
        return self._round(np.add(a, b))

    def sub(self, a, b):
        return self._round(np.subtract(a, b))

    def mul(self, a, b):
        return self._round(np.multiply(a, b))

    def div(self, a, b):
        return self._round(np.divide(a, b))

    def sqrt(self, a):
        return self._round(np.sqrt(a))

    def arccos(self, a):
        return self._round(np.arccos(a))

    def sum(self, terms):
        """The left fold ((t0 + t1) + t2) + ... of a nonempty iterable, each
        addition rounded."""
        return reduce(self.add, terms)


EXACT = Arithmetic()


def make_arithmetic(mode: str, bits: int | None = None) -> Arithmetic:
    """Build the provider for a mode name: 'exact' or 'rounded'."""
    if mode == "exact":
        if bits is not None:
            raise ValueError("exact mode runs at host precision and takes no bit count")
        return EXACT
    if mode == "rounded":
        if bits is None:
            raise ValueError("rounded mode needs a significand bit count")
        return Arithmetic(bits)
    raise ValueError(f"unknown mode {mode!r}")


def required_precision(n: int, D: int, S: int, kappa: float) -> float:
    """Advisory bound u_max on the round-off unit for a correct count.

    u_max = 1 / (C * D^2 * n^(5/2) * kappa^3 * (log2 S + n^(3/2) D^2 kappa^2))
    with C = 1.  The multiplicative constant C is not fixed by the theory;
    C = 1 is a convention and the precision-sweep measures the empirical
    breakdown.
    """
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    inner = math.log2(max(S, 1)) + n ** 1.5 * D**2 * kappa**2
    return 1.0 / (D**2 * n**2.5 * kappa**3 * inner)
