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

    One path for scalars and arrays: a float64 copy of x, at least 1-d,
    becomes ldexp(rint(ldexp(m, t)), e - t) with (m, e) = frexp(x), in
    place; for t >= 53 that is x itself (m has 53 bits).  A scalar or 0-d
    array gives a float.  Zero, infinities and NaN pass through; a value
    that rounds past the largest double becomes an infinity.
    """
    out = np.array(x, dtype=np.float64, ndmin=1)
    if t < 53:
        m, e = np.frexp(out)
        np.ldexp(m, t, out=m)
        np.rint(m, out=m)
        e -= t
        np.ldexp(m, e, out=out)
    return out if np.ndim(x) else float(out[0])


@dataclass(frozen=True)
class Arithmetic:
    """Host arithmetic with every result rounded to t significand bits.

    t = None is host precision: no operation rounds.  sqrt and arccos are
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
        # round_value is looked up at each call, so a wrapper installed on
        # the module attribute sees every rounding.
        return x if self.t is None else round_value(self.t, x)

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


def required_precision(n: int, D: int, S: int, kappa: float, C: float = 1.0) -> float:
    """Advisory bound u_max on the round-off unit for a correct count.

    u_max = 1 / (C * D^2 * n^(5/2) * kappa^3 * (log2 S + n^(3/2) D^2 kappa^2)).
    The multiplicative constant C is not fixed by the theory; C = 1 is a
    convention and the precision-sweep measures the empirical breakdown.
    """
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    if C <= 0:
        raise ValueError("C must be positive")
    inner = math.log2(max(S, 1)) + n ** 1.5 * D**2 * kappa**2
    return 1.0 / (C * D**2 * n**2.5 * kappa**3 * inner)
