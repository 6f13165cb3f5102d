"""`rounding.round_value` against the frexp formula, bit for bit, at every
t = 2..52.

    PYTHONPATH=src python tests/rounding_sweep.py

`round_value` rounds an array by Veltkamp's split when its guard admits the
array, and by the frexp formula otherwise (see its docstring).  This script
compares it with the frexp formula (`util.frexp_round_value`) on, at each t:

* exact ties (N + 1/2) 2^(e-t), N in [2^(t-1), 2^t), at every binary
  exponent e whose tie bit is representable, 22 seeded values of N with
  random signs per exponent, one array per exponent;
* 2^20 seeded random subnormals;
* 2^19 seeded random values of the band 2^-1074..2^-960;

about 82.5M cases in all, and on 200,000 seeded (t, bit pattern) pairs
rounded as float scalars, which take `round_value`'s scalar path (a NaN
matches any NaN there: numpy may quiet a signalling one).  Arrays are
rounded 2^16 values at a time.  It prints the count of each kind and how
many took the split, and exits 1 on any mismatch, after printing the
first ones.  It takes about 15 s and is not collected by pytest (the name
does not start with test_).
"""

from __future__ import annotations

import math
import sys

import numpy as np

from spherecount.rounding import round_value

from util import frexp_round_value

CHUNK = 1 << 16
SUBNORMALS = 1 << 20
BAND = 1 << 19
TIES_PER_EXPONENT = 22
SCALARS = 200_000


def ties(rng: np.random.Generator, t: int):
    """One array of exact ties at t bits per binary exponent e: values in
    [2^(e-1), 2^e) whose last bit, 2^(e-t-1), is at least 2^-1074."""
    for e in range(t - 1073, 1025):
        N = rng.integers(2 ** (t - 1), 2**t, TIES_PER_EXPONENT).astype(np.float64)
        sign = rng.choice([-1.0, 1.0], TIES_PER_EXPONENT)
        yield sign * np.ldexp(N + 0.5, e - t)


def bit_patterns(rng: np.random.Generator, count: int, top_exponent: int):
    """count doubles of random sign and significand whose biased exponent
    field is uniform in [0, top_exponent], in arrays of CHUNK."""
    for lo in range(0, count, CHUNK):
        m = min(CHUNK, count - lo)
        bits = rng.integers(0, 2**52, m, dtype=np.uint64)
        bits |= rng.integers(0, top_exponent + 1, m, dtype=np.uint64) << np.uint64(52)
        bits |= rng.integers(0, 2, m, dtype=np.uint64) << np.uint64(63)
        yield bits.view(np.float64)


def mismatches(t: int, x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        got, want = round_value(t, x), frexp_round_value(t, x)
    return x[got.view(np.int64) != want.view(np.int64)]


def main() -> int:
    rng = np.random.default_rng(20260)
    cases = {"ties": 0, "subnormals": 0, "band": 0}
    split, failures = 0, []
    for t in range(2, 53):
        kinds = (("ties", ties(rng, t)),
                 # Biased exponent 0: the subnormals (and zero, rarely).
                 ("subnormals", bit_patterns(rng, SUBNORMALS, 0)),
                 # 2^-1074..2^-960: biased exponents 0 to 63.
                 ("band", bit_patterns(rng, BAND, 63)))
        for kind, arrays in kinds:
            for x in arrays:
                cases[kind] += len(x)
                split += len(x) if np.vdot(x, x) < 1e300 else 0
                failures += [(t, float(v)) for v in mismatches(t, x)[:5]]
    scalar_failures = []
    for t, bits in zip(rng.integers(2, 53, SCALARS),
                       rng.integers(0, 2**64, SCALARS, dtype=np.uint64)):
        x = float(bits.view(np.float64))
        with np.errstate(over="ignore", invalid="ignore"):
            want = frexp_round_value(int(t), x)
        got = round_value(int(t), x)
        if math.isnan(x):
            # NaN passes through either way; numpy may quiet a signalling one.
            same = math.isnan(got) and math.isnan(want)
        else:
            same = np.float64(got).view(np.int64) == np.float64(want).view(np.int64)
        if not same:
            scalar_failures.append((int(t), x))
    total = sum(cases.values())
    print(" ".join(f"{kind} {count:,}" for kind, count in cases.items())
          + f"; {total:,} array cases, {split:,} of them through the split; "
          f"{SCALARS:,} scalars")
    for t, x in (failures + scalar_failures)[:20]:
        print(f"MISMATCH t={t} x={x!r} ({np.float64(x).view(np.int64):#x})")
    if failures or scalar_failures:
        print(f"{len(failures)} array and {len(scalar_failures)} scalar mismatches")
        return 1
    print("no mismatch")
    return 0


if __name__ == "__main__":
    sys.exit(main())
