#!/usr/bin/env python3
"""Re-count the same system at shrinking emulated precisions until it breaks.

Every arithmetic operation in the counting loop can be routed through a
round-to-nearest emulation with t significand bits.  At t = 53 the emulation
is host double precision and must reproduce the exact-mode verdict.  As t
drops, the certification and exclusion tests lose margin: first the loop
needs deeper refinement levels to halt, then it stops halting or (at very
low t) certifies the wrong vertices.  The a-priori precision bound derived
from the condition estimate says how small the unit roundoff must be for
the verdict to be trustworthy; the sweep shows where reality gives out.
"""

import math

from spherecount import count_roots, parse_system, required_precision

# (X1 - 0.5 X0)(X1 + 0.5 X0)(X1 - 2 X0): three ray pairs, modest condition
SYSTEM = {
    "n": 1,
    "degrees": [3],
    "polys": [
        [
            {"J": [0, 3], "c": 1.0},
            {"J": [1, 2], "c": -2.0},
            {"J": [2, 1], "c": -0.25},
            {"J": [3, 0], "c": 0.5},
        ]
    ],
}

BITS = (53, 24, 17, 12, 10, 8, 6, 5, 4, 3)


def main():
    f = parse_system(SYSTEM)
    print(__doc__)
    exact = count_roots(f)
    kappa = exact.kappa_lower_bound
    rp = required_precision(f.n, f.D, f.S, kappa)
    print(f"exact-mode count: {exact.count} ray pairs "
          f"(halted at level {exact.iterations[-1].k})")
    print(f"condition lower bound kappa_hat = {kappa:.4f}")
    print(f"a-priori sufficient unit roundoff: u <= {rp:.3e} "
          f"(t >= {math.ceil(-math.log2(rp))} bits)\n")

    header = f"{'bits':>5} {'u':>12} {'levels':>7} {'count':>6} {'status':>22} {'ok':>4}"
    print(header)
    print("-" * len(header))
    for t in BITS:
        r = count_roots(f, bits=t, max_iterations=16)
        count = "-" if r.count is None else str(r.count)
        ok = r.status == "converged" and r.count == exact.count
        print(
            f"{t:>5} {math.ldexp(1.0, -t):>12.3e} {len(r.iterations):>7} "
            f"{count:>6} {r.status:>22} {'yes' if ok else 'NO':>4}"
        )
    print(
        "\nNote how the emulated runs need more refinement levels than the\n"
        "exact run well before they fail outright: rounding inflates the\n"
        "certification threshold, so the mesh must shrink further to clear it."
    )


if __name__ == "__main__":
    main()
