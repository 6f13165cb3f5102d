#!/usr/bin/env python3
"""Quadratic convergence of sphere-constrained Newton, step by step.

Starting from a deliberately perturbed copy of a known zero ray, each
iteration solves the tangent-space Newton system and maps the step back to
the sphere along a geodesic.  The step lengths beta_k should square at
every iteration (beta_{k+1} ~ beta_k^2 up to a constant), which shows up as
the doubling of correct digits in the table below.  The envelope column is
the guaranteed bound (1/2)^(2^k - 1) * beta_0 for a certified start.
"""

import numpy as np

from spherecount import EXACT, newton_refine, parse_system
from spherecount.alpha import compute_M_many, sigma_min_many
from spherecount.engine import vertex_test
from spherecount.polysys import evaluate_many

# two crossing lines: zeros at slopes +-0.5
SYSTEM = {
    "n": 1,
    "degrees": [2],
    "polys": [[{"J": [0, 2], "c": 1.0}, {"J": [2, 0], "c": -0.25}]],
}


def main():
    f = parse_system(SYSTEM).normalized()
    print(__doc__)
    true_zero = np.array([2.0, 1.0]) / np.sqrt(5.0)
    # rotate away from the zero by 0.02 radians
    theta = 0.02
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    start = rot @ true_zero

    # The start point as a one-row batch through the grid's point kernel.
    X = start[None, :]
    _, f_sup = evaluate_many(f, X)
    smin = sigma_min_many(compute_M_many(f, X))
    certified = vertex_test(f, f_sup, smin, EXACT)[0]
    alpha_bar = f.n * f_sup[0] * f.D**1.5 / (2.0 * smin[0] ** 2)
    print(f"start point: ({start[0]:.6f}, {start[1]:.6f})")
    print(
        f"alpha_bar at start: {alpha_bar:.6f} "
        f"(grid vertex test: {'certified' if certified else 'uncertified'})\n"
    )

    # newton_refine takes a batch of start points; this one is a one-row batch.
    result = newton_refine(f, X)
    trace = result.beta_trace[0]
    b0 = trace[0]
    print(f"{'k':>3} {'beta_k':>14} {'envelope':>14} {'digits':>7}")
    print("-" * 42)
    for k, b in enumerate(trace):
        env = 0.5 ** (2**k - 1) * b0
        digits = "-" if b == 0 else f"{-np.log10(b):.1f}"
        print(f"{k:>3} {b:>14.6e} {env:>14.6e} {digits:>7}")

    z = result.point[0]
    print(f"\nrefined point: ({z[0]:.15f}, {z[1]:.15f})")
    print(f"true zero:     ({true_zero[0]:.15f}, {true_zero[1]:.15f})")
    print(f"distance to true zero: {np.linalg.norm(z - true_zero):.2e}")
    print(f"envelope satisfied: {result.envelope_ok[0]}")


if __name__ == "__main__":
    main()
