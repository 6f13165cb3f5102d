"""Session fixtures: the two oracle suites used across engine and CLI tests.

The univariate suite is 20 random rational binary forms (degree <= 6),
filtered to squarefree forms with grid condition estimate <= 1e3.  The
multivariate suite is 10 products of integer linear forms with exactly
known ray counts, seed-filtered for conditioning so every run stays within
the desk-scale grid budget.
"""

import random
from fractions import Fraction

import pytest

from spherecount import engine, oracle, sphere

UNIVARIATE_RNG_SEED = 20260826
UNIVARIATE_SIZE = 20
UNIVARIATE_MAX_DEGREE = 6
UNIVARIATE_KAPPA_CAP = 1e3

# (degrees, coeff_range, min_sigma, seeds)
MULTIVARIATE_SPEC = [
    ((1, 1), 1, 0.90, (0, 1, 2, 3)),
    ((2, 1), 2, 0.62, (0, 1, 2, 3)),
    ((2, 2), 1, 0.60, (0, 1)),
]
# (1, 1) members are well-conditioned enough for rounded-mode runs to halt
# inside the default grid cap; higher degrees are exact-mode only (the
# rounded halting mesh is ~4x finer and exceeds the cap -- see notes).
ROUNDED_FEASIBLE_DEGREES = {(1, 1)}


def dense_rational(poly):
    dense = [Fraction(0)] * (poly.degree + 1)
    for e, c in zip(poly.exponents, poly.coefficients):
        dense[int(e[1])] += Fraction(c)
    return dense


def is_squarefree(poly):
    p = oracle._poly_trim(dense_rational(poly))
    return len(oracle._squarefree_part(p)) == len(p)


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance verdict lines where capture cannot swallow them."""
    try:
        from test_acceptance import CRITERION_LINES
    except ImportError:
        return
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(CRITERION_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def univariate_suite():
    rng = random.Random(UNIVARIATE_RNG_SEED)
    suite = []
    while len(suite) < UNIVARIATE_SIZE:
        degree = rng.randint(1, UNIVARIATE_MAX_DEGREE)
        f, count = oracle.random_binary_system(rng, degree)
        if not is_squarefree(f.polynomials[0]):
            continue
        kappa_hat = engine.estimate_kappa(f, sphere.CubeGridSpec(n=1, k=8))
        if kappa_hat > UNIVARIATE_KAPPA_CAP:
            continue
        suite.append({"system": f, "count": count, "kappa_hat": kappa_hat})
    return suite


@pytest.fixture(scope="session")
def multivariate_suite():
    suite = []
    for degrees, coeff_range, min_sigma, seeds in MULTIVARIATE_SPEC:
        for seed in seeds:
            f, count, rays = oracle.make_linear_product_system(
                degrees, seed, coeff_range=coeff_range, min_sigma=min_sigma,
                max_tries=5000,
            )
            suite.append(
                {
                    "system": f,
                    "count": count,
                    "rays": rays,
                    "degrees": degrees,
                    "seed": seed,
                    "rounded_feasible": degrees in ROUNDED_FEASIBLE_DEGREES,
                }
            )
    assert len(suite) == 10
    return suite
