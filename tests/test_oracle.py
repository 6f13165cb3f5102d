import random
from fractions import Fraction

import numpy as np
import pytest

from spherecount import oracle
from spherecount.polysys import evaluate_many, parse_system, system_to_document


def test_sturm_examples():
    # t^2 - 1/4: two real roots
    assert oracle.count_distinct_real_roots([Fraction(-1, 4), 0, 1]) == 2
    # t^2 + 1: none
    assert oracle.count_distinct_real_roots([1, 0, 1]) == 0
    # t: one
    assert oracle.count_distinct_real_roots([0, 1]) == 1


def test_sturm_repeated_roots_counted_once():
    # (t - 1)^2 (t + 2)
    assert oracle.count_distinct_real_roots([2, -3, 0, 1]) == 2
    # (t - 1)^4
    assert oracle.count_distinct_real_roots([1, -4, 6, -4, 1]) == 1
    # t^3
    assert oracle.count_distinct_real_roots([0, 0, 0, 1]) == 1


def test_sturm_constant_and_degenerate():
    assert oracle.count_distinct_real_roots([5]) == 0
    assert oracle.count_distinct_real_roots([0, 0, 3]) == 1
    with pytest.raises(ValueError):
        oracle.count_distinct_real_roots([0, 0])


def _rational_bisection_count(coeffs):
    """Independent distinct-real-root count: exact bisection over monotone
    pieces of the squarefree part, recursing on the derivative for the
    critical points.  Shares nothing with the Sturm-chain implementation."""
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()

    def ev(p, x):
        acc = Fraction(0)
        for c in reversed(p):
            acc = acc * x + c
        return acc

    def deriv(p):
        return [c * i for i, c in enumerate(p)][1:]

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    def divmod_(a, b):
        a = a[:]
        q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
        while len(a) >= len(b) and trim(a):
            shift = len(a) - len(b)
            factor = a[-1] / b[-1]
            q[shift] = factor
            for i, c in enumerate(b):
                a[shift + i] -= factor * c
            trim(a)
        return q, a

    def gcd(a, b):
        a, b = trim(a[:]), trim(b[:])
        while b:
            _, r = divmod_(a, b)
            a, b = b, trim(r)
        return a

    g = gcd(coeffs, deriv(coeffs))
    sf = divmod_(coeffs, g)[0] if len(g) > 1 else coeffs[:]

    def real_roots(p):
        p = trim(p[:])
        if len(p) <= 1:
            return []
        if len(p) == 2:
            return [-p[0] / p[1]]
        crit = real_roots(deriv(p))
        bound = 1 + max(abs(c) for c in p[:-1]) / abs(p[-1])
        pts = sorted(set([-bound] + crit + [bound]))
        roots = []
        for lo, hi in zip(pts, pts[1:]):
            flo, fhi = ev(p, lo), ev(p, hi)
            if flo == 0 and lo not in roots:
                roots.append(lo)
            if flo * fhi < 0:
                for _ in range(4 * len(p)):
                    mid = (lo + hi) / 2
                    fm = ev(p, mid)
                    if fm == 0:
                        lo = hi = mid
                        break
                    if flo * fm < 0:
                        hi = mid
                    else:
                        lo, flo = mid, fm
                roots.append((lo + hi) / 2)
        if ev(p, pts[-1]) == 0:
            roots.append(pts[-1])
        return roots

    return len(real_roots(sf))


def test_sturm_vs_bisection_oracle():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(100):
        deg = int(rng.integers(1, 7))
        coeffs = [int(c) for c in rng.integers(-4, 5, deg + 1)]
        if coeffs[-1] == 0:
            coeffs[-1] = 1
        assert oracle.count_distinct_real_roots(
            coeffs
        ) == _rational_bisection_count(coeffs), coeffs
        checked += 1
    assert checked == 100


def test_binary_form_ray_count_examples():
    # X1^2 - X0^2/4 dehomogenizes to t^2 - 1/4: two zero ray pairs
    f = parse_system(
        {
            "n": 1,
            "degrees": [2],
            "polys": [[{"J": [0, 2], "c": 1.0}, {"J": [2, 0], "c": -0.25}]],
        }
    )
    assert oracle.binary_form_ray_count(f.polynomials[0]) == 2
    # circle: no real zeros
    g = parse_system(
        {
            "n": 1,
            "degrees": [2],
            "polys": [[{"J": [2, 0], "c": 1.0}, {"J": [0, 2], "c": 1.0}]],
        }
    )
    assert oracle.binary_form_ray_count(g.polynomials[0]) == 0
    # X0 * X1: root t = 0 plus the ray through (0, 1)
    h = parse_system(
        {"n": 1, "degrees": [2], "polys": [[{"J": [1, 1], "c": 1.0}]]}
    )
    assert oracle.binary_form_ray_count(h.polynomials[0]) == 2
    # f = X1: the single pair +-(1, 0)
    l = parse_system(
        {"n": 1, "degrees": [1], "polys": [[{"J": [0, 1], "c": 1.0}]]}
    )
    assert oracle.binary_form_ray_count(l.polynomials[0]) == 1
    # f = X0: only the pair through (0, 1)
    m = parse_system(
        {"n": 1, "degrees": [1], "polys": [[{"J": [1, 0], "c": 1.0}]]}
    )
    assert oracle.binary_form_ray_count(m.polynomials[0]) == 1


def test_random_binary_form_properties():
    rng = random.Random(7)
    for _ in range(50):
        deg = rng.randint(1, 6)
        poly = oracle.random_binary_form(rng, deg)
        assert poly.degree == deg
        count = oracle.binary_form_ray_count(poly)
        assert 0 <= count <= deg


def test_random_binary_system_reproducible():
    a, ca = oracle.random_binary_system(random.Random(99), 4)
    b, cb = oracle.random_binary_system(random.Random(99), 4)
    assert ca == cb
    assert system_to_document(a) == system_to_document(b)


def test_linear_product_known_counts():
    f, count, rays = oracle.make_linear_product_system((1, 1), seed=3)
    assert count == 1 and len(rays) == 1
    f, count, rays = oracle.make_linear_product_system((2, 1), seed=5)
    assert count == 2 and len(rays) == 2
    f, count, rays = oracle.make_linear_product_system((2, 2), seed=11)
    assert count <= 4 and count == len(rays)


def test_linear_product_rays_are_cross_products():
    """At n = 2 a ray is the integer cross product of one form from each
    polynomial; at degrees (1, 1) the polynomials are the forms."""
    for seed in range(50):
        f, count, rays = oracle.make_linear_product_system((1, 1), seed)
        a, b = [0, 0, 0], [0, 0, 0]
        for form, poly in zip((a, b), f.polynomials):
            for J, c in zip(poly.exponents.tolist(), poly.coefficients.tolist()):
                form[J.index(1)] = int(c)
        cross = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
        assert count == 1 and rays == [cross]


def test_linear_product_rays_are_exact_zeros():
    for degrees, seed in (((1, 1), 1), ((2, 1), 2), ((2, 2), 3), ((1, 1, 2), 4), ((2, 1, 1), 5)):
        f, count, rays = oracle.make_linear_product_system(degrees, seed=seed)
        fn = f.normalized()
        for ray in rays:
            z = np.array(ray, dtype=float)
            z /= np.linalg.norm(z)
            _, sup = evaluate_many(fn, z[None, :])
            assert sup[0] < 1e-14
            assert oracle.verify_zero(fn, z, 1e-8)
        # rays are pairwise non-parallel
        R = np.array(
            [np.array(r, float) / np.linalg.norm(r) for r in rays]
        )
        G = np.abs(R @ R.T)
        np.fill_diagonal(G, 0.0)
        assert G.size == 1 or np.max(G) < 1.0 - 1e-9


def test_linear_product_min_sigma_filter():
    from spherecount.alpha import compute_M_many, sigma_min_many

    f, count, rays = oracle.make_linear_product_system(
        (1, 1), seed=1, min_sigma=0.5
    )
    fn = f.normalized()
    for ray in rays:
        z = np.array(ray, float) / np.linalg.norm(ray)
        assert sigma_min_many(compute_M_many(fn, z[None, :]))[0] > 0.5


def test_verify_zero_examples():
    f = parse_system(
        {
            "n": 1,
            "degrees": [1],
            "polys": [[{"J": [0, 1], "c": 1.0}, {"J": [1, 0], "c": -0.5}]],
        }
    ).normalized()
    z = np.array([1.0, 0.5]) / np.sqrt(1.25)
    assert oracle.verify_zero(f, z, 1e-10)
    assert not oracle.verify_zero(f, np.array([1.0, 0.0]), 1e-10)


def test_verify_zero_exact_with_zero_tolerance():
    f = parse_system(
        {"n": 1, "degrees": [1], "polys": [[{"J": [1, 0], "c": 1.0}]]}
    ).normalized()
    assert oracle.verify_zero(f, np.array([0.0, 1.0]), 0.0)


def test_verify_zero_rejects_singular_point():
    # double line: zero residual at (1, 0) but the tangent Jacobian vanishes
    f = parse_system(
        {"n": 1, "degrees": [2], "polys": [[{"J": [0, 2], "c": 1.0}]]}
    ).normalized()
    assert not oracle.verify_zero(f, np.array([1.0, 0.0]), 1e-8)
