import math
import random

import numpy as np
import pytest

from spherecount.alpha import (
    SingularJacobianError,
    _bisect,
    compute_M,
    newton_refine,
    newton_step,
    point_data,
    psi,
    sigma_min,
    sigma_min_many,
    theory_constants,
)
from spherecount.polysys import parse_system
from spherecount.sphere import distance

from util import random_sphere_point, random_system, svd_sigma_min_many

EPS = np.finfo(float).eps


def jacobi_sigma_min(A, sweeps=60):
    """Smallest singular value by one-sided Jacobi rotations (test oracle)."""
    U = np.array(A, dtype=float, copy=True).T  # columns = rows of A
    m, n = U.shape
    for _ in range(sweeps):
        off = 0.0
        for p in range(n):
            for q in range(p + 1, n):
                apq = U[:, p] @ U[:, q]
                app = U[:, p] @ U[:, p]
                aqq = U[:, q] @ U[:, q]
                off = max(off, abs(apq))
                if abs(apq) < 1e-15 * math.sqrt(app * aqq + 1e-300):
                    continue
                tau = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                Up, Uq = U[:, p].copy(), U[:, q].copy()
                U[:, p] = c * Up - s * Uq
                U[:, q] = s * Up + c * Uq
        if off < 1e-15:
            break
    return min(np.linalg.norm(U[:, j]) for j in range(n))


def test_constants_match_published_values():
    c = theory_constants()
    assert abs(c.sigma - 1.632843018) < 1e-8
    assert abs(c.alpha_star - 0.0384629388) < 1e-8
    assert abs(c.nu_star - 0.0628039411) < 1e-8
    assert abs(c.alpha_0 - 0.130716944) < 1e-8
    assert abs(c.s_0 - 0.103621842) < 1e-8
    assert abs(c.alpha_bullet - 0.028268) < 1e-5
    assert abs(c.nu_bullet - 0.046158) < 1e-5


def test_constants_satisfy_defining_equations():
    c = theory_constants()
    # sigma = sum 2^(1 - 2^k)
    s = sum(2.0 ** (1 - 2**k) for k in range(60))
    assert abs(c.sigma - s) < 1e-15
    root = (3.0 - math.sqrt(7.0)) * (1 - c.nu_star) * psi(c.nu_star) - 4 * c.nu_star
    assert abs(root) < 1e-12
    root = (3.0 - math.sqrt(7.0)) * (1 - c.nu_bullet) * psi(c.nu_bullet) - 6 * c.nu_bullet
    assert abs(root) < 1e-12
    assert abs(psi(c.alpha_0) ** 2 - 2 * c.alpha_0) < 1e-12
    assert abs(c.alpha_star - c.nu_star / c.sigma) < 1e-15
    assert abs(c.alpha_bullet - c.nu_bullet / c.sigma) < 1e-15


def test_psi():
    assert psi(0.0) == 1.0
    assert abs(psi(0.1) - (1 - 0.4 + 0.02)) < 1e-15


def test_bisect_rejects_bracket_without_sign_change():
    assert abs(_bisect(lambda u: u * u - 2.0, 0.0, 2.0) - math.sqrt(2.0)) < 1e-14
    with pytest.raises(ValueError, match="bracket"):
        _bisect(lambda u: u * u + 1.0, 0.0, 2.0)


def test_sigma_min_against_jacobi_oracle():
    rng = np.random.RandomState(42)
    for _ in range(100):
        n = rng.randint(1, 4)
        A = rng.standard_normal((n, n))
        ours = sigma_min(A)
        ref = jacobi_sigma_min(A)
        assert abs(ours - ref) < 1e-9 * max(1.0, np.abs(A).max())


def _assert_close_to_svd(M):
    s = sigma_min_many(M)
    assert np.all(np.isfinite(s)) and np.all(s >= 0.0)
    bound = 8.0 * EPS * np.linalg.norm(M, axis=(1, 2))
    assert np.all(np.abs(s - svd_sigma_min_many(M)) <= bound)


def test_sigma_min_2x2_gaussian():
    rng = np.random.default_rng(7)
    _assert_close_to_svd(rng.standard_normal((20000, 2, 2)))


def test_sigma_min_2x2_near_singular():
    # rank one plus size * noise, size log-uniform in [1e-15, 1e-1]
    rng = np.random.default_rng(8)
    m = 20000
    u = rng.standard_normal((m, 2))
    v = rng.standard_normal((m, 2))
    size = 10.0 ** rng.uniform(-15.0, -1.0, m)
    noise = rng.standard_normal((m, 2, 2))
    _assert_close_to_svd(u[:, :, None] * v[:, None, :] + size[:, None, None] * noise)


@pytest.mark.parametrize("scale", [1e150, 1e-150])
def test_sigma_min_2x2_extreme_scale(scale):
    rng = np.random.default_rng(9)
    m = 5000
    A = rng.standard_normal((m, 2, 2))
    R1 = rng.standard_normal((m, 2, 1)) * rng.standard_normal((m, 1, 2))
    R1 += 1e-12 * rng.standard_normal((m, 2, 2))
    _assert_close_to_svd(scale * A)
    _assert_close_to_svd(scale * R1)


def test_sigma_min_2x2_exact_values():
    M = np.array(
        [
            [[0.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [1.5, -2.0]],   # zero first row
            [[1.5, -2.0], [0.0, 0.0]],   # zero second row
            [[0.0, 1.5], [0.0, -2.0]],   # zero first column
            [[1.5, 0.0], [-2.0, 0.0]],   # zero second column
            [[0.0, 1.0], [0.0, 0.0]],
            [[3.0, 0.0], [0.0, 4.0]],
        ]
    )
    assert sigma_min_many(M).tolist() == [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0]


def test_mu_norm_at_least_one_and_M_bounded():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.choice([1, 2])
        f = random_system(rng, n, [rng.randint(1, 3) for _ in range(n)]).normalized()
        x = random_sphere_point(rng, n + 1)
        data = point_data(f, x)
        assert data.mu_norm >= 1.0 - 1e-9
        M = compute_M(f, x)
        assert np.linalg.norm(M) <= math.sqrt(n) * (1.0 + 1e-9)


def test_point_data_fields_consistent():
    f = parse_system(
        {"n": 1, "degrees": [1], "polys": [[{"J": [0, 1], "c": 1.0}]]}
    ).normalized()
    x = np.array([1.0, 0.0])  # f(x) = 0 component is x1 = 0... x is a zero
    data = point_data(f, x)
    assert data.f_sup == 0.0
    assert data.beta_bar == 0.0
    assert data.alpha_bar == 0.0
    y = np.array([0.0, 1.0])
    dy = point_data(f, y)
    assert dy.f_sup == 1.0
    assert dy.alpha_bar >= theory_constants().alpha_star


def test_exclusion_radius():
    f = parse_system(
        {"n": 1, "degrees": [2], "polys": [[{"J": [2, 0], "c": 1.0}, {"J": [0, 2], "c": 1.0}]]}
    ).normalized()
    x = np.array([1.0, 0.0])
    data = point_data(f, x)
    expect = min(data.f_sup / math.sqrt(2.0), math.sqrt(2.0))
    assert abs(data.exclusion_radius - expect) < 1e-15


def test_newton_step_closed_form_line():
    # f = X1 - 0.1 X0 has the zero ray (1, 0.1)/sqrt(1.01)
    f = parse_system(
        {"n": 1, "degrees": [1], "polys": [[{"J": [0, 1], "c": 1.0}, {"J": [1, 0], "c": -0.1}]]}
    ).normalized()
    zero = np.array([1.0, 0.1]) / math.sqrt(1.01)
    x = np.array([1.0, 0.0])
    for _ in range(6):
        x, beta = newton_step(f, x)
    assert distance(x, zero) < 1e-12


def test_newton_refine_quadratic_envelope():
    rng = random.Random(57)
    f = parse_system(
        {"n": 1, "degrees": [2], "polys": [[{"J": [0, 2], "c": 1.0}, {"J": [2, 0], "c": -0.25}]]}
    ).normalized()
    zero = np.array([2.0, 1.0]) / math.sqrt(5.0)
    start = zero + np.array([-0.01, 0.02])
    start /= np.linalg.norm(start)
    res = newton_refine(f, start)
    assert res.envelope_ok and not res.singular
    assert distance(res.point, zero) < 1e-10
    b0 = res.beta_trace[0]
    for k, bk in enumerate(res.beta_trace):
        assert bk <= 0.5 ** (2**k - 1) * b0 * 1.1 + 1e-300


def test_newton_refine_at_exact_zero():
    f = parse_system(
        {"n": 1, "degrees": [1], "polys": [[{"J": [0, 1], "c": 1.0}]]}
    ).normalized()
    res = newton_refine(f, np.array([1.0, 0.0]))
    assert res.beta_trace == [0.0]
    assert np.array_equal(res.point, np.array([1.0, 0.0]))


def test_newton_step_singular():
    # f = X1^2 at (1, 0): the tangent derivative vanishes identically
    f = parse_system(
        {"n": 1, "degrees": [2], "polys": [[{"J": [0, 2], "c": 1.0}]]}
    ).normalized()
    with pytest.raises(SingularJacobianError):
        newton_step(f, np.array([1.0, 0.0]))
