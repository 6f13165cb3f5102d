import itertools
import math
import random

import numpy as np
import pytest

from spherecount.alpha import (
    _bisect,
    compute_M_many,
    newton_refine,
    psi,
    sigma_min_many,
    theory_constants,
)
from spherecount import engine, sphere
from spherecount.polysys import evaluate_many, parse_system
from spherecount.rounding import EXACT, Arithmetic

from util import distance, random_sphere_point, random_system, svd_sigma_min_many

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
        ours = sigma_min_many(A[None])[0]
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
        M = compute_M_many(f, x[None, :])
        assert math.sqrt(n) / sigma_min_many(M)[0] >= 1.0 - 1e-9
        assert np.linalg.norm(M[0]) <= math.sqrt(n) * (1.0 + 1e-9)


def _eye_system(n):
    """Linear forms e_1..e_n, which reach sigma_min = 1 at x = e_0."""
    return parse_system({
        "n": n, "degrees": [1] * n,
        "polys": [[{"J": [int(j == i + 1) for j in range(n + 1)], "c": 1.0}] for i in range(n)],
    })


def _near_pole(n):
    """Projected grid points at and next to the Householder pole e_last, at
    levels where the basis formula is regular and where it degenerates."""
    steps = np.array(list(itertools.product((-1, 0, 1), repeat=n)))
    rows = [np.hstack((steps, np.full((len(steps), 1), 2**k))) * 2.0**-k for k in (4, 20, 30)]
    return sphere.project_many(np.vstack(rows))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sigma_min_within_round_off_cap_at_host_precision(n):
    """The vertex floor of exclusion pruning rests on the computed
    sigma_min <= (1 + d_s) sqrt(1 + D (f_sup + e_f)^2) at host precision,
    which holds whether or not the computed basis is tangent."""
    rng = random.Random(7000 + n)
    nprng = np.random.default_rng(7000 + n)
    cases = [random_system(rng, n, [rng.randint(1, 4) for _ in range(n)]) for _ in range(60)]
    cases.append(_eye_system(n))
    for f in cases:
        f = f.normalized()
        e_f, d_s = engine._round_off_bounds(f, EXACT)
        X = nprng.standard_normal((20, n + 1))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        X[0] = np.eye(n + 1)[0]
        X = np.vstack((X, _near_pole(n)))
        _, f_sup = evaluate_many(f, X)
        smin = sigma_min_many(compute_M_many(f, X))
        assert np.all(smin <= (1.0 + d_s) * np.sqrt(1.0 + f.D * (f_sup + e_f) ** 2))
    M = compute_M_many(cases[-1].normalized(), np.eye(n + 1)[:1])
    assert abs(sigma_min_many(M)[0] - 1.0) <= 4 * EPS


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rounded_grid_data_within_round_off_bounds(n):
    """The ingredients of the pruning margin, through each provider: the
    computed residual is within e_f of the true one (the host-precision
    value is within its own e_f of it), and the computed sigma_min is at
    most (1 + d_s) sqrt(1 + D r^2) with r <= f_sup + e_f."""
    rng = random.Random(7100 + n)
    cases = [random_system(rng, n, [rng.randint(1, 4) for _ in range(n)]) for _ in range(12)]
    cases.append(_eye_system(n))
    spec = sphere.CubeGridSpec(n=n, k={1: 6, 2: 3, 3: 2}[n])
    whole = sphere.canonical_grid(spec)
    for f in cases:
        f = f.normalized()
        exact_fsup = engine.evaluate_level(f, spec, whole).f_sup
        e_exact, _ = engine._round_off_bounds(f, EXACT)
        for ar in (EXACT, Arithmetic(12), Arithmetic(24), Arithmetic(53)):
            e_f, d_s = engine._round_off_bounds(f, ar)
            level = engine.evaluate_level(f, spec, whole, ar)
            f_sup, smin = level.f_sup, level.sigma_min
            assert np.all(np.abs(f_sup - exact_fsup) <= e_f + e_exact)
            assert np.all(smin <= (1.0 + d_s) * np.sqrt(1.0 + f.D * (f_sup + e_f) ** 2))
    # The linear forms reach the cap up to d_s: sigma_min = 1 at e_0, which
    # the computed value can exceed (1 + 2^-11 at 12 bits for n = 1).
    f = cases[-1].normalized()
    e0 = np.array([[2**spec.k] + [0] * n])
    for ar in (EXACT, Arithmetic(12), Arithmetic(24), Arithmetic(53)):
        smin = engine.evaluate_level(f, spec, e0, ar).sigma_min[0]
        assert abs(smin - 1.0) <= engine._round_off_bounds(f, ar)[1]


def _vertex_test_at(f, X):
    _, f_sup = evaluate_many(f, X)
    smin = sigma_min_many(compute_M_many(f, X))
    return f_sup, smin, engine.vertex_test(f, f_sup, smin, EXACT)


def test_vertex_test_certifies_simple_zeros_only():
    line = parse_system({"n": 1, "degrees": [1], "polys": [[{"J": [0, 1], "c": 1.0}]]})
    double = parse_system({"n": 1, "degrees": [2], "polys": [[{"J": [0, 2], "c": 1.0}]]})
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    # X1: the simple zero (1, 0) passes; (0, 1) has residual 1 and fails.
    f_sup, smin, passed = _vertex_test_at(line.normalized(), X)
    assert f_sup.tolist() == [0.0, 1.0] and abs(smin[0] - 1.0) <= 4 * EPS
    assert passed.tolist() == [True, False]
    # X1^2: (1, 0) is a singular zero (alpha_bar = 0 * inf), which fails.
    f_sup, smin, passed = _vertex_test_at(double.normalized(), X)
    assert f_sup[0] == 0.0 and smin[0] == 0.0
    assert passed.tolist() == [False, False]


def test_vertex_test_is_alpha_bar_below_alpha_star():
    """Away from the boundary's rounding, the vertex test in exact mode
    decides alpha_bar = beta_bar gamma_bar < alpha_star."""
    f = parse_system(
        {"n": 1, "degrees": [2], "polys": [[{"J": [0, 2], "c": 1.0}, {"J": [2, 0], "c": -0.25}]]}
    ).normalized()
    offsets = np.logspace(-6, 0, 200)
    theta = np.arctan2(1.0, 2.0) + np.concatenate([-offsets, offsets])
    X = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    f_sup, smin, passed = _vertex_test_at(f, X)
    mu = math.sqrt(f.n) / smin
    alpha_bar = (mu * f_sup) * (0.5 * f.D**1.5 * mu)
    alpha_star = theory_constants().alpha_star
    assert passed.any() and not passed.all()
    far = np.abs(alpha_bar / alpha_star - 1.0) > 1e-12
    assert np.array_equal(passed[far], (alpha_bar < alpha_star)[far])


LINE_SHIFTED = {  # X1 - 0.1 X0: the zero ray (1, 0.1) / sqrt(1.01)
    "n": 1, "degrees": [1], "polys": [[{"J": [0, 1], "c": 1.0}, {"J": [1, 0], "c": -0.1}]]
}
DOUBLE = {"n": 1, "degrees": [2], "polys": [[{"J": [0, 2], "c": 1.0}]]}  # X1^2


def test_newton_refine_closed_form_line():
    f = parse_system(LINE_SHIFTED).normalized()
    zero = np.array([1.0, 0.1]) / math.sqrt(1.01)
    res = newton_refine(f, np.array([[1.0, 0.0]]), max_steps=6)
    assert res.point.shape == (1, 2)
    assert distance(res.point[0], zero) < 1e-12


def test_newton_refine_quadratic_envelope():
    f = parse_system(
        {"n": 1, "degrees": [2], "polys": [[{"J": [0, 2], "c": 1.0}, {"J": [2, 0], "c": -0.25}]]}
    ).normalized()
    zero = np.array([2.0, 1.0]) / math.sqrt(5.0)
    start = zero + np.array([-0.01, 0.02])
    start /= np.linalg.norm(start)
    res = newton_refine(f, start[None, :])
    assert res.envelope_ok.tolist() == [True] and res.singular.tolist() == [False]
    assert distance(res.point[0], zero) < 1e-10
    trace = res.beta_trace[0]
    assert res.steps == len(trace)
    for k, bk in enumerate(trace):
        assert bk <= 0.5 ** (2**k - 1) * trace[0] * 1.1 + 1e-300


def test_newton_refine_at_exact_zero():
    f = parse_system(
        {"n": 1, "degrees": [1], "polys": [[{"J": [0, 1], "c": 1.0}]]}
    ).normalized()
    res = newton_refine(f, np.array([[1.0, 0.0]]))
    assert res.beta_trace == [[0.0]]
    assert np.array_equal(res.point, np.array([[1.0, 0.0]]))


def test_newton_refine_singular_start():
    # f = X1^2 at (1, 0): the tangent derivative vanishes identically
    f = parse_system(DOUBLE).normalized()
    res = newton_refine(f, np.array([[1.0, 0.0]]))
    assert res.singular.tolist() == [True]
    assert res.beta_trace == [[]] and res.steps == 0
    assert np.array_equal(res.point, np.array([[1.0, 0.0]]))


def test_newton_refine_geodesic_steps():
    """Each iterate has unit norm and lies beta_k from the one before it."""
    rng = random.Random(17)
    f = random_system(rng, 2, (2, 1)).normalized()
    X = np.array([random_sphere_point(rng, 3) for _ in range(40)])
    iterates = [X] + [newton_refine(f, X, max_steps=k).point for k in range(1, 5)]
    traces = newton_refine(f, X, max_steps=4).beta_trace
    checked = 0
    for row, trace in enumerate(traces):
        for k, beta in enumerate(trace):
            x, y = iterates[k][row], iterates[k + 1][row]
            assert abs(np.linalg.norm(y) - 1.0) < 1e-12
            if beta < 3.0:  # the geodesic from x is shortest below pi
                chord = np.linalg.norm(y - x / np.linalg.norm(x))
                assert abs(2.0 * math.asin(0.5 * chord) - beta) < 1e-12
                checked += 1
    assert checked > 100


def test_newton_refine_batch_matches_single_rows():
    # No term of f_0 has degree 1 in X0, so Df_0 vanishes at e_0 = (1, 0, 0):
    # M has a zero row there and sigma_min(M) = 0.
    f = parse_system({"n": 2, "degrees": [2, 2], "polys": [
        [{"J": [0, 2, 0], "c": 1.0}, {"J": [0, 1, 1], "c": 0.5}, {"J": [0, 0, 2], "c": -0.3}],
        [{"J": [0, 0, 2], "c": 1.0}, {"J": [0, 1, 1], "c": -0.7}, {"J": [1, 1, 0], "c": 0.2}],
    ]}).normalized()
    rng = random.Random(29)
    X = np.array([random_sphere_point(rng, 3) for _ in range(8)])
    X[3] = [1.0, 0.0, 0.0]
    X[6] = [-1.0, 0.0, 0.0]
    batch = newton_refine(f, X)
    assert batch.singular.tolist() == [row in (3, 6) for row in range(8)]
    steps = 0
    for row, x in enumerate(X):
        alone = newton_refine(f, x[None, :])
        assert np.array_equal(alone.point[0], batch.point[row])
        assert alone.beta_trace[0] == batch.beta_trace[row]
        assert alone.envelope_ok[0] == batch.envelope_ok[row]
        assert alone.singular[0] == batch.singular[row]
        steps += alone.steps
    assert batch.steps == steps
