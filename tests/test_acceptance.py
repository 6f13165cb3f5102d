"""End-to-end acceptance checks, one per shipping criterion.

Each test prints a single CRITERION line so a log scrape shows the verdict
at a glance; the assertions behind the line are the actual gate.  The two
oracle suites come from conftest (Sturm-certified binary forms and
linear-product systems with integer-exact ray counts).
"""

import json
import math
import random
import time

import numpy as np
import pytest

from spherecount import alpha, cli, engine, oracle, sphere
from spherecount.polysys import (
    evaluate_many,
    jacobian_many,
    parse_system,
    system_to_document,
    weyl_norm,
)
from spherecount.rounding import required_precision

from util import compose_orthogonal, random_orthogonal, random_system

SWEEP_BITS = (53, 24, 17, 12, 8, 6, 5, 4, 3)

# filled by report(); conftest echoes these in the terminal summary so the
# verdict lines survive output capture
CRITERION_LINES = []


def report(num, ok, note=""):
    tail = f" ({note})" if note else ""
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'}{tail}"
    print(line)
    CRITERION_LINES.append((num, line))
    assert ok


@pytest.fixture(scope="session")
def univariate_exact(univariate_suite):
    """Exact-mode engine runs for the binary-form suite, with timings."""
    out = []
    for case in univariate_suite:
        t0 = time.perf_counter()
        result = engine.count_roots(case["system"])
        out.append({**case, "result": result, "seconds": time.perf_counter() - t0})
    return out


@pytest.fixture(scope="session")
def multivariate_exact(multivariate_suite):
    """Exact-mode engine runs for the linear-product suite, with timings."""
    out = []
    for case in multivariate_suite:
        t0 = time.perf_counter()
        result = engine.count_roots(case["system"], workers=2)
        out.append({**case, "result": result, "seconds": time.perf_counter() - t0})
    return out


def _write_system(tmp_path, f, name):
    path = tmp_path / name
    path.write_text(json.dumps(system_to_document(f)))
    return str(path)


def test_criterion_01_constants():
    t0 = time.perf_counter()
    c = alpha.theory_constants()
    elapsed = time.perf_counter() - t0
    ok = (
        abs(c.sigma - 1.632843018) < 1e-8
        and abs(c.alpha_star - 0.0384629388) < 1e-8
        and abs(c.nu_star - 0.0628039411) < 1e-8
        and abs(c.alpha_0 - 0.130716944) < 1e-8
        and abs(c.s_0 - 0.103621842) < 1e-8
        and abs(c.alpha_bullet - 0.028268) < 1e-5
        and abs(c.nu_bullet - 0.046158) < 1e-5
        and elapsed < 1.0
    )
    report(1, ok, f"{elapsed * 1e3:.1f} ms")


def test_criterion_02_univariate_suite(univariate_suite, tmp_path, capsys):
    worst = 0.0
    ok = True
    for i, case in enumerate(univariate_suite):
        path = _write_system(tmp_path, case["system"], f"u{i}.json")
        out_path = tmp_path / f"u{i}.out.json"
        t0 = time.perf_counter()
        rc = cli.main(["count", "--input", path, "--output", str(out_path)])
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        doc = json.loads(out_path.read_text())
        ok = ok and rc == 0 and doc["count"] == case["count"] and elapsed < 10.0
    report(2, ok, f"20 systems, slowest {worst:.2f} s")


def test_criterion_03_multivariate_suite(multivariate_exact):
    worst = 0.0
    ok = True
    for case in multivariate_exact:
        worst = max(worst, case["seconds"])
        ok = (
            ok
            and case["result"].status == "converged"
            and case["result"].count == case["count"]
            and case["seconds"] < 60.0
        )
    report(3, ok, f"10 systems, degrees up to (2,2), slowest {worst:.1f} s")


def test_criterion_04_quadratic_convergence(univariate_exact, multivariate_exact):
    ok = True
    n_components = 0
    for case in univariate_exact + multivariate_exact:
        result = case["result"]
        if result.status != "converged":
            ok = False
            continue
        fn = case["system"].normalized()
        for comp in result.components:
            n_components += 1
            trace = comp["beta_trace"]
            b0 = trace[0]
            for k, bk in enumerate(trace):
                ok = ok and bk <= 0.5 ** (2**k - 1) * b0 * 1.1 + 1e-300
            ok = ok and oracle.verify_zero(fn, comp["zero"], 1e-9)
    report(4, ok, f"{n_components} refined components")


def test_criterion_05_lipschitz_exclusion():
    rng = random.Random(505)
    nprng = np.random.default_rng(505)
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for _ in range(100):
        n = rng.choice([1, 2])
        f = random_system(rng, n, [rng.randint(1, 4) for _ in range(n)])
        m = 100
        X = nprng.standard_normal((m, n + 1))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        W = nprng.standard_normal((m, n + 1))
        W -= np.sum(W * X, axis=1, keepdims=True) * X
        W /= np.linalg.norm(W, axis=1, keepdims=True)
        theta = nprng.uniform(0.0, math.sqrt(2.0), m)
        Y = np.cos(theta)[:, None] * X + np.sin(theta)[:, None] * W
        vx, _ = evaluate_many(f, X)
        vy, _ = evaluate_many(f, Y)
        diff = np.max(np.abs(vx - vy), axis=1)
        bound = f.norm * math.sqrt(f.D) * theta + 1e-10
        ok = ok and bool(np.all(diff <= bound))
        checked += m
    elapsed = time.perf_counter() - t0
    ok = ok and checked == 10_000 and elapsed < 30.0
    report(5, ok, f"{checked} pairs in {elapsed:.1f} s")


def test_criterion_06_invariants():
    ok = True
    rng = random.Random(606)
    nprng = np.random.default_rng(606)
    # conditioning lower bounds at 10^3 random (system, point) pairs
    for _ in range(1000):
        n = rng.choice([1, 2])
        f = random_system(rng, n, [rng.randint(1, 4) for _ in range(n)]).normalized()
        x = nprng.standard_normal(n + 1)
        x /= np.linalg.norm(x)
        M = alpha.compute_M_many(f, x[None, :])
        ok = ok and math.sqrt(n) / alpha.sigma_min_many(M)[0] >= 1.0 - 1e-9
        ok = ok and np.linalg.norm(M[0]) <= math.sqrt(n) * (1.0 + 1e-9)
    # rotation invariance of the coefficient norm
    for _ in range(25):
        n = rng.choice([1, 2])
        f = random_system(rng, n, [rng.randint(1, 3) for _ in range(n)])
        Q = random_orthogonal(rng, n + 1)
        g = compose_orthogonal(f, Q)
        for pf, pg in zip(f.polynomials, g.polynomials):
            ok = ok and abs(weyl_norm(pf) - weyl_norm(pg)) < 1e-9
    # homogeneity identity d_i f_i(x) = x . grad f_i(x)
    for _ in range(50):
        n = rng.choice([1, 2])
        f = random_system(rng, n, [rng.randint(1, 4) for _ in range(n)])
        x = nprng.standard_normal(n + 1)
        vals = evaluate_many(f, x[None, :])[0][0]
        J = jacobian_many(f, x[None, :])[0]
        for i, d in enumerate(f.degrees):
            ok = ok and abs(d * vals[i] - float(J[i] @ x)) <= 1e-10
    # grid separation after projection, exhaustively at small levels
    for n, kmax in ((1, 4), (2, 2)):
        for k in range(1, kmax + 1):
            spec = sphere.CubeGridSpec(n=n, k=k)
            X = sphere.project_many(sphere.grid_lattice(spec) * spec.eta)
            D = sphere.pairwise_distances(X)
            np.fill_diagonal(D, np.inf)
            ok = ok and float(D.min()) >= spec.eta / (2 * math.sqrt(n + 1)) - 1e-12
    report(6, ok)


def test_criterion_07_iteration_bound():
    f = parse_system({"n": 1, "degrees": [1], "polys": [[{"J": [0, 1], "c": 1.0}]]})
    result = engine.count_roots(f)
    consts = alpha.theory_constants()
    n, D = f.n, f.D
    eta0 = 2.0 ** -engine.initial_level(n)
    bound = math.ceil(math.log2(eta0 * 8 * (n + 1) * D**2 * 2 / consts.alpha_bullet)) + 1
    levels = len(result.iterations)
    ok = result.status == "converged" and result.count == 1 and levels <= bound
    report(7, ok, f"{levels} levels used, bound {bound}")


def test_criterion_08_finite_precision(univariate_suite, multivariate_suite):
    t0 = time.perf_counter()
    ok = True
    # high-precision emulation must reproduce the exact verdicts
    for case in univariate_suite:
        exact = engine.count_roots(case["system"])
        for bits in (53, 24):
            r = engine.count_roots(case["system"], mode="rounded", bits=bits)
            ok = ok and r.status == "converged" and r.count == exact.count
    for case in multivariate_suite:
        for bits in (53, 24):
            r = engine.count_roots(case["system"], mode="rounded", bits=bits, workers=2)
            ok = ok and r.status == "converged" and r.count == case["count"]
    # sweep to very low precision: locate each system's breakdown point and
    # confirm correctness whenever the precision meets the a-priori bound
    breakdowns = 0
    violations = 0
    for case in univariate_suite:
        f = case["system"]
        rp = required_precision(f.n, f.D, f.S, max(case["kappa_hat"], 1.0 + 1e-12))
        broke = None
        for bits in SWEEP_BITS:
            r = engine.count_roots(f, mode="rounded", bits=bits, max_iterations=16)
            correct = r.status == "converged" and r.count == case["count"]
            if not correct and broke is None:
                broke = bits
            if math.ldexp(1.0, -bits) <= rp and not correct:
                violations += 1
        if broke is not None:
            breakdowns += 1
    elapsed = time.perf_counter() - t0
    ok = ok and violations == 0 and elapsed < 600.0
    report(
        8,
        ok,
        f"{breakdowns}/20 systems break above 3 bits, "
        f"0 bound violations, {elapsed:.0f} s",
    )


def test_criterion_09_nonhalting_on_double_ray(tmp_path, capsys):
    doc = {"n": 1, "degrees": [2], "polys": [[{"J": [0, 2], "c": 1.0}]]}
    path = tmp_path / "double.json"
    path.write_text(json.dumps(doc))
    rc = cli.main(["count", "--input", str(path), "--max-iter", "8"])
    out = json.loads(capsys.readouterr().out)
    ok = (
        rc == 2
        and out["status"] == "iteration-cap-reached"
        and out["count"] is None
        and not any(
            it["condition_i_pass"] and it["condition_ii_pass"]
            for it in out["iterations"]
        )
    )
    report(9, ok)


def test_criterion_10_determinism(univariate_suite, tmp_path):
    ok = True
    for i, case in enumerate(univariate_suite):
        path = _write_system(tmp_path, case["system"], f"d{i}.json")
        outputs = []
        for w in ("1", "4"):
            out_path = tmp_path / f"d{i}.w{w}.json"
            rc = cli.main(
                ["count", "--input", path, "--workers", w, "--output", str(out_path)]
            )
            ok = ok and rc == 0
            outputs.append(out_path.read_bytes())
        ok = ok and outputs[0] == outputs[1]
    report(10, ok, "20 systems, workers 1 vs 4 byte-identical")
