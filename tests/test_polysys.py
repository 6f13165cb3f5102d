import json
import math
import random

import numpy as np
import pytest

from spherecount.polysys import (
    Monomial,
    Polynomial,
    PolynomialSystem,
    SystemFormatError,
    evaluate,
    evaluate_many,
    jacobian_many,
    multinomial,
    parse_system,
    system_to_document,
    weyl_norm,
)

from util import compose_orthogonal, random_orthogonal, random_sphere_point, random_system


def make_binary(coeffs_by_exp, degree):
    monomials = [Monomial(e, c) for e, c in coeffs_by_exp.items()]
    return Polynomial(degree, monomials, n_vars=2)


def test_multinomial_values():
    assert multinomial(2, (2, 0)) == 1
    assert multinomial(2, (1, 1)) == 2
    assert multinomial(3, (1, 1, 1)) == 6
    assert multinomial(4, (2, 2)) == 6
    assert multinomial(6, (2, 2, 2)) == 90
    assert multinomial(0, (0, 0)) == 1


def test_weyl_norm_quadratic():
    # ||a X0^2 + b X0 X1 + c X1^2||^2 = a^2 + b^2/2 + c^2
    p = make_binary({(2, 0): 3.0, (1, 1): 2.0, (0, 2): -1.0}, 2)
    assert abs(weyl_norm(p) ** 2 - (9.0 + 2.0 + 1.0)) < 1e-12


def test_weyl_norm_orthogonal_invariance():
    rng = random.Random(71)
    for _ in range(25):
        n = rng.choice([1, 2])
        f = random_system(rng, n, [rng.randint(1, 3) for _ in range(n)])
        Q = random_orthogonal(rng, n + 1)
        g = compose_orthogonal(f, Q)
        assert abs(weyl_norm(f.polynomials[0]) - weyl_norm(g.polynomials[0])) < 1e-9


def test_parse_and_serialize_round_trip():
    doc = {
        "n": 1,
        "degrees": [2],
        "polys": [[{"J": [2, 0], "c": 1.0}, {"J": [0, 2], "c": -0.25}]],
    }
    f = parse_system(doc)
    assert f.n == 1 and f.degrees == (2,)
    doc2 = system_to_document(f)
    assert parse_system(doc2).norm == f.norm
    # JSON string input is accepted too
    f2 = parse_system(json.dumps(doc))
    assert f2.norm == f.norm


def test_parse_rejects_bad_documents():
    base = {"n": 1, "degrees": [2], "polys": [[{"J": [2, 0], "c": 1.0}]]}
    bad_homog = dict(base, polys=[[{"J": [1, 0], "c": 1.0}]])
    with pytest.raises(SystemFormatError):
        parse_system(bad_homog)
    with pytest.raises(SystemFormatError):
        parse_system(dict(base, degrees=[2, 2]))  # not square
    with pytest.raises(SystemFormatError):
        parse_system(dict(base, polys=[[{"J": [2], "c": 1.0}]]))  # arity
    dup = dict(base, polys=[[{"J": [2, 0], "c": 1.0}, {"J": [2, 0], "c": 2.0}]])
    with pytest.raises(SystemFormatError):
        parse_system(dup)
    with pytest.raises(SystemFormatError):
        parse_system(dict(base, polys=[[]]))  # zero polynomial
    with pytest.raises(SystemFormatError):
        parse_system("not json at all{")


def test_error_message_names_offending_polynomial():
    doc = {
        "n": 2,
        "degrees": [1, 2],
        "polys": [
            [{"J": [1, 0, 0], "c": 1.0}],
            [{"J": [1, 0, 0], "c": 1.0}],  # degree mismatch in f_1
        ],
    }
    with pytest.raises(SystemFormatError, match="1"):
        parse_system(doc)


def test_monomial_rejects_negative_exponents():
    with pytest.raises(ValueError):
        Monomial((-1, 3), 1.0)


def test_evaluate_against_direct_formula():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.choice([1, 2])
        f = random_system(rng, n, [rng.randint(1, 4) for _ in range(n)])
        x = random_sphere_point(rng, n + 1)
        vals, sup = evaluate(f, x)
        for i, poly in enumerate(f.polynomials):
            direct = sum(
                c * np.prod(x ** np.asarray(e))
                for e, c in zip(poly.exponents, poly.coefficients)
            )
            assert abs(vals[i] - direct) < 1e-12
        assert abs(sup - np.max(np.abs(vals))) == 0.0


def test_evaluate_many_matches_scalar():
    rng = random.Random(17)
    f = random_system(rng, 2, [2, 3])
    X = np.stack([random_sphere_point(rng, 3) for _ in range(40)])
    vals, sup = evaluate_many(f, X)
    for i in range(40):
        vi, si = evaluate(f, X[i])
        assert np.allclose(vals[i], vi, atol=1e-14)
        assert abs(sup[i] - si) == 0.0


def test_jacobian_against_finite_differences():
    rng = random.Random(23)
    for _ in range(10):
        n = rng.choice([1, 2])
        f = random_system(rng, n, [rng.randint(1, 3) for _ in range(n)])
        x = random_sphere_point(rng, n + 1)
        J = jacobian_many(f, x[None, :])[0]
        h = 1e-6
        for k in range(n + 1):
            xp, xm = x.copy(), x.copy()
            xp[k] += h
            xm[k] -= h
            num = (evaluate(f, xp)[0] - evaluate(f, xm)[0]) / (2 * h)
            assert np.allclose(J[:, k], num, atol=1e-5)


def test_euler_identity():
    # sum_k x_k d f_i / d x_k = d_i f_i for homogeneous f_i
    rng = random.Random(29)
    for _ in range(50):
        n = rng.choice([1, 2, 3])
        degrees = [rng.randint(1, 4) for _ in range(n)]
        f = random_system(rng, n, degrees)
        x = random_sphere_point(rng, n + 1)
        vals, _ = evaluate(f, x)
        J = jacobian_many(f, x[None, :])[0]
        lhs = J @ x
        rhs = np.asarray(degrees, dtype=float) * vals
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_normalized_system():
    rng = random.Random(31)
    f = random_system(rng, 1, [3])
    fn = f.normalized()
    assert abs(fn.norm - 1.0) < 1e-12
    assert abs(fn.original_norm - f.norm) < 1e-12
    x = random_sphere_point(rng, 2)
    assert abs(evaluate(fn, x)[1] * f.norm - evaluate(f, x)[1]) < 1e-12


def test_system_norm_is_max_of_weyl_norms():
    rng = random.Random(37)
    f = random_system(rng, 2, [2, 3])
    assert f.norm == max(weyl_norm(p) for p in f.polynomials)


def test_prescaling_keeps_normal_range_norms_bit_identical():
    # Power-of-two prescaling is exact: the norm and the normalized
    # coefficients equal the unscaled formulas bit for bit.
    rng = random.Random(41)
    for _ in range(50):
        n = rng.choice([1, 2])
        degrees = [rng.randint(1, 4) for _ in range(n)]
        f = random_system(rng, n, degrees, scale=10.0 ** rng.uniform(-100, 100))
        for p in f.polynomials:
            assert weyl_norm(p) == float(np.sqrt(np.sum(p.coefficients**2 / p.multinomials)))
        factor = 1.0 / f.norm
        for p, q in zip(f.polynomials, f.normalized().polynomials):
            assert np.array_equal(q.coefficients, p.coefficients * factor)


@pytest.mark.parametrize("coeffs", [(1e-320, 0.0), (1e200, 1e199), (1e-300, 1e-301)])
def test_norms_over_the_full_double_range(coeffs):
    c1, c0 = coeffs
    mons = [Monomial((0, 1), c1)] + ([Monomial((1, 0), c0)] if c0 else [])
    f = PolynomialSystem((1,), [Polynomial(1, mons, n_vars=2)])
    assert f.norm == pytest.approx(math.hypot(c1, c0), rel=1e-15 if c1 > 1e-300 else 1e-3)
    fn = f.normalized()
    assert abs(fn.norm - 1.0) < 1e-15
    assert fn.original_norm == f.norm
