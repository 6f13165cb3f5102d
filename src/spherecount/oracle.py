"""Independent ground-truth generators for validating the counting engine.

Two families with exactly known answers:

* binary forms p(X0, X1): the zero rays on the circle correspond one-to-one
  to the distinct real roots of the dehomogenization p(1, t), plus one for
  the ray through (0, 1) when X0 divides p.  Root counting is done in exact
  rational arithmetic with Sturm sequences, so it shares no code path with
  the floating-point engine.
* products of linear forms in n + 1 variables: each polynomial is a product
  of integer linear forms, every zero ray is the exact kernel line of one
  form per polynomial, and the count follows from rank checks over the
  integers.

Generated coefficients are small integers, hence exact in float64, so the
rational verdicts apply verbatim to the parsed systems.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np

from .alpha import compute_M_many, sigma_min_many
from .polysys import Monomial, Polynomial, PolynomialSystem, evaluate_many


# ---------------------------------------------------------------------------
# Exact univariate root counting (dense Fraction coefficients, low -> high).


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_deriv(p: list[Fraction]) -> list[Fraction]:
    return [c * i for i, c in enumerate(p)][1:]


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    a = a[:]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and _poly_trim(a):
        shift = len(a) - len(b)
        factor = a[-1] / b[-1]
        q[shift] = factor
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        _poly_trim(a)
    return q, a


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _poly_trim(a[:]), _poly_trim(b[:])
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, _poly_trim(r)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _squarefree_part(p: list[Fraction]) -> list[Fraction]:
    g = _poly_gcd(p, _poly_deriv(p))
    if len(g) <= 1:
        return p[:]
    q, r = _poly_divmod(p, g)
    if _poly_trim(r):
        raise ArithmeticError("gcd(p, p') does not divide p exactly")
    return q


def _sign_variations_at_infinity(chain: list[list[Fraction]], positive: bool) -> int:
    signs = []
    for p in chain:
        lead = p[-1]
        s = 1 if lead > 0 else -1
        if not positive and (len(p) - 1) % 2 == 1:
            s = -s
        signs.append(s)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_distinct_real_roots(coeffs) -> int:
    """Number of distinct real roots of a univariate polynomial, exactly.

    coeffs: rational/int coefficients, low order first.  Uses the Sturm
    chain of the squarefree part; the count is V(-inf) - V(+inf).
    """
    p = _poly_trim([Fraction(c) for c in coeffs])
    if len(p) <= 1:
        if p:
            return 0
        raise ValueError("zero polynomial has infinitely many roots")
    p = _squarefree_part(p)
    if len(p) <= 1:
        return 0
    chain = [p, _poly_deriv(p)]
    while len(chain[-1]) > 1:
        _, r = _poly_divmod(chain[-2], chain[-1])
        r = _poly_trim(r)
        if not r:
            break
        chain.append([-c for c in r])
    if not _poly_trim(chain[-1][:]):
        chain.pop()
    return _sign_variations_at_infinity(chain, False) - _sign_variations_at_infinity(chain, True)


def binary_form_ray_count(poly: Polynomial) -> int:
    """Exact number of zero rays on the circle of a binary form.

    Dehomogenize at X0 = 1 and count distinct real roots; the ray through
    (0, 1) is a zero exactly when the X1^d coefficient vanishes.
    """
    d = poly.degree
    dense = [Fraction(0)] * (d + 1)
    for exps, c in zip(poly.exponents, poly.coefficients):
        frac = Fraction(c)
        if frac != c:
            raise ValueError("coefficients must be exactly representable")
        dense[int(exps[1])] += frac
    if not any(dense):
        raise ValueError("zero polynomial")
    count = count_distinct_real_roots(dense)
    if dense[d] == 0:
        count += 1
    return count


def random_binary_form(rng: random.Random, degree: int) -> Polynomial:
    """Random binary form with integer coefficients in [-4, 4] (never identically 0)."""
    while True:
        coeffs = [rng.randint(-4, 4) for _ in range(degree + 1)]
        if any(coeffs):
            break
    monomials = [
        Monomial((degree - j, j), float(c)) for j, c in enumerate(coeffs) if c != 0
    ]
    return Polynomial(degree, monomials, n_vars=2)


def random_binary_system(rng: random.Random, degree: int):
    """(system, exact ray count) for a random single binary form."""
    poly = random_binary_form(rng, degree)
    system = PolynomialSystem((degree,), [poly])
    return system, binary_form_ray_count(poly)


# ---------------------------------------------------------------------------
# Products of integer linear forms in n + 1 variables.


def _expand_linear_product(forms: list[tuple[int, ...]]) -> Polynomial:
    """Multiply out a product of linear forms in n + 1 variables over the integers."""
    n_vars = len(forms[0])
    terms = {(0,) * n_vars: 1}
    for form in forms:
        new: dict[tuple[int, ...], int] = {}
        for exps, c in terms.items():
            for var, coef in enumerate(form):
                if coef == 0:
                    continue
                key = tuple(e + (1 if i == var else 0) for i, e in enumerate(exps))
                new[key] = new.get(key, 0) + c * coef
        terms = new
    monomials = [Monomial(exps, float(c)) for exps, c in sorted(terms.items()) if c != 0]
    return Polynomial(len(forms), monomials, n_vars=n_vars)


def _det(rows: list[tuple[int, ...]]) -> int:
    """The determinant of a square integer matrix, by Laplace expansion."""
    if not rows:
        return 1
    return sum((-1) ** j * c * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, c in enumerate(rows[0]) if c)


def _parallel(a, b) -> bool:
    """Are the integer vectors a and b linearly dependent?"""
    return all(a[i] * b[j] == a[j] * b[i] for i, j in itertools.combinations(range(len(a)), 2))


def make_linear_product_system(
    degrees: tuple[int, ...],
    seed: int,
    coeff_range: int = 3,
    max_tries: int = 20000,
    min_sigma: float | None = None,
):
    """Random system of products of integer linear forms, with its count.

    n = len(degrees) >= 2 polynomials in n + 1 variables.  Each zero ray is
    the kernel line of one form from each polynomial: the vector of signed
    maximal minors (-1)^i det(A without column i) of the n x (n+1) matrix A
    of those forms (for n = 2, their cross product), in exact integers.
    The count is the number of distinct such lines.  Seeds are rejected,
    in this order, when two forms of the system are parallel, when some
    choice of one form per polynomial has rank below n, or when two rays
    are parallel (n + 1 forms concurrent), so every zero ray is simple and
    the count is stable under perturbation.  Returns (system, count, rays)
    where rays are the exact integer direction vectors, one per antipodal
    pair.

    min_sigma additionally rejects seeds whose worst zero ray has sigma_min
    (after normalization) below the bound; the counting loop's halting mesh
    shrinks like sigma_min^2, so this keeps generated systems within a
    small grid budget.
    """
    rng = random.Random(seed)
    n = len(degrees)
    for _ in range(max_tries):
        all_forms = []
        for d in degrees:
            forms = []
            for _ in range(d):
                while True:
                    v = tuple(rng.randint(-coeff_range, coeff_range) for _ in range(n + 1))
                    if any(v):
                        break
                forms.append(v)
            all_forms.append(forms)
        flat = [v for forms in all_forms for v in forms]
        if any(_parallel(a, b) for a, b in itertools.combinations(flat, 2)):
            continue
        rays = [tuple((-1) ** i * _det([a[:i] + a[i + 1:] for a in choice]) for i in range(n + 1))
                for choice in itertools.product(*all_forms)]
        if not all(any(r) for r in rays):
            continue
        if any(_parallel(r, s) for r, s in itertools.combinations(rays, 2)):
            continue
        polys = [_expand_linear_product(forms) for forms in all_forms]
        system = PolynomialSystem(tuple(degrees), polys)
        if min_sigma is not None:
            fn = system.normalized()
            R = np.array([np.array(r, float) / np.linalg.norm(r) for r in rays])
            if np.min(sigma_min_many(compute_M_many(fn, R))) < min_sigma:
                continue
        return system, len(rays), rays
    raise RuntimeError(f"no admissible system found for seed {seed}")


def verify_zero(f: PolynomialSystem, z, tol: float = 1e-8) -> bool:
    """Is z an approximate zero ray: small residual, nondegenerate Jacobian.

    True iff ||f(z)||_inf <= tol and sigma_min of the scaled tangent
    Jacobian at z exceeds tol.
    """
    Z = np.asarray(z, dtype=float)[None, :]
    _, sup = evaluate_many(f, Z)
    if sup[0] > tol:
        return False
    return bool(sigma_min_many(compute_M_many(f, Z))[0] > tol)
