"""Shared helpers for the test suite: random systems and exact composition."""

import itertools
import random

import numpy as np

from spherecount.polysys import Monomial, Polynomial, PolynomialSystem
from spherecount.rounding import EXACT


def all_exponents(degree, n_vars):
    """Every exponent tuple of total degree `degree` in `n_vars` variables."""
    out = []
    for combo in itertools.combinations_with_replacement(range(n_vars), degree):
        exps = [0] * n_vars
        for v in combo:
            exps[v] += 1
        out.append(tuple(exps))
    return sorted(set(out))


def random_system(rng: random.Random, n, degrees, scale=1.0):
    """Dense random homogeneous system with normal coefficients."""
    polys = []
    for d in degrees:
        monomials = [
            Monomial(e, rng.gauss(0.0, scale)) for e in all_exponents(d, n + 1)
        ]
        polys.append(Polynomial(d, monomials, n_vars=n + 1))
    return PolynomialSystem(tuple(degrees), polys)


def random_orthogonal(rng: random.Random, dim):
    rs = np.random.RandomState(rng.randrange(2**31))
    Q, R = np.linalg.qr(rs.standard_normal((dim, dim)))
    return Q * np.sign(np.diag(R))


def compose_orthogonal(f: PolynomialSystem, Q: np.ndarray) -> PolynomialSystem:
    """The system x -> f(Q x), expanded back into monomial form.

    Works symbolically on coefficients: each monomial c * X^J becomes the
    product of the linear forms (Q x)_k, repeated J_k times, multiplied out
    term by term.
    """
    nv = f.n_vars
    polys = []
    for poly in f.polynomials:
        acc: dict[tuple, float] = {}
        for exps, c in zip(poly.exponents, poly.coefficients):
            terms = {tuple([0] * nv): float(c)}
            for k, e in enumerate(exps.tolist()):
                for _ in range(e):
                    new = {}
                    for t_exps, t_c in terms.items():
                        for j in range(nv):
                            q = Q[k, j]
                            if q == 0.0:
                                continue
                            key = tuple(
                                v + (1 if i == j else 0)
                                for i, v in enumerate(t_exps)
                            )
                            new[key] = new.get(key, 0.0) + t_c * q
                    terms = new
            for key, val in terms.items():
                acc[key] = acc.get(key, 0.0) + val
        monomials = [
            Monomial(e, v) for e, v in sorted(acc.items()) if abs(v) > 1e-14
        ]
        polys.append(Polynomial(poly.degree, monomials, n_vars=nv))
    return PolynomialSystem(f.degrees, polys)


def random_sphere_point(rng: random.Random, dim):
    v = np.array([rng.gauss(0.0, 1.0) for _ in range(dim)])
    return v / np.linalg.norm(v)


def svd_sigma_min_many(M, ar=EXACT):
    """Reference for alpha.sigma_min_many: LAPACK's SVD for every n x n batch."""
    s = np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)[..., -1]
    return ar.const(s)
