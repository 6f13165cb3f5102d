"""Per-point certification data and Newton iteration on the sphere.

The certified quantities at a point x (for a normalized system, ||f|| = 1):

    M         = diag(1/sqrt(d_i)) Df(x) H     (H a Householder tangent basis)
    mu_norm   = sqrt(n) / sigma_min(M)
    beta_bar  = mu_norm * ||f(x)||_inf
    gamma_bar = (D^{3/2} / 2) * mu_norm
    alpha_bar = beta_bar * gamma_bar

A point with alpha_bar below the universal threshold is an approximate zero:
its Newton iterates converge quadratically to a nearby true zero.  The
universal constants are recomputed at import time by bisection and checked
against their printed decimal expansions in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg

from . import polysys, sphere
from .rounding import EXACT


class SingularJacobianError(RuntimeError):
    """Newton step requested at a point with singular tangent Jacobian."""


def psi(u: float) -> float:
    return 1.0 - 4.0 * u + 2.0 * u * u


def _bisect(fn, lo: float, hi: float, tol: float = 1e-15) -> float:
    flo = fn(lo)
    if flo == 0:
        return lo
    if not flo * fn(hi) < 0:
        raise ValueError("bisection bracket does not change sign")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo = mid
            flo = fm
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class TheoryConstants:
    sigma: float
    nu_star: float
    alpha_star: float
    nu_bullet: float
    alpha_bullet: float
    alpha_0: float
    s_0: float


@lru_cache(maxsize=1)
def theory_constants() -> TheoryConstants:
    """Compute the universal constants rather than hard-coding their digits."""
    # sigma = sum_{k>=0} 2^(-2^k + 1), summed until terms vanish in double.
    sigma = 0.0
    k = 0
    while True:
        term = 2.0 ** (-(2**k) + 1)
        if term == 0.0 or sigma + term == sigma:
            break
        sigma += term
        k += 1

    c = 3.0 - math.sqrt(7.0)
    nu_star = _bisect(lambda v: c * (1.0 - v) * psi(v) - 4.0 * v, 0.0, 0.2)
    nu_bullet = _bisect(lambda v: c * (1.0 - v) * psi(v) - 6.0 * v, 0.0, 0.2)
    alpha_0 = _bisect(lambda v: psi(v) ** 2 - 2.0 * v, 0.0, 0.25)
    sa = sigma * alpha_0
    s_0 = 1.0 / (sigma + (1.0 - sa) ** 2 / psi(sa) * (1.0 + sigma / (1.0 - sa)))
    return TheoryConstants(
        sigma=sigma,
        nu_star=nu_star,
        alpha_star=nu_star / sigma,
        nu_bullet=nu_bullet,
        alpha_bullet=nu_bullet / sigma,
        alpha_0=alpha_0,
        s_0=s_0,
    )


@dataclass
class PointData:
    """Certification record for one (f, x) pair (f normalized)."""

    M: np.ndarray
    sigma_min: float
    mu_norm: float
    beta_bar: float
    gamma_bar: float
    alpha_bar: float
    f_sup: float
    exclusion_radius: float


def compute_M_many(f: polysys.PolynomialSystem, X: np.ndarray, ar=EXACT) -> np.ndarray:
    """Batched scaled tangent Jacobians diag(1/sqrt(d_i)) Df(x) H: (m, n, n)."""
    X = np.atleast_2d(X)
    m = X.shape[0]
    n = f.n
    jac = polysys.jacobian_many(f, X, ar)
    H = sphere.tangent_basis_many(X, ar)
    inv_sqrt_d = [ar.div(ar.const(1.0), ar.sqrt(ar.const(float(d)))) for d in f.degrees]
    M = np.empty((m, n, n))
    for i in range(n):
        for j in range(n):
            acc = None
            for k in range(f.n_vars):
                t = ar.mul(jac[:, i, k], H[:, k, j])
                acc = t if acc is None else ar.add(acc, t)
            M[:, i, j] = ar.mul(acc, inv_sqrt_d[i])
    return M


def compute_M(f: polysys.PolynomialSystem, x, ar=EXACT) -> np.ndarray:
    return compute_M_many(f, np.asarray(x, dtype=float)[None, :], ar)[0]


def _sigma_min_2x2(M: np.ndarray) -> np.ndarray:
    """Smallest singular values of a batch of 2 x 2 matrices, in closed form.

    One Givens rotation on the rows brings each matrix to [[f, g], [0, h]]
    with f = hypot(M00, M10); the smaller singular value of that triangle
    is LAPACK's dlas2 formula (Demmel and Kahan, SIAM J. Sci. Stat. Comput.
    11, 1990), whose quotients are scaled by max(f, h) or |g| so nothing
    overflows or underflows.  A triangle with f = 0 or h = 0 gives exactly 0.
    """
    a, b = M[..., 0, 0], M[..., 0, 1]
    c, d = M[..., 1, 0], M[..., 1, 1]
    f = np.hypot(a, c)
    # f = 0 means a = c = 0: the rotation is then irrelevant, as h = 0.
    safe = np.where(f == 0.0, 1.0, f)
    cs = a / safe
    sn = c / safe
    g = np.abs(cs * b + sn * d)
    h = np.abs(cs * d - sn * b)
    fhmn = np.minimum(f, h)
    fhmx = np.maximum(f, h)
    # Both branches are evaluated everywhere; the quotients that divide by
    # zero belong to entries the final selects discard.
    with np.errstate(divide="ignore", invalid="ignore"):
        s_as = 1.0 + fhmn / fhmx
        s_at = (fhmx - fhmn) / fhmx
        au = (g / fhmx) ** 2
        small_g = fhmn * (2.0 / (np.sqrt(s_as * s_as + au) + np.sqrt(s_at * s_at + au)))
        au = fhmx / g
        cl = 1.0 / (np.sqrt(1.0 + (s_as * au) ** 2) + np.sqrt(1.0 + (s_at * au) ** 2))
        large_g = np.where(au == 0.0, (fhmn * fhmx) / g, 2.0 * (fhmn * cl) * au)
    s = np.where(g < fhmx, small_g, large_g)
    return np.where(fhmn == 0.0, 0.0, s)


def sigma_min_many(M: np.ndarray, ar=EXACT) -> np.ndarray:
    """Smallest singular values of a batch of n x n matrices.

    n = 1 is |M|.  n = 2 is the closed form of `_sigma_min_2x2`: the Givens
    rotation is backward stable and dlas2 is accurate to a few ulps of the
    triangle's singular values, so the result is within a small multiple of
    eps * ||M||_F of the exact value (the tests hold it to 8 eps ||M||_F of
    LAPACK's SVD); a zero row or column gives exactly 0, never NaN.  Larger
    n use the host's backward-stable SVD.  In rounded mode the float64
    result is rounded once into the working precision.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[-1]
    if n == 1:
        s = np.abs(M[..., 0, 0])
    elif n == 2:
        s = _sigma_min_2x2(M)
    else:
        s = np.linalg.svd(M, compute_uv=False)[..., -1]
    return ar.const(s)


def sigma_min(M: np.ndarray) -> float:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("sigma_min expects a square matrix")
    return float(sigma_min_many(M[None, :, :])[0])


def point_data(f: polysys.PolynomialSystem, x) -> PointData:
    """All certification quantities at x, for a normalized system."""
    x = np.asarray(x, dtype=float)
    _, f_sup = polysys.evaluate(f, x)
    M = compute_M(f, x)
    smin = sigma_min(M)
    n = f.n
    D32 = f.D**1.5
    if smin > 0:
        mu = math.sqrt(n) / smin
        beta = mu * f_sup
        gamma = 0.5 * D32 * mu
        alpha = beta * gamma
    else:
        mu = math.inf
        gamma = math.inf
        beta = math.inf if f_sup > 0 else 0.0
        alpha = math.inf if f_sup > 0 else 0.0
    excl = min(f_sup / math.sqrt(f.D), math.sqrt(2.0))
    return PointData(
        M=M,
        sigma_min=smin,
        mu_norm=mu,
        beta_bar=beta,
        gamma_bar=gamma,
        alpha_bar=alpha,
        f_sup=f_sup,
        exclusion_radius=excl,
    )


def newton_step(f: polysys.PolynomialSystem, x):
    """One Newton step on the sphere: exp_x(-Df(x)|_T^{-1} f(x)).

    Returns (next point, beta) where beta = ||step|| = d(x, N_f(x)).
    The n x n tangent system diag(sqrt(d_i)) M w = f(x) is solved by QR with
    column pivoting; no inverse is formed.
    """
    x = np.asarray(x, dtype=float)
    x = x / np.linalg.norm(x)
    vals, _ = polysys.evaluate(f, x)
    H = sphere.tangent_basis(x)
    M = compute_M(f, x)
    if sigma_min(M) == 0.0:
        raise SingularJacobianError("tangent Jacobian is singular at this point")
    A = np.sqrt(np.asarray(f.degrees, dtype=float))[:, None] * M
    Q, R, perm = scipy.linalg.qr(A, pivoting=True)
    y = Q.T @ vals
    w_p = scipy.linalg.solve_triangular(R, y)
    w = np.empty_like(w_p)
    w[perm] = w_p
    v = -H @ w
    # The tangent basis loses orthogonality to x near its reflection pole;
    # project the normal component back out before the exponential.
    v -= np.dot(v, x) * x
    beta = float(np.linalg.norm(v))
    return sphere.exp_map(x, v), beta


@dataclass
class RefineResult:
    point: np.ndarray
    beta_trace: list[float] = field(default_factory=list)
    envelope_ok: bool = True
    singular: bool = False

    @property
    def steps(self) -> int:
        return len(self.beta_trace)


def newton_refine(
    f: polysys.PolynomialSystem,
    x,
    max_steps: int = 30,
    beta_tol: float = 1e-12,
) -> RefineResult:
    """Iterate Newton steps until beta <= beta_tol or max_steps.

    The caller is expected to have certified alpha_bar below the mode's
    threshold; the trace is checked against the quadratic-convergence
    envelope beta_k <= (1/2)^(2^k - 1) * beta_0 * 1.1 and the result is
    flagged when the envelope is violated.
    """
    x = np.asarray(x, dtype=float)
    result = RefineResult(point=x)
    for _ in range(max_steps):
        try:
            x, beta = newton_step(f, x)
        except SingularJacobianError:
            result.singular = True
            return result
        result.beta_trace.append(beta)
        result.point = x
        if beta <= beta_tol:
            break
    trace = result.beta_trace
    if trace and trace[0] > 0:
        for k, b in enumerate(trace):
            if b > 0.5 ** (2**k - 1) * trace[0] * 1.1:
                result.envelope_ok = False
                break
    return result
