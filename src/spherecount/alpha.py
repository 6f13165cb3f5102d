"""Batched certification kernel and Newton iteration on the sphere.

The certified quantities at a point x (for a normalized system, ||f|| = 1):

    M         = diag(1/sqrt(d_i)) Df(x) H     (H a Householder tangent basis)
    mu_norm   = sqrt(n) / sigma_min(M)
    beta_bar  = mu_norm * ||f(x)||_inf
    gamma_bar = (D^{3/2} / 2) * mu_norm
    alpha_bar = beta_bar * gamma_bar

A point with alpha_bar below the universal threshold is an approximate zero:
its Newton iterates converge quadratically to a nearby true zero.  The
kernel computes M and sigma_min(M) for a batch of points; a single point is
a one-row batch.  The test alpha_bar < alpha_star is written once, without
divisions, as the grid's vertex test `engine.vertex_test`; it fails at a
singular zero (sigma_min = 0).  The universal constants are recomputed at
import time by bisection and checked against their printed decimal
expansions in the test suite.

`newton_refine` runs Newton's method on the sphere for a batch of points:
each step takes M and sigma_min for every running row from the kernel and
solves all the tangent systems with one batched `np.linalg.solve`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import polysys, sphere
from .rounding import EXACT


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


def compute_M_many(f: polysys.PolynomialSystem, X: np.ndarray, ar=EXACT) -> np.ndarray:
    """Batched scaled tangent Jacobians diag(1/sqrt(d_i)) Df(x) H: (m, n, n)."""
    X = np.atleast_2d(X)
    jac = polysys.jacobian_many(f, X, ar)
    H = sphere.tangent_basis_many(X, ar)
    inv_sqrt_d = f.kernel_tables(ar).inv_sqrt_d
    # Entry (i, j) is the left fold over k of jac_ik H_kj, as one (m, n, n) array.
    DfH = ar.sum(ar.mul(jac[:, :, k, None], H[:, None, k, :]) for k in range(f.n_vars))
    return ar.mul(DfH, inv_sqrt_d[:, None])


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


@dataclass
class RefineResult:
    """Per-row outcome of `newton_refine` on an (m, n+1) batch."""

    point: np.ndarray              # (m, n+1) last iterates
    beta_trace: list[list[float]]  # per row, the step lengths beta_0, beta_1, ...
    envelope_ok: np.ndarray        # (m,) bool: the trace decays within the envelope
    singular: np.ndarray           # (m,) bool: stopped where sigma_min(M) = 0

    @property
    def steps(self) -> int:
        """Newton steps taken, summed over the rows."""
        return sum(map(len, self.beta_trace))


def _row_dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Dot products of matching rows, each rounded as np.dot of the two rows.

    A 1 x k by k x 1 matmul runs the host's dot product; np.sum would add
    in another order, and a one-row Newton step would round differently.
    """
    return (A[:, None, :] @ B[:, :, None])[:, 0, 0]


def _within_envelope(trace: list[float]) -> bool:
    """beta_k <= (1/2)^(2^k - 1) * beta_0 * 1.1 for every k (vacuous if beta_0 = 0)."""
    return not (trace and trace[0] > 0) or all(
        b <= 0.5 ** (2**k - 1) * trace[0] * 1.1 for k, b in enumerate(trace)
    )


def newton_refine(
    f: polysys.PolynomialSystem,
    X,
    max_steps: int = 30,
    beta_tol: float = 1e-12,
) -> RefineResult:
    """Newton's method on the sphere from each row of X, all rows at once.

    A step at x (renormalized) solves the tangent system
    diag(sqrt(d_i)) M w = f(x), with M from `compute_M_many`, so that H w is
    Df(x)|_T^{-1} f(x); then v = -H w, beta = ||v|| = d(x, N_f(x)), and
    x moves along the geodesic cos(beta) x + sin(beta) v / beta.  A row
    stops once beta <= beta_tol, after max_steps, or where sigma_min(M) = 0:
    it is then flagged singular and keeps its last iterate.  Every step acts
    on the rows still running, one array operation each, and each row's
    result is bit for bit that of refining it alone.

    The caller is expected to have certified alpha_bar below the mode's
    threshold; each trace is checked against the quadratic-convergence
    envelope beta_k <= (1/2)^(2^k - 1) * beta_0 * 1.1.
    """
    X = np.array(X, dtype=float, ndmin=2)
    traces: list[list[float]] = [[] for _ in X]
    singular = np.zeros(len(X), dtype=bool)
    active = np.arange(len(X))
    sqrt_d = np.sqrt(np.asarray(f.degrees, dtype=float))[:, None]
    for _ in range(max_steps):
        if not len(active):
            break
        x = X[active] / np.sqrt(_row_dot(X[active], X[active]))[:, None]
        vals, _ = polysys.evaluate_many(f, x)
        M = compute_M_many(f, x)
        regular = sigma_min_many(M) != 0.0
        singular[active[~regular]] = True
        active, x, vals, M = active[regular], x[regular], vals[regular], M[regular]
        w = np.linalg.solve(sqrt_d * M, vals[:, :, None])
        v = -(sphere.tangent_basis_many(x) @ w)[:, :, 0]
        # The tangent basis loses orthogonality to x near its reflection pole;
        # project the normal component back out before the geodesic step.
        v -= _row_dot(v, x)[:, None] * x
        beta = np.sqrt(_row_dot(v, v))
        moved = beta[:, None] > 0
        t = np.where(moved, beta[:, None], 1.0)
        X[active] = np.where(moved, np.cos(t) * x + (np.sin(t) / t) * v, x)
        for row, b in zip(active, beta.tolist()):
            traces[row].append(b)
        active = active[beta > beta_tol]
    envelope_ok = np.array([_within_envelope(trace) for trace in traces], dtype=bool)
    return RefineResult(X, traces, envelope_ok, singular)
