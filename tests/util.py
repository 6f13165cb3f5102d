"""Shared helpers for the test suite: random systems and exact composition."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from spherecount import oracle, sphere
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


def is_squarefree(poly: Polynomial) -> bool:
    """Does the dehomogenized binary form p(1, t) have only simple roots?"""
    dense = [Fraction(0)] * (poly.degree + 1)
    for e, c in zip(poly.exponents, poly.coefficients):
        dense[int(e[1])] += Fraction(c)
    p = oracle._poly_trim(dense)
    return len(oracle._squarefree_part(p)) == len(p)


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


def distance(x1, x2, ar=EXACT) -> float:
    """Reference for sphere.pairwise_distances: one angular distance on S^n.

    Inner product and norms accumulate coordinate by coordinate in the
    provider's arithmetic; the quotient is clamped to [-1, 1] before arccos.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    dot = s1 = s2 = None
    for k in range(len(x1)):
        dot = ar.mul(x1[k], x2[k]) if dot is None else ar.add(dot, ar.mul(x1[k], x2[k]))
        s1 = ar.mul(x1[k], x1[k]) if s1 is None else ar.add(s1, ar.mul(x1[k], x1[k]))
        s2 = ar.mul(x2[k], x2[k]) if s2 is None else ar.add(s2, ar.mul(x2[k], x2[k]))
    a = ar.div(dot, ar.mul(ar.sqrt(s1), ar.sqrt(s2)))
    a = min(1.0, max(-1.0, float(a)))
    return float(ar.arccos(a))


def hook_labels(V, edges):
    """Each vertex labelled by the smallest member of its part joined by the
    (E, 2) edges.

    Hook and compress (Shiloach and Vishkin, J. Algorithms 3, 1982): each
    round hooks the larger root of every edge whose ends have different
    roots onto the smaller, then replaces each label by its label's label
    until nothing changes.  Labels only decrease and every label is a root
    after compression, so the rounds end with each vertex labelled by the
    smallest member of its part.
    """
    labels = np.arange(V)
    i, j = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    while True:
        a, b = labels[i], labels[j]
        # An edge whose ends share a root keeps them together for good.
        live = a != b
        if not live.any():
            return labels
        i, j, a, b = i[live], j[live], a[live], b[live]
        np.minimum.at(labels, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(up := labels[labels], labels):
            labels = up


def dense_proximity(points, radii, ar=EXACT):
    """Reference for the graph layer of engine.build_graph: the full V x V
    distance matrix, the adjacency d <= r_i + r_j off the diagonal, and one
    hook of all its edges.  Returns (labels, min_cross, adjacency)."""
    dist = sphere.pairwise_distances(points, ar)
    near = dist <= ar.add(radii[:, None], radii[None, :])
    np.fill_diagonal(near, False)
    labels = hook_labels(len(points), np.argwhere(np.triu(near)))
    cross = labels[:, None] != labels[None, :]
    return labels, float(np.min(dist, where=cross, initial=math.inf)), near


def union_find_labels(V, edges):
    """Reference for engine.connected_components: union-find labels, each
    vertex labelled with the smallest index in its component."""
    parent = list(range(V))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for i, j in edges:
        ri, rj = find(int(i)), find(int(j))
        parent[max(ri, rj)] = min(ri, rj)
    return [find(a) for a in range(V)]


def frexp_round_value(t, x):
    """Reference for rounding.round_value: the frexp/rint/ldexp formula on
    whole arrays, with a float for a scalar or 0-d input."""
    arr = np.asarray(x, dtype=np.float64)
    m, e = np.frexp(arr)
    out = np.ldexp(np.rint(np.ldexp(m, t)), e - t)
    if np.ndim(x) == 0:
        return float(out)
    return out


def svd_sigma_min_many(M, ar=EXACT):
    """Reference for alpha.sigma_min_many: LAPACK's SVD for every n x n batch."""
    s = np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)[..., -1]
    return ar.const(s)


# References for the whole-array point kernel: the per-column, per-term
# loops it replaced.  Each element takes the same rounded operations in the
# same order, so the kernel must match them bit for bit.


def _column_monomials(exps, coeffs, X, ar):
    m = X.shape[0]
    if len(coeffs) == 0:
        return np.zeros(m)

    def term(J, c):
        out = np.full(m, ar.const(c))
        for k, e in enumerate(J):
            for _ in range(e):
                out = ar.mul(out, X[:, k])
        return out

    return ar.sum(term(J, c) for J, c in zip(exps.tolist(), coeffs.tolist()))


def column_evaluate_many(f, X, ar=EXACT):
    """Reference for polysys.evaluate_many: one term at a time."""
    X = np.atleast_2d(X)
    vals = np.empty((X.shape[0], f.n))
    for i, poly in enumerate(f.polynomials):
        vals[:, i] = _column_monomials(poly.exponents, poly.coefficients, X, ar)
    return vals, np.max(np.abs(vals), axis=1)


def column_jacobian_many(f, X, ar=EXACT):
    """Reference for polysys.jacobian_many: dX_k f_i has the terms c_J J_k X^(J - e_k)."""
    X = np.atleast_2d(X)
    out = np.empty((X.shape[0], f.n, f.n_vars))
    for i, poly in enumerate(f.polynomials):
        for k in range(f.n_vars):
            exps, coeffs = [], []
            for J, c in zip(poly.exponents.tolist(), poly.coefficients.tolist()):
                if J[k] > 0:
                    exps.append(J[:k] + [J[k] - 1] + J[k + 1:])
                    coeffs.append(c * J[k])
            exps = np.array(exps, dtype=np.int64).reshape(len(exps), f.n_vars)
            out[:, i, k] = _column_monomials(exps, np.array(coeffs), X, ar)
    return out


def column_project_many(Y, ar=EXACT):
    """Reference for sphere.project_many: one coordinate at a time."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    Yr = ar.const(Y)
    nrm = ar.sqrt(ar.sum(ar.mul(Yr[:, k], Yr[:, k]) for k in range(Y.shape[1])))
    return np.stack([ar.div(Yr[:, k], nrm) for k in range(Y.shape[1])], axis=1)


def column_tangent_basis_many(X, ar=EXACT):
    """Reference for sphere.tangent_basis_many: one entry of H at a time."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    m, dim = X.shape
    n = dim - 1
    diff = ar.sub(X, np.eye(dim)[-1])
    nrm = ar.sqrt(ar.sum(ar.mul(diff[:, k], diff[:, k]) for k in range(dim)))
    degenerate = np.asarray(nrm) < 1e-8
    safe = np.where(degenerate, 1.0, nrm)
    Y = np.stack([ar.div(diff[:, k], safe) for k in range(dim)], axis=1)
    H = np.empty((m, dim, n))
    two = ar.const(2.0)
    for kk in range(dim):
        for j in range(n):
            val = ar.mul(two, ar.mul(Y[:, kk], Y[:, j]))
            H[:, kk, j] = ar.sub(np.full(m, 1.0 if kk == j else 0.0), val)
    H[degenerate] = np.eye(dim)[:, :n]
    return H


def column_compute_M_many(f, X, ar=EXACT):
    """Reference for alpha.compute_M_many: one entry of M at a time."""
    X = np.atleast_2d(X)
    jac = column_jacobian_many(f, X, ar)
    H = column_tangent_basis_many(X, ar)
    inv_sqrt_d = [ar.div(ar.const(1.0), ar.sqrt(ar.const(float(d)))) for d in f.degrees]
    M = np.empty((X.shape[0], f.n, f.n))
    for i in range(f.n):
        for j in range(f.n):
            acc = ar.sum(ar.mul(jac[:, i, k], H[:, k, j]) for k in range(f.n_vars))
            M[:, i, j] = ar.mul(acc, inv_sqrt_d[i])
    return M


def reference_lattice_index(spec, rows):
    """sphere.lattice_index as a loop over coordinates: the row's mixed-radix
    offset within its face block, one coordinate at a time."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, spec.n + 1)
    half = 2**spec.k
    side = 2 * half
    dim = spec.n + 1
    on_face = np.abs(rows) == half
    if np.any(np.abs(rows) > half) or not np.all(on_face.any(axis=1)):
        raise ValueError(f"rows are not on the level-{spec.k} cube surface")
    face = np.argmax(on_face, axis=1)
    # Face j's blocks (j, +half) and (j, -half) each hold
    # (side - 1)^j (side + 1)^(n - j) rows.
    sizes = np.array([(side - 1) ** j * (side + 1) ** (dim - 1 - j) for j in range(dim)])
    starts = np.concatenate(([0], np.cumsum(2 * sizes)[:-1]))
    offset = np.zeros(len(rows), dtype=np.int64)
    for j in range(dim):
        before, after = j < face, j > face
        radix = np.where(before, side - 1, np.where(after, side + 1, 1))
        digit = np.where(before, rows[:, j] + half - 1, np.where(after, rows[:, j] + half, 0))
        offset = offset * radix + digit
    minus = rows[np.arange(len(rows)), face] < 0
    return starts[face] + np.where(minus, sizes[face], 0) + offset


def reference_children(spec, rows, cap=sphere.DEFAULT_GRID_CAP):
    """sphere.children by expanding all 3^(n+1) candidates 2p + e of each
    parent, filtering them to the finer surface, canonicalizing them with
    is_canonical and keeping one of each reference_lattice_index in index
    order; parents go sphere._CHUNK at a time, with the same merges and cap
    checks."""
    dim = spec.n + 1
    finer = sphere.CubeGridSpec(n=spec.n, k=spec.k + 1)
    steps = np.indices((3,) * dim).reshape(dim, -1).T - 1
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, dim)
    index, found, held, limit = [], [], 0, cap // 2
    for lo in range(0, max(len(rows), 1), sphere._CHUNK):
        cand = (2 * rows[lo:lo + sphere._CHUNK, None, :] + steps[None, :, :]).reshape(-1, dim)
        cand = cand[np.abs(cand).max(axis=1) == 2**finer.k]
        cand = np.where(sphere.is_canonical(cand)[:, None], cand, -cand)
        idx, first = np.unique(reference_lattice_index(finer, cand), return_index=True)
        index.append(idx)
        found.append(cand[first])
        held += len(idx)
        if held > limit or lo + sphere._CHUNK >= len(rows):
            if len(index) > 1:
                idx, first = np.unique(np.concatenate(index), return_index=True)
                index, found = [idx], [np.concatenate(found)[first]]
            sphere.check_cap(finer, 2 * len(idx), cap)
            held, limit = len(idx), max(cap // 2, 2 * len(idx))
    return found[0]
