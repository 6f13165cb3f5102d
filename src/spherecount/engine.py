"""The counting loop: proximity graph, components, halting, refinement.

Each refinement level evaluates the whole projected cube grid, keeps the
points certified by the alpha test as graph vertices, joins vertices whose
certification caps intersect, and halts once (i) distinct components are
provably separated and (ii) every uncertified grid point has a residual
large enough to exclude zeros nearby.  At halt the component count r is
even (components pair up under x -> -x) and the number of zero rays is r/2.

Grid data is computed once per antipodal pair: every certified quantity is
invariant under x -> -x, so the engine evaluates only canonical points
(first nonzero lattice coordinate positive) and mirrors the results.  This
halves the work and makes the antipodal symmetry of the vertex set, and
hence the evenness of r, structural rather than numerical.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import alpha, polysys, sphere
from .rounding import EXACT, RoundedArithmetic, make_arithmetic

_CHUNK = 1 << 15


class InternalConsistencyError(RuntimeError):
    """Mathematically excluded state reached (e.g. odd component count)."""


class UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Keep the smaller index as the root for deterministic component ids.
            if ra > rb:
                ra, rb = rb, ra
            self.parent[rb] = ra


@dataclass
class ProximityGraph:
    spec: sphere.CubeGridSpec
    grid_size: int
    f_sup: np.ndarray            # (N,) residual sup norms
    sigma_min: np.ndarray        # (N,)
    vertex_mask: np.ndarray      # (N,) bool, the mode's A-test
    vertex_indices: np.ndarray   # grid indices of vertices, increasing
    vertex_points: np.ndarray    # (V, n+1) projected vertex coordinates
    radii: np.ndarray            # (V,) certification-cap radii
    distances: np.ndarray        # (V, V) angular distances, mode arithmetic
    edges: np.ndarray            # (E, 2) vertex-list index pairs, i < j

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_indices)


@dataclass
class ComponentSet:
    labels: np.ndarray           # (V,) component id = smallest member's list index
    components: list[list[int]]  # vertex-list indices, grouped, deterministic order


@dataclass
class IterationReport:
    k: int
    eta: float
    grid_size: int
    vertex_count: int
    component_count: int
    condition_i_pass: bool
    condition_ii_pass: bool
    min_intercomponent_distance: float
    min_excluded_fsup: float

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "eta": self.eta,
            "grid_size": self.grid_size,
            "vertex_count": self.vertex_count,
            "component_count": self.component_count,
            "condition_i_pass": self.condition_i_pass,
            "condition_ii_pass": self.condition_ii_pass,
            "min_intercomponent_distance": self.min_intercomponent_distance,
            "min_excluded_fsup": self.min_excluded_fsup,
        }


@dataclass
class CountResult:
    count: int | None
    status: str                  # "converged" | "iteration-cap-reached"
    components: list[dict] = field(default_factory=list)
    iterations: list[IterationReport] = field(default_factory=list)
    kappa_lower_bound: float = 1.0
    original_norm: float = 1.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "status": self.status,
            "components": [
                {
                    "representative": c["representative"],
                    "zero": c["zero"],
                    "beta": c["beta"],
                }
                for c in self.components
            ],
            "iterations": [it.to_dict() for it in self.iterations],
            "kappa_lower_bound": self.kappa_lower_bound,
            "original_norm": self.original_norm,
        }


def _encode_lattice(lattice: np.ndarray, half: int) -> np.ndarray:
    """Collision-free int64 key per lattice row (coordinates in [-half, half])."""
    base = 2 * half + 1
    keys = np.zeros(len(lattice), dtype=np.int64)
    for col in range(lattice.shape[1]):
        keys = keys * base + (lattice[:, col] + half)
    return keys


def _canonical_map(lattice: np.ndarray, half: int):
    """Rows representing each antipodal pair once, plus a row -> data index map.

    Returns (canon_rows, map_to_canon) where map_to_canon[r] indexes into the
    canonical-data arrays for both a canonical row and its antipode.
    """
    first_nz = np.argmax(lattice != 0, axis=1)
    canon_mask = lattice[np.arange(len(lattice)), first_nz] > 0
    canon_rows = np.flatnonzero(canon_mask)
    ckeys = _encode_lattice(lattice[canon_rows], half)
    order = np.argsort(ckeys)
    sorted_keys = ckeys[order]
    map_to_canon = np.empty(len(lattice), dtype=np.int64)
    map_to_canon[canon_rows] = np.arange(len(canon_rows))
    other = np.flatnonzero(~canon_mask)
    neg_keys = _encode_lattice(-lattice[other], half)
    pos = np.searchsorted(sorted_keys, neg_keys)
    found = pos < len(sorted_keys)
    found[found] = sorted_keys[pos[found]] == neg_keys[found]
    if not found.all():
        raise InternalConsistencyError("grid is not antipodally closed")
    map_to_canon[other] = order[pos]
    return canon_rows, canon_mask, map_to_canon


def _grid_point_data(f, spec, ar, workers: int, cap: int):
    """Project the grid and evaluate residuals and sigma_min, per antipodal pair.

    Returns (grid_size, point_lookup, f_sup, sigma_min) where f_sup and
    sigma_min cover the full grid and point_lookup(indices) reconstructs the
    projected coordinates of selected grid points.
    """
    lattice = sphere.grid_lattice(spec, cap=cap)
    half = 2**spec.k
    canon_rows, canon_mask, to_canon = _canonical_map(lattice, half)
    Yc = lattice[canon_rows].astype(np.float64) * spec.eta
    del lattice
    m = len(Yc)
    Xc = np.empty((m, spec.n + 1))
    sup_c = np.empty(m)
    smin_c = np.empty(m)

    def work(lo: int, hi: int):
        X = sphere.project_many(Yc[lo:hi], ar)
        _, sup = polysys.evaluate_many(f, X, ar)
        M = alpha.compute_M_many(f, X, ar)
        Xc[lo:hi] = X
        sup_c[lo:hi] = sup
        smin_c[lo:hi] = alpha.sigma_min_many(M, ar)

    bounds = [(lo, min(lo + _CHUNK, m)) for lo in range(0, m, _CHUNK)]
    if workers > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda b: work(*b), bounds))
    else:
        for b in bounds:
            work(*b)

    sign = np.where(canon_mask, 1.0, -1.0)

    def point_lookup(indices: np.ndarray) -> np.ndarray:
        return Xc[to_canon[indices]] * sign[indices, None]

    return len(canon_mask), point_lookup, sup_c[to_canon], smin_c[to_canon]


def build_graph(
    f: polysys.PolynomialSystem,
    spec: sphere.CubeGridSpec,
    ar=EXACT,
    workers: int = 1,
    cap: int = sphere.DEFAULT_GRID_CAP,
) -> ProximityGraph:
    """Evaluate a grid level and assemble the proximity graph for the mode.

    f must be normalized (||f|| = 1).  Exact mode: vertices pass
    alpha_bar < alpha_star and carry radius sigma * beta_bar.  Rounded mode:
    the vertex test is fl(n ||f(x)||_inf D^{3/2}) < fl(alpha_bullet
    sigma_min^2) and radii are fl((3/2) sigma sqrt(n) ||f(x)||_inf /
    sigma_min).  Edges join vertices with d(x, y) <= r_x + r_y, distances
    in the mode's arithmetic.
    """
    if abs(f.norm - 1.0) > 1e-9:
        raise ValueError("build_graph expects a normalized system")
    consts = alpha.theory_constants()
    grid_size, point_lookup, f_sup, smin = _grid_point_data(f, spec, ar, workers, cap)
    n = f.n
    D32 = f.D * math.sqrt(f.D)
    if isinstance(ar, RoundedArithmetic):
        lhs = ar.mul(ar.mul(ar.const(float(n)), f_sup), ar.mul(ar.const(float(f.D)), ar.sqrt(ar.const(float(f.D)))))
        rhs = ar.mul(ar.const(consts.alpha_bullet), ar.mul(smin, smin))
        vertex_mask = lhs < rhs
    else:
        vertex_mask = n * f_sup * D32 < 2.0 * consts.alpha_star * smin**2

    vertex_indices = np.flatnonzero(vertex_mask)
    Xv = point_lookup(vertex_indices)
    if isinstance(ar, RoundedArithmetic):
        coef = ar.mul(ar.mul(ar.const(1.5), ar.const(consts.sigma)), ar.sqrt(ar.const(float(n))))
        radii = ar.div(ar.mul(coef, f_sup[vertex_indices]), smin[vertex_indices])
    else:
        radii = consts.sigma * math.sqrt(n) * f_sup[vertex_indices] / smin[vertex_indices]
    radii = np.atleast_1d(np.asarray(radii, dtype=float))

    dist = sphere.pairwise_distances(Xv, ar) if len(Xv) else np.zeros((0, 0))
    if len(Xv):
        rsum = ar.add(radii[:, None], radii[None, :])
        adj = dist <= rsum
        iu, ju = np.triu_indices(len(Xv), k=1)
        keep = adj[iu, ju]
        edges = np.stack([iu[keep], ju[keep]], axis=1)
    else:
        edges = np.zeros((0, 2), dtype=np.int64)

    return ProximityGraph(
        spec=spec,
        grid_size=grid_size,
        f_sup=f_sup,
        sigma_min=smin,
        vertex_mask=vertex_mask,
        vertex_indices=vertex_indices,
        vertex_points=Xv,
        radii=radii,
        distances=dist,
        edges=edges,
    )


def connected_components(graph: ProximityGraph) -> ComponentSet:
    """Union-find partition of the vertex list; ids are smallest member indices."""
    V = graph.n_vertices
    uf = UnionFind(V)
    for i, j in graph.edges.tolist():
        uf.union(i, j)
    labels = np.array([uf.find(i) for i in range(V)], dtype=np.int64)
    comps: dict[int, list[int]] = {}
    for i, lab in enumerate(labels.tolist()):
        comps.setdefault(lab, []).append(i)
    ordered = [comps[key] for key in sorted(comps)]
    return ComponentSet(labels=labels, components=ordered)


def check_halt(graph: ProximityGraph, components: ComponentSet, eta: float, ar=EXACT):
    """Evaluate the two halting conditions; returns (halt, diagnostics).

    Condition (i): every cross-component vertex pair is farther apart than
    the mode's distance threshold.  Condition (ii): every grid point that
    failed the A-test has residual above the mode's exclusion threshold.
    Empty quantifiers pass vacuously.
    """
    n = graph.spec.n
    labels = components.labels
    if graph.n_vertices and len(components.components) > 1:
        cross = labels[:, None] != labels[None, :]
        min_cross = float(np.min(graph.distances[cross]))
    else:
        min_cross = math.inf
    excluded = graph.f_sup[~graph.vertex_mask]
    min_excluded = float(np.min(excluded)) if len(excluded) else math.inf

    dim = n + 1
    if isinstance(ar, RoundedArithmetic):
        thr_i = ar.mul(
            ar.mul(ar.mul(ar.const(1.5), ar.const(math.pi)), ar.const(eta)),
            ar.sqrt(ar.const(float(dim))),
        )
    else:
        thr_i = math.pi * eta * math.sqrt(dim)
    cond_i = min_cross > thr_i
    return cond_i, min_cross, float(thr_i), min_excluded


def _threshold_ii(n: int, D: int, eta: float, ar=EXACT) -> float:
    dimD = float((n + 1) * D)
    if isinstance(ar, RoundedArithmetic):
        half_sqrt2 = ar.div(ar.sqrt(ar.const(2.0)), ar.const(2.0))
        return float(
            ar.mul(
                ar.mul(ar.mul(half_sqrt2, ar.const(math.pi)), ar.const(eta)),
                ar.sqrt(ar.const(dimD)),
            )
        )
    return 0.5 * math.pi * eta * math.sqrt(dimD)


def halting_report(
    f: polysys.PolynomialSystem,
    graph: ProximityGraph,
    components: ComponentSet,
    ar=EXACT,
) -> IterationReport:
    eta = graph.spec.eta
    cond_i, min_cross, _, min_excluded = check_halt(graph, components, eta, ar)
    thr_ii = _threshold_ii(graph.spec.n, f.D, eta, ar)
    cond_ii = min_excluded > thr_ii
    return IterationReport(
        k=graph.spec.k,
        eta=eta,
        grid_size=graph.grid_size,
        vertex_count=graph.n_vertices,
        component_count=len(components.components),
        condition_i_pass=bool(cond_i),
        condition_ii_pass=bool(cond_ii),
        min_intercomponent_distance=min_cross,
        min_excluded_fsup=min_excluded,
    )


def initial_level(n: int) -> int:
    """Largest eta = 2^-k not exceeding 2 sqrt(2) / (pi sqrt(n+1)), k >= 1."""
    eta0 = 2.0 * math.sqrt(2.0) / (math.pi * math.sqrt(n + 1))
    return max(1, math.ceil(-math.log2(eta0)))


def _kappa_level_estimate(f_sup: np.ndarray, smin: np.ndarray, n: int) -> float:
    with np.errstate(divide="ignore"):
        mu = np.where(smin > 0, math.sqrt(n) / smin, np.inf)
        inv_res = np.where(f_sup > 0, 1.0 / f_sup, np.inf)
    return float(np.max(np.minimum(mu, inv_res)))


def count_roots(
    f: polysys.PolynomialSystem,
    mode: str = "exact",
    bits: int | None = None,
    max_iterations: int = 24,
    workers: int = 1,
    grid_cap: int = sphere.DEFAULT_GRID_CAP,
    refine_steps: int = 30,
    beta_tol: float = 1e-12,
) -> CountResult:
    """Count the real zero rays of f by iterative grid refinement.

    Runs the refinement loop from the coarsest admissible mesh, halving eta
    until both halting conditions pass, then returns r/2 together with a
    Newton-refined approximate zero per component.  Ill-posed systems never
    halt; max_iterations converts that into status "iteration-cap-reached".
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    ar = make_arithmetic(mode, bits)
    fn = f.normalized()
    k0 = initial_level(fn.n)
    reports: list[IterationReport] = []
    kappa_hat = 1.0
    for step in range(max_iterations):
        spec = sphere.CubeGridSpec(n=fn.n, k=k0 + step)
        try:
            graph = build_graph(fn, spec, ar, workers=workers, cap=grid_cap)
        except sphere.GridTooLargeError:
            # Point budget exhausted before halting: same clean failure as
            # running out of refinement levels.
            break
        comps = connected_components(graph)
        report = halting_report(fn, graph, comps, ar)
        reports.append(report)
        kappa_hat = max(kappa_hat, _kappa_level_estimate(graph.f_sup, graph.sigma_min, fn.n))
        if report.condition_i_pass and report.condition_ii_pass:
            r = len(comps.components)
            if r % 2 != 0:
                raise InternalConsistencyError(
                    f"odd component count {r} at halt; antipodal symmetry violated"
                )
            comp_records = []
            for members in comps.components:
                rep_list_index = members[0]
                rep_point = graph.vertex_points[rep_list_index]
                refined = alpha.newton_refine(
                    fn, rep_point, max_steps=refine_steps, beta_tol=beta_tol
                )
                comp_records.append(
                    {
                        "representative": [float(v) for v in rep_point],
                        "zero": [float(v) for v in refined.point],
                        "beta": float(refined.beta_trace[-1]) if refined.beta_trace else 0.0,
                        "beta_trace": [float(b) for b in refined.beta_trace],
                        "envelope_ok": bool(refined.envelope_ok),
                    }
                )
            return CountResult(
                count=r // 2,
                status="converged",
                components=comp_records,
                iterations=reports,
                kappa_lower_bound=kappa_hat,
                original_norm=fn.original_norm,
            )
    return CountResult(
        count=None,
        status="iteration-cap-reached",
        components=[],
        iterations=reports,
        kappa_lower_bound=kappa_hat,
        original_norm=fn.original_norm,
    )


def estimate_kappa(
    f: polysys.PolynomialSystem,
    spec: sphere.CubeGridSpec,
    workers: int = 1,
    cap: int = sphere.DEFAULT_GRID_CAP,
) -> float:
    """Grid lower bound for the condition number kappa(f), f normalized.

    max over grid points of min{mu_norm(f, x), 1 / ||f(x)||_inf}.
    """
    fn = f.normalized()
    _, _, f_sup, smin = _grid_point_data(fn, spec, EXACT, workers, cap)
    return _kappa_level_estimate(f_sup, smin, fn.n)
