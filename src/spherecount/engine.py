"""The counting loop: proximity graph, components, halting, refinement.

Each refinement level evaluates the whole projected cube grid, keeps the
points certified by the alpha test as graph vertices, joins vertices whose
certification caps intersect, and halts once (i) distinct components are
provably separated and (ii) every uncertified grid point has a residual
large enough to exclude zeros nearby.  At halt the component count r is
even (components pair up under x -> -x) and the number of zero rays is r/2.

Both modes run one set of formulas through the arithmetic provider; they
differ only in three constants (`_mode_constants`), which rounded mode
widens to absorb round-off.

Grid data is computed once per antipodal pair: every certified quantity is
invariant under x -> -x, so the engine evaluates only canonical points
(first nonzero lattice coordinate positive) and mirrors the results.  The
antipode of each grid row is known from the grid's layout
(`sphere.antipodes`), so the mirror map needs no search.  This halves the
work and makes the antipodal symmetry of the vertex set, and hence the
evenness of r, structural rather than numerical.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import alpha, polysys, sphere
from .rounding import EXACT, make_arithmetic

_CHUNK = 1 << 15


class InternalConsistencyError(RuntimeError):
    """Mathematically excluded state reached (e.g. odd component count)."""


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
        return asdict(self)


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
                {key: c[key] for key in ("representative", "zero", "beta")}
                for c in self.components
            ],
            "iterations": [it.to_dict() for it in self.iterations],
            "kappa_lower_bound": self.kappa_lower_bound,
            "original_norm": self.original_norm,
        }


def _canonical_map(lattice: np.ndarray, anti: np.ndarray):
    """Rows representing each antipodal pair once, plus a row -> data index map.

    anti[r] is the row of lattice[r]'s antipode.  Returns (canon_rows,
    canon_mask, map_to_canon) where map_to_canon[r] indexes into the
    canonical-data arrays for both a canonical row and its antipode.
    """
    for col in lattice.T:
        mirrored = col[anti]
        mirrored += col
        if mirrored.any():
            raise InternalConsistencyError("grid is not antipodally closed")
    first_nz = np.argmax(lattice != 0, axis=1)
    canon_mask = lattice[np.arange(len(lattice)), first_nz] > 0
    rank = np.cumsum(canon_mask) - 1
    return np.flatnonzero(canon_mask), canon_mask, np.where(canon_mask, rank, rank[anti])


def _grid_point_data(f, spec, ar, workers: int, cap: int):
    """Project the grid and evaluate residuals and sigma_min, per antipodal pair.

    Returns (grid_size, point_lookup, f_sup, sigma_min) where f_sup and
    sigma_min cover the full grid and point_lookup(indices) reconstructs the
    projected coordinates of selected grid points.
    """
    lattice = sphere.grid_lattice(spec, cap=cap)
    canon_rows, canon_mask, to_canon = _canonical_map(lattice, sphere.antipodes(spec))
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


def _mode_constants(ar) -> tuple[float, float, float]:
    """The three constants in which the modes differ, for the provider ar.

    (vertex alpha, slack, radicand): the vertex test compares against
    vertex alpha * sigma_min^2, radii and the condition (i) threshold carry
    the factor slack, and the condition (ii) threshold the factor
    sqrt(radicand) / 2.  Exact mode: (2 alpha_star, 1, 1).  Rounded mode
    absorbs round-off with (alpha_bullet, 3/2, 2).
    """
    consts = alpha.theory_constants()
    if ar.ctx is None:
        return 2.0 * consts.alpha_star, 1.0, 1.0
    return consts.alpha_bullet, 1.5, 2.0


def build_graph(
    f: polysys.PolynomialSystem,
    spec: sphere.CubeGridSpec,
    ar=EXACT,
    workers: int = 1,
    cap: int = sphere.DEFAULT_GRID_CAP,
) -> ProximityGraph:
    """Evaluate a grid level and assemble the proximity graph for the mode.

    f must be normalized (||f|| = 1).  Vertices pass
    n ||f(x)||_inf D^{3/2} < a sigma_min^2 and carry the radius
    c sigma sqrt(n) ||f(x)||_inf / sigma_min, with (a, c) = (2 alpha_star, 1)
    in exact mode and (alpha_bullet, 3/2) in rounded mode; every operation
    goes through the provider.  Edges join vertices with d(x, y) <= r_x + r_y,
    distances in the mode's arithmetic.
    """
    if abs(f.norm - 1.0) > 1e-9:
        raise ValueError("build_graph expects a normalized system")
    vertex_alpha, slack, _ = _mode_constants(ar)
    grid_size, point_lookup, f_sup, smin = _grid_point_data(f, spec, ar, workers, cap)
    n, D = float(f.n), float(f.D)
    lhs = ar.mul(ar.mul(ar.const(n), f_sup), ar.mul(ar.const(D), ar.sqrt(ar.const(D))))
    vertex_mask = lhs < ar.mul(ar.const(vertex_alpha), ar.mul(smin, smin))

    vertex_indices = np.flatnonzero(vertex_mask)
    Xv = point_lookup(vertex_indices)
    sigma = alpha.theory_constants().sigma
    coef = ar.mul(ar.mul(ar.const(slack), ar.const(sigma)), ar.sqrt(ar.const(n)))
    radii = ar.div(ar.mul(coef, f_sup[vertex_indices]), smin[vertex_indices])

    if len(Xv):
        dist = sphere.pairwise_distances(Xv, ar)
        iu, ju = np.triu_indices(len(Xv), k=1)
        keep = (dist <= ar.add(radii[:, None], radii[None, :]))[iu, ju]
        edges = np.stack([iu[keep], ju[keep]], axis=1)
    else:
        dist, edges = np.zeros((0, 0)), np.zeros((0, 2), dtype=np.int64)

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
    """Partition of the vertex list; ids are smallest member indices."""
    V = graph.n_vertices
    labels = np.arange(V)
    if len(graph.edges):
        # Imported on first use: scipy.sparse adds ~45 ms and ~5 MB to start-up,
        # and most coarse levels have no edges.
        from scipy.sparse import coo_matrix, csgraph

        i, j = graph.edges.T
        adj = coo_matrix((np.ones(len(i)), (i, j)), shape=(V, V))
        _, raw = csgraph.connected_components(adj, directed=False)
        # first[c] is the smallest vertex carrying scipy's label c.
        _, first = np.unique(raw, return_index=True)
        labels = first[raw]
    order = np.argsort(labels, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1) if V else []
    return ComponentSet(labels=labels, components=[g.tolist() for g in groups])


def halting_report(
    f: polysys.PolynomialSystem,
    graph: ProximityGraph,
    components: ComponentSet,
    ar=EXACT,
) -> IterationReport:
    """Evaluate the two halting conditions at the graph's level.

    Condition (i): every cross-component vertex pair is farther apart than
    c pi eta sqrt(n+1).  Condition (ii): every grid point that failed the
    vertex test has residual above (sqrt(r) / 2) pi eta sqrt((n+1) D).  The
    mode's slack c and radicand r come from `_mode_constants`; the
    thresholds are computed through the provider.  Empty quantifiers pass
    vacuously.
    """
    _, slack, radicand = _mode_constants(ar)
    eta = graph.spec.eta
    labels = components.labels
    if graph.n_vertices and len(components.components) > 1:
        cross = labels[:, None] != labels[None, :]
        min_cross = float(np.min(graph.distances[cross]))
    else:
        min_cross = math.inf
    excluded = graph.f_sup[~graph.vertex_mask]
    min_excluded = float(np.min(excluded)) if len(excluded) else math.inf

    def threshold(factor, m: int):
        # factor * pi * eta * sqrt(m), in this order, through the provider
        pi = ar.const(math.pi)
        return ar.mul(ar.mul(ar.mul(factor, pi), ar.const(eta)), ar.sqrt(ar.const(float(m))))

    dim = graph.spec.n + 1
    thr_i = threshold(ar.const(slack), dim)
    thr_ii = threshold(ar.div(ar.sqrt(ar.const(radicand)), ar.const(2.0)), dim * f.D)
    return IterationReport(
        k=graph.spec.k,
        eta=eta,
        grid_size=graph.grid_size,
        vertex_count=graph.n_vertices,
        component_count=len(components.components),
        condition_i_pass=bool(min_cross > thr_i),
        condition_ii_pass=bool(min_excluded > thr_ii),
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
    count, status, comp_records = None, "iteration-cap-reached", []
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
            for members in comps.components:
                rep_point = graph.vertex_points[members[0]]
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
            count, status = r // 2, "converged"
            break
    return CountResult(
        count=count,
        status=status,
        components=comp_records,
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
