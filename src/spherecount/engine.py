"""The counting loop: proximity graph, components, halting, refinement.

Each refinement level classifies points of the projected cube grid: the
alpha test certifies some as graph vertices, the graph joins vertices whose
certification caps intersect, and the loop halts once (i) distinct
components are provably separated and (ii) every grid point that is not a
vertex has a residual large enough to exclude zeros nearby.  At halt the
component count r is even (components pair up under x -> -x) and the
number of zero rays is r/2.

Both modes run one set of formulas through the arithmetic provider; they
differ only in the constants of `_mode_constants`, which rounded mode
widens to absorb round-off.

The first level evaluates the whole grid.  In exact mode each later level
evaluates only the children of the points its predecessor left unresolved:
a point whose residual exceeds, by the Lipschitz bound over its cell plus
a floating-point margin, both the vertex bound and the next condition (ii)
threshold certifies every finer grid point in its cell as a non-vertex
that passes (ii) (`_unresolved_children`).  The skipped points enter
condition (ii) through that certified lower bound, so the vertices, edges,
components and halting verdicts are those of the whole grid.  Rounded mode
evaluates every grid point at every level.

Grid data is computed once per antipodal pair: every certified quantity is
invariant under x -> -x, so the engine evaluates only canonical points
(first nonzero lattice coordinate positive) and takes each vertex's
antipode as its negation.  This halves the work and makes the antipodal
symmetry of the vertex set, and hence the evenness of r, structural rather
than numerical.
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
    grid_size: int               # nominal point count of the level
    rows: np.ndarray             # (m, n+1) evaluated canonical lattice rows, grid order
    f_sup: np.ndarray            # (m,) residual sup norms at rows
    sigma_min: np.ndarray        # (m,)
    vertex_mask: np.ndarray      # (m,) bool, the mode's A-test at rows
    inherited_fsup: float        # lower bound of the skipped points' residuals (inf: none)
    vertex_indices: np.ndarray   # grid_lattice indices of vertices and antipodes, increasing
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
class LevelTrace:
    """Per-level figures for `count --trace`, outside the result document."""

    evaluated: int               # grid points with computed data, antipodes included
    thr_i: float                 # condition (i) threshold
    thr_ii: float                # condition (ii) threshold


@dataclass
class CountResult:
    count: int | None
    status: str                  # "converged" | "iteration-cap-reached"
    components: list[dict] = field(default_factory=list)
    iterations: list[IterationReport] = field(default_factory=list)
    kappa_lower_bound: float = 1.0
    original_norm: float = 1.0
    trace: list[LevelTrace] = field(default_factory=list)

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


def _grid_point_data(f, spec, rows, ar, workers: int):
    """Project canonical lattice rows and evaluate residuals and sigma_min.

    Returns (X, f_sup, sigma_min), one entry per row.  The data of a row's
    antipode is the same, with X negated.
    """
    m = len(rows)
    X = np.empty((m, spec.n + 1))
    f_sup = np.empty(m)
    smin = np.empty(m)

    def work(lo: int, hi: int):
        Xc = sphere.project_many(rows[lo:hi] * spec.eta, ar)
        _, sup = polysys.evaluate_many(f, Xc, ar)
        M = alpha.compute_M_many(f, Xc, ar)
        X[lo:hi] = Xc
        f_sup[lo:hi] = sup
        smin[lo:hi] = alpha.sigma_min_many(M, ar)

    bounds = [(lo, min(lo + _CHUNK, m)) for lo in range(0, m, _CHUNK)]
    if workers > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda b: work(*b), bounds))
    else:
        for b in bounds:
            work(*b)
    return X, f_sup, smin


def _canonical_rows(spec, cap: int) -> np.ndarray:
    """Every canonical row of the level's grid, in grid_lattice order."""
    lattice = sphere.grid_lattice(spec, cap=cap)
    return lattice[sphere.is_canonical(lattice)]


def _mode_constants(ar) -> tuple[float, float, float, bool]:
    """The four constants in which the modes differ, for the provider ar.

    (vertex alpha, slack, radicand, prunes): the vertex test compares
    against vertex alpha * sigma_min^2, radii and the condition (i)
    threshold carry the factor slack, the condition (ii) threshold the
    factor sqrt(radicand) / 2, and `prunes` says whether levels after the
    first evaluate only the cells left unresolved (`_unresolved_children`).
    Exact mode: (2 alpha_star, 1, 1, True).  Rounded mode absorbs round-off
    with (alpha_bullet, 3/2, 2) and evaluates every grid point, since no
    margin for its emulated arithmetic is derived.
    """
    consts = alpha.theory_constants()
    if ar.t is None:
        return 2.0 * consts.alpha_star, 1.0, 1.0, True
    return consts.alpha_bullet, 1.5, 2.0, False


def build_graph(
    f: polysys.PolynomialSystem,
    spec: sphere.CubeGridSpec,
    ar=EXACT,
    workers: int = 1,
    cap: int = sphere.DEFAULT_GRID_CAP,
    rows: np.ndarray | None = None,
    inherited_fsup: float = math.inf,
) -> ProximityGraph:
    """Evaluate a grid level and assemble the proximity graph for the mode.

    f must be normalized (||f|| = 1).  `rows` are the canonical lattice rows
    to evaluate, in grid_lattice order; None evaluates the whole grid.  The
    grid points left out must be certified non-vertices whose residuals are
    at least `inherited_fsup`.  The cap applies to the points the level
    holds (the nominal grid, or the given rows and their antipodes) and to
    the V^2 entries of the vertices' distance matrix.

    Vertices pass n ||f(x)||_inf D^{3/2} < a sigma_min^2 and carry the radius
    c sigma sqrt(n) ||f(x)||_inf / sigma_min, with (a, c) = (2 alpha_star, 1)
    in exact mode and (alpha_bullet, 3/2) in rounded mode; every operation
    goes through the provider.  Edges join vertices with d(x, y) <= r_x + r_y,
    distances in the mode's arithmetic.
    """
    if abs(f.norm - 1.0) > 1e-9:
        raise ValueError("build_graph expects a normalized system")
    vertex_alpha, slack, _, _ = _mode_constants(ar)
    if rows is None:
        rows = _canonical_rows(spec, cap)
    else:
        sphere.check_cap(spec, 2 * len(rows), cap)
    X, f_sup, smin = _grid_point_data(f, spec, rows, ar, workers)
    n, D = float(f.n), float(f.D)
    lhs = ar.mul(ar.mul(ar.const(n), f_sup), ar.mul(ar.const(D), ar.sqrt(ar.const(D))))
    vertex_mask = lhs < ar.mul(ar.const(vertex_alpha), ar.mul(smin, smin))

    # Each canonical vertex stands for itself and its antipode; list both
    # in grid_lattice order.
    canon = np.flatnonzero(vertex_mask)
    index = np.concatenate(
        (sphere.lattice_index(spec, rows[canon]), sphere.lattice_index(spec, -rows[canon]))
    )
    order = np.argsort(index)
    source = np.concatenate((canon, canon))[order]
    sign = np.repeat([1.0, -1.0], len(canon))[order]
    Xv = X[source] * sign[:, None]
    sigma = alpha.theory_constants().sigma
    coef = ar.mul(ar.mul(ar.const(slack), ar.const(sigma)), ar.sqrt(ar.const(n)))
    radii = ar.div(ar.mul(coef, f_sup[source]), smin[source])

    if len(Xv):
        if len(Xv) ** 2 > cap:
            raise sphere.GridTooLargeError(
                f"level k={spec.k} has {len(Xv)} vertices: {len(Xv) ** 2} distances, "
                f"cap is {cap}"
            )
        dist = sphere.pairwise_distances(Xv, ar)
        iu, ju = np.triu_indices(len(Xv), k=1)
        keep = (dist <= ar.add(radii[:, None], radii[None, :]))[iu, ju]
        edges = np.stack([iu[keep], ju[keep]], axis=1)
    else:
        dist, edges = np.zeros((0, 0)), np.zeros((0, 2), dtype=np.int64)

    return ProximityGraph(
        spec=spec,
        grid_size=spec.point_count(),
        rows=rows,
        f_sup=f_sup,
        sigma_min=smin,
        vertex_mask=vertex_mask,
        inherited_fsup=inherited_fsup,
        vertex_indices=index[order],
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


def _thresholds(f: polysys.PolynomialSystem, spec: sphere.CubeGridSpec, ar) -> tuple:
    """(thr_i, thr_ii) at the level of spec, computed through the provider.

    thr_i = c pi eta sqrt(n+1) and thr_ii = (sqrt(r) / 2) pi eta sqrt((n+1) D),
    with the mode's slack c and radicand r from `_mode_constants`.
    """
    _, slack, radicand, _ = _mode_constants(ar)

    def threshold(factor, m: int):
        # factor * pi * eta * sqrt(m), in this order, through the provider
        pi = ar.const(math.pi)
        return ar.mul(ar.mul(ar.mul(factor, pi), ar.const(spec.eta)), ar.sqrt(ar.const(float(m))))

    dim = spec.n + 1
    thr_i = threshold(ar.const(slack), dim)
    thr_ii = threshold(ar.div(ar.sqrt(ar.const(radicand)), ar.const(2.0)), dim * f.D)
    return thr_i, thr_ii


def halting_report(
    f: polysys.PolynomialSystem,
    graph: ProximityGraph,
    components: ComponentSet,
    ar=EXACT,
) -> IterationReport:
    """Evaluate the two halting conditions at the graph's level.

    Condition (i): every cross-component vertex pair is farther apart than
    thr_i.  Condition (ii): every grid point that failed the vertex test has
    residual above thr_ii (see `_thresholds`).  Grid points the level did
    not evaluate count through the graph's certified lower bound
    `inherited_fsup`.  Empty quantifiers pass vacuously.
    """
    labels = components.labels
    if graph.n_vertices and len(components.components) > 1:
        cross = labels[:, None] != labels[None, :]
        min_cross = float(np.min(graph.distances[cross]))
    else:
        min_cross = math.inf
    excluded = graph.f_sup[~graph.vertex_mask]
    min_excluded = min(float(np.min(excluded, initial=math.inf)), graph.inherited_fsup)
    thr_i, thr_ii = _thresholds(f, graph.spec, ar)
    return IterationReport(
        k=graph.spec.k,
        eta=graph.spec.eta,
        grid_size=graph.grid_size,
        vertex_count=graph.n_vertices,
        component_count=len(components.components),
        condition_i_pass=bool(min_cross > thr_i),
        condition_ii_pass=bool(min_excluded > thr_ii),
        min_intercomponent_distance=min_cross,
        min_excluded_fsup=min_excluded,
    )


def _prune_margin(f: polysys.PolynomialSystem) -> float:
    """Absolute slack in the pruning test that absorbs floating-point error.

    With u = 2^-53, n equations, largest degree D and at most S monomials
    per equation, to first order in u (the final constant leaves room for
    the rest):

    * Residuals.  x = fl(y / ||y||) is within (n+3) u of the exact
      projection, and ||Df_i(z)|| <= d_i ||z||^(d_i-1) for ||f_i|| <= 1
      (Kostlan), so that costs D (n+3) u.  Summing S terms c_J x^J of d
      products each errs by at most (D+S) u sum_J |c_J x^J| <= (D+S) u,
      by Cauchy-Schwarz with the multinomial weights of the Weyl norm.
      Normalization leaves ||f_i|| <= 1 + (S+3) u.  So a computed f_sup is
      within e_f = ((n+4) D + 2S + 3) u <= 4 (n+1)(D+S) u of the exact one.
    * sigma_min <= 1.  Each row of M has exact norm ||Df_i(x)|_T|| / sqrt(d_i)
      <= ||f_i|| <= 1, so the exact sigma_min <= ||M||_F / sqrt(n) <= 1.
      The same bounds applied to the derivative (through ||Dg|| for
      g = sum_J |c_J| X^J), to the Householder basis and to the products
      put each computed row within sqrt(D) (D+S+1 + D(n+3) + 8 (n+1)^(3/2)) u
      of the exact one, and the singular value kernels add at most
      8 n u ||M||_F, so the computed sigma_min <= 1 + d_s with
      d_s <= 16 D (n+1)^2 (D+S) u.
    * The vertex test then fails at every point whose computed residual
      is at least the computed 2 alpha_star / (n D^{3/2}) (< 0.08) plus
      0.08 (2 d_s + 10 u), and computing the pruning test itself errs by
      at most 10 u (2 + 2 sqrt(D) rho_1) <= 83 D (n+1) u.

    Twice e_f (a parent's and a descendant's residual) plus those terms
    stays below 28 D (n+1)^2 (D+S) u; the margin is 2^7 D (n+1)^2 (D+S) u.
    """
    return 2.0**7 * f.D * (f.n + 1) ** 2 * (f.D + f.S) * 2.0**-53


def _unresolved_children(f: polysys.PolynomialSystem, graph: ProximityGraph, ar,
                         cap: int = sphere.DEFAULT_GRID_CAP):
    """Rows the next level must evaluate, and the next level's inherited bound.

    The descendants of an evaluated level-k point p (its children 2p + e,
    e in {-1, 0, 1}^(n+1), their children, and so on) lie on the cube
    within sup-distance sum_i 2^-(k+i) < 2^-k of p, so by the projection
    bound d(phi(y), phi(z)) <= (pi/2) ||y - z|| within angle
    2 rho_{k+1} = 2 (pi/2) 2^-(k+1) sqrt(n+1) of it.  As ||f(x)||_inf is
    sqrt(D)-Lipschitz, each has residual above
    b(p) = f_sup(p) - 2 sqrt(D) rho_{k+1} - margin (`_prune_margin`).  When
    b(p) > max(2 alpha_star / (n D^{3/2}), thr_ii(k+1)), p resolves its cell
    for good: as sigma_min <= 1 no descendant passes the vertex test, and
    each passes condition (ii) at level k+1 and, as thr_ii halves with eta,
    at every later level.  The next level evaluates the children of the
    unresolved points only.  Every grid point it skips has a resolved
    ancestor, so its residual is above the smallest b(p) over all resolved
    points, which the returned bound carries.
    """
    vertex_alpha = _mode_constants(ar)[0]
    finer = sphere.CubeGridSpec(n=graph.spec.n, k=graph.spec.k + 1)
    n, D = f.n, f.D
    rho = 0.5 * math.pi * finer.eta * math.sqrt(n + 1)
    bound = graph.f_sup - 2.0 * math.sqrt(D) * rho - _prune_margin(f)
    _, thr_ii = _thresholds(f, finer, ar)
    resolved = bound > max(vertex_alpha / (n * (D * math.sqrt(D))), float(thr_ii))
    inherited = min(graph.inherited_fsup, float(np.min(bound[resolved], initial=math.inf)))
    return sphere.children(graph.spec, graph.rows[~resolved], cap), inherited


def _levels(fn: polysys.PolynomialSystem, ar=EXACT, workers: int = 1,
            cap: int = sphere.DEFAULT_GRID_CAP):
    """Yield (graph, components, report) for each level from initial_level(n) on.

    The first level evaluates the whole grid.  When the mode prunes
    (`_mode_constants`), each later level evaluates only the children of
    the points its predecessor left unresolved (`_unresolved_children`);
    otherwise every level evaluates the whole grid.
    """
    prunes = _mode_constants(ar)[3]
    rows, inherited = None, math.inf
    k = initial_level(fn.n)
    while True:
        spec = sphere.CubeGridSpec(n=fn.n, k=k)
        graph = build_graph(fn, spec, ar, workers=workers, cap=cap, rows=rows,
                            inherited_fsup=inherited)
        comps = connected_components(graph)
        yield graph, comps, halting_report(fn, graph, comps, ar)
        if prunes:
            rows, inherited = _unresolved_children(fn, graph, ar, cap)
        k += 1


def initial_level(n: int) -> int:
    """Largest eta = 2^-k not exceeding 2 sqrt(2) / (pi sqrt(n+1)), k >= 1."""
    eta0 = 2.0 * math.sqrt(2.0) / (math.pi * math.sqrt(n + 1))
    return max(1, math.ceil(-math.log2(eta0)))


def _kappa_level_estimate(f_sup: np.ndarray, smin: np.ndarray, n: int) -> float:
    with np.errstate(divide="ignore"):
        mu = np.where(smin > 0, math.sqrt(n) / smin, np.inf)
        inv_res = np.where(f_sup > 0, 1.0 / f_sup, np.inf)
    return float(np.max(np.minimum(mu, inv_res), initial=-math.inf))


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
    levels = _levels(fn, ar, workers=workers, cap=grid_cap)
    reports: list[IterationReport] = []
    trace: list[LevelTrace] = []
    kappa_hat = 1.0
    count, status, comp_records = None, "iteration-cap-reached", []
    for _ in range(max_iterations):
        try:
            graph, comps, report = next(levels)
        except sphere.GridTooLargeError:
            # Point budget exhausted before halting: same clean failure as
            # running out of refinement levels.
            break
        reports.append(report)
        thr_i, thr_ii = _thresholds(fn, graph.spec, ar)
        trace.append(LevelTrace(2 * len(graph.rows), float(thr_i), float(thr_ii)))
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
        trace=trace,
    )


def estimate_kappa(
    f: polysys.PolynomialSystem,
    spec: sphere.CubeGridSpec,
    workers: int = 1,
    cap: int = sphere.DEFAULT_GRID_CAP,
) -> float:
    """Grid lower bound for the condition number kappa(f), f normalized.

    max over grid points of min{mu_norm(f, x), 1 / ||f(x)||_inf}; every
    grid point is evaluated.
    """
    fn = f.normalized()
    _, f_sup, smin = _grid_point_data(fn, spec, _canonical_rows(spec, cap), EXACT, workers)
    return _kappa_level_estimate(f_sup, smin, fn.n)
