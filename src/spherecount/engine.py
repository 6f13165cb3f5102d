"""The counting loop: proximity graph, components, halting, refinement.

Each refinement level classifies points of the projected cube grid: the
alpha test certifies some as graph vertices, the graph joins vertices whose
certification caps intersect, and the loop halts once (i) distinct
components are provably separated and (ii) every grid point that is not a
vertex has a residual large enough to exclude zeros nearby.  At halt the
component count r is even (components pair up under x -> -x) and the
number of zero rays is r/2.

Both modes run one set of formulas through the arithmetic provider; they
differ only in the inputs of `_run_constants`, which rounded mode widens
to absorb round-off, and in the provider's unit round-off.  A run computes
its constants once; a level's thresholds are those at eta = 1 times eta.

The first level evaluates the whole grid.  Each later level evaluates only
the children of the points its predecessor left unresolved: a point whose
residual exceeds, by the Lipschitz bound over its cell plus a round-off
margin, both the vertex bound and the next condition (ii) threshold
certifies every finer grid point in its cell as a non-vertex that passes
(ii) (`_prune`).  The margin and the vertex bound come from
one round-off derivation at the provider's unit round-off
(`_prune_bounds`); host arithmetic is the case u = 2^-53.  The skipped
points enter condition (ii) through that certified lower bound, so the
vertices, edges, components and halting verdicts are those of the whole
grid.  When a whole-grid level resolves nothing, as at coarse levels and
at low precision, the next level is the whole grid again, taken without
expanding children: the rule that makes the first level.

The grids are nested: the level-k point y 2^-k is the level-(k+1) point
(2y) 2^-(k+1), exactly.  So a run evaluates one whole canonical grid of at
most _COARSE rows, at the finest level K it may reach within the cap
(`_coarse_grid`), and serves each level k <= K from it, with the same bits
its own evaluation gives.  A served level is a sorted array of positions
in its own whole canonical grid, which lines up with the rows of the
coarse grid that are its points, as scaling keeps grid order: its rows
and data are gathers (`_served_level`), and the next level's positions
come from a table of each row's canonical children, built once per
process (`_served_tables`).  No served level calls `sphere.children` or
evaluates a row.  Levels past K, and every level of a run whose first
grid is larger, evaluate their rows themselves (`evaluate_level`).  A
run's coarse levels hold tens of rows each, so their cost is mostly fixed
cost per call: one kernel call serves them all, and each level then costs
a few array operations.  Either way a level is a `GridLevel`, and the
loop reads it the same way.

Grid data is computed once per antipodal pair: every certified quantity is
invariant under x -> -x, so the engine evaluates only canonical points
(first nonzero lattice coordinate positive) and takes each vertex's
antipode as its negation.  This halves the work and makes the antipodal
symmetry of the vertex set, and hence the evenness of r, structural rather
than numerical.

A level holds its rows and their certified values only: `build_graph`
projects its vertices and orders them by their closed-form grid index.
The grid cap is the only limit: it bounds the points a level holds, and
is checked only where a level's rows are made, by `sphere.canonical_grid`
and `sphere.children`; the coarse grid passes it, so the levels it
serves, which are no larger, need no check.  The engine passes it on and
checks nothing itself.

The graph layer labels components from pivots (`_proximity`): the
smallest unlabelled vertex takes one distance row, which holds its
component's members within a cap, and a triangle-inequality bound with a
derived round-off slack (`_bound_slack`) clears every other vertex except
the few that must be tested exactly.  The smallest distance between
components, condition (i)'s quantity, starts from the pivot rows and is
made exact by testing, for each pair of components, only the vertices
that the same bound from the other component's central member does not
clear; of two pairs mirrored by x -> -x only one is tested.  A level
whose V^2 distances fit in one block computes them as one matrix and
reads every distance from it; a larger level never holds the V x V
matrix.

One loop runs every level (`count_levels`): it prunes the level before
once (`_prune`), serves the level from the coarse grid or makes its rows
and runs `evaluate_level` (points, residuals, sigma_min, the vertex test
and the kappa estimates), then reads the level's kappa estimate and
condition (ii) minimum, and runs `build_graph`, `connected_components`
and `halting_report` on it.
`count_roots` graphs every level.  `sweep` keeps no reports
(`count_levels(..., reports=False)`): it graphs a level only where
condition (ii) passes, since no other level can halt.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from . import alpha, polysys, sphere
from .rounding import EXACT, make_arithmetic

_CHUNK = 1 << 15
_BLOCK = 1 << 16  # distance entries per row block of the graph layer
_COARSE = 1 << 11  # canonical rows of the largest grid a run's coarse levels read from


class InternalConsistencyError(RuntimeError):
    """Mathematically excluded state reached (e.g. odd component count)."""


@dataclass
class GridLevel:
    """A level's evaluated points: what condition (ii), pruning and kappa read.

    Each evaluated canonical row holds 8n + 33 bytes: 8 (n+1) for its int64
    row, 8 each for f_sup, sigma_min and kappa, and 1 for its mask entry.
    """

    spec: sphere.CubeGridSpec
    rows: np.ndarray             # (m, n+1) evaluated canonical lattice rows, grid order
    f_sup: np.ndarray            # (m,) residual sup norms at rows
    sigma_min: np.ndarray        # (m,)
    vertex_mask: np.ndarray      # (m,) bool, the mode's A-test at rows
    kappa: np.ndarray            # (m,) kappa estimates at rows (`_kappa_estimates`)
    inherited_fsup: float        # lower bound of the skipped points' residuals (inf: none)


@dataclass
class ProximityGraph(GridLevel):
    """A level's points and the proximity graph on its vertices."""

    vertex_indices: np.ndarray   # grid_lattice indices of vertices and antipodes, increasing
    vertex_points: np.ndarray    # (V, n+1) projected vertex coordinates
    radii: np.ndarray            # (V,) certification-cap radii
    labels: np.ndarray           # (V,) component id = smallest member's list index
    min_intercomponent_distance: float  # over vertex pairs of distinct components (inf: none)
    edges: np.ndarray            # (V - C, 2) spanning forest of the pivots, i < j

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_indices)


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

    evaluated: int               # the level's rows and their antipodes, computed or selected
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


@dataclass(frozen=True)
class _RunConstants:
    """The scalars a run's levels share, each rounded through the provider."""

    n: float                     # n, the number of equations
    d32: float                   # D (x) sqrt(D)
    vertex_alpha: float          # a: vertices have n f_sup D^{3/2} < a sigma_min^2
    radius_coef: float           # (c (x) sigma) (x) sqrt(n)
    thr_i: float                 # (c (x) pi) (x) sqrt(n+1), condition (i) at eta = 1
    thr_ii: float                # ((sqrt(r) / 2) (x) pi) (x) sqrt((n+1) D), (ii) at eta = 1
    margin: float                # pruning margin and vertex floor, `_prune_bounds`
    floor: float


@lru_cache(maxsize=8)
def _run_constants(f: polysys.PolynomialSystem, ar) -> _RunConstants:
    """The constants of a run on the normalized system f with provider ar.

    The modes differ in the vertex alpha a, the slack c of radii and thr_i,
    and the radicand r of thr_ii: (2 alpha_star, 1, 1) in exact mode, and
    (alpha_bullet, 3/2, 2) in rounded mode, which absorbs round-off.
    """
    consts = alpha.theory_constants()
    if ar.t is None:
        a, slack, radicand = 2.0 * consts.alpha_star, 1.0, 1.0
    else:
        a, slack, radicand = consts.alpha_bullet, 1.5, 2.0
    n, D, pi = ar.const(float(f.n)), ar.const(float(f.D)), ar.const(math.pi)
    return _RunConstants(
        n, ar.mul(D, ar.sqrt(D)), ar.const(a),
        ar.mul(ar.mul(ar.const(slack), ar.const(consts.sigma)), ar.sqrt(n)),
        ar.mul(ar.mul(ar.const(slack), pi), ar.sqrt(ar.const(f.n + 1.0))),
        ar.mul(ar.mul(ar.div(ar.sqrt(ar.const(radicand)), 2.0), pi),
               ar.sqrt(ar.const((f.n + 1.0) * f.D))),
        *_prune_bounds(f, ar, a),
    )


def vertex_test(f: polysys.PolynomialSystem, f_sup, smin, ar) -> np.ndarray:
    """The mode's alpha test at points with residuals f_sup and sigma_min smin.

    n ||f(x)||_inf D^{3/2} < a sigma_min^2, with the vertex alpha a of
    `_run_constants`, through the provider.  In exact mode (a = 2 alpha_star)
    this is alpha_bar < alpha_star without divisions, so it fails at a
    singular point (sigma_min = 0) instead of evaluating 0 * inf.
    """
    c = _run_constants(f, ar)
    return ar.mul(ar.mul(c.n, f_sup), c.d32) < ar.mul(c.vertex_alpha, ar.mul(smin, smin))


def evaluate_level(
    f: polysys.PolynomialSystem,
    spec: sphere.CubeGridSpec,
    rows: np.ndarray,
    ar=EXACT,
    workers: int = 1,
    inherited_fsup: float = math.inf,
) -> GridLevel:
    """Evaluate a grid level's points and take the mode's vertex test.

    f must be normalized (||f|| = 1).  `rows` are the canonical lattice
    rows to evaluate, in grid_lattice order, as `sphere.canonical_grid`
    and `sphere.children` return them; both check the grid cap where they
    make the rows.  The grid points left out must be certified non-vertices
    whose residuals are at least `inherited_fsup`.  Each row is projected
    and gets its residual sup norm, sigma_min, the mode's vertex test and
    its kappa estimate, _CHUNK rows at a time, the chunks split over
    `workers` threads; the projected points are not kept.  Each row's data
    depend on that row alone, and a row's antipode has the same data.
    Every level's data, served or evaluated, are computed here, so this is
    where a system that is not normalized is refused.  The level's graph is
    `build_graph(f, level, ar)`, through the same provider.
    """
    if abs(f.norm - 1.0) > 1e-9:
        raise ValueError("the grid levels need a normalized system (||f|| = 1)")
    m = len(rows)
    f_sup = np.empty(m)
    smin = np.empty(m)

    def work(lo: int, hi: int):
        X = sphere.project_many(rows[lo:hi] * spec.eta, ar)
        f_sup[lo:hi] = polysys.evaluate_many(f, X, ar)[1]
        smin[lo:hi] = alpha.sigma_min_many(alpha.compute_M_many(f, X, ar), ar)

    bounds = [(lo, min(lo + _CHUNK, m)) for lo in range(0, m, _CHUNK)]
    if workers > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda b: work(*b), bounds))
    else:
        for b in bounds:
            work(*b)
    return GridLevel(spec, rows, f_sup, smin, vertex_test(f, f_sup, smin, ar),
                     _kappa_estimates(f_sup, smin, f.n), inherited_fsup)


def _coarse_grid(f: polysys.PolynomialSystem, first: sphere.CubeGridSpec, ar, cap: int,
                 max_iterations: int) -> tuple:
    """(grid, tables): the whole canonical grid, evaluated, that serves a
    run's levels k <= K, and their `_served_tables`; (None, ()) when no
    level qualifies.

    K is the finest level the run may reach, from the first level on,
    whose grid has at most _COARSE canonical rows and at most `cap`
    points.  Point counts are even, so that is point_count() <=
    min(2 _COARSE, cap).  So no row finer than the run's last level is
    evaluated, and the grid passes every limit a level would meet there:
    `cap`, and the int64 index bound of `sphere.check_cap`, which no grid
    of 2 _COARSE points reaches.  A served level holds at most the grid's
    points, so it passes them too and is made without a check.  A run
    whose first grid is larger has no such level, and evaluates every
    level's rows itself.  A run's coarse levels are small, so the kernel's
    fixed cost per call outweighs their per-row work: one call on a small
    grid serves them all.  The grid is the level-K grid the tables cache,
    and fits in one _CHUNK, so it runs on one thread.
    """
    K = None
    for k in range(first.k, first.k + max_iterations):
        if sphere.CubeGridSpec(n=first.n, k=k).point_count() > min(2 * _COARSE, cap):
            break
        K = k
    if K is None:
        return None, ()
    tables = _served_tables(first.n, K, first.k)
    return evaluate_level(f, sphere.CubeGridSpec(n=first.n, k=K), tables[-1][1], ar), tables


@lru_cache(maxsize=8)
def _served_tables(n: int, K: int, k0: int) -> tuple:
    """(whole, rows, children) for each level k0..K of a run whose coarse
    grid is at K.

    A served level is a sorted array of positions in its own whole
    canonical grid, rows = `sphere.canonical_grid` of its spec, which is
    cached and read-only.  The grids are nested: the level-k row
    y is the level-K row 2^(K-k) y, and y 2^-k = (2^(K-k) y) 2^-K exactly,
    so the kernel computes the same bits for both.  Scaling keeps a row's
    face block and its C order within the block, so the level-k grid, in
    grid order, is the coarse rows whose coordinates 2^(K-k) divides, in
    the coarse grid's order: `whole` holds their positions in it, and a
    level's data at positions p are the coarse grid's at whole[p].
    `children` (None at K) has one row per level-k position: the
    level-(k+1) positions of its canonical children
    (`sphere.child_candidates`, the expansion `sphere.children` makes),
    each once, increasing, and padded with the first; one
    `sphere.lattice_index` call per level locates them in the finer grid.
    So the children of level-k positions p are the distinct values
    (`_distinct`) of children[p]: the rows `sphere.children` returns, in
    the same order.
    The arrays are read-only.
    """
    grids = [sphere.canonical_grid(sphere.CubeGridSpec(n=n, k=k)) for k in range(k0, K + 1)]
    coarse = grids[-1]
    levels = []
    for k, rows in enumerate(grids, start=k0):
        whole = np.flatnonzero((coarse % 2 ** (K - k) == 0).all(axis=1))
        whole.flags.writeable = False
        table = None
        if k < K:
            finer = sphere.CubeGridSpec(n=n, k=k + 1)
            finer_index = sphere.lattice_index(finer, grids[k + 1 - k0])
            cand, parent = sphere.child_candidates(sphere.CubeGridSpec(n=n, k=k), rows.T)
            child = np.searchsorted(finer_index, sphere.lattice_index(finer, cand.T))
            # Each (parent, child) pair once, by parent and then position.
            pair = _distinct(np.repeat(parent, 3**n) * len(finer_index) + child)
            parent, child = np.divmod(pair, len(finer_index))
            first = np.searchsorted(parent, np.arange(len(rows)))
            slot = np.arange(len(pair)) - first[parent]
            table = np.repeat(child[first, None], slot.max() + 1, axis=1)
            table[parent, slot] = child
            table.flags.writeable = False
        levels.append((whole, rows, table))
    return tuple(levels)


def _served_level(grid: GridLevel, entry: tuple, spec: sphere.CubeGridSpec, pos: np.ndarray,
                  inherited_fsup: float) -> GridLevel:
    """The evaluated level of spec at positions `pos` of its whole grid,
    gathered from the coarse grid through the level's `_served_tables`
    entry: what `evaluate_level` gives on those rows, bit for bit."""
    whole, rows, _ = entry
    at = whole[pos]
    return GridLevel(spec, rows[pos], grid.f_sup[at], grid.sigma_min[at], grid.vertex_mask[at],
                     grid.kappa[at], inherited_fsup)


def build_graph(f: polysys.PolynomialSystem, level: GridLevel, ar) -> ProximityGraph:
    """The proximity graph on the vertices of an evaluated level.

    `level` is `evaluate_level`'s for f through the provider ar.  ar has no
    default: the points, radii and distances must be taken in the
    arithmetic of the level's vertex test.  Each canonical vertex row y
    stands for itself and its antipode.  Its point is
    `sphere.project_many(y eta, ar)`, the bits the level's evaluation
    projected, as each row's projection depends on that row alone, and its
    antipode's is the exact negation.  The vertices are listed in
    grid_lattice order, by `sphere.lattice_index` of +-y, which is closed
    form.  Vertices pass `vertex_test` and carry the radius
    c sigma sqrt(n) ||f(x)||_inf / sigma_min, with c = 1 in exact mode and
    3/2 in rounded mode; every operation goes through the provider.  Edges
    join vertices with d(x, y) <= r_x + r_y, distances in the mode's
    arithmetic.  The graph keeps the component labels, the smallest
    distance between two components and a spanning forest of the edges,
    all computed from one distance row per component and the exact pairs
    its bounds leave (`_proximity`).  They are those of the full distance
    matrix, bit for bit.
    """
    canon = np.flatnonzero(level.vertex_mask)
    rows = level.rows[canon]
    index = sphere.lattice_index(level.spec, np.concatenate((rows, -rows)))
    order = np.argsort(index)
    source = np.concatenate((canon, canon))[order]
    points = sphere.project_many(rows * level.spec.eta, ar)
    Xv = np.concatenate((points, -points))[order]
    radii = ar.div(ar.mul(_run_constants(f, ar).radius_coef, level.f_sup[source]),
                   level.sigma_min[source])
    # List position of each vertex's antipode: entry q of the concatenation
    # is the antipode of entry q +- len(canon).
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    mirror = position[(order + len(canon)) % max(len(order), 1)]
    labels, min_cross, edges = _proximity(Xv, radii, ar, mirror)
    return ProximityGraph(
        **vars(level),
        vertex_indices=index[order],
        vertex_points=Xv,
        radii=radii,
        labels=labels,
        min_intercomponent_distance=min_cross,
        edges=edges,
    )


def _distance_error(m: int, ar) -> float:
    """e with |d~(x, y) - angle(x, y)| <= e for `sphere.pairwise_distances`
    through ar of any two stored points x, y with m coordinates.

    With u' = `ar.unit_roundoff` and g_k = gamma_k at u' (`_gamma`):

    * Cosine.  The dot product is a left fold of m rounded products, so it
      errs by at most g_m sum_i |x_i y_i| <= g_m ||x|| ||y||.  Each norm is
      a rounded sqrt of a fold of m squares, ||x|| (1 + theta_(m+1)); their
      product and the quotient are two more roundings.  So the computed
      cosine is (c + e')(1 + theta_(2m+4)) with c = cos angle(x, y) and
      |e'| <= g_m: within dc = g_(3m+4) >= g_m + g_(2m+4) + g_m g_(2m+4)
      of c.  The clamp to [-1, 1] moves it no farther from c.
    * arccos is steepest at +-1, so moving its argument by dc moves its
      value by at most arccos(1 - dc) = 2 arcsin(sqrt(dc / 2))
      <= sqrt(2 dc / (1 - dc / 2)): about sqrt(6m u'), the half of the
      precision that near-equal and near-antipodal pairs lose.
    * The host's arccos is within 2^-48 of the true value (a few ulps of
      pi) and is rounded once more: pi u' + 2^-47 covers both, and the
      host roundings of e itself.

    Both angles lie in [0, pi], so e is capped at pi.  Underflowing products
    add at most m 2^-1074 to dc.  At host precision e is about 4.7e-8 for
    m = 2 and 6.0e-8 for m = 4; at 12 bits and m = 2 it is about 0.071.
    """
    dc = _gamma(3 * m + 4, ar.unit_roundoff)
    if not dc < 2.0:
        return math.pi
    return min(math.pi, math.sqrt(2.0 * dc / (1.0 - 0.5 * dc))
               + math.pi * ar.unit_roundoff + 2.0**-47)


def _bound_slack(m: int, r_max: float, ar) -> float:
    """s such that the bounds of `_proximity`, computed in host doubles
    with slack s, hold for the computed distances.

    For any stored points p, x, y with m coordinates, the triangle
    inequality for angles and `_distance_error` e give
    d~(x, y) >= d~(p, y) - d~(p, x) - 3e.  So with radii at most r_max:
    (a) d~(p, y) - r_y > d~(p, x) + r_x + s means d~(x, y) exceeds
        r_x (+) r_y <= (r_x + r_y)(1 + u'), no edge;
    (b) d~(p, x) - max_y d~(p, y) - s > U means every d~(x, y) > U.
    s = s0 + 2^-50 (pi + 2 r_max + s0) with s0 = 3e + 2 u' r_max: the
    second term covers the three host roundings of either test, on
    quantities below pi + 2 r_max + s0.
    """
    s0 = 3.0 * _distance_error(m, ar) + 2.0 * ar.unit_roundoff * r_max
    return s0 + 2.0**-50 * (math.pi + 2.0 * r_max + s0)


def _proximity(points: np.ndarray, radii: np.ndarray, ar, mirror: np.ndarray) -> tuple:
    """(labels, min_cross, edges) of the graph d(x, y) <= r_x + r_y on points.

    labels give each vertex the smallest member of its component, min_cross
    is the smallest distance between vertices of distinct components (inf
    when there are none) and edges, one pair i < j for each vertex that is
    not the smallest of its component, in that vertex's order, are a
    spanning forest.  `mirror` is the vertex list's involution x -> -x:
    the points are closed under exact negation, with equal radii.

    Labels.  The smallest unlabelled vertex p is a pivot: one row d(p, .)
    gives its group, p and every unlabelled y with d(p, y) <= r_p + r_y.
    A vertex y outside the group has no edge into it when
    d(p, y) - r_y > max over the group of d(p, x) + r_x, plus the slack
    of `_bound_slack`; a vertex this does not clear is tested exactly
    against the group's newest members, and joins by one of its edges.
    The step repeats until no vertex joins, so the group is p's component
    and p its smallest member.

    Minimum.  A level with V^2 <= _BLOCK computes its distances as one
    matrix, reads the pivot rows and exact tests from it, and takes the
    minimum over its cross-component entries.  It computes the rows of one
    vertex of each antipodal pair only, and reads the row of -x from that
    of x at the mirrored columns: d(-x, y) = d(x, -y) bit for bit, as both
    dot products are the same rounded products negated (rounding to
    nearest is symmetric), the norms are equal, and so both distances take
    arccos of the same clamped quotient.  A larger level holds no
    distance array of more than max(_BLOCK, V) entries.  Its U starts as
    the smallest entry of a pivot row outside the pivot's component, a
    distance between components.  Each component b takes one more row from
    c_b, the member nearest its mean, and reach_b = max d(c_b, .) over b:
    x of another component is within U of b only if
    d(c_b, x) - reach_b - slack <= U, and these entries are held.  Each
    pair of components is tested on the vertices each side keeps, in
    increasing order of that bound, and every block drops those whose bound
    the lowered U exceeds.  Mirror pairs (a, b) and (-a, -b) have the same
    distances bit for bit, so only one of them is tested.

    Every distance is `sphere.pairwise_distances` of the two points, bit
    for bit whichever block it falls in, so labels and min_cross are those
    of the full distance matrix.
    """
    V = len(points)
    slack = _bound_slack(points.shape[1], float(np.max(radii, initial=0.0)), ar)
    whole = None
    if V * V <= _BLOCK:
        # Rows of one vertex of each antipodal pair; d(-x, y) = d(x, -y)
        # fills the others.
        half = np.flatnonzero(np.arange(V) < mirror)
        whole = np.empty((V, V))
        whole[half] = sphere.pairwise_distances(points[half], ar, points)
        whole[mirror[half]] = whole[half][:, mirror]

    def blocks(rows, cols):
        """(lo, distances from rows[lo:lo + step] to cols) over the rows."""
        if whole is not None:
            yield 0, whole[np.ix_(rows, cols)]
            return
        step = max(1, _BLOCK // max(len(cols), 1))
        for lo in range(0, len(rows), step):
            yield lo, sphere.pairwise_distances(points[rows[lo:lo + step]], ar, points[cols])

    labels, parent = np.arange(V), np.arange(V)
    free = np.ones(V, dtype=bool)   # unlabelled and outside the current group
    pivots, min_cross = [], math.inf
    for p in range(V):
        if not free[p]:
            continue
        row = whole[p] if whole is not None else sphere.pairwise_distances(points[p:p + 1], ar,
                                                                           points)[0]
        group = free & (row <= ar.add(radii[p], radii))
        group[p] = True
        free &= ~group
        frontier = group.nonzero()[0]
        parent[frontier] = p
        while len(frontier):
            bound = (row + radii)[group].max() + slack
            cand = (free & (row - radii <= bound)).nonzero()[0]
            if not len(cand):
                break
            joined = np.zeros(len(cand), dtype=bool)
            for lo, dist in blocks(frontier, cand):
                rows = frontier[lo:lo + len(dist)]
                near = dist <= ar.add(radii[rows, None], radii[None, cand])
                hit = near.any(axis=0) & ~joined
                parent[cand[hit]] = rows[near[:, hit].argmax(axis=0)]
                joined |= hit
            frontier = cand[joined]
            group[frontier] = True
            free[frontier] = False
        labels[group] = p
        pivots.append(p)
        if whole is None:
            min_cross = min(min_cross, float(np.min(row, where=~group, initial=math.inf)))
    child = (parent != np.arange(V)).nonzero()[0]
    edges = np.sort(np.stack((parent[child], child), axis=1), axis=1)
    if whole is not None:
        cross = labels[:, None] != labels[None, :]
        return labels, float(np.min(whole, where=cross, initial=math.inf)), edges
    if len(pivots) < 2:
        return labels, min_cross, edges

    # The bounds take each component's member nearest its mean: its
    # distances to the component are about half the pivot's.
    C = len(pivots)
    comp = np.searchsorted(pivots, labels)
    mean = np.zeros((C, points.shape[1]))
    np.add.at(mean, comp, points)
    mean /= np.bincount(comp)[:, None]
    order = np.lexsort((((points - mean[comp]) ** 2).sum(axis=1), comp))
    centres = order[np.searchsorted(comp[order], np.arange(C))]
    held, step = [], max(1, _BLOCK // V)
    for lo in range(0, C, step):
        owner = np.arange(lo, min(lo + step, C))
        dist = sphere.pairwise_distances(points[centres[owner]], ar, points)
        own = comp[None, :] == owner[:, None]
        lower = dist - np.max(dist, axis=1, where=own, initial=0.0)[:, None] - slack
        i, j = np.nonzero(~own & (lower <= min_cross))
        held.append((owner[i], j, lower[i, j]))
    owner, member, lower = (np.concatenate(h) for h in zip(*held))
    a, b = np.minimum(owner, comp[member]), np.maximum(owner, comp[member])
    twin = comp[mirror[pivots]]
    take = a * C + b <= np.minimum(twin[a], twin[b]) * C + np.maximum(twin[a], twin[b])
    owner, member, lower, a, b = owner[take], member[take], lower[take], a[take], b[take]
    # Segment 2 (a C + b) holds the pair's members of b, which a's row
    # keeps; the next segment, 2 (a C + b) + 1, its members of a.
    seg = 2 * (a * C + b) + (owner == b)
    order = np.lexsort((lower, seg))
    seg, member, lower = seg[order], member[order], lower[order]
    start = np.flatnonzero(np.diff(seg, prepend=-1))
    end = np.append(start[1:], len(seg))
    both = np.flatnonzero(seg[start[:-1]] // 2 == seg[start[1:]] // 2)
    bound = np.maximum(lower[start[both]], lower[start[both + 1]])
    for i, pair_bound in sorted(zip(both.tolist(), bound.tolist()), key=lambda t: t[1]):
        if pair_bound > min_cross:
            break
        # Rows and columns in increasing order of their bounds; as U falls,
        # each block takes only those still at or below it.
        (xs, bx), (ys, by) = ((member[s:e], lower[s:e])
                              for s, e in ((start[i], end[i]), (start[i + 1], end[i + 1])))
        lo = 0
        while lo < np.searchsorted(bx, min_cross, side="right"):
            cols = ys[:np.searchsorted(by, min_cross, side="right")]
            step = max(1, _BLOCK // len(cols))
            dist = sphere.pairwise_distances(points[xs[lo:lo + step]], ar, points[cols])
            min_cross = min(min_cross, float(dist.min()))
            lo += step
    return labels, min_cross, edges


def connected_components(graph: ProximityGraph) -> np.ndarray:
    """The component ids of the vertex list, increasing.

    A component's id is the list index of its smallest member, which
    `build_graph` gives each of its vertices as a label (`_proximity`): the
    ids are the vertices labelled with their own index.
    """
    return np.flatnonzero(graph.labels == np.arange(len(graph.labels)))


def _thresholds(f: polysys.PolynomialSystem, spec: sphere.CubeGridSpec, ar) -> tuple:
    """(thr_i, thr_ii) at the level of spec, computed through the provider.

    thr_i = c pi eta sqrt(n+1) and thr_ii = (sqrt(r) / 2) pi eta sqrt((n+1) D),
    with the mode's slack c and radicand r: those of `_run_constants` times
    eta, a power of two, which commutes with each rounding.
    """
    c = _run_constants(f, ar)
    return c.thr_i * spec.eta, c.thr_ii * spec.eta


def _condition_ii(level: GridLevel, thr_ii) -> tuple[float, bool]:
    """(min_excluded, passed) of condition (ii) at an evaluated level.

    min_excluded is the smallest residual of an evaluated point that
    failed the vertex test, or the level's certified lower bound
    `inherited_fsup` for the points it did not evaluate, whichever is
    smaller; (ii) passes when it exceeds thr_ii.  An empty minimum is inf.
    """
    excluded = level.f_sup[~level.vertex_mask]
    min_excluded = min(float(np.min(excluded, initial=math.inf)), level.inherited_fsup)
    return min_excluded, bool(min_excluded > thr_ii)


def halting_report(graph: ProximityGraph, components: np.ndarray,
                   thr_i, thr_ii) -> IterationReport:
    """Evaluate the two halting conditions at the graph's level.

    components are the graph's `connected_components` ids.  Condition (i):
    every cross-component vertex pair is farther apart than thr_i; the
    graph carries the smallest such distance, which `build_graph` takes
    exactly over the pairs of distinct components.  Condition (ii): every
    grid point that failed the vertex test has residual above thr_ii
    (`_condition_ii`).  The thresholds are the level's `_thresholds`.
    Grid points the level did not evaluate count through the graph's
    certified lower bound `inherited_fsup`.  Empty quantifiers pass
    vacuously.
    """
    min_cross = graph.min_intercomponent_distance
    min_excluded, condition_ii = _condition_ii(graph, thr_ii)
    return IterationReport(
        k=graph.spec.k,
        eta=graph.spec.eta,
        grid_size=graph.spec.point_count(),
        vertex_count=graph.n_vertices,
        component_count=len(components),
        condition_i_pass=bool(min_cross > thr_i),
        condition_ii_pass=condition_ii,
        min_intercomponent_distance=min_cross,
        min_excluded_fsup=min_excluded,
    )


def _gamma(k: float, u: float) -> float:
    """Higham's gamma_k = k u / (1 - k u), inf once k u >= 1.

    A product of k factors (1 + delta_i)^(+-1) with |delta_i| <= u is
    1 + theta with |theta| <= gamma_k (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Lemma 3.1), and gamma_j + gamma_k +
    gamma_j gamma_k <= gamma_(j+k).
    """
    return k * u / (1.0 - k * u) if k * u < 1.0 else math.inf


def _round_off_bounds(f: polysys.PolynomialSystem, ar) -> tuple[float, float]:
    """(e_f, d_s): round-off bounds of the grid data computed through ar.

    With g_k = gamma_k at u' = `ar.unit_roundoff`, n equations, largest
    degree D and at most S monomials per equation.  The normalized system
    is stored in doubles, so each ||f_i|| <= N = 1 + (S+3) 2^-53.

    * Projection.  `sphere.project_many` rounds the grid point Y once,
      Y~ = Y (1 + delta) coordinatewise, which moves Y / ||Y|| by at most
      2 u'.  The norm ||Y~|| is a left fold of n+1 rounded squares and a
      rounded sqrt, and each coordinate a rounded quotient, so the computed
      point is x = (Y~ / ||Y~||)(1 + theta_(n+3)) coordinatewise:
      ||x - phi(Y)|| <= g_(n+3) + 2 u' <= g_(n+5) and ||x|| <= 1 + g_(n+3).
    * Residual.  A term c_J x^J is one rounded constant and d_i rounded
      products; the left fold of S terms adds S-1 roundings, so the
      computed f_i(x) errs by at most g_(D+S) sum_J |c_J x^J|
      <= g_(D+S) ||f_i|| ||x||^D (Cauchy-Schwarz with the multinomial
      weights of the Weyl norm).  Moving x to phi(Y) changes f_i by at most
      ||Df_i|| ||x - phi(Y)|| with ||Df_i(z)|| <= D ||f_i|| ||z||^(D-1)
      (Kostlan).  So a computed f_sup is within
          e_f = N (1 + g_(n+3))^D (g_(D+S) + D g_(n+5))
      of ||f(phi(Y))||_inf, and within e_f of r = ||f(x / ||x||)||_inf:
      the rescaling costs N ((1 + g_(n+3))^D - 1) <= N D g_(n+3) (1 + g_(n+3))^D.
    * sigma_min cap.  The computed Householder basis H~ is the first n
      columns of the exact reflection P for the computed vector
      v = x - e_last (orthogonal for any v) plus an error of Frobenius norm
      h = sqrt(n) u' + 2 g_(2n+8), so ||H~||_2 <= 1 + h and
      ||H~||_F <= sqrt(n) + h.  P need not map e_last to x / ||x|| (near
      e_last the computed norm of x moves it), so the rows of M are bounded
      through the whole gradient: with Euler's Df_i(x) x = d_i f_i(x) and
      the tangential bound ||Df_i(x)|_T|| <= sqrt(d_i) ||f_i||,
      ||Df_i(x0)|| <= sqrt(d_i) N sqrt(1 + D r^2) at x0 = x / ||x||.  The
      computed Jacobian row errs by g_(D+S) ||Dg(|x|)|| <= g_(D+S) d_i N ||x||^(d_i-1)
      (g = sum_J |c_J| X^J has the Weyl norm of f_i; the table's c_J J_k
      costs one more rounding), the products with H~ add g_(n+1) ||H~||_F
      relative and the factor 1 / sqrt(d_i) g_4.  sigma_min(M) is at most
      any row norm; the host kernel adds at most 8 n eps ||M||_F
      <= 8 n^(3/2) eps max_i ||M_i|| (eps = 2^-52, `alpha.sigma_min_many`)
      and the result is rounded once.  So the computed sigma_min
      <= (1 + d_s) sqrt(1 + D r^2) with
          1 + d_s = (1 + u')(1 + 8 n^(3/2) 2^-52)(1 + g_4)
                    (1 + h + g_(n+1) (sqrt(n) + h)) (1 + g_(n+3))^(D-1)
                    N (1 + sqrt(D) g_(D+S)).

    Both are inf when u' is too coarse for the gamma bounds (k u' >= 1).
    Underflow adds at most a few multiples of 2^-1074, far below either.
    """
    u = ar.unit_roundoff
    n, D, S = f.n, f.D, f.S
    norm = 1.0 + (S + 3) * 2.0**-53
    e_f = norm * (1.0 + _gamma(n + 3, u)) ** D * (_gamma(D + S, u) + D * _gamma(n + 5, u))
    h = math.sqrt(n) * u + 2.0 * _gamma(2 * n + 8, u)
    cap = (
        (1.0 + u) * (1.0 + 8.0 * n**1.5 * 2.0**-52) * (1.0 + _gamma(4, u))
        * (1.0 + h + _gamma(n + 1, u) * (math.sqrt(n) + h))
        * (1.0 + _gamma(n + 3, u)) ** (D - 1) * norm * (1.0 + math.sqrt(D) * _gamma(D + S, u))
    )
    return e_f, cap - 1.0


def _prune_bounds(f: polysys.PolynomialSystem, ar, a0: float) -> tuple[float, float]:
    """(margin, floor) of the pruning test for the provider ar.

    A point p resolves its cell when b(p) = f_sup(p) - 2 sqrt(D) rho - margin
    exceeds max(floor, thr_ii(k+1)) (`_prune`).  With e_f and
    d_s of `_round_off_bounds`, u' = `ar.unit_roundoff`, g_k = gamma_k and
    the mode's vertex alpha a0 (unrounded); host arithmetic is the case
    u' = 2^-53:

    (a) Residuals.  A descendant q of p has computed residual
        f_sup(q) >= ||f(phi(q))||_inf - e_f >= ||f(phi(p))||_inf
        - 2 N sqrt(D) rho - e_f >= f_sup(p) - 2 sqrt(D) rho - 2 e_f - e_c,
        where N = 1 + (S+3) 2^-53 bounds ||f_i|| in the Lipschitz constant
        and e_c below takes the excess 2 (N - 1) sqrt(D) rho.  So b(p) is
        a lower bound of every descendant's computed residual when
        margin = 2 e_f + e_c: e_f enters once for p and once for q.
    (b) Vertex floor.  The computed vertex test at q is
        n f_sup D^(3/2) (1 + theta_7) < a0 sigma^2 (1 + theta_3)
        (rounded constants, products and sqrt), with sigma
        <= (1 + d_s) sqrt(1 + D r^2) and r <= f_sup + e_f.  It fails
        when w(f_sup) = f_sup - a (1 + D (f_sup + e_f)^2) >= 0, where
        a = a0 (1 + d_s)^2 (1 + g_10) / (n D^(3/2)): the cap
        enters multiplicatively, not linearized.  w is concave, so it is
        >= 0 on [floor, F] when it is at both ends, with F = N + e_f the
        largest computed residual.  floor = a (1 + D (2a + e_f)^2) gives
        w(floor) = a D ((2a + e_f)^2 - (floor + e_f)^2) >= 0 when
        floor <= 2a; when that or w(F) >= 0 fails, floor is inf.
    (c) The test itself.  `_prune` computes b(p) in host
        doubles, so its error stays at 2^-53: b(p) takes seven roundings on
        quantities below 2 + 2 sqrt(D) rho_1 (rho_1 = (pi/4) sqrt(n+1)
        bounds every rho, and a resolved point has margin < f_sup <= F < 2),
        and the floor and margin come from fewer than 100 host roundings.
        e_c = 2^-45 (1 + (S+12) sqrt(D) rho_1) covers these and the
        Lipschitz excess of (a).  The computed thr_ii halves exactly from
        one level to the next: eta is a power of two, which commutes with
        each rounding.

    So a resolved p leaves every descendant a computed non-vertex whose
    computed residual exceeds b(p) > thr_ii(k+1) >= thr_ii(k+j), j >= 1.
    At 12 bits, D = 6 and S = 7 this is a margin of about 0.025 and a
    floor of about 1.05 a0 / (n D^(3/2)).  At host precision, n <= 4,
    D <= 8 and S <= 84, the margin is below 2e-11 and the floor at most
    2.4% above a0 / (n D^(3/2)) (the most at n = D = 1).
    """
    e_f, d_s = _round_off_bounds(f, ar)
    u = ar.unit_roundoff
    n, D, S = f.n, f.D, f.S
    a = a0 * (1.0 + d_s) ** 2 * (1.0 + _gamma(10, u)) / (n * D**1.5)
    floor = a * (1.0 + D * (2.0 * a + e_f) ** 2)
    top = 1.0 + (S + 3) * 2.0**-53 + e_f
    if not (floor <= 2.0 * a and top >= a * (1.0 + D * (top + e_f) ** 2)):
        floor = math.inf
    rho_1 = 0.25 * math.pi * math.sqrt(n + 1)
    e_c = 2.0**-45 * (1.0 + (S + 12) * math.sqrt(D) * rho_1)
    return 2.0 * e_f + e_c, floor


def _prune(f: polysys.PolynomialSystem, level: GridLevel, ar) -> tuple[np.ndarray | None, float]:
    """(unresolved, inherited): which points of an evaluated level keep
    their cells for the next level, and the next level's inherited bound.

    The level's `f_sup` holds the residuals of its evaluated canonical
    rows, and its `inherited_fsup` the bound of the points it skipped.  The
    descendants of an evaluated level-k point p (its children 2p + e,
    e in {-1, 0, 1}^(n+1), their children, and so on) lie on the cube
    within sup-distance sum_i 2^-(k+i) < 2^-k of p, so by the projection
    bound d(phi(y), phi(z)) <= (pi/2) ||y - z|| within angle
    2 rho_{k+1} = 2 (pi/2) 2^-(k+1) sqrt(n+1) of it.  As ||f(x)||_inf is
    sqrt(D)-Lipschitz, each has residual above
    b(p) = f_sup(p) - 2 sqrt(D) rho_{k+1} - margin.  When
    b(p) > max(floor, thr_ii(k+1)), with the next level's condition (ii)
    threshold (`_thresholds`), p resolves its cell for good: no descendant
    passes the vertex test, and each passes condition (ii) at level k+1
    and, as thr_ii halves with eta, at every later level.  Both modes take
    the margin and the floor from one derivation at the provider's unit
    round-off, `_prune_bounds`, through `_run_constants`.
    The next level holds the children of the unresolved points only
    (`sphere.children`, or the served tables' rows).  Every grid point it
    skips has a resolved ancestor, so its residual is above the smallest
    b(p) over all resolved points, which the returned bound carries.

    unresolved is None when the level holds the whole grid and resolves
    nothing: the next level is then the whole finer grid, the same rows as
    the children of all its rows, which `count_levels` takes as it takes
    its first level, without expanding them.
    """
    spec, inherited_fsup = level.spec, level.inherited_fsup
    finer = sphere.CubeGridSpec(n=spec.n, k=spec.k + 1)
    rho = 0.5 * math.pi * finer.eta * math.sqrt(f.n + 1)
    c = _run_constants(f, ar)
    bound = level.f_sup - 2.0 * math.sqrt(f.D) * rho - c.margin
    resolved = bound > max(c.floor, float(_thresholds(f, finer, ar)[1]))
    if not resolved.any() and 2 * len(resolved) == spec.point_count():
        return None, inherited_fsup
    return ~resolved, min(inherited_fsup, float(np.min(bound[resolved], initial=math.inf)))


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of x, increasing, as `np.unique(x)` gives them,
    by one sort.  On arrays this small np.unique's hashing costs two to
    eight times more, and it imports numpy.ma (about 1 MB)."""
    x = np.sort(x, axis=None)
    first = np.ones(len(x), dtype=bool)
    np.not_equal(x[1:], x[:-1], out=first[1:])
    return x[first]


def initial_level(n: int) -> int:
    """Largest eta = 2^-k not exceeding 2 sqrt(2) / (pi sqrt(n+1)), k >= 1."""
    eta0 = 2.0 * math.sqrt(2.0) / (math.pi * math.sqrt(n + 1))
    return max(1, math.ceil(-math.log2(eta0)))


def _kappa_estimates(f_sup: np.ndarray, smin: np.ndarray, n: int) -> np.ndarray:
    """min{mu_norm(f, x), 1 / ||f(x)||_inf} at each point, mu_norm = sqrt(n) / sigma_min."""
    # Quotients the selects discard may divide by 0, and 1 / (a subnormal) overflows.
    with np.errstate(divide="ignore", over="ignore"):
        mu = np.where(smin > 0, math.sqrt(n) / smin, np.inf)
        inv_res = np.where(f_sup > 0, 1.0 / f_sup, np.inf)
    return np.minimum(mu, inv_res)


def count_levels(
    fn: polysys.PolynomialSystem,
    ar=EXACT,
    max_iterations: int = 24,
    workers: int = 1,
    grid_cap: int = sphere.DEFAULT_GRID_CAP,
    reports: bool = True,
) -> tuple[CountResult, np.ndarray]:
    """The level loop of `count_roots` on the normalized system fn, without
    Newton refinement: the result has no components, and the second value
    holds the first vertex of each component at halt (no rows otherwise).

    Each level after the first prunes the level before (`_prune`), once
    that level has not halted.  The first level, and a level after a
    whole grid that resolved nothing, is its whole grid; any other holds
    the children of the unresolved rows.  A level at or below the run's
    coarse grid (`_coarse_grid`), which is evaluated first, is served from
    it (`_served_level`): its rows are positions in its own whole grid, all
    of them or the children table's (`_served_tables`).  A later level
    evaluates (`evaluate_level`) its rows, `sphere.canonical_grid` or
    `sphere.children`, which check the point cap: over the cap, the first
    level raises and a later one ends the run.  At the grid's level K the
    served level hands over as an evaluated one does.  Every level then
    gives its kappa estimate and condition (ii) minimum, and is graphed
    (`build_graph`) and checked.
    With reports=False the result has no iterations or trace either, and a
    level is graphed only where condition (ii) passes, as no other level
    can halt.  The count, status, condition estimate and representatives
    are those of the run with reports, bit for bit.  `sweep`, which reads
    only counts and the condition estimate, runs this.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    result = CountResult(count=None, status="iteration-cap-reached",
                         original_norm=fn.original_norm)
    representatives = np.empty((0, fn.n_vars))
    first = sphere.CubeGridSpec(n=fn.n, k=initial_level(fn.n))
    grid, tables = _coarse_grid(fn, first, ar, grid_cap, max_iterations)
    inherited, level, keep = math.inf, None, None
    for done in range(max_iterations):
        spec = sphere.CubeGridSpec(n=fn.n, k=first.k + done)
        if done:
            keep, inherited = _prune(fn, level, ar)
        # The level is its whole grid: the first, or one after a whole grid
        # that resolved nothing.
        whole = keep is None
        if done < len(tables):
            pos = (np.arange(spec.point_count() // 2) if whole
                   else _distinct(tables[done - 1][2][pos[keep]]))
            level = _served_level(grid, tables[done], spec, pos, inherited)
        else:
            try:
                rows = (sphere.canonical_grid(spec, grid_cap) if whole
                        else sphere.children(level.spec, level.rows[keep], grid_cap))
            except sphere.GridTooLargeError:
                if not done:
                    raise
                # A later level over the cap ends the run as the last level does.
                break
            level = evaluate_level(fn, spec, rows, ar, workers, inherited)
        thr_i, thr_ii = _thresholds(fn, spec, ar)
        kappa = float(np.max(level.kappa, initial=-math.inf))
        min_excluded = _condition_ii(level, thr_ii)[0]
        result.kappa_lower_bound = max(result.kappa_lower_bound, kappa)
        if not (reports or min_excluded > thr_ii):
            continue
        level = build_graph(fn, level, ar)
        ids = connected_components(level)
        report = halting_report(level, ids, thr_i, thr_ii)
        if reports:
            result.iterations.append(report)
            result.trace.append(LevelTrace(2 * len(level.rows), float(thr_i), float(thr_ii)))
        if report.condition_i_pass and report.condition_ii_pass:
            if len(ids) % 2 != 0:
                raise InternalConsistencyError(
                    f"odd component count {len(ids)} at halt; antipodal symmetry violated"
                )
            representatives = level.vertex_points[ids]
            result.count, result.status = len(ids) // 2, "converged"
            break
    return result, representatives


def count_roots(
    f: polysys.PolynomialSystem,
    mode: str = "exact",
    bits: int | None = None,
    max_iterations: int = 24,
    workers: int = 1,
    grid_cap: int = sphere.DEFAULT_GRID_CAP,
) -> CountResult:
    """Count the real zero rays of f by iterative grid refinement.

    Runs the refinement loop from the coarsest admissible mesh, halving eta
    until both halting conditions pass, then returns r/2 together with a
    Newton-refined approximate zero per component, all refined in one batch.
    Ill-posed systems never halt; max_iterations, or a later level beyond
    grid_cap, converts that into status "iteration-cap-reached".  A first
    level beyond grid_cap raises sphere.GridTooLargeError, as no level ran.
    """
    ar = make_arithmetic(mode, bits)
    fn = f.normalized()
    result, representatives = count_levels(fn, ar, max_iterations, workers, grid_cap)
    refined = alpha.newton_refine(fn, representatives)
    result.components = [
        {"representative": rep.tolist(), "zero": zero.tolist(),
         "beta": trace[-1] if trace else 0.0, "beta_trace": trace}
        for rep, zero, trace in zip(representatives, refined.point, refined.beta_trace)
    ]
    return result


def estimate_kappa(
    f: polysys.PolynomialSystem,
    spec: sphere.CubeGridSpec,
    workers: int = 1,
) -> float:
    """Grid lower bound for the condition number kappa(f), f normalized.

    max over grid points of min{mu_norm(f, x), 1 / ||f(x)||_inf}.  Every
    grid point is evaluated, in exact mode, through `evaluate_level` on
    `sphere.canonical_grid(spec)`, so the default grid cap applies.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    fn = f.normalized()
    level = evaluate_level(fn, spec, sphere.canonical_grid(spec), EXACT, workers)
    return float(np.max(level.kappa, initial=-math.inf))
