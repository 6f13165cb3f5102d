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
(ii) (`_unresolved_children`).  The margin and the vertex bound come from
one round-off derivation at the provider's unit round-off
(`_prune_bounds`); host arithmetic is the case u = 2^-53.  The skipped
points enter condition (ii) through that certified lower bound, so the
vertices, edges, components and halting verdicts are those of the whole
grid.  When a whole-grid level resolves nothing, as at coarse levels and
at low precision, the next level is the whole grid again, taken without
expanding children.

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
from functools import lru_cache

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

    Vertices pass `vertex_test` and carry the radius
    c sigma sqrt(n) ||f(x)||_inf / sigma_min, with c = 1 in exact mode and
    3/2 in rounded mode; every operation goes through the provider.  Edges
    join vertices with d(x, y) <= r_x + r_y, distances in the mode's
    arithmetic.
    """
    if abs(f.norm - 1.0) > 1e-9:
        raise ValueError("build_graph expects a normalized system")
    if rows is None:
        rows = _canonical_rows(spec, cap)
    else:
        sphere.check_cap(spec, 2 * len(rows), cap)
    X, f_sup, smin = _grid_point_data(f, spec, rows, ar, workers)
    vertex_mask = vertex_test(f, f_sup, smin, ar)

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
    radii = ar.div(ar.mul(_run_constants(f, ar).radius_coef, f_sup[source]), smin[source])

    if len(Xv) ** 2 > cap:
        raise sphere.GridTooLargeError(
            f"level k={spec.k} has {len(Xv)} vertices: {len(Xv) ** 2} distances, "
            f"cap is {cap}"
        )
    dist = sphere.pairwise_distances(Xv, ar)
    # Row-major pairs i < j, the order the edge list is documented in.
    edges = np.argwhere(np.triu(dist <= ar.add(radii[:, None], radii[None, :]), 1))

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
    """Partition of the vertex list; ids are smallest member indices.

    Hook and compress (Shiloach and Vishkin, J. Algorithms 3, 1982): each
    round hooks the larger root of every edge whose ends have different
    roots onto the smaller, then replaces each label by its label's label
    until nothing changes.  Labels only decrease and every label is a root
    after compression, so the rounds end with each vertex labelled by the
    smallest member of its component.
    """
    labels = np.arange(graph.n_vertices)
    i, j = graph.edges.T
    while True:
        a, b = labels[i], labels[j]
        # An edge whose ends share a root keeps them together for good.
        live = a != b
        if not live.any():
            break
        i, j, a, b = i[live], j[live], a[live], b[live]
        np.minimum.at(labels, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(up := labels[labels], labels):
            labels = up
    order = np.argsort(labels, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1) if len(labels) else []
    return ComponentSet(labels=labels, components=[g.tolist() for g in groups])


def _thresholds(f: polysys.PolynomialSystem, spec: sphere.CubeGridSpec, ar) -> tuple:
    """(thr_i, thr_ii) at the level of spec, computed through the provider.

    thr_i = c pi eta sqrt(n+1) and thr_ii = (sqrt(r) / 2) pi eta sqrt((n+1) D),
    with the mode's slack c and radicand r: those of `_run_constants` times
    eta, a power of two, which commutes with each rounding.
    """
    c = _run_constants(f, ar)
    return c.thr_i * spec.eta, c.thr_ii * spec.eta


def halting_report(graph: ProximityGraph, components: ComponentSet,
                   thr_i, thr_ii) -> IterationReport:
    """Evaluate the two halting conditions at the graph's level.

    Condition (i): every cross-component vertex pair is farther apart than
    thr_i.  Condition (ii): every grid point that failed the vertex test has
    residual above thr_ii.  The thresholds are the level's `_thresholds`.
    Grid points the level did not evaluate count through the graph's
    certified lower bound `inherited_fsup`.  Empty quantifiers pass
    vacuously.
    """
    labels = components.labels
    cross = labels[:, None] != labels[None, :]
    min_cross = float(np.min(graph.distances, where=cross, initial=math.inf))
    excluded = graph.f_sup[~graph.vertex_mask]
    min_excluded = min(float(np.min(excluded, initial=math.inf)), graph.inherited_fsup)
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
    exceeds max(floor, thr_ii(k+1)) (`_unresolved_children`).  With e_f and
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
    (c) The test itself.  `_unresolved_children` computes b(p) in host
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


def _unresolved_children(f: polysys.PolynomialSystem, graph: ProximityGraph, ar,
                         thr_ii, cap: int = sphere.DEFAULT_GRID_CAP):
    """Rows the next level must evaluate, and the next level's inherited bound.

    thr_ii is the condition (ii) threshold of the next level, k+1.

    The descendants of an evaluated level-k point p (its children 2p + e,
    e in {-1, 0, 1}^(n+1), their children, and so on) lie on the cube
    within sup-distance sum_i 2^-(k+i) < 2^-k of p, so by the projection
    bound d(phi(y), phi(z)) <= (pi/2) ||y - z|| within angle
    2 rho_{k+1} = 2 (pi/2) 2^-(k+1) sqrt(n+1) of it.  As ||f(x)||_inf is
    sqrt(D)-Lipschitz, each has residual above
    b(p) = f_sup(p) - 2 sqrt(D) rho_{k+1} - margin.  When
    b(p) > max(floor, thr_ii(k+1)), p resolves its cell for good: no
    descendant passes the vertex test, and each passes condition (ii) at
    level k+1 and, as thr_ii halves with eta, at every later level.  Both
    modes take the margin and the floor from one derivation at the
    provider's unit round-off, `_prune_bounds`, through `_run_constants`.
    The next level evaluates the children of the unresolved points only.
    Every grid point it skips has a resolved ancestor, so its residual is
    above the smallest b(p) over all resolved points, which the returned
    bound carries.

    A level that evaluated the whole grid and resolved nothing passes on
    the whole next grid, `_canonical_rows(finer)`: the same rows as the
    children of all its rows, without expanding 3^(n+1) candidates each.
    An empty level stays empty.
    """
    finer = sphere.CubeGridSpec(n=graph.spec.n, k=graph.spec.k + 1)
    rho = 0.5 * math.pi * finer.eta * math.sqrt(f.n + 1)
    c = _run_constants(f, ar)
    bound = graph.f_sup - 2.0 * math.sqrt(f.D) * rho - c.margin
    resolved = bound > max(c.floor, float(thr_ii))
    if not resolved.any() and 2 * len(graph.rows) == graph.grid_size:
        return _canonical_rows(finer, cap), graph.inherited_fsup
    inherited = min(graph.inherited_fsup, float(np.min(bound[resolved], initial=math.inf)))
    return sphere.children(graph.spec, graph.rows[~resolved], cap), inherited


def _levels(fn: polysys.PolynomialSystem, ar=EXACT, workers: int = 1,
            cap: int = sphere.DEFAULT_GRID_CAP):
    """Yield (graph, components, report, trace) for each level from
    initial_level(n) on.

    The first level evaluates the whole grid; each later level evaluates
    only the children of the points its predecessor left unresolved
    (`_unresolved_children`).
    """
    rows, inherited = None, math.inf
    spec = sphere.CubeGridSpec(n=fn.n, k=initial_level(fn.n))
    while True:
        graph = build_graph(fn, spec, ar, workers=workers, cap=cap, rows=rows,
                            inherited_fsup=inherited)
        comps = connected_components(graph)
        thr_i, thr_ii = _thresholds(fn, spec, ar)
        report = halting_report(graph, comps, thr_i, thr_ii)
        yield graph, comps, report, LevelTrace(2 * len(graph.rows), float(thr_i), float(thr_ii))
        spec = sphere.CubeGridSpec(n=fn.n, k=spec.k + 1)
        rows, inherited = _unresolved_children(fn, graph, ar, _thresholds(fn, spec, ar)[1], cap)


def initial_level(n: int) -> int:
    """Largest eta = 2^-k not exceeding 2 sqrt(2) / (pi sqrt(n+1)), k >= 1."""
    eta0 = 2.0 * math.sqrt(2.0) / (math.pi * math.sqrt(n + 1))
    return max(1, math.ceil(-math.log2(eta0)))


def _kappa_level_estimate(f_sup: np.ndarray, smin: np.ndarray, n: int) -> float:
    # Quotients the selects discard may divide by 0, and 1 / (a subnormal) overflows.
    with np.errstate(divide="ignore", over="ignore"):
        mu = np.where(smin > 0, math.sqrt(n) / smin, np.inf)
        inv_res = np.where(f_sup > 0, 1.0 / f_sup, np.inf)
    return float(np.max(np.minimum(mu, inv_res), initial=-math.inf))


def count_levels(
    fn: polysys.PolynomialSystem,
    ar=EXACT,
    max_iterations: int = 24,
    workers: int = 1,
    grid_cap: int = sphere.DEFAULT_GRID_CAP,
) -> tuple[CountResult, np.ndarray]:
    """The level loop of `count_roots` on the normalized system fn, without
    Newton refinement: the result has no components, and the second value
    holds the first vertex of each component at halt (no rows otherwise).
    `sweep`, which reads only counts and the condition estimate, runs this.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    levels = _levels(fn, ar, workers=workers, cap=grid_cap)
    result = CountResult(count=None, status="iteration-cap-reached",
                         original_norm=fn.original_norm)
    representatives = np.empty((0, fn.n_vars))
    for _ in range(max_iterations):
        try:
            graph, comps, report, level_trace = next(levels)
        except sphere.GridTooLargeError:
            # Point budget exhausted before halting: same clean failure as
            # running out of refinement levels, once a level has run.
            if not result.iterations:
                raise
            break
        result.iterations.append(report)
        result.trace.append(level_trace)
        result.kappa_lower_bound = max(
            result.kappa_lower_bound, _kappa_level_estimate(graph.f_sup, graph.sigma_min, fn.n)
        )
        if report.condition_i_pass and report.condition_ii_pass:
            r = len(comps.components)
            if r % 2 != 0:
                raise InternalConsistencyError(
                    f"odd component count {r} at halt; antipodal symmetry violated"
                )
            representatives = graph.vertex_points[[c[0] for c in comps.components]]
            result.count, result.status = r // 2, "converged"
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
    cap: int = sphere.DEFAULT_GRID_CAP,
) -> float:
    """Grid lower bound for the condition number kappa(f), f normalized.

    max over grid points of min{mu_norm(f, x), 1 / ||f(x)||_inf}; every
    grid point is evaluated.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    fn = f.normalized()
    _, f_sup, smin = _grid_point_data(fn, spec, _canonical_rows(spec, cap), EXACT, workers)
    return _kappa_level_estimate(f_sup, smin, fn.n)
