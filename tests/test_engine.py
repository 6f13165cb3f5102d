import dataclasses
import gc
import math
import random
import weakref
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from spherecount import alpha, engine, oracle, sphere
from spherecount.cli import canonical_json
from spherecount.polysys import parse_system
from spherecount.rounding import EXACT, make_arithmetic
from spherecount.sphere import CubeGridSpec, lattice_index

from util import (dense_proximity, hook_labels, random_system, svd_sigma_min_many,
                  union_find_labels)


def system(doc):
    return parse_system(doc)


def whole_level(f, spec, ar=EXACT):
    """The evaluated whole-grid level of spec."""
    return engine.evaluate_level(f, spec, sphere.canonical_grid(spec), ar)


LINE = {"n": 1, "degrees": [1], "polys": [[{"J": [0, 1], "c": 1.0}]]}
CIRCLE = {
    "n": 1,
    "degrees": [2],
    "polys": [[{"J": [2, 0], "c": 1.0}, {"J": [0, 2], "c": 1.0}]],
}
TWOLINES = {
    "n": 1,
    "degrees": [2],
    "polys": [[{"J": [0, 2], "c": 1.0}, {"J": [2, 0], "c": -0.25}]],
}
DOUBLE = {"n": 1, "degrees": [2], "polys": [[{"J": [0, 2], "c": 1.0}]]}


def test_initial_level():
    assert engine.initial_level(1) == 1
    assert engine.initial_level(2) == 1
    assert engine.initial_level(3) == 2


def _edge_graph(V, edges):
    """A graph whose labels hook all its edges at once."""
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return SimpleNamespace(n_vertices=V, edges=edges, labels=hook_labels(V, edges))


def test_connected_components_ids_are_smallest_members():
    assert engine.connected_components(_edge_graph(5, [(3, 1), (4, 3)])).tolist() == [0, 1, 2]
    assert engine.connected_components(_edge_graph(5, [(1, 0), (4, 2)])).tolist() == [0, 2, 3]
    assert engine.connected_components(_edge_graph(3, [])).tolist() == [0, 1, 2]
    ids = engine.connected_components(_edge_graph(0, []))
    assert ids.tolist() == [] and ids.dtype == np.int64


@pytest.mark.parametrize("V", [1, 5, 50, 3000])
def test_connected_components_match_union_find(V):
    rng = np.random.default_rng(V)
    graphs = []
    for E in (0, V // 2, V, 3 * V):
        i, j = rng.integers(0, V, (2, E))
        graphs.append(np.stack([np.minimum(i, j), np.maximum(i, j)], axis=1)[i != j])
    # A path through the vertices in random order takes many hook rounds to
    # collapse; a star whose centre is not its smallest member must still be
    # labelled by its smallest member.
    path = rng.permutation(V)
    graphs.append(np.stack([path[:-1], path[1:]], axis=1))
    graphs.append(np.array([(V // 2, v) for v in range(V) if v != V // 2]))
    for edges in graphs:
        graph = _edge_graph(V, edges)
        labels = union_find_labels(V, edges)
        assert graph.labels.tolist() == labels
        assert engine.connected_components(graph).tolist() == sorted(set(labels))


def test_count_single_line():
    r = engine.count_roots(system(LINE))
    assert r.count == 1
    assert r.status == "converged"
    assert len(r.components) == 2  # one antipodal pair
    assert abs(r.kappa_lower_bound - math.sqrt(2.0)) < 1e-6
    zero = np.array(r.components[0]["zero"])
    assert abs(abs(zero[0]) - 1.0) < 1e-9 and abs(zero[1]) < 1e-9


def test_count_circle_is_zero():
    r = engine.count_roots(system(CIRCLE))
    assert r.count == 0 and r.status == "converged"
    assert r.components == []
    assert len(r.iterations) == 3  # halts once the exclusion test clears


def test_count_two_lines():
    r = engine.count_roots(system(TWOLINES))
    assert r.count == 2 and r.status == "converged"
    assert abs(r.original_norm - math.sqrt(1.0625)) < 1e-12
    for comp in r.components:
        assert oracle.verify_zero(system(TWOLINES).normalized(), comp["zero"], 1e-9)


def test_double_root_never_halts():
    r = engine.count_roots(system(DOUBLE), max_iterations=10)
    assert r.status == "iteration-cap-reached"
    assert len(r.iterations) == 10
    assert not any(
        it.condition_i_pass and it.condition_ii_pass for it in r.iterations
    )


def test_grid_cap_is_clean():
    # The whole-grid first level, then the points each pruned level
    # evaluates, count against the cap; the loop stops cleanly at it.
    for mode, bits, cap in (("rounded", 24, 1000), ("exact", None, 1000)):
        r = engine.count_roots(system(DOUBLE), mode=mode, bits=bits,
                               max_iterations=24, grid_cap=cap)
        assert r.status == "iteration-cap-reached"
        assert 0 < len(r.iterations) < 24


def test_grid_cap_below_first_level_raises():
    """A cap below the first level's whole grid runs no level, so it is an
    error, not a run that reached its cap; a cap the first level fits ends
    at a later level as iteration-cap-reached."""
    f = system(TWOLINES)
    first = CubeGridSpec(n=1, k=engine.initial_level(1)).point_count()
    for cap in (0, first - 1):
        with pytest.raises(sphere.GridTooLargeError):
            engine.count_roots(f, grid_cap=cap)
    r = engine.count_roots(f, grid_cap=first)
    assert r.status == "iteration-cap-reached" and len(r.iterations) == 1


def test_cap_bounds_points_not_vertex_pairs(multivariate_suite):
    """The cap bounds the points a level holds, not the pairs of its
    vertices: the (2,1) seed-0 system, whose levels hold at most 7,372
    points but whose vertices make more than 20,000 pairs, halts under a
    cap of 20,000 with the document of the default cap."""
    f = _suite_system(multivariate_suite, (2, 1), 0)
    capped = engine.count_roots(f, grid_cap=20000)
    assert max(lvl.evaluated for lvl in capped.trace) <= 20000
    assert max(it.vertex_count * (it.vertex_count - 1) // 2 for it in capped.iterations) > 20000
    assert capped.status == "converged"
    assert canonical_json(capped.to_dict()) == canonical_json(engine.count_roots(f).to_dict())


def test_pruned_levels_are_capped_by_evaluated_points():
    """X1^2, X2 never halts; its pruned levels evaluate ~10^5 points, far
    below the cap, although the nominal grid passes 10^8 at k = 11."""
    f = system({
        "n": 2,
        "degrees": [2, 1],
        "polys": [[{"J": [0, 2, 0], "c": 1.0}], [{"J": [0, 0, 1], "c": 1.0}]],
    })
    r = engine.count_roots(f, max_iterations=12)
    assert r.status == "iteration-cap-reached"
    assert [it.k for it in r.iterations] == list(range(1, 13))
    assert r.iterations[-1].grid_size > sphere.DEFAULT_GRID_CAP
    assert all(lvl.evaluated <= sphere.DEFAULT_GRID_CAP for lvl in r.trace)


def test_vertex_set_antipodal_and_components_even():
    f = system(TWOLINES).normalized()
    for k in (3, 4, 5):
        g = engine.build_graph(f, whole_level(f, CubeGridSpec(n=1, k=k)), EXACT)
        assert len(engine.connected_components(g)) % 2 == 0
        # vertex residual/sigma data is antipodally symmetric by construction
        pts = {tuple(np.round(p, 12)) for p in g.vertex_points}
        for p in g.vertex_points:
            assert tuple(np.round(-p, 12)) in pts


def test_iteration_reports_structure():
    r = engine.count_roots(system(TWOLINES))
    for i, rep in enumerate(r.iterations):
        assert rep.k == 1 + i
        assert rep.eta == 2.0**-rep.k
        assert rep.grid_size == 4 * 2 ** (rep.k + 1)
        d = rep.to_dict()
        assert set(d) == {
            "k",
            "eta",
            "grid_size",
            "vertex_count",
            "component_count",
            "condition_i_pass",
            "condition_ii_pass",
            "min_intercomponent_distance",
            "min_excluded_fsup",
        }


def test_result_document_schema():
    d = engine.count_roots(system(TWOLINES)).to_dict()
    assert set(d) == {
        "count",
        "status",
        "components",
        "iterations",
        "kappa_lower_bound",
        "original_norm",
    }
    for comp in d["components"]:
        assert set(comp) == {"representative", "zero", "beta"}


def test_determinism_across_workers():
    f = system(TWOLINES)
    docs = [engine.count_roots(f, workers=w).to_dict() for w in (1, 4)]
    assert docs[0] == docs[1]


def test_thread_pool_keeps_documents(multivariate_suite, monkeypatch):
    """With 64-row chunks the levels run on the thread pool, and the count
    documents and the kappa estimate are byte-identical with 1 and 4 workers."""
    monkeypatch.setattr(engine, "_CHUNK", 64)
    chunks_mapped = []

    class CountingPool(ThreadPoolExecutor):
        def map(self, fn, chunks, **kwargs):
            chunks_mapped.append(len(chunks))
            return super().map(fn, chunks, **kwargs)

    monkeypatch.setattr(engine, "ThreadPoolExecutor", CountingPool)
    f = _suite_system(multivariate_suite, (1, 1), 0)
    runs = {
        "exact": lambda w: canonical_json(engine.count_roots(f, workers=w).to_dict()),
        "rounded24": lambda w: canonical_json(
            engine.count_roots(f, mode="rounded", bits=24, workers=w).to_dict()),
        "kappa": lambda w: engine.estimate_kappa(f, CubeGridSpec(n=2, k=4), workers=w).hex(),
    }
    for name, run in runs.items():
        outputs = []
        for w in (1, 4):
            chunks_mapped.clear()
            outputs.append(run(w))
            assert bool(chunks_mapped) == (w > 1), name
        assert min(chunks_mapped) > 1 and max(chunks_mapped) > 4, name
        assert outputs[0] == outputs[1], name


def test_rounded_mode_agrees_on_easy_system():
    f = system(TWOLINES)
    exact = engine.count_roots(f)
    for bits in (53, 24, 12):
        r = engine.count_roots(f, mode="rounded", bits=bits, max_iterations=20)
        assert r.status == "converged"
        assert r.count == exact.count


def test_rounded_mode_requires_bits():
    with pytest.raises(ValueError):
        engine.count_roots(system(LINE), mode="rounded")


def test_estimate_kappa_closed_form():
    # f = X1 has kappa = sqrt(2): mu = 1/|x0|... the max of min(mu, 1/|x1|)
    # over the circle is attained at |x0| = |x1| = 1/sqrt(2)
    val = engine.estimate_kappa(system(LINE), CubeGridSpec(n=1, k=8))
    assert abs(val - math.sqrt(2.0)) < 1e-3
    assert val <= math.sqrt(2.0) + 1e-12


def test_build_graph_requires_normalized():
    """The level a graph is built on refuses an unnormalized system."""
    f = system(TWOLINES)
    with pytest.raises(ValueError, match="normalized"):
        engine.build_graph(f, whole_level(f, CubeGridSpec(n=1, k=2)), EXACT)


def test_max_iterations_validation():
    with pytest.raises(ValueError):
        engine.count_roots(system(LINE), max_iterations=0)


def test_kappa_monotone_under_refinement():
    f = system(TWOLINES)
    vals = [
        engine.estimate_kappa(f, CubeGridSpec(n=1, k=k)) for k in (3, 5, 7)
    ]
    assert vals[0] <= vals[1] + 1e-12
    assert vals[1] <= vals[2] + 1e-12


def test_kappa_estimate_of_subnormal_residuals_is_silent():
    # X0^4096 - X1^4096 has subnormal residuals off its zeros, where 1 / f_sup
    # overflows; the suite's filterwarnings = error fails on numpy's warning.
    f = system({"n": 1, "degrees": [4096],
                "polys": [[{"J": [4096, 0], "c": 1.0}, {"J": [0, 4096], "c": -1.0}]]})
    result = engine.count_roots(f, max_iterations=3)
    assert result.status == "iteration-cap-reached"
    assert result.kappa_lower_bound == math.inf


def _graphed_levels(fn, ar, max_levels):
    """(graph, component ids, report) of each level count_levels graphs, as
    it hands them to engine.halting_report, and the run's result."""
    levels, halting_report = [], engine.halting_report

    def recorded(graph, ids, *thresholds):
        levels.append((graph, ids, halting_report(graph, ids, *thresholds)))
        return levels[-1][2]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine, "halting_report", recorded)
        result, _ = engine.count_levels(fn, ar, max_levels)
    return result, levels


def _levels_to_halt(f, ar, max_levels=24):
    """(fn, graph, component ids, report) per level until both conditions pass."""
    fn = f.normalized()
    result, levels = _graphed_levels(fn, ar, max_levels)
    assert result.status == "converged", "no halt within the level budget"
    return [(fn, *level) for level in levels]


@pytest.fixture(scope="session")
def levels_to_halt():
    """`_levels_to_halt` of the unpatched engine, run once per system and
    provider for the session; tests only read the levels.  A test that
    patches the engine calls `_levels_to_halt` itself, after its cached
    runs."""
    cache = {}

    def levels(f, ar):
        key = (id(f), ar)
        if key not in cache:
            cache[key] = (f, _levels_to_halt(f, ar))
        return cache[key][1]

    return levels


GATE_CASES = [((2, 1), 0, "exact", None)] + [
    ((1, 1), seed, mode, bits)
    for mode, bits in (("exact", None), ("rounded", 53), ("rounded", 24))
    for seed in range(4)
]
GATE_IDS = [f"{d[0]}{d[1]}-seed{s}-{m}{b or ''}" for d, s, m, b in GATE_CASES]


def _suite_system(suite, degrees, seed):
    (f,) = [c["system"] for c in suite if c["degrees"] == degrees and c["seed"] == seed]
    return f


@pytest.mark.parametrize("degrees, seed, mode, bits", GATE_CASES, ids=GATE_IDS)
def test_sigma_min_kernel_matches_svd_per_level(
    multivariate_suite, levels_to_halt, monkeypatch, degrees, seed, mode, bits
):
    """The closed-form 2x2 kernel takes every grid decision the SVD takes."""
    f = _suite_system(multivariate_suite, degrees, seed)
    ar = make_arithmetic(mode, bits)
    ours = levels_to_halt(f, ar)
    monkeypatch.setattr(alpha, "sigma_min_many", svd_sigma_min_many)
    ref = _levels_to_halt(f, ar)
    assert len(ours) == len(ref)
    for (_, graph, _, report), (_, rgraph, _, rreport) in zip(ours, ref):
        assert np.array_equal(graph.rows, rgraph.rows)
        assert np.array_equal(graph.vertex_mask, rgraph.vertex_mask)
        assert np.array_equal(graph.edges, rgraph.edges)
        assert np.array_equal(graph.labels, rgraph.labels)
        assert report == rreport


def _vertex_sources(graph):
    """For each vertex, the position of its canonical row in graph.rows."""
    rows = graph.rows
    where = dict(zip(lattice_index(graph.spec, rows).tolist(), range(len(rows))))
    where.update(zip(lattice_index(graph.spec, -rows).tolist(), range(len(rows))))
    return np.array([where[i] for i in graph.vertex_indices.tolist()], dtype=np.int64)


def _longhand_vertices_and_radii(f, graph, ar):
    """The vertex test at the evaluated rows, and the radii in vertex-list
    order, as each mode wrote them out separately."""
    c = alpha.theory_constants()
    n, D, fs, s = f.n, f.D, graph.f_sup, graph.sigma_min
    src = _vertex_sources(graph)
    if ar.t is not None:
        D32 = ar.mul(ar.const(float(D)), ar.sqrt(ar.const(float(D))))
        lhs = ar.mul(ar.mul(ar.const(float(n)), fs), D32)
        mask = lhs < ar.mul(ar.const(c.alpha_bullet), ar.mul(s, s))
        coef = ar.mul(ar.mul(ar.const(1.5), ar.const(c.sigma)), ar.sqrt(ar.const(float(n))))
        return mask, ar.div(ar.mul(coef, fs[src]), s[src])
    mask = n * fs * (D * math.sqrt(D)) < 2.0 * c.alpha_star * s**2
    return mask, c.sigma * math.sqrt(n) * fs[src] / s[src]


def _longhand_thresholds(n, D, eta, ar):
    """(thr_i, thr_ii) as each mode wrote them out separately; eta may be an
    array of meshes."""
    dim, dimD = float(n + 1), float((n + 1) * D)
    if ar.t is not None:
        pi = ar.const(math.pi)
        thr_i = ar.mul(ar.mul(ar.mul(ar.const(1.5), pi), ar.const(eta)), ar.sqrt(ar.const(dim)))
        half_sqrt2 = ar.div(ar.sqrt(ar.const(2.0)), ar.const(2.0))
        thr_ii = ar.mul(ar.mul(ar.mul(half_sqrt2, pi), ar.const(eta)), ar.sqrt(ar.const(dimD)))
        return thr_i, thr_ii
    return math.pi * eta * math.sqrt(dim), 0.5 * math.pi * eta * math.sqrt(dimD)


def _halting_verdicts(f, spec, ar, min_cross, min_excluded):
    """halting_report on two singleton components min_cross apart and one
    excluded grid point of residual min_excluded."""
    graph = engine.ProximityGraph(
        spec=spec,
        rows=np.zeros((3, spec.n + 1), dtype=np.int64),
        f_sup=np.array([0.0, 0.0, min_excluded]),
        sigma_min=np.ones(3),
        vertex_mask=np.array([True, True, False]),
        kappa=np.ones(3),
        inherited_fsup=math.inf,
        vertex_indices=np.array([0, 1]),
        vertex_points=np.zeros((2, spec.n + 1)),
        radii=np.zeros(2),
        labels=np.array([0, 1]),
        min_intercomponent_distance=min_cross,
        edges=np.zeros((0, 2), dtype=np.int64),
    )
    thr_i, thr_ii = engine._thresholds(f, spec, ar)
    report = engine.halting_report(graph, engine.connected_components(graph), thr_i, thr_ii)
    return report.condition_i_pass, report.condition_ii_pass


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("degrees, seed, mode, bits", GATE_CASES, ids=GATE_IDS)
def test_mode_formulas_match_longhand(multivariate_suite, levels_to_halt, degrees, seed, mode,
                                      bits):
    """One formula path with mode constants decides bit for bit as the
    separate per-mode expressions do, at every level up to the halt."""
    ar = make_arithmetic(mode, bits)
    f = _suite_system(multivariate_suite, degrees, seed)
    for fn, graph, _, report in levels_to_halt(f, ar):
        mask, radii = _longhand_vertices_and_radii(fn, graph, ar)
        assert np.array_equal(graph.vertex_mask, mask)
        assert np.array_equal(_bits(graph.radii), _bits(radii))
        thr_i, thr_ii = _longhand_thresholds(fn.n, fn.D, graph.spec.eta, ar)
        # "> thr" fails at thr and passes one ulp above it only if the
        # engine's threshold is thr exactly.
        assert _halting_verdicts(fn, graph.spec, ar, thr_i, thr_ii) == (False, False)
        above = (np.nextafter(thr_i, math.inf), np.nextafter(thr_ii, math.inf))
        assert _halting_verdicts(fn, graph.spec, ar, *above) == (True, True)
        assert report.condition_i_pass == (report.min_intercomponent_distance > thr_i)
        assert report.condition_ii_pass == (report.min_excluded_fsup > thr_ii)


def test_thresholds_match_longhand_at_every_level():
    """The thresholds scaled from eta = 1 equal the longhand ones bit for
    bit at every depth, width and shape: eta is a power of two."""
    rng = random.Random(10)
    for t in (None, 53, 24, 12, 3, 2):
        ar = EXACT if t is None else make_arithmetic("rounded", t)
        for n in (1, 2, 3):
            for D in range(1, 7):
                degrees = [D] + [rng.randint(1, D) for _ in range(n - 1)]
                fn = random_system(rng, n, degrees).normalized()
                specs = [CubeGridSpec(n=n, k=k) for k in range(1, 41)]
                got = np.array([engine._thresholds(fn, spec, ar) for spec in specs]).T
                want = _longhand_thresholds(n, D, np.array([spec.eta for spec in specs]), ar)
                assert np.array_equal(_bits(got), _bits(want)), (t, n, degrees)


def _uniform_grid(monkeypatch):
    """Turn pruning off: every level, evaluated or served from the coarse
    grid, passes on the whole next grid."""

    def whole_next_grid(f, level, ar):
        return None, math.inf

    monkeypatch.setattr(engine, "_prune", whole_next_grid)


def _assert_pruning_keeps_decisions(pruned, uniform):
    assert len(pruned) == len(uniform)
    for (_, graph, _, report), (_, ugraph, _, ureport) in zip(pruned, uniform):
        assert np.array_equal(graph.vertex_indices, ugraph.vertex_indices)
        assert np.array_equal(_bits(graph.vertex_points), _bits(ugraph.vertex_points))
        assert np.array_equal(_bits(graph.radii), _bits(ugraph.radii))
        assert np.array_equal(graph.edges, ugraph.edges)
        assert np.array_equal(graph.labels, ugraph.labels)
        assert report.min_excluded_fsup <= ureport.min_excluded_fsup
        assert dataclasses.replace(report, min_excluded_fsup=0.0) == dataclasses.replace(
            ureport, min_excluded_fsup=0.0
        )
        assert len(graph.rows) <= len(ugraph.rows) == ugraph.spec.point_count() // 2


PRUNE_CASES = [((2, 1), 0, "exact", None)] + [
    ((1, 1), seed, mode, bits)
    for mode, bits in (("exact", None), ("rounded", 53), ("rounded", 24), ("rounded", 12))
    for seed in range(4)
]


@pytest.mark.parametrize(
    "degrees, seed, mode, bits", PRUNE_CASES,
    ids=[f"{d[0]}{d[1]}-seed{s}" + (f"-{m}{b}" if b else "") for d, s, m, b in PRUNE_CASES],
)
def test_pruned_levels_match_uniform_grid(multivariate_suite, levels_to_halt, monkeypatch,
                                          degrees, seed, mode, bits):
    """Exclusion pruning takes every decision the whole grid takes, level by level."""
    f = _suite_system(multivariate_suite, degrees, seed)
    ar = make_arithmetic(mode, bits)
    pruned = levels_to_halt(f, ar)
    _uniform_grid(monkeypatch)
    uniform = _levels_to_halt(f, ar)
    _assert_pruning_keeps_decisions(pruned, uniform)
    assert len(pruned[-1][1].rows) < len(uniform[-1][1].rows)


def _assert_univariate_pruning_keeps_decisions(suite, levels_to_halt, monkeypatch, ar):
    pruned = [levels_to_halt(case["system"], ar) for case in suite]
    _uniform_grid(monkeypatch)
    for case, levels in zip(suite, pruned):
        _assert_pruning_keeps_decisions(levels, _levels_to_halt(case["system"], ar))


def test_pruned_levels_match_uniform_grid_univariate(univariate_suite, levels_to_halt,
                                                     monkeypatch):
    _assert_univariate_pruning_keeps_decisions(univariate_suite, levels_to_halt, monkeypatch,
                                               EXACT)


@pytest.mark.parametrize("bits", [53, 24, 12])
def test_pruned_levels_match_uniform_grid_univariate_rounded(univariate_suite, levels_to_halt,
                                                             monkeypatch, bits):
    _assert_univariate_pruning_keeps_decisions(univariate_suite, levels_to_halt, monkeypatch,
                                               make_arithmetic("rounded", bits))


def test_level_with_nothing_left_to_evaluate():
    """When every cell is resolved, a level evaluates no point, has no
    vertex, and passes condition (ii) on the inherited bound alone."""
    f = system(CIRCLE).normalized()
    spec = CubeGridSpec(n=1, k=4)
    nothing = np.zeros((0, 2), dtype=np.int64)
    graph = engine.build_graph(
        f, engine.evaluate_level(f, spec, nothing, inherited_fsup=0.5), EXACT)
    report = engine.halting_report(graph, engine.connected_components(graph),
                                   *engine._thresholds(f, spec, EXACT))
    assert graph.n_vertices == 0 and report.grid_size == spec.point_count()
    assert report.min_excluded_fsup == 0.5
    assert report.condition_i_pass and report.condition_ii_pass
    assert graph.kappa.shape == (0,) and np.max(graph.kappa, initial=-math.inf) == -math.inf
    keep, inherited = engine._prune(f, graph, EXACT)
    rows = sphere.children(spec, graph.rows[keep])
    assert rows.shape == (0, 2) and inherited == 0.5


def test_whole_grid_level_resolving_nothing_passes_on_whole_grid(multivariate_suite):
    """A whole-grid level that resolves no point hands the next level its
    whole grid, the rows sphere.children gives for all of the level's rows;
    at 3 bits no margin is finite, so every level is the whole grid."""
    f = _suite_system(multivariate_suite, (1, 1), 0).normalized()
    for ar in (EXACT, make_arithmetic("rounded", 12), make_arithmetic("rounded", 3)):
        level = whole_level(f, CubeGridSpec(n=2, k=1), ar)
        finer = CubeGridSpec(n=2, k=2)
        keep, inherited = engine._prune(f, level, ar)
        assert keep is None
        rows = (sphere.canonical_grid(finer) if keep is None
                else sphere.children(level.spec, level.rows[keep]))
        assert np.array_equal(rows, sphere.children(level.spec, level.rows))
        assert np.all(np.diff(lattice_index(finer, rows)) > 0)
        assert 2 * len(rows) == finer.point_count()
        assert inherited == math.inf
    r = engine.count_roots(f, mode="rounded", bits=3, max_iterations=6)
    assert [lvl.evaluated for lvl in r.trace] == [it.grid_size for it in r.iterations]


def test_small_canonical_grids_are_shared_read_only():
    """Grids of at most sphere._CHUNK canonical rows are built once and
    shared: they equal a fresh grid_lattice's canonical rows and cannot be
    written.  The cap is checked at every call, and a larger grid is not
    kept once its caller drops it."""
    for n, k in ((1, 1), (1, 13), (2, 5), (3, 3)):
        spec = CubeGridSpec(n=n, k=k)
        assert spec.point_count() // 2 <= sphere._CHUNK
        rows = sphere.canonical_grid(spec)
        lattice = sphere.grid_lattice(spec)
        assert np.array_equal(rows, lattice[sphere.is_canonical(lattice)])
        assert sphere.canonical_grid(spec, spec.point_count()) is rows
        with pytest.raises(ValueError, match="read-only"):
            rows[0] = 0
        with pytest.raises(sphere.GridTooLargeError):
            sphere.canonical_grid(spec, spec.point_count() - 1)
    big = CubeGridSpec(n=1, k=14)
    assert big.point_count() // 2 > sphere._CHUNK
    held = sphere._shared_canonical_lattice.cache_info().currsize
    rows = sphere.canonical_grid(big)
    assert len(rows) == big.point_count() // 2 and rows.flags.writeable
    assert sphere._shared_canonical_lattice.cache_info().currsize == held
    ref = weakref.ref(rows)
    del rows
    gc.collect()
    assert ref() is None


def test_one_block_level_computes_each_norm_once(monkeypatch):
    """A level whose vertices fit in one block takes one pairwise_distances
    call, of one vertex of each antipodal pair against all V vertices;
    more blocks pass the later columns."""
    calls, shapes, distances = [], [], sphere.pairwise_distances

    def recorded(X, ar, Y=None):
        calls.append(Y is None)
        shapes.append((len(X), len(X if Y is None else Y)))
        return distances(X, ar, Y)

    monkeypatch.setattr(sphere, "pairwise_distances", recorded)
    rng = np.random.default_rng(0)
    points = rng.standard_normal((20, 3))
    points /= np.linalg.norm(points, axis=1)[:, None]
    points, radii = np.concatenate((points, -points)), np.full(40, 0.3)
    mirror = (np.arange(40) + 20) % 40
    whole = engine._proximity(points, radii, EXACT, mirror)
    assert calls == [False] and shapes == [(20, 40)]
    calls.clear()
    monkeypatch.setattr(engine, "_BLOCK", 40 * 7)
    blocks = engine._proximity(points, radii, EXACT, mirror)
    assert len(calls) > 2 and not any(calls)
    assert np.array_equal(whole[0], blocks[0]) and _bits(whole[1]) == _bits(blocks[1])


@pytest.mark.parametrize("t", [None, 53, 24, 12, 5, 2])
def test_one_block_proximity_matches_full_matrix(t):
    """A one-block level reads the rows of one vertex of each antipodal
    pair from pairwise_distances and fills the others by
    d(-x, y) = d(x, -y): the full matrix's rows, bit for bit, and so its
    labels and minimum, on random antipodally closed vertex sets listed in
    random order."""
    ar = EXACT if t is None else make_arithmetic("rounded", t)
    rng = np.random.default_rng(t or 0)
    for _ in range(8):
        half = rng.standard_normal((int(rng.integers(1, 128)), int(rng.integers(2, 5))))
        half = ar.const(half / np.linalg.norm(half, axis=1)[:, None])
        order = rng.permutation(2 * len(half))
        points = np.concatenate((half, -half))[order]
        position = np.argsort(order)
        mirror = position[(order + len(half)) % len(points)]
        assert np.array_equal(points[mirror], -points)
        full = sphere.pairwise_distances(points, ar)
        assert np.array_equal(_bits(full[mirror]), _bits(full[:, mirror]))
        radii = rng.uniform(0.0, 0.3, len(half))[order % len(half)]
        labels, min_cross, _ = dense_proximity(points, radii, ar)
        got, got_min, _ = engine._proximity(points, radii, ar, mirror)
        assert len(points) ** 2 <= engine._BLOCK
        assert np.array_equal(got, labels) and _bits(got_min) == _bits(min_cross)


def _assert_spanning_forest(edges, labels, near):
    """edges are V - C edges i < j of the adjacency near whose hook gives labels."""
    V = len(labels)
    assert edges.shape == (V - len(set(labels.tolist())), 2)
    assert np.all(edges[:, 0] < edges[:, 1])
    assert near[edges[:, 0], edges[:, 1]].all()
    assert np.array_equal(hook_labels(V, edges), labels)


def _as_level(graph):
    """The evaluated level a graph was built from."""
    return engine.GridLevel(**{k.name: getattr(graph, k.name)
                               for k in dataclasses.fields(engine.GridLevel)})


def _assert_graph_layer_matches_dense(fn, graph, ids, report, ar, monkeypatch):
    """The level's labels, component ids and minimum equal the dense
    reference's and its edges are a spanning forest of the graph; so are
    those of the level rebuilt with one-row blocks, whose distance arrays
    hold at most V entries."""
    points, radii, V = graph.vertex_points, graph.radii, graph.n_vertices
    labels, min_cross, near = dense_proximity(points, radii, ar)
    assert np.array_equal(graph.labels, labels)
    assert ids.tolist() == sorted(set(labels.tolist()))
    assert _bits(report.min_intercomponent_distance) == _bits(min_cross)
    _assert_spanning_forest(graph.edges, labels, near)
    sizes, distances = [], sphere.pairwise_distances

    def sized(*args):
        out = distances(*args)
        sizes.append(out.size)
        return out

    with monkeypatch.context() as m:
        m.setattr(engine, "_BLOCK", 1)
        m.setattr(sphere, "pairwise_distances", sized)
        blocks = engine.build_graph(fn, _as_level(graph), ar)
    assert max(sizes, default=0) <= V
    assert np.array_equal(blocks.labels, labels)
    assert _bits(blocks.min_intercomponent_distance) == _bits(min_cross)
    _assert_spanning_forest(blocks.edges, labels, near)


MODES = [("exact", None), ("rounded", 53), ("rounded", 24), ("rounded", 12)]


@pytest.mark.parametrize("mode, bits", MODES, ids=[m + str(b or "") for m, b in MODES])
def test_graph_layer_matches_dense_reference(univariate_suite, multivariate_suite,
                                             levels_to_halt, monkeypatch, mode, bits):
    """The pivot layer gives the labels, components and minimum of the full
    distance matrix, on both oracle suites (rounded: the members marked
    rounded_feasible), at the halting level and the one before it, which
    does not halt."""
    ar = make_arithmetic(mode, bits)
    systems = [case["system"] for case in univariate_suite] + [
        case["system"] for case in multivariate_suite
        if mode == "exact" or case["rounded_feasible"]
    ]
    for f in systems:
        levels = levels_to_halt(f, ar)
        assert len(levels) >= 2
        for fn, graph, ids, report in levels[-2:]:
            _assert_graph_layer_matches_dense(fn, graph, ids, report, ar, monkeypatch)


@pytest.mark.parametrize("mode, bits", MODES, ids=[m + str(b or "") for m, b in MODES])
def test_graph_lists_its_vertices_in_grid_order(univariate_suite, multivariate_suite,
                                                levels_to_halt, mode, bits):
    """Every graphed level of both oracle suites (rounded: the members
    marked rounded_feasible) lists its canonical vertex rows y and their
    antipodes -y by increasing grid_lattice index, each once.  It gives y
    the point `sphere.project_many` of its own lattice row through the
    run's provider, bit for bit, and -y that point negated (a zero
    coordinate becomes -0.0)."""
    ar = make_arithmetic(mode, bits)
    systems = [case["system"] for case in univariate_suite] + [
        case["system"] for case in multivariate_suite
        if mode == "exact" or case["rounded_feasible"]
    ]
    graphs = [graph for f in systems for _, graph, _, _ in levels_to_halt(f, ar)]
    for graph in graphs:
        canon = graph.rows[graph.vertex_mask]
        rows = np.concatenate((canon, -canon))
        index = lattice_index(graph.spec, rows)
        order = np.argsort(index)
        assert np.array_equal(graph.vertex_indices, index[order])
        assert np.all(np.diff(graph.vertex_indices) > 0)
        points = sphere.project_many(canon * graph.spec.eta, ar)
        want = np.concatenate((points, -points))[order]
        assert np.array_equal(_bits(graph.vertex_points), _bits(want))
    assert sum(graph.n_vertices for graph in graphs) > 0


def test_graph_layer_matches_dense_reference_n3(monkeypatch):
    """f = (X1 + 0.3 X0, X2 - 0.2 X1, X3^2 - 0.5 X0^2 + 0.25 X2^2) at k = 7
    to 9, where its 2 rays have 32, 180 and 1736 vertices."""
    f = system({"n": 3, "degrees": [1, 1, 2], "polys": [
        [{"J": [0, 1, 0, 0], "c": 1.0}, {"J": [1, 0, 0, 0], "c": 0.3}],
        [{"J": [0, 0, 1, 0], "c": 1.0}, {"J": [0, 1, 0, 0], "c": -0.2}],
        [{"J": [0, 0, 0, 2], "c": 1.0}, {"J": [2, 0, 0, 0], "c": -0.5},
         {"J": [0, 0, 2, 0], "c": 0.25}],
    ]}).normalized()
    result, levels = _graphed_levels(f, EXACT, 9 - engine.initial_level(3) + 1)
    assert result.status == "iteration-cap-reached"
    sizes = []
    for graph, ids, report in levels:
        if graph.spec.k >= 7:
            assert len(ids) == 4
            sizes.append(graph.n_vertices)
            _assert_graph_layer_matches_dense(f, graph, ids, report, EXACT, monkeypatch)
    assert sizes == [32, 180, 1736]


@pytest.mark.parametrize("t", [None, 53, 24, 12])
def test_distance_error_bounds_computed_distances(t):
    """pairwise_distances through the provider is within _distance_error of
    the angle between the stored vectors, for random, near-equal and
    near-antipodal pairs.  The angle is a float64 half-angle formula,
    2 atan2(||x' - y'||, ||x' + y'||) for the normalized x', y', within a
    few 1e-16 of it: far below the bound.  The bound is not idle: near-equal
    pairs err by more than a tenth of it, the sqrt(u) that arccos loses at
    +-1."""
    ar = EXACT if t is None else make_arithmetic("rounded", t)
    rng = np.random.default_rng(t or 0)
    for m in (2, 3, 4):
        X = rng.standard_normal((200, m))
        X /= np.linalg.norm(X, axis=1)[:, None]
        scale = 10.0 ** rng.uniform(-17, -2, (200, 1))
        near = X + scale * rng.standard_normal((200, m))
        # Stored vectors are rounded to t bits, as sphere.project_many leaves them.
        X, Y = ar.const(X), ar.const(np.concatenate((rng.standard_normal((200, m)), near, -near)))
        got = sphere.pairwise_distances(X, ar, Y)
        xn = X / np.linalg.norm(X, axis=1)[:, None]
        yn = Y / np.linalg.norm(Y, axis=1)[:, None]
        diff = np.linalg.norm(xn[:, None, :] - yn[None, :, :], axis=2)
        total = np.linalg.norm(xn[:, None, :] + yn[None, :, :], axis=2)
        err = np.abs(got - 2.0 * np.arctan2(diff, total))
        bound = engine._distance_error(m, ar)
        assert err.max() <= bound, (m, err.max(), bound)
        own = np.arange(200)
        assert err[own, 200 + own].max() > 0.1 * bound, (m, bound)


def test_pivot_bound_holds_at_12_bits(univariate_suite, levels_to_halt, monkeypatch):
    """At 12 bits the derived slack keeps every level's labels and minimum
    those of the full distance matrix on the 20 univariate forms; a slack
    of 1e-6, sound at host precision only, clears vertices that have edges
    and mislabels some of these levels."""
    ar = make_arithmetic("rounded", 12)
    levels = [(fn, graph) for case in univariate_suite
              for fn, graph, _, _ in levels_to_halt(case["system"], ar)]
    dense = [dense_proximity(graph.vertex_points, graph.radii, ar) for _, graph in levels]
    for (_, graph), (labels, min_cross, _) in zip(levels, dense):
        assert np.array_equal(graph.labels, labels)
        assert _bits(graph.min_intercomponent_distance) == _bits(min_cross)
    monkeypatch.setattr(engine, "_distance_error", lambda m, ar: 1e-6 / 3)
    wrong = [not np.array_equal(engine.build_graph(fn, _as_level(graph), ar).labels, labels)
             for (fn, graph), (labels, _, _) in zip(levels, dense)]
    assert any(wrong)


def _cluster_points(rng, V, m):
    """V points in a few clusters on S^(m-1), with radii below their
    spacing, which link some neighbours and not others."""
    centres = rng.standard_normal((rng.integers(1, 5), m))
    step = rng.uniform(0.01, 0.2)
    points = centres[rng.integers(0, len(centres), V)] + step * rng.standard_normal((V, m))
    points /= np.linalg.norm(points, axis=1)[:, None]
    return points, rng.uniform(0.2, 1.0) * step * rng.random(V)


@pytest.mark.parametrize("seed", range(6))
def test_pivot_layer_matches_dense_on_random_clusters(monkeypatch, seed):
    """Random antipodal clusters, whose components are not cliques, so
    vertices join their groups through exact tests: labels, minimum and a
    spanning forest equal the dense reference's, with one matrix and in
    blocks."""
    rng = np.random.default_rng(seed)
    for ar in (EXACT, make_arithmetic("rounded", 24), make_arithmetic("rounded", 12)):
        half, radii = _cluster_points(rng, int(rng.integers(1, 60)), int(rng.integers(2, 5)))
        points, radii = np.concatenate((half, -half)), np.concatenate((radii, radii))
        mirror = (np.arange(len(points)) + len(half)) % len(points)
        labels, min_cross, near = dense_proximity(points, radii, ar)
        for block in (engine._BLOCK, 1, 7 * len(points)):
            monkeypatch.setattr(engine, "_BLOCK", block)
            got, got_min, forest = engine._proximity(points, radii, ar, mirror)
            assert np.array_equal(got, labels), block
            assert _bits(got_min) == _bits(min_cross), block
            _assert_spanning_forest(forest, labels, near)
