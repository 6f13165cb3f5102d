"""The level loop without per-level reports, as `sweep` runs it, the
coarse grid its small levels are served from, and the loop against the
whole-grid reference of `tests/reference.py`.

`count_levels(..., reports=False)` evaluates every level's points and
vertex test but builds a level's vertex list, radii and graph only where
condition (ii) passes.  Its count, status, condition estimate and
representatives must be those of the loop with reports, bit for bit, and
its caps must act at the same levels.  A level at or below the run's
coarse grid is served from that grid, as positions in it; its data must
be the bits its own evaluation gives, and the grid must pass no cap and
no last level the run has.
"""

import dataclasses
import functools
import random
import sys

import numpy as np
import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spherecount import cli, engine, oracle, sphere
from spherecount.polysys import parse_system, system_to_document
from spherecount.rounding import EXACT, Arithmetic
from spherecount.sphere import CubeGridSpec

import reference
from util import random_system

DOUBLE = {"n": 1, "degrees": [2], "polys": [[{"J": [0, 2], "c": 1.0}]]}
# X0^2 + 0.3 X1^2: no real zero; normalized, its residual is at least 0.287.
ZERO_FREE = {"n": 1, "degrees": [2],
             "polys": [[{"J": [2, 0], "c": 1.0}, {"J": [0, 2], "c": 0.3}]]}
# X1^3 - X0 X1^2: a double zero, which fails condition (ii) at every level,
# and a simple one, whose vertices double from level to level.  At k = 11
# the loop evaluates 1732 points and has 50 vertices; at k = 12, 3220
# points and 100 vertices; k = 13 holds 6204 points.
DOUBLE_AND_SIMPLE = {"n": 1, "degrees": [3],
                     "polys": [[{"J": [0, 3], "c": 1.0}, {"J": [1, 2], "c": -1.0}]]}


def _both(fn, ar, levels, **kwargs):
    """count_levels with and without reports."""
    return (engine.count_levels(fn, ar, levels, **kwargs),
            engine.count_levels(fn, ar, levels, reports=False, **kwargs))


def _assert_same_outcome(with_reports, without):
    (full, full_reps), (bare, bare_reps) = with_reports, without
    assert (bare.count, bare.status) == (full.count, full.status)
    assert bare.kappa_lower_bound.hex() == full.kappa_lower_bound.hex()
    assert bare_reps.shape == full_reps.shape
    assert np.array_equal(bare_reps.view(np.int64), full_reps.view(np.int64))
    assert bare.iterations == [] and bare.trace == []


@st.composite
def loop_cases(draw):
    """(normalized system, provider, level budget): a random binary form of
    degree <= 4 or a dense random system of degrees (1, 1) or (2, 1), exact
    or at 24 or 12 bits.  The n = 2 budget stops before the whole-grid
    levels of low precision grow large."""
    rng = random.Random(draw(st.integers(0, 2**16)))
    bits = draw(st.sampled_from([None, 24, 12]))
    ar = Arithmetic(bits)
    shape = draw(st.sampled_from(["binary", (1, 1), (2, 1)]))
    if shape == "binary":
        f, _ = oracle.random_binary_system(rng, draw(st.integers(1, 4)))
        return f.normalized(), ar, 14
    return random_system(rng, 2, shape).normalized(), ar, 6 if bits == 12 else 8


@settings(max_examples=12, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(loop_cases())
def test_reports_do_not_change_the_outcome(case):
    fn, ar, levels = case
    _assert_same_outcome(*_both(fn, ar, levels))


@pytest.mark.parametrize("bits", [None, 53, 24, 12])
def test_reports_do_not_change_the_outcome_on_the_suites(univariate_suite, multivariate_suite,
                                                         bits):
    """Both oracle suites (rounded: the (1,1) systems), which halt."""
    ar = Arithmetic(bits)
    systems = [case["system"] for case in univariate_suite] + [
        case["system"] for case in multivariate_suite
        if case["degrees"] == (1, 1) or (bits is None and case["degrees"] == (2, 1))
    ]
    for f in systems:
        both = _both(f.normalized(), ar, 24)
        assert both[0][0].status == "converged"
        _assert_same_outcome(*both)


def _levels_run(monkeypatch, run):
    """(result, the levels whose rows the loop made, the cap errors raised
    there).  The loop makes an evaluated level's rows by
    `sphere.canonical_grid` of its spec or `sphere.children` of the level
    before; a served level makes none, and calls from elsewhere are not
    counted."""
    made, errors = [], []

    def checked(make, step):
        def made_rows(spec, *args):
            if sys._getframe(1).f_code.co_name != "count_levels":
                return make(spec, *args)
            made.append(spec.k + step)
            try:
                return make(spec, *args)
            except sphere.GridTooLargeError as exc:
                errors.append(str(exc))
                raise
        return made_rows

    with monkeypatch.context() as m:
        for name, step in (("canonical_grid", 0), ("children", 1)):
            m.setattr(sphere, name, checked(getattr(sphere, name), step))
        result, _ = run()
    return result, made, errors


@pytest.mark.parametrize("reports", [True, False])
def test_no_children_after_the_last_level(monkeypatch, reports):
    """A run that reaches max_iterations makes the rows of no level past
    its last: the loop expands a level only to make the next.  X1^2 is
    served from the coarse grid, then evaluated through `sphere.children`
    up to the last level, k = 12."""
    fn = parse_system(DOUBLE).normalized()
    result, made, _ = _levels_run(
        monkeypatch, lambda: engine.count_levels(fn, EXACT, 12, reports=reports))
    assert result.status == "iteration-cap-reached"
    assert made and made == list(range(made[0], 13))


@pytest.mark.parametrize("doc, bits, cap, error", [
    (DOUBLE, None, 1000, "grid points"),
    (DOUBLE, 24, 1000, "grid points"),
    pytest.param(DOUBLE_AND_SIMPLE, None, 4000, "level k=13 needs 6204 grid points",
                 id="doc2-None-4000-grid points"),
])
def test_later_cap_ends_the_run_at_the_same_level(monkeypatch, doc, bits, cap, error):
    """A grid cap that bites at a later, non-halting level ends both loops
    as iteration-cap-reached, after the same levels: both make the same
    rows and raise the same cap error at the level after the last report,
    and the levels within the cap, coarse ones among them, take the whole
    grids' decisions.  The cap counts points only: X1^3 - X0 X1^2 runs to
    k = 12, whose 100 vertices make 4,950 pairs, and stops at k = 13."""
    fn = parse_system(doc).normalized()
    ar = Arithmetic(bits)
    (full, full_made, full_errors), (bare, bare_made, bare_errors) = [
        _levels_run(monkeypatch, lambda r=r: engine.count_levels(fn, ar, 24, grid_cap=cap,
                                                                 reports=r))
        for r in (True, False)
    ]
    assert full.status == bare.status == "iteration-cap-reached"
    assert bare.kappa_lower_bound.hex() == full.kappa_lower_bound.hex()
    assert 1 < len(full.iterations) < 24
    assert full_made == bare_made and full_made[-1] == full.iterations[-1].k + 1
    assert full_errors == bare_errors and len(full_errors) == 1 and error in full_errors[0]
    reference.assert_reports_match(full.iterations, reference.levels(fn, ar, max_points=cap)[0])


# 3 X1^2 - X0^2 and (2 X1 - X0, X2 + 3 X0), left unnormalized (||f|| = sqrt(10)).
UNNORMALIZED = [
    {"n": 1, "degrees": [2], "polys": [[{"J": [0, 2], "c": 3.0}, {"J": [2, 0], "c": -1.0}]]},
    {"n": 2, "degrees": [1, 1], "polys": [
        [{"J": [0, 1, 0], "c": 2.0}, {"J": [1, 0, 0], "c": -1.0}],
        [{"J": [0, 0, 1], "c": 1.0}, {"J": [1, 0, 0], "c": 3.0}]]},
]


@pytest.mark.parametrize("reports", [True, False])
@pytest.mark.parametrize("doc", UNNORMALIZED, ids=["n1", "n2"])
def test_count_levels_refuses_an_unnormalized_system(doc, reports):
    """The levels' data need ||f|| = 1, whether a level is served from the
    coarse grid or evaluated: the n = 1 run would be served throughout, and
    its normalized system halts only at the eighth level."""
    f = parse_system(doc)
    assert abs(f.norm - 1.0) > 1e-9
    with pytest.raises(ValueError, match="normalized"):
        engine.count_levels(f, reports=reports)
    result, _ = engine.count_levels(f.normalized(), reports=reports)
    assert result.status == "converged"


@pytest.mark.parametrize("bits", [None, 53, 24, 12])
def test_served_levels_run_no_point_kernel(univariate_suite, multivariate_suite, monkeypatch,
                                           bits):
    """A run with a coarse grid computes point data once for that grid, at
    its level K, and once for each level past K; a served level gathers its
    data and runs no kernel.  Over the univariate suite and the (1,1)
    systems, with and without reports; some runs stop at or before K, and
    some go past it."""
    ar = Arithmetic(bits)
    systems = [c["system"] for c in univariate_suite] + [
        c["system"] for c in multivariate_suite if c["degrees"] == (1, 1)]
    evaluate, calls, past = engine.evaluate_level, [], []

    def counted(f, spec, rows, *args):
        calls.append((spec.k, 2 * len(rows) == spec.point_count()))
        return evaluate(f, spec, rows, *args)

    monkeypatch.setattr(engine, "evaluate_level", counted)
    for f in systems:
        fn = f.normalized()
        k0 = engine.initial_level(fn.n)
        K = max(k for k in range(k0, k0 + 24)
                if CubeGridSpec(n=fn.n, k=k).point_count() // 2 <= engine._COARSE)
        for reports in (True, False):
            calls.clear()
            result, _ = engine.count_levels(fn, ar, reports=reports)
            assert result.status == "converged"
            if reports:  # the run without reports has the same levels
                ks = [it.k for it in result.iterations]
            assert calls[0] == (K, True)
            assert [k for k, _ in calls[1:]] == [k for k in ks if k > K]
        past.append(ks[-1] > K)
    assert any(past) and not all(past)


def _same_bits(a: engine.GridLevel, b: engine.GridLevel) -> bool:
    """Every field of two evaluated levels equal, arrays bit for bit."""
    for field in dataclasses.fields(engine.GridLevel):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            if x.dtype != y.dtype or x.shape != y.shape:
                return False
            if x.dtype == float:
                x, y = x.view(np.int64), y.view(np.int64)
            if not np.array_equal(x, y):
                return False
        elif x != y:
            return False
    return True


@pytest.mark.parametrize("bits", [None, 53, 24, 12])
def test_served_levels_hold_their_own_evaluation(univariate_suite, multivariate_suite,
                                                 levels_to_halt, bits):
    """Every graphed level, read from the run's coarse grid or evaluated,
    equals `evaluate_level` on its own rows, bit for bit, whole-grid and
    pruned levels alike, at n = 1 and n = 2."""
    ar = Arithmetic(bits)
    systems = [univariate_suite[0]["system"], univariate_suite[5]["system"]] + [
        c["system"] for c in multivariate_suite if c["degrees"] == (1, 1) and c["seed"] == 0]
    pruned = []
    for f in systems:
        for fn, graph, _, _ in levels_to_halt(f, ar):
            level = engine.evaluate_level(fn, graph.spec, graph.rows, ar, 1, graph.inherited_fsup)
            assert _same_bits(graph, level), graph.spec.k
            pruned.append(2 * len(graph.rows) < graph.spec.point_count())
    assert any(pruned)


@pytest.mark.parametrize("n, K", [(1, 9), (2, 3), (2, 4), (3, 2)])
def test_served_tables_give_the_children(n, K):
    """Each level's cached grid is `sphere.canonical_grid` of its spec and
    lines up with `whole`: the coarse rows at `whole`, scaled down, are its
    rows, in grid order.  At each level k < K, the table rows of any set of
    level-k positions give, through `np.unique` and the engine's sort
    alike, the level-(k+1) positions of the rows `sphere.children` returns
    for those rows."""
    coarse = CubeGridSpec(n=n, k=K)
    rows = sphere.canonical_grid(coarse)
    rng = np.random.default_rng(n * K)
    assert engine._distinct(np.zeros((0, 3), dtype=np.int64)).shape == (0,)
    levels = engine._served_tables(n, K, 1)
    assert len(levels) == K and levels[-1][2] is None
    for k, (whole, level_rows, table) in enumerate(levels, start=1):
        spec = CubeGridSpec(n=n, k=k)
        assert np.array_equal(level_rows, sphere.canonical_grid(spec))
        assert np.array_equal(rows[whole] >> (K - k), level_rows)
        if table is None:
            continue
        assert table.shape[0] == len(whole) and not table.flags.writeable
        finer_rows = levels[k][1]
        for size in (1, 2, len(whole) // 3, len(whole)):
            pos = np.sort(rng.choice(len(whole), size, replace=False))
            got = np.unique(table[pos])
            assert np.array_equal(engine._distinct(table[pos]), got)
            assert np.array_equal(finer_rows[got], sphere.children(spec, level_rows[pos]))


@pytest.mark.parametrize("levels", [1, 2])
def test_no_row_past_the_last_level_is_evaluated(multivariate_suite, monkeypatch, levels):
    """A run of at most `levels` levels projects no grid point finer than
    its last level's: the coarse grid stops there too."""
    (pair,) = [c["system"] for c in multivariate_suite
               if c["degrees"] == (1, 1) and c["seed"] == 0]
    project, projected = sphere.project_many, []

    def recorded(Y, *args):
        projected.append(np.asarray(Y))
        return project(Y, *args)

    monkeypatch.setattr(sphere, "project_many", recorded)
    for fn in (parse_system(DOUBLE).normalized(), pair.normalized()):
        for reports in (True, False):
            projected.clear()
            engine.count_levels(fn, EXACT, levels, reports=reports)
            last = engine.initial_level(fn.n) + levels - 1
            scaled = np.concatenate(projected) * 2**last
            assert len(scaled) and np.array_equal(scaled, np.round(scaled))
            assert not np.array_equal(scaled / 2, np.round(scaled / 2))


def test_index_bound_ends_the_run_at_the_same_level(monkeypatch):
    """A level whose grid indices would not fit int64 is refused like one
    over the cap: both loops end as iteration-cap-reached after the level
    before it.  The bound is lowered to the level-6 grid of n = 1 here, as
    a real run reaches it only at k = 60.  No coarse grid reaches the real
    bound, so `_COARSE` is lowered with it: the coarse grid stops at k = 6
    too, and level 7 is evaluated."""
    fn = parse_system(DOUBLE).normalized()
    limit = CubeGridSpec(n=1, k=6).point_count()
    monkeypatch.setattr(sphere, "_INDEX_LIMIT", limit)
    monkeypatch.setattr(engine, "_COARSE", limit // 2)
    runs = [
        _levels_run(monkeypatch, lambda r=r: engine.count_levels(fn, EXACT, 24, reports=r))
        for r in (True, False)
    ]
    for result, made, errors in runs:
        assert result.status == "iteration-cap-reached" and made == [7]
        assert len(errors) == 1 and "level k=7" in errors[0] and "int64" in errors[0]
    assert runs[0][0].iterations[-1].k == 6


# (X1^2, X2) and (X1^2, X2, X3): a double zero, which never halts.  The
# n = 3 first level (k = 2) has 4,160 points, more than any coarse grid.
NEVER_HALTS = [DOUBLE,
               {"n": 2, "degrees": [2, 1], "polys": [[{"J": [0, 2, 0], "c": 1.0}],
                                                     [{"J": [0, 0, 1], "c": 1.0}]]},
               {"n": 3, "degrees": [2, 1, 1], "polys": [[{"J": [0, 2, 0, 0], "c": 1.0}],
                                                        [{"J": [0, 0, 1, 0], "c": 1.0}],
                                                        [{"J": [0, 0, 0, 1], "c": 1.0}]]}]


def test_cap_below_the_first_level_still_fails(tmp_path, capsys, monkeypatch):
    """No level runs: the loop raises at n = 1, 2 and 3, with and without
    reports, and sweep exits 1.  At n = 3 there is no coarse grid, so the
    loop's own whole grid raises.  A cap at the first level's point count
    runs that level alone."""
    for doc in NEVER_HALTS:
        fn = parse_system(doc).normalized()
        first = CubeGridSpec(n=fn.n, k=engine.initial_level(fn.n))
        for reports in (True, False):
            with pytest.raises(sphere.GridTooLargeError):
                engine.count_levels(fn, grid_cap=first.point_count() - 1, reports=reports)
            result, made, _ = _levels_run(monkeypatch, lambda: engine.count_levels(
                fn, grid_cap=first.point_count(), reports=reports))
            assert result.status == "iteration-cap-reached"
            if reports:
                assert [it.k for it in result.iterations] == [first.k]
            # Only at n = 3 does the loop make the first level's rows itself.
            assert (made[0] == first.k) == (fn.n == 3)
    fn = parse_system(DOUBLE).normalized()
    first = CubeGridSpec(n=1, k=engine.initial_level(1)).point_count()
    path = tmp_path / "system.json"
    path.write_text(cli.canonical_json(DOUBLE))
    monkeypatch.setattr(cli.engine, "count_levels",
                        functools.partial(engine.count_levels, grid_cap=first - 1))
    rc = cli.main(["sweep", "--input", str(path), "--bits", "24"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == f"error: level k=1 needs {first} grid points, cap is {first - 1}\n"


@pytest.mark.parametrize("doc", NEVER_HALTS, ids=["n1", "n2", "n3"])
def test_coarse_grid_is_the_finest_level_within_the_cap(doc):
    """The coarse grid is at the finest level k the run may reach whose grid
    has at most 2 _COARSE points and passes `sphere.check_cap` at its point
    count, and comes with the served tables of the levels up to it; with no
    such level it is (None, ()).  Caps at each level's point count and one
    below it, and max_iterations 1 to 4."""
    fn = parse_system(doc).normalized()
    k0 = engine.initial_level(fn.n)
    specs = [CubeGridSpec(n=fn.n, k=k) for k in range(k0, k0 + 4)]

    def qualifies(spec, cap):
        try:
            sphere.check_cap(spec, spec.point_count(), cap)
        except sphere.GridTooLargeError:
            return False
        return spec.point_count() <= 2 * engine._COARSE

    chosen = set()
    for cap in sorted({c for spec in specs for c in (spec.point_count() - 1,
                                                      spec.point_count())}):
        for levels in range(1, 5):
            want = [spec.k for spec in specs[:levels] if qualifies(spec, cap)]
            grid, tables = engine._coarse_grid(fn, specs[0], EXACT, cap, levels)
            if not want:
                assert grid is None and tables == ()
                continue
            assert grid.spec.k == max(want) and len(tables) == max(want) - k0 + 1
            assert tables is engine._served_tables(fn.n, max(want), k0)
            chosen.add(grid.spec.k)
    assert len(chosen) == sum(spec.point_count() <= 2 * engine._COARSE for spec in specs)


def test_sweep_builds_graphs_only_where_condition_ii_passes(univariate_suite, multivariate_suite,
                                                            tmp_path, capsys, monkeypatch):
    """A sweep enters the graph layer once per level where (ii) passed, with
    that level's vertices, and at no other level: through the module
    attribute `engine.build_graph`, which a tracer wraps, and through
    `_proximity`."""
    (pair,) = [c["system"] for c in multivariate_suite
               if c["degrees"] == (1, 1) and c["seed"] == 0]
    for f in (univariate_suite[0]["system"], univariate_suite[5]["system"], pair):
        fn = f.normalized()
        expected, levels = [], 0
        for ar in (EXACT, *(Arithmetic(t) for t in (53, 24, 12))):
            result, _ = engine.count_levels(fn, ar)
            expected += [it.vertex_count for it in result.iterations if it.condition_ii_pass]
            levels += len(result.iterations)
        path = tmp_path / "system.json"
        path.write_text(cli.canonical_json(system_to_document(f)))
        entered, graphed = [], []
        proximity, build_graph = engine._proximity, engine.build_graph

        def counted(points, *args):
            entered.append(len(points))
            return proximity(points, *args)

        def graph_counted(*args):
            graph = build_graph(*args)
            graphed.append(graph.n_vertices)
            return graph

        with monkeypatch.context() as m:
            m.setattr(engine, "_proximity", counted)
            m.setattr(engine, "build_graph", graph_counted)
            assert cli.main(["sweep", "--input", str(path), "--bits", "53,24,12"]) == 0
        capsys.readouterr()
        assert entered == graphed == expected and len(entered) < levels


@settings(max_examples=6, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2**16), st.lists(st.integers(1, 3), min_size=1, max_size=2),
       st.sampled_from([None, 24]))
def test_random_systems_take_the_whole_grids_decisions(seed, degrees, bits):
    """Dense random systems, n = 1 and n = 2 of degrees <= 3, exact and at
    24 bits: `count_levels` takes the whole grids' decisions on every level
    of at most 2^19 points, whether or not the run halts there."""
    f = random_system(random.Random(seed), len(degrees), degrees)
    reference.assert_matches(f.normalized(), Arithmetic(bits))


def test_n3_member_takes_the_whole_grids_decisions():
    """The seeded n = 3 linear-product member: `count_roots` gives the
    oracle's count, and `count_levels` takes the whole grids' decisions on
    its levels of at most 2^19 points, k = 2 to 4."""
    f, count, _ = oracle.make_linear_product_system((1, 1, 1), 0, coeff_range=1, min_sigma=0.9)
    _, levels = reference.assert_matches(f.normalized(), EXACT)
    assert [level.report.k for level in levels] == [2, 3, 4]
    assert engine.count_roots(f).count == count == 1


def test_skipped_points_count_through_their_ancestors_bound():
    """X0^2 + 0.3 X1^2 halts at k = 4 with count 0, evaluating 62 of the
    128 grid points.  The points it skips count in condition (ii) through
    the bound their resolved ancestors carry, 0.230, which is the level's
    minimum: above thr_ii, and below the residual of every point of the
    whole grid, each excluded (`evaluate_level`), so below every residual
    the level evaluated."""
    fn = parse_system(ZERO_FREE).normalized()
    result, _ = engine.count_levels(fn)
    report, trace = result.iterations[-1], result.trace[-1]
    assert (result.status, result.count, report.k) == ("converged", 0, 4)
    assert trace.evaluated < report.grid_size
    spec = CubeGridSpec(n=1, k=4)
    whole = engine.evaluate_level(fn, spec, sphere.canonical_grid(spec))
    assert not whole.vertex_mask.any()
    assert trace.thr_ii < report.min_excluded_fsup < np.min(whole.f_sup)
