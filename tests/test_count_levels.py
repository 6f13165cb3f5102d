"""The level loop without per-level reports, as `sweep` runs it, and the
coarse grid its small levels are served from.

`count_levels(..., reports=False)` evaluates every level's points and
vertex test but builds a level's vertex list, radii and graph only where
condition (ii) passes.  Its count, status, condition estimate and
representatives must be those of the loop with reports, bit for bit, and
its caps must act at the same levels.  A level at or below the run's
coarse grid (`engine._coarse_grid`) is served from that grid, as positions
in it; its rows and data must be the bits that `sphere.children` and its
own evaluation give, and the grid must pass no cap and no last level the
run has.
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
from spherecount.rounding import EXACT, make_arithmetic
from spherecount.sphere import CubeGridSpec

from util import random_system

DOUBLE = {"n": 1, "degrees": [2], "polys": [[{"J": [0, 2], "c": 1.0}]]}
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
    ar = EXACT if bits is None else make_arithmetic("rounded", bits)
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
    ar = EXACT if bits is None else make_arithmetic("rounded", bits)
    systems = [case["system"] for case in univariate_suite] + [
        case["system"] for case in multivariate_suite
        if case["degrees"] == (1, 1) or (bits is None and case["degrees"] == (2, 1))
    ]
    for f in systems:
        both = _both(f.normalized(), ar, 24)
        assert both[0][0].status == "converged"
        _assert_same_outcome(*both)


def _levels_run(monkeypatch, run):
    """(result, k of every level the loop evaluated or served, the cap
    errors raised where the loop made a level's rows).  The loop takes each
    level's thresholds once, whether the level is evaluated or served from
    the coarse grid; `_prune` takes those of the next level too, which are
    not counted.  It makes an evaluated level's rows by
    `sphere.canonical_grid` or `sphere.children`; calls from elsewhere are
    not counted."""
    ks, errors = [], []
    thresholds = engine._thresholds

    def recorded(f, spec, *args):
        if sys._getframe(1).f_code.co_name == "count_levels":
            ks.append(spec.k)
        return thresholds(f, spec, *args)

    def checked(make):
        def made(*args):
            try:
                return make(*args)
            except sphere.GridTooLargeError as exc:
                if sys._getframe(1).f_code.co_name == "count_levels":
                    errors.append(str(exc))
                raise
        return made

    with monkeypatch.context() as m:
        m.setattr(engine, "_thresholds", recorded)
        for name in ("canonical_grid", "children"):
            m.setattr(sphere, name, checked(getattr(sphere, name)))
        result, _ = run()
    return result, ks, errors


@pytest.mark.parametrize("reports", [True, False])
def test_no_children_after_the_last_level(monkeypatch, reports):
    """A run that reaches max_iterations makes the children of every level
    but the last: the loop expands a level only to evaluate the next.
    Levels served from the coarse grid and evaluated levels both prune
    through `_prune` before they expand."""
    fn = parse_system(DOUBLE).normalized()
    expanded, prune = [], engine._prune

    def counted(f, level, *args):
        expanded.append(level.spec.k)
        return prune(f, level, *args)

    monkeypatch.setattr(engine, "_prune", counted)
    result, _ = engine.count_levels(fn, EXACT, 5, reports=reports)
    assert result.status == "iteration-cap-reached"
    assert expanded == [1, 2, 3, 4]


@pytest.mark.parametrize("doc, bits, cap, error", [
    (DOUBLE, None, 1000, "grid points"),
    (DOUBLE, 24, 1000, "grid points"),
    pytest.param(DOUBLE_AND_SIMPLE, None, 4000, "level k=13 needs 6204 grid points",
                 id="doc2-None-4000-grid points"),
])
def test_later_cap_ends_the_run_at_the_same_level(monkeypatch, doc, bits, cap, error):
    """A grid cap that bites at a later, non-halting level ends both loops
    as iteration-cap-reached, after the same levels.  The cap counts
    points only: X1^3 - X0 X1^2 runs to k = 12, whose 100 vertices make
    4,950 pairs, and stops at k = 13.  The coarse grid stays within the
    cap, which at 1000 is below the grid it takes uncapped (k = 8, 2048
    points), and the run ends as it does with no coarse grid at all."""
    fn = parse_system(doc).normalized()
    ar = EXACT if bits is None else make_arithmetic("rounded", bits)
    grids, coarse_grid = [], engine._coarse_grid

    def recorded(*args):
        got = coarse_grid(*args)
        grids.append(got[0])
        return got

    monkeypatch.setattr(engine, "_coarse_grid", recorded)
    (full, full_ks, full_errors), (bare, bare_ks, bare_errors) = [
        _levels_run(monkeypatch, lambda r=r: engine.count_levels(fn, ar, 24, grid_cap=cap,
                                                                 reports=r))
        for r in (True, False)
    ]
    assert full.status == bare.status == "iteration-cap-reached"
    assert [it.k for it in full.iterations] == full_ks == bare_ks
    assert 1 < len(full_ks) < 24
    assert full_errors == bare_errors and len(full_errors) == 1 and error in full_errors[0]
    assert len(grids) == 2 and all(g.spec.point_count() <= cap for g in grids)
    monkeypatch.setattr(engine, "_COARSE", 0)
    plain, plain_ks, plain_errors = _levels_run(
        monkeypatch, lambda: engine.count_levels(fn, ar, 24, grid_cap=cap))
    assert grids[-1] is None
    assert plain.to_dict() == full.to_dict()
    assert (plain_ks, plain_errors) == (full_ks, full_errors)


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
    ar = EXACT if bits is None else make_arithmetic("rounded", bits)
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
                                                 monkeypatch, bits):
    """A level read from the run's coarse grid equals `evaluate_level` on
    its own rows, bit for bit, whole-grid and pruned levels alike, at
    n = 1 and n = 2.  With reports, every served level is graphed, so
    `_served_level` makes each one's evaluated level."""
    ar = EXACT if bits is None else make_arithmetic("rounded", bits)
    (pair,) = [c["system"] for c in multivariate_suite
               if c["degrees"] == (1, 1) and c["seed"] == 0]
    served_level, pruned = engine._served_level, []
    for f in (univariate_suite[0]["system"], univariate_suite[5]["system"], pair):
        served, fn = [], f.normalized()

        def checked(*args):
            got = served_level(*args)
            rows, spec = got.rows, got.spec
            served.append(_same_bits(got, engine.evaluate_level(fn, spec, rows, ar, 1,
                                                                got.inherited_fsup)))
            pruned.append(2 * len(rows) < spec.point_count())
            return got

        with monkeypatch.context() as m:
            m.setattr(engine, "_served_level", checked)
            result, _ = engine.count_levels(fn, ar)
        assert result.status == "converged"
        assert len(served) > 1 and all(served)
    assert any(pruned)


@pytest.mark.parametrize("n, K", [(1, 9), (2, 3), (2, 4), (3, 2)])
def test_served_tables_give_the_children(n, K):
    """Each level's cached grid is `sphere.canonical_grid` of its spec and
    lines up with `whole`: the coarse rows at `whole`, scaled down, are its
    rows, in grid order.  At each level k < K, the table rows of any set of
    level-k positions give, through `np.unique` and `engine._distinct`
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


def _graphed_levels(fn, ar, cap):
    """(result, every level of count_levels with reports, as graphed)."""
    levels, graph = [], engine.build_graph

    def recorded(f, level, ar):
        levels.append(level)
        return graph(f, level, ar)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine, "build_graph", recorded)
        result, _ = engine.count_levels(fn, ar, grid_cap=cap)
    return result, levels


@pytest.mark.parametrize("bits", [None, 53, 24, 12])
def test_served_levels_match_children_and_evaluation(univariate_suite, multivariate_suite,
                                                     monkeypatch, bits):
    """Every level served from the coarse grid, as positions, has the rows,
    f_sup, sigma_min, vertex mask, kappa estimates and inherited bound
    that `sphere.children` (or the whole grid) and `evaluate_level` give
    with no coarse grid, bit for bit, at n = 1 and n = 2, under the default
    cap, a cap of 5000 points and a cap at the coarse grid's point count;
    so are the levels after the coarse grid's, made by `sphere.children`
    from the last served level, and the run's document."""
    ar = EXACT if bits is None else make_arithmetic("rounded", bits)
    (pair,) = [c["system"] for c in multivariate_suite
               if c["degrees"] == (1, 1) and c["seed"] == 0]
    pruned, handed_over = [], []
    for f in (univariate_suite[0]["system"], univariate_suite[5]["system"], pair):
        fn = f.normalized()
        first = CubeGridSpec(n=fn.n, k=engine.initial_level(fn.n))
        coarse = engine._coarse_grid(fn, first, ar, sphere.DEFAULT_GRID_CAP, 24)[0].spec
        for cap in (sphere.DEFAULT_GRID_CAP, 5000, coarse.point_count()):
            result, served = _graphed_levels(fn, ar, cap)
            with monkeypatch.context() as m:
                m.setattr(engine, "_COARSE", 0)
                plain, evaluated = _graphed_levels(fn, ar, cap)
            assert plain.to_dict() == result.to_dict() and plain.trace == result.trace
            assert len(served) == len(evaluated) > 1
            assert all(_same_bits(a, b) for a, b in zip(served, evaluated))
            pruned += [2 * len(level.rows) < level.spec.point_count()
                       for level in served if level.spec.k <= coarse.k]
            handed_over.append(served[-1].spec.k > coarse.k)
    assert any(pruned) and any(handed_over) and not all(handed_over)


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
    for result, ks, errors in runs:
        assert result.status == "iteration-cap-reached" and ks[-1] == 6
        assert len(errors) == 1 and "level k=7" in errors[0] and "int64" in errors[0]
    assert runs[0][1] == runs[1][1]


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
            result, _ = engine.count_levels(fn, grid_cap=first.point_count(), reports=reports)
            assert result.status == "iteration-cap-reached"
            if reports:
                assert [it.k for it in result.iterations] == [first.k]
        assert (first.point_count() // 2 > engine._COARSE) == (fn.n == 3)
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
        for ar in (EXACT, *(make_arithmetic("rounded", t) for t in (53, 24, 12))):
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
