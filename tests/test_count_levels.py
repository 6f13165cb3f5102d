"""The level loop without per-level reports, as `sweep` runs it.

`count_levels(..., reports=False)` evaluates every level's points and
vertex test but builds a level's vertex list, radii and graph only where
condition (ii) passes.  Its count, status, condition estimate and
representatives must be those of the loop with reports, bit for bit, and
its caps must act at the same levels.
"""

import functools
import random

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
    """(result, k of every level the loop evaluated, the cap errors its
    children raised)."""
    ks, errors = [], []
    evaluate, children = engine.evaluate_level, engine._unresolved_children

    def evaluated(f, spec, *args):
        ks.append(spec.k)
        return evaluate(f, spec, *args)

    def expanded(*args):
        try:
            return children(*args)
        except sphere.GridTooLargeError as exc:
            errors.append(str(exc))
            raise

    with monkeypatch.context() as m:
        m.setattr(engine, "evaluate_level", evaluated)
        m.setattr(engine, "_unresolved_children", expanded)
        result, _ = run()
    return result, ks, errors


@pytest.mark.parametrize("reports", [True, False])
def test_no_children_after_the_last_level(monkeypatch, reports):
    """A run that reaches max_iterations makes the children of every level
    but the last: the loop expands a level only to evaluate the next."""
    fn = parse_system(DOUBLE).normalized()
    expanded, children = [], engine._unresolved_children

    def counted(f, level, *args):
        expanded.append(level.spec.k)
        return children(f, level, *args)

    monkeypatch.setattr(engine, "_unresolved_children", counted)
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
    4,950 pairs, and stops at k = 13."""
    fn = parse_system(doc).normalized()
    ar = EXACT if bits is None else make_arithmetic("rounded", bits)
    (full, full_ks, full_errors), (bare, bare_ks, bare_errors) = [
        _levels_run(monkeypatch, lambda r=r: engine.count_levels(fn, ar, 24, grid_cap=cap,
                                                                 reports=r))
        for r in (True, False)
    ]
    assert full.status == bare.status == "iteration-cap-reached"
    assert [it.k for it in full.iterations] == full_ks == bare_ks
    assert 1 < len(full_ks) < 24
    assert full_errors == bare_errors and len(full_errors) == 1 and error in full_errors[0]


def test_index_bound_ends_the_run_at_the_same_level(monkeypatch):
    """A level whose grid indices would not fit int64 is refused like one
    over the cap: both loops end as iteration-cap-reached after the level
    before it.  The bound is lowered to the level-6 grid of n = 1 here, as
    a real run reaches it only at k = 60."""
    fn = parse_system(DOUBLE).normalized()
    monkeypatch.setattr(sphere, "_INDEX_LIMIT", CubeGridSpec(n=1, k=6).point_count())
    runs = [
        _levels_run(monkeypatch, lambda r=r: engine.count_levels(fn, EXACT, 24, reports=r))
        for r in (True, False)
    ]
    for result, ks, errors in runs:
        assert result.status == "iteration-cap-reached" and ks[-1] == 6
        assert len(errors) == 1 and "level k=7" in errors[0] and "int64" in errors[0]
    assert runs[0][1] == runs[1][1]


def test_cap_below_the_first_level_still_fails(tmp_path, capsys, monkeypatch):
    """No level runs: the loop raises, and sweep exits 1."""
    fn = parse_system(DOUBLE).normalized()
    first = CubeGridSpec(n=1, k=engine.initial_level(1)).point_count()
    with pytest.raises(sphere.GridTooLargeError):
        engine.count_levels(fn, grid_cap=first - 1, reports=False)
    path = tmp_path / "system.json"
    path.write_text(cli.canonical_json(DOUBLE))
    monkeypatch.setattr(cli.engine, "count_levels",
                        functools.partial(engine.count_levels, grid_cap=first - 1))
    rc = cli.main(["sweep", "--input", str(path), "--bits", "24"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == f"error: level k=1 needs {first} grid points, cap is {first - 1}\n"


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
