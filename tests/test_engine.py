import math

import numpy as np
import pytest

from spherecount import alpha, engine, oracle
from spherecount.polysys import parse_system
from spherecount.rounding import make_arithmetic
from spherecount.sphere import CubeGridSpec

from util import svd_sigma_min_many


def system(doc):
    return parse_system(doc)


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


def test_canonical_map_rejects_unclosed_lattice():
    # The missing antipode's key sorts past every canonical key, then
    # between them.
    with pytest.raises(engine.InternalConsistencyError):
        engine._canonical_map(np.array([[0, 1], [-1, 0]]), 1)
    with pytest.raises(engine.InternalConsistencyError):
        engine._canonical_map(np.array([[1, 0], [0, -1]]), 1)


def test_union_find():
    uf = engine.UnionFind(5)
    uf.union(3, 1)
    uf.union(4, 3)
    assert uf.find(4) == uf.find(1) == 1
    assert uf.find(0) == 0


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
    r = engine.count_roots(system(DOUBLE), max_iterations=24, grid_cap=1000)
    assert r.status == "iteration-cap-reached"


def test_vertex_set_antipodal_and_components_even():
    f = system(TWOLINES).normalized()
    for k in (3, 4, 5):
        g = engine.build_graph(f, CubeGridSpec(n=1, k=k))
        comps = engine.connected_components(g)
        assert len(comps.components) % 2 == 0
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
    with pytest.raises(ValueError):
        engine.build_graph(system(TWOLINES), CubeGridSpec(n=1, k=2))


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


def _levels_to_halt(f, ar, max_levels=24):
    """(vertex_mask, edges, labels, report) per level until both conditions pass."""
    fn = f.normalized()
    k0 = engine.initial_level(fn.n)
    out = []
    for k in range(k0, k0 + max_levels):
        graph = engine.build_graph(fn, CubeGridSpec(n=fn.n, k=k), ar)
        comps = engine.connected_components(graph)
        report = engine.halting_report(fn, graph, comps, ar)
        out.append((graph.vertex_mask, graph.edges, comps.labels, report))
        if report.condition_i_pass and report.condition_ii_pass:
            return out
    raise AssertionError("no halt within the level budget")


GATE_CASES = [((2, 1), 0, "exact", None)] + [
    ((1, 1), seed, mode, bits)
    for mode, bits in (("exact", None), ("rounded", 53), ("rounded", 24))
    for seed in range(4)
]


@pytest.mark.parametrize(
    "degrees, seed, mode, bits",
    GATE_CASES,
    ids=[f"{d[0]}{d[1]}-seed{s}-{m}{b or ''}" for d, s, m, b in GATE_CASES],
)
def test_sigma_min_kernel_matches_svd_per_level(
    multivariate_suite, monkeypatch, degrees, seed, mode, bits
):
    """The closed-form 2x2 kernel takes every grid decision the SVD takes."""
    (f,) = [
        c["system"]
        for c in multivariate_suite
        if c["degrees"] == degrees and c["seed"] == seed
    ]
    ar = make_arithmetic(mode, bits)
    ours = _levels_to_halt(f, ar)
    monkeypatch.setattr(alpha, "sigma_min_many", svd_sigma_min_many)
    ref = _levels_to_halt(f, ar)
    assert len(ours) == len(ref)
    for (mask, edges, labels, report), (rmask, redges, rlabels, rreport) in zip(ours, ref):
        assert np.array_equal(mask, rmask)
        assert np.array_equal(edges, redges)
        assert np.array_equal(labels, rlabels)
        assert report == rreport
