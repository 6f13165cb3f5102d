"""The counting loop on whole grids, through public names only.

Every level is its whole canonical grid, from `engine.initial_level` on:
no pruning, no coarse grid and no pivot layer.  The rows go through the
public point kernels, which `tests/test_kernels.py` holds to the column
references; the vertex test, the radii, the kappa estimates and both
thresholds are written out longhand, as each mode states them; the graph
is the dense reference `util.dense_proximity`.  The loop halts when both
conditions pass, as the paper's does.

`assert_matches` compares `engine.count_levels` with it, level by level.
The reports, thresholds and halting representatives must be equal bit
for bit: pruning and serving levels from a coarse grid are designed to
take every decision the whole grid takes.  Two figures are bounds, as a
pruned level skips points by design: `min_excluded_fsup` is at most the
whole grid's, with the same verdict, and `kappa_lower_bound` at most the
whole grids' running maximum.
"""

import dataclasses
import itertools
import math

import numpy as np

from spherecount import alpha, engine, polysys, sphere

from util import dense_proximity

MAX_POINTS = 2**19  # the largest whole grid a comparison evaluates by default
ROWS = 1 << 16      # rows per kernel call, which bounds the loop's memory


def thresholds(n, D, eta, ar):
    """(thr_i, thr_ii) as each mode writes them; eta may be an array of meshes."""
    dim, dimD = float(n + 1), float((n + 1) * D)
    if ar.t is not None:
        pi = ar.const(math.pi)
        thr_i = ar.mul(ar.mul(ar.mul(ar.const(1.5), pi), ar.const(eta)), ar.sqrt(ar.const(dim)))
        half_sqrt2 = ar.div(ar.sqrt(ar.const(2.0)), ar.const(2.0))
        thr_ii = ar.mul(ar.mul(ar.mul(half_sqrt2, pi), ar.const(eta)), ar.sqrt(ar.const(dimD)))
        return thr_i, thr_ii
    return math.pi * eta * math.sqrt(dim), 0.5 * math.pi * eta * math.sqrt(dimD)


def vertices_and_radii(f, spec, rows, f_sup, s, ar):
    """(mask, order, radii) as each mode writes them: the vertex test at the
    canonical rows; the order that lists the vertex rows, then their
    antipodes, in grid_lattice order; the certification radii in that order."""
    c = alpha.theory_constants()
    n, D = f.n, f.D
    if ar.t is None:
        mask = n * f_sup * (D * math.sqrt(D)) < 2.0 * c.alpha_star * s**2
        radii = c.sigma * math.sqrt(n) * f_sup[mask] / s[mask]
    else:
        D32 = ar.mul(ar.const(float(D)), ar.sqrt(ar.const(float(D))))
        lhs = ar.mul(ar.mul(ar.const(float(n)), f_sup), D32)
        mask = lhs < ar.mul(ar.const(c.alpha_bullet), ar.mul(s, s))
        coef = ar.mul(ar.mul(ar.const(1.5), ar.const(c.sigma)), ar.sqrt(ar.const(float(n))))
        radii = ar.div(ar.mul(coef, f_sup[mask]), s[mask])
    order = np.argsort(sphere.lattice_index(spec, np.concatenate((rows[mask], -rows[mask]))))
    return mask, order, np.concatenate((radii, radii))[order]


@dataclasses.dataclass
class Level:
    report: engine.IterationReport
    thresholds: tuple            # (thr_i, thr_ii)
    kappa: float                 # the running maximum of the kappa estimates


def levels(fn, ar, max_points=MAX_POINTS):
    """(levels, representatives): the whole-grid levels of the normalized
    system fn, up to the halt or the last grid of at most max_points
    points, and the first vertex of each component at halt (None when the
    loop stops without halting)."""
    out, kappa = [], 1.0
    for k in itertools.count(engine.initial_level(fn.n)):
        spec = sphere.CubeGridSpec(n=fn.n, k=k)
        if spec.point_count() > max_points:
            return out, None
        rows = sphere.canonical_grid(spec)
        f_sup, smin = np.empty(len(rows)), np.empty(len(rows))
        for lo in range(0, len(rows), ROWS):
            X = sphere.project_many(rows[lo:lo + ROWS] * spec.eta, ar)
            f_sup[lo:lo + ROWS] = polysys.evaluate_many(fn, X, ar)[1]
            smin[lo:lo + ROWS] = alpha.sigma_min_many(alpha.compute_M_many(fn, X, ar), ar)
        with np.errstate(divide="ignore", over="ignore"):
            mu = np.where(smin > 0, math.sqrt(fn.n) / smin, math.inf)
            kappa = max(kappa, float(np.max(np.minimum(mu, np.where(f_sup > 0, 1 / f_sup,
                                                                      math.inf)))))
        mask, order, radii = vertices_and_radii(fn, spec, rows, f_sup, smin, ar)
        points = sphere.project_many(rows[mask] * spec.eta, ar)
        points = np.concatenate((points, -points))[order]
        labels, min_cross, _ = dense_proximity(points, radii, ar)
        ids = np.flatnonzero(labels == np.arange(len(labels)))
        thr_i, thr_ii = thresholds(fn.n, fn.D, spec.eta, ar)
        min_excluded = float(np.min(f_sup[~mask], initial=math.inf))
        report = engine.IterationReport(
            k=k, eta=spec.eta, grid_size=spec.point_count(), vertex_count=len(points),
            component_count=len(ids), condition_i_pass=bool(min_cross > thr_i),
            condition_ii_pass=bool(min_excluded > thr_ii),
            min_intercomponent_distance=min_cross, min_excluded_fsup=min_excluded)
        out.append(Level(report, (float(thr_i), float(thr_ii)), kappa))
        if report.condition_i_pass and report.condition_ii_pass:
            return out, points[ids]


def float_bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64).tolist()


def assert_reports_match(reports, want):
    """Each report equals its whole-grid level's bit for bit, but a lower min_excluded_fsup."""
    assert 0 < len(want) <= len(reports)
    for report, level in zip(reports, want):
        ref = level.report
        assert report.min_excluded_fsup <= ref.min_excluded_fsup, ref.k
        fields = [(dataclasses.replace(r, min_excluded_fsup=0.0),
                   float_bits(r.min_intercomponent_distance)) for r in (report, ref)]
        assert fields[0] == fields[1], ref.k


def assert_matches(fn, ar, max_points=MAX_POINTS):
    """Compare `engine.count_levels` on the normalized system fn with the
    whole-grid loop, level by level, up to the loop's halt or its last grid
    of at most max_points points; returns (result, levels)."""
    want, representatives = levels(fn, ar, max_points)
    result, got = engine.count_levels(fn, ar, max_iterations=len(want))
    assert_reports_match(result.iterations, want)
    thr = [level.thresholds for level in want]
    assert float_bits([(t.thr_i, t.thr_ii) for t in result.trace]) == float_bits(thr)
    assert result.kappa_lower_bound <= want[-1].kappa
    if representatives is None:
        assert result.status == "iteration-cap-reached"
    else:
        assert result.status == "converged" and got.shape == representatives.shape
        assert float_bits(got) == float_bits(representatives)
    return result, want
