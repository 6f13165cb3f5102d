"""Mutation check: every recorded mutation of the engine must fail a test.

Each entry of MUTATIONS is an exact text edit of one file of
`src/spherecount`, applied to a temporary copy of `src/`.  The named test
files then run under `pytest -x -q` with PYTHONPATH at that copy.  The
script prints "killed" with the first failing test, or "survived", for
each mutation, and exits 1 if any survives or if any edit's old text is
not found exactly once.  pytest does not collect it.  Run it as

    python tests/mutation_check.py

The table holds the mutations the change log records as caught by tests
since the level loop was split into served and evaluated levels, and the
ones that the tests rewritten through the whole-grid reference of
`tests/reference.py` must still catch.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LOOP = ["tests/test_count_levels.py", "tests/test_engine.py"]
GRAPH = ["tests/test_engine.py"]

# (what the mutation does, file, old text, new text, test files)
MUTATIONS = [
    ("served levels re-evaluated by evaluate_level", "engine.py",
     "            level = _served_level(grid, tables[done], spec, pos, inherited)\n",
     "            level = evaluate_level(fn, spec, tables[done][1][pos], ar, workers, inherited)\n",
     LOOP),
    ("the normalization guard removed", "engine.py",
     "    if abs(f.norm - 1.0) > 1e-9:\n"
     '        raise ValueError("the grid levels need a normalized system (||f|| = 1)")\n',
     "", LOOP),
    ("children tables padded with 0", "engine.py",
     "            table = np.repeat(child[first, None], slot.max() + 1, axis=1)\n",
     "            table = np.zeros((len(rows), slot.max() + 1), dtype=child.dtype)\n", LOOP),
    ("the whole-next-grid shortcut returns the current positions", "engine.py",
     "            pos = (np.arange(spec.point_count() // 2) if whole\n",
     "            pos = ((pos if done else np.arange(spec.point_count() // 2)) if whole\n", LOOP),
    ("kappa gathered at pos instead of whole[pos]", "engine.py",
     "grid.kappa[at], inherited_fsup)", "grid.kappa[pos], inherited_fsup)", LOOP),
    ("the coarse grid's level K chosen without the cap", "engine.py",
     "point_count() > min(2 * _COARSE, cap):", "point_count() > 2 * _COARSE:", LOOP),
    ("a cap error at the first level ends the run instead of raising", "engine.py",
     "                if not done:\n                    raise\n", "", LOOP),
    ("served levels always take their whole grid", "engine.py",
     "            pos = (np.arange(spec.point_count() // 2) if whole\n",
     "            pos = (np.arange(spec.point_count() // 2) if True\n", LOOP),
    ("vertices projected in exact arithmetic in rounded mode", "engine.py",
     "    points = sphere.project_many(rows * level.spec.eta, ar)\n",
     "    points = sphere.project_many(rows * level.spec.eta, EXACT)\n", GRAPH),
    ("vertices ordered by np.lexsort of their rows", "engine.py",
     "    order = np.argsort(index)\n",
     "    order = np.lexsort(np.concatenate((rows, -rows)).T)\n", GRAPH),
    ("the vertex floor of pruning set to 0", "engine.py",
     "    return 2.0 * e_f + e_c, floor\n", "    return 2.0 * e_f + e_c, 0.0\n", LOOP),
    ("the Lipschitz term dropped from the pruning bound", "engine.py",
     "    bound = level.f_sup - 2.0 * math.sqrt(f.D) * rho - c.margin\n",
     "    bound = level.f_sup - c.margin\n", LOOP),
    ("a served level's sigma_min one ulp high", "engine.py",
     "grid.sigma_min[at], grid.vertex_mask[at]",
     "np.nextafter(grid.sigma_min[at], np.inf), grid.vertex_mask[at]", LOOP),
    ("the condition (ii) threshold one ulp high", "engine.py",
     "    return c.thr_i * spec.eta, c.thr_ii * spec.eta\n",
     "    return c.thr_i * spec.eta, np.nextafter(c.thr_ii * spec.eta, math.inf)\n", LOOP),
    ("rounded radii without the slack 3/2", "engine.py",
     "        ar.mul(ar.mul(ar.const(slack), ar.const(consts.sigma)), ar.sqrt(n)),\n",
     "        ar.mul(ar.const(consts.sigma), ar.sqrt(n)),\n", LOOP),
    ("a later level over the cap skipped instead of ending the run", "engine.py",
     "                # A later level over the cap ends the run as the last level does.\n"
     "                break\n",
     "                continue\n", LOOP),
    ("condition (i) passing at its threshold", "engine.py",
     "condition_i_pass=bool(min_cross > thr_i),", "condition_i_pass=bool(min_cross >= thr_i),",
     GRAPH),
    ("condition (ii) passing at its threshold", "engine.py",
     "return min_excluded, bool(min_excluded > thr_ii)",
     "return min_excluded, bool(min_excluded >= thr_ii)", GRAPH),
    ("the skipped points' bound not carried to the next level", "engine.py",
     "    return ~resolved, min(inherited_fsup, float(np.min(bound[resolved], initial=math.inf)))\n",
     "    return ~resolved, inherited_fsup\n", LOOP),
    ("one level past max_iterations", "engine.py",
     "    for done in range(max_iterations):\n", "    for done in range(max_iterations + 1):\n",
     LOOP),
]


def check(name, path, old, new, tests) -> bool:
    """Apply one mutation to a copy of src/ and run the tests on it."""
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = os.path.join(src, "spherecount", path)
        with open(target) as fh:
            text = fh.read()
        if text.count(old) != 1:
            print(f"missing   {name}: old text found {text.count(old)} times")
            return False
        with open(target, "w") as fh:
            fh.write(text.replace(old, new))
        # The project's pytest settings put src/ on sys.path; -o points them
        # at the copy.
        run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                              "-o", f"pythonpath={src}", *tests],
                             cwd=ROOT, env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True)
    first = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", run.stdout, re.M)
    if run.returncode == 1 and first:
        print(f"killed    {name}: {first.group(1)}")
        return True
    print(f"survived  {name}" if run.returncode == 0 else
          f"error     {name}: pytest exit {run.returncode}\n{run.stdout[-2000:]}")
    return False


def main() -> int:
    start = time.perf_counter()
    results = [check(*mutation) for mutation in MUTATIONS]
    print(f"{sum(results)} of {len(results)} mutations killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
