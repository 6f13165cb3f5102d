"""Digests of the CLI's documents on fixed oracle systems, one per run group.

    PYTHONPATH=src python tests/document_digest.py

Runs `count --trace` exact and at 53, 24 and 12 bits, each with the
default grid cap and with `--grid-cap 5000`, and `sweep --bits 53,24,12`,
on the univariate suite and the rounded-feasible members of the
multivariate suite (`tests/conftest.py`): 225 runs.  On the same systems
it runs `count --trace --max-iter 5`, exact and at 12 bits, whose runs
mostly stop at or just past the last level the coarse grid serves: 50
runs.  It adds `count --trace` on an n = 3 system with `--workers 1` and
`--workers 4`, and `kappa` at level 8 on the univariate suite and at
level 4 on those multivariate systems.  At the cap boundary it runs
`count --trace`, exact and at 12 bits, on every system here, the n = 3
one included, with `--grid-cap` P - 1, which refuses the first level,
and P, which runs it, where P is the first level's point count: 104
runs.  A deep run with many vertices, `count --trace` on
X1^2 - 2^-16 X0^2 exact and at 53 and 24 bits, halts at k = 22 or 24
with thousands of vertices, past the graph layer's one-matrix size: 3
runs, 409 in all.  Each run is made
in process through `spherecount.cli.main`; its digest covers the exit
code, standard output and standard error.  One line per group gives the
group, its run count and the SHA-256 of its runs' digests; the last line
covers every group.

The systems are built by the `spherecount` that is imported, so pointing
PYTHONPATH at another checkout's `src` digests that checkout's documents:
a change that should leave every document as it was shows the same lines
as its base.  The imported package's path is printed on standard error.
Not collected by pytest (the name does not start with test_).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

from spherecount import cli, engine
from spherecount.polysys import parse_system, system_to_document
from spherecount.sphere import CubeGridSpec

from conftest import multivariate_cases, univariate_cases

CAP = 5000
PRECISIONS = (None, 53, 24, 12)
# f = (X1 + 0.3 X0, X2 - 0.2 X1, X3^2 - 0.5 X0^2 + 0.25 X2^2): 2 rays, halts at k = 10.
N3 = {"n": 3, "degrees": [1, 1, 2], "polys": [
    [{"J": [0, 1, 0, 0], "c": 1.0}, {"J": [1, 0, 0, 0], "c": 0.3}],
    [{"J": [0, 0, 1, 0], "c": 1.0}, {"J": [0, 1, 0, 0], "c": -0.2}],
    [{"J": [0, 0, 0, 2], "c": 1.0}, {"J": [2, 0, 0, 0], "c": -0.5},
     {"J": [0, 0, 2, 0], "c": 0.25}],
]}
# f = X1^2 - 2^-16 X0^2: two zero rays 2^-8 apart in slope.
CLOSE_ZEROS = {"n": 1, "degrees": [2], "polys": [
    [{"J": [0, 2], "c": 1.0}, {"J": [2, 0], "c": -2.0**-16}],
]}


def run_digest(argv: list[str]) -> bytes:
    """SHA-256 of one in-process CLI run: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    run = f"{code}\0{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(run.encode()).digest()


def groups(paths: list[str], n3_path: str, close_path: str, univariate: int,
           first_points: list[int]) -> dict[str, list[list[str]]]:
    """Run group name -> the argv lists of its runs; the first `univariate`
    paths hold the univariate suite, and `first_points` the first level's
    point count of each system, paths and then n3_path."""
    out = {}
    for bits in PRECISIONS:
        mode = ["--mode", "exact"] if bits is None else ["--mode", "rounded", "--bits", str(bits)]
        for cap in (None, CAP):
            name = f"count-{bits or 'exact'}" + (f"-cap{cap}" if cap else "")
            extra = ["--grid-cap", str(cap)] if cap else []
            out[name] = [["count", "--input", p, "--trace", *mode, *extra] for p in paths]
        if bits in (None, 12):
            out[f"count-{bits or 'exact'}-iter5"] = [
                ["count", "--input", p, "--trace", "--max-iter", "5", *mode] for p in paths]
    out["sweep"] = [["sweep", "--input", p, "--bits", "53,24,12"] for p in paths]
    for workers in (1, 4):
        out[f"count-n3-workers{workers}"] = [
            ["count", "--input", n3_path, "--trace", "--workers", str(workers)]]
    out["count-cap-first"] = [
        ["count", "--input", p, "--trace", *mode, "--grid-cap", str(cap)]
        for mode in (["--mode", "exact"], ["--mode", "rounded", "--bits", "12"])
        for p, points in zip(paths + [n3_path], first_points)
        for cap in (points - 1, points)]
    out["kappa-univariate-k8"] = [["kappa", "--input", p, "--level", "8"]
                                  for p in paths[:univariate]]
    out["kappa-multivariate-k4"] = [["kappa", "--input", p, "--level", "4"]
                                    for p in paths[univariate:]]
    out["count-close-zeros"] = [["count", "--input", close_path, "--trace", *mode]
                                for mode in (["--mode", "exact"],
                                             ["--mode", "rounded", "--bits", "53"],
                                             ["--mode", "rounded", "--bits", "24"])]
    return out


def main() -> int:
    print(f"spherecount from {os.path.dirname(cli.__file__)}", file=sys.stderr)
    univariate = [case["system"] for case in univariate_cases()]
    systems = univariate + [
        case["system"] for case in multivariate_cases() if case["rounded_feasible"]]
    systems.append(parse_system(N3))
    first_points = [CubeGridSpec(n=f.n, k=engine.initial_level(f.n)).point_count()
                    for f in systems]
    systems.append(parse_system(CLOSE_ZEROS))
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as workdir:
        paths = []
        for i, f in enumerate(systems):
            paths.append(os.path.join(workdir, f"system{i:02d}.json"))
            with open(paths[-1], "w") as fh:
                fh.write(cli.canonical_json(system_to_document(f)))
        for name, runs in groups(paths[:-2], paths[-2], paths[-1], len(univariate),
                                 first_points).items():
            digest = hashlib.sha256()
            for argv in runs:
                digest.update(run_digest(argv))
            total.update(digest.digest())
            print(f"{name:24} {len(runs):3d} {digest.hexdigest()}")
    print(f"{'all':24} {'':3} {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
