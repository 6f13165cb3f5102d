"""Digests of the CLI's documents on fixed oracle systems, one per run group.

    PYTHONPATH=src python tests/document_digest.py

Runs `count --trace` exact and at 53, 24 and 12 bits, each with the
default grid cap and with `--grid-cap 5000`, and `sweep --bits 53,24,12`,
on the univariate suite and the rounded-feasible members of the
multivariate suite (`tests/conftest.py`): 225 runs.  It adds `count --trace`
on an n = 3 system with `--workers 1` and `--workers 4`.  Each run is made
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

from spherecount import cli
from spherecount.polysys import parse_system, system_to_document

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


def run_digest(argv: list[str]) -> bytes:
    """SHA-256 of one in-process CLI run: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    run = f"{code}\0{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(run.encode()).digest()


def groups(paths: list[str], n3_path: str) -> dict[str, list[list[str]]]:
    """Run group name -> the argv lists of its runs."""
    out = {}
    for bits in PRECISIONS:
        mode = ["--mode", "exact"] if bits is None else ["--mode", "rounded", "--bits", str(bits)]
        for cap in (None, CAP):
            name = f"count-{bits or 'exact'}" + (f"-cap{cap}" if cap else "")
            extra = ["--grid-cap", str(cap)] if cap else []
            out[name] = [["count", "--input", p, "--trace", *mode, *extra] for p in paths]
    out["sweep"] = [["sweep", "--input", p, "--bits", "53,24,12"] for p in paths]
    for workers in (1, 4):
        out[f"count-n3-workers{workers}"] = [
            ["count", "--input", n3_path, "--trace", "--workers", str(workers)]]
    return out


def main() -> int:
    print(f"spherecount from {os.path.dirname(cli.__file__)}", file=sys.stderr)
    systems = [case["system"] for case in univariate_cases()] + [
        case["system"] for case in multivariate_cases() if case["rounded_feasible"]]
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as workdir:
        paths = []
        for i, f in enumerate(systems + [parse_system(N3)]):
            paths.append(os.path.join(workdir, f"system{i:02d}.json"))
            with open(paths[-1], "w") as fh:
                fh.write(cli.canonical_json(system_to_document(f)))
        for name, runs in groups(paths[:-1], paths[-1]).items():
            digest = hashlib.sha256()
            for argv in runs:
                digest.update(run_digest(argv))
            total.update(digest.digest())
            print(f"{name:24} {len(runs):3d} {digest.hexdigest()}")
    print(f"{'all':24} {'':3} {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
