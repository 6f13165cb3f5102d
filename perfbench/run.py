"""spherecount benchmark: certified counts through the CLI, end to end and per layer.

    python3 perfbench/run.py --workload exact-n2 --seed 0 --seconds 30 --trace 0

Run from the root of a spherecount checkout; the package is imported from
its ``src`` directory, so nothing needs installing.  Workloads (why each was
chosen is in BENCHMARK.json and perfbench/REFERENCE.md):

    exact-n2  ``count``, exact mode, 1 worker, five linear-product n=2 systems
    sweep-n1  ``sweep --bits 53,24,12``, 2 workers, the 20 univariate oracle forms
    deep-n2   ``count``, exact mode, 2 workers, the (2,2) seed-0 system to k=10;
              run by hand only, too noisy for BENCHMARK.json on a shared 2-core host

The workload runs in a fresh child process (perfbench/child.py) with the BLAS
and OpenMP pools pinned to one thread, so ``--workers`` is the only
parallelism.  With ``--trace 0`` the run reports:

    solve_s      median wall time of one pass over the workload's CLI calls,
                 after a warm-up pass
    peak_rss_mb  peak resident memory of that child process, in MiB
    setup_s      median wall time of SETUP_SAMPLES fresh processes that each
                 start Python, import spherecount, generate the systems from
                 the seed and write the input documents

With ``--trace 1`` it reports the per-layer metrics of perfbench/tracer.py
from passes that alternate with untraced ones.  Every verdict in every pass
is checked against the oracle in ``spherecount.oracle``; ``failed_frac`` is
printed and is the ``failed``/``attempted`` pair of the result line.  The
exact-repeat counts are stored under ``.perfbench/counts`` and the run fails
when a later run of the same seed and source disagrees.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_SAMPLES = 5
# Besides --seconds of timed passes, the workload process runs a warm-up pass,
# the pass that crosses --seconds and a traced pass; this margin lets each of
# them take about five times the seed's longest pass (exact-n2, about 10 s)
# before the process is killed, so a slowdown is measured, not lost.
RUN_MARGIN_S = 140
SETUP_TIMEOUT_S = 15
PINNED_POOLS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env(root: str) -> dict:
    env = dict(os.environ)
    # tests/ for util.compose_orthogonal, which builds the inputs of seeds other than 0.
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), os.path.join(root, "tests")])
    for var in PINNED_POOLS:
        env[var] = "1"
    return env


def child_command(mode: str, args, workdir: str) -> list[str]:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", workdir]
    if mode == "run":
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    return cmd


def run_child(cmd: list[str], root: str, env: dict, timeout: float) -> tuple[int, str]:
    """Run a child to completion; returns (exit code, standard output).

    The wait blocks in waitpid, so the caller's clock sees the exit at once;
    ``subprocess.run(timeout=...)`` would poll in steps of up to 50 ms.  A
    timer kills a child that overruns ``timeout``.
    """
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out, _ = proc.communicate()
    finally:
        timer.cancel()
    return proc.returncode, out


def source_digest(root: str) -> str:
    """Hash of the program and benchmark sources, to key the exact-repeat record."""
    h = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(root, "src", "spherecount", "*.py")))
    files.append(os.path.join(root, "tests", "util.py"))
    files += sorted(glob.glob(os.path.join(HERE, "*.py")))
    for path in files:
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def check_repeat(root: str, args, digest: str, counts: dict) -> list[str]:
    """Compare the exact-repeat counts with the first run of this seed and source."""
    record_dir = os.path.join(root, ".perfbench", "counts")
    os.makedirs(record_dir, exist_ok=True)
    path = os.path.join(record_dir, f"{args.workload}-seed{args.seed}-{digest}.json")
    if not os.path.exists(path):
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            json.dump(counts, fh, sort_keys=True)
        os.replace(tmp, path)
        return []
    with open(path) as fh:
        first = json.load(fh)
    return [f"{key}: {first.get(key)} on the first run, {counts.get(key)} now"
            for key in sorted(set(first) | set(counts)) if first.get(key) != counts.get(key)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="exact-n2, deep-n2 or sweep-n1 (checked by child.py)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spherecount", "__init__.py")):
        print("error: src/spherecount not found; run from the root of a spherecount checkout",
              file=sys.stderr)
        return 2
    env = child_env(root)
    workdir = os.path.join(root, ".perfbench", f"{args.workload}-seed{args.seed}")

    code, out = run_child(child_command("run", args, workdir), root, env,
                          args.seconds + RUN_MARGIN_S)
    if code != 0:
        print(f"error: workload process exited with {code}", file=sys.stderr)
        return 1
    run = json.loads(out.strip().splitlines()[-1])

    setup_samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        code, _ = run_child(child_command("setup", args, workdir), root, env, SETUP_TIMEOUT_S)
        setup_samples.append(time.perf_counter() - start)
        if code != 0:
            print(f"error: set-up process exited with {code}", file=sys.stderr)
            return 1

    digest = source_digest(root)
    problems = run["problems"] + run["issues"] + check_repeat(root, args, digest, run["counts"])
    versions = run["versions"]
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={len(os.sched_getaffinity(0))} workers={run['workers']} "
          f"python={versions['python']} numpy={versions['numpy']} scipy={versions['scipy']} "
          f"commit={commit(root)} source={digest}")
    print("halting levels: " + " ".join(map(str, run["counts"]["halting_levels"]))
          + f" (count_roots calls over {', '.join(run['cases'])})")
    for problem in problems:
        print(f"FAILED {problem}")

    if args.trace:
        metrics = run["layers"]
    else:
        metrics = {
            "solve_s": {"value": run["solve_s"], "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        }
    samples = {"solve_s": run["solve_samples"], "setup_s": setup_samples}
    for name, metric in metrics.items():
        extra = ""
        if name in samples and not args.trace:
            extra = f"  (median of {len(samples[name])}: " + ", ".join(
                f"{v:.4f}" for v in samples[name]) + ")"
        print(f"{name} {metric['value']:.6g} {metric['unit']}{extra}")
    print(f"failed_frac {run['failed'] / run['attempted']:.6g} ratio "
          f"({run['failed']} of {run['attempted']} verdicts failed)")
    print(json.dumps({
        "correct": not problems,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
