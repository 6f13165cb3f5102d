"""One fresh benchmark process: set up a workload, then time passes through the CLI.

    python3 perfbench/child.py setup --workload W --seed N --workdir DIR
    python3 perfbench/child.py run --workload W --seed N --workdir DIR --seconds S --trace 0|1

Both run from the root of a spherecount checkout with ``src`` and ``tests``
on PYTHONPATH.  ``setup`` generates the workload's systems from the seed and
writes their input documents; perfbench/run.py times it as a whole process.
``run`` does the same set-up, then one untimed warm-up pass, then timed passes
until ``--seconds`` is spent.  With ``--trace 0`` the peak resident memory is
read at that point, before anything is traced, and one traced pass follows
that records the exact-repeat counts.  With ``--trace 1`` untraced and traced
passes alternate, and each traced pass records the counts and the layer
metrics.  Every pass calls ``spherecount.cli.main`` in process, once per
input, and every verdict is checked against the oracle.  The last line of
standard output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy

import spherecount
import tracer
import workloads
from spherecount import cli


@dataclass
class Pass:
    seconds: float
    codes: list[int]
    documents: list[str]


def run_pass(workload, inputs, outdir, workers) -> Pass:
    """One call of the CLI per input, timed as a whole."""
    outputs = [os.path.join(outdir, os.path.basename(path)) for path in inputs]
    for path in outputs:
        if os.path.exists(path):
            os.remove(path)
    codes, captured = [], []
    start = time.perf_counter()
    for path, out in zip(inputs, outputs):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            codes.append(cli.main(workloads.cli_args(workload, path, out, workers)))
        captured.append(buf.getvalue())
    seconds = time.perf_counter() - start
    if workload.command == "count":
        captured = []
        for out in outputs:
            if os.path.exists(out):
                with open(out) as fh:
                    captured.append(fh.read())
            else:
                captured.append("")
    return Pass(seconds, codes, captured)


class Verdicts:
    """Failed and attempted verdicts over every pass of the run."""

    def __init__(self, workload, cases):
        self.workload = workload
        self.cases = cases
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def judge(self, p: Pass, label: str):
        if self.reference is None:
            self.reference = p.documents
        for case, code, doc, ref in zip(self.cases, p.codes, p.documents, self.reference):
            problems = workloads.verdict_problems(self.workload, case, code, doc)
            if doc != ref:
                problems.append("document differs from the first pass's")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append(f"{label} {case.name}: {'; '.join(problems)}")


def setup(args):
    cases = workloads.make_cases(args.workload, args.seed)
    inputs = workloads.write_inputs(cases, os.path.join(args.workdir, "inputs"))
    return cases, inputs


def run(args) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    cases, inputs = setup(args)
    workers = min(workload.workers, len(os.sched_getaffinity(0)))
    outdir = os.path.join(args.workdir, "outputs")
    os.makedirs(outdir, exist_ok=True)
    originals = tracer.snapshot()
    verdicts = Verdicts(workload, cases)
    issues: list[str] = []

    def traced_pass(label):
        """One traced pass; returns its seconds, exact-repeat counts and layer metrics.

        The spans are dropped here, so none of them outlives the pass.
        """
        t = tracer.Tracer()
        with t.installed():
            p = run_pass(workload, inputs, outdir, workers)
        now = tracer.snapshot()
        if any(now[name] is not fn for name, fn in originals.items()):
            issues.append("a traced function was not restored after the traced pass")
        verdicts.judge(p, label)
        index = tracer.SpanIndex(t.spans)
        return p.seconds, index.repeat_counts(), index.layer_metrics()

    verdicts.judge(run_pass(workload, inputs, outdir, workers), "warm-up")

    untraced, traced, layers, counts = [], [], [], []
    start = time.perf_counter()
    while True:
        p = run_pass(workload, inputs, outdir, workers)
        verdicts.judge(p, f"pass {len(untraced) + 1}")
        untraced.append(p.seconds)
        if args.trace:
            seconds, c, m = traced_pass(f"traced pass {len(traced) + 1}")
            traced.append(seconds)
            counts.append(c)
            layers.append(m)
        elapsed = time.perf_counter() - start
        # Stop when one more round of the mean length would overrun --seconds.
        if elapsed * (1 + 1 / len(untraced)) > args.seconds:
            break

    # Read before the counts pass, so that with --trace 0 no stored span counts.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not args.trace:
        counts.append(traced_pass("counts pass")[1])
    if any(c != counts[0] for c in counts):
        issues.append("exact-repeat counts differ between passes")

    result = {
        "solve_s": statistics.median(untraced),
        "solve_samples": untraced,
        "peak_rss_mb": peak_rss_mb,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "problems": verdicts.problems,
        "issues": issues,
        "counts": counts[0],
        "cases": [c.name for c in cases],
        "workers": workers,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if args.trace:
        # median_low keeps counts integral; they are equal on every pass anyway.
        metrics = {key: statistics.median_low(m[key] for m in layers) for key in layers[0]}
        metrics["trace.overhead_frac"] = statistics.median(traced) / result["solve_s"] - 1
        result["layers"] = {name: {"value": metrics[name], "unit": unit}
                            for name, unit in tracer.PER_LAYER}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(spherecount.__file__).startswith(src + os.sep):
        print(f"error: spherecount was imported from {spherecount.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.mode == "setup":
        setup(args)
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
