"""Command-line interface: count, refine, kappa, and sweep subcommands.

All structured input and output is JSON.  Result documents are serialized
canonically (sorted keys, fixed indentation, trailing newline) so that
identical runs produce byte-identical files and parse/re-serialize
round-trips exactly.  They are strict RFC 8259 JSON: a non-finite value
(an empty minimum, an unbounded condition estimate) is written as null.

Exit codes: 0 success/converged, 1 usage, input or schema error, 2
iteration cap reached (the refinement loop did not halt within the budget).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import alpha, engine, polysys, sphere
from .rounding import EXACT, make_arithmetic, required_precision


def _finite_or_null(obj):
    """obj with every non-finite float replaced by None (JSON null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return obj


def canonical_json(obj) -> str:
    return json.dumps(_finite_or_null(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _load_system(path: str) -> polysys.PolynomialSystem:
    with open(path) as fh:
        document = json.load(fh)
    return polysys.parse_system(document)


def _emit(text: str, output_path: str | None):
    if output_path:
        with open(output_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_count(args) -> int:
    f = _load_system(args.input)
    result = engine.count_roots(
        f,
        mode=args.mode,
        bits=args.bits,
        max_iterations=args.max_iter,
        workers=args.workers,
        grid_cap=args.grid_cap,
    )
    if args.trace:
        # The halting margins print as shortest round-trip floats ("inf"
        # for an empty minimum): each verdict is "min_cross > thr_i" and
        # "min_excluded > thr_ii".
        for rep, lvl in zip(result.iterations, result.trace):
            print(
                f"level k={rep.k} eta={rep.eta:.6g} grid={rep.grid_size} "
                f"evaluated={lvl.evaluated} "
                f"vertices={rep.vertex_count} components={rep.component_count} "
                f"halt=({rep.condition_i_pass},{rep.condition_ii_pass}) "
                f"thr_i={lvl.thr_i!r} min_cross={rep.min_intercomponent_distance!r} "
                f"thr_ii={lvl.thr_ii!r} min_excluded={rep.min_excluded_fsup!r}",
                file=sys.stderr,
            )
    _emit(canonical_json(result.to_dict()), args.output)
    return 0 if result.status == "converged" else 2


def cmd_refine(args) -> int:
    if args.max_steps < 0:
        raise ValueError(f"--max-steps must be >= 0, got {args.max_steps}")
    if not (math.isfinite(args.beta_tol) and args.beta_tol >= 0):
        raise ValueError(f"--beta-tol must be finite and >= 0, got {args.beta_tol}")
    f = _load_system(args.input)
    try:
        start = np.array([float(v) for v in args.start.split(",")])
    except ValueError as exc:
        raise polysys.SystemFormatError(f"bad start point: {exc}") from exc
    if start.shape != (f.n_vars,):
        raise polysys.SystemFormatError(
            f"start point has {len(start)} coordinates, expected {f.n_vars}"
        )
    if not np.all(np.isfinite(start)):
        raise polysys.SystemFormatError("start point has non-finite coordinates")
    if not abs(np.linalg.norm(start) - 1.0) <= 1e-6:
        raise polysys.SystemFormatError("start point must lie on the unit sphere")
    start = start / np.linalg.norm(start)
    fn = f.normalized()
    # The start is certified by the grid's exact-mode vertex test.
    X = start[None, :]
    _, f_sup = polysys.evaluate_many(fn, X)
    smin = alpha.sigma_min_many(alpha.compute_M_many(fn, X))
    if not engine.vertex_test(fn, f_sup, smin, EXACT)[0]:
        print("warning: uncertified start (alpha_bar >= alpha_star)", file=sys.stderr)
    refined = alpha.newton_refine(fn, X, max_steps=args.max_steps, beta_tol=args.beta_tol)
    trace = refined.beta_trace[0]
    doc = {
        "final_point": refined.point[0].tolist(),
        "beta_trace": trace,
        "steps": len(trace),
        "envelope": "satisfied" if refined.envelope_ok[0] else "violated",
        "singular": bool(refined.singular[0]),
    }
    sys.stdout.write(canonical_json(doc))
    return 0


def cmd_kappa(args) -> int:
    f = _load_system(args.input)
    spec = sphere.CubeGridSpec(n=f.n, k=args.level)
    value = engine.estimate_kappa(f, spec, workers=args.workers)
    doc = {
        "kappa_lower_bound": value,
        "level": args.level,
        "grid_size": spec.point_count(),
    }
    sys.stdout.write(canonical_json(doc))
    return 0


def cmd_sweep(args) -> int:
    f = _load_system(args.input)
    bits_list = [int(v) for v in args.bits.split(",") if v.strip()] if args.bits.strip() else []
    # Every provider is made, and so every bit count checked, before the first pass.
    providers = [make_arithmetic("rounded", t) for t in bits_list]
    fn = f.normalized()
    # Only the counts and kappa_hat are tabulated, so no pass refines its
    # zeros or keeps per-level reports: a level builds its graph only where
    # condition (ii) passes.
    exact, _ = engine.count_levels(fn, EXACT, max_iterations=args.max_iter, workers=args.workers,
                                   reports=False)
    if exact.status != "converged":
        print("error: exact-mode run did not converge; sweep requires it", file=sys.stderr)
        return 2
    rows = []
    for t, ar in zip(bits_list, providers):
        res, _ = engine.count_levels(fn, ar, max_iterations=args.max_iter, workers=args.workers,
                                     reports=False)
        count = res.count if res.status == "converged" else None
        rows.append(
            {
                "bits": t,
                "u": math.ldexp(1.0, -t),
                "count": count,
                "status": res.status,
                "agrees_with_exact": count == exact.count,
            }
        )
    kappa_hat = exact.kappa_lower_bound
    doc = {
        "exact_count": exact.count,
        "kappa_hat": kappa_hat,
        "required_precision": required_precision(f.n, f.D, f.S, kappa_hat),
        "rows": rows,
    }
    sys.stdout.write(canonical_json(doc))
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit 1, as every input error
    does; argparse's own code 2 means "iteration cap reached" here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _join_negative_start(argv: list[str]) -> list[str]:
    """argv with "--start V" and "--beta-tol V" written "--start=V" and
    "--beta-tol=V" when V begins with a negative number.  argparse reads
    only a plain number such as -0.6 as a negative value; it takes
    "-0.6,0.8" or "-inf" for an option and reports a missing value."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--start", "--beta-tol") and arg.startswith("-"):
            try:
                float(arg.split(",")[0])
            except ValueError:
                pass
            else:
                out[-1] = f"{out[-1]}={arg}"
                continue
        out.append(arg)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spherecount",
        description="Count real zero rays of homogeneous polynomial systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="run the grid-refinement counting loop")
    p.add_argument("--input", required=True, help="system document (JSON)")
    p.add_argument("--mode", choices=["exact", "rounded"], default="exact")
    p.add_argument("--bits", type=int, default=None, help="significand bits (rounded mode)")
    p.add_argument("--max-iter", type=int, default=24)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--grid-cap", type=int, default=sphere.DEFAULT_GRID_CAP)
    p.add_argument("--output", default=None, help="write the result document here")
    p.add_argument("--trace", action="store_true", help="log one line per refinement level")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("refine", help="Newton-refine a start point on the sphere")
    p.add_argument("--input", required=True)
    p.add_argument("--start", required=True, help='comma-separated point, e.g. "1,0"')
    p.add_argument("--max-steps", type=int, default=30)
    p.add_argument("--beta-tol", type=float, default=1e-12)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("kappa", help="grid lower bound for the condition number")
    p.add_argument("--input", required=True)
    p.add_argument("--level", type=int, required=True, help="grid refinement level k")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("sweep", help="re-count at several emulated precisions")
    p.add_argument("--input", required=True)
    p.add_argument("--bits", required=True, help='comma-separated bit counts, e.g. "53,24,12,8"')
    p.add_argument("--max-iter", type=int, default=24)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_sweep)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it takes about a
    millisecond, which each in-process `main` call paid before.  The
    commands look the engine up when called, not when the parser is built."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(_join_negative_start(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (
        OSError,
        json.JSONDecodeError,
        polysys.SystemFormatError,
        ValueError,
        sphere.GridTooLargeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
