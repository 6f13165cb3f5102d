"""The benchmark's workloads: their systems, oracle counts, CLI calls and verdicts.

Every system comes from the generators in ``spherecount.oracle``, which know
the exact ray count by construction.  Seed 0 runs the systems exactly as the
test suite defines them; any other seed composes each system with a seeded
random orthogonal change of variables, which keeps both the ray count and the
condition number.

The change of variables is ``random_orthogonal`` and ``compose_orthogonal``
of ``tests/util.py``, imported from there (``tests`` is on the workload
process's PYTHONPATH).  The systems themselves mirror ``tests/conftest.py``,
which cannot be imported without pytest: ``_univariate_suite`` and
``_is_squarefree`` repeat its ``univariate_suite`` fixture and
``is_squarefree``, and ``_seed_cases`` picks its systems from
``MULTIVARIATE_SPEC``.  Keep them in step with that file.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

from spherecount import engine, oracle, polysys, sphere
from util import compose_orthogonal, random_orthogonal

# The univariate oracle suite of tests/conftest.py: 20 squarefree random
# binary forms of degree <= 6 with grid condition estimate <= 1e3.
UNIVARIATE_RNG_SEED = 20260826
UNIVARIATE_SIZE = 20
UNIVARIATE_MAX_DEGREE = 6
UNIVARIATE_KAPPA_CAP = 1e3

SWEEP_BITS = "53,24,12"


@dataclass(frozen=True)
class Case:
    name: str
    system: polysys.PolynomialSystem
    count: int  # exact ray count from the oracle


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "count" or "sweep"
    workers: int


WORKLOADS = {
    w.name: w
    for w in (
        # Why each workload exists is recorded in BENCHMARK.json.
        Workload("exact-n2", "count", 1),
        Workload("deep-n2", "count", 2),
        Workload("sweep-n1", "sweep", 2),
    )
}


def _linear_product(name, degrees, seed, coeff_range, min_sigma) -> Case:
    f, count, _ = oracle.make_linear_product_system(
        degrees, seed, coeff_range=coeff_range, min_sigma=min_sigma, max_tries=5000
    )
    return Case(name, f, count)


def _is_squarefree(poly: polysys.Polynomial) -> bool:
    dense = [Fraction(0)] * (poly.degree + 1)
    for e, c in zip(poly.exponents, poly.coefficients):
        dense[int(e[1])] += Fraction(c)
    p = oracle._poly_trim(dense)
    return len(oracle._squarefree_part(p)) == len(p)


def _univariate_suite() -> list[Case]:
    rng = random.Random(UNIVARIATE_RNG_SEED)
    cases = []
    while len(cases) < UNIVARIATE_SIZE:
        degree = rng.randint(1, UNIVARIATE_MAX_DEGREE)
        f, count = oracle.random_binary_system(rng, degree)
        if not _is_squarefree(f.polynomials[0]):
            continue
        if engine.estimate_kappa(f, sphere.CubeGridSpec(n=1, k=8)) > UNIVARIATE_KAPPA_CAP:
            continue
        cases.append(Case(f"u{len(cases):02d}-d{degree}", f, count))
    return cases


def _seed_cases(workload: str) -> list[Case]:
    if workload == "exact-n2":
        return [_linear_product("p21-s0", (2, 1), 0, 2, 0.62)] + [
            _linear_product(f"p11-s{s}", (1, 1), s, 1, 0.90) for s in range(4)
        ]
    if workload == "deep-n2":
        return [_linear_product("p22-s0", (2, 2), 0, 1, 0.60)]
    if workload == "sweep-n1":
        return _univariate_suite()
    raise ValueError(f"unknown workload {workload!r}")


def make_cases(workload: str, seed: int) -> list[Case]:
    cases = _seed_cases(workload)
    if seed == 0:
        return cases
    out = []
    for case in cases:
        rng = random.Random(f"{seed}:{case.name}")
        Q = random_orthogonal(rng, case.system.n_vars)
        out.append(Case(case.name, compose_orthogonal(case.system, Q), case.count))
    return out


def write_inputs(cases: list[Case], workdir: str) -> list[str]:
    """Write one system document per case; returns the input paths."""
    os.makedirs(workdir, exist_ok=True)
    paths = []
    for case in cases:
        path = os.path.join(workdir, f"{case.name}.json")
        with open(path, "w") as fh:
            json.dump(polysys.system_to_document(case.system), fh)
        paths.append(path)
    return paths


def cli_args(workload: Workload, input_path: str, output_path: str, workers: int) -> list[str]:
    if workload.command == "count":
        return ["count", "--input", input_path, "--workers", str(workers),
                "--output", output_path]
    return ["sweep", "--input", input_path, "--bits", SWEEP_BITS, "--workers", str(workers)]


def verdict_problems(workload: Workload, case: Case, exit_code: int, document: str) -> list[str]:
    """Reasons the verdict on one case is wrong; empty when it is correct.

    Result documents may hold the non-RFC token ``Infinity``, which
    ``json.loads`` accepts; it is not a failure.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        return [f"unparseable document: {exc}"]
    problems = []
    if workload.command == "sweep":
        counts = [doc.get("exact_count")] + [row.get("count") for row in doc.get("rows", [])]
        if len(counts) != 1 + len(SWEEP_BITS.split(",")):
            problems.append(f"{len(counts) - 1} precision rows")
        if any(c != case.count for c in counts):
            problems.append(f"counts {counts}, oracle {case.count}")
        return problems
    if doc.get("status") != "converged":
        problems.append(f"status {doc.get('status')!r}")
    if doc.get("count") != case.count:
        problems.append(f"count {doc.get('count')}, oracle {case.count}")
    fn = case.system.normalized()
    for comp in doc.get("components", []):
        if not oracle.verify_zero(fn, comp["zero"]):
            problems.append(f"zero {comp['zero']} fails verify_zero")
    return problems
