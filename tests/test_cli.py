import json
import math

import numpy as np
import pytest

from spherecount import cli
from spherecount.polysys import system_to_document


TWOLINES = {
    "n": 1,
    "degrees": [2],
    "polys": [[{"J": [0, 2], "c": 1.0}, {"J": [2, 0], "c": -0.25}]],
}
DOUBLE = {"n": 1, "degrees": [2], "polys": [[{"J": [0, 2], "c": 1.0}]]}
CIRCLE = {
    "n": 1,
    "degrees": [2],
    "polys": [[{"J": [2, 0], "c": 1.0}, {"J": [0, 2], "c": 1.0}]],
}
# X1^2, X2: the double ray (1, 0, 0), so the loop never halts.
DOUBLE_N2 = {
    "n": 2,
    "degrees": [2, 1],
    "polys": [[{"J": [0, 2, 0], "c": 1.0}], [{"J": [0, 0, 1], "c": 1.0}]],
}
LINE_SHIFTED = {
    "n": 1,
    "degrees": [1],
    "polys": [[{"J": [0, 1], "c": 1.0}, {"J": [1, 0], "c": -0.1}]],
}


def strict_loads(text):
    """json.loads that refuses the non-RFC tokens NaN, Infinity and -Infinity."""

    def reject(token):
        raise ValueError(f"non-RFC JSON token {token}")

    return json.loads(text, parse_constant=reject)


@pytest.fixture
def system_file(tmp_path):
    def write(doc, name="system.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def test_count_converged(system_file, capsys):
    rc = cli.main(["count", "--input", system_file(TWOLINES)])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["count"] == 2
    assert doc["status"] == "converged"
    assert abs(doc["original_norm"] - math.sqrt(1.0625)) < 1e-12
    # canonical serialization round-trips byte-for-byte
    assert cli.canonical_json(doc) == out


def test_count_output_file(system_file, tmp_path, capsys):
    out_path = tmp_path / "result.json"
    rc = cli.main(
        ["count", "--input", system_file(TWOLINES), "--output", str(out_path)]
    )
    assert rc == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out_path.read_text())
    assert doc["count"] == 2


def test_count_trace(system_file, capsys):
    rc = cli.main(["count", "--input", system_file(TWOLINES), "--trace"])
    captured = capsys.readouterr()
    assert rc == 0
    lines = [l for l in captured.err.splitlines() if l.startswith("level k=")]
    iterations = json.loads(captured.out)["iterations"]
    assert len(lines) == len(iterations)
    fields = [dict(item.split("=", 1) for item in line.split()[1:]) for line in lines]
    for f, it in zip(fields, iterations):
        assert int(f["grid"]) == it["grid_size"]
        assert 0 < int(f["evaluated"]) <= it["grid_size"]
        thr_i, thr_ii = float(f["thr_i"]), float(f["thr_ii"])
        min_cross, min_excluded = float(f["min_cross"]), float(f["min_excluded"])
        assert min_cross == (it["min_intercomponent_distance"] or math.inf)
        assert min_excluded == (it["min_excluded_fsup"] or math.inf)
        assert f["halt"] == f"({min_cross > thr_i},{min_excluded > thr_ii})"
        assert f["halt"] == f"({it['condition_i_pass']},{it['condition_ii_pass']})"
    # The first level is the whole grid; pruning evaluates fewer at fine levels.
    assert int(fields[0]["evaluated"]) == iterations[0]["grid_size"]
    assert int(fields[-1]["evaluated"]) < iterations[-1]["grid_size"]


def test_count_document_same_with_and_without_trace(system_file, capsys):
    docs = []
    for extra in ([], ["--trace"]):
        assert cli.main(["count", "--input", system_file(TWOLINES)] + extra) == 0
        docs.append(capsys.readouterr().out)
    assert docs[0] == docs[1]


def test_count_iteration_cap_exit_code(system_file, capsys):
    rc = cli.main(
        ["count", "--input", system_file(DOUBLE), "--max-iter", "6"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert doc["status"] == "iteration-cap-reached"
    assert doc["count"] is None or isinstance(doc["count"], int)


def test_count_grid_cap_below_first_level(system_file, capsys):
    # The first level of the README's example has 16 grid points: with a
    # smaller cap no level runs, so there is no document, only an error.
    for cap in ("0", "15"):
        rc = cli.main(["count", "--input", system_file(TWOLINES), "--grid-cap", cap])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "cap" in captured.err


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize(
    "command", [["count"], ["kappa", "--level", "3"], ["sweep", "--bits", "24"]],
    ids=["count", "kappa", "sweep"],
)
def test_workers_below_one_rejected(system_file, capsys, command, workers):
    rc = cli.main(command[:1] + ["--input", system_file(TWOLINES), "--workers", workers]
                  + command[1:])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: workers must be >= 1\n"


def test_count_missing_file(tmp_path, capsys):
    rc = cli.main(["count", "--input", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_count_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    rc = cli.main(["count", "--input", str(path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_count_bad_schema(system_file, capsys):
    rc = cli.main(
        ["count", "--input", system_file({"n": 1, "degrees": [1], "polys": []})]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_count_non_finite_coefficient(tmp_path, capsys, token):
    path = tmp_path / "system.json"
    path.write_text(
        '{"n": 1, "degrees": [1], "polys": [[{"J": [0, 1], "c": 1.0}, '
        f'{{"J": [1, 0], "c": {token}}}]]}}'
    )
    rc = cli.main(["count", "--input", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "non-finite coefficient" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "field, value",
    [
        ("n", 1.7),
        ("n", True),
        ("n", "1"),
        ("degrees", [1.5]),
        ("degrees", [True]),
        ("J", [True, False]),
        ("J", [0.5, 0.5]),
        ("J", ["0", "1"]),
        ("c", "2"),
        ("c", True),
        ("c", None),
    ],
)
def test_count_rejects_coercible_values(system_file, capsys, field, value):
    doc = {"n": 1, "degrees": [1], "polys": [[{"J": [0, 1], "c": 1.0}]]}
    if field in doc:
        doc[field] = value
    else:
        doc["polys"][0][0][field] = value
    rc = cli.main(["count", "--input", system_file(doc)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error:" in captured.err
    assert captured.out == ""


def test_count_accepts_integral_floats(system_file, capsys):
    doc = {"n": 1.0, "degrees": [1.0], "polys": [[{"J": [0.0, 1.0], "c": 2}]]}
    assert cli.main(["count", "--input", system_file(doc)]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 1


@pytest.mark.parametrize(
    "monomials",
    [
        [{"J": [0, 1], "c": 1e-320}],
        [{"J": [0, 1], "c": 1e200}, {"J": [1, 0], "c": 1e199}],
    ],
    ids=["subnormal", "huge"],
)
def test_count_extreme_coefficients(system_file, capsys, monomials):
    doc = {"n": 1, "degrees": [1], "polys": [monomials]}
    rc = cli.main(["count", "--input", system_file(doc)])
    doc = strict_loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["count"] == 1


@pytest.mark.parametrize(
    "degree, J",
    [(1100, [550, 550]), (10**20, [10**20, 0])],
    ids=["multinomial", "exponent"],
)
def test_count_oversized_degree_is_schema_error(system_file, capsys, degree, J):
    # The multinomial 1100! / (550!)^2 is beyond the double range; degree
    # 10^20 (also beyond a 64-bit exponent) exceeds the factor-table limit.
    doc = {"n": 1, "degrees": [degree], "polys": [[{"J": J, "c": 1}]]}
    rc = cli.main(["count", "--input", system_file(doc)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: polynomial 0: ") and captured.err.count("\n") == 1


# Polynomial 0 is identically zero: as written, or once the system is
# scaled to norm 1 (1e-300 (X1 - X0) next to 1e300 (X2 - X0), one ray).
ZERO_EQUATION = {
    "written": {"n": 2, "degrees": [1, 1], "polys": [
        [{"J": [1, 0, 0], "c": 0}], [{"J": [0, 0, 1], "c": 1.0}]]},
    "scaled": {"n": 2, "degrees": [1, 1], "polys": [
        [{"J": [0, 1, 0], "c": 1e-300}, {"J": [1, 0, 0], "c": -1e-300}],
        [{"J": [0, 0, 1], "c": 1e300}, {"J": [1, 0, 0], "c": -1e300}]]},
}


@pytest.mark.parametrize("case", sorted(ZERO_EQUATION))
@pytest.mark.parametrize(
    "argv",
    [["count", "--max-iter", "3"], ["sweep", "--bits", "24", "--max-iter", "3"],
     ["kappa", "--level", "2"]],
    ids=["count", "sweep", "kappa"],
)
def test_identically_zero_equation_is_schema_error(system_file, capsys, argv, case):
    rc = cli.main([*argv, "--input", system_file(ZERO_EQUATION[case])])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: polynomial 0: ") and captured.err.count("\n") == 1


def test_count_huge_degree_is_schema_error(system_file, capsys):
    # Its factor table would take 8 TiB; it is refused before allocation.
    degree = 2**40
    doc = {"n": 1, "degrees": [degree], "polys": [[{"J": [degree, 0], "c": 1}]]}
    rc = cli.main(["count", "--input", system_file(doc)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: polynomial 0: ") and captured.err.count("\n") == 1
    assert "more than 10^8" in captured.err


def test_count_high_degree_binomial_parses(system_file, capsys):
    # Within the factor-table limit: the document passes the schema and is
    # normalized, and the run stops at the grid cap, before any evaluation.
    degree = 2**20
    doc = {"n": 1, "degrees": [degree],
           "polys": [[{"J": [degree, 0], "c": 1}, {"J": [0, degree], "c": -1}]]}
    rc = cli.main(["count", "--input", system_file(doc), "--grid-cap", "0"])
    assert rc == 1
    assert capsys.readouterr().err == "error: level k=1 needs 16 grid points, cap is 0\n"


def test_count_norm_beyond_double_range(system_file, capsys):
    # The Weyl norm, ~2.4e308, overflows; the count does not depend on it.
    doc = {"n": 1, "degrees": [1], "polys": [[{"J": [0, 1], "c": 1.7e308}, {"J": [1, 0], "c": 1.7e308}]]}
    rc = cli.main(["count", "--input", system_file(doc)])
    captured = capsys.readouterr()
    out = strict_loads(captured.out)
    assert rc == 0
    assert out["count"] == 1
    assert out["original_norm"] is None
    assert captured.err == ""


def test_count_circle_document_is_strict_json(system_file, capsys):
    # No component pair exists at any level: the minimum is empty.
    rc = cli.main(["count", "--input", system_file(CIRCLE)])
    out = capsys.readouterr().out
    assert rc == 0
    doc = strict_loads(out)
    assert doc["count"] == 0
    assert [it["min_intercomponent_distance"] for it in doc["iterations"]] == [None] * 3
    assert cli.canonical_json(doc) == out


def test_count_double_line_document_is_strict_json(system_file, capsys):
    # A grid point on the double line has residual 0 and sigma_min 0.
    rc = cli.main(["count", "--input", system_file(DOUBLE), "--max-iter", "4"])
    doc = strict_loads(capsys.readouterr().out)
    assert rc == 2
    assert doc["kappa_lower_bound"] is None


def test_kappa_double_line_document_is_strict_json(system_file, capsys):
    rc = cli.main(["kappa", "--input", system_file(DOUBLE), "--level", "4"])
    doc = strict_loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["kappa_lower_bound"] is None


def test_canonical_json_writes_non_finite_floats_as_null():
    doc = {"a": [math.inf, -math.inf, np.float64(math.nan), 1.5], "b": (math.inf,)}
    assert strict_loads(cli.canonical_json(doc)) == {"a": [None, None, None, 1.5], "b": [None]}


def test_count_rounded_requires_bits(system_file, capsys):
    rc = cli.main(
        ["count", "--input", system_file(TWOLINES), "--mode", "rounded"]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_count_exact_rejects_bits(system_file, capsys):
    rc = cli.main(
        ["count", "--input", system_file(TWOLINES), "--mode", "exact", "--bits", "12"]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_count_deterministic_across_workers(system_file, capsys):
    path = system_file(TWOLINES)
    outs = []
    for w in ("1", "4"):
        assert cli.main(["count", "--input", path, "--workers", w]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("bits", ["53", "24"])
def test_count_rounded_degree_21(multivariate_suite, system_file, capsys, bits):
    """Rounded mode counts a degree-(2,1) system: pruned levels keep its
    halting level (k = 11) within the grid cap."""
    (case,) = [c for c in multivariate_suite if c["degrees"] == (2, 1) and c["seed"] == 0]
    path = system_file(system_to_document(case["system"]))
    rc = cli.main(["count", "--input", path, "--mode", "rounded", "--bits", bits,
                   "--workers", "2"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0 and doc["status"] == "converged"
    assert doc["count"] == case["count"] == 2
    assert doc["iterations"][-1]["k"] == 11


def test_refine_closed_form(system_file, capsys):
    # Newton for X1 - 0.1 X0 from (1, 0) lands on (1, 0.1)/sqrt(1.01)
    rc = cli.main(
        ["refine", "--input", system_file(LINE_SHIFTED), "--start", "1,0"]
    )
    captured = capsys.readouterr()
    assert rc == 0
    doc = json.loads(captured.out)
    expected = np.array([1.0, 0.1]) / math.sqrt(1.01)
    assert np.allclose(doc["final_point"], expected, atol=1e-12)
    assert doc["envelope"] == "satisfied"
    assert doc["singular"] is False
    assert doc["beta_trace"][-1] <= 1e-12
    # Each beta_k is the length of a step that was taken.
    assert doc["steps"] == len(doc["beta_trace"])


def test_refine_one_step_counts_one(system_file, capsys):
    """--max-steps 1 takes one Newton step: the point moves, steps is 1."""
    rc = cli.main(["refine", "--input", system_file(LINE_SHIFTED), "--start", "1,0",
                   "--max-steps", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["steps"] == len(doc["beta_trace"]) == 1
    assert doc["beta_trace"][0] > 0
    assert doc["final_point"] != [1.0, 0.0]


def test_refine_uncertified_warning(system_file, capsys):
    # start far from any zero: alpha-bar exceeds the certification threshold
    rc = cli.main(
        [
            "refine",
            "--input",
            system_file(TWOLINES),
            "--start",
            "0.8,0.6",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert "uncertified start" in captured.err


def test_refine_singular_start_is_uncertified(system_file, capsys):
    # (1, 0) is a double zero of X1^2: residual 0, sigma_min 0
    rc = cli.main(["refine", "--input", system_file(DOUBLE), "--start", "1,0"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "uncertified start" in captured.err
    assert json.loads(captured.out)["singular"] is True


@pytest.mark.parametrize("start", ["nan,1", "inf,0"])
def test_refine_non_finite_start_rejected(system_file, capsys, start):
    rc = cli.main(["refine", "--input", system_file(TWOLINES), "--start", start])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "non-finite" in lines[0]


@pytest.mark.parametrize("flag", [["--start", "-0.6,0.8"], ["--start=-0.6,0.8"]])
def test_refine_start_with_leading_minus(system_file, capsys, flag):
    rc = cli.main(["refine", "--input", system_file(TWOLINES), *flag])
    captured = capsys.readouterr()
    assert rc == 0
    assert "uncertified start" in captured.err
    point = json.loads(captured.out)["final_point"]
    assert np.allclose(np.abs(point), np.array([2.0, 1.0]) / math.sqrt(5.0), atol=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ["refine", "--input", "system.json", "--start"],
        ["refine", "--input", "system.json", "--start", "-x,1"],
        ["count"],
        ["count", "--input", "system.json", "--bits", "twelve"],
        ["count", "--input", "system.json", "--colour"],
        ["solve", "--input", "system.json"],
    ],
)
def test_usage_errors_exit_1(capsys, argv):
    """Exit 2 means "iteration cap reached"; a usage error is an input error."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0].startswith("usage: spherecount") and ": error: " in lines[-1]


def test_parser_is_built_once(system_file, capsys, monkeypatch):
    """main builds the argument parser on its first call only, and later
    calls, a usage error among them, parse with that parser."""
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    path = system_file(TWOLINES)
    assert cli.main(["count", "--input", path]) == 0
    with pytest.raises(SystemExit):
        cli.main(["count", "--input", path, "--colour"])
    assert cli.main(["sweep", "--input", path, "--bits", "24"]) == 0
    capsys.readouterr()
    assert len(built) == 1


def test_refine_negative_max_steps_rejected(system_file, capsys, monkeypatch):
    monkeypatch.setattr(cli.alpha, "newton_refine", None)  # must not be reached
    rc = cli.main(
        ["refine", "--input", system_file(TWOLINES), "--start", "1,0", "--max-steps", "-3"]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: --max-steps must be >= 0, got -3\n"


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
def test_refine_bad_beta_tol_rejected(system_file, capsys, monkeypatch, tol):
    """A non-finite or negative --beta-tol is an input error, not a run
    that stops after one step or takes every step, whether the value is
    joined to the option or follows it."""
    monkeypatch.setattr(cli.alpha, "newton_refine", None)  # must not be reached
    for flag in ([f"--beta-tol={tol}"], ["--beta-tol", tol]):
        rc = cli.main(["refine", "--input", system_file(TWOLINES), "--start", "1,0", *flag])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == f"error: --beta-tol must be finite and >= 0, got {float(tol)}\n"


def test_refine_off_sphere_rejected(system_file, capsys):
    rc = cli.main(
        ["refine", "--input", system_file(TWOLINES), "--start", "1,1"]
    )
    assert rc == 1
    assert "unit sphere" in capsys.readouterr().err


def test_refine_bad_start_format(system_file, capsys):
    rc = cli.main(
        ["refine", "--input", system_file(TWOLINES), "--start", "1,oops"]
    )
    assert rc == 1


def test_refine_wrong_dimension(system_file, capsys):
    rc = cli.main(
        ["refine", "--input", system_file(TWOLINES), "--start", "1,0,0"]
    )
    assert rc == 1
    assert "coordinates" in capsys.readouterr().err


def test_kappa_document(system_file, capsys):
    line = {"n": 1, "degrees": [1], "polys": [[{"J": [0, 1], "c": 1.0}]]}
    rc = cli.main(
        ["kappa", "--input", system_file(line), "--level", "8"]
    )
    captured = capsys.readouterr()
    assert rc == 0
    doc = json.loads(captured.out)
    assert set(doc) == {"kappa_lower_bound", "level", "grid_size"}
    assert doc["level"] == 8
    assert abs(doc["kappa_lower_bound"] - math.sqrt(2.0)) < 1e-3


def test_kappa_grid_beyond_cap(system_file, capsys):
    # Level 13 of the n = 2 grid has 1.6e9 points, beyond the 1e8 cap.
    rc = cli.main(["kappa", "--input", system_file(DOUBLE_N2), "--level", "13"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "cap" in captured.err


def test_sweep_document(system_file, capsys):
    """Each row's u is 2^-t for its bit count t, down to the host's 2^-53:
    from 53 bits on nothing is rounded."""
    rc = cli.main(
        ["sweep", "--input", system_file(TWOLINES), "--bits", "64,53,24"]
    )
    captured = capsys.readouterr()
    assert rc == 0
    doc = json.loads(captured.out)
    assert doc["exact_count"] == 2
    assert doc["required_precision"] > 0
    assert [row["bits"] for row in doc["rows"]] == [64, 53, 24]
    assert [row["u"] for row in doc["rows"]] == [2.0**-53, 2.0**-53, 2.0**-24]
    for row in doc["rows"]:
        assert row["status"] == "converged"
        assert row["agrees_with_exact"] is True


def test_sweep_rejects_bad_bits_before_any_pass(system_file, capsys, monkeypatch):
    monkeypatch.setattr(cli.engine, "count_levels", None)  # must not be reached
    rc = cli.main(["sweep", "--input", system_file(TWOLINES), "--bits", "24,1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: significand bit count must be >= 2, got 1\n"


def test_sweep_empty_bits(system_file, capsys):
    rc = cli.main(
        ["sweep", "--input", system_file(TWOLINES), "--bits", ""]
    )
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["rows"] == []


def test_sweep_nonconverging_exact(system_file, capsys):
    rc = cli.main(
        [
            "sweep",
            "--input",
            system_file(DOUBLE),
            "--bits",
            "53",
            "--max-iter",
            "5",
        ]
    )
    assert rc == 2
    assert "did not converge" in capsys.readouterr().err
