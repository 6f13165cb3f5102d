import json
import math

import numpy as np
import pytest

from spherecount import cli


TWOLINES = {
    "n": 1,
    "degrees": [2],
    "polys": [[{"J": [0, 2], "c": 1.0}, {"J": [2, 0], "c": -0.25}]],
}
DOUBLE = {"n": 1, "degrees": [2], "polys": [[{"J": [0, 2], "c": 1.0}]]}
LINE_SHIFTED = {
    "n": 1,
    "degrees": [1],
    "polys": [[{"J": [0, 1], "c": 1.0}, {"J": [1, 0], "c": -0.1}]],
}


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
    assert len(lines) == len(json.loads(captured.out)["iterations"])


def test_count_iteration_cap_exit_code(system_file, capsys):
    rc = cli.main(
        ["count", "--input", system_file(DOUBLE), "--max-iter", "6"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert doc["status"] == "iteration-cap-reached"
    assert doc["count"] is None or isinstance(doc["count"], int)


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


def test_count_rounded_requires_bits(system_file, capsys):
    rc = cli.main(
        ["count", "--input", system_file(TWOLINES), "--mode", "rounded"]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_count_deterministic_across_workers(system_file, capsys):
    path = system_file(TWOLINES)
    outs = []
    for w in ("1", "4"):
        assert cli.main(["count", "--input", path, "--workers", w]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


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
    assert doc["steps"] == len(doc["beta_trace"]) - 1


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


def test_sweep_document(system_file, capsys):
    rc = cli.main(
        ["sweep", "--input", system_file(TWOLINES), "--bits", "53,24"]
    )
    captured = capsys.readouterr()
    assert rc == 0
    doc = json.loads(captured.out)
    assert doc["exact_count"] == 2
    assert doc["required_precision"] > 0
    assert [row["bits"] for row in doc["rows"]] == [53, 24]
    for row in doc["rows"]:
        assert row["u"] == math.ldexp(1.0, -row["bits"])
        assert row["status"] == "converged"
        assert row["agrees_with_exact"] is True


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
