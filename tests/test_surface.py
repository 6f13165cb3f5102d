"""The names other code relies on: the package exports, the functions the
benchmark tracer wraps, and the demos.  A refactor that deletes or renames
one of them fails here rather than in the benchmark or a user's script.
The package also runs on numpy alone: no subcommand loads scipy."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spherecount

ROOT = Path(__file__).resolve().parent.parent


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_exported_name_resolves():
    missing = [name for name in spherecount.__all__ if not hasattr(spherecount, name)]
    assert missing == []


def test_every_traced_function_is_a_module_attribute():
    missing = []
    for mod_name, fn_names in _load_tracer().LAYERS.items():
        module = importlib.import_module(f"spherecount.{mod_name}")
        missing += [
            f"{mod_name}.{fn}" for fn in fn_names if not callable(getattr(module, fn, None))
        ]
    assert missing == []


def _run_python(args, **kwargs):
    """Run a fresh interpreter with this checkout's src on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120, **kwargs
    )


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    proc = _run_python([str(ROOT / "demos" / demo)])
    assert proc.returncode == 0, proc.stderr


# (X1 - 0.3 X0, X2 + 0.2 X1): one zero ray.
LINES_N2 = {"n": 2, "degrees": [1, 1], "polys": [
    [{"J": [0, 1, 0], "c": 1.0}, {"J": [1, 0, 0], "c": -0.3}],
    [{"J": [0, 0, 1], "c": 1.0}, {"J": [0, 1, 0], "c": 0.2}],
]}

NO_SCIPY = """
import contextlib, io, sys
import spherecount
from spherecount import cli
path = sys.argv[1]
for argv in (["count", "--input", path], ["refine", "--input", path, "--start", "1,0,0"],
             ["sweep", "--input", path, "--bits", "53,24"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_subcommands_load_no_scipy(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(LINES_N2))
    proc = _run_python(["-c", NO_SCIPY, str(path)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
