"""The names other code relies on: the package exports, the functions the
benchmark tracer wraps, and the demos.  A refactor that deletes or renames
one of them fails here rather than in the benchmark or a user's script."""

import importlib
import importlib.util
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


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
