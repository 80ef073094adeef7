"""The traced benchmark wraps library functions by name: every name it
lists must still exist, so deleting or renaming a traced function fails
here instead of breaking ``perfbench/run.py --trace 1``. The benchmark's
files are loaded by path and only read."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load("tracer")
bench_spec = load("spec")


@pytest.mark.parametrize("module, names", sorted(tracer.LAYER_FUNCTIONS.items()))
def test_layer_functions_resolve(module, names):
    mod = importlib.import_module(f"projgeo.{module}")
    missing = [n for n in names if not callable(getattr(mod, n, None))]
    assert missing == []


def test_reported_functions_are_traced():
    traced = {f"{m}.{n}" for m, names in tracer.LAYER_FUNCTIONS.items() for n in names}
    assert [f for f in bench_spec.REPORTED_FUNCTIONS if f not in traced] == []


def test_tracer_installs_after_import_projgeo():
    # a traced run imports projgeo and then installs the tracer; a fresh
    # interpreter sees only the modules that import loads
    path = str(PERFBENCH / "tracer.py")
    code = "\n".join([
        "import importlib.util, projgeo",
        f"spec = importlib.util.spec_from_file_location('tracer', {path!r})",
        "tracer = importlib.util.module_from_spec(spec)",
        "spec.loader.exec_module(tracer)",
        "t = tracer.Tracer()",
        "t.install()",
        "t.restore()",
    ])
    env = dict(os.environ, PYTHONPATH=str(PERFBENCH.parent / "src"))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
