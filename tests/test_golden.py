"""The CLI's golden reports: every command of ``tests/golden/golden.py``
run in one child process at one BLAS thread, and its stdout, stderr, exit
code and ``--out`` files compared byte for byte with ``tests/golden/expected``.
A change that moves a byte regenerates them with
``python tests/golden/golden.py --write`` and lists each moved field in
CHANGES.md."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
EXPECTED = GOLDEN / "expected"
MANIFEST = json.loads((EXPECTED / "manifest.json").read_text())


@pytest.fixture(scope="module")
def results():
    # golden.py pins the BLAS threads, COLUMNS and PROJGEO_SEED before numpy loads
    proc = subprocess.run([sys.executable, str(GOLDEN / "golden.py")], cwd=GOLDEN,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    got = json.loads(proc.stdout)
    assert got["versions"] == MANIFEST["versions"], (
        f"the goldens were made with {MANIFEST['versions']}, this run has {got['versions']}")
    return got["cases"]


def test_the_case_list_matches_the_goldens(results):
    assert sorted(results) == sorted(MANIFEST["exits"])


@pytest.mark.parametrize("name", sorted(MANIFEST["exits"]))
def test_a_command_reproduces_its_golden(results, name):
    case = results[name]
    assert case["exit"] == MANIFEST["exits"][name]
    for stream in ("stdout", "stderr"):
        assert case[stream].encode() == (EXPECTED / f"{name}.{stream}").read_bytes(), stream
    out = EXPECTED / f"{name}.out"
    want = {f.name: f.read_bytes() for f in sorted(out.iterdir())} if out.is_dir() else {}
    assert {k: v.encode() for k, v in case["files"].items()} == want
