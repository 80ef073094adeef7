"""Golden reports of the CLI: a fixed list of commands, run in one process
through ``projgeo.cli.main``, each with its stdout, stderr, exit code and,
for ``geodesic --out``, the files it writes.

    python tests/golden/golden.py            # print the results as JSON
    python tests/golden/golden.py --write    # regenerate expected/
    python tests/golden/golden.py --inputs   # rewrite inputs/ (rarely)

The commands run from a fresh temporary directory that holds a copy of
``inputs/``, with relative paths, because the reports echo ``argv`` and
``out_dir``. BLAS runs on one thread. ``tests/test_golden.py`` compares the
results with ``expected/`` byte for byte; ``expected/manifest.json`` holds
the exit codes and the Python, numpy, scipy and BLAS versions they were
made with (argparse's usage text follows the Python version).
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["COLUMNS"] = "80"  # argparse wraps its usage lines to this width
os.environ.pop("PROJGEO_SEED", None)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
INPUTS, EXPECTED = HERE / "inputs", HERE / "expected"
sys.path.insert(0, str(HERE.parents[1] / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from projgeo import cli  # noqa: E402

TRANSPORT = ["--steps", "200", "--trials", "1"]
PAIR = ["pair_p.json", "pair_q.json"]

# name -> argv; every subcommand, each documented exit-2 and exit-3 case
CASES = {
    # exit 0
    "decompose": ["--json", "decompose", *PAIR],
    "geodesic": ["--json", "geodesic", *PAIR, "--t", "0,0.25,1", "--rho", "2,4",
                 "--out", "out"],
    "geodesic_human": ["geodesic", *PAIR, "--rho", "2"],
    "jones": ["--json", "jones", "--m", "4", "--k", "2", "--rho", "2,4"],
    "random": ["--json", "--seed", "7", "random", "--n", "8", "--trials", "5",
               "--force-wedge"],
    "random_ranks": ["--json", "random", "--n", "6", "--ranks", "2,3", "--trials", "3"],
    "transport_diagonal": ["--json", "transport", "--n", "3", "--spec0", "diagonal",
                           "--spec1", "diagonal", *TRANSPORT],
    "transport_rotated": ["--json", "transport", "--n", "4", "--spec0", "diagonal",
                          "--spec1", "rotated:0.3", *TRANSPORT],
    "transport_tensor": ["--json", "transport", "--n", "4", "--spec0", "tensor:2x2",
                         "--spec1", "tensor:2x2", *TRANSPORT],
    "transport_block_partition": ["--json", "transport", "--n", "4", "--spec0",
                                  "@blocks.json", "--spec1", "rotated:0.5", *TRANSPORT],
    "transport_generic_span": ["--json", "transport", "--n", "3", "--spec0", "diagonal",
                               "--spec1", "@generic_span.json", *TRANSPORT],
    # exit 3
    "geodesic_unjoinable": ["--json", "geodesic", "unjoinable_p.json", "unjoinable_q.json"],
    "transport_tensor_too_far": ["--json", "transport", "--n", "6", "--spec0", "tensor:2x3",
                                 "--spec1", "diagonal", *TRANSPORT],
    "transport_quarter_turn": ["--json", "transport", "--n", "2", "--spec0", "diagonal",
                               "--spec1", "rotated:0.7853981633974483", *TRANSPORT],
    # exit 2
    "usage_unknown_command": ["bogus"],
    "usage_missing_flag": ["transport", "--spec0", "diagonal"],
    "usage_negative_seed": ["--seed", "-1", "jones", "--m", "2"],
    "tolerance_not_positive": ["--tol-structure", "0", "jones", "--m", "2"],
    "decompose_malformed_json": ["decompose", "malformed.json", "pair_q.json"],
    "decompose_missing_file": ["decompose", "missing.json", "pair_q.json"],
    "decompose_not_a_projection": ["decompose", "not_projection.json", "pair_q.json"],
    "geodesic_time_not_finite": ["geodesic", *PAIR, "--t", "nan"],
    "geodesic_times_share_a_file": ["geodesic", *PAIR, "--t", "0.1234561,0.1234564",
                                    "--out", "out"],
    "jones_m_too_small": ["jones", "--m", "1"],
    "jones_over_cap": ["jones", "--m", "600"],
    "jones_rho_not_a_number": ["jones", "--m", "2", "--rho", "abc"],
    "transport_n_over_cap": ["transport", "--n", "33", "--spec0", "diagonal",
                             "--spec1", "diagonal"],
    "transport_steps_below_range": ["transport", "--spec0", "diagonal", "--spec1",
                                    "diagonal", "--steps", "99"],
    "transport_unknown_spec": ["transport", "--n", "2", "--spec0", "diagonal",
                               "--spec1", "bogus"],
    "transport_rotation_not_finite": ["transport", "--n", "2", "--spec0", "diagonal",
                                      "--spec1", "rotated:inf"],
    "transport_rotation_one_coordinate": ["transport", "--n", "1", "--spec0", "diagonal",
                                          "--spec1", "rotated:0.3"],
    "transport_spec_of_another_size": ["transport", "--n", "4", "--spec0", "diagonal",
                                       "--spec1", "tensor:1x2"],
    "transport_empty_span": ["transport", "--n", "2", "--spec0", "diagonal",
                             "--spec1", "@empty_span.json"],
    "random_n_over_cap": ["random", "--n", "65"],
    "random_ranks_not_integers": ["random", "--n", "4", "--ranks", "3,"],
    "random_ranks_with_wedge": ["random", "--n", "4", "--ranks", "1,2", "--force-wedge"],
}


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}"}


def run_case(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    files = {}
    if Path("out").is_dir():
        files = {f.name: f.read_text(encoding="utf-8") for f in sorted(Path("out").iterdir())}
        shutil.rmtree("out")
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


def run_all() -> dict:
    """Every case, run from a temporary copy of inputs/."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(INPUTS, tmp, dirs_exist_ok=True)
        os.chdir(tmp)
        try:
            cases = {name: run_case(argv) for name, argv in CASES.items()}
        finally:
            os.chdir(home)
    return {"versions": versions(), "cases": cases}


def write_expected(results: dict) -> None:
    shutil.rmtree(EXPECTED, ignore_errors=True)
    EXPECTED.mkdir()
    for name, case in results["cases"].items():
        (EXPECTED / f"{name}.stdout").write_text(case["stdout"], encoding="utf-8")
        (EXPECTED / f"{name}.stderr").write_text(case["stderr"], encoding="utf-8")
        if case["files"]:
            (EXPECTED / f"{name}.out").mkdir()
            for file, text in case["files"].items():
                (EXPECTED / f"{name}.out" / file).write_text(text, encoding="utf-8")
    manifest = {"versions": results["versions"],
                "exits": {name: case["exit"] for name, case in results["cases"].items()}}
    (EXPECTED / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def write_inputs() -> None:
    """The committed inputs: a generic pair in M_4, ranks 2 and 2, with
    angles 0.3 and 0.9, conjugated by a Haar unitary; an unjoinable pair
    (dim p ^ q' = 1, dim p' ^ q = 2); the spec files; and the span of the
    diagonal of M_3 conjugated by e^{0.4 h}, h a unit-norm random skew
    matrix (the generic conjugate of tests/test_contract.py)."""
    import scipy.linalg

    from projgeo import jones, numkit

    INPUTS.mkdir(exist_ok=True)
    u = numkit.haar_unitary(4, np.random.default_rng(16))
    a, b = 0.3, 0.9
    q_cols = np.array([[np.cos(a), 0], [0, np.cos(b)], [np.sin(a), 0], [0, np.sin(b)]])
    p, q = np.diag([1.0, 1.0, 0.0, 0.0]), q_cols @ q_cols.T
    for name, m in (("pair_p", u @ p @ u.conj().T), ("pair_q", u @ q @ u.conj().T),
                    ("unjoinable_p", np.diag([1.0, 0.0, 0.0])),
                    ("unjoinable_q", np.diag([0.0, 1.0, 1.0])),
                    ("not_projection", np.diag([1.0, 0.5]))):
        cli.write_matrix(INPUTS / f"{name}.json", m)
    (INPUTS / "malformed.json").write_text("{not json\n")
    n, rng = 3, np.random.default_rng(0)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = g - g.conj().T
    v = scipy.linalg.expm(0.4 * h / numkit.operator_norm(h))
    mats = [v @ m @ v.conj().T for m in jones.spanning_matrices(jones.diagonal_spec(n), n)]
    for name, doc in (
            ("blocks", {"kind": "block_partition", "groups": [[3], [2], [1], [0]]}),
            ("empty_span", {"kind": "matrix_span", "matrices": []}),
            ("generic_span", {"kind": "matrix_span",
                              "matrices": [cli.matrix_to_document(m) for m in mats]})):
        (INPUTS / f"{name}.json").write_text(json.dumps(doc, sort_keys=True) + "\n")


if __name__ == "__main__":
    if "--inputs" in sys.argv:
        write_inputs()
    elif "--write" in sys.argv:
        write_expected(run_all())
    else:
        json.dump(run_all(), sys.stdout, sort_keys=True)
