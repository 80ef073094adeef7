"""One nan rule: a value fails its check when it numkit.exceeds the bound,
which a nan always does, and a reported maximum is numkit.worst, which
keeps a nan. With every norm of the library made nan, each entry point
ends in a typed error and the CLI in a documented exit."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import projgeo as pg
from projgeo import cli, geo, jones, numkit, sampling
from projgeo.errors import InternalConsistencyError, NotProjection, NotSubalgebra

from _helpers import force_exact, patch_nan_norms, rotation_pair

TESTS = Path(__file__).resolve().parent
TYPED = (NotProjection, NotSubalgebra, InternalConsistencyError)


def test_exceeds_fails_a_nan_and_keeps_the_boundary():
    assert numkit.exceeds(math.nan, 1.0) is True
    assert numkit.exceeds(math.nan, math.inf) is True
    assert numkit.exceeds(np.float64(2.0), 1.0) is True
    assert numkit.exceeds(1.0, 1.0) is False
    assert numkit.exceeds(-math.inf, 0.0) is False
    assert numkit.exceeds(math.inf, 1e308) is True


@pytest.mark.parametrize("values", [
    [], [0.0, -0.0], [-0.0, 0.0], [1.0, np.float64(1.0)], [np.float64(1.0), 1.0],
    [3, 2.5], [-math.inf], [1e-300, 2e-300, 5e-324], [0.0, 1e-17, 1e-17]])
def test_worst_is_builtin_max_without_a_nan(values):
    got = numkit.worst(values)
    ref = max(values, default=0.0)
    assert got is ref or (type(got) is type(ref) and got == ref and
                          math.copysign(1.0, got) == math.copysign(1.0, ref))
    assert json.dumps(got) == json.dumps(ref)
    assert numkit.worst(iter(values), default=-1.0) == max(values, default=-1.0)


@pytest.mark.parametrize("place", [0, 1, 2])
def test_worst_keeps_a_nan_in_any_place(place):
    values = [1.0, 2.0, 0.5]
    values[place] = math.nan
    assert math.isnan(numkit.worst(values))
    assert math.isnan(numkit.worst(np.array(values)))


@pytest.mark.parametrize("report", [geo.GeodesicResiduals, jones.ExpectationAxioms,
                                    jones.PropagatorReport])
def test_every_report_maximum_keeps_a_nan(report):
    fields = list(report.__dataclass_fields__)
    for place in range(len(fields)):
        values = dict.fromkeys(fields, 0.0) | {fields[place]: math.nan}
        assert math.isnan(report(**values).max())
    assert report(**dict.fromkeys(fields, 1e-9)).max() == 1e-9


class TestNanNorms:
    """numkit.operator_norm and numkit.frobenius return nan in every module
    that binds them; each entry point must then end in a typed error."""

    def test_make_projection(self, monkeypatch):
        m = rotation_pair(0.4)[1].m
        patch_nan_norms(monkeypatch.setattr)
        with pytest.raises(TYPED):
            pg.make_projection(m)

    def test_minimal_exponent_and_its_verification(self, monkeypatch):
        p, q, _ = sampling.structured_pair(1, 1, 1, 1, [0.4, 1.1], np.random.default_rng(5))
        patch_nan_norms(monkeypatch.setattr)
        with pytest.raises(TYPED):
            pg.verify_geodesic(pg.minimal_exponent(p, q))

    def test_geodesic_point(self, monkeypatch):
        # the certificate made nan, the point measures its Gram, which reads nan
        p, q, _ = sampling.structured_pair(1, 1, 1, 1, [0.4, 1.1], np.random.default_rng(6))
        force_exact(monkeypatch)
        g = pg.minimal_exponent(p, q)
        patch_nan_norms(monkeypatch.setattr)
        with pytest.raises(TYPED):
            pg.geodesic_point(g, 0.5)

    def test_expectation_projection(self, monkeypatch):
        patch_nan_norms(monkeypatch.setattr)
        with pytest.raises(TYPED):
            jones.expectation_projection(jones.rotated_diagonal_spec(3, 0.3), 3)

    def test_expectation_path(self, monkeypatch):
        patch_nan_norms(monkeypatch.setattr)
        with pytest.raises(TYPED):
            jones.expectation_path(jones.diagonal_spec(3), jones.rotated_diagonal_spec(3, 0.3), 3)


def test_a_nan_closure_fails_the_subalgebra_check(monkeypatch):
    # a nan closure residual after a finite span residual was dropped by max()
    monkeypatch.setattr(jones, "_product_residual", lambda basis, members: math.nan)
    with pytest.raises(NotSubalgebra, match="residual nan"):
        jones.expectation_projection(jones.diagonal_spec(3), 3)


# python -m projgeo with the norms made nan before the CLI runs
UNDER_NAN = "\n".join([
    "import runpy, sys",
    f"sys.path.insert(0, {str(TESTS)!r})",
    "import _helpers",
    "_helpers.patch_nan_norms(setattr)",
    "runpy.run_module('projgeo', run_name='__main__', alter_sys=True)",
])


def test_the_cli_ends_in_a_documented_exit_under_nan_norms(tmp_path):
    p, q, _ = sampling.structured_pair(1, 1, 1, 1, [0.4, 1.1], np.random.default_rng(7))
    pf, qf = tmp_path / "p.json", tmp_path / "q.json"
    cli.write_matrix(pf, p.m)
    cli.write_matrix(qf, q.m)
    env = dict(os.environ, PYTHONPATH=str(TESTS.parent / "src"))
    for argv in (["decompose", pf, qf], ["geodesic", pf, qf, "--rho", "2"],
                 ["transport", "--n", "3", "--spec0", "diagonal", "--spec1", "rotated:0.3",
                  "--steps", "100", "--trials", "1"]):
        run = subprocess.run([sys.executable, "-c", UNDER_NAN, "--json", *map(str, argv)],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode in (cli.EXIT_USAGE, cli.EXIT_OBSTRUCTION), (argv, run)
        assert run.stdout == "" and "Traceback" not in run.stderr, run.stderr
        assert run.stderr.startswith(("error: ", "obstruction: ")), run.stderr
