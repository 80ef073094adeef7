import contextlib
import io
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import projgeo as pg
from projgeo import cli, jones, sampling

from _helpers import rotation_pair


def write_pair(tmp_path, p, q):
    pf, qf = tmp_path / "p.json", tmp_path / "q.json"
    cli.write_matrix(pf, p.m)
    cli.write_matrix(qf, q.m)
    return str(pf), str(qf)


def run_json(capsys, argv):
    code = cli.main(["--json"] + argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


# valid JSON that is not a matrix document (BAD_DOCS) or not a subalgebra
# spec (BAD_SPECS): a list, a number, a string, a missing field, a field of
# the wrong type, or a span of no matrices
DOC = {"n": 2, "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
BAD_DOCS = [[1, 2], 3, "p", {"re": DOC["re"], "im": DOC["im"]}, {**DOC, "n": [1]},
            {**DOC, "n": "2"}, {**DOC, "n": True}, {**DOC, "re": 5},
            {**DOC, "im": [[{}, 0.0], [0.0, 0.0]]}]
BAD_SPECS = [[1, 2], 3, {"kind": 3}, {"kind": "bogus"}, {"kind": "block_partition", "groups": 5},
             {"kind": "block_partition", "groups": [[0], 1]},
             {"kind": "block_partition", "groups": [[0.5], [1]]},
             {"kind": "tensor_factor", "k": "2", "m": 1},
             {"kind": "matrix_span", "matrices": 7},
             {"kind": "matrix_span", "matrices": [{**DOC, "n": [1]}]},
             {"kind": "matrix_span", "matrices": []}]
GOOD_SPECS = [{"kind": "block_partition", "groups": [[0], [1]]},
              {"kind": "tensor_factor", "k": 1, "m": 2},
              {"kind": "matrix_span", "matrices": [
                  DOC, {**DOC, "re": [[0.0, 0.0], [0.0, 1.0]]}]}]


def assert_within(got, want, where="results"):
    """The same keys and the same non-numbers; every number within 1e-12, and
    ``convergence_order``, a ratio of two small errors, within 0.01."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            assert_within(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            assert_within(a, b, f"{where}[{i}]")
    elif isinstance(want, float):
        bound = 0.01 if where.endswith("convergence_order") else 1e-12
        assert abs(got - want) <= bound, (where, got, want)
    else:
        assert got == want, where


def write_json(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


class TestMatrixDocuments:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(60)
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        path = tmp_path / "m.json"
        cli.write_matrix(path, m)
        back = cli.read_matrix(path)
        assert np.array_equal(m, back)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            cli.document_to_matrix({"n": 2, "re": [[1.0]], "im": [[0.0]]})

    @pytest.mark.parametrize("doc", BAD_DOCS)
    def test_a_malformed_document_exits_2(self, doc, tmp_path, capsys):
        f = write_json(tmp_path / "m.json", doc)
        assert cli.main(["decompose", f, f]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("doc", BAD_SPECS)
    def test_a_malformed_spec_file_exits_2(self, doc, tmp_path, capsys):
        f = write_json(tmp_path / "s.json", doc)
        assert cli.main(["transport", "--spec0", "diagonal", "--spec1", "@" + f]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("doc, named, other, n", [
        (GOOD_SPECS[0], "diagonal", "rotated:0.3", "2"),
        ({"kind": "tensor_factor", "k": 2, "m": 2}, "tensor:2x2", "tensor:2x2", "4"),
        ({"kind": "matrix_span", "matrices": [
            cli.matrix_to_document(m)
            for m in jones.spanning_matrices(jones.rotated_diagonal_spec(2, 0.3), 2)]},
         "rotated:0.3", "diagonal", "2")])
    def test_a_spec_file_reads_as_its_named_spec(self, doc, named, other, n, tmp_path, capsys):
        f = write_json(tmp_path / "s.json", doc)
        reports = [run_json(capsys, ["transport", "--n", n, "--steps", "100", "--trials", "1",
                                     "--spec0", spec, "--spec1", other])
                   for spec in ("@" + f, named)]
        assert reports[0][0] == reports[1][0] == 0
        if named.startswith("rotated:"):
            # rotated:0.3 conjugates the shared diagonal end and the file's
            # span is orthonormalized: two bases of one range, so the report
            # moves at rounding
            assert_within(reports[0][1]["results"], reports[1][1]["results"])
        else:
            assert reports[0][1]["results"] == reports[1][1]["results"]


class TestDecompose:
    def test_pi4_report(self, tmp_path, capsys):
        p = pg.make_projection(np.diag([1.0, 1.0, 0.0]))
        q = pg.from_span(np.array(
            [[1.0, 0.0], [0.0, 1 / np.sqrt(2)], [0.0, 1 / np.sqrt(2)]]))
        pf, qf = write_pair(tmp_path, p, q)
        code, rep = run_json(capsys, ["decompose", pf, qf])
        assert code == 0
        res = rep["results"]
        assert res["ranks"] == {"e11": 1, "e00": 0, "e10": 0, "e01": 0, "e0": 2}
        assert res["angles"] == pytest.approx([np.pi / 4])
        assert res["exists"] and res["unique"]

    def test_equal_projections(self, tmp_path, capsys):
        p, _ = rotation_pair(0.5)
        pf, qf = write_pair(tmp_path, p, p)
        code, rep = run_json(capsys, ["decompose", pf, qf])
        assert code == 0
        assert rep["results"]["exists"] and rep["results"]["unique"]
        assert rep["results"]["distance"] == 0.0

    def test_builds_no_exponent(self, tmp_path, capsys, monkeypatch):
        # a plane at 1e-5 is absorbed into the meet; the decomposition reports
        # the classification and builds no exponent
        p, q, _ = sampling.structured_pair(1, 1, 0, 0, [1e-5, 0.7],
                                           np.random.default_rng(1))
        pf, qf = write_pair(tmp_path, p, q)
        built = []
        real = cli.geo.position_exponent
        monkeypatch.setattr(cli.geo, "position_exponent",
                            lambda *args: built.append(args) or real(*args))
        code, rep = run_json(capsys, ["decompose", pf, qf])
        assert code == 0 and built == []
        assert rep["results"]["ranks"]["e11"] == 2
        assert rep["results"]["angles"] == pytest.approx([0.7], abs=1e-12)

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["decompose", str(bad), str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_non_projection_exits_2(self, tmp_path, capsys):
        f = tmp_path / "x.json"
        cli.write_matrix(f, np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert cli.main(["decompose", str(f), str(f)]) == 2


class TestGeodesic:
    def test_midpoint_and_distance(self, tmp_path, capsys):
        p, q = rotation_pair(np.pi / 3)
        pf, qf = write_pair(tmp_path, p, q)
        out = tmp_path / "out"
        code, rep = run_json(capsys, [
            "geodesic", pf, qf, "--t", "0.5", "--out", str(out)])
        assert code == 0
        assert rep["results"]["distance"] == pytest.approx(np.pi / 3)
        assert max(rep["results"]["residuals"].values()) < 1e-8
        _, mid = rotation_pair(np.pi / 6)
        point = cli.read_matrix(out / "point_0.500000.json")
        assert np.linalg.norm(point - mid.m, 2) < 1e-12
        z = cli.read_matrix(out / "exponent.json")
        expected = (np.pi / 3) * np.array([[0.0, -1.0], [1.0, 0.0]])
        assert np.linalg.norm(z - expected, 2) < 1e-12

    def test_non_finite_time_exits_2_naming_t(self, tmp_path, capsys):
        p, q = rotation_pair(np.pi / 3)
        pf, qf = write_pair(tmp_path, p, q)
        for t in ("inf", "nan", "0.5,-inf"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main(["geodesic", pf, qf, "--t", t])
            err = capsys.readouterr().err
            assert code == 2 and "t must be finite" in err, (t, err)
            assert caught == [], [str(w.message) for w in caught]
        with pytest.raises(ValueError, match="t must be finite"):
            pg.geodesic_point(pg.minimal_exponent(p, q), float("nan"))

    def test_times_that_would_share_a_point_file_exit_2_before_any_work(
            self, tmp_path, monkeypatch, capsys):
        p, q = rotation_pair(np.pi / 3)
        pf, qf = write_pair(tmp_path, p, q)
        out = tmp_path / "out"
        with monkeypatch.context() as mp:
            mp.setattr(cli.projlat, "make_projection", None)
            for t, named in (("0.1234561,0.1234564", "0.1234561 and 0.1234564"),
                             ("0.5,0,0.5", "0.5 and 0.5")):
                assert cli.main(["geodesic", pf, qf, "--t", t, "--out", str(out)]) == 2
                assert f"--t values {named} both write" in capsys.readouterr().err
        assert not out.exists()
        # without --out no file is written, and the times stand
        code, rep = run_json(capsys, ["geodesic", pf, qf, "--t", "0.1234561,0.1234564"])
        assert code == 0 and rep["results"]["t_samples"] == [0.1234561, 0.1234564]

    def test_human_report_labels_the_certified_fields(self, tmp_path, capsys):
        p, q = rotation_pair(np.pi / 3)
        pf, qf = write_pair(tmp_path, p, q)
        assert cli.main(["geodesic", pf, qf]) == 0
        lines = capsys.readouterr().out.splitlines()
        for key in ("endpoint", "codiagonality"):
            line = next(line for line in lines if line.strip().startswith(key + ":"))
            assert "certified upper bound" in line and "1e-08" in line
        for key in ("skewness", "norm_bound"):
            line = next(line for line in lines if line.strip().startswith(key + ":"))
            assert "bound;" not in line

    def test_rank_mismatch_exits_3(self, tmp_path, capsys):
        p = pg.make_projection(np.diag([1.0, 0.0, 0.0]))
        q = pg.make_projection(np.zeros((3, 3)))
        pf, qf = write_pair(tmp_path, p, q)
        assert cli.main(["geodesic", pf, qf]) == 3
        assert "obstruction" in capsys.readouterr().err

    def test_rho_length_of_orthogonal_pair(self, tmp_path, capsys):
        p = pg.make_projection(np.diag([1.0, 0.0]))
        q = pg.make_projection(np.diag([0.0, 1.0]))
        pf, qf = write_pair(tmp_path, p, q)
        code, rep = run_json(capsys, ["geodesic", pf, qf, "--rho", "2"])
        assert code == 0
        assert rep["results"]["rho_lengths"]["2.0"] == pytest.approx(np.pi / 2)


class TestJones:
    def test_m4_k1(self, capsys):
        code, rep = run_json(capsys, ["jones", "--m", "4", "--k", "1",
                                      "--rho", "2"])
        assert code == 0
        res = rep["results"]
        assert res["tau"] == pytest.approx(0.25)
        assert res["distance"] == pytest.approx(np.pi / 3)
        assert res["distance_assert_ok"]
        entry = res["rho"][0]
        assert entry["value"] == pytest.approx(np.pi / 3 / np.sqrt(2))
        assert entry["closed_form"] == pytest.approx(np.pi / (3 * np.sqrt(2)))
        assert entry["assert_ok"] is True
        assert "assert_message" not in entry

    def test_m2(self, capsys):
        code, rep = run_json(capsys, ["jones", "--m", "2"])
        assert code == 0
        assert rep["results"]["distance"] == pytest.approx(np.pi / 4)

    def test_m1_exits_2(self, capsys):
        assert cli.main(["jones", "--m", "1"]) == 2

    def test_non_finite_rho_exits_2(self, capsys):
        assert cli.main(["jones", "--m", "2", "--rho", "inf"]) == 2
        assert "error: rho must be a finite number >= 1, got inf" in capsys.readouterr().err

    def test_oversized_dimension_exits_2(self, monkeypatch, capsys):
        # rejected before the n x n pair is built
        monkeypatch.setattr(cli.jones, "jones_pair", None)
        for m, k in (("100000", "1"), ("2", "100000"), ("257", "2")):
            assert cli.main(["jones", "--m", m, "--k", k]) == 2
            assert f"at most {cli.MAX_JONES_DIM}" in capsys.readouterr().err


SMALL_TRANSPORT = ["transport", "--n", "2", "--spec0", "diagonal", "--spec1",
                   "rotated:0.3", "--steps", "100", "--trials", "1"]
COUNT_CAPS = [("--steps", cli.MAX_TRANSPORT_STEPS),
              ("--order-probe", cli.MAX_TRANSPORT_STEPS // 2),
              ("--trials", cli.MAX_TRANSPORT_TRIALS)]


class TestTransport:
    def test_out_of_range_dimension_exits_2(self, monkeypatch, capsys):
        # rejected before any n^2 x n^2 expectation projection is built
        monkeypatch.setattr(cli.jones, "expectation_path", None)
        for n in ("100000", "33", "0"):
            assert cli.main(["transport", "--n", n, "--spec0", "diagonal",
                             "--spec1", "diagonal"]) == 2
            assert f"[1, {cli.MAX_TRANSPORT_DIM}]" in capsys.readouterr().err

    def test_rotation_with_one_coordinate_exits_2(self, capsys):
        assert cli.main(["transport", "--n", "1", "--spec0", "diagonal",
                         "--spec1", "rotated:0.3"]) == 2
        assert "needs n >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, cause", [
        ("tensor:-2x-2", "k = -2, m = -2"), ("tensor:0x4", "k = 0, m = 4"),
        ("tensor:2x", "two integers, got ['2', '']"), ("rotated:inf", "must be finite, got inf"),
        ("rotated:-inf", "must be finite, got -inf")])
    def test_a_bad_spec_exits_2_naming_the_flag_and_its_value(self, spec, cause, capsys):
        code = cli.main(["transport", "--n", "4", "--spec0", "diagonal", "--spec1", spec])
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert err.startswith(f"error: --spec1 {spec!r}: ") and cause in err, err

    def test_a_spec_of_another_size_exits_2_naming_the_flag(self, tmp_path, monkeypatch,
                                                            capsys):
        # each spec is checked against --n before the expectation path is built
        monkeypatch.setattr(cli.jones, "expectation_path", None)
        block = "@" + write_json(tmp_path / "b.json",
                                 {"kind": "block_partition", "groups": [[0, 1], [2]]})
        span = "@" + write_json(tmp_path / "s.json", GOOD_SPECS[2])
        for flag, spec, cause in (
                ("--spec1", "tensor:1x2", "k*m = 2 does not match n = 4"),
                ("--spec0", block, "groups must partition the coordinates 0..3"),
                ("--spec1", span, "spanning matrix 0 has shape (2, 2), not (4, 4)")):
            other = "--spec0" if flag == "--spec1" else "--spec1"
            assert cli.main(["transport", "--n", "4", other, "diagonal", flag, spec]) == 2
            assert capsys.readouterr().err == f"error: {flag} {spec!r}: {cause}\n"

    def test_an_empty_span_exits_2_naming_the_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli.jones, "expectation_path", None)
        spec = "@" + write_json(tmp_path / "empty.json", {"kind": "matrix_span", "matrices": []})
        assert cli.main(["transport", "--n", "2", "--spec0", "diagonal", "--spec1", spec]) == 2
        assert capsys.readouterr().err == (
            f"error: --spec1 {spec!r}: a matrix span needs at least one matrix\n")

    def test_counts_past_their_caps_exit_2(self, monkeypatch, capsys):
        # rejected before the expectation path or any ODE state is built
        monkeypatch.setattr(cli.jones, "expectation_path", None)
        for flag, cap in COUNT_CAPS:
            for value in (cap + 1, 0, -1, 10 ** 30):
                assert cli.main(SMALL_TRANSPORT + [flag, str(value)]) == 2
                assert f"{flag} must lie in" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, cap", COUNT_CAPS)
    def test_counts_at_their_caps_run(self, flag, cap, capsys):
        assert cli.main(SMALL_TRANSPORT + [flag, str(cap)]) == 0

    def test_identical_specs(self, capsys):
        code, rep = run_json(capsys, [
            "transport", "--spec0", "diagonal", "--spec1", "diagonal",
            "--steps", "100"])
        assert code == 0
        res = rep["results"]
        assert res["ode_vs_propagator"] < 1e-12
        for ax in res["expectation_axioms"].values():
            assert max(ax.values()) < 1e-12

    def test_eighth_turn(self, capsys):
        code, rep = run_json(capsys, [
            "transport", "--spec0", "diagonal", "--spec1",
            f"rotated:{np.pi / 8}", "--steps", "1000", "--trials", "3"])
        assert code == 0
        res = rep["results"]
        assert res["ode_vs_propagator"] < 1e-6
        assert 3.5 <= res["convergence_order"] <= 4.5
        assert res["propagator"]["multiplicative"] < 1e-8
        for ax in res["expectation_axioms"].values():
            assert max(ax.values()) < 1e-8
        path = jones.expectation_path(
            jones.diagonal_spec(2), jones.rotated_diagonal_spec(2, np.pi / 8), 2)
        assert res["gap"] == path.gap
        ref = pg.operator_norm(path.end0.big.m - path.end1.big.m)
        assert abs(path.gap - ref) <= 1e-14 * max(1.0, ref)

    def test_near_threshold_turn(self, capsys):
        # a rotation by 1e-4 lies inside the classification width: the gap,
        # a verdict, reads 0, and the exponent turns the plane by its angle
        code, rep = run_json(capsys, ["transport", "--n", "2", "--spec0", "diagonal",
                                      "--spec1", "rotated:1e-4"])
        assert code == 0
        res = rep["results"]
        assert res["gap"] == 0.0
        assert res["ode_vs_propagator"] < 1e-10
        # the probe's errors are rounding that grows with the steps: no order
        assert res["convergence_order"] is None
        assert max(res["propagator"].values()) < 1e-8
        for ax in res["expectation_axioms"].values():
            assert max(ax.values()) < 1e-8

    def test_quarter_turn_exits_3(self, capsys):
        assert cli.main(["transport", "--spec0", "diagonal",
                         "--spec1", f"rotated:{np.pi / 4}"]) == 3

    def test_tensor_spec_parses(self, capsys):
        code, rep = run_json(capsys, [
            "transport", "--n", "4", "--spec0", "tensor:2x2",
            "--spec1", "tensor:2x2", "--steps", "100", "--trials", "1"])
        assert code == 0


class TestRandom:
    def test_deterministic_reports(self, capsys):
        argv = ["--json", "random", "--n", "8", "--trials", "20", "--seed", "7"]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_force_wedge_detects_non_uniqueness(self, capsys):
        code, rep = run_json(capsys, ["random", "--n", "6", "--trials", "10",
                                      "--force-wedge"])
        assert code == 0
        res = rep["results"]
        assert res["n_exists"] == 10
        assert res["n_nonunique_detected"] == 10
        assert all(t["ranks"][2] >= 1 and t["ranks"][2] == t["ranks"][3]
                   for t in res["per_trial"])
        assert max(res["max_residuals"].values()) < 1e-8

    def test_oversized_dimension_exits_2(self, capsys):
        assert cli.main(["random", "--n", "100000", "--trials", "1"]) == 2

    def test_trials_past_their_cap_exit_2(self, monkeypatch, capsys):
        # rejected before any pair is drawn
        monkeypatch.setattr(cli.sampling, "pair_diagnostics", None)
        for value in (cli.MAX_RANDOM_TRIALS + 1, 0, -1, 10 ** 11):
            assert cli.main(["random", "--n", "4", "--trials", str(value)]) == 2
            assert f"--trials must lie in [1, {cli.MAX_RANDOM_TRIALS}]" in (
                capsys.readouterr().err)

    def test_fixed_ranks(self, capsys):
        code, rep = run_json(capsys, ["random", "--n", "6", "--trials", "5",
                                      "--ranks", "3"])
        assert code == 0
        assert rep["results"]["n_exists"] == 5

    @pytest.mark.parametrize("extra", [["--ranks", "1,2,3"], ["--ranks", "3", "--force-wedge"]])
    def test_ambiguous_ranks_exit_2(self, extra, monkeypatch, capsys):
        # more than two ranks, or ranks with a forced wedge, name no one pair
        monkeypatch.setattr(cli.sampling, "pair_diagnostics", None)
        assert cli.main(["random", "--n", "6", *extra]) == 2
        assert "--ranks takes one or two ranks" in capsys.readouterr().err


class TestParser:
    def test_unknown_command_exits_2(self):
        assert cli.main(["frobnicate"]) == 2

    def test_missing_required_flag_exits_2(self):
        assert cli.main(["jones"]) == 2

    def test_seed_env_default(self, monkeypatch, capsys):
        monkeypatch.setenv("PROJGEO_SEED", "123")
        code, rep = run_json(capsys, ["jones", "--m", "2"])
        assert code == 0
        assert rep["seed"] == 123


# The command grammar: every subcommand and flag, each flag left out or
# given a small in-range value, and at most one of them given a value past
# its documented range (0, negatives, nan, inf, huge numbers) or, when
# required, left out. In-range sizes and counts stay small, so no draw
# reaches an expensive run.
HUGE = str(10 ** 12)
COUNT_PAST = ("0", "-1", HUGE, "nan", "1e3")
RHO = ("", "1", "2,4", "1e308"), ("0", "-1", "0.5", "nan", "inf", "abc")
COLLIDING = "0.1234561,0.1234564"
SIZE_CAUSES = ("does not match n =", "must partition the coordinates", "spanning matrix")
PARSE_CAUSES = ("could not convert string to float", "invalid literal for int()")
COMMON = [
    ("--tol-structure", ("1e-8", "1e300"), ("0", "-1", "nan", "inf", "-inf"), False),
    # 0.3 and up lie past the cap 1 - 1/sqrt(2), where the windows overlap,
    # and 1e-16 below the floor 8e-15, the rounding of valid projections
    ("--tol-spectral", ("1e-6", "0.1"),
     ("0", "-1", "nan", "inf", "0.3", "0.5", "1e300", "1e-16"), False),
    ("--tol-rank", ("1e-10", "1e300"), ("0", "-1", "nan", "inf", "1e-20"), False),
    ("--seed", ("0", "7", str(10 ** 30)), ("-1", "nan"), False),
    ("--json", (), (), False),
]


def command_grammar(docs):
    """Strategy of (argv, past range). Each flag is (name, in-range values,
    past-range values, required); a name of None is a positional argument
    and a flag with no values is a switch."""
    pf, qf, junk, bad_docs, good_specs, bad_specs = docs
    pair = [(None, (pf, qf), (junk, junk + ".missing", *bad_docs), True)] * 2
    spec = (("diagonal", "rotated:0.3", "rotated:-1", "rotated:1e308", "tensor:1x2",
             *("@" + f for f in good_specs)),
            ("rotated:nan", "rotated:inf", "rotated:-inf", "tensor:0x0", "tensor:-1x-2",
             "tensor:-2x-2", "tensor:0x4", "tensor:2x",
             "tensor:100000x100000", "bogus", "@" + junk + ".missing",
             *("@" + f for f in bad_specs)))
    commands = {
        "decompose": pair,
        "geodesic": pair + [
            # two times that name one point file stand without --out only
            ("--t", ("0,0.5,1", "0.25", "-1", "1e308", COLLIDING),
             ("x", "nan", "inf", "0,-inf"), False),
            ("--rho", *RHO, False),
            ("--out", (pf + ".out",), (junk + "/sub",), False)],
        "jones": [("--m", ("2", "3", "4"), ("1",) + COUNT_PAST, True),
                  ("--k", ("1", "2"), COUNT_PAST, False),
                  ("--rho", *RHO, False)],
        "transport": [("--n", ("2", "3"), ("33",) + COUNT_PAST, False),
                      ("--spec0", *spec, True),
                      ("--spec1", *spec, True),
                      ("--steps", ("100", "101"), ("99", "10001") + COUNT_PAST, False),
                      ("--trials", ("1", "2"), ("21",) + COUNT_PAST, False),
                      ("--order-probe", ("100",), ("99", "5001") + COUNT_PAST, False)],
        "random": [("--n", ("2", "3"), ("1", "65") + COUNT_PAST, True),
                   ("--ranks", ("0", "1", "1,2", "2,0"), ("-1", "4", "1,-1", "x", "1,2,3"),
                    False),
                   ("--trials", ("1", "2"), ("1001",) + COUNT_PAST, False),
                   ("--force-wedge", (), (), False)],
    }

    @st.composite
    def draw(draw):
        name = draw(st.sampled_from(sorted(commands)))
        flags = commands[name] + COMMON
        past = draw(st.none() | st.integers(0, len(flags) - 1))
        before, after, past_range = [], [name], False
        for i, (flag, good, bad, required) in enumerate(flags):
            if i == past and (bad or required):
                past_range = True
                if required and (not bad or draw(st.booleans())):
                    continue  # a required argument left out
                value = draw(st.sampled_from(bad))
            elif required or draw(st.booleans()):
                value = draw(st.sampled_from(good)) if good else None
            else:
                continue
            tokens = [t for t in (flag, value) if t is not None]
            # a common flag goes before or after the subcommand, not both
            (before if i >= len(commands[name]) and draw(st.booleans()) else after).extend(tokens)
        # fixed ranks and a forced wedge are two ways to draw the pair
        past_range |= "--ranks" in after and "--force-wedge" in after
        past_range |= COLLIDING in after and "--out" in after
        return before + after, past_range

    return draw()


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    root = tmp_path_factory.mktemp("grammar")
    p = pg.make_projection(np.diag([1.0, 1.0, 0.0]))
    q = pg.from_span(np.array([[1.0, 0.0], [0.0, 2 ** -0.5], [0.0, 2 ** -0.5]]))
    pf, qf, junk = root / "p.json", root / "q.json", root / "junk.json"
    cli.write_matrix(pf, p.m)
    cli.write_matrix(qf, q.m)
    junk.write_text("{not json")
    files = [[write_json(root / f"{name}{i}.json", doc) for i, doc in enumerate(group)]
             for name, group in (("doc", BAD_DOCS), ("good", GOOD_SPECS), ("spec", BAD_SPECS))]
    return (str(pf), str(qf), str(junk), *files)


def test_every_invocation_ends_in_a_documented_exit(docs):
    @settings(max_examples=250, deadline=None, database=None)
    @example((["--tol-structure", "inf", "jones", "--m", "2"], True))
    @example((["--tol-spectral", "1e300", "jones", "--m", "3"], True))
    @example((["--tol-spectral", "0.5", "decompose", docs[0], docs[1]], True))
    @example((["geodesic", docs[0], docs[1], "--t", "inf"], True))
    @example((["random", "--n", "2", "--trials", str(cli.MAX_RANDOM_TRIALS + 1)], True))
    @example((["jones", "--m", "4", "--rho", "1e308"], False))
    @example((["random", "--n", "6", "--ranks", "1,2,3"], True))
    @example((["random", "--n", "6", "--ranks", "3", "--force-wedge"], True))
    @example((["geodesic", docs[0], docs[1], "--t", COLLIDING, "--out", docs[0] + ".out"], True))
    @example((["transport", "--n", "4", "--spec0", "diagonal", "--spec1", "tensor:1x2"], False))
    @example((["jones", "--m", "3", "--rho", "abc"], True))
    @example((["random", "--n", "4", "--ranks", "3,"], True))
    @given(command_grammar(docs))
    def run(drawn):
        argv, past_range = drawn
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert "Traceback" not in err.getvalue()
        assert code == 2 if past_range else code in (0, 2, 3), (code, err.getvalue())
        # a spec of another size than --n (a good spec file at --n 3) names its flag
        if any(cause in err.getvalue() for cause in SIZE_CAUSES):
            assert re.match(r"error: --spec[01] '", err.getvalue()), err.getvalue()
        # so does a value of a list flag that does not parse
        if any(cause in err.getvalue() for cause in PARSE_CAUSES):
            assert re.match(r"error: --(t|rho|ranks|spec[01]) '", err.getvalue()), err.getvalue()

    run()
