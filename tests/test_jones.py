import ast
import collections
import json
import logging
import math
import unittest.mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projgeo as pg
from projgeo import cli, factor, geo, jones, numkit, projlat
from projgeo.errors import (DimensionMismatch, InternalConsistencyError,
                             InvariantViolation, NotSubalgebra, TooFar)

from _helpers import adj, conjugated_subalgebras, unitary
from test_norm_kernel import modules


class TestJonesPair:
    @pytest.mark.parametrize("m,k", [(2, 1), (3, 1), (3, 2), (4, 1), (5, 3)])
    def test_invariants(self, m, k):
        jp = jones.jones_pair(m, k)
        n = m * k
        assert jp.n == n
        assert pg.operator_norm(jp.p.m @ jp.q.m @ jp.p.m - jp.tau * jp.p.m) < 1e-10
        parts = pg.halmos_decompose(jp.p, jp.q)
        assert parts.ranks() == (0, n - 2 * k, 0, 0, 2 * k)
        tr = factor.NormalizedTrace(factor.FiniteAlgebra.full(n))
        assert tr(jp.p.m).real == pytest.approx(jp.tau)
        assert tr(jp.q.m).real == pytest.approx(jp.tau)

    def test_angles_all_equal(self):
        jp = jones.jones_pair(3, 2)
        expected = np.arccos(1 / np.sqrt(3))
        assert pg.principal_angles(jp.p, jp.q) == pytest.approx(
            [expected, expected])

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            jones.jones_pair(1, 1)
        with pytest.raises(ValueError):
            jones.jones_pair(2, 0)


class TestIndexDistance:
    def test_half_tau(self):
        d, _ = jones.index_distance(jones.jones_pair(2, 1))
        assert d == pytest.approx(np.pi / 4, abs=1e-12)

    def test_quarter_tau(self):
        d, _ = jones.index_distance(jones.jones_pair(4, 1))
        assert d == pytest.approx(np.pi / 3, abs=1e-12)

    @pytest.mark.parametrize("m,k", [(2, 1), (3, 2), (5, 1)])
    def test_distance_matches_closed_form(self, m, k):
        jp = jones.jones_pair(m, k)
        d, _ = jones.index_distance(jp)
        assert d == pytest.approx(np.arccos(np.sqrt(jp.tau)), abs=1e-9)

    def test_rho_distance_measures_generic_trace_weight(self, monkeypatch, capsys):
        # the rho-length of the exponent carries the trace of the whole
        # generic part, 2 tau, so d_rho returns (2 tau)^(1/rho) theta
        for m, k in [(4, 1), (3, 2)]:
            jp = jones.jones_pair(m, k)
            _, d_rho = jones.index_distance(jp)
            theta = np.arccos(np.sqrt(jp.tau))
            for rho in (2.0, 4.0):
                assert d_rho(rho) == pytest.approx(
                    (2 * jp.tau) ** (1 / rho) * theta, abs=1e-12)
        # a length off the closed form raises, carrying both numbers
        expected = np.sqrt(2 * jp.tau) * theta
        monkeypatch.setattr(jones.geo, "rho_length",
                            lambda g, rho, tr: expected + 1e-6)
        with pytest.raises(InvariantViolation) as info:
            d_rho(2.0)
        assert info.value.computed == expected + 1e-6
        assert info.value.expected == pytest.approx(expected, abs=1e-12)
        # a NaN fails the check too (abs(nan - x) > atol is False)
        monkeypatch.setattr(jones.geo, "rho_length", lambda g, rho, tr: math.nan)
        with pytest.raises(InvariantViolation) as info:
            d_rho(2.0)
        assert math.isnan(info.value.computed)
        assert info.value.expected == pytest.approx(expected, abs=1e-12)
        code = cli.main(["--json", "jones", "--m", "3", "--rho", "2"])
        entry, = json.loads(capsys.readouterr().out)["results"]["rho"]
        assert code == 0 and entry["assert_ok"] is False and math.isnan(entry["value"])


class TestBasicConstruction:
    """The index theorem on a Jones basic construction C < M_k < M_{k^2}:
    e1 projects HS(M_k) onto C 1 and acts on HS(M_{k^2}) by left
    multiplication, e2 is the expectation onto M_k (x) 1. Then
    e1 e2 e1 = tau e1 with tau = 1/k^2 and d(e1, e2) = arccos(tau^(1/2))
    (Jones 1983; Pimsner & Popa 1986)."""

    @pytest.mark.parametrize("k,ranks", [(2, (0, 8, 0, 0, 8)),
                                         (3, (0, 63, 0, 0, 18))])
    def test_index_theorem(self, k, ranks):
        unit = np.eye(k).reshape(-1) / np.sqrt(k)
        e1 = pg.make_projection(np.kron(np.outer(unit, unit), np.eye(k * k)))
        e2 = jones.expectation_projection(jones.TensorFactor(k, k), k * k).big
        tau = 1.0 / k ** 2
        assert pg.operator_norm(e1.m @ e2.m @ e1.m - tau * e1.m) <= 1e-12
        assert projlat.position(e1, e2).ranks() == ranks
        assert abs(pg.geodesic_distance(e1, e2) - np.arccos(1.0 / k)) <= 1e-12


class TestExpectationProjection:
    def test_diagonal_pinching(self):
        ep = jones.expectation_projection(jones.diagonal_spec(2), 2)
        assert ep.big.rank == 2 and ep.big.n == 4
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(ep.expect(x), np.diag([1.0, 4.0]))

    def test_tensor_factor_partial_trace(self):
        ep = jones.expectation_projection(jones.TensorFactor(k=2, m=2), 4)
        rng = np.random.default_rng(40)
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        ptr = np.trace(x.reshape(2, 2, 2, 2), axis1=1, axis2=3)
        assert np.allclose(ep.expect(x), np.kron(ptr / 2, np.eye(2)))
        ax = jones.expectation_axioms(ep.big, 4)
        assert ax.max() < 1e-8

    def test_closure_is_measured_once(self, monkeypatch):
        calls = []
        real = jones._product_residual

        def counting(basis, members):
            calls.append(real(basis, members))
            return calls[-1]

        monkeypatch.setattr(jones, "_product_residual", counting)
        ep = jones.expectation_projection(jones.TensorFactor(k=2, m=2), 4)
        assert calls == [real(ep.basis, jones._members(ep.basis, 4))]

    def test_star_closure_required(self):
        raiser = np.array([[0.0, 1.0], [0.0, 0.0]])
        spec = jones.MatrixSpan(mats=(np.eye(2), raiser))
        with pytest.raises(NotSubalgebra):
            jones.expectation_projection(spec, 2)

    def test_unit_required(self):
        e11 = np.zeros((2, 2))
        e11[0, 0] = 1.0
        with pytest.raises(NotSubalgebra):
            jones.expectation_projection(jones.MatrixSpan(mats=(e11,)), 2)

    def test_rotated_diagonal_is_conjugated_pinching(self):
        theta = 0.3
        ep = jones.expectation_projection(jones.rotated_diagonal_spec(2, theta), 2)
        u = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        x = np.array([[1.0, 1.0], [0.5, -2.0]])
        expected = u @ np.diag(np.diag(adj(u) @ x @ u)) @ adj(u)
        assert np.allclose(ep.expect(x), expected)


def record(monkeypatch, owner, name):
    """Wrap owner.name; each call appends (args, result) to the list returned."""
    calls = []
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append((args, real(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def dense_axioms(big, n, basis) -> dict:
    """The axiom residuals of the dense n^2 x n^2 matrix big.m, one matrix at
    a time, over the members that the columns of ``basis`` give."""
    P = big.m
    members = [basis[:, j].reshape(n, n) for j in range(basis.shape[1])]
    rng = np.random.default_rng(jones.AXIOM_SEED)
    xs = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
          for _ in range(jones.AXIOM_SAMPLES)]

    def E(x):
        return (P @ x.reshape(-1)).reshape(n, n)

    return {
        "bimodule": max((pg.operator_norm(E(a @ x @ b) - a @ E(x) @ b)
                         for a in members for b in members for x in xs), default=0.0),
        "star": max(pg.operator_norm(E(adj(x)) - adj(E(x))) for x in xs),
        "idempotent": pg.operator_norm(P @ P - P),
        "unital": pg.operator_norm(E(np.eye(n)) - np.eye(n)),
        "trace": max(abs(np.trace(E(x)) - np.trace(x)) / n for x in xs),
    }


class TestProductBlocks:
    """The member products in bounded blocks equal the per-pair loop."""

    @staticmethod
    def stacks(r, n=3, seed=45):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=(r, n, n)) + 1j * rng.normal(size=(r, n, n))
                for _ in range(2)]

    @pytest.mark.parametrize("factors", [1, 2, 3])
    @pytest.mark.parametrize("r", [0, 1, 7])
    def test_blocks_are_the_per_pair_products(self, r, factors, monkeypatch):
        n = 3
        left, right = self.stacks(r, n)
        monkeypatch.setattr(jones, "_PRODUCT_BLOCK", factors * r * n * n)
        blocks = list(jones._product_blocks(left, right))
        ref = [a @ b for a in left for b in right]
        got = [m for block in blocks for m in block]
        assert len(got) == len(ref) and all((g == w).all() for g, w in zip(got, ref))
        # every block but the last holds `factors` left factors, the last the rest
        sizes = [len(block) // r for block in blocks]
        assert sizes == ([factors] * (r // factors) + [r % factors] * (r % factors > 0))
        assert all(block.size <= jones._PRODUCT_BLOCK for block in blocks)

    def test_a_block_holds_at_least_one_left_factor(self, monkeypatch):
        left, right = self.stacks(7)
        monkeypatch.setattr(jones, "_PRODUCT_BLOCK", 1)
        assert [len(block) for block in jones._product_blocks(left, right)] == [7] * 7

    @pytest.mark.parametrize("spec,n", [
        (jones.MatrixSpan(mats=(np.eye(3),)), 3),
        (jones.rotated_diagonal_spec(7, 0.3), 7),
        (jones.TensorFactor(k=2, m=2), 4),
    ])
    def test_closure_equals_the_per_member_loop(self, spec, n, monkeypatch):
        basis = jones.expectation_projection(spec, n).basis
        members = jones._members(basis, n)
        r = len(members)
        ref = float(max((jones._span_residuals(basis, a @ members).max()
                         for a in members), default=0.0))
        assert jones._product_residual(basis, members) == ref
        for factors in (1, 2, 3):
            monkeypatch.setattr(jones, "_PRODUCT_BLOCK", factors * r * n * n)
            assert jones._product_residual(basis, members) == ref, factors
        assert jones._product_residual(basis[:, :0], members[:0]) == 0.0

    def test_diagonal_closure_is_one_block(self, monkeypatch):
        # r = n = 10: the 100 products of 100 entries each fit one block
        basis = jones.expectation_projection(jones.diagonal_spec(10), 10).basis
        spans = record(monkeypatch, jones, "_span_residuals")
        jones._product_residual(basis, jones._members(basis, 10))
        assert [np.shape(args[1]) for args, _ in spans] == [(100, 10, 10)]

    def test_axiom_samples_are_drawn_once_per_n(self, monkeypatch):
        big = jones.expectation_path(
            jones.diagonal_spec(4), jones.rotated_diagonal_spec(4, 0.4), 4).projection_at(0.5)
        jones._axiom_samples.cache_clear()
        rngs = record(monkeypatch, np.random, "default_rng")
        first = jones.expectation_axioms(big, 4)
        assert jones.expectation_axioms(big, 4) == first
        assert [args for args, _ in rngs] == [(jones.AXIOM_SEED,)]
        xs, x_norm = jones._axiom_samples(4)
        assert not xs.flags.writeable
        rng = np.random.default_rng(jones.AXIOM_SEED)
        for x in xs:
            assert (x == rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))).all()
        assert x_norm == max(np.linalg.norm(x) for x in xs)

    def test_axioms_reject_a_projection_of_another_size(self, monkeypatch):
        ep = jones.expectation_projection(jones.diagonal_spec(3), 3)
        products = record(monkeypatch, jones, "_product_residual")
        with pytest.raises(DimensionMismatch, match=r"dimension 9, not n\^2 = 4 for n = 2"):
            jones.expectation_axioms(ep.big, 2)
        assert products == []


def test_rotated_spec_needs_two_coordinates():
    for n in (0, 1):
        with pytest.raises(ValueError, match="n >= 2"):
            jones.rotated_diagonal_spec(n, 0.3)


def test_specs_reject_their_degenerate_parameters():
    # each is rejected before numpy sees it: no np.eye(-2), no cos(inf)
    for k, m in ((-2, -2), (0, 4), (2, 0)):
        with pytest.raises(ValueError, match=f"k, m >= 1, got k = {k}, m = {m}$"):
            jones.TensorFactor(k, m)
    for theta in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="rotation angle must be finite"):
            jones.rotated_diagonal_spec(2, theta)


class TestBuildTimeAxiomCheck:
    def test_build_runs_one_svd(self, monkeypatch):
        # the range SVD of _orthonormal_range (n^2 x 6 spanning columns);
        # the axiom check takes Frobenius bounds and runs none
        svds = record(monkeypatch, np.linalg, "svd")
        jones.expectation_projection(jones.rotated_diagonal_spec(6, 0.3), 6)
        assert [np.shape(args[0]) for args, _ in svds] == [(36, 6)]

    def test_exact_check_decides_above_the_bound_tolerance(self, monkeypatch):
        axioms = record(monkeypatch, jones, "expectation_axioms")
        spec = jones.rotated_diagonal_spec(6, 0.3)
        jones.expectation_projection(spec, 6)
        assert axioms == []  # the build's certificate settles every field
        # the sample norm X now reads 1e9 times its value: it lifts the
        # certificate's star, trace and bimodule bounds over atol_structure,
        # so the one expectation_axioms pass runs, and its bimodule bound,
        # built from X, exceeds it too. The span residuals, Frobenius norms of
        # rows that the subalgebra check reads, are left as measured
        real = jones._axiom_samples

        def lifted(n):
            xs, x_norm = real(n)
            return xs, 1e9 * x_norm

        monkeypatch.setattr(jones, "_axiom_samples", lifted)
        checks = record(monkeypatch, numkit, "bounded_norm")
        norms = record(monkeypatch, jones, "operator_norm")
        real_blocks = jones._product_blocks
        blocks = record(monkeypatch, jones, "_product_blocks")
        axioms.clear()
        ep = jones.expectation_projection(spec, 6)
        assert len(axioms) == 1 and ep.big.rank == 6
        # the Gram check of the range basis is the build's one bounded_norm;
        # the pass measures every field exactly: the idempotency, unit and
        # star stacks, then one stack per block of the bimodule products,
        # whose two streams have AXIOM_SAMPLES left factors per member
        assert [np.shape(args[0]) for args, _ in checks] == [(6, 6)]
        found = axioms[0][1]
        values = [value for _, value in norms]
        streams = [args for args, _ in blocks if len(args[0]) == jones.AXIOM_SAMPLES * 6]
        assert len(streams) == 2
        assert len(values) == 3 + len(list(real_blocks(*streams[0])))
        assert [found.idempotent, found.unital, found.star] == values[:3]
        assert found.bimodule == max(values[3:])
        monkeypatch.undo()
        exact = jones.expectation_axioms(ep.big, 6)
        for field in ("idempotent", "unital", "star", "trace", "closure"):
            assert getattr(found, field) == getattr(exact, field), field
        assert found.max() < 1e-13

    def test_axiom_failure_carries_the_exact_value(self, monkeypatch):
        # span{1, e12, e21} is unital and *-closed but not product-closed
        # (e12 e21 = e11); with the closure check disabled the build reaches
        # the axiom check, which fails on the bimodule property. The faked
        # closure 0 would let the bimodule bound settle, so the bound is
        # made nan, which sends the field to the measured sandwich
        e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
        spec = jones.MatrixSpan(mats=(np.eye(2), e12, e12.T))
        with pytest.raises(NotSubalgebra):
            jones.expectation_projection(spec, 2)
        monkeypatch.setattr(jones, "_product_residual", lambda basis, members: 0.0)
        monkeypatch.setattr(jones, "_bimodule_bound", lambda *args: math.nan)
        axioms = record(monkeypatch, jones, "expectation_axioms")
        with pytest.raises(InternalConsistencyError) as info:
            jones.expectation_projection(spec, 2)
        [((big, n), found)] = axioms
        assert n == 2
        exact = jones.expectation_axioms(big, 2)  # every field measured
        ref = dense_axioms(big, 2, big.basis)["bimodule"]
        assert found.bimodule == exact.bimodule > 0.1
        assert abs(exact.bimodule - ref) <= 1e-14 * ref
        assert found.max() == exact.max()
        assert str(info.value) == (
            f"expectation axioms fail on a validated subalgebra ({exact.max():.3e})")


def quarter_turn_points():
    """(t, E_t) at t = 0.25, 0.5, 0.75 on the geodesic from the diagonal of
    M_2 to its quarter-turn rotation, where expectation_path raises TooFar:
    the gap is 1 and the wedge parts are equivalent, so a geodesic exists
    but is not unique."""
    e0, e1 = (jones.expectation_projection(spec, 2).big for spec in (
        jones.diagonal_spec(2), jones.rotated_diagonal_spec(2, np.pi / 4)))
    z = geo.position_exponent(projlat.position(e0, e1))
    return [(t, geo.geodesic_point(z, t)) for t in (0.25, 0.5, 0.75)]


class TestExpectationPath:
    def test_identical_specs_constant_path(self):
        spec = jones.diagonal_spec(2)
        path = jones.expectation_path(spec, spec, 2)
        assert pg.operator_norm(path.z.z) == 0.0
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        for t in (0.0, 0.3, 1.0):
            assert np.allclose(path.expect(t, x), path.end0.expect(x))

    def test_endpoints_match_endpoint_expectations(self):
        path = jones.expectation_path(
            jones.diagonal_spec(2), jones.rotated_diagonal_spec(2, np.pi / 8), 2)
        rng = np.random.default_rng(41)
        for _ in range(5):
            x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            assert pg.operator_norm(path.expect(0.0, x) - path.end0.expect(x)) < 1e-9
            assert pg.operator_norm(path.expect(1.0, x) - path.end1.expect(x)) < 1e-9

    def test_axioms_along_the_path(self):
        path = jones.expectation_path(
            jones.diagonal_spec(2), jones.rotated_diagonal_spec(2, np.pi / 8), 2)
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            ax = jones.expectation_axioms(path.projection_at(t), 2)
            assert ax.max() < 1e-8

    @pytest.mark.parametrize("n", [3, 6])
    def test_batched_axioms_equal_the_per_matrix_loop(self, n, monkeypatch):
        path = jones.expectation_path(
            jones.diagonal_spec(n), jones.rotated_diagonal_spec(n, 0.4), n)
        big = path.projection_at(0.5)
        refs = dense_axioms(big, n, projlat.range_basis(big))
        ax = jones.expectation_axioms(big, n)
        for name, ref in refs.items():
            if name == "bimodule":  # a certified bound, never below the loop
                assert ref <= ax.bimodule <= big.tol.atol_structure
            else:
                assert abs(getattr(ax, name) - ref) <= 1e-14 * max(1.0, ref), name
        # past the bound, the sandwich measures what the loop measures
        monkeypatch.setattr(jones, "_bimodule_bound", lambda *args: math.nan)
        exact = jones.expectation_axioms(big, n).bimodule
        assert abs(exact - refs["bimodule"]) <= 1e-14 * max(1.0, refs["bimodule"])

    @pytest.mark.parametrize("n", [3, 6])
    def test_factored_operators_match_the_dense_matrices(self, n):
        path = jones.expectation_path(
            jones.diagonal_spec(n), jones.rotated_diagonal_spec(n, 0.4), n)
        rng = np.random.default_rng(42)
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

        def close(got, ref):
            return pg.operator_norm(got - ref) <= 1e-14 * max(1.0, pg.operator_norm(ref))

        for t in (0.0, 0.25, 0.5, 1.0):
            gamma = (unitary(path.z, t) @ x.reshape(-1)).reshape(n, n)
            e_t = (path.projection_at(t).m @ x.reshape(-1)).reshape(n, n)
            assert close(path.transport(t, x), gamma)
            assert close(path.expect(t, x), e_t)
        for end in (path.end0, path.end1):
            assert close(end.expect(x), (end.big.m @ x.reshape(-1)).reshape(n, n))

    def test_path_work_forms_no_hilbert_schmidt_matrix(self, monkeypatch):
        # the factored E = B B* and Gamma_t = 1 + V (e^{-itw} - 1) V* run no
        # SVD of an n^2 x n^2 matrix, form no unitary and take no new basis;
        # the gap comes from the position, with no operator_norm
        n = 4
        norms = record(monkeypatch, jones, "operator_norm")
        path = jones.expectation_path(
            jones.diagonal_spec(n), jones.rotated_diagonal_spec(n, 0.4), n)
        assert norms == []
        big = path.projection_at(0.5)
        svds = record(monkeypatch, np.linalg, "svd")
        applies = record(monkeypatch, jones.geo.GeodesicExponent, "apply")
        bases = record(monkeypatch, projlat, "range_basis")
        x = np.random.default_rng(43).normal(size=(n, n))
        jones.expectation_axioms(big, n)
        jones.propagator_checks(path, (0.25, 0.75), [x])
        path.transport(0.5, x)
        path.expect(0.5, x)
        assert svds and all(np.shape(args[0])[-2:] != (n * n, n * n)
                            for args, _ in svds)
        assert applies and bases == []
        # Gamma_t is never applied to the identity, which would form the unitary
        assert not any(np.array_equal(args[2], np.eye(n * n)) for args, _ in applies)

    def test_gap_is_the_distance_of_the_ends(self):
        path = jones.expectation_path(
            jones.diagonal_spec(3), jones.rotated_diagonal_spec(3, 0.4), 3)
        ref = pg.operator_norm(path.end0.big.m - path.end1.big.m)
        assert abs(path.gap - ref) <= 1e-14 * max(1.0, ref)
        assert 0.0 < path.gap < 1.0

    def test_too_far_at_quarter_turn(self):
        gap = pg.operator_norm(
            jones.expectation_projection(jones.diagonal_spec(2), 2).big.m
            - jones.expectation_projection(
                jones.rotated_diagonal_spec(2, np.pi / 4), 2).big.m)
        assert gap == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(TooFar):
            jones.expectation_path(
                jones.diagonal_spec(2),
                jones.rotated_diagonal_spec(2, np.pi / 4), 2)

    def test_boundary_experiment_runs_unguarded(self):
        # at the boundary gap the geodesic still exists (wedge parts are
        # equivalent) but nothing guarantees its points stay conditional
        # expectations; this just records the measured residuals
        for _, point in quarter_turn_points():
            ax = jones.expectation_axioms(point, 2)
            assert np.isfinite(ax.max())


@pytest.fixture
def builds(monkeypatch):
    """The specs of every expectation_projection call, each counted as it
    starts (the path-end cache starts empty, see conftest)."""
    calls = []
    real = jones.expectation_projection

    def counting(spec, n, tol=pg.DEFAULT_TOL):
        calls.append(spec)
        return real(spec, n, tol)

    monkeypatch.setattr(jones, "expectation_projection", counting)
    return calls


def rotated_span(n, theta):
    """The spanning set of the rotated diagonal as a MatrixSpan, an end
    that is built on every call."""
    return jones.MatrixSpan(mats=tuple(
        jones.spanning_matrices(jones.rotated_diagonal_spec(n, theta), n)))


class TestSharedEnds:
    """expectation_path takes an end that compares by value from the path-end
    cache, conjugates the cached base of a Conjugated end, and builds every
    MatrixSpan end anew."""

    def test_a_fixed_reference_is_built_once(self, builds):
        n = 5
        a, b = (jones.expectation_path(jones.diagonal_spec(n), rotated_span(n, theta), n)
                for theta in (0.3, 0.4))
        assert len(builds) == 3 and a.end0 is b.end0 and a.end1 is not b.end1
        info = jones._shared_end.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        # a conjugated end reads the same entry as its base and builds nothing
        builds.clear()
        c = jones.expectation_path(jones.diagonal_spec(n), jones.rotated_diagonal_spec(n, 0.3), n)
        assert builds == [] and c.end0 is a.end0
        info = jones._shared_end.cache_info()
        assert (info.hits, info.misses, info.currsize) == (3, 1, 1)

    def test_equal_specs_share_one_entry(self, builds):
        rotated = rotated_span(4, 0.3)
        a = jones.expectation_path(jones.diagonal_spec(4), rotated, 4)
        b = jones.expectation_path(jones.BlockPartition(((0,), (1,), (2,), (3,))), rotated, 4)
        assert a.end0 is b.end0 and builds == [jones.diagonal_spec(4), rotated, rotated]
        builds.clear()
        path = jones.expectation_path(jones.TensorFactor(2, 2), jones.TensorFactor(2, 2), 4)
        assert path.end0 is path.end1 and builds == [jones.TensorFactor(2, 2)]
        assert jones._shared_end.cache_info().currsize == 2
        # an equal base of a conjugated end shares the entry too
        builds.clear()
        conj = jones.Conjugated(jones.BlockPartition(((0,), (1,), (2,), (3,))),
                                jones.rotated_diagonal_spec(4, 0.3).u)
        jones.expectation_path(jones.diagonal_spec(4), conj, 4)
        assert builds == [] and jones._shared_end.cache_info().currsize == 2

    def test_equal_specs_name_one_algebra(self, builds):
        # TensorFactor(2.0, 2) would equal TensorFactor(2, 2) and share its
        # entry, though a fresh build of it fails, and a coordinate 0.5 was
        # read as 0; both are refused at birth
        with pytest.raises(TypeError):
            jones.TensorFactor(2.0, 2)
        with pytest.raises(TypeError):
            jones.BlockPartition(((0.5,), (1,)))
        spec = jones.TensorFactor(np.int64(2), 2)
        assert type(spec.k) is int and spec == jones.TensorFactor(2, 2)
        block = jones.BlockPartition(((np.int64(1),), (0,)))
        assert block == jones.BlockPartition(((1,), (0,)))
        assert type(block.groups[0][0]) is int

    def test_a_matrix_span_end_is_built_on_every_call(self, builds):
        rotated = rotated_span(4, 0.3)
        a, b = (jones.expectation_path(jones.diagonal_spec(4), rotated, 4) for _ in range(2))
        assert a.end1 is not b.end1 and builds.count(rotated) == 2
        assert jones._shared_end.cache_info().currsize == 1
        # a conjugated end is conjugated anew on every call, from the cached base
        conj = jones.rotated_diagonal_spec(4, 0.3)
        c, d = (jones.expectation_path(jones.diagonal_spec(4), conj, 4) for _ in range(2))
        assert c.end1 is not d.end1 and len(builds) == 3
        info = jones._shared_end.cache_info()
        assert (info.hits, info.misses, info.currsize) == (5, 1, 1)

    def test_another_tolerance_builds_anew(self, builds):
        tight = pg.ToleranceProfile(atol_structure=1e-9)
        rotated = rotated_span(4, 0.3)
        a = jones.expectation_path(jones.diagonal_spec(4), rotated, 4)
        b = jones.expectation_path(jones.diagonal_spec(4), rotated, 4, tight)
        assert len(builds) == 4 and a.end0 is not b.end0 and b.end0.big.tol == tight
        # a conjugated end takes the base built at its own tolerance
        c = jones.expectation_path(
            jones.diagonal_spec(4), jones.rotated_diagonal_spec(4, 0.3), 4, tight)
        assert len(builds) == 4 and c.end0 is b.end0 and c.end1.big.tol == tight

    def test_a_failed_build_raises_every_time_and_is_not_kept(self, builds):
        for _ in range(2):
            with pytest.raises(ValueError, match=r"k\*m = 2 does not match n = 4"):
                jones.expectation_path(jones.TensorFactor(1, 2), jones.diagonal_spec(4), 4)
        assert builds == [jones.TensorFactor(1, 2)] * 2
        assert jones._shared_end.cache_info().currsize == 0

    def test_the_shared_basis_is_read_only(self, builds):
        path = jones.expectation_path(
            jones.diagonal_spec(4), jones.rotated_diagonal_spec(4, 0.3), 4)
        assert path.end0.basis is path.end0.big.basis
        with pytest.raises(ValueError, match="read-only"):
            path.end0.basis[0, 0] = 2.0

    def test_a_shared_end_equals_a_fresh_build_bit_for_bit(self, builds):
        n = 6
        spec0, spec1 = jones.diagonal_spec(n), rotated_span(n, 0.4)
        jones.expectation_path(spec0, spec1, n)
        shared = jones.expectation_path(spec0, spec1, n)
        jones._shared_end.cache_clear()
        fresh = jones.expectation_path(spec0, spec1, n)
        assert len(builds) == 5 and shared.end0 is not fresh.end0
        assert np.array_equal(shared.end0.basis, fresh.end0.basis)
        assert shared.end0.big.basis_residual == fresh.end0.big.basis_residual
        rng = np.random.default_rng(44)
        x0, x1 = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(2))
        (_, a), (_, b) = (jones.transport_ode_solve(path, x0, 100) for path in (shared, fresh))
        assert np.array_equal(a, b)
        assert (jones.propagator_checks(shared, (0.5,), [x1])
                == jones.propagator_checks(fresh, (0.5,), [x1]))


@st.composite
def subalgebra_specs(draw, kinds=("blocks", "tensor", "rotated")):
    """(spec, n): a block partition with random group sizes, a tensor factor
    M_k (x) I_m, or one of those rotated by a Haar unitary."""
    kind = draw(st.sampled_from(kinds))
    base = draw(st.sampled_from(["blocks", "tensor"])) if kind == "rotated" else kind
    if base == "tensor":
        k, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
        spec, n = jones.TensorFactor(k, m), k * m
    else:
        sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        n = sum(sizes)
        order = draw(st.permutations(range(n)))
        cuts = np.cumsum([0] + sizes)
        spec = jones.BlockPartition(groups=tuple(
            tuple(order[a:b]) for a, b in zip(cuts[:-1], cuts[1:])))
    if kind == "rotated":
        u = numkit.haar_unitary(n, np.random.default_rng(draw(st.integers(0, 2**32))))
        spec = jones.MatrixSpan(mats=tuple(
            u @ m @ adj(u) for m in jones.spanning_matrices(spec, n)))
    return spec, n


@st.composite
def unital_subalgebras(draw):
    """(big, n): the expectation projection of a unital *-subalgebra of M_n,
    drawn by :func:`subalgebra_specs`, or a point of an expectation path."""
    kind = draw(st.sampled_from(["blocks", "tensor", "rotated", "path"]))
    if kind == "path":
        n = draw(st.integers(2, 5))
        theta = draw(st.floats(0.05, 0.7))
        path = jones.expectation_path(
            jones.diagonal_spec(n), jones.rotated_diagonal_spec(n, theta), n)
        return path.projection_at(draw(st.floats(0.0, 1.0))), n
    spec, n = draw(subalgebra_specs((kind,)))
    return jones.expectation_projection(spec, n).big, n


class TestBimoduleBound:
    """The bimodule field is a certified bound on a closed span, and the
    measured sandwich wherever the bound cannot settle."""

    @settings(max_examples=40, deadline=None)
    @given(unital_subalgebras())
    def test_bound_dominates_the_dense_loop(self, drawn):
        big, n = drawn
        ref = dense_axioms(big, n, big.basis)["bimodule"]
        assert ref <= jones.expectation_axioms(big, n).bimodule <= big.tol.atol_structure

    @staticmethod
    def open_spans():
        e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
        cols = np.stack([m.reshape(-1) for m in (np.eye(2), e12, e12.T)], axis=1)
        yield "span{1, e12, e21}", projlat.from_span(cols), 2
        rng = np.random.default_rng(44)
        mats = jones.spanning_matrices(jones.rotated_diagonal_spec(3, 0.3), 3)
        noisy = [m + 1e-3 * rng.normal(size=(3, 3)) for m in mats]
        yield "perturbed", projlat.from_span(np.stack([m.reshape(-1) for m in noisy], axis=1)), 3
        for t, point in quarter_turn_points():
            yield f"quarter turn t={t}", point, 2

    def test_open_spans_measure_the_sandwich(self, monkeypatch, caplog):
        blocks = record(monkeypatch, jones, "_product_blocks")
        for name, big, n in self.open_spans():
            blocks.clear()
            with caplog.at_level(logging.DEBUG, logger="projgeo"):
                caplog.clear()
                got = jones.expectation_axioms(big, n).bimodule
            ref = dense_axioms(big, n, big.basis)["bimodule"]
            # the closure, then the two streams (a x) b and (a E(x)) b
            r = big.basis.shape[1]
            assert [tuple(map(len, args)) for args, _ in blocks] == [
                (r, r), (jones.AXIOM_SAMPLES * r, r), (jones.AXIOM_SAMPLES * r, r)], name
            assert abs(got - ref) <= 1e-14 * max(1.0, ref), name
            assert ref > big.tol.atol_structure, name
            assert [r.levelno for r in caplog.records] == [logging.DEBUG], name
            assert "bimodule bound" in caplog.text, name

    def test_a_settled_bound_logs_nothing(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="projgeo"):
            jones.expectation_path(
                jones.diagonal_spec(3), jones.rotated_diagonal_spec(3, 0.4), 3)
        assert caplog.records == []


FIELDS = ("idempotent", "unital", "star", "trace", "bimodule", "closure")
HAAR_4 = numkit.haar_unitary(4, np.random.default_rng(46))


def build_certificate(spec, n):
    """The build of spec, and the bounds its certificate took, by field."""
    seen = []
    real = jones._axiom_bounds

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    with unittest.mock.patch.object(jones, "_axiom_bounds", spy):
        ep = jones.expectation_projection(spec, n)
    [bounds] = seen
    return ep, dict(zip(FIELDS, bounds))


@st.composite
def certified_specs(draw):
    """(spec, n): a spec of :func:`subalgebra_specs`, a rotated diagonal, or
    a block partition or tensor factor conjugated by e^h, ||h|| <= 2."""
    source = draw(st.sampled_from(["drawn", "rotated diagonal", "conjugated"]))
    if source == "drawn":
        return draw(subalgebra_specs())
    n = draw(st.integers(2, 6))
    if source == "rotated diagonal":
        return jones.rotated_diagonal_spec(n, draw(st.floats(0.0, 1.6))), n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["blocks", "tensor"]))
    return draw(conjugated_subalgebras(kind, n, rng, 2.0))[1], n


def reference_rounding(basis, members):
    """The two rounding terms of the bimodule bound, g(nu) and
    2 beta (g(N_col) + g(N_row)), with each count by its own count_nonzero."""
    g = numkit.complex_dot_error
    nu = max(np.count_nonzero(members, axis=1).max(initial=0),
             np.count_nonzero(members, axis=2).max(initial=0))
    n_col = np.count_nonzero(basis, axis=0).max(initial=0)
    n_row = np.count_nonzero(basis, axis=1).max(initial=0)
    mags = np.abs(basis)
    beta = math.sqrt(mags.sum(axis=0).max(initial=0.0) * mags.sum(axis=1).max(initial=0.0))
    return g(nu), 2.0 * beta * (g(n_col) + g(n_row))


class TestAxiomCertificate:
    """The build settles its axiom check from _axiom_bounds, which bound
    every field that expectation_axioms measures, and measures only where
    they cannot."""

    @settings(max_examples=60, deadline=None)
    @given(certified_specs())
    def test_each_bound_dominates_the_measured_and_the_dense_field(self, drawn):
        spec, n = drawn
        ep, bounds = build_certificate(spec, n)
        exact = jones.expectation_axioms(ep.big, n)
        dense = dense_axioms(ep.big, n, ep.basis)
        for field, bound in bounds.items():
            assert getattr(exact, field) <= bound <= ep.big.tol.atol_structure, field
            assert dense.get(field, 0.0) <= bound, field
        assert bounds["closure"] == exact.closure

    @pytest.mark.parametrize("spec,n", [
        (jones.diagonal_spec(8), 8),
        (jones.rotated_diagonal_spec(8, 0.4), 8),
        (jones.TensorFactor(k=2, m=3), 6),
        (jones.MatrixSpan(mats=tuple(
            HAAR_4 @ m @ adj(HAAR_4) for m in jones.spanning_matrices(jones.TensorFactor(2, 2), 4))), 4),
    ])
    def test_a_normal_build_measures_and_logs_nothing(self, spec, n, monkeypatch, caplog):
        axioms = record(monkeypatch, jones, "expectation_axioms")
        with caplog.at_level(logging.DEBUG, logger="projgeo"):
            jones.expectation_projection(spec, n)
        assert axioms == [] and caplog.records == []

    @pytest.mark.parametrize("value", [math.nan, 2 * pg.DEFAULT_TOL.atol_structure])
    @pytest.mark.parametrize("field", FIELDS)
    def test_a_bound_that_cannot_settle_measures_once(self, field, value, monkeypatch, caplog):
        # each field in its place, so a nan that a max() would drop is caught
        real = jones._axiom_bounds

        def unsettled(*args):
            return tuple(value if f == field else b for f, b in zip(FIELDS, real(*args)))

        monkeypatch.setattr(jones, "_axiom_bounds", unsettled)
        axioms = record(monkeypatch, jones, "expectation_axioms")
        atol = pg.DEFAULT_TOL.atol_structure
        with caplog.at_level(logging.DEBUG, logger="projgeo"):
            ep = jones.expectation_projection(jones.rotated_diagonal_spec(6, 0.3), 6)
        [(args, found)] = axioms
        assert args == (ep.big, 6)
        assert found.closure == ep.closure == jones._product_residual(
            ep.basis, jones._members(ep.basis, 6))
        assert found.max() <= atol
        assert [r.levelno for r in caplog.records] == [logging.DEBUG]
        assert caplog.records[0].getMessage().startswith("expectation axioms bound: ")

    @settings(max_examples=40, deadline=None)
    @given(unital_subalgebras())
    def test_one_pass_counts_keep_the_bimodule_bound_bit_for_bit(self, drawn):
        big, n = drawn
        basis = big.basis
        members = jones._members(basis, n)
        g_nu, apply = jones._rounding_terms(basis, n)
        ref_nu, ref_twice = reference_rounding(basis, members)
        assert g_nu == ref_nu and 2.0 * apply == ref_twice
        # the public field, settled, is the bound with the former counts
        gram = adj(basis) @ basis
        eps = numkit.frobenius(gram - np.eye(basis.shape[1]))
        mu = math.sqrt(np.abs(np.diagonal(gram)).max(initial=0.0))
        sigma = jones._span_residuals(basis, jones._adjoints(members)).max(initial=0.0)
        x_norm = numkit.frobenius(jones._axiom_samples(n)[0]).max(initial=0.0)
        phi = np.abs(adj(basis) @ jones._adjoints(members).reshape(len(members), -1).T).sum(
            axis=0).max(initial=0.0)
        closure = jones._product_residual(basis, members)
        exact = 2.0 * (1.0 + eps) ** 3 * mu * x_norm * (
            sigma + math.sqrt(len(members)) * (1.0 + phi) * closure)
        ref = float(exact + (1.0 + eps) * mu * mu * x_norm * (4.0 * ref_nu + ref_twice))
        assert jones.expectation_axioms(big, n).bimodule == ref


def test_a_rank_zero_projection_reports_its_axioms():
    # no member: the bimodule bound's stack of member adjoints is empty
    report = jones.expectation_axioms(pg.make_projection(np.zeros((9, 9))), 3)
    assert report.unital == 1.0 and all(map(math.isfinite, vars(report).values()))


@st.composite
def conjugated_specs(draw):
    """(Conjugated(base, u), n): a block partition or tensor factor of
    :func:`subalgebra_specs` and a Haar unitary u."""
    base, n = draw(subalgebra_specs(("blocks", "tensor")))
    u = numkit.haar_unitary(n, np.random.default_rng(draw(st.integers(0, 2**32))))
    return jones.Conjugated(base, u), n


def dense_closure(big, n, basis) -> float:
    """The largest ||(1 - P) vec(a b)|| over the members a, b that the
    columns of ``basis`` give, with P = big.m, the dense n^2 x n^2 matrix."""
    members = basis.T.reshape(-1, n, n)
    prods = (members[:, None] @ members[None]).reshape(-1, n * n)
    return float(np.linalg.norm(prods - prods @ big.m.T, axis=1).max(initial=0.0))


def assert_conjugated_end(end, spec, n, ref_basis=None):
    """end is spec's end: B B* lies within 1e-12 of the projection onto the
    MatrixSpan range of spec's spanning set (``ref_basis``, or that build's
    basis), B = end.basis. The measured closure of B lies within
    end.closure, which lies within atol_structure; where end.closure is the
    certified bound, not the measured value, the dense closure lies within
    it too."""
    if ref_basis is None:
        ref_basis = jones.expectation_projection(
            jones.MatrixSpan(mats=tuple(jones.spanning_matrices(spec, n))), n).basis
    assert end.spec is spec
    assert numkit.frobenius(end.basis @ adj(end.basis) - ref_basis @ adj(ref_basis)) <= 1e-12
    measured = jones._product_residual(end.basis, jones._members(end.basis, n))
    assert measured <= end.closure <= end.big.tol.atol_structure
    if end.closure != measured:
        assert dense_closure(end.big, n, end.basis) <= end.closure


class TestConjugatedEnd:
    """expectation_path builds a Conjugated end as Ad(u) of its base's shared
    end, with a certified closure bound in place of the product stack, and
    accepts it by the rule of every build; only a conjugated basis that is
    not orthonormal falls back to the measured build of the spanning set."""

    @settings(max_examples=40, deadline=None)
    @given(conjugated_specs())
    def test_the_end_spans_the_algebra_and_its_closure_bound_holds(self, drawn):
        spec, n = drawn
        jones._shared_end.cache_clear()
        with unittest.mock.patch.object(jones, "expectation_projection",
                                        wraps=jones.expectation_projection) as built:
            end = jones.expectation_path(spec, spec, n).end0
        assert [call.args[0] for call in built.call_args_list] == [spec.base]
        assert_conjugated_end(end, spec, n)

    def test_a_large_end_measures_its_axioms_on_its_own_basis(self, caplog):
        # above the CLI cap the axiom bounds of the conjugated end no longer
        # settle; expectation_axioms then measures them on the conjugated
        # basis, and only the diagonal base is built
        n = 34
        spec = jones.rotated_diagonal_spec(n, 0.3)
        with unittest.mock.patch.object(jones, "expectation_projection",
                                        wraps=jones.expectation_projection) as built:
            with caplog.at_level(logging.DEBUG, logger="projgeo"):
                end = jones.expectation_path(jones.diagonal_spec(n), spec, n).end1
        assert [call.args[0] for call in built.call_args_list] == [jones.diagonal_spec(n)]
        assert [r.getMessage().split(":")[0] for r in caplog.records] == [
            "expectation axioms bound"]
        assert_conjugated_end(end, spec, n)

    def test_no_product_stack_is_formed(self, monkeypatch):
        n = 6
        jones._shared_end(jones.diagonal_spec(n), n, pg.DEFAULT_TOL)
        products = record(monkeypatch, jones, "_product_residual")
        path = jones.expectation_path(
            jones.diagonal_spec(n), jones.rotated_diagonal_spec(n, 0.3), n)
        assert products == [] and 0.0 < path.end1.closure <= 1e-12

    def test_a_direct_build_stays_measured(self, monkeypatch):
        products = record(monkeypatch, jones, "_product_residual")
        ep = jones.expectation_projection(jones.rotated_diagonal_spec(6, 0.3), 6)
        ref = jones.expectation_projection(rotated_span(6, 0.3), 6)
        assert len(products) == 2 and np.array_equal(ep.basis, ref.basis)
        assert ep.closure == ref.closure == products[0][1]

    @staticmethod
    def path_end(spec, n, caplog):
        """The end of a path from spec's base to spec, built after the base,
        with the DEBUG records of that end alone left in caplog."""
        jones._shared_end(spec.base, n, pg.DEFAULT_TOL)
        with caplog.at_level(logging.DEBUG, logger="projgeo"):
            caplog.clear()
            return jones.expectation_path(spec.base, spec, n).end1

    @pytest.mark.parametrize("kind", ["scaled", "perturbed"])
    def test_a_u_off_unitary_ends_as_the_equal_matrix_span(self, kind, caplog):
        n = 4
        rotation = jones.rotated_diagonal_spec(n, 0.3).u
        # a scaled rotation still spans an algebra; a perturbed one does not
        u = (1.001 * rotation if kind == "scaled"
             else rotation + 1e-3 * np.random.default_rng(47).normal(size=(n, n)))
        spec = jones.Conjugated(jones.diagonal_spec(n), u)
        span = jones.MatrixSpan(mats=tuple(jones.spanning_matrices(spec, n)))
        if kind == "scaled":
            end, ref = self.path_end(spec, n, caplog), jones.expectation_projection(span, n)
            assert np.array_equal(end.basis, ref.basis) and end.closure == ref.closure
        else:
            with pytest.raises(NotSubalgebra):
                self.path_end(spec, n, caplog)
            with pytest.raises(NotSubalgebra):
                jones.expectation_projection(span, n)
        assert [r.levelno for r in caplog.records] == [logging.DEBUG]
        assert caplog.records[0].getMessage().startswith("conjugated end closure bound: inf")

    @pytest.mark.parametrize("value", [math.nan, 2 * pg.DEFAULT_TOL.atol_structure])
    def test_a_closure_bound_that_cannot_settle_measures(self, value, monkeypatch, caplog):
        monkeypatch.setattr(jones, "_conjugated_closure", lambda *args: value)
        spec = jones.rotated_diagonal_spec(6, 0.3)
        end = self.path_end(spec, 6, caplog)
        assert end.closure == jones._product_residual(end.basis, jones._members(end.basis, 6))
        assert_conjugated_end(end, spec, 6)
        assert [r.levelno for r in caplog.records] == [logging.DEBUG]
        assert caplog.records[0].getMessage().startswith("conjugated end closure bound: ")

    def test_axiom_bounds_that_cannot_settle_measure(self, monkeypatch, caplog):
        real = jones._axiom_bounds
        monkeypatch.setattr(jones, "_axiom_bounds", lambda *args: (*real(*args)[:5], math.nan))
        spec = jones.rotated_diagonal_spec(6, 0.3)
        jones._shared_end(spec.base, 6, pg.DEFAULT_TOL)  # its measurement is not counted
        axioms = record(monkeypatch, jones, "expectation_axioms")
        end = self.path_end(spec, 6, caplog)
        # the conjugated end's bounds do not settle, and it measures once
        [((big, n), _)] = axioms
        assert big is end.big and n == 6
        assert [r.getMessage().split(":")[0] for r in caplog.records] == [
            "expectation axioms bound"]
        assert_conjugated_end(end, spec, 6)

    @settings(max_examples=60, deadline=None)
    @given(conjugated_specs(), st.floats(-14.0, -8.0), st.integers(0, 2**32 - 1))
    def test_a_u_off_unitary_builds_as_the_matrix_span(self, drawn, exponent, seed):
        # u perturbed off unitary by 10^exponent in Frobenius norm: the end
        # keeps its conjugated basis, or it is the MatrixSpan build of the
        # same matrices, and it raises exactly where that build raises
        spec, n = drawn
        real, imag = np.random.default_rng(seed).normal(size=(2, n, n))
        noise = (real + 1j * imag) / np.linalg.norm(real + 1j * imag)
        spec = jones.Conjugated(spec.base, spec.u + 10.0 ** exponent * noise)
        span = jones.MatrixSpan(mats=tuple(jones.spanning_matrices(spec, n)))

        def built(build):
            try:
                return build(), None
            except (NotSubalgebra, InternalConsistencyError) as exc:
                return None, type(exc)

        ref, ref_error = built(lambda: jones.expectation_projection(span, n))
        end, error = built(lambda: jones.expectation_path(spec, spec, n).end0)
        assert error is ref_error
        if end is not None:
            assert_conjugated_end(end, spec, n, ref.basis)

    def test_a_base_that_is_not_compared_by_value_or_a_u_of_another_size_is_refused(self):
        with pytest.raises(TypeError, match="BlockPartition or a TensorFactor"):
            jones.Conjugated(rotated_span(3, 0.3), np.eye(3))
        with pytest.raises(ValueError, match="finite"):
            jones.Conjugated(jones.diagonal_spec(2), np.array([[np.nan, 0.0], [0.0, 1.0]]))
        spec = jones.Conjugated(jones.diagonal_spec(3), np.eye(4))
        for call in (lambda: jones.check_size(spec, 3),
                     lambda: jones.expectation_path(jones.diagonal_spec(3), spec, 3)):
            with pytest.raises(ValueError, match=r"shape \(4, 4\), not \(3, 3\)"):
                call()

    def test_u_is_a_read_only_copy(self):
        u = np.eye(3, dtype=np.complex128)
        spec = jones.Conjugated(jones.diagonal_spec(3), u)
        u[0, 0] = 2.0
        assert spec.u[0, 0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            spec.u[0, 0] = 2.0


def test_one_function_accepts_an_end():
    # jones's source, parsed: NotSubalgebra is raised in one function, and
    # the axiom certificate settles at one site, so a second copy of the rule
    # that accepts an end cannot grow back unnoticed
    raisers = []

    def visit(node, function=None):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        elif isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and getattr(
                node.exc.func, "id", None) == "NotSubalgebra":
            raisers.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    tree = modules()["jones"]
    visit(tree)
    assert raisers == ["_validated_end"]
    sites = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value == "expectation axioms bound"]
    assert len(sites) == 1, sites


def test_a_span_the_rule_admits_is_built_or_not_a_subalgebra():
    # the unit C 1 of M_2 spanned by v v*, v a Haar u off unitary by
    # 10^U(-14, -8): where the admitted span and closure residuals, about
    # 1e-8, carry the measured bimodule axiom over atol_structure, the
    # rounding alone settles and the span is refused, not a fault
    rng = np.random.default_rng(0)
    outcomes = collections.Counter()
    for _ in range(600):
        u = numkit.haar_unitary(2, rng)
        e = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        v = u + 10.0 ** rng.uniform(-14, -8) / numkit.operator_norm(e) * e
        try:
            jones.expectation_projection(jones.MatrixSpan((v @ adj(v),)), 2)
            outcomes["built"] += 1
        except (NotSubalgebra, InternalConsistencyError) as exc:
            outcomes[type(exc).__name__] += 1
    assert outcomes == {"built": 571, "NotSubalgebra": 29}
