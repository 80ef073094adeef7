import math

import numpy as np
import pytest
import scipy.linalg

import projgeo as pg
from projgeo import factor, geo, sampling
from projgeo.errors import BadTrace, NotMember, RankMismatch

from _helpers import meet_oracle, rotation_pair


def two_by_two_blocks():
    return factor.FiniteAlgebra(blocks=(2, 2), weights=(0.5, 0.5))


class TestAlgebraAndTrace:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            factor.FiniteAlgebra(blocks=(2,), weights=(0.9,))

    def test_member_check(self):
        a = two_by_two_blocks()
        assert factor.member_check(a, np.diag([1.0, 2.0, 3.0, 4.0]))
        x = np.zeros((4, 4))
        x[0, 3] = 0.1
        assert not factor.member_check(a, x)
        assert factor.member_check(factor.FiniteAlgebra.full(4), np.ones((4, 4)))

    def test_trace_values(self):
        tr = factor.NormalizedTrace(factor.FiniteAlgebra.full(2))
        assert tr(np.eye(2)) == pytest.approx(1.0)
        assert tr(np.diag([1.0, 0.0])) == pytest.approx(0.5)
        tr22 = factor.NormalizedTrace(two_by_two_blocks())
        x = np.diag([1.0, 0.0, 0.0, 0.0])
        assert tr22(x) == pytest.approx(0.25)

    def test_trace_requires_membership(self):
        tr22 = factor.NormalizedTrace(two_by_two_blocks())
        x = np.zeros((4, 4))
        x[0, 2] = 1.0
        with pytest.raises(NotMember):
            tr22(x)

    @pytest.mark.parametrize("d", [[2.0, 1.0], [np.nan, 1.0]])
    def test_factored_trace_fails_off_block_mass_and_nan(self, d):
        # on C + C, V diag(d) V* with V the Hadamard rotation has off-block
        # entry (d_0 - d_1) / 2: nonzero, or nan, and neither is a member
        tr = factor.NormalizedTrace(
            factor.FiniteAlgebra(blocks=(1, 1), weights=(0.5, 0.5)))
        v = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        with pytest.raises(NotMember):
            tr.of_factored(v, np.array(d))

    def test_traciality(self):
        rng = np.random.default_rng(30)
        a = two_by_two_blocks()
        tr = factor.NormalizedTrace(a)
        x = np.zeros((4, 4), dtype=complex)
        y = np.zeros((4, 4), dtype=complex)
        for sl in a.slices():
            x[sl, sl] = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            y[sl, sl] = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert tr(x @ y) == pytest.approx(tr(y @ x))


class TestHopfRinowCertify:
    def test_single_block_equal_rank(self):
        rng = np.random.default_rng(31)
        alg = factor.FiniteAlgebra.full(6)
        p = sampling.random_projection(6, 3, rng)
        q = sampling.random_projection(6, 3, rng)
        cert = factor.hopf_rinow_certify(alg, p, q)
        assert cert.exists
        # oracle: wedge ranks via independent null-space meets
        r10 = int(round(np.trace(meet_oracle(p.m, np.eye(6) - q.m)).real))
        r01 = int(round(np.trace(meet_oracle(np.eye(6) - p.m, q.m)).real))
        assert cert.per_block_ranks == ((r10, r01),)

    def test_diagonal_counterexample(self):
        alg = factor.FiniteAlgebra(blocks=(1, 1), weights=(0.5, 0.5))
        p = pg.make_projection(np.diag([1.0, 0.0]))
        q = pg.make_projection(np.diag([0.0, 1.0]))
        tr = factor.NormalizedTrace(alg)
        assert tr(p.m) == pytest.approx(tr(q.m))
        cert = factor.hopf_rinow_certify(alg, p, q)
        assert not cert.exists
        assert cert.per_block_ranks == ((1, 0), (0, 1))

    def test_same_pair_in_full_algebra(self):
        p = pg.make_projection(np.diag([1.0, 0.0]))
        q = pg.make_projection(np.diag([0.0, 1.0]))
        cert = factor.hopf_rinow_certify(factor.FiniteAlgebra.full(2), p, q)
        assert cert.exists

    def test_requires_membership(self):
        alg = two_by_two_blocks()
        p = pg.from_span(np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2))
        with pytest.raises(NotMember):
            factor.hopf_rinow_certify(alg, p, p)

    def test_blockwise_exponent_stays_in_algebra(self):
        alg = two_by_two_blocks()
        pm = np.zeros((4, 4), dtype=complex)
        qm = np.zeros((4, 4), dtype=complex)
        for i, sl in enumerate(alg.slices()):
            bp, bq = rotation_pair(0.3 + 0.5 * i)
            pm[sl, sl] = bp.m
            qm[sl, sl] = bq.m
        p, q = pg.make_projection(pm), pg.make_projection(qm)
        assert factor.hopf_rinow_certify(alg, p, q).exists
        g = factor.blockwise_minimal_exponent(alg, p, q)
        assert factor.member_check(alg, g.z)
        assert pg.verify_geodesic(g).max() < 1e-8


class TestTraceSymmetryChain:
    def test_wedge_traces_carry_the_trace_difference(self):
        rng = np.random.default_rng(33)
        tr = factor.NormalizedTrace(factor.FiniteAlgebra.full(8))
        for _ in range(10):
            p, q, _ = sampling.random_pair(8, rng)
            parts = pg.halmos_decompose(p, q)
            lhs = tr(p.m) - tr(q.m)
            rhs = tr(parts.e10.m) - tr(parts.e01.m)
            assert abs(lhs - rhs) < 1e-10


class TestOrthogonalPair:
    def test_canonical_quarter(self):
        alg = factor.FiniteAlgebra.full(4)
        p, q = factor.orthogonal_pair(alg, 0.25)
        assert np.allclose(p.m, np.diag([1.0, 0, 0, 0]))
        assert np.allclose(q.m, np.diag([0.0, 1, 0, 0]))

    def test_half_trace(self):
        alg = factor.FiniteAlgebra.full(4)
        p, q = factor.orthogonal_pair(alg, 0.5)
        assert p.rank == q.rank == 2
        assert pg.operator_norm(p.m @ q.m) == 0.0

    def test_non_integer_rank(self):
        with pytest.raises(BadTrace):
            factor.orthogonal_pair(factor.FiniteAlgebra.full(4), 3 / 8)

    @pytest.mark.parametrize("r", [math.inf, -math.inf, math.nan])
    def test_a_trace_that_is_not_finite_is_refused(self, r):
        # Fraction(r) would raise OverflowError or ValueError, naming neither
        with pytest.raises(BadTrace, match=f"the trace r = {r} is not finite"):
            factor.orthogonal_pair(factor.FiniteAlgebra.full(4), r)

    def test_seeded_conjugation_keeps_structure(self):
        alg = factor.FiniteAlgebra.full(6)
        p, q = factor.orthogonal_pair(alg, 1 / 3, seed=4)
        assert p.rank == q.rank == 2
        assert pg.operator_norm(p.m @ q.m) < 1e-12
        parts = pg.halmos_decompose(p, q)
        assert parts.ranks() == (0, 2, 2, 2, 0)


class TestMultiGeodesics:
    def test_quarter_trace_lengths(self):
        alg = factor.FiniteAlgebra.full(4)
        tr = factor.NormalizedTrace(alg)
        p, q = factor.orthogonal_pair(alg, 0.25)
        fam = factor.multi_geodesics(p, q, count=3, rho=2.0, t=tr)
        expected = np.pi * 2 ** (1 / 2 - 1) * 0.25 ** (1 / 2)  # = pi 2^(-3/2)
        for g, length in fam:
            assert length == pytest.approx(expected, abs=1e-9)
            assert length == pytest.approx(pg.rho_norm(g.z, 2.0, tr), abs=1e-12)

    def test_half_trace_in_m2(self):
        alg = factor.FiniteAlgebra.full(2)
        tr = factor.NormalizedTrace(alg)
        p, q = factor.orthogonal_pair(alg, 0.5)
        fam = factor.multi_geodesics(p, q, count=2, rho=2.0, t=tr)
        for _, length in fam:
            assert length == pytest.approx(np.pi / 2, abs=1e-9)

    def test_family_is_distinct_with_identical_lengths(self):
        alg = factor.FiniteAlgebra.full(8)
        tr = factor.NormalizedTrace(alg)
        p, q = factor.orthogonal_pair(alg, 0.25)
        fam = factor.multi_geodesics(p, q, count=5, rho=3.0, t=tr)
        lengths = [length for _, length in fam]
        assert max(lengths) - min(lengths) < 1e-10
        for i in range(5):
            for j in range(i + 1, 5):
                assert pg.operator_norm(fam[i][0].z - fam[j][0].z) > 1e-6

    def test_a_pair_orthogonal_within_the_tolerance_keeps_distinct_geodesics(self):
        # ||pq|| = 1e-9 passes the orthogonality guard; the supplied witnesses
        # swap the plane at pi/2 - 1e-9 rather than turn it
        alg = factor.FiniteAlgebra.full(4)
        tr = factor.NormalizedTrace(alg)
        e = np.eye(4, dtype=complex)
        p = pg.from_span(e[:, 0])
        q = pg.from_span(1e-9 * e[:, 0] + np.sqrt(1 - 1e-18) * e[:, 1])
        assert pg.operator_norm(p.m @ q.m) == pytest.approx(1e-9, rel=1e-6)
        fam = factor.multi_geodesics(p, q, count=3, rho=2.0, t=tr)
        assert len(fam) == 3
        for g, length in fam:
            assert pg.verify_geodesic(g).max() <= geo.ENDPOINT_ATOL
            ez = scipy.linalg.expm(g.z)
            assert pg.operator_norm(ez @ p.m @ ez.conj().T - q.m) < 1e-8
            assert length == pytest.approx(fam[0][1], abs=1e-12)
        for i in range(3):
            for j in range(i + 1, 3):
                assert pg.operator_norm(fam[i][0].z - fam[j][0].z) > 1e-6

    def test_rank_mismatch(self):
        alg = factor.FiniteAlgebra.full(4)
        tr = factor.NormalizedTrace(alg)
        p = pg.make_projection(np.diag([1.0, 0, 0, 0]))
        q = pg.make_projection(np.diag([0.0, 1, 1, 0]))
        with pytest.raises(RankMismatch):
            factor.multi_geodesics(p, q, count=2, rho=2.0, t=tr)

    def test_shrinking_trace_shrinks_length(self):
        alg = factor.FiniteAlgebra.full(8)
        tr = factor.NormalizedTrace(alg)
        lengths = []
        for r in (0.25, 0.125):
            p, q = factor.orthogonal_pair(alg, r)
            (_, length), = factor.multi_geodesics(p, q, count=1, rho=2.0, t=tr)
            lengths.append(length)
        assert lengths[1] < lengths[0]


@pytest.mark.parametrize("theta", [1e-7, 1e-4, 1e-3, np.pi / 2 - 1e-7,
                                   np.pi / 2 - 1e-4, np.pi / 2 - 1e-3])
def test_blockwise_exponent_turns_near_threshold_planes(theta):
    # each block holds a plane inside the classification width, absorbed
    # into a meet or a wedge; the block's exponent turns it by its angle
    alg = factor.FiniteAlgebra(blocks=(4, 4), weights=(0.5, 0.5))
    rng = np.random.default_rng(17)
    pm, qm = np.zeros((8, 8), dtype=complex), np.zeros((8, 8), dtype=complex)
    for sl, ranks, angles in zip(alg.slices(), [(0, 0, 0, 0), (1, 1, 0, 0)],
                                 [[theta, 0.6], [theta]]):
        p, q, _ = sampling.structured_pair(*ranks, angles, rng)
        pm[sl, sl], qm[sl, sl] = p.m, q.m
    p, q = pg.make_projection(pm), pg.make_projection(qm)
    g = factor.blockwise_minimal_exponent(alg, p, q)
    assert pg.verify_geodesic(g).max() <= geo.ENDPOINT_ATOL
    e = scipy.linalg.expm(g.z)
    assert pg.operator_norm(e @ p.m @ e.conj().T - q.m) <= 1e-12
