import numpy as np
import pytest
import scipy.linalg

import projgeo as pg
from projgeo import factor, geo, jones, numkit, projlat, sampling
from projgeo.errors import (
    BadRho,
    InvariantViolation,
    NoGeodesic,
    NotMember,
    RankMismatch,
    TooFewPoints,
)

from _helpers import (adj, perturbed_curves, random_joinable_pair, record_kernels,
                      rotation_pair, unitary)


def orthogonal_rank1_pair():
    p = pg.make_projection(np.diag([1.0, 0.0]))
    q = pg.make_projection(np.diag([0.0, 1.0]))
    return p, q


class TestExistenceAndUniqueness:
    def test_orthogonal_rank_one_exists(self):
        p, q = orthogonal_rank1_pair()
        assert pg.geodesic_exists(p, q)
        assert not pg.unique_geodesic(p, q)

    def test_rank_mismatch_blocks_existence(self):
        p = pg.make_projection(np.diag([1.0, 0.0, 0.0]))
        zero = pg.make_projection(np.zeros((3, 3)))
        assert not pg.geodesic_exists(p, zero)
        with pytest.raises(NoGeodesic):
            pg.unique_geodesic(p, zero)

    def test_equal_rank_always_exists(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            p = sampling.random_projection(6, 3, rng)
            q = sampling.random_projection(6, 3, rng)
            assert pg.geodesic_exists(p, q)

    def test_generic_pair_unique(self):
        p, q = rotation_pair(np.pi / 4)
        assert pg.unique_geodesic(p, q)

    def test_trivial_pair_unique(self):
        p, _ = rotation_pair(0.5)
        assert pg.unique_geodesic(p, p)


class TestPartialIsometry:
    def test_identity_case(self):
        p = pg.make_projection(np.diag([1.0, 0.0]))
        w = pg.partial_isometry(p, p)
        assert np.allclose(w.w, np.diag([1.0, 0.0]))

    def test_swap_case(self):
        p, q = orthogonal_rank1_pair()
        w = pg.partial_isometry(p, q)
        assert np.allclose(w.w, [[0.0, 0.0], [1.0, 0.0]])
        assert np.allclose(adj(w.w) @ w.w, p.m)
        assert np.allclose(w.w @ adj(w.w), q.m)

    def test_seeds_give_distinct_valid_isometries(self):
        rng = np.random.default_rng(21)
        src = sampling.random_projection(5, 2, rng)
        tgt = sampling.random_projection(5, 2, rng)
        w1 = pg.partial_isometry(src, tgt, seed=1)
        w2 = pg.partial_isometry(src, tgt, seed=2)
        assert pg.operator_norm(w1.w - w2.w) > 1e-6
        for w in (w1, w2):
            assert pg.operator_norm(adj(w.w) @ w.w - src.m) < 1e-10
            assert pg.operator_norm(w.w @ adj(w.w) - tgt.m) < 1e-10

    def test_w_is_formed_from_the_matched_bases(self):
        rng = np.random.default_rng(23)
        src = sampling.random_projection(5, 2, rng)
        tgt = sampling.random_projection(5, 2, rng)
        w = pg.partial_isometry(src, tgt, seed=3)
        assert "w" not in vars(w)
        assert np.array_equal(w.w, w.bt @ adj(w.bs))
        assert pg.operator_norm(w.w @ w.bs - w.bt) < 1e-12

    def test_hand_built_witness_is_checked_on_its_bases(self):
        p, q = orthogonal_rank1_pair()
        e0, e1 = np.eye(2, dtype=complex)[:, :1], np.eye(2, dtype=complex)[:, 1:]
        for bs, bt in ((2 * e0, e1), (e0, (1 + 1e-6) * e1), (e0 + e1, e1),
                       (np.eye(2, dtype=complex), np.eye(2, dtype=complex)),
                       (e0, np.zeros((2, 0), dtype=complex))):
            with pytest.raises(InvariantViolation):
                geo.PartialIsometry(bs=bs, bt=bt, source=p, target=q)
        w = geo.PartialIsometry(bs=e0, bt=e1, source=p, target=q)
        assert np.array_equal(w.w, [[0, 0], [1, 0]])

    def test_rank_mismatch(self):
        p = pg.make_projection(np.diag([1.0, 1.0]))
        q = pg.make_projection(np.diag([1.0, 0.0]))
        with pytest.raises(RankMismatch):
            pg.partial_isometry(p, q)


def count_pivoted_qr(monkeypatch):
    """Patch scipy's QR to count its pivoted calls, the range bases."""
    calls, real = [], scipy.linalg.qr
    monkeypatch.setattr(scipy.linalg, "qr", lambda *args, **kwargs: (
        calls.append(args[0].shape) if kwargs.get("pivoting") else None) or real(*args, **kwargs))
    return calls


class TestOneWitnessBasis:
    def test_the_diagnostics_take_one_basis_per_wedge_part(self, monkeypatch):
        p, q, _ = sampling.random_pair(8, np.random.default_rng(29), force_wedge=True)
        built, real = [], geo.position_exponent
        monkeypatch.setattr(geo, "position_exponent",
                            lambda *args: built.append(args) or real(*args))
        bases = count_pivoted_qr(monkeypatch)
        report = sampling.pair_diagnostics(p, q)
        assert report["unique"] is False and report["seeded_exponent_gap"] > 1e-6
        # the default and both seeded exponents, each built and verified
        assert len(built) == 3
        assert len(bases) == 2

    def test_a_family_of_geodesics_takes_one_basis_per_end(self, monkeypatch):
        alg = factor.FiniteAlgebra.full(8)
        p, q = factor.orthogonal_pair(alg, 0.25, seed=4)
        bases = count_pivoted_qr(monkeypatch)
        fam = factor.multi_geodesics(p, q, count=3, rho=2.0, t=factor.NormalizedTrace(alg))
        assert len(fam) == 3 and len(bases) == 2

    @pytest.mark.parametrize("rank", [0, 1, 3])
    def test_a_kept_basis_is_read_only_and_the_fresh_one(self, rank):
        u = sampling.random_projection(6, rank, np.random.default_rng(31)).m
        p, twin = pg.make_projection(u), pg.make_projection(u)
        kept = projlat.range_basis(p)
        assert projlat.range_basis(p) is kept and not kept.flags.writeable
        assert kept.shape == (6, rank)
        assert np.array_equal(kept, projlat.range_basis(twin))

    def test_the_seeded_unitary_is_the_haar_draw(self):
        u = numkit.seeded_unitary(3, 7)
        assert numkit.seeded_unitary(3, 7) is u and not u.flags.writeable
        assert np.array_equal(u, numkit.haar_unitary(3, np.random.default_rng(7)))
        w = pg.partial_isometry(*(sampling.random_projection(5, 3, np.random.default_rng(s))
                                  for s in (32, 33)), seed=7)
        assert np.array_equal(w.bs, projlat.range_basis(w.source) @ u)


class TestMinimalExponent:
    def test_planar_rotation_closed_form(self):
        theta = np.pi / 3
        p, q = rotation_pair(theta)
        g = pg.minimal_exponent(p, q)
        expected = theta * np.array([[0.0, -1.0], [1.0, 0.0]])
        assert np.linalg.norm(g.z - expected, 2) < 1e-12

    def test_equal_projections_zero_exponent(self):
        p, _ = rotation_pair(1.0)
        assert np.all(pg.minimal_exponent(p, p).z == 0)

    def test_orthogonal_pair_wedge_form(self):
        p, q = orthogonal_rank1_pair()
        g = pg.minimal_exponent(p, q)
        w = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert np.linalg.norm(g.z - 1j * (np.pi / 2) * (w + adj(w)), 2) < 1e-12
        ez = pg.exp_skew(g.z)
        assert np.linalg.norm(ez - 1j * (w + adj(w)), 2) < 1e-12
        assert np.linalg.norm(ez @ p.m @ adj(ez) - q.m, 2) < 1e-12

    def test_no_geodesic(self):
        p = pg.make_projection(np.diag([1.0, 0.0, 0.0]))
        zero = pg.make_projection(np.zeros((3, 3)))
        with pytest.raises(NoGeodesic):
            pg.minimal_exponent(p, zero)

    def test_rejects_foreign_isometry(self):
        p, q = orthogonal_rank1_pair()
        bad = pg.partial_isometry(q, p)  # wrong direction
        with pytest.raises(InvariantViolation):
            pg.minimal_exponent(p, q, w=bad)

    def test_rejects_a_witness_of_lower_rank(self):
        # the witness joins rank-one pieces of the two rank-two wedge parts
        # exactly, so only its rank tells it from a witness of the parts
        rng = np.random.default_rng(31)
        p, q, _ = sampling.structured_pair(1, 1, 2, 2, [0.6], rng)
        pos = pg.halmos_decompose(p, q)
        w = pg.partial_isometry(pg.from_span(pos.b10[:, :1]), pg.from_span(pos.b01[:, :1]))
        with pytest.raises(InvariantViolation):
            pg.minimal_exponent(p, q, w=w)

    def test_exponent_contract_on_random_pairs(self):
        rng = np.random.default_rng(22)
        for i in range(30):
            p, q, _ = random_joinable_pair(4 + 2 * (i % 4), rng,
                                           force_wedge=(i % 3 == 0))
            g = pg.minimal_exponent(p, q)
            assert pg.verify_geodesic(g).max() < 1e-8

    def test_reversal_symmetry(self):
        rng = np.random.default_rng(23)
        p, q, _ = random_joinable_pair(7, rng, force_wedge=True)
        g_fwd = pg.minimal_exponent(p, q)
        g_rev = pg.minimal_exponent(q, p)
        assert pg.operator_norm(g_fwd.z) == pytest.approx(
            pg.operator_norm(g_rev.z), abs=1e-10)
        reversed_exp = geo.GeodesicExponent(z=-g_fwd.z, p=q, q=p)
        assert pg.verify_geodesic(reversed_exp).max() < 1e-8

    def test_block_diagonal_pairs_give_block_diagonal_exponent(self):
        # two orthogonal rank-one wedge pairs, one per 2x2 block: the
        # wedge space has rank 2 split across blocks
        p = pg.make_projection(np.diag([1.0, 0.0, 1.0, 0.0]))
        q = pg.make_projection(np.diag([0.0, 1.0, 0.0, 1.0]))
        z = pg.minimal_exponent(p, q).z
        off = z.copy()
        off[:2, :2] = 0
        off[2:, 2:] = 0
        assert pg.operator_norm(off) < 1e-9

    def test_block_diagonal_generic_pairs(self):
        theta1, theta2 = 0.4, 1.1
        p1, q1 = rotation_pair(theta1)
        p2, q2 = rotation_pair(theta2)
        p = pg.make_projection(np.block(
            [[p1.m, np.zeros((2, 2))], [np.zeros((2, 2)), p2.m]]))
        q = pg.make_projection(np.block(
            [[q1.m, np.zeros((2, 2))], [np.zeros((2, 2)), q2.m]]))
        z = pg.minimal_exponent(p, q).z
        off = z.copy()
        off[:2, :2] = 0
        off[2:, 2:] = 0
        assert pg.operator_norm(off) < 1e-9

    def test_boundary_angle_classification(self):
        # an angle within the spectral width of pi/2 is classified as a
        # wedge pair, and an angle outside it as generic; the exponent
        # swaps the plane through the witness only within 1e-10 of pi/2 and
        # turns it by its angle farther in, so every depth meets the
        # contract, each against the dense e^z p e^-z
        p = pg.make_projection(np.diag([1.0, 0.0]))

        def at(eps):
            c, s = np.cos(np.pi / 2 - eps), np.sin(np.pi / 2 - eps)
            return pg.make_projection([[c * c, c * s], [c * s, s * s]])

        for eps, ranks in ((1e-9, (0, 0, 1, 1, 0)), (1e-7, (0, 0, 1, 1, 0)),
                           (2e-3, (0, 0, 0, 0, 2))):
            q = at(eps)
            assert pg.halmos_decompose(p, q).ranks() == ranks
            g = pg.minimal_exponent(p, q)
            assert pg.verify_geodesic(g).max() < 1e-8
            e = scipy.linalg.expm(g.z)
            assert pg.operator_norm(e @ p.m @ adj(e) - q.m) < 1e-12
            assert pg.operator_norm(g.z) == pytest.approx(np.pi / 2 - eps, abs=1e-12)

    def test_non_uniqueness_from_seeds(self):
        rng = np.random.default_rng(24)
        p, q, _ = random_joinable_pair(6, rng, force_wedge=True)
        parts = pg.halmos_decompose(p, q)
        gs = [pg.minimal_exponent(
            p, q, pg.partial_isometry(parts.e10, parts.e01, seed=s))
            for s in (1, 2)]
        assert pg.operator_norm(gs[0].z - gs[1].z) > 1e-6
        for g in gs:
            assert pg.verify_geodesic(g).max() < 1e-8


class TestGeodesicPointAndDistance:
    def test_endpoints(self):
        p, q = rotation_pair(np.pi / 3)
        g = pg.minimal_exponent(p, q)
        assert pg.operator_norm(pg.geodesic_point(g, 0.0).m - p.m) < 1e-12
        assert pg.operator_norm(pg.geodesic_point(g, 1.0).m - q.m) < 1e-8

    def test_midpoint_is_half_rotation(self):
        p, q = rotation_pair(np.pi / 3)
        _, mid = rotation_pair(np.pi / 6)
        g = pg.minimal_exponent(p, q)
        assert pg.operator_norm(pg.geodesic_point(g, 0.5).m - mid.m) < 1e-12

    def test_distance_values(self):
        p, q = rotation_pair(np.pi / 3)
        assert pg.geodesic_distance(p, p) == 0.0
        assert pg.geodesic_distance(p, q) == pytest.approx(np.pi / 3)
        a, b = orthogonal_rank1_pair()
        assert pg.geodesic_distance(a, b) == pytest.approx(np.pi / 2)

    def test_distance_matches_exponent_norm(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            p, q, _ = random_joinable_pair(8, rng)
            d = pg.geodesic_distance(p, q)
            assert abs(d - pg.operator_norm(pg.minimal_exponent(p, q).z)) < 1e-9
            assert d <= np.pi / 2 + 1e-12

    def test_distance_is_half_pi_with_wedge(self):
        rng = np.random.default_rng(26)
        p, q, _ = random_joinable_pair(6, rng, force_wedge=True)
        assert pg.geodesic_distance(p, q) == pytest.approx(np.pi / 2)


class TestRhoLength:
    def test_zero_exponent(self):
        p, _ = rotation_pair(0.3)
        g = pg.minimal_exponent(p, p)
        assert pg.rho_length(g, 2.0) == 0.0

    def test_orthogonal_pair(self):
        p, q = orthogonal_rank1_pair()
        g = pg.minimal_exponent(p, q)
        assert pg.rho_length(g, 2.0) == pytest.approx(np.pi / 2)

    def test_index_pair_direct_norm(self):
        # tau = 1/4, k = 1: the exponent is theta on a 2-plane out of 4
        # coordinates, so tau(z* z) = theta^2 / 2 and the 2-norm length
        # is theta / sqrt(2) = (2 tau)^(1/2) theta (the generic part
        # carries trace 2 tau; see acceptance criterion 6b)
        jp = jones.jones_pair(4, 1)
        g = pg.minimal_exponent(jp.p, jp.q)
        theta = np.arccos(np.sqrt(jp.tau))
        tr = factor.NormalizedTrace(factor.FiniteAlgebra.full(jp.n))
        val = pg.rho_length(g, 2.0, tr)
        assert val == pytest.approx(theta / np.sqrt(2), abs=1e-12)
        # independent oracle: eigenvalues of z* z are theta^2 (twice), 0 (twice)
        lam = np.linalg.eigvalsh(adj(g.z) @ g.z)
        assert val == pytest.approx(float(np.sqrt(lam.sum() / jp.n)), abs=1e-12)

    def test_bad_rho(self):
        p, q = rotation_pair(0.5)
        with pytest.raises(BadRho):
            pg.rho_length(pg.minimal_exponent(p, q), 0.9)

    @pytest.mark.parametrize("rho", [np.inf, np.nan])
    def test_non_finite_rho(self, rho):
        p, q = rotation_pair(0.5)
        g = pg.minimal_exponent(p, q)
        tr = factor.NormalizedTrace(factor.FiniteAlgebra.full(p.n))
        for trace in (None, tr):
            with pytest.raises(BadRho):
                pg.rho_length(g, rho, trace)

    @pytest.mark.parametrize("rho", [1.0, 2.0, 4.0, 7.5])
    def test_spectrum_length_equals_rho_norm(self, rho):
        # the second pair has meet parts, so z has a kernel; rho_norm's SVD
        # gives it exact zeros, and the singular values are the reference
        rng = np.random.default_rng(28)
        for n11, n00 in ((0, 0), (1, 2)):
            p, q, _ = sampling.structured_pair(n11, n00, 2, 2, [0.3, 0.9, 1.4], rng)
            g = pg.minimal_exponent(p, q)
            svals = np.linalg.svd(g.z, compute_uv=False)
            for trace in (None, factor.NormalizedTrace(factor.FiniteAlgebra.full(p.n))):
                value = pg.rho_length(g, rho, trace)
                assert abs(value - pg.rho_norm(g.z, rho, trace)) <= 1e-12
                assert abs(value - ((svals ** rho).sum() / p.n) ** (1 / rho)) <= 1e-12

    def test_non_skew_exponent_takes_rho_norm(self, monkeypatch):
        p, q = rotation_pair(0.5)
        g = pg.minimal_exponent(p, q)
        bad = geo.GeodesicExponent(z=g.z + 1e-3 * np.eye(2), p=p, q=q)
        calls = []
        real = geo.numkit.rho_norm

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(geo.numkit, "rho_norm", counting)
        assert pg.rho_length(bad, 2.0) == real(bad.z, 2.0)
        assert len(calls) == 1 and calls[0] is bad.z
        pg.rho_length(g, 2.0)
        assert len(calls) == 1


class TestCurveLength:
    def test_two_equal_points(self):
        p, _ = rotation_pair(0.2)
        assert pg.curve_length([p, p]) == 0.0

    def test_too_few_points(self):
        p, _ = rotation_pair(0.2)
        with pytest.raises(TooFewPoints):
            pg.curve_length([p])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_points_are_rejected_in_both_forms(self, bad):
        # a stack with one nan entry read 0.0, and one inf entry nan
        p, q = rotation_pair(0.2)
        stack = np.stack([p.m, q.m, p.m])
        stack[1, 0, 1] = bad
        for points in (stack, list(stack)):
            for rho in (None, 2.0, 3.0):
                with pytest.raises(ValueError, match="must be finite"):
                    pg.curve_length(points, rho=rho)

    def test_sampled_geodesic_operator_length(self):
        theta = np.pi / 3
        p, q = rotation_pair(theta)
        g = pg.minimal_exponent(p, q)
        pts = [pg.geodesic_point(g, t) for t in np.linspace(0, 1, 1000)]
        assert abs(pg.curve_length(pts) - theta) < 1e-4

    def test_rho_length_of_sampled_geodesic(self):
        theta = np.pi / 3
        p, q = rotation_pair(theta)
        g = pg.minimal_exponent(p, q)
        pts = [pg.geodesic_point(g, t) for t in np.linspace(0, 1, 400)]
        assert abs(pg.curve_length(pts, rho=2.0) - pg.rho_length(g, 2.0)) < 1e-3

    def test_several_orders_equal_one_order_at_a_time(self):
        rng = np.random.default_rng(29)
        p, q, _ = random_joinable_pair(5, rng)
        g = pg.minimal_exponent(p, q)
        curve = next(perturbed_curves(g, rng, count=1, samples=200))
        orders = [None, 2.0, 1.0, 4.0]
        assert pg.curve_length(curve, rho=orders) == \
            [pg.curve_length(curve, rho=rho) for rho in orders]
        with pytest.raises(BadRho):
            pg.curve_length(curve, rho=(2.0, 0.5))

    @pytest.mark.parametrize("rho", [np.inf, np.nan])
    def test_non_finite_rho(self, rho):
        # unchecked, rho = inf would read 2.0 here, the number of steps:
        # each step's sum of sigma^inf is 0 and 0 ** (1 / inf) is 1
        curve = np.stack([np.diag([1.0, 0.0])] * 3)
        for orders in (rho, [2.0, rho]):
            with pytest.raises(BadRho):
                pg.curve_length(curve, rho=orders)

    @staticmethod
    def eigvalsh_length(curve, rho):
        """The chordal rho-length from the eigenvalues of each step."""
        s = np.abs(np.linalg.eigvalsh(curve[1:] - curve[:-1]))
        return float((((s ** rho).sum(axis=1) / curve.shape[1]) ** (1.0 / rho)).sum())

    def test_even_orders_match_the_eigenvalue_formula(self):
        rng = np.random.default_rng(31)
        p, q, _ = random_joinable_pair(6, rng)
        g = pg.minimal_exponent(p, q)
        perturbed = next(perturbed_curves(g, rng, count=1, samples=300))
        # rank-one projections turning in a plane of C^4: steps of rank 2
        ts = np.linspace(0.0, 1.0, 200)
        vs = np.zeros((ts.size, 4), dtype=complex)
        vs[:, 0], vs[:, 2] = np.cos(ts), np.exp(0.3j) * np.sin(ts)
        low_rank = np.einsum("ti,tj->tij", vs, vs.conj())
        curves = {"perturbed": perturbed,
                  "repeated points": np.repeat(perturbed[::10], 3, axis=0),
                  "low rank": low_rank,
                  "constant": np.repeat(p.m[None], 5, axis=0)}
        for name, curve in curves.items():
            for rho in (2.0, 4.0, 6.0):
                want = self.eigvalsh_length(curve, rho)
                got = pg.curve_length(curve, rho=rho)
                assert abs(got - want) <= 1e-12 * want, (name, rho, got, want)

    def test_even_orders_run_no_eigensolver(self, monkeypatch):
        rng = np.random.default_rng(32)
        p, q, _ = random_joinable_pair(5, rng)
        curve = next(perturbed_curves(pg.minimal_exponent(p, q), rng, count=1,
                                      samples=100))
        calls = []
        real = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        for rho, solves in [(2.0, 0), (4.0, 0), ([2.0, 4.0], 0),
                            ([None, 2.0, 4.0], 1), (1.0, 1)]:
            calls.clear()
            pg.curve_length(curve, rho=rho)
            assert len(calls) == solves, rho

    def test_traced_even_orders_match_rho_norm(self, monkeypatch):
        # a block-diagonal curve in M_3 + M_4, and the full algebra M_7
        rng = np.random.default_rng(33)
        parts = []
        for n in (3, 4):
            p, q, _ = random_joinable_pair(n, rng)
            parts.append(next(perturbed_curves(pg.minimal_exponent(p, q), rng,
                                               count=1, samples=150)))
        curve = np.zeros((150, 7, 7), dtype=complex)
        curve[:, :3, :3], curve[:, 3:, 3:] = parts
        diffs = curve[1:] - curve[:-1]
        blocks = factor.FiniteAlgebra(blocks=(3, 4), weights=(0.3, 0.7))
        traces = [factor.NormalizedTrace(alg) for alg in (blocks, factor.FiniteAlgebra.full(7))]
        orders = [2.0, 4.0, 6.0]
        want = [[sum(pg.rho_norm(d, rho, tr) for d in diffs) for rho in orders]
                for tr in traces]
        calls = record_kernels(monkeypatch)
        for tr, lengths in zip(traces, want):
            assert pg.curve_length(curve, rho=orders, trace=tr) == \
                pytest.approx(lengths, rel=1e-12)
        assert calls == []  # no SVD or eigensolver per step
        # off-block mass of a step's |D|^rho is refused as before
        mixed = next(perturbed_curves(pg.minimal_exponent(*random_joinable_pair(7, rng)[:2]),
                                      rng, count=1, samples=20))
        tr = factor.NormalizedTrace(blocks)
        with pytest.raises(NotMember):
            pg.rho_norm(mixed[1] - mixed[0], 2.0, tr)
        for rho in (2.0, 4.0, 3.0):
            with pytest.raises(NotMember):
                pg.curve_length(mixed, rho=rho, trace=tr)

    def test_traced_odd_orders_match_rho_norm(self, monkeypatch):
        # a block-diagonal curve in M_3 + M_4: every odd order comes from
        # one batched eigh of the steps, not one rho_norm per step
        rng = np.random.default_rng(34)
        parts = []
        for n in (3, 4):
            p, q, _ = random_joinable_pair(n, rng)
            parts.append(next(perturbed_curves(pg.minimal_exponent(p, q), rng,
                                               count=1, samples=120)))
        curve = np.zeros((120, 7, 7), dtype=complex)
        curve[:, :3, :3], curve[:, 3:, 3:] = parts
        diffs = curve[1:] - curve[:-1]
        blocks = factor.FiniteAlgebra(blocks=(3, 4), weights=(0.3, 0.7))
        tr = factor.NormalizedTrace(blocks)
        orders = [1.0, 3.0]
        want = [sum(pg.rho_norm(d, rho, tr) for d in diffs) for rho in orders]
        calls = record_kernels(monkeypatch)
        got = pg.curve_length(curve, rho=orders, trace=tr)
        assert got == pytest.approx(want, rel=1e-12)
        assert calls == [("eigh", diffs.shape)]

    def test_perturbed_curves_are_no_shorter(self):
        rng = np.random.default_rng(27)
        p, q, _ = random_joinable_pair(5, rng)
        while not pg.unique_geodesic(p, q):
            p, q, _ = random_joinable_pair(5, rng)
        g = pg.minimal_exponent(p, q)
        d_op = pg.geodesic_distance(p, q)
        for curve in perturbed_curves(g, rng, count=50):
            assert pg.curve_length(curve) >= d_op - 1e-6
            for rho in (2.0, 4.0):
                assert pg.curve_length(curve, rho=rho) >= \
                    pg.rho_length(g, rho) - 1e-6


class TestGeodesicPoint:
    def test_basis_is_the_rotated_range(self):
        rng = np.random.default_rng(30)
        p, q, _ = sampling.structured_pair(1, 1, 2, 2, [0.4, 1.2], rng)
        g = pg.minimal_exponent(p, q)
        for t in (0.0, 0.3, 0.5, 1.0):
            pt = pg.geodesic_point(g, t)
            b = pt.basis
            assert pt.rank == p.rank == b.shape[1]
            assert pg.operator_norm(adj(b) @ b - np.eye(b.shape[1])) <= 1e-12
            assert pg.operator_norm(b @ adj(b) - pt.m) <= 1e-12
            u = unitary(g, t)
            assert pg.operator_norm(pt.m - u @ p.m @ adj(u)) <= 1e-12
        assert pg.operator_norm(pg.geodesic_point(g, 1.0).m - q.m) <= 1e-12


class TestVerifyGeodesic:
    def test_valid_exponent_residuals(self):
        p, q = rotation_pair(np.pi / 3)
        res = pg.verify_geodesic(pg.minimal_exponent(p, q))
        assert res.max() < 1e-8

    def test_symmetric_perturbation_shows_in_skewness(self):
        p, q = rotation_pair(np.pi / 3)
        g = pg.minimal_exponent(p, q)
        bad = geo.GeodesicExponent(z=g.z + 1e-3 * np.eye(2), p=p, q=q)
        assert pg.verify_geodesic(bad).skewness == pytest.approx(2e-3, rel=1e-6)

    def test_scaled_exponent_misses_endpoint(self):
        p, q = rotation_pair(np.pi / 3)
        g = pg.minimal_exponent(p, q)
        bad = geo.GeodesicExponent(z=1.5 * g.z, p=p, q=q)
        assert pg.verify_geodesic(bad).endpoint > 0.1
