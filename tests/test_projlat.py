import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projgeo as pg
from projgeo import jones, numkit, projlat, sampling
from projgeo.errors import DimensionMismatch, NoGenericPart, NotProjection, RankDeficient

from _helpers import adj, compress, meet_oracle, record_kernels, rotation_pair


def pi4_pair():
    """p onto span{e1, e2}, q onto span{e1, (e2+e3)/sqrt(2)} in M_3."""
    p = pg.make_projection(np.diag([1.0, 1.0, 0.0]))
    cols = np.array([[1.0, 0.0], [0.0, 1 / np.sqrt(2)], [0.0, 1 / np.sqrt(2)]])
    q = pg.from_span(cols)
    return p, q


class TestMakeProjection:
    def test_diagonal(self):
        p = pg.make_projection(np.diag([1.0, 0.0]))
        assert p.rank == 1 and p.n == 2

    def test_idempotent_hermitian(self):
        p = pg.make_projection([[0.5, 0.5], [0.5, 0.5]])
        assert p.rank == 1

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotProjection):
            pg.make_projection([[1.0, 1.0], [0.0, 1.0]])

    def test_rejects_non_idempotent(self):
        with pytest.raises(NotProjection):
            pg.make_projection(0.5 * np.eye(2))

    def test_symmetrizes_small_noise(self):
        noise = 1e-10 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        p = pg.make_projection(np.diag([1.0, 0.0]) + noise)
        assert np.allclose(p.m, adj(p.m))

    def test_matrix_read_only(self):
        p = pg.make_projection(np.diag([1.0, 0.0]))
        with pytest.raises(ValueError):
            p.m[0, 0] = 5.0
        with pytest.raises(ValueError):
            p.basis[0, 0] = 5.0

    def test_matrix_is_the_symmetrized_input(self):
        rng = np.random.default_rng(15)
        noise = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        x = sampling.random_projection(5, 2, rng).m + 1e-10 * noise
        assert np.array_equal(pg.make_projection(x).m, (x + adj(x)) / 2)

    def test_basis_spans_the_range(self):
        p = sampling.random_projection(7, 3, np.random.default_rng(12))
        assert p.basis.shape == (7, 3)
        assert pg.operator_norm(adj(p.basis) @ p.basis - np.eye(3)) <= 1e-12
        assert pg.operator_norm(p.basis @ adj(p.basis) - p.m) <= 1e-12

    def test_hermiticity_decided_by_the_operator_norm(self):
        # m - m* = 2i c I has operator norm 2c and Frobenius norm 4c, so
        # the Frobenius bound alone cannot accept at 2c just below atol
        atol = pg.DEFAULT_TOL.atol_structure
        base = np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex)
        below = base + 1j * (0.45 * atol) * np.eye(4)
        assert np.linalg.norm(below - adj(below)) > atol
        p = pg.make_projection(below)
        assert p.rank == 2
        with pytest.raises(NotProjection,
                           match=r"^Hermiticity residual 1\.100e-08 > atol_structure$"):
            pg.make_projection(base + 1j * (0.55 * atol) * np.eye(4))


def eigh_verdict(m, tol=pg.DEFAULT_TOL):
    """What make_projection must return for a Hermitian m, read off one
    eigh of sym = (m + m*)/2: the rank, or the NotProjection message."""
    sym = (m + adj(m)) / 2
    eigs = np.linalg.eigh(sym)[0]
    idem = float(np.abs(eigs * eigs - eigs).max())
    if idem > tol.atol_structure:
        return f"idempotency residual {idem:.3e} > atol_structure"
    if np.minimum(np.abs(eigs), np.abs(eigs - 1.0)).max() > tol.atol_spectral:
        return "spectrum not within atol_spectral of {0, 1}"
    return int((eigs > 0.5).sum())


def projection_matrix(kind, n, rank, rng):
    """A projection of the given rank, built without the library, and the
    sizes of the diagonal blocks it is supported on."""
    if kind == "coordinate":
        diag = rng.permutation(np.r_[np.ones(rank), np.zeros(n - rank)])
        return np.diag(diag).astype(complex), [1] * n
    if kind == "blocks":
        cut = int(rng.integers(0, n + 1))
        low = int(rng.integers(max(0, rank - (n - cut)), min(rank, cut) + 1))
        blocks = [(cut, low), (n - cut, rank - low)]
        mats = [projection_matrix("haar", d, r, rng)[0] for d, r in blocks if d]
        m = np.zeros((n, n), dtype=complex)
        start = 0
        for a in mats:
            m[start:start + len(a), start:start + len(a)] = a
            start += len(a)
        return m, [d for d, _ in blocks if d]
    cols = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    if kind == "tiny":  # columns near coordinate vectors: components of 1e-9
        cols = np.eye(n, rank) + 1e-9 * cols
    b = np.linalg.qr(cols)[0] if rank else cols
    return b @ adj(b), [n]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       n=st.one_of(st.integers(1, 16), st.integers(17, 200)),
       rank_frac=st.floats(0.0, 1.0),
       kind=st.sampled_from(["haar", "coordinate", "tiny", "blocks"]),
       noise=st.one_of(st.just(0.0), st.floats(-12.0, -7.0).map(lambda e: 10.0 ** e)),
       scale=st.sampled_from([1.0, 1.0, 1.0, -1.0, 2.0, 1.0 + 1e-7]))
def test_make_projection_verdict_matches_an_eigh_reference(seed, n, rank_frac, kind,
                                                           noise, scale):
    rng = np.random.default_rng(seed)
    rank = int(round(rank_frac * n))
    proj, blocks = projection_matrix(kind, n, rank, rng)
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (h + adj(h)) / 2
    m = scale * proj + noise * h / np.linalg.norm(h, 2)
    want = eigh_verdict(m)
    with pytest.MonkeyPatch.context() as mp:
        calls = record_kernels(mp)
        if isinstance(want, str):
            with pytest.raises(NotProjection) as err:
                pg.make_projection(m)
            assert str(err.value) == want
            return
        p = pg.make_projection(m)
    assert p.rank == want == p.basis.shape[1]
    b = p.basis
    assert pg.operator_norm(adj(b) @ b - np.eye(p.rank)) <= 1e-12
    idem = pg.operator_norm(p.m @ p.m - p.m)
    assert pg.operator_norm(b @ adj(b) - p.m) <= 2 * idem + 1e-12
    if noise == 0.0 and scale == 1.0:
        # an exact projection is certified by its pivoted Cholesky
        assert "eigh" not in [name for name, _ in calls]
        edges = np.cumsum([0] + blocks)
        support = [np.flatnonzero(np.abs(b[lo:hi]).max(axis=0, initial=0.0))
                   for lo, hi in zip(edges[:-1], edges[1:])]
        assert sorted(np.concatenate(support).tolist()) == list(range(p.rank))


def test_only_the_eigh_fallback_logs(caplog):
    with caplog.at_level(logging.DEBUG, logger="projgeo"):
        pg.make_projection(np.diag([1.0, 1.0, 0.0]))
        assert caplog.records == []
        with pytest.raises(NotProjection):
            pg.make_projection(0.5 * np.eye(2))  # trace 1, no certified basis
    [rec] = caplog.records
    assert rec.levelno == logging.DEBUG and "eigh" in rec.getMessage()


def test_the_eigh_fallback_accepts_what_the_certificate_cannot_settle(caplog):
    # each eigenvalue moved by up to 5e-9: ||sym - B B*||_F exceeds
    # atol_structure, while every eigenvalue lies well within it of {0, 1}
    rng = np.random.default_rng(15)
    u = numkit.haar_unitary(64, rng)
    lam = np.r_[np.ones(32), np.zeros(32)] + rng.uniform(-5e-9, 5e-9, 64)
    with caplog.at_level(logging.DEBUG, logger="projgeo"):
        p = pg.make_projection((u * lam) @ adj(u))
    [rec] = caplog.records
    assert rec.levelno == logging.DEBUG and "eigh" in rec.getMessage()
    assert p.rank == 32
    assert pg.operator_norm(p.basis @ adj(p.basis) - u[:, :32] @ adj(u[:, :32])) <= 1e-12
    assert "basis_residual" not in vars(p)  # measured when first read
    assert p.basis_residual <= 1e-13
    assert vars(p)["basis_residual"] == p.basis_residual


def test_a_clean_projection_is_certified_by_its_unrefined_factor(monkeypatch):
    # the pivoted Cholesky factor reproduces an exact projection within the
    # rounding allowance, so no Gram Cholesky refines it
    rng = np.random.default_rng(16)
    mats = [projection_matrix("haar", n, n // 2, rng)[0] for n in (64, 192)]
    mats.append(projection_matrix("blocks", 48, 20, rng)[0])
    for m in mats:
        calls = record_kernels(monkeypatch)
        p = pg.make_projection(m)
        assert [name for name, _ in calls] == ["zpstrf"]
        allowance = 8 * numkit.complex_dot_error(p.n)
        assert pg.operator_norm(p.basis @ adj(p.basis) - p.m) <= allowance
        monkeypatch.undo()


def noisy_projections():
    """Twelve Haar projections at n in 150-200, with Hermitian noise of norm
    1e-12 to 1e-11, whose pivoted-Cholesky factors miss the rounding allowance."""
    rng = np.random.default_rng(40)
    for _ in range(12):
        n = int(rng.integers(150, 201))
        proj = projection_matrix("haar", n, n - int(rng.integers(0, 9)), rng)[0]
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = (h + adj(h)) / 2
        yield proj + 10.0 ** rng.uniform(-12.0, -11.0) * h / np.linalg.norm(h, 2)


def test_noisy_projections_keep_the_rounding_bound():
    # noise of 1e-12 to 1e-11 leaves the pivoted Cholesky factor above the
    # rounding allowance, so the eigh decides, and its eigenvectors reproduce
    # sym as well as sym is idempotent. An allowance of 4 g(n) k would accept
    # the factor of n = 197, k = 189, which misses this bound by 2.6e-12.
    for m in noisy_projections():
        p = pg.make_projection(m)
        idem = pg.operator_norm(p.m @ p.m - p.m)
        assert pg.operator_norm(p.basis @ adj(p.basis) - p.m) <= 2 * idem + 1e-12


def test_a_noisy_projection_goes_from_its_factor_to_the_eigh(monkeypatch, caplog):
    # valid, but noisy above rounding: the factor of the one zpstrf is not
    # certified and nothing refines it; one eigh decides and logs once
    rng = np.random.default_rng(41)
    mats = list(noisy_projections())
    for n in (64, 192):
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = (h + adj(h)) / 2
        mats.append(projection_matrix("haar", n, n // 2, rng)[0]
                    + 1e-11 * h / np.linalg.norm(h, 2))
    for m in mats:
        want = eigh_verdict(m)
        calls = record_kernels(monkeypatch)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="projgeo"):
            p = pg.make_projection(m)
        monkeypatch.undo()
        assert [name for name, _ in calls] == ["zpstrf", "eigh"]
        [rec] = caplog.records
        assert rec.levelno == logging.DEBUG and "eigh" in rec.getMessage()
        assert isinstance(want, int) and p.rank == want


class TestFromOrthonormal:
    def test_basis_and_rank(self):
        b = np.linalg.qr(np.random.default_rng(13).normal(size=(6, 2)))[0]
        p = projlat._from_orthonormal(b, pg.DEFAULT_TOL)
        assert p.rank == 2 and p.basis is b
        assert pg.operator_norm(p.m - b @ adj(b)) <= 1e-15
        assert pg.make_projection(p.m).rank == 2

    def test_matrix_is_formed_when_first_read(self):
        rng = np.random.default_rng(14)
        b = np.linalg.qr(rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3)))[0]
        for p in (projlat._from_orthonormal(b, pg.DEFAULT_TOL), pg.from_span(b)):
            assert "m" not in vars(p) and p.n == 6 and p.rank == 3
            m = p.basis @ adj(p.basis)
            assert np.array_equal(p.m, (m + adj(m)) / 2)
            assert vars(p)["m"] is p.m and not p.m.flags.writeable

    def test_rejects_a_basis_that_is_not_orthonormal(self):
        tol = pg.DEFAULT_TOL
        for b in (np.array([[1.0 + 1e-6], [0.0]]),
                  np.array([[1.0, np.sqrt(0.5)], [0.0, np.sqrt(0.5)]]),
                  np.array([[1.0, 1.0], [0.0, 0.0]])):
            with pytest.raises(NotProjection, match="orthonormality"):
                projlat._from_orthonormal(b, tol)


class TestFromSpan:
    def test_single_column(self):
        p = pg.from_span(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(p.m, np.diag([1.0, 0.0, 0.0]))

    def test_dependent_columns(self):
        e1 = np.array([1.0, 0.0, 0.0])
        with pytest.raises(RankDeficient):
            pg.from_span(np.stack([e1, e1], axis=1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_columns_are_named(self, bad):
        for cols in (np.array([1.0, bad, 0.0]), np.array([[1.0, 0.0], [0.0, 1.0], [bad, 0.0]])):
            with pytest.raises(ValueError, match="column entries must be finite"):
                pg.from_span(cols)

    def test_rank_one_formula(self):
        xi = np.array([0.0, 1.0, 1.0]) / np.sqrt(2)
        p = pg.from_span(xi)
        assert np.allclose(p.m, np.outer(xi, xi.conj()))


class TestMeetAndComplement:
    def test_commuting_diagonals(self):
        p = pg.make_projection(np.diag([1.0, 1.0, 0.0]))
        q = pg.make_projection(np.diag([0.0, 1.0, 1.0]))
        assert np.allclose(pg.meet(p, q).m, np.diag([0.0, 1.0, 0.0]))

    def test_distinct_rank_one_ranges(self):
        p = pg.make_projection(np.diag([1.0, 0.0]))
        q = pg.make_projection([[0.5, 0.5], [0.5, 0.5]])
        assert pg.meet(p, q).rank == 0

    def test_random_half_rank_meets_trivially(self):
        rng = np.random.default_rng(8)
        p = sampling.random_projection(8, 4, rng)
        q = sampling.random_projection(8, 4, rng)
        m = pg.meet(p, q)
        assert m.rank == 0
        assert np.linalg.norm(m.m - meet_oracle(p.m, q.m), 2) < 1e-9

    def test_meet_matches_null_space_oracle(self):
        rng = np.random.default_rng(9)
        p, q, _ = sampling.structured_pair(2, 1, 0, 0, [0.4], rng)
        m = pg.meet(p, q)
        assert m.rank == 2
        assert np.linalg.norm(m.m - meet_oracle(p.m, q.m), 2) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pg.meet(pg.make_projection(np.eye(2)), pg.make_projection(np.eye(3)))

    def test_complement(self):
        p = pg.make_projection(np.diag([1.0, 0.0]))
        assert np.allclose(pg.complement(p).m, np.diag([0.0, 1.0]))
        assert pg.complement(pg.make_projection(np.eye(2))).rank == 0
        assert np.allclose(pg.complement(pg.complement(p)).m, p.m)

    def test_meet_below_both(self):
        rng = np.random.default_rng(10)
        p, q, _ = sampling.structured_pair(2, 0, 1, 1, [0.7, 1.2], rng)
        m = pg.meet(p, q)
        assert pg.operator_norm(p.m @ m.m - m.m) < 1e-10
        assert pg.operator_norm(q.m @ m.m - m.m) < 1e-10


class TestHalmosDecompose:
    def test_equal_projections(self):
        p = pg.make_projection(np.diag([1.0, 0.0]))
        parts = pg.halmos_decompose(p, p)
        assert parts.ranks() == (1, 1, 0, 0, 0)
        assert np.allclose(parts.e11.m, p.m)

    def test_orthogonal_ranges(self):
        p = pg.make_projection(np.diag([1.0, 0.0]))
        q = pg.make_projection(np.diag([0.0, 1.0]))
        parts = pg.halmos_decompose(p, q)
        assert parts.ranks() == (0, 0, 1, 1, 0)
        assert np.allclose(parts.e10.m, p.m)
        assert np.allclose(parts.e01.m, q.m)

    def test_pi4_example(self):
        p, q = pi4_pair()
        parts = pg.halmos_decompose(p, q)
        assert parts.ranks() == (1, 0, 0, 0, 2)
        assert np.allclose(parts.e11.m, np.diag([1.0, 0.0, 0.0]), atol=1e-12)
        assert np.allclose(parts.e0.m, np.diag([0.0, 1.0, 1.0]), atol=1e-12)
        assert np.linalg.norm(parts.e11.m - meet_oracle(p.m, q.m), 2) < 1e-9
        assert pg.principal_angles(p, q) == pytest.approx([np.pi / 4])

    def test_parts_commute_and_sum(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            p, q, info = sampling.random_pair(8, rng)
            parts = pg.halmos_decompose(p, q)
            assert parts.ranks() == info["ranks"]
            mats = [parts.e11.m, parts.e00.m, parts.e10.m, parts.e01.m, parts.e0.m]
            assert pg.operator_norm(sum(mats) - np.eye(8)) < 1e-8
            for e in mats:
                for r in (p, q):
                    assert pg.operator_norm(e @ r.m - r.m @ e) < 1e-8

    def test_generic_reductions_have_trivial_meets(self):
        rng = np.random.default_rng(13)
        p, q, _ = sampling.structured_pair(1, 1, 1, 1, [0.5, 0.9], rng)
        parts = pg.halmos_decompose(p, q)
        basis = projlat.range_basis(parts.e0)
        p0 = pg.make_projection(compress(p.m, basis))
        q0 = pg.make_projection(compress(q.m, basis))
        sub = pg.halmos_decompose(p0, q0)
        assert sub.ranks()[:4] == (0, 0, 0, 0)


class TestDavisSymmetry:
    def test_conjugates_difference_to_its_negative(self):
        p, q = rotation_pair(np.pi / 3)
        v0 = pg.davis_symmetry(p, q)
        a0 = p.m - q.m
        assert np.linalg.norm(v0 @ a0 @ v0 + a0, 2) < 1e-12
        assert np.linalg.norm(v0 - adj(v0), 2) < 1e-12
        assert np.linalg.norm(v0 @ v0 - np.eye(2), 2) < 1e-12

    def test_difference_spectrum_at_pi_over_4(self):
        p, q = rotation_pair(np.pi / 4)
        lam = np.linalg.eigvalsh(p.m - q.m)
        assert lam == pytest.approx([-np.sin(np.pi / 4), np.sin(np.pi / 4)])

    def test_commuting_pair_has_no_generic_part(self):
        p = pg.make_projection(np.diag([1.0, 0.0]))
        q = pg.make_projection(np.diag([0.0, 1.0]))
        with pytest.raises(NoGenericPart):
            pg.davis_symmetry(p, q)

    def test_squares_to_generic_projection(self):
        rng = np.random.default_rng(14)
        p, q, _ = sampling.structured_pair(1, 1, 1, 1, [0.3, 1.0], rng)
        parts = pg.halmos_decompose(p, q)
        v0 = pg.davis_symmetry(p, q)
        assert np.linalg.norm(v0 @ v0 - parts.e0.m, 2) < 1e-10
        a0 = parts.e0.m @ (p.m - q.m) @ parts.e0.m
        assert np.linalg.norm(v0 @ a0 @ v0 + a0, 2) < 1e-10


class TestSpectralSymmetry:
    def test_generic_spectrum_symmetric_about_origin(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            p, q, _ = sampling.random_pair(7, rng)
            assert sampling.spectral_symmetry_residual(p, q) < 1e-8


class TestPrincipalAngles:
    def test_commuting_pair_empty(self):
        p = pg.make_projection(np.diag([1.0, 0.0]))
        assert pg.principal_angles(p, p).size == 0

    def test_index_pair_angles(self):
        jp = jones.jones_pair(4, 2)
        assert pg.principal_angles(jp.p, jp.q) == pytest.approx(
            [np.pi / 3, np.pi / 3])

    def test_invariant_under_joint_conjugation(self):
        rng = np.random.default_rng(16)
        p, q, _ = sampling.structured_pair(1, 0, 1, 1, [0.4, 0.8, 1.3], rng)
        u = pg.polar_unitary(rng.normal(size=(p.n, p.n)) + 2 * np.eye(p.n))
        p2 = pg.make_projection(u @ p.m @ adj(u))
        q2 = pg.make_projection(u @ q.m @ adj(u))
        a1 = pg.principal_angles(p, q)
        a2 = pg.principal_angles(p2, q2)
        assert np.linalg.norm(a1 - a2, np.inf) < 1e-9

    def test_count_equals_generic_rank_of_p(self):
        rng = np.random.default_rng(17)
        p, q, info = sampling.random_pair(9, rng)
        assert pg.principal_angles(p, q).size == info["ranks"][4] // 2
