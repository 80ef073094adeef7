import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projgeo import factor, geo, numkit, sampling
from projgeo.errors import (
    BadRho,
    BranchCut,
    NotHermitian,
    NotSkewHermitian,
    SingularInput,
)

from _helpers import adj, rotation


def random_hermitian(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + adj(a)) / 2


def random_skew(n, rng, max_norm):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = (a - adj(a)) / 2
    return a * (max_norm * rng.uniform(0.1, 1.0) / np.linalg.norm(a, 2))


class TestHermitianEig:
    def test_diagonal_input(self):
        w, u = numkit.hermitian_eig(np.diag([2.0, 1.0]))
        assert np.allclose(w, [1.0, 2.0])
        assert np.allclose(np.abs(u), [[0, 1], [1, 0]])

    def test_flip_matrix(self):
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        w, u = numkit.hermitian_eig(h)
        assert np.allclose(w, [-1.0, 1.0])
        expected = np.array([[1, 1], [-1, 1]]) / np.sqrt(2)
        assert np.allclose(np.abs(u), np.abs(expected))

    def test_reconstruction(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(6, rng)
        w, u = numkit.hermitian_eig(h)
        assert np.linalg.norm(h - (u * w) @ adj(u), 2) < 1e-12
        assert np.linalg.norm(adj(u) @ u - np.eye(6), 2) < 1e-13
        assert np.all(np.diff(w) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            numkit.hermitian_eig([[0.0, 1.0], [0.0, 0.0]])

    def test_phase_fix_deterministic(self):
        rng = np.random.default_rng(2)
        h = random_hermitian(5, rng)
        _, u1 = numkit.hermitian_eig(h)
        _, u2 = numkit.hermitian_eig(h.copy())
        assert np.array_equal(u1, u2)


def fix_phases_loop(u):
    """The column loop fix_phases replaced: its reference, bit for bit."""
    u = u.copy()
    if u.shape[1] == 0:
        return u
    mags = np.abs(u)
    floor = 1e-12 * max(mags.max(), 1.0)
    for j in range(u.shape[1]):
        nz = np.flatnonzero(mags[:, j] > floor)
        if nz.size == 0:
            continue
        pivot = u[nz[0], j]
        u[:, j] *= pivot.conjugate() / abs(pivot)
    return u


class TestFixPhases:
    @pytest.mark.parametrize("seed", range(20))
    def test_equals_the_column_loop_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        n, k = rng.integers(1, 9, size=2)
        scale = 10.0 ** rng.uniform(-20, 3)
        u = scale * (rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k)))
        kinds = rng.integers(0, 5, size=k)
        for j, kind in enumerate(kinds):
            if kind == 1:  # a zero column with signed zeros
                u[:, j] = rng.choice([0.0, -0.0], size=n) + 1j * rng.choice([0.0, -0.0], size=n)
            elif kind == 2:  # a column below the floor
                u[:, j] *= 1e-14 / scale
            elif kind == 3:  # leading zeros, then entries
                u[:rng.integers(0, n + 1), j] = -0.0
            elif kind == 4:  # a real column
                u[:, j] = u[:, j].real - 0.0j
        got, want = numkit.fix_phases(u), fix_phases_loop(u)
        assert np.array_equal(got, want)
        for part in ("real", "imag"):
            assert np.array_equal(np.signbit(getattr(got, part)),
                                  np.signbit(getattr(want, part)))

    def test_empty(self):
        assert numkit.fix_phases(np.zeros((3, 0), dtype=complex)).shape == (3, 0)


class TestPolarUnitary:
    def test_positive_input(self):
        assert np.allclose(numkit.polar_unitary(2 * np.eye(2)), np.eye(2))

    def test_scaled_rotation(self):
        a = np.array([[0.0, -2.0], [2.0, 0.0]])
        assert np.allclose(numkit.polar_unitary(a), [[0, -1], [1, 0]])

    def test_real_diagonal_signs(self):
        assert np.allclose(numkit.polar_unitary(np.diag([1.0, -3.0])),
                           np.diag([1.0, -1.0]))

    def test_singular_input(self):
        with pytest.raises(SingularInput):
            numkit.polar_unitary(np.diag([1.0, 0.0]))

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)) + 3 * np.eye(5)
        v = numkit.polar_unitary(a)
        pos = adj(v) @ a  # |a| since a = v |a|
        assert np.linalg.norm(v @ pos - a, 2) < 1e-10
        assert np.linalg.norm(adj(v) @ v - np.eye(5), 2) < 1e-10


class TestExpSkew:
    def test_zero(self):
        assert np.allclose(numkit.exp_skew(np.zeros((3, 3))), np.eye(3))

    def test_planar_rotation(self):
        theta = 0.7
        z = theta * np.array([[0.0, -1.0], [1.0, 0.0]])
        assert np.allclose(numkit.exp_skew(z), rotation(theta), atol=1e-14)

    def test_scalar_exponentials(self):
        z = 1j * np.pi * np.diag([1.0, 0.0])
        assert np.allclose(numkit.exp_skew(z), np.diag([-1.0, 1.0]), atol=1e-14)

    def test_rejects_non_skew(self):
        with pytest.raises(NotSkewHermitian):
            numkit.exp_skew(np.eye(2))

    def test_output_unitary(self):
        rng = np.random.default_rng(4)
        z = random_skew(7, rng, 2.0)
        w = numkit.exp_skew(z)
        assert np.linalg.norm(adj(w) @ w - np.eye(7), 2) < 1e-13


class TestLogUnitaryPrincipal:
    def test_identity(self):
        assert np.allclose(numkit.log_unitary_principal(np.eye(3)), 0.0)

    def test_rotation_round_trip(self):
        theta = np.pi / 3
        z = theta * np.array([[0.0, -1.0], [1.0, 0.0]])
        w = numkit.exp_skew(z)
        assert np.linalg.norm(numkit.log_unitary_principal(w) - z, 2) < 1e-12

    def test_branch_cut(self):
        with pytest.raises(BranchCut):
            numkit.log_unitary_principal(-np.eye(2))

    def test_spectrum_in_open_strip(self):
        rng = np.random.default_rng(5)
        z = random_skew(6, rng, np.pi - 0.2)
        lam = np.linalg.eigvalsh(1j * numkit.log_unitary_principal(numkit.exp_skew(z)))
        assert np.all(np.abs(lam) < np.pi)


class TestOperatorNorm:
    def test_diagonal(self):
        assert numkit.operator_norm(np.diag([1.0, -3.0])) == pytest.approx(3.0)

    def test_zero(self):
        assert numkit.operator_norm(np.zeros((2, 2))) == 0.0

    def test_zero_and_nan_paths(self, monkeypatch):
        calls = []
        real = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        assert numkit.operator_norm(np.zeros((192, 192))) == 0.0
        assert numkit.operator_norm(np.zeros((0, 0))) == 0.0
        assert calls == []
        nan = np.zeros((3, 3))
        nan[1, 2] = np.nan
        try:
            result = numkit.operator_norm(nan)
        except np.linalg.LinAlgError:
            result = np.nan
        assert calls == [(3, 3)] and np.isnan(result)

    def test_rank_one(self):
        xi = np.array([1.0, 1j]) / np.sqrt(2)
        eta = np.array([1.0, -1.0]) / np.sqrt(2)
        assert numkit.operator_norm(np.outer(xi, eta.conj())) == pytest.approx(1.0)


class TestOperatorNormStack:
    """A stack's operator norm prunes by Frobenius norms and must still
    return the largest first singular value of one batched SVD, bit for
    bit."""

    @staticmethod
    def reference(stack):
        return float(np.linalg.svd(stack, compute_uv=False)[..., 0].max())

    @staticmethod
    def svd_shapes(monkeypatch):
        shapes = []
        real = np.linalg.svd

        def counting(*args, **kwargs):
            shapes.append(np.shape(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        return shapes

    def test_rank_one_ties(self):
        # equal Frobenius and operator norms, up to rounding, in every matrix
        rng = np.random.default_rng(11)
        for n in (2, 3, 6, 10):
            u = rng.normal(size=(40, n)) + 1j * rng.normal(size=(40, n))
            v = rng.normal(size=(40, n)) + 1j * rng.normal(size=(40, n))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            stack = 1e-15 * u[:, :, None] * v[:, None, :].conj()
            assert numkit.operator_norm(stack) == self.reference(stack)

    def test_all_zero_and_empty(self):
        zeros = np.zeros((5, 4, 4), dtype=np.complex128)
        assert numkit.operator_norm(zeros) == self.reference(zeros) == 0.0
        assert numkit.operator_norm(np.zeros((0, 4, 4), dtype=np.complex128)) == 0.0

    def test_largest_frobenius_norm_is_not_the_largest_norm(self, monkeypatch):
        # ||I_4||_F = 2 > 1.5, but ||diag(1.5, 0, 0, 0)|| = 1.5 > ||I_4|| = 1
        small = 0.1 * np.eye(4)[None] * np.ones((3, 1, 1))
        stack = np.concatenate([np.eye(4)[None], small,
                                np.diag([1.5, 0.0, 0.0, 0.0])[None]]).astype(complex)
        assert numkit.operator_norm(stack) == self.reference(stack) == 1.5
        shapes = self.svd_shapes(monkeypatch)
        numkit.operator_norm(stack)
        # one SVD of I_4, then one of the only matrix that could beat it
        assert shapes == [(4, 4), (1, 4, 4)]

    def test_four_dimensional_stack(self, monkeypatch):
        rng = np.random.default_rng(12)
        stack = rng.normal(size=(3, 4, 5, 6)) + 1j * rng.normal(size=(3, 4, 5, 6))
        stack[1, 2] *= 10.0
        want = self.reference(stack)
        assert numkit.operator_norm(stack) == want
        assert numkit.frobenius(stack).shape == (3, 4)
        assert numkit.frobenius(stack)[1, 2] == pytest.approx(np.linalg.norm(stack[1, 2]))
        shapes = self.svd_shapes(monkeypatch)
        numkit.operator_norm(stack)
        # the scaled matrix holds the maximum, and no other comes near it
        assert shapes == [(5, 6)]


class TestRhoNorm:
    @pytest.mark.parametrize("rho", [1.0, 2.0, 3.5, 8.0])
    def test_identity_normalization(self, rho):
        assert numkit.rho_norm(np.eye(5), rho) == pytest.approx(1.0)

    def test_rank_one_projection(self):
        assert numkit.rho_norm(np.diag([1.0, 0.0]), 2.0) == pytest.approx(np.sqrt(0.5))

    def test_wedge_exponent_norm(self):
        w = np.array([[0.0, 0.0], [1.0, 0.0]])
        a = (np.pi / 2) * (w + adj(w))  # squares to (pi/2)^2 I
        assert numkit.rho_norm(a, 2.0) == pytest.approx(np.pi / 2)

    def test_bad_rho(self):
        with pytest.raises(BadRho):
            numkit.rho_norm(np.eye(2), 0.5)

    @pytest.mark.parametrize("rho", [np.inf, np.nan])
    def test_non_finite_rho(self, rho):
        # neither fails "rho < 1"; unchecked, rho = inf would read 1.0 here
        with pytest.raises(BadRho):
            numkit.rho_norm(np.diag([0.5, 0.2]), rho)

    def test_monotone_and_bounded_by_operator_norm(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            vals = [numkit.rho_norm(a, r) for r in (2, 4, 8, 16)]
            top = numkit.operator_norm(a)
            assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))
            assert all(v <= top + 1e-12 for v in vals)

    @pytest.mark.parametrize("rho", [1.0, 1.5, 2.0])
    def test_matrix_with_a_kernel_matches_its_singular_values(self, rho):
        # the exponent of a pair with meet parts has a kernel
        p, q, _ = sampling.structured_pair(1, 2, 2, 2, [0.3, 0.9, 1.4],
                                           np.random.default_rng(0))
        z = geo.minimal_exponent(p, q).z
        want = ((np.linalg.svd(z, compute_uv=False) ** rho).mean()) ** (1 / rho)
        for trace in (None, factor.NormalizedTrace(factor.FiniteAlgebra.full(p.n))):
            assert abs(numkit.rho_norm(z, rho, trace) - want) <= 1e-12

    def test_custom_trace_matches_default_on_full_algebra(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 4))
        tr = lambda x: np.trace(x) / 4
        assert numkit.rho_norm(a, 3.0, trace=tr) == pytest.approx(
            numkit.rho_norm(a, 3.0))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 8))
def test_log_exp_round_trip(seed, n):
    rng = np.random.default_rng(seed)
    z = random_skew(n, rng, np.pi - 0.1)
    back = numkit.log_unitary_principal(numkit.exp_skew(z))
    assert np.linalg.norm(back - z, 2) < 1e-9


def test_haar_unitary_is_unitary_and_seeded():
    u1 = numkit.haar_unitary(5, np.random.default_rng(9))
    u2 = numkit.haar_unitary(5, np.random.default_rng(9))
    assert np.array_equal(u1, u2)
    assert np.linalg.norm(adj(u1) @ u1 - np.eye(5), 2) < 1e-13


@pytest.mark.parametrize("name", ["atol_structure", "atol_spectral", "atol_rank"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 0.0, -1.0])
def test_tolerances_must_be_positive_and_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        numkit.ToleranceProfile(**{name: value})


@pytest.mark.parametrize("value", [numkit.MAX_ATOL_SPECTRAL, 0.3, 0.5, 1.0, 10.0, 1e300])
def test_classification_widths_where_the_windows_overlap_are_rejected(value):
    # at atol_spectral >= 1 - 1/sqrt(2) a plane at pi/4 is within the width
    # of both 0 and pi/2
    assert np.cos(np.pi / 4) >= 1.0 - numkit.MAX_ATOL_SPECTRAL - 1e-15
    with pytest.raises(ValueError, match="atol_spectral must be below"):
        numkit.ToleranceProfile(atol_spectral=value)
    numkit.ToleranceProfile(atol_spectral=np.nextafter(numkit.MAX_ATOL_SPECTRAL, 0.0))


@pytest.mark.parametrize("value", [np.nextafter(numkit.MIN_ATOL_SPECTRAL, 0.0), 1e-15, 1e-16,
                                   1e-30])
def test_classification_widths_below_rounding_are_rejected(value):
    # at 1e-16 the ends of a structured pair fail the spectral check, and at
    # 1e-15 a Haar projection at n = 64; the floor accepts both
    with pytest.raises(ValueError, match="at least 8e-15"):
        numkit.ToleranceProfile(atol_spectral=value)
    tol = numkit.ToleranceProfile(atol_spectral=numkit.MIN_ATOL_SPECTRAL)
    sampling.structured_pair(1, 1, 0, 0, [0.3], np.random.default_rng(1), tol)
    sampling.random_projection(64, 21, np.random.default_rng(0), tol)
