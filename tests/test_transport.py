import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import projgeo as pg
from projgeo import cli, geo, jones
from projgeo.errors import DimensionMismatch

from _helpers import adj, force_exact, record_kernels, unitary


def eighth_turn_path():
    return jones.expectation_path(
        jones.diagonal_spec(2), jones.rotated_diagonal_spec(2, np.pi / 8), 2)


def conjugated_tensor_path(k, m, rng):
    """A tensor factor against a small unitary conjugate of itself, which
    has many generic planes (m = 6 and 30 thin coordinates at k, m = 2, 3
    and 4, 2)."""
    n = k * m
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    u = scipy.linalg.expm(0.2 * (h - adj(h)) / np.linalg.norm(h - adj(h), 2))
    spec0 = jones.TensorFactor(k, m)
    spec1 = jones.MatrixSpan(mats=tuple(
        u @ a @ adj(u) for a in jones.spanning_matrices(spec0, n)))
    return jones.expectation_path(spec0, spec1, n)


def dense_generator(path, t):
    """The transport generator Z E_t + E_t Z - 2 E_t Z E_t as a dense
    n^2 x n^2 matrix."""
    Z = path.z.z
    w = unitary(path.z, t)
    pt = w @ path.end0.big.m @ adj(w)
    return Z @ pt + pt @ Z - 2.0 * pt @ Z @ pt


def dense_rk4(path, x0, steps):
    """Reference solver: RK4 with the generator formed as a dense
    n^2 x n^2 matrix at every stage time."""
    n = path.n

    def generator(t):
        return dense_generator(path, t)

    h = 1.0 / steps
    y = np.asarray(x0, dtype=complex).reshape(-1)
    states = np.empty((steps + 1, n, n), dtype=complex)
    states[0] = y.reshape(n, n)
    a_t = generator(0.0)
    for j in range(steps):
        t = j * h
        a_mid = generator(t + h / 2)
        a_next = generator(t + h)
        k1 = a_t @ y
        k2 = a_mid @ (y + (h / 2) * k1)
        k3 = a_mid @ (y + (h / 2) * k2)
        k4 = a_next @ (y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        states[j + 1] = y.reshape(n, n)
        a_t = a_next
    return np.linspace(0.0, 1.0, steps + 1), states


def stepwise_rk4(path, x0, steps):
    """Reference for the doubling: the solver's RK4 step matrix S = 1 + K
    applied one step at a time, y_{j+1} = S y_j, then rotated back and
    lifted as the solver does. S and the loop are in long double: the
    loop's rounding grows with the steps, and in double it reaches 3.7e-13
    of max |y_0| at 10,000 steps of the eighth turn, where the doubling
    stays within 3.3e-16."""
    x, v, zw, y0, k = jones._rk4_coordinates(path, x0, steps)
    y = y0.astype(np.clongdouble)
    step = np.eye(k.shape[0], dtype=np.clongdouble) + k.astype(np.clongdouble)
    rotated = [y]
    for _ in range(steps):
        y = step @ y
        rotated.append(y)
    coords = np.exp(np.outer(np.linspace(0.0, 1.0, steps + 1), zw)) * np.array(rotated, dtype=complex)
    states = (x - v @ y0) + coords @ v.T
    return states.reshape(steps + 1, path.n, path.n)


class TestTransportOde:
    def test_trivial_path_is_constant(self):
        spec = jones.diagonal_spec(2)
        path = jones.expectation_path(spec, spec, 2)
        x0 = np.diag([1.0, -1.0]).astype(complex)
        _, states = jones.transport_ode_solve(path, x0, 200)
        assert max(pg.operator_norm(s - x0) for s in states) < 1e-14

    def test_matches_closed_form_propagator(self):
        path = eighth_turn_path()
        x0 = np.diag([1.0, -1.0]).astype(complex)
        _, states = jones.transport_ode_solve(path, x0, 1000)
        assert pg.operator_norm(states[-1] - path.transport(1.0, x0)) < 1e-6

    def test_rejects_too_few_steps(self):
        path = eighth_turn_path()
        with pytest.raises(ValueError):
            jones.transport_ode_solve(path, np.eye(2), 50)
        with pytest.raises(ValueError):
            jones.transport_ode_endpoint(path, np.eye(2), 99)

    @pytest.mark.parametrize("solve", [jones.transport_ode_solve,
                                       jones.transport_ode_endpoint])
    def test_rejects_a_start_of_another_size(self, solve):
        path = jones.expectation_path(
            jones.diagonal_spec(3), jones.rotated_diagonal_spec(3, 0.3), 3)
        with pytest.raises(DimensionMismatch, match="x0 must be 3 x 3, got 2 x 2"):
            solve(path, np.eye(2), 200)

    def test_path_maps_reject_a_matrix_of_another_size(self):
        path = jones.expectation_path(
            jones.diagonal_spec(3), jones.rotated_diagonal_spec(3, 0.3), 3)
        for apply in (path.end0.expect, lambda x: path.expect(0.5, x),
                      lambda x: path.transport(0.5, x)):
            with pytest.raises(DimensionMismatch, match="x must be 3 x 3, got 2 x 2"):
                apply(np.eye(2))

    def test_endpoint_is_the_last_state(self):
        # the same RK4 steps, with one state held instead of steps + 1
        path = conjugated_tensor_path(2, 2, np.random.default_rng(52))
        rng = np.random.default_rng(53)
        x0 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        _, states = jones.transport_ode_solve(path, x0, 300)
        end = jones.transport_ode_endpoint(path, x0, 300)
        assert pg.operator_norm(end - states[-1]) <= 1e-14 * pg.operator_norm(states[-1])

    @pytest.mark.parametrize("steps", [100, 257, 1000, 4097, 10000])
    @pytest.mark.parametrize("which", ["eighth turn", "tensor 2x3"])
    def test_doubling_matches_the_stepwise_loop(self, which, steps):
        rng = np.random.default_rng(66)
        path = eighth_turn_path() if which == "eighth turn" else conjugated_tensor_path(2, 3, rng)
        n = path.n
        x0 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        _, states = jones.transport_ode_solve(path, x0, steps)
        ref = stepwise_rk4(path, x0, steps)
        # where long double is double, the reference's own rounding is steps eps
        bound = (1e-13 + steps * np.finfo(np.clongdouble).eps) * pg.operator_norm(x0)
        assert np.linalg.norm(states - ref, 2, axis=(1, 2)).max() <= bound
        # the same powers in the same nesting, but a single vector goes
        # through BLAS gemv where the solve's rows go through gemm
        end = jones.transport_ode_endpoint(path, x0, steps)
        assert pg.operator_norm(end - states[-1]) <= 1e-14 * pg.operator_norm(states[-1])

    def test_endpoint_memory_does_not_grow_with_the_steps(self):
        path = conjugated_tensor_path(2, 3, np.random.default_rng(67))
        x0 = np.random.default_rng(68).normal(size=(6, 6))
        jones.transport_ode_endpoint(path, x0, 100)
        peaks = {}
        for steps in (100, 10000):
            tracemalloc.start()
            try:
                jones.transport_ode_endpoint(path, x0, steps)
                peaks[steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # all 10,001 states of m = 6 coordinates would take 960 kB
        assert peaks[10000] <= peaks[100] + 1024, peaks

    def test_cli_forms_only_the_final_state(self, monkeypatch, capsys):
        monkeypatch.setattr(jones, "transport_ode_solve", None)
        assert cli.main(["transport", "--n", "3", "--spec0", "diagonal",
                         "--spec1", "rotated:0.3", "--steps", "200", "--trials", "2"]) == 0

    def test_fourth_order_convergence(self):
        # errors at 1000+ steps sit at the rounding floor for this model,
        # so the order is measured where the h^4 term still dominates
        path = eighth_turn_path()
        rng = np.random.default_rng(50)
        x0 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        exact = path.transport(1.0, x0)
        errs = {}
        for steps in (100, 200):
            _, states = jones.transport_ode_solve(path, x0, steps)
            errs[steps] = pg.operator_norm(states[-1] - exact)
        ratio = errs[100] / errs[200]
        assert 8 <= ratio <= 32

    def test_member_of_initial_algebra_stays_in_moving_algebra(self):
        path = eighth_turn_path()
        x0 = np.diag([2.0, -0.5]).astype(complex)
        times, states = jones.transport_ode_solve(path, x0, 400)
        for idx in (100, 250, 400):
            t, state = times[idx], states[idx]
            proj = path.expect(t, state)
            assert pg.operator_norm(proj - state) < 1e-9


class TestMatrixFreeSolver:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("theta", [0.0, np.pi / 8])
    @pytest.mark.parametrize("seed", [60, 61])
    def test_matches_the_dense_generator(self, n, theta, seed):
        path = jones.expectation_path(
            jones.diagonal_spec(n), jones.rotated_diagonal_spec(n, theta), n)
        rng = np.random.default_rng(seed)
        x0 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        times, states = jones.transport_ode_solve(path, x0, 200)
        ref_times, ref = dense_rk4(path, x0, 200)
        assert states.shape == ref.shape == (201, n, n)
        assert np.array_equal(times, ref_times)
        assert np.abs(states - ref).max() <= 1e-12

    @pytest.mark.parametrize("k, m, seed", [(2, 3, 63), (4, 2, 64)])
    def test_matches_the_dense_generator_beyond_rank_two(self, k, m, seed):
        n = k * m
        rng = np.random.default_rng(seed)
        path = conjugated_tensor_path(k, m, rng)
        assert path.z.spectrum[0].size > 2
        x0 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        _, states = jones.transport_ode_solve(path, x0, 200)
        _, ref = dense_rk4(path, x0, 200)
        assert states.shape == ref.shape == (201, n, n)
        assert np.abs(states - ref).max() <= 1e-12

    @pytest.mark.parametrize("which", ["rotated diagonal", "tensor 2x3"])
    def test_generator_vanishes_off_the_span(self, which):
        # the solver carries x0 - V V* x0 unchanged, which holds because the
        # dense generator annihilates every vector orthogonal to span V
        rng = np.random.default_rng(65)
        if which == "tensor 2x3":
            path = conjugated_tensor_path(2, 3, rng)
        else:
            path = jones.expectation_path(
                jones.diagonal_spec(3), jones.rotated_diagonal_spec(3, np.pi / 8), 3)
        v = path.z.spectrum[1]
        dim = path.n ** 2
        x = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        x -= v @ (adj(v) @ x)
        x /= np.linalg.norm(x)
        assert np.abs(adj(v) @ x).max() < 1e-14
        for t in (0.0, 0.5, 1.0):
            assert np.linalg.norm(dense_generator(path, t) @ x) < 1e-13

    def test_generator_is_never_formed(self, monkeypatch):
        calls = record_kernels(monkeypatch)
        real_apply = geo.GeodesicExponent.apply

        def apply(self, t, b):
            calls.append(("apply", b.shape))
            return real_apply(self, t, b)

        monkeypatch.setattr(geo.GeodesicExponent, "apply", apply)
        path = eighth_turn_path()
        jones.transport_ode_solve(path, np.diag([1.0, -1.0]), 200)
        # the ends are built from the orthonormal bases of their spans, the
        # exponent from the spectrum its position holds and its residuals
        # from thin factors: no eigh, and neither a factorization of an
        # n^2 x n^2 matrix nor e^Z applied to n^2 columns (the unitary)
        names = [name for name, _ in calls]
        assert "eigh" not in names
        assert all(min(shape) < path.n ** 2 for _, shape in calls), calls

    def test_five_by_five(self):
        n = 5  # Hilbert-Schmidt dimension 25
        path = jones.expectation_path(
            jones.diagonal_spec(n), jones.rotated_diagonal_spec(n, np.pi / 8), n)
        rng = np.random.default_rng(62)
        x0 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        _, states = jones.transport_ode_solve(path, x0, 200)
        for t in (0.5, 1.0):
            gx = path.transport(t, x0)
            assert abs(np.linalg.norm(gx) - np.linalg.norm(x0)) <= 1e-12 * np.linalg.norm(x0)
        assert pg.operator_norm(states[-1] - path.transport(1.0, x0)) <= 1e-6


class TestPropagatorChecks:
    def test_zero_time_is_exact(self):
        path = eighth_turn_path()
        rng = np.random.default_rng(51)
        xs = [rng.normal(size=(2, 2)) for _ in range(2)]
        rep = jones.propagator_checks(path, (0.0,), xs)
        assert rep.max() < 1e-12

    def test_no_test_matrices(self):
        rep = jones.propagator_checks(eighth_turn_path(), (0.5,), [])
        assert rep.intertwine == 0.0
        assert rep.max() < 1e-12

    def test_rejects_test_matrices_of_another_size(self, monkeypatch):
        path = jones.expectation_path(
            jones.diagonal_spec(3), jones.rotated_diagonal_spec(3, 0.3), 3)
        gammas = []
        monkeypatch.setattr(jones, "_gamma", lambda *args: gammas.append(args))
        with pytest.raises(DimensionMismatch,
                           match="test matrices must be 3 x 3, got 2 x 2"):
            jones.propagator_checks(path, (0.5,), [np.eye(3), np.eye(2)])
        assert gammas == []

    def test_one_multiplicativity_norm_per_time(self, monkeypatch):
        # r = 6 members and one projected test matrix: the 49 products fit
        # one block, so each time takes the intertwining, star and
        # multiplicativity residuals as one stacked norm each
        n, ts = 6, (0.25, 0.5, 0.75)
        path = jones.expectation_path(
            jones.diagonal_spec(n), jones.rotated_diagonal_spec(n, 0.4), n)
        shapes = []
        real = jones.operator_norm

        def counting(stack):
            shapes.append(np.shape(stack))
            return real(stack)

        monkeypatch.setattr(jones, "operator_norm", counting)
        x = np.random.default_rng(55).normal(size=(n, n))
        jones.propagator_checks(path, ts, [x])
        assert shapes == [(1, n, n), (7, n, n), (49, n, n)] * len(ts)

    def test_matrix_unit_multiplicativity(self):
        path = eighth_turn_path()
        e11 = np.zeros((2, 2), dtype=complex)
        e11[0, 0] = 1.0
        t = 0.5
        lhs = path.transport(t, e11 @ e11)
        rhs = path.transport(t, e11) @ path.transport(t, e11)
        assert pg.operator_norm(lhs - rhs) < 1e-8

    def test_report_residuals_small_on_interior_times(self):
        path = eighth_turn_path()
        rng = np.random.default_rng(52)
        xs = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
              for _ in range(3)]
        rep = jones.propagator_checks(path, (0.25, 0.75), xs)
        assert rep.max() < 1e-8

    def test_transport_preserves_spectrum_of_members(self):
        path = eighth_turn_path()
        rng = np.random.default_rng(53)
        for t in (0.25, 0.75):
            x = np.diag(rng.normal(size=2)).astype(complex)  # Hermitian in N_0
            y = path.transport(t, x)
            assert pg.operator_norm(y - adj(y)) < 1e-8
            assert np.allclose(np.linalg.eigvalsh(y), np.linalg.eigvalsh(x),
                               atol=1e-8)

    def test_batched_residuals_equal_the_per_matrix_loop(self, monkeypatch):
        n = 3
        path = jones.expectation_path(
            jones.diagonal_spec(n), jones.rotated_diagonal_spec(n, 0.4), n)
        rng = np.random.default_rng(54)
        xs = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
              for _ in range(2)]
        members = [path.end0.basis[:, j].reshape(n, n)
                   for j in range(path.end0.basis.shape[1])]
        members += [path.end0.expect(x) for x in xs]
        ts = (0.25, 0.75)
        mult = star = 0.0
        for t in ts:
            for a in members:
                ga = path.transport(t, a)
                star = max(star, pg.operator_norm(path.transport(t, adj(a)) - adj(ga)))
                for b in members:
                    mult = max(mult, pg.operator_norm(
                        path.transport(t, a @ b) - ga @ path.transport(t, b)))
        rep = jones.propagator_checks(path, ts, xs)
        assert abs(rep.multiplicative - mult) <= 1e-14 * max(1.0, mult)
        assert abs(rep.star - star) <= 1e-14 * max(1.0, star)
        z, p0 = path.z.z, path.end0.big.m
        codiag = pg.operator_norm(z @ p0 + p0 @ z - z)
        # the exponent's codiagonality is a certified bound; forced to the
        # exact report, it is the dense value
        assert codiag <= rep.codiagonal <= geo.ENDPOINT_ATOL / 2
        force_exact(monkeypatch)
        exact = jones.expectation_path(
            jones.diagonal_spec(n), jones.rotated_diagonal_spec(n, 0.4), n)
        rep = jones.propagator_checks(exact, ts, xs)
        assert abs(rep.codiagonal - codiag) <= 1e-14 * max(1.0, codiag)
