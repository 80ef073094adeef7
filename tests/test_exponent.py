"""The exponent owns what is computed from z: the residual report, made
once and returned as stored by verify_geodesic, and the unitary group
e^{tz}, taken from one spectrum shared by the report, every geodesic
point, transport and ODE generator of a path. A constructed exponent
reads its thin spectrum off the position, with no eigendecomposition; a z
off skew is reported through a general matrix exponential. The default
wedge witness is read from the position's wedge bases. Blockwise exponents
build one position per block and embed the blocks' thin spectra."""

import json

import numpy as np
import pytest
import scipy.linalg

import projgeo as pg
from projgeo import cli, factor, geo, jones, projlat, sampling
from projgeo.errors import NotSkewHermitian

from _helpers import KERNELS, adj, record_kernels, rotation_pair

def count_kernels(monkeypatch, kernels=KERNELS):
    calls = []
    for module, name in kernels:
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_verify_geodesic_returns_the_stored_report(monkeypatch):
    p, q, _ = sampling.structured_pair(1, 1, 2, 2, [0.3, 1.1], np.random.default_rng(8))
    g = pg.minimal_exponent(p, q)
    calls = count_kernels(monkeypatch)
    res = pg.verify_geodesic(g)
    assert calls == []  # the check inside minimal_exponent made the report
    assert res is g.residuals
    assert res.max() < geo.ENDPOINT_ATOL


def test_z_is_a_read_only_copy():
    p, q = rotation_pair(0.4)
    z = pg.minimal_exponent(p, q).z.copy()
    g = geo.GeodesicExponent(z=z, p=p, q=q)
    with pytest.raises(ValueError):
        g.z[0, 1] = 0.0
    z[0, 1] = 0.0  # the caller's array is not frozen, nor seen by g
    assert g.z[0, 1] != 0.0


def test_unitary_is_the_matrix_exponential():
    p, q, _ = sampling.structured_pair(0, 1, 1, 1, [0.7], np.random.default_rng(9))
    g = pg.minimal_exponent(p, q)
    for t in (-0.5, 0.25, 1.0):
        assert pg.operator_norm(g.unitary(t) - scipy.linalg.expm(t * g.z)) < 1e-12


def test_geodesic_point_rejects_a_non_skew_exponent():
    p, q = rotation_pair(0.4)
    g = pg.minimal_exponent(p, q)
    bad = geo.GeodesicExponent(z=g.z + 1e-3 * np.eye(2), p=p, q=q)
    for t in (0.0, 0.5):
        with pytest.raises(NotSkewHermitian):
            geo.geodesic_point(bad, t)


def test_one_eigendecomposition_per_path(monkeypatch):
    n = 4
    calls = record_kernels(monkeypatch)
    path = jones.expectation_path(
        jones.diagonal_spec(n), jones.rotated_diagonal_spec(n, 0.4), n)
    x0 = np.random.default_rng(10).normal(size=(n, n))
    for t in (0.25, 0.5, 1.0):
        path.transport(t, x0)
    for t in (0.3, 0.7):
        path.projection_at(t)
    _, states = jones.transport_ode_solve(path, x0, 100)
    # the ends are built from the orthonormal bases of their spans, the
    # exponent from the spectrum its position holds, and its residuals from
    # thin factors: no eigh, and no n^2 x n^2 matrix is factored
    assert "eigh" not in [name for name, _ in calls]
    assert all(min(shape) < n * n for _, shape in calls), calls
    assert pg.operator_norm(states[-1] - path.transport(1.0, x0)) < 1e-6


def test_blockwise_exponent_builds_one_position_per_block(monkeypatch):
    built = []
    real = projlat.position

    def counting(p, q):
        built.append((p, q))
        return real(p, q)

    monkeypatch.setattr(projlat, "position", counting)
    alg = factor.FiniteAlgebra(blocks=(2, 2), weights=(0.5, 0.5))
    pm = np.zeros((4, 4), dtype=complex)
    qm = np.zeros((4, 4), dtype=complex)
    for i, sl in enumerate(alg.slices()):
        bp, bq = rotation_pair(0.3 + 0.5 * i)
        pm[sl, sl] = bp.m
        qm[sl, sl] = bq.m
    g = factor.blockwise_minimal_exponent(alg, pg.make_projection(pm),
                                          pg.make_projection(qm))
    assert len(built) == 2
    assert pg.verify_geodesic(g).max() < geo.ENDPOINT_ATOL


def test_blockwise_exponent_embeds_the_block_spectra(monkeypatch):
    alg = factor.FiniteAlgebra(blocks=(2, 3), weights=(0.4, 0.6))
    rng = np.random.default_rng(11)
    pm = np.zeros((5, 5), dtype=complex)
    qm = np.zeros((5, 5), dtype=complex)
    blocks = [rotation_pair(0.7), sampling.structured_pair(0, 1, 1, 1, [], rng)[:2]]
    for sl, (bp, bq) in zip(alg.slices(), blocks):
        pm[sl, sl] = bp.m
        qm[sl, sl] = bq.m
    p, q = pg.make_projection(pm), pg.make_projection(qm)
    calls = record_kernels(monkeypatch)
    g = factor.blockwise_minimal_exponent(alg, p, q)
    # only the per-block make_projection calls factor a block, each with
    # one pivoted Cholesky; nothing factors the 5 x 5 matrices, and no
    # eigh runs
    blockwise = [call for call in calls if call[0] == "zpstrf"]
    assert sorted(blockwise) == [("zpstrf", (2, 2))] * 2 + [("zpstrf", (3, 3))] * 2
    assert "eigh" not in [name for name, _ in calls]
    assert all(min(shape) < 5 for _, shape in calls), calls
    w, v = g.spectrum
    assert v.shape == (5, w.size) and w.size == 4
    dense = np.zeros((5, 5), dtype=complex)
    for sl, (bp, bq) in zip(alg.slices(), blocks):
        dense[sl, sl] = pg.minimal_exponent(bp, bq).z
    assert np.abs(g.z - dense).max() <= 1e-14
    assert pg.verify_geodesic(g).max() < geo.ENDPOINT_ATOL


def test_geodesic_report_keeps_the_residual_keys(tmp_path, capsys):
    p, q = rotation_pair(np.pi / 5)
    pf, qf = tmp_path / "p.json", tmp_path / "q.json"
    cli.write_matrix(pf, p.m)
    cli.write_matrix(qf, q.m)
    assert cli.main(["--json", "geodesic", str(pf), str(qf)]) == 0
    res = json.loads(capsys.readouterr().out)["results"]["residuals"]
    want = pg.verify_geodesic(pg.minimal_exponent(p, q))
    assert res == {"skewness": want.skewness, "codiagonality": want.codiagonality,
                   "norm_bound": want.norm_bound, "endpoint": want.endpoint}


def expm_endpoint(g):
    z = g.z
    return pg.operator_norm(
        scipy.linalg.expm(z) @ g.p.m @ scipy.linalg.expm(-z) - g.q.m)


def test_spectrum_endpoint_equals_the_general_exponential():
    rng = np.random.default_rng(11)
    for n in (3, 6, 9):
        p, q, _ = sampling.random_pair(n, rng, force_wedge=True)
        g = pg.minimal_exponent(p, q)
        # the constructed exponent's endpoint is a certified bound; the same
        # spectrum passed to from_spectrum gets the exact report
        assert expm_endpoint(g) <= g.residuals.endpoint <= geo.ENDPOINT_ATOL
        exact = geo.GeodesicExponent.from_spectrum(*g.spectrum, p, q)
        # an arbitrary skew z, so that the endpoint residual is far from 0
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        other = geo.GeodesicExponent(z=(h - adj(h)) / 4, p=p, q=q)
        for e in (g, exact, other):
            if e is not g:
                assert e.residuals.endpoint == pytest.approx(expm_endpoint(e), abs=1e-12)
            assert e.residuals.norm_bound == pytest.approx(
                max(0.0, pg.operator_norm(e.z) - np.pi / 2), abs=1e-12)
        assert other.residuals.endpoint > 0.1


def test_non_skew_exponent_gets_a_general_exponential_report(monkeypatch):
    p, q = rotation_pair(0.4)
    g = pg.minimal_exponent(p, q)
    bad = geo.GeodesicExponent(z=g.z + 1e-3 * np.eye(2), p=p, q=q)
    calls = count_kernels(monkeypatch)
    res = pg.verify_geodesic(bad)
    assert calls.count("expm") == 2 and "eigh" not in calls
    assert res.skewness == pytest.approx(2e-3, rel=1e-9)
    assert res.endpoint == expm_endpoint(bad)
    with pytest.raises(NotSkewHermitian):
        bad.spectrum


@pytest.mark.parametrize("n", range(4, 33, 4))
def test_default_witness_is_the_pivoted_partial_isometry(n):
    rng = np.random.default_rng(70 + n)
    for _ in range(4):
        p, q, _ = sampling.random_pair(n, rng, force_wedge=True)
        pos = projlat.position(p, q)
        w = pg.partial_isometry(pos.e10, pos.e01)
        assert pg.operator_norm(
            geo.position_exponent(pos).z - geo.position_exponent(pos, w).z) <= 1e-12


def test_default_exponent_equals_that_of_the_default_witness():
    # one wedge construction: the default witness is this partial isometry,
    # taken by its polar part like a supplied one when a wedge plane is turned
    rng = np.random.default_rng(12)
    pairs = [sampling.random_pair(12, rng, force_wedge=True)[:2] for _ in range(8)]
    pairs.append(sampling.structured_pair(0, 0, 1, 1, [np.pi / 2 - 1e-5, 0.7], rng)[:2])
    for p, q in pairs:
        pos = projlat.position(p, q)
        w = pg.partial_isometry(pos.e10, pos.e01)
        assert np.array_equal(geo.position_exponent(pos).z, geo.position_exponent(pos, w).z)


def wedge_block(a, theta):
    """p, q in M_4 with p^q' spanned by cos(a) f0 + sin(a) f1, p'^q by its
    rotation -sin(a) f0 + cos(a) f1, and one generic plane at theta."""
    s = np.array([np.cos(a), np.sin(a), 0, 0])
    t = np.array([-np.sin(a), np.cos(a), 0, 0])
    g = np.array([0, 0, np.cos(theta), np.sin(theta)])
    f2 = np.array([0, 0, 1.0, 0])
    return np.outer(s, s) + np.outer(f2, f2), np.outer(t, t) + np.outer(g, g)


def test_block_diagonal_pair_gets_a_block_diagonal_exponent():
    # block a on the even coordinates and block b on the odd ones, so that
    # eigh mixes the blocks in a degenerate eigenspace; distinct wedge
    # weights make the QR pivots, and so the witness's pairing of source
    # and target vectors, free of ties
    (pa, qa), (pb, qb) = wedge_block(0.3, 0.5), wedge_block(0.6, 1.1)
    a, b = np.arange(0, 8, 2), np.arange(1, 8, 2)
    pm, qm = np.zeros((8, 8)), np.zeros((8, 8))
    for idx, pblock, qblock in ((a, pa, qa), (b, pb, qb)):
        pm[np.ix_(idx, idx)], qm[np.ix_(idx, idx)] = pblock, qblock
    p, q = pg.make_projection(pm), pg.make_projection(qm)
    g = pg.minimal_exponent(p, q)
    assert projlat.position(p, q).ranks() == (0, 0, 2, 2, 4)
    assert np.abs(g.z[np.ix_(a, b)]).max() <= 1e-12
    assert np.abs(g.z[np.ix_(b, a)]).max() <= 1e-12


def zero_exponent_cases():
    rng = np.random.default_rng(12)
    p = sampling.random_projection(5, 2, rng)
    yield p, p
    p, q, _ = sampling.structured_pair(2, 3, 0, 0, [], rng)  # meet and complement only
    yield p, q


def test_zero_exponent_has_an_empty_spectrum():
    for p, q in zero_exponent_cases():
        g = pg.minimal_exponent(p, q)
        w, v = g.spectrum
        assert w.size == 0 and v.shape == (p.n, 0)
        for t in (-0.5, 0.25, 1.0):
            assert np.array_equal(g.unitary(t), np.eye(p.n))
        assert g.residuals.norm_bound == 0.0
        for rho in (1.0, 2.0):
            assert pg.rho_length(g, rho) == 0.0
        assert pg.operator_norm(pg.geodesic_point(g, 0.5).m - p.m) <= 1e-12


def test_trivial_path_has_an_empty_spectrum():
    n = 3
    path = jones.expectation_path(jones.diagonal_spec(n), jones.diagonal_spec(n), n)
    assert path.z.spectrum[0].size == 0
    x0 = np.random.default_rng(13).normal(size=(n, n)) + 0j
    _, states = jones.transport_ode_solve(path, x0, 100)
    assert all(np.array_equal(s, x0) for s in states)


def explicit_exponent(pos, v):
    """The exponent as a sum of generator matrices: the rotation of each
    generic plane plus i(pi/2)(v + v*) on the wedge parts."""
    th, x, u = pos.angles, pos.x, pos.u
    return (u * th) @ adj(x) - (x * th) @ adj(u) + 1j * (np.pi / 2) * (v + adj(v))


@pytest.mark.parametrize("n11, n00, wedge, k", [
    (0, 0, 0, 3), (2, 1, 0, 2), (0, 0, 2, 0), (1, 2, 1, 3), (3, 3, 4, 9)])
@pytest.mark.parametrize("seed", [14, 15])
def test_thin_spectrum_reproduces_z(n11, n00, wedge, k, seed):
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.05, np.pi / 2 - 0.05, size=k)
    p, q, _ = sampling.structured_pair(n11, n00, wedge, wedge, angles, rng)
    pos = projlat.position(p, q)
    witnesses = [None] + [pg.partial_isometry(pos.e10, pos.e01, seed=s)
                          for s in (1, 2) if wedge]
    for wit in witnesses:
        g = geo.position_exponent(pos, wit)
        w, v = g.spectrum
        assert w.size == 2 * (k + wedge)
        assert np.abs(adj(v) @ v - np.eye(w.size)).max() <= 1e-12
        assert np.abs(1j * g.z - (v * w) @ adj(v)).max() <= 1e-12
        for t in (-0.5, 0.25, 1.0):
            assert pg.operator_norm(g.unitary(t) - scipy.linalg.expm(t * g.z)) <= 1e-12
        vw = (pg.partial_isometry(pos.e10, pos.e01) if wit is None else wit).w
        assert pg.operator_norm(g.z - explicit_exponent(pos, vw)) <= 1e-12
