"""The residual report of a skew exponent is read off thin factors: each
field is an operator norm, checked here against the dense formulas
||z S + S z|| and ||e^z p e^-z - q||, on constructed and arbitrary
exponents and at near-threshold angles, which the exponent turns by
their angle whatever their class. A constructed exponent's endpoint and
codiagonality are certified upper bounds, which lie between the dense
values and ENDPOINT_ATOL; with the certificate forced to nan the exact
report measures them. A thin-born exponent forms z only when z is read, a
geodesic point needs no n x n unitary, rho-lengths under a trace need no
n x n product, and a pair's position is built once and retained at most
once."""

import gc
import logging
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import projgeo as pg
from projgeo import factor, geo, numkit, projlat, sampling
from projgeo.errors import NotMember

from _helpers import adj, force_exact, record_kernels


def dense_codiagonality(g):
    sym = 2 * g.p.m - np.eye(g.p.n)
    return pg.operator_norm(g.z @ sym + sym @ g.z)


def dense_endpoint(g):
    return pg.operator_norm(
        scipy.linalg.expm(g.z) @ g.p.m @ scipy.linalg.expm(-g.z) - g.q.m)


def assert_matches_dense(g, atol=1e-12):
    res = g.residuals
    assert res.skewness == 0.0
    assert res.codiagonality == pytest.approx(dense_codiagonality(g), abs=atol)
    assert res.endpoint == pytest.approx(dense_endpoint(g), abs=atol)
    assert res.norm_bound == pytest.approx(
        max(0.0, pg.operator_norm(g.z) - np.pi / 2), abs=atol)


def assert_bounds_dense(g):
    """A certified report: each bound lies between its dense value and
    ENDPOINT_ATOL, and the skewness and norm excess are exact."""
    res = g.residuals
    assert dense_endpoint(g) <= res.endpoint <= geo.ENDPOINT_ATOL
    assert dense_codiagonality(g) <= res.codiagonality <= geo.ENDPOINT_ATOL
    assert res.skewness == 0.0
    assert res.norm_bound == pytest.approx(
        max(0.0, pg.operator_norm(g.z) - np.pi / 2), abs=1e-12)


def random_skew_exponent(p, q, m, rng):
    """An arbitrary thin-born exponent: m random orthonormal vectors with
    eigenvalues in (-2, 2), so that every residual is far from 0."""
    g = rng.normal(size=(p.n, m)) + 1j * rng.normal(size=(p.n, m))
    v = np.linalg.qr(g)[0]
    return geo.GeodesicExponent.from_spectrum(rng.uniform(-2, 2, size=m), v, p, q)


@pytest.mark.parametrize("n", [3, 5, 8, 13, 21, 40])
def test_constructed_residuals_match_the_dense_formulas(n, monkeypatch):
    rng = np.random.default_rng(80 + n)
    pairs = [sampling.random_pair(n, rng, force_wedge=(i % 2 == 0))[:2] for i in range(4)]
    pairs = [(p, q) for p, q in pairs if projlat.position(p, q).exists()]
    for p, q in pairs:
        assert_bounds_dense(pg.minimal_exponent(p, q))
    force_exact(monkeypatch)
    for p, q in pairs:
        g = pg.minimal_exponent(p, q)
        assert_matches_dense(g)
        assert g.residuals.max() < geo.ENDPOINT_ATOL


@st.composite
def structured_exponents(draw):
    """A constructed exponent of a structured pair: mixed part ranks,
    wedges, angles in [0.05, pi/2 - 0.05] or clustered within 1e-6 of one
    another, and the default or a seeded witness."""
    n11, n00, wedge = (draw(st.integers(0, 3)) for _ in range(3))
    angle = st.floats(0.05, np.pi / 2 - 0.05)
    if draw(st.booleans()):
        angles = draw(st.lists(angle, max_size=5))
    else:
        base, count = draw(angle), draw(st.integers(2, 4))
        angles = [base + 1e-6 * i / count for i in range(count)]
    if n11 + n00 + 2 * wedge + len(angles) == 0:
        n11 = 1
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    p, q, _ = sampling.structured_pair(n11, n00, wedge, wedge, angles, rng)
    pos = projlat.position(p, q)
    seed = draw(st.none() | st.integers(1, 1000)) if wedge else None
    w = None if seed is None else geo.partial_isometry(pos.e10, pos.e01, seed=seed)
    return geo.position_exponent(pos, w)


@settings(max_examples=60, deadline=None, database=None)
@given(structured_exponents())
def test_certified_report_lies_between_the_dense_values_and_the_contract(g):
    assert_bounds_dense(g)


def test_a_settled_pair_logs_nothing(caplog):
    p, q, _ = sampling.structured_pair(2, 1, 1, 1, [0.4, 1.1], np.random.default_rng(3))
    with caplog.at_level(logging.DEBUG, logger="projgeo"):
        pg.minimal_exponent(p, q)
    assert caplog.records == []


def test_a_near_threshold_pair_logs_only_a_fallback(caplog, monkeypatch):
    # the plane at 1e-5, classified into the meet, is turned by its angle:
    # the certificate settles the report and nothing is logged; with the
    # certificate forced to nan the exact report runs after one DEBUG record
    p, q, _ = sampling.structured_pair(1, 1, 0, 0, [1e-5, 0.7], np.random.default_rng(3))
    with caplog.at_level(logging.DEBUG, logger="projgeo"):
        assert_bounds_dense(pg.minimal_exponent(p, q))
    assert caplog.records == []
    force_exact(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="projgeo"):
        g = pg.minimal_exponent(p, q)
    assert [r.levelno for r in caplog.records] == [logging.DEBUG]
    assert "exponent certificate" in caplog.text
    assert g.residuals.max() < geo.ENDPOINT_ATOL
    assert_matches_dense(g, atol=1e-14)


@pytest.mark.parametrize("n", [3, 6, 11, 24, 40])
def test_arbitrary_skew_residuals_match_the_dense_formulas(n):
    rng = np.random.default_rng(90 + n)
    for rank_p, rank_q in ((n // 2, n // 2), (1, n - 1), (n - 1, 1), (0, 2), (n, 1)):
        p = sampling.random_projection(n, rank_p, rng)
        q = sampling.random_projection(n, rank_q, rng)
        for m in (1, min(n, 4), n):
            g = random_skew_exponent(p, q, m, rng)
            assert_matches_dense(g)
        # and a skew z given densely, whose spectrum is one eigh
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert_matches_dense(geo.GeodesicExponent(z=(h - adj(h)) / 4, p=p, q=q))
        if rank_p != rank_q:
            assert g.residuals.endpoint == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("theta", [1e-7, 1e-5, 1e-3, 1.3e-3,
                                   np.pi / 2 - 1e-3, np.pi / 2 - 1e-6])
def test_near_threshold_endpoint_matches_the_dense_formula(theta, monkeypatch):
    # a plane absorbed into a meet or wedge is still turned by its angle:
    # the certificate settles the report, and the exact report verifies
    # and matches the dense formulas
    p, q, _ = sampling.structured_pair(1, 1, 0, 0, [theta, 0.7],
                                       np.random.default_rng(3))
    assert_bounds_dense(pg.minimal_exponent(p, q))
    force_exact(monkeypatch)
    g = pg.minimal_exponent(p, q)
    assert g.residuals.max() < geo.ENDPOINT_ATOL
    assert_matches_dense(g, atol=1e-14)


@pytest.mark.parametrize("theta", [1e-11, 3e-9, np.pi / 2 - 3e-9])
def test_a_plane_absorbed_within_the_contract_is_certified_above_its_miss(
        theta, monkeypatch):
    # within 1e-10 of 0 the plane is held, and the endpoint misses by about
    # sin(theta), below ENDPOINT_ATOL, which the certified bound carries;
    # farther in it is turned by its angle and misses by rounding only
    p, q, _ = sampling.structured_pair(1, 1, 0, 0, [theta, 0.7], np.random.default_rng(3))
    g = pg.minimal_exponent(p, q)
    assert_bounds_dense(g)
    miss = min(np.sin(theta), np.cos(theta))
    if miss <= 1e-10:
        assert g.residuals.endpoint >= miss
    else:
        assert dense_endpoint(g) <= 1e-3 * miss
    force_exact(monkeypatch)
    assert_matches_dense(pg.minimal_exponent(p, q), atol=1e-14)


def test_thin_residuals_factor_no_square_matrix(monkeypatch):
    rng = np.random.default_rng(95)
    p, q, _ = sampling.structured_pair(2, 3, 2, 2, [0.3, 0.8, 1.2], rng)
    pos = projlat.position(p, q)
    # a settled report: the certificate takes gemms only, and the default
    # witness's pivoted QRs (scipy's, not recorded) are the only factorizations
    calls = record_kernels(monkeypatch, [(np.linalg, name) for name in (
        "eigh", "eigvalsh", "svd", "qr")] + [(scipy.linalg, "expm")])
    settled = geo.position_exponent(pos)
    assert calls == []
    assert settled.residuals.max() < geo.ENDPOINT_ATOL
    assert "z" not in vars(settled)
    # the exact report of the same spectrum, which a caller's from_spectrum gets
    w, v = settled.spectrum
    g = geo.GeodesicExponent.from_spectrum(w, v, p, q)
    calls = record_kernels(monkeypatch)
    res = g.residuals
    assert res.max() < geo.ENDPOINT_ATOL
    names = [name for name, _ in calls]
    assert "eigvalsh" in names and "qr" in names
    assert "svd" not in names and "eigh" not in names and "expm" not in names
    assert all(min(shape) < p.n for _, shape in calls), calls
    assert "z" not in vars(g)  # the report did not form the dense z


def test_thin_born_z_is_formed_on_first_read():
    rng = np.random.default_rng(96)
    p, q, _ = sampling.structured_pair(1, 1, 1, 1, [0.4, 1.0], rng)
    w, v = pg.minimal_exponent(p, q).spectrum
    g = geo.GeodesicExponent.from_spectrum(w, v, p, q)
    assert g.skewness == 0.0 and "z" not in vars(g)
    z = g.z
    assert g.z is z and not z.flags.writeable
    assert np.array_equal(z + adj(z), np.zeros_like(z))
    assert np.abs(1j * z - (v * w) @ adj(v)).max() <= 1e-14
    with pytest.raises(AttributeError):
        g.z = z


def test_geodesic_point_forms_no_unitary(monkeypatch):
    # a position-built exponent rotates its planes and certifies the Gram
    # residual: it neither applies e^{tz} to p's basis nor measures the
    # Gram; an exponent given densely does both
    rng = np.random.default_rng(97)
    p, q, _ = sampling.structured_pair(2, 1, 1, 1, [0.5, 1.1], rng)
    g = pg.minimal_exponent(p, q)
    dense = geo.GeodesicExponent(g.z, p, q)
    calls = []

    def counted(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(geo.GeodesicExponent, "apply",
                        counted("apply", geo.GeodesicExponent.apply))
    monkeypatch.setattr(numkit, "orthonormality_residual",
                        counted("gram", numkit.orthonormality_residual))
    for t in (-0.3, 0.5, 1.0):
        e = scipy.linalg.expm(t * g.z)
        for exponent, expected in ((g, []), (dense, ["apply", "gram"])):
            calls.clear()
            point = pg.geodesic_point(exponent, t)
            assert calls == expected
            assert pg.operator_norm(point.m - e @ p.m @ adj(e)) <= 1e-12
            assert point.rank == p.rank


def test_a_point_whose_bound_cannot_settle_measures_its_gram(caplog, monkeypatch):
    p, q, _ = sampling.structured_pair(2, 1, 1, 1, [0.5, 1.1], np.random.default_rng(97))
    settled = pg.geodesic_point(pg.minimal_exponent(p, q), 0.5)
    force_exact(monkeypatch)
    g = pg.minimal_exponent(p, q)
    with caplog.at_level(logging.DEBUG, logger="projgeo"):
        point = pg.geodesic_point(g, 0.5)
    assert [r.levelno for r in caplog.records] == [logging.DEBUG]
    assert "geodesic point's Gram bound" in caplog.text
    assert point.basis_residual == numkit.orthonormality_residual(point.basis, 1e-8)
    assert point.basis_residual <= settled.basis_residual
    assert pg.operator_norm(point.m - settled.m) == 0.0


def block_pair(alg, rng):
    """A pair inside the algebra: a random pair in each block."""
    pm = np.zeros((alg.n, alg.n), dtype=complex)
    qm = np.zeros((alg.n, alg.n), dtype=complex)
    for sl, dim in zip(alg.slices(), alg.blocks):
        p, q, _ = sampling.structured_pair(0, 0, 0, 0, rng.uniform(0.2, 1.3, dim // 2), rng)
        pm[sl, sl], qm[sl, sl] = p.m, q.m
    return pg.make_projection(pm), pg.make_projection(qm)


@pytest.mark.parametrize("rho", [1.0, 2.0, 3.5])
def test_rho_length_under_a_trace_equals_the_dense_trace(rho):
    rng = np.random.default_rng(98)
    for alg in (factor.FiniteAlgebra.full(6),
                factor.FiniteAlgebra(blocks=(2, 4), weights=(0.3, 0.7))):
        p, q = block_pair(alg, rng)
        g = factor.blockwise_minimal_exponent(alg, p, q)
        tr = factor.NormalizedTrace(alg)
        w, v = g.spectrum
        dense = tr((v * np.abs(w) ** rho) @ adj(v)).real ** (1 / rho)
        assert pg.rho_length(g, rho, tr) == pytest.approx(dense, abs=1e-13)


def test_rho_length_outside_a_multi_block_algebra_is_not_a_member():
    rng = np.random.default_rng(99)
    p, q, _ = sampling.structured_pair(1, 1, 0, 0, [0.6], rng)
    g = pg.minimal_exponent(p, q)
    with pytest.raises(NotMember):
        pg.rho_length(g, 2.0, factor.NormalizedTrace(
            factor.FiniteAlgebra(blocks=(2, 2), weights=(0.5, 0.5))))
    # a single block has no off-block products to check
    value = pg.rho_length(g, 2.0, factor.NormalizedTrace(factor.FiniteAlgebra.full(4)))
    assert value == pytest.approx(0.6 / np.sqrt(2), abs=1e-12)


def test_exponent_and_distance_share_one_position(monkeypatch):
    built = []
    real = projlat.Position

    def counting(*args):
        built.append(args[:2])
        return real(*args)

    monkeypatch.setattr(projlat, "Position", counting)
    p, q, _ = sampling.random_pair(8, np.random.default_rng(100), force_wedge=True)
    pg.minimal_exponent(p, q)
    assert pg.geodesic_distance(p, q) == pytest.approx(np.pi / 2)
    assert len(built) == 1
    # another pair, or the same pair reversed, is a new position
    pg.geodesic_distance(q, p)
    assert len(built) == 2


def test_a_loop_over_pairs_retains_at_most_one_position():
    rng = np.random.default_rng(101)
    refs = []
    for _ in range(200):
        p, q, _ = sampling.random_pair(4, rng)
        pos = projlat.position(p, q)
        refs.append(weakref.ref(pos))
        if pos.exists():
            pg.minimal_exponent(p, q)
            pg.geodesic_distance(p, q)
        del p, q, pos
    gc.collect()
    assert sum(ref() is not None for ref in refs) <= 1
