"""Every valid pair ends in a verified exponent or a typed error, also at
the angles the random generators never draw: planes within 0.05 of 0 or
of pi/2 (log-uniform down to 1e-13), clusters of equal angles, mixed part
ranks, classification widths up to the cap, and expectation paths between
the diagonal and its rotation by such an angle. On the same pairs the
diagnostic battery, read off the parts' bases, agrees with the dense part
matrices."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import projgeo as pg
from projgeo import geo, jones, projlat, sampling
from projgeo.errors import NoGeodesic, TooFar
from projgeo.numkit import MAX_ATOL_SPECTRAL

from _helpers import adj, battery_rounding, part_matrices, split_residuals

RANKS = [(1, 1, 0, 0), (0, 0, 2, 2), (2, 1, 1, 1), (0, 0, 0, 0), (3, 2, 0, 0)]

near = st.floats(np.log(1e-13), np.log(0.05)).map(np.exp)


@st.composite
def near_threshold_pairs(draw):
    """A structured pair with one to three planes within 0.05 of 0 or
    pi/2, each angle drawn alone, at 1.5 times the first, or as a cluster
    of three equal angles; mixed part ranks, unequal wedges included; and
    the default width or one log-uniform in [1e-14, MAX_ATOL_SPECTRAL)."""
    ranks = draw(st.sampled_from(RANKS) | st.tuples(*[st.integers(0, 3)] * 4))
    theta = draw(near)
    angles = draw(st.sampled_from([[theta, 0.7], [theta, 1.5 * theta, 0.7], [theta] * 3]))
    if draw(st.booleans()):
        angles = [np.pi / 2 - a if a != 0.7 else a for a in angles]
    tol = pg.DEFAULT_TOL
    if draw(st.booleans()):
        width = np.exp(draw(st.floats(np.log(1e-14), np.log(MAX_ATOL_SPECTRAL),
                                      exclude_max=True)))
        tol = pg.ToleranceProfile(atol_spectral=width)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return sampling.structured_pair(*ranks, angles, rng, tol)[:2]


@settings(max_examples=120, deadline=None, database=None)
@given(near_threshold_pairs())
def test_a_near_threshold_pair_gets_a_verified_exponent_or_a_typed_error(pair):
    p, q = pair
    try:
        g = pg.minimal_exponent(p, q)
    except NoGeodesic:
        assert p.rank != q.rank
        return
    assert pg.verify_geodesic(g).max() <= geo.ENDPOINT_ATOL
    # a seeded witness of the classified wedge parts verifies too
    pos = projlat.position(p, q)
    w = geo.partial_isometry(pos.e10, pos.e01, seed=1)
    assert pg.verify_geodesic(geo.position_exponent(pos, w)).max() <= geo.ENDPOINT_ATOL


@settings(max_examples=60, deadline=None, database=None)
@given(near_threshold_pairs())
def test_the_battery_agrees_with_the_dense_parts_near_a_threshold(pair):
    # the frame of the parts' bases is square; the verdicts are those of the
    # dense part matrices, and each residual, the wedge check included, lies
    # within the frame's rounding of its dense value
    p, q = pair
    report = sampling.pair_diagnostics(p, q)
    pos = projlat.position(p, q)
    frame = np.hstack([pos.b11, pos.e00.basis, pos.b10, pos.b01, pos.x, pos.u])
    assert frame.shape == (p.n, p.n)
    mats = part_matrices(pos)
    ranks = [round(np.trace(m).real) for m in mats]
    assert report["ranks"] == ranks
    assert [e.rank for e in (pos.e11, pos.e00, pos.e10, pos.e01, pos.e0)] == ranks  # validated
    assert report["angles"] == list(pos.angles)
    assert report["exists"] == (ranks[2] == ranks[3])
    bound = battery_rounding(report, p.n)
    thin = [report[f"halmos_{k}_residual"] for k in ("sum", "pairwise", "commutator")]
    assert np.abs(np.subtract(thin, split_residuals(pos, p, q))).max() <= bound
    if not report["exists"]:
        return
    assert report["unique"] == (ranks[2] == 0)
    assert report["distance"] == (np.pi / 2 if ranks[2] else max(report["angles"], default=0.0))
    ez = scipy.linalg.expm(geo.position_exponent(pos).z)
    dense = pg.operator_norm(ez @ mats[2] @ adj(ez) - mats[3])
    assert abs(report["wedge_intertwine"] - dense) <= bound


def test_every_part_validates_at_a_narrow_width():
    # the u of a plane at 0.0149 is orthogonal to the other planes' only to
    # about eps / sin, above a part's bound at the width 1.357e-14, so e0
    # takes its basis from a QR of [x, u]
    tol = pg.ToleranceProfile(atol_spectral=1.357e-14)
    for seed in range(40):
        p, q, info = sampling.structured_pair(2, 0, 2, 1, [0.01486, 0.7],
                                              np.random.default_rng(seed), tol)
        pos = projlat.position(p, q)
        parts = [pos.e11, pos.e00, pos.e10, pos.e01, pos.e0]  # each validated
        assert tuple(e.rank for e in parts) == pos.ranks() == info["ranks"]
        v = np.hstack([pos.x, pos.u])
        assert pg.operator_norm(v - pos.e0.m @ v) <= 1e-13


@pytest.mark.parametrize("theta", [1.6e-10, 3e-10, 1e-9])
def test_planes_just_above_the_skip_cut_keep_a_certificate_at_rounding(theta):
    # the rounding of (1 - P) Y reaches the u of a plane at theta as eps / theta
    # along the other planes' u; taken off before the sine SVD, it leaves the
    # u orthonormal, and the certified endpoint at rounding
    for seed in range(4):
        p, q, _ = sampling.structured_pair(3, 2, 0, 0, [theta, 1.5 * theta, 0.7],
                                           np.random.default_rng(seed))
        assert pg.verify_geodesic(pg.minimal_exponent(p, q)).endpoint <= 1e-11
        u = projlat.position(p, q).us[:, 3:]  # the turned planes
        assert pg.operator_norm(u.conj().T @ u - np.eye(3)) <= 1e-13


@pytest.mark.parametrize("depth", [1e-9, 1e-7, 1e-4])
def test_a_witness_of_the_classified_wedge_turns_its_near_threshold_plane(depth):
    # e10 holds an exact wedge plane and one at pi/2 - depth; a witness of
    # the whole of e10 ~ e01 swaps the exact one and, from 1.25e-9 on, turns
    # the other, so two witnesses differ only on the exact wedge
    p, q, _ = sampling.structured_pair(1, 1, 1, 1, [np.pi / 2 - depth, 0.7],
                                       np.random.default_rng(3))
    pos = projlat.position(p, q)
    assert pos.ranks() == (1, 1, 2, 2, 2)
    gs = [pg.minimal_exponent(p, q, w=geo.partial_isometry(pos.e10, pos.e01, seed=s))
          for s in (None, 4)]
    for g in gs:
        assert pg.verify_geodesic(g).max() <= geo.ENDPOINT_ATOL
        ez = scipy.linalg.expm(g.z)
        assert pg.operator_norm(ez @ p.m @ ez.conj().T - q.m) < 2 * depth
        assert pg.operator_norm(g.z) == pytest.approx(np.pi / 2, abs=1e-12)
    assert pg.operator_norm(gs[0].z - gs[1].z) > 1e-3
    if depth > 1e-8:  # the near plane is turned, the same under both witnesses
        (_, x, _, u), _ = pos.split(geo.ENDPOINT_ATOL / 8)
        rot = np.hstack([x, u])
        assert pg.operator_norm((gs[0].z - gs[1].z) @ rot) < 1e-12


@pytest.mark.parametrize("depth, gap", [(1e-9, 2.93), (1e-5, 0.0)])
def test_the_seeded_gap_follows_the_uniqueness_verdict(monkeypatch, depth, gap):
    # a wedge plane at pi/2 - depth is classified, so unique is False: at
    # 1e-9 a supplied witness swaps it, at 1e-5 every witness turns it, and
    # the gap is 0 with no seeded exponent built
    p, q, _ = sampling.structured_pair(1, 1, 0, 0, [np.pi / 2 - depth, 0.7],
                                       np.random.default_rng(2))
    built, real = [], geo.position_exponent
    monkeypatch.setattr(geo, "position_exponent", lambda *args: built.append(args) or real(*args))
    report = sampling.pair_diagnostics(p, q)
    assert report["unique"] is False
    assert report["seeded_exponent_gap"] == pytest.approx(gap, abs=0.01)
    assert len(built) == (3 if gap else 1)


@settings(max_examples=12, deadline=None, database=None)
@given(st.sampled_from([2, 3, 6]), near, st.booleans(), st.floats(0.0, 1.0),
       st.integers(0, 2 ** 32 - 1))
def test_an_expectation_path_by_a_near_threshold_rotation_is_built_or_too_far(
        n, theta, wedge, t, seed):
    # a path that is built verifies, and its propagator identities hold at a
    # drawn time on a drawn test matrix within the residual contract
    spec1 = jones.rotated_diagonal_spec(n, np.pi / 2 - theta if wedge else theta)
    try:
        path = jones.expectation_path(jones.diagonal_spec(n), spec1, n)
    except TooFar:
        return
    assert pg.verify_geodesic(path.z).max() <= geo.ENDPOINT_ATOL
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    assert jones.propagator_checks(path, [t], [x]).max() <= 1e-8
