"""A slice of the contract suite over the public API: structured pairs with
n <= 12, whose part ranks reach p = 0 and p = 1, with exact angles 0 and
pi/2 beside random ones, conjugated by a permutation (which keeps exact
zeros) or by a Haar unitary, at the default width or a drawn one. Every
entry point ends in a verified result or in the typed error that the
ranks predict, and so does every pair that make_projection accepts after
Hermitian noise of norm 1e-13 to 1e-7. Near-threshold pairs, with
a seeded witness on half the non-unique ones, check the geodesic points
against the dense e^{tz} p e^{-tz} and their certified Gram residuals.
The transport ODE, on paths between small subalgebras of M_n (n <= 4),
agrees with a dense RK4, converges at fourth order to the propagator and
ends where its endpoint does. A path from a block partition or tensor
factor to a conjugate is TooFar or keeps, at a drawn time, the propagator
identities and the axioms of E_t that the geodesic guarantees; closure,
bimodule and multiplicativity are not guaranteed between the ends."""

import logging
import math
import unittest

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import projgeo as pg
from projgeo import factor, geo, jones, numkit, projlat, sampling
from projgeo.errors import (BadTrace, DimensionMismatch, InvariantViolation, NoGeodesic,
                            NotProjection, NotSubalgebra, RankMismatch, TooFar)
from projgeo.numkit import MAX_ATOL_SPECTRAL

from _helpers import adj, conjugated_subalgebras

ANGLES = st.one_of(st.just(0.0), st.just(math.pi / 2), st.floats(0.01, math.pi / 2 - 0.01))
# within [1e-13, 0.05] of a threshold, log-uniform
NEAR = st.floats(-13.0, math.log10(0.05)).map(lambda e: 10.0 ** e)


# the default width, or one log-uniform in [1e-14, MAX_ATOL_SPECTRAL)
WIDTHS = st.just(pg.DEFAULT_TOL) | st.floats(
    math.log(1e-14), math.log(MAX_ATOL_SPECTRAL), exclude_max=True).map(
    lambda e: pg.ToleranceProfile(atol_spectral=math.exp(e)))


@st.composite
def pairs(draw, noisy=False):
    """(pm, qm, tol): the matrices of a pair, not yet validated, with the
    parts e11, e00, e10, e01 of the given ranks and one generic plane per
    angle, and a drawn width; "p=0" and "p=1" empty the parts outside p or
    inside it. ``noisy`` adds Hermitian noise of norm 10^U(-13, -7) to both."""
    shape = draw(st.sampled_from(["any", "p=0", "p=1"]))
    ranks = draw(st.lists(st.integers(0, 3), min_size=4, max_size=4))
    angles = draw(st.lists(ANGLES, max_size=3)) if shape == "any" else []
    if shape == "p=0":
        ranks[0] = ranks[2] = 0
    if shape == "p=1":
        ranks[1] = ranks[3] = 0
    n = sum(ranks) + 2 * len(angles)
    assume(1 <= n <= 12)
    tol = draw(WIDTHS)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    haar = draw(st.booleans())
    p, q, _ = sampling.structured_pair(*ranks, angles, rng if haar else None, tol)
    perm = np.arange(n) if haar else rng.permutation(n)
    mats = [x.m[perm][:, perm] for x in (p, q)]
    if noisy:
        size = 10.0 ** draw(st.floats(-13.0, -7.0))
        for i, m in enumerate(mats):
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = g + adj(g)
            mats[i] = m + size / pg.operator_norm(h) * h
    return (*mats, tol)


def check_exponent(p, q):
    """A verified exponent with validated points when the ranks agree, else
    NoGeodesic. The last point is compared with the range projection of q,
    q.basis q.basis*, against which the endpoint residual and ENDPOINT_ATOL
    are defined: q.m is the validated input itself, which may differ from it
    by up to atol_structure."""
    if p.rank != q.rank:
        with pytest.raises(NoGeodesic):
            pg.minimal_exponent(p, q)
        return
    g = pg.minimal_exponent(p, q)
    assert pg.verify_geodesic(g).max() <= geo.ENDPOINT_ATOL
    points = [pg.geodesic_point(g, t) for t in (0.0, 0.5, 1.0)]  # each validated
    assert pg.operator_norm(points[-1].m - q.basis @ adj(q.basis)) <= geo.ENDPOINT_ATOL
    return g


@settings(max_examples=150, deadline=None)
@given(case=pairs(), others=st.integers(0, 2))
def test_every_entry_point_verifies_or_raises_the_typed_error(case, others):
    *mats, tol = case
    p, q = (pg.make_projection(m, tol) for m in mats)
    g = check_exponent(p, q)
    if g is not None:
        z_norm = pg.operator_norm(g.z)
        assert z_norm <= math.pi / 2 + 1e-12
        for rho in (1, 2):
            length = pg.rho_length(g, rho)
            # the normalized trace averages |w|^rho, so the length is at most ||z||
            assert math.isfinite(length) and length <= z_norm + 1e-12
    # in an algebra of one to three blocks (the pair's own, then blocks holding
    # a rotation pair and a common line) the pair stays joinable inside the
    # algebra exactly when its ranks agree, and its exponent lies in the algebra
    c, s = math.cos(0.7), math.sin(0.7)
    beside = [(np.diag([1.0, 0.0]), np.array([[c * c, c * s], [c * s, s * s]])),
              (np.eye(1), np.eye(1))][:others]
    blocks = (p.n, *(a.shape[0] for a, _ in beside))
    algebra = pg.FiniteAlgebra(blocks=blocks, weights=(1 / len(blocks),) * len(blocks))
    big = [pg.make_projection(scipy.linalg.block_diag(x.m, *(b[i] for b in beside)), tol)
           for i, x in enumerate((p, q))]
    if p.rank != q.rank:
        with pytest.raises(RankMismatch):
            pg.blockwise_minimal_exponent(algebra, *big)
    else:
        g = pg.blockwise_minimal_exponent(algebra, *big)
        assert pg.verify_geodesic(g).max() <= geo.ENDPOINT_ATOL
        assert pg.member_check(algebra, g.z)


# rank 0 twice, the second with an eigenvalue 1e-8 + 6e-18 that make_projection
# accepts: its stored matrix reads 1.0000000006e-8 against the rank-0 endpoint
LINE = np.array([1.0, 2.0, 2.0]) / 3


@settings(max_examples=150, deadline=None)
@given(case=pairs(noisy=True))
@example(case=(np.zeros((3, 3)), (1e-8 + 6e-18) * np.outer(LINE, LINE), pg.DEFAULT_TOL))
def test_a_noisy_pair_is_rejected_or_ends_as_its_ranks_predict(case):
    *mats, tol = case
    try:
        p, q = (pg.make_projection(m, tol) for m in mats)
    except NotProjection:
        return
    check_exponent(p, q)


@st.composite
def near_threshold_exponents(draw):
    """(p, q, g): a structured pair whose angles lie near 0 or pi/2 (one to
    three of them, or the cluster [theta, 1.5 theta, 0.7]), conjugated by a
    Haar unitary, and its exponent, with a seeded witness on half the
    non-unique pairs."""
    if draw(st.booleans()):
        theta = draw(NEAR)
        offsets = [theta, 1.5 * theta]
    else:
        offsets = draw(st.lists(NEAR, min_size=1, max_size=3))
    angles = [math.pi / 2 - a if draw(st.booleans()) else a for a in offsets]
    if len(offsets) == 2:
        angles.append(0.7)
    n11, n00, wedge = (draw(st.integers(0, 2)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    p, q, _ = sampling.structured_pair(n11, n00, wedge, wedge, angles, rng)
    pos = projlat.position(p, q)
    w = None
    if not pos.unique() and draw(st.booleans()):
        w = geo.partial_isometry(pos.e10, pos.e01, seed=draw(st.integers(1, 1000)))
    return p, q, geo.position_exponent(pos, w)


def range_bound(g, t):
    """README, "The exponent certificate": the range of the point at t lies
    within (off + |t| omega eta nu sqrt((1 + eta)/(1 - eta))) / sqrt(1 - eta)
    of e^{tz} range(p), for off = ||(1 - P) [X11, X, A]||, eta the Gram
    residual of [X11, X, U, A, W] and omega = ||z||, here measured densely."""
    xh, _, x, u, a, va, _ = g._planes
    cp, m = np.hstack([xh, x, a]), np.hstack([xh, x, u, a, va])
    off = pg.operator_norm(cp - g.p.m @ cp)
    eta = pg.operator_norm(adj(m) @ m - np.eye(m.shape[1]))
    omega = float(np.abs(g.spectrum[0]).max(initial=0.0))
    return (off + abs(t) * omega * eta * math.sqrt(1 + eta) * math.sqrt(
        (1 + eta) / (1 - eta))) / math.sqrt(1 - eta)


@settings(max_examples=60, deadline=None)
@given(case=near_threshold_exponents())
def test_near_threshold_points_lie_within_their_certified_bounds(case):
    p, q, g = case
    for t in (-0.3, 0.0, 0.5, 1.0):
        point = pg.geodesic_point(g, t)  # validated
        assert point.rank == p.rank
        measured = numkit.orthonormality_residual(point.basis, 0.0)
        assert measured <= point.basis_residual
        e = scipy.linalg.expm(t * g.z)
        dense = e @ p.m @ adj(e)
        # the two matrices differ from the range projections by their Gram
        # residuals, and the dense reference by its rounding
        slack = p.basis_residual + point.basis_residual + 64 * p.n * np.finfo(float).eps
        assert pg.operator_norm(point.m - dense) <= range_bound(g, t) + slack
        if t == 1.0:
            assert pg.operator_norm(point.m - q.m) <= geo.ENDPOINT_ATOL
    # a geodesic between two points settles its own certificate: no fallback logs
    with unittest.TestCase().assertNoLogs("projgeo", logging.DEBUG):
        h = pg.minimal_exponent(pg.geodesic_point(g, 0.25), pg.geodesic_point(g, 0.75))
    assert pg.verify_geodesic(h).max() <= geo.ENDPOINT_ATOL


@st.composite
def transport_cases(draw):
    """(path, x0, steps): the diagonal against rotated:theta, or a block
    partition or tensor factor against its conjugate by a unitary e^h with
    ||h|| <= 0.5 (so the gap stays below sin 1), n <= 4, and steps in
    [100, 3000]."""
    kind = draw(st.sampled_from(["rotated", "blocks", "tensor"]))
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "rotated":
        spec0 = jones.diagonal_spec(n)
        spec1 = jones.rotated_diagonal_spec(n, draw(st.floats(0.0, 0.6)))
    else:
        spec0, spec1 = draw(conjugated_subalgebras(kind, n, rng, 0.5))
    x0 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return jones.expectation_path(spec0, spec1, n), x0, draw(st.integers(100, 3000))


def dense_rk4(path, x0, steps):
    """States of RK4 with the dense n^2 x n^2 generator
    Z E_t + E_t Z - 2 E_t Z E_t, E_t = e^{tZ} E_0 e^{-tZ} from an eigh of
    i Z: the step matrices of 256 steps at a time (about 1 MB each at
    n = 4) are formed at once and applied one step at a time."""
    z, e0 = path.z.z, path.end0.big.m
    lam, w = np.linalg.eigh(1j * z)
    eye, h = np.eye(lam.size), 1.0 / steps

    def generator(ts):
        u = (w * np.exp(-1j * np.multiply.outer(ts, lam))[:, None, :]) @ adj(w)
        e = u @ e0 @ u.conj().swapaxes(1, 2)
        return z @ e + e @ z - 2.0 * e @ z @ e

    y = x0.reshape(-1).astype(complex)
    states = [y]
    for start in range(0, steps, 256):
        ts = h * np.arange(start, min(start + 256, steps))
        a0, a_mid = generator(ts), generator(ts + h / 2)
        k2 = a_mid @ (eye + (h / 2) * a0)
        k3 = a_mid @ (eye + (h / 2) * k2)
        k4 = generator(ts + h) @ (eye + h * k3)
        for r in eye + (h / 6) * (a0 + 2 * k2 + 2 * k3 + k4):
            y = r @ y
            states.append(y)
    return np.array(states).reshape(steps + 1, *x0.shape)


@settings(max_examples=40, deadline=None)
@given(case=transport_cases())
def test_the_transport_ode_is_the_dense_rk4_and_converges_at_fourth_order(case):
    path, x0, steps = case
    size, eps = pg.operator_norm(x0), np.finfo(float).eps
    _, states = jones.transport_ode_solve(path, x0, steps)
    # both solvers round each of their steps
    assert np.abs(states - dense_rk4(path, x0, steps)).max() <= 4 * steps * eps * size
    # fourth-order truncation, plus the rounding of the step matrix, which
    # its steps-th power carries steps times
    err = pg.operator_norm(states[-1] - path.transport(1.0, x0))
    assert err <= (0.05 * steps ** -4.0 + 2 * steps * eps) * size
    end = jones.transport_ode_endpoint(path, x0, steps)
    assert pg.operator_norm(end - states[-1]) <= 1e-14 * pg.operator_norm(states[-1])


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["blocks", "tensor"]), n=st.integers(2, 4),
       seed=st.integers(0, 2 ** 32 - 1), t=st.floats(0.0, 1.0), data=st.data())
def test_a_path_between_subalgebras_keeps_its_identities_or_is_too_far(kind, n, seed, t, data):
    # conjugates by ||h|| up to 2 reach a gap of 1, where TooFar is the typed
    # end; closure, bimodule and multiplicativity are measured, not promised,
    # off the ends (see the test below)
    rng = np.random.default_rng(seed)
    spec0, spec1 = data.draw(conjugated_subalgebras(kind, n, rng, 2.0))
    try:
        path = jones.expectation_path(spec0, spec1, n)
    except TooFar:
        return
    assert pg.verify_geodesic(path.z).max() <= geo.ENDPOINT_ATOL
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    report = jones.propagator_checks(path, [t], [x])
    assert max(report.intertwine, report.star, report.codiagonal) <= 1e-8
    axioms = jones.expectation_axioms(path.projection_at(t), n)
    assert max(axioms.idempotent, axioms.unital, axioms.star, axioms.trace) <= 1e-8
    assert all(math.isfinite(v) for v in (report.multiplicative, axioms.bimodule, axioms.closure))
    assert jones.expectation_axioms(path.projection_at(1.0), n).max() <= 1e-8


def test_the_geodesic_to_a_generic_conjugate_leaves_the_subalgebras():
    # the diagonal of M_3 against its conjugate by e^{0.4 h}: the exponent is
    # the verified minimal one and both ends are conditional expectations,
    # but the range of E_1/2 is not closed under products, and Gamma_1 = e^Z
    # (here a dense expm) carries the diagonal onto the conjugate as a linear
    # map, not as an algebra map
    n, rng = 3, np.random.default_rng(0)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    u = scipy.linalg.expm(0.4 * (g - adj(g)) / pg.operator_norm(g - adj(g)))
    spec0 = jones.diagonal_spec(n)
    path = jones.expectation_path(spec0, jones.MatrixSpan(mats=tuple(
        u @ a @ adj(u) for a in jones.spanning_matrices(spec0, n))), n)
    assert path.gap < 0.5 and pg.verify_geodesic(path.z).max() <= geo.ENDPOINT_ATOL
    assert max(jones.expectation_axioms(path.projection_at(t), n).max()
               for t in (0.0, 1.0)) <= 1e-12
    assert jones.expectation_axioms(path.projection_at(0.5), n).closure > 1e-3
    gamma = scipy.linalg.expm(path.z.z)
    ends = (path.end0.big.m, path.end1.big.m)
    assert pg.operator_norm(gamma @ ends[0] @ adj(gamma) - ends[1]) <= 1e-12
    e = [(gamma @ np.diag(row).reshape(-1)).reshape(n, n) for row in np.eye(n, dtype=complex)]
    assert max(pg.operator_norm(e[i] @ e[j] - (i == j) * e[i])
               for i in range(n) for j in range(n)) > 1e-4


def _rng():
    return np.random.default_rng(0)


def _pair_at(angle):
    p = pg.make_projection(np.diag([1.0, 0.0]))
    v = np.array([math.cos(angle), math.sin(angle)])
    return p, pg.make_projection(np.outer(v, v))


TYPED_ERRORS = {  # id: (call, the exact type it raises)
    "fractional-block": (lambda: pg.FiniteAlgebra((1.5,), (1.0,)), ValueError),
    "unequal-lengths": (lambda: pg.FiniteAlgebra((2, 2), (1.0,)), ValueError),
    "negative-weight": (lambda: pg.FiniteAlgebra((2, 2), (1.5, -0.5)), ValueError),
    "inf-block": (lambda: pg.FiniteAlgebra((math.inf,), (1.0,)), ValueError),
    "-inf-block": (lambda: pg.FiniteAlgebra((-math.inf,), (1.0,)), ValueError),
    "nan-block": (lambda: pg.FiniteAlgebra((math.nan,), (1.0,)), ValueError),
    "member-size": (lambda: factor.member_check(pg.FiniteAlgebra.full(3), np.eye(2)),
                    DimensionMismatch),
    "factored-size": (lambda: pg.NormalizedTrace(pg.FiniteAlgebra.full(3)).of_factored(
        np.ones((2, 1)), np.ones(1)), DimensionMismatch),
    "orthogonal-pair-in-two-blocks": (
        lambda: factor.orthogonal_pair(pg.FiniteAlgebra((2, 2), (0.5, 0.5)), 0.25), ValueError),
    "orthogonal-pair-past-half": (
        lambda: factor.orthogonal_pair(pg.FiniteAlgebra.full(4), 0.75), BadTrace),
    "multi-geodesics-not-orthogonal": (
        lambda: factor.multi_geodesics(*_pair_at(0.3), 2, 2.0,
                                       pg.NormalizedTrace(pg.FiniteAlgebra.full(2))),
        InvariantViolation),
    "curve-of-rectangles": (lambda: geo.curve_length(np.zeros((3, 2, 3))), DimensionMismatch),
    "unknown-spec": (lambda: jones.check_size(object(), 2), TypeError),
    "vector": (lambda: numkit.as_complex(np.zeros(3)), ValueError),
    "empty-matrix": (lambda: numkit.as_complex(np.zeros((0, 0))), ValueError),
    "log-of-a-non-unitary": (lambda: numkit.log_unitary_principal(2 * np.eye(2)), ValueError),
    "span-of-a-3-d-array": (lambda: projlat.from_span(np.zeros((2, 2, 2))), ValueError),
    "rank-past-n": (lambda: sampling.random_projection(3, 4, _rng()), ValueError),
    "pair-in-M_1": (lambda: sampling.random_pair(1, _rng()), ValueError),
}


@pytest.mark.parametrize("call, error", TYPED_ERRORS.values(), ids=TYPED_ERRORS.keys())
def test_an_invalid_argument_raises_its_typed_error(call, error):
    # raise sites that no other test reaches; each raises exactly its type
    with pytest.raises(Exception) as info:
        call()
    assert type(info.value) is error, repr(info.value)


@st.composite
def near_threshold_ends(draw):
    """(build, n): a thunk that builds an end whose residuals lie near the
    acceptance thresholds. "unit": the span of w m w* over a block partition
    of M_n, or of w w* (the unit alone), with w a Haar u off unitary by
    10^U(-10, -7.5), near atol_structure in the unit, adjoint and closure
    residuals at once; "adjoint": span{1, p + i d h}, p a projection and h
    Hermitian of unit norm, whose adjoint and closure residuals are about
    d = 10^U(-10, -7.5) and its unit residual zero; "closure": span{1, p +
    d h}, closed under adjoints, with closure residual about d; "unitary":
    the path end Conjugated(base, u + e), ||e|| = 10^U(-15, -7.5), around
    the 10 n g(n) test of ||u* u - 1||_F and past it."""
    kind = draw(st.sampled_from(["unit", "adjoint", "closure", "unitary"]))
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = -15.0 if kind == "unitary" else -10.0
    scale = 10.0 ** draw(st.floats(low, -7.5))

    def unit_noise():
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return z / pg.operator_norm(z)

    cuts = sorted(draw(st.sets(st.integers(1, n - 1))))
    base = jones.BlockPartition(groups=tuple(
        tuple(range(a, b)) for a, b in zip([0, *cuts], [*cuts, n])))
    w = numkit.haar_unitary(n, rng) + scale * unit_noise()
    if kind == "unitary":
        spec = jones.Conjugated(base, w)
        return (lambda: jones.expectation_path(spec, spec, n).end0), n
    if kind == "unit":
        mats = ((w @ adj(w),) if draw(st.booleans()) else
                tuple(w @ m @ adj(w) for m in jones.spanning_matrices(base, n)))
    else:
        v = numkit.haar_unitary(n, rng)[:, :draw(st.integers(1, n - 1))]
        h = unit_noise()
        h = (h + adj(h)) / pg.operator_norm(h + adj(h))
        perturbation = 1j * scale * h if kind == "adjoint" else scale * h
        mats = (np.eye(n), v @ adj(v) + perturbation)
    span = jones.MatrixSpan(mats=mats)
    return (lambda: jones.expectation_projection(span, n)), n


@settings(max_examples=200, deadline=None)
@given(near_threshold_ends())
def test_an_admitted_span_ends_built_or_not_a_subalgebra(drawn):
    # near each threshold of the acceptance rule a span is refused as
    # NotSubalgebra or built; InternalConsistencyError would be a bug
    build, n = drawn
    try:
        end = build()
    except NotSubalgebra:
        return
    assert end.n == n and end.closure <= end.big.tol.atol_structure
