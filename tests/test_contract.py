"""A slice of the contract suite over the public API: structured pairs with
n <= 12, whose part ranks reach p = 0 and p = 1, with exact angles 0 and
pi/2 beside random ones, conjugated by a permutation (which keeps exact
zeros) or by a Haar unitary. Every entry point ends in a verified result
or in the typed error that the ranks predict."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import projgeo as pg
from projgeo import geo, sampling
from projgeo.errors import NoGeodesic, RankMismatch

ANGLES = st.one_of(st.just(0.0), st.just(math.pi / 2), st.floats(0.01, math.pi / 2 - 0.01))


@st.composite
def pairs(draw):
    """(p, q): the parts e11, e00, e10, e01 of the given ranks and one
    generic plane per angle; "p=0" and "p=1" empty the parts outside p or
    inside it."""
    shape = draw(st.sampled_from(["any", "p=0", "p=1"]))
    ranks = draw(st.lists(st.integers(0, 3), min_size=4, max_size=4))
    angles = draw(st.lists(ANGLES, max_size=3)) if shape == "any" else []
    if shape == "p=0":
        ranks[0] = ranks[2] = 0
    if shape == "p=1":
        ranks[1] = ranks[3] = 0
    n = sum(ranks) + 2 * len(angles)
    assume(1 <= n <= 12)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        p, q, _ = sampling.structured_pair(*ranks, angles, rng)
        return p, q
    p, q, _ = sampling.structured_pair(*ranks, angles)
    perm = rng.permutation(n)
    return tuple(pg.make_projection(x.m[perm][:, perm]) for x in (p, q))


def block_sum(a, b):
    m = np.zeros((len(a) + len(b),) * 2, dtype=complex)
    m[:len(a), :len(a)], m[len(a):, len(a):] = a, b
    return pg.make_projection(m)


@settings(max_examples=150, deadline=None)
@given(pair=pairs())
def test_every_entry_point_verifies_or_raises_the_typed_error(pair):
    p, q = pair
    if p.rank != q.rank:
        with pytest.raises(NoGeodesic):
            pg.minimal_exponent(p, q)
    else:
        g = pg.minimal_exponent(p, q)
        assert pg.verify_geodesic(g).max() <= geo.ENDPOINT_ATOL
        points = [pg.geodesic_point(g, t) for t in (0.0, 0.5, 1.0)]  # each validated
        assert pg.operator_norm(points[-1].m - q.m) <= geo.ENDPOINT_ATOL
        z_norm = pg.operator_norm(g.z)
        assert z_norm <= math.pi / 2 + 1e-12
        for rho in (1, 2):
            length = pg.rho_length(g, rho)
            # the normalized trace averages |w|^rho, so the length is at most ||z||
            assert math.isfinite(length) and length <= z_norm + 1e-12
    # beside a second block holding a rotation pair, the pair stays joinable
    # inside the algebra exactly when its ranks agree
    algebra = pg.FiniteAlgebra(blocks=(p.n, 2), weights=(0.5, 0.5))
    c, s = math.cos(0.7), math.sin(0.7)
    big_p = block_sum(p.m, np.diag([1.0, 0.0]))
    big_q = block_sum(q.m, np.array([[c * c, c * s], [c * s, s * s]]))
    if p.rank != q.rank:
        with pytest.raises(RankMismatch):
            pg.blockwise_minimal_exponent(algebra, big_p, big_q)
    else:
        g = pg.blockwise_minimal_exponent(algebra, big_p, big_q)
        assert pg.verify_geodesic(g).max() <= geo.ENDPOINT_ATOL
