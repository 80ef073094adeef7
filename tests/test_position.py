"""The relative position of a pair: its parts against an independent
null-space oracle, planes inside the classification width and the angles
they keep, one position per diagnostic battery, a ceiling on dense kernel
calls, no repeated factorization on the geodesic path, and
make_projection's decisions on operator-norm residuals."""

import numpy as np
import pytest

import projgeo as pg
from projgeo import geo, jones, projlat, sampling
from projgeo.errors import NotProjection

from _helpers import (adj, battery_rounding, meet_oracle, part_matrices,
                      random_joinable_pair, record_kernels, split_residuals)


def oracle_parts(p, q):
    eye = np.eye(p.n)
    meets = [meet_oracle(a, b) for a, b in
             ((p.m, q.m), (eye - p.m, eye - q.m), (p.m, eye - q.m), (eye - p.m, q.m))]
    return meets + [eye - sum(meets)]


@pytest.mark.parametrize("n", [4, 8, 12])
def test_parts_match_oracle_and_ground_truth(n):
    rng = np.random.default_rng(40 + n)
    for i in range(8):
        p, q, info = sampling.random_pair(n, rng, force_wedge=(i % 2 == 0))
        pos = projlat.position(p, q)
        assert pos.ranks() == info["ranks"]
        assert tuple(e.rank for e in (pos.e11, pos.e00, pos.e10, pos.e01, pos.e0)) \
            == info["ranks"]
        for got, want in zip(part_matrices(pos), oracle_parts(p, q)):
            assert pg.operator_norm(got - want) <= 1e-8
        assert max(split_residuals(pos, p, q)) <= 1e-8
        assert np.abs(pos.angles - info["angles"]).max(initial=0.0) <= 1e-9


def test_unequal_and_extreme_ranks():
    zero = pg.make_projection(np.zeros((3, 3)))
    line = pg.make_projection(np.diag([1.0, 0.0, 0.0]))
    eye = pg.make_projection(np.eye(3))
    assert projlat.position(line, zero).ranks() == (0, 2, 1, 0, 0)
    assert projlat.position(zero, eye).ranks() == (0, 0, 0, 3, 0)
    assert projlat.position(eye, line).ranks() == (1, 0, 2, 0, 0)
    assert not projlat.position(line, zero).exists()


@pytest.mark.parametrize("theta, ranks", [
    (1e-3, (2, 2, 1, 1, 2)),              # absorbed into the meets
    (np.pi / 2 - 1e-3, (1, 1, 2, 2, 2)),  # absorbed into the wedges
])
def test_plane_inside_classification_width_splits_orthogonally(theta, ranks):
    # 1e-3 lies inside sqrt(2 atol_spectral) ~ 1.41e-3 of 0 and of pi/2;
    # the wedge pair (x, y) is not orthogonal there, so the parts are
    # orthogonal only after the symmetric split
    rng = np.random.default_rng(31)
    p, q, _ = sampling.structured_pair(1, 1, 1, 1, [theta, 0.7], rng)
    pos = projlat.position(p, q)
    assert pos.ranks() == ranks
    total, pairwise, _ = split_residuals(pos, p, q)
    assert total <= 1e-12 and pairwise <= 1e-12
    assert pos.angles == pytest.approx([0.7], abs=1e-12)


def test_pair_diagnostics_builds_one_position(monkeypatch):
    built = []
    real = projlat.position

    def counting(p, q):
        built.append((p, q))
        return real(p, q)

    monkeypatch.setattr(projlat, "position", counting)
    p, q, _ = sampling.random_pair(8, np.random.default_rng(33), force_wedge=True)
    report = sampling.pair_diagnostics(p, q)
    assert "seeded_exponent_gap" in report  # exponents with three witnesses
    assert len(built) == 1
    jp = jones.jones_pair(4, 2)
    built.clear()
    jones.index_distance(jp)
    assert len(built) == 1


@pytest.mark.parametrize("force_wedge", [False, True])
def test_pair_diagnostics_stacked_norms_equal_the_per_matrix_loop(force_wedge):
    # the blocks of the frame's Gram stand for 21 dense norms, within the rounding
    # that the bases' residual allows
    rng = np.random.default_rng(35)
    for n in (3, 6, 9, 12):
        p, q, _ = sampling.random_pair(n, rng, force_wedge=force_wedge)
        report = sampling.pair_diagnostics(p, q)
        bound = battery_rounding(report, n)
        dense = split_residuals(projlat.position(p, q), p, q)
        thin = [report[f"halmos_{k}_residual"] for k in ("sum", "pairwise", "commutator")]
        assert np.abs(np.subtract(thin, dense)).max() <= bound, (thin, dense)


@pytest.mark.parametrize("i, j", [(0, 2), (0, 3), (0, 4), (2, 3), (2, 4), (3, 4)])
def test_the_pairwise_residual_reads_every_pair_of_parts(i, j):
    # part j's basis tilted toward part i's by delta: the battery reads the
    # overlap sin(delta) of the two parts, as the dense products do
    p, q, _ = sampling.structured_pair(1, 1, 1, 1, [0.7], np.random.default_rng(37))
    pos = projlat.position(p, q)
    bases = {0: pos.b11, 2: pos.b10, 3: pos.b01, 4: pos.x}
    delta = 1e-3
    tilted = np.cos(delta) * bases[j] + np.sin(delta) * bases[i]
    if j == 4:
        vars(pos)["x"] = tilted
    else:
        vars(pos)["_wedges"] = (tilted, pos.b01) if j == 2 else (pos.b10, tilted)
    report = sampling.position_report(pos)
    assert report["halmos_pairwise_residual"] == pytest.approx(np.sin(delta), rel=1e-9)
    assert split_residuals(pos, p, q)[1] == pytest.approx(np.sin(delta), rel=1e-9)


def test_the_battery_forms_no_part_matrix_and_no_unitary(monkeypatch):
    # the report reads the parts' bases, and the wedge check applies e^z to b10:
    # no part forms its n x n matrix, and e^z is never applied to the identity
    real_apply = geo.GeodesicExponent.apply

    def apply(self, t, b):
        if np.array_equal(b, np.eye(self.p.n)):
            raise AssertionError("pair_diagnostics formed the n x n unitary")
        return real_apply(self, t, b)

    monkeypatch.setattr(geo.GeodesicExponent, "apply", apply)
    rng = np.random.default_rng(36)
    for force_wedge, built in ((False, {"e00"}), (True, {"e00", "e10", "e01"})):
        p, q, _ = random_joinable_pair(9, rng, force_wedge=force_wedge)
        report = sampling.pair_diagnostics(p, q)
        assert report["unique"] is not force_wedge
        pos = projlat.position(p, q)
        parts = {name: vars(pos)[name] for name in ("e11", "e00", "e10", "e01", "e0")
                 if name in vars(pos)}
        assert set(parts) == built
        assert all("m" not in vars(part) for part in parts.values())


# Dense kernel calls made by one minimal_exponent + geodesic_distance on
# the n = 32 wedge pair below: 97 when each consumer rebuilt the position
# from four eigh-clustered meets, 21 with one Position per call, 7 once
# each projection carries its range basis from birth and the exactly zero
# skewness of a z built skew takes no SVD. Still 7 with the residuals
# read off thin factors: the 16 x 16 position SVD, two 4 x 32 pivoted
# QRs, the 32 x 26 QR of P'V and three small Hermitian cores, and no
# n x n matrix among them; the second position is the first one, shared.
# Still 7 with zpstrf counted: the pair's projections were validated
# before the count began, by a pivoted Cholesky rather than an eigh.
KERNEL_CEILING = 7


def test_kernel_call_ceiling(monkeypatch):
    rng = np.random.default_rng(5)
    p, q, info = sampling.structured_pair(3, 3, 4, 4, np.linspace(0.2, 1.3, 9), rng)
    assert info["n"] == 32
    calls = record_kernels(monkeypatch)
    pg.minimal_exponent(p, q)
    assert pg.geodesic_distance(p, q) == pytest.approx(np.pi / 2)
    assert len(calls) <= KERNEL_CEILING, sorted(calls)
    assert all(min(shape) < p.n for _, shape in calls), calls


def test_geodesic_reuses_the_factorizations_in_hand(monkeypatch):
    # the same n = 32 wedge pair, from its matrices: the one validating
    # pivoted Cholesky per input projection is the only factorization of
    # an n x n matrix, its factor needs no refining Cholesky, and no eigh
    # runs at all; the exponent's spectrum is read off the position (no
    # eigh of z), its residuals are settled by the certificate's gemms (no
    # QR of the thin report), and no expm runs
    rng = np.random.default_rng(5)
    p, q, _ = sampling.structured_pair(3, 3, 4, 4, np.linspace(0.2, 1.3, 9), rng)
    calls = record_kernels(monkeypatch)
    p, q = pg.make_projection(p.m), pg.make_projection(q.m)
    g = pg.minimal_exponent(p, q)
    assert pg.verify_geodesic(g).max() < geo.ENDPOINT_ATOL
    pg.geodesic_point(g, 0.5)
    assert pg.geodesic_distance(p, q) == pytest.approx(np.pi / 2)
    square = [call for call in calls if min(call[1]) >= p.n]
    assert square == [("zpstrf", (32, 32))] * 2
    assert "zpotrf" not in [name for name, _ in calls]
    assert "eigh" not in [name for name, _ in calls]
    assert "expm" not in [name for name, _ in calls]
    assert [shape for name, shape in calls if name == "qr"] == [(4, 32), (4, 32)]


def test_make_projection_decides_on_operator_norms():
    rng = np.random.default_rng(34)
    atol = pg.DEFAULT_TOL.atol_structure
    for n in (2, 5, 9):
        for scale in (1e-10, 1e-8, 1e-6):
            base = sampling.random_projection(n, n // 2, rng).m
            m = base + scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            herm = pg.operator_norm(m - adj(m))
            sym = (m + adj(m)) / 2
            idem = pg.operator_norm(sym @ sym - sym)
            if herm > atol or idem > atol:
                kind = "Hermiticity" if herm > atol else "idempotency"
                with pytest.raises(NotProjection, match=kind) as err:
                    pg.make_projection(m)
                reported = float(str(err.value).split()[2])
                assert reported == pytest.approx(herm if herm > atol else idem, rel=1e-3)
            else:
                p = pg.make_projection(m)
                assert p.rank == n // 2
                # the basis rounds each eigenvalue of sym to 0 or 1
                assert pg.operator_norm(p.basis @ adj(p.basis) - p.m) <= 2 * idem + 1e-12


def test_make_projection_rejection_threshold():
    atol = pg.DEFAULT_TOL.atol_structure
    base = np.diag([1.0, 0.0, 1.0])
    skew = np.zeros((3, 3))
    skew[0, 1], skew[1, 0] = 1.0, -1.0  # ||m - m*|| = 2 * (its scale)
    bump = np.diag([1.0, 0.0, 0.0])      # ||sym^2 - sym|| ~ its scale
    with pytest.raises(NotProjection, match="Hermiticity"):
        pg.make_projection(base + atol * skew)
    with pytest.raises(NotProjection, match="idempotency"):
        pg.make_projection(base + 2 * atol * bump)
    assert pg.make_projection(base + 0.25 * atol * skew).rank == 2
    assert pg.make_projection(base + 0.5 * atol * bump).rank == 2


@pytest.mark.parametrize("theta", [1e-5, 1e-3, np.pi / 2 - 1e-5, np.pi / 2 - 1e-3])
def test_an_absorbed_plane_keeps_its_angle(theta):
    # a plane absorbed into the meet or a wedge keeps its angle's distance
    # from the threshold to rel 1e-6, far below sqrt(eps): a meet plane's
    # angle is read from the sine side, a wedge plane's from its cosine;
    # the exponent turns it
    p, q, _ = sampling.structured_pair(1, 1, 0, 0, [theta, 0.7], np.random.default_rng(4))
    pos = projlat.position(p, q)
    assert pos.ranks()[4] == 2
    absorbed = pos.kind != projlat.GENERIC
    depth = np.minimum(pos.theta, np.pi / 2 - pos.theta)[absorbed]
    assert depth.max() == pytest.approx(min(theta, np.pi / 2 - theta), rel=1e-6)
    assert sorted(pos.split()[0][0]) == pytest.approx(sorted([theta, 0.7]), rel=1e-6)
    # exact meets and wedges are held and swapped
    p, q, _ = sampling.structured_pair(2, 1, 1, 1, [0.7], np.random.default_rng(4))
    pos = projlat.position(p, q)
    assert pos.held[0].size == 2 and pos.split()[0][0] == pytest.approx([0.7], abs=1e-12)
    assert np.abs(np.pi / 2 - pos.theta[pos.kind == projlat.WEDGE]).max() <= 1e-14
    for swapped, part in zip(pos.split()[1], (pos.e10, pos.e01)):
        assert np.array_equal(swapped, part.basis)
