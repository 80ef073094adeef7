"""Acceptance suite: one test per headline criterion, each enforcing its
stated tolerance and printing a PASS/FAIL line (run with -s to see the
lines for passing criteria).

Criterion 6 is split: the operator-norm index distance arccos(sqrt(tau))
(6a) and its rho-norm companion (6b). The rho-norm of the exponent
carries the trace weight of the whole generic part, which is twice the
trace of either projection, so 6b checks (2 tau)^(1/rho) arccos(sqrt(tau));
the direct computation and the family-length formula of criterion 5
agree with it; see README.md.
"""

import time

import numpy as np
import pytest

import projgeo as pg
from projgeo import factor, jones, sampling

from _helpers import adj, perturbed_curves, random_joinable_pair


def _verdict(label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"ACCEPTANCE {label}: {status}{suffix}")


@pytest.fixture(scope="module")
def exponent_batch():
    """200 joinable random pairs across dimensions 4, 8, 12 with mixed
    ranks and forced-wedge cases, plus their constructed exponents."""
    rng = np.random.default_rng(2024)
    records = []
    start = time.perf_counter()
    for i in range(200):
        n = (4, 8, 12)[i % 3]
        p, q, _ = random_joinable_pair(n, rng, force_wedge=(i % 3 == 0))
        parts = pg.halmos_decompose(p, q)
        g = pg.minimal_exponent(p, q)
        records.append((p, q, parts, g, pg.verify_geodesic(g)))
    elapsed = time.perf_counter() - start
    return records, elapsed


def test_criterion_1_exponent_construction(exponent_batch):
    records, elapsed = exponent_batch
    worst = max(res.max() for _, _, _, _, res in records)
    ok = worst < 1e-8 and elapsed < 10.0
    _verdict("1 (constructive existence)", ok,
             f"200 pairs, worst residual {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-8
    assert elapsed < 10.0


def test_criterion_2_wedge_intertwining(exponent_batch):
    records, _ = exponent_batch
    worst = 0.0
    for _, _, parts, g, _ in records:
        ez = pg.exp_skew(g.z)
        resid = pg.operator_norm(ez @ parts.e10.m @ adj(ez) - parts.e01.m)
        worst = max(worst, resid)
    ok = worst < 1e-8
    _verdict("2 (exponential maps wedge onto wedge)", ok,
             f"worst residual {worst:.2e}")
    assert worst < 1e-8


def test_criterion_3_uniqueness_dichotomy(exponent_batch):
    records, _ = exponent_batch
    gap_min_wedge = np.inf
    gap_max_unique = 0.0
    n_wedge = n_unique = 0
    for p, q, parts, _, _ in records:
        if n_wedge >= 40 and n_unique >= 40:
            break
        if parts.e10.rank >= 1 and n_wedge < 40:
            n_wedge += 1
            gs = [pg.minimal_exponent(
                p, q, pg.partial_isometry(parts.e10, parts.e01, seed=s))
                for s in (1, 2)]
            gap_min_wedge = min(gap_min_wedge,
                                pg.operator_norm(gs[0].z - gs[1].z))
            assert all(pg.verify_geodesic(g).max() < 1e-8 for g in gs)
        elif parts.e10.rank == 0 and n_unique < 40:
            n_unique += 1
            zs = [pg.minimal_exponent(p, q).z for _ in (1, 2)]
            gap_max_unique = max(gap_max_unique,
                                 pg.operator_norm(zs[0] - zs[1]))
    ok = gap_min_wedge > 1e-6 and gap_max_unique < 1e-9
    _verdict("3 (uniqueness dichotomy)", ok,
             f"{n_wedge} wedge pairs (seeded gap >= {gap_min_wedge:.2e}), "
             f"{n_unique} unique pairs (seed spread <= {gap_max_unique:.2e})")
    assert n_wedge >= 40 and n_unique >= 40
    assert gap_min_wedge > 1e-6
    assert gap_max_unique < 1e-9


def test_criterion_4_factor_joinability():
    rng = np.random.default_rng(77)
    alg = factor.FiniteAlgebra.full(8)
    worst_sym = 0.0
    all_exist = True
    for _ in range(100):
        rank = int(rng.integers(1, 8))
        p = sampling.random_projection(8, rank, rng)
        q = sampling.random_projection(8, rank, rng)
        cert = factor.hopf_rinow_certify(alg, p, q)
        all_exist &= cert.exists
        worst_sym = max(worst_sym, sampling.spectral_symmetry_residual(p, q))
    diag = factor.FiniteAlgebra(blocks=(1, 1), weights=(0.5, 0.5))
    ce = factor.hopf_rinow_certify(
        diag,
        pg.make_projection(np.diag([1.0, 0.0])),
        pg.make_projection(np.diag([0.0, 1.0])))
    ok = all_exist and not ce.exists and worst_sym < 1e-8
    _verdict("4 (finite-factor joinability)", ok,
             f"100/100 certified, counterexample ranks {ce.per_block_ranks}, "
             f"spectral symmetry residual {worst_sym:.2e}")
    assert all_exist
    assert not ce.exists
    assert ce.per_block_ranks == ((1, 0), (0, 1))
    assert worst_sym < 1e-8


def test_criterion_5_family_lengths():
    worst = 0.0
    for n, r in ((4, 0.25), (8, 0.25), (8, 0.5)):
        alg = factor.FiniteAlgebra.full(n)
        tr = factor.NormalizedTrace(alg)
        p, q = factor.orthogonal_pair(alg, r)
        for rho in (2.0, 3.0, 4.0):
            expected = np.pi * 2 ** (1 / rho - 1) * r ** (1 / rho)
            fam = factor.multi_geodesics(p, q, count=5, rho=rho, t=tr)
            for _, length in fam:
                worst = max(worst, abs(length - expected))
    ok = worst < 1e-9
    _verdict("5 (orthogonal-family lengths)", ok, f"worst deviation {worst:.2e}")
    assert worst < 1e-9


GRID = [(m, k) for m in (2, 3, 4, 5) for k in (1, 2, 3)]


def test_criterion_6a_index_distance_operator_norm():
    start = time.perf_counter()
    worst = 0.0
    for m, k in GRID:
        jp = jones.jones_pair(m, k)
        d, _ = jones.index_distance(jp)
        worst = max(worst, abs(d - np.arccos(np.sqrt(1.0 / m))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 5.0
    _verdict("6a (index distance, operator norm)", ok,
             f"12 pairs, worst deviation {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-9
    assert elapsed < 5.0


def test_criterion_6b_index_distance_rho_norm():
    # the generic part p v q of an index pair has normalized trace 2 tau and
    # the exponent has modulus theta = arccos(sqrt(tau)) on all of it, so
    # tr|z|^rho = 2 tau theta^rho
    worst = 0.0
    report = []
    for m, k in GRID:
        jp = jones.jones_pair(m, k)
        n = jp.n
        pm, qm = jp.p.m, jp.q.m
        assert np.trace(pm).real / n == pytest.approx(jp.tau, abs=1e-12)
        assert np.trace(qm).real / n == pytest.approx(jp.tau, abs=1e-12)
        assert np.linalg.matrix_rank(pm + qm) / n == pytest.approx(2 * jp.tau, abs=1e-12)
        g = pg.minimal_exponent(jp.p, jp.q)
        tr = factor.NormalizedTrace(factor.FiniteAlgebra.full(jp.n))
        theta = np.arccos(np.sqrt(jp.tau))
        for rho in (2.0, 4.0):
            value = pg.rho_length(g, rho, tr)
            target = (2 * jp.tau) ** (1 / rho) * theta
            worst = max(worst, abs(value - target))
            if (m, k) == (4, 1):
                report.append(
                    f"rho={rho:g}: measured {value:.12f}, "
                    f"closed form {target:.12f}")
    ok = worst < 1e-9
    _verdict("6b (index distance, rho norms)", ok,
             f"worst deviation {worst:.2e}; " + "; ".join(report))
    assert worst < 1e-9, (
        "rho-norm index distance misses the (2 tau)^(1/rho) arccos(sqrt(tau)) "
        f"closed form by {worst:.3e}; " + "; ".join(report))


def test_criterion_7_expectation_path_axioms():
    worst = 0.0
    for theta in (np.pi / 16, np.pi / 8):
        path = jones.expectation_path(
            jones.diagonal_spec(2), jones.rotated_diagonal_spec(2, theta), 2)
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            ax = jones.expectation_axioms(path.projection_at(t), 2)
            worst = max(worst, ax.max())
    ok = worst < 1e-8
    _verdict("7 (conditional-expectation path)", ok,
             f"worst axiom residual {worst:.2e}")
    assert worst < 1e-8


def test_criterion_8_parallel_transport():
    path = jones.expectation_path(
        jones.diagonal_spec(2), jones.rotated_diagonal_spec(2, np.pi / 8), 2)
    rng = np.random.default_rng(88)
    worst_ode = 0.0
    for _ in range(20):
        x0 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        _, states = jones.transport_ode_solve(path, x0, 1000)
        worst_ode = max(worst_ode, pg.operator_norm(
            states[-1] - path.transport(1.0, x0)))
    probe = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    errs = {}
    for steps in (100, 200):
        _, states = jones.transport_ode_solve(path, probe, steps)
        errs[steps] = pg.operator_norm(states[-1] - path.transport(1.0, probe))
    order = np.log2(errs[100] / errs[200])
    xs = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
          for _ in range(3)]
    rep = jones.propagator_checks(path, (0.25, 0.5, 0.75), xs)
    ok = worst_ode < 1e-6 and 3.5 <= order <= 4.5 and rep.multiplicative < 1e-8
    _verdict("8 (parallel transport)", ok,
             f"ODE residual {worst_ode:.2e}, order {order:.2f}, "
             f"multiplicativity {rep.multiplicative:.2e}")
    assert worst_ode < 1e-6
    assert 3.5 <= order <= 4.5
    assert rep.multiplicative < 1e-8


def test_criterion_9_minimality_probes():
    rng = np.random.default_rng(99)
    worst_deficit = -np.inf
    for i in range(50):
        n = (4, 6, 8)[i % 3]
        angles = rng.uniform(0.1, np.pi / 2 - 0.1, size=int(rng.integers(1, n // 2 + 1)))
        pad = n - 2 * angles.size
        n11 = int(rng.integers(0, pad + 1))
        p, q, _ = sampling.structured_pair(n11, pad - n11, 0, 0, angles, rng)
        g = pg.minimal_exponent(p, q)
        lengths = {None: pg.geodesic_distance(p, q),
                   2.0: pg.rho_length(g, 2.0),
                   4.0: pg.rho_length(g, 4.0)}
        for curve in perturbed_curves(g, rng, count=8, samples=1000):
            measured = pg.curve_length(curve, rho=list(lengths))
            for target, length in zip(lengths.values(), measured):
                worst_deficit = max(worst_deficit, target - length)
    ok = worst_deficit <= 1e-6
    _verdict("9 (minimality probes)", ok,
             f"50 pairs x 8 curves, worst competitor deficit {worst_deficit:.2e}")
    assert worst_deficit <= 1e-6
