"""The rho-norm kernel numkit.rho_mean, which every rho-length of a matrix
(numkit.rho_norm), an exponent (geo.rho_length) and a curve
(geo.curve_length) takes its trace and root through: the plain formula
where it is finite, and a finite value tending to the operator norm at
every larger order.

The reference works in logs, max(s) exp(log(sum w_i exp(rho log(s_i /
max s))) / rho), and never raises s to the power rho."""

import contextlib
import io
import json
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import projgeo as pg
from projgeo import cli, factor, geo, numkit, sampling

from _helpers import random_joinable_pair, rotation_pair

BLOCKS = factor.FiniteAlgebra(blocks=(2, 3), weights=(0.3, 0.7))
CURVE_BLOCKS = factor.FiniteAlgebra(blocks=(3, 4), weights=(0.3, 0.7))


def log_reference(s, weights, rho) -> float:
    """(sum_i w_i s_i^rho)^{1/rho} of nonnegative s, from logs alone."""
    s, weights = np.asarray(s, dtype=float), np.asarray(weights, dtype=float)
    top = s.max(initial=0.0)
    if top == 0.0:
        return 0.0
    with np.errstate(divide="ignore", over="ignore"):
        logs = rho * np.log(s / top)
    return top * math.exp(float(scipy.special.logsumexp(logs, b=weights)) / rho)


def block_spectrum(a, algebra, values):
    """The values (singular values or |eigenvalues|) of each diagonal block
    of a, with the weight w_b / d_b each carries under the algebra's trace."""
    s, w = [], []
    for weight, dim, sl in zip(algebra.weights, algebra.blocks, algebra.slices()):
        s.append(values(a[sl, sl]))
        w.append(np.full(dim, weight / dim))
    return np.concatenate(s), np.concatenate(w)


def svals(a):
    return np.linalg.svd(a, compute_uv=False)


def abs_eigvals(a):
    return np.abs(np.linalg.eigvalsh(a))


def sampled_geodesic(p, q, samples):
    g = pg.minimal_exponent(p, q)
    return np.stack([geo.geodesic_point(g, t).m for t in np.linspace(0.0, 1.0, samples)])


def block_curve(rng, samples):
    """A curve of projections in M_3 + M_4: a sampled geodesic per block."""
    curve = np.zeros((samples, 7, 7), dtype=complex)
    for sl, n in zip(CURVE_BLOCKS.slices(), CURVE_BLOCKS.blocks):
        curve[:, sl, sl] = sampled_geodesic(*random_joinable_pair(n, rng)[:2], samples)
    return curve


def cases(rng, scale):
    """(name, value of rho, operator-norm counterpart, log reference of rho)
    for every rho-length form: rho_norm under tr/n, under the full
    algebra's trace and under a block trace; rho_length of a minimal
    exponent under tr/n and the full trace; curve_length of a curve under
    tr/n and a block trace."""
    out = []
    a = scale * (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    a[:, rng.integers(0, 3):] *= rng.integers(0, 2)  # sometimes a kernel
    s = svals(a)
    for name, tr in (("rho_norm", None),
                     ("rho_norm full", factor.NormalizedTrace(factor.FiniteAlgebra.full(5)))):
        out.append((name, lambda r, a=a, tr=tr: pg.rho_norm(a, r, tr), s[0],
                    lambda r, s=s: log_reference(s, np.full(5, 0.2), r)))
    blocks = scale * scipy.linalg.block_diag(
        *(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in BLOCKS.blocks))
    bs, bw = block_spectrum(blocks, BLOCKS, svals)
    out.append(("rho_norm blocks",
                lambda r: pg.rho_norm(blocks, r, factor.NormalizedTrace(BLOCKS)),
                bs.max(), lambda r: log_reference(bs, bw, r)))

    p, q, _ = random_joinable_pair(int(rng.integers(2, 7)), rng)
    g = pg.minimal_exponent(p, q)
    w = np.abs(np.linalg.eigvalsh(1j * g.z))
    for name, tr in (("rho_length", None),
                     ("rho_length full", factor.NormalizedTrace(factor.FiniteAlgebra.full(p.n)))):
        out.append((name, lambda r, tr=tr: pg.rho_length(g, r, tr), pg.operator_norm(g.z),
                    lambda r: log_reference(w, np.full(p.n, 1.0 / p.n), r)))

    curve = block_curve(rng, int(rng.integers(2, 12)))
    diffs = curve[1:] - curve[:-1]
    full = [(abs_eigvals(d), np.full(7, 1.0 / 7)) for d in diffs]
    traced = [block_spectrum(d, CURVE_BLOCKS, abs_eigvals) for d in diffs]
    for name, tr, steps in (("curve_length", None, full),
                            ("curve_length blocks", factor.NormalizedTrace(CURVE_BLOCKS), traced)):
        out.append((name, lambda r, tr=tr: pg.curve_length(curve, rho=r, trace=tr),
                    pg.curve_length(curve),
                    lambda r, steps=steps: sum(log_reference(s, w, r) for s, w in steps)))
    return out


# rho log-uniform in [1, 1e308] (every float from 2^53 on is an even
# integer), and even integers, which curve_length takes by matrix powers
ORDERS = st.one_of(st.floats(0.0, 308.0).map(lambda e: 10.0 ** e),
                   st.integers(1, 10 ** 4).map(lambda k: 2.0 * k))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(-2.0, 1.0),
       st.lists(ORDERS, min_size=1, max_size=4))
def test_every_order_is_finite_monotone_and_matches_the_log_reference(seed, exp, orders):
    orders = sorted(orders)
    for name, value, op_norm, reference in cases(np.random.default_rng(seed), 10.0 ** exp):
        vals = [value(r) for r in orders]
        for r, v in zip(orders, vals):
            assert math.isfinite(v), (name, r)
            assert v <= op_norm + 1e-12, (name, r, v, op_norm)
            want = reference(r)
            assert abs(v - want) <= 1e-12 * want, (name, r, v, want)
        for r, lo, hi in zip(orders[1:], vals, vals[1:]):
            assert hi >= lo * (1.0 - 1e-12), (name, r, lo, hi)


def test_sampled_geodesic_at_large_orders():
    # operator length 1.57 over 49 steps: each step's powers underflow
    p, q, _ = sampling.structured_pair(1, 1, 1, 1, [0.3, 0.9], np.random.default_rng(3))
    curve = sampled_geodesic(p, q, 50)
    steps = [abs_eigvals(d) for d in curve[1:] - curve[:-1]]
    for rho in (1001.0, 2000.0, 1e308):
        want = sum(log_reference(s, np.full(p.n, 1.0 / p.n), rho) for s in steps)
        got = pg.curve_length(curve, rho=rho)
        assert abs(got - want) <= 1e-12 * want, (rho, got, want)
    assert pg.curve_length(curve, rho=1e308) == pytest.approx(pg.curve_length(curve), rel=1e-12)


class TestRhoMean:
    def test_plain_formula_where_finite(self):
        rng = np.random.default_rng(70)
        s = rng.uniform(0.0, 2.0, size=(6, 5))
        for rho in (1.0, 2.0, 3.5, 40.0):
            want = ((s ** rho).sum(axis=1) / 5) ** (1.0 / rho)
            assert np.array_equal(numkit.rho_mean(s, rho), want)
            assert numkit.rho_mean(s[0], rho) == (float((s[0] ** rho).sum()) / 5) ** (1.0 / rho)

    def test_zero_values_stay_zero(self):
        assert numkit.rho_mean(np.zeros(3), 1e308) == 0.0
        assert np.array_equal(numkit.rho_mean(np.zeros((2, 3)), 5000.0), [0.0, 0.0])

    def test_overflow_and_underflow_tend_to_the_largest_value(self):
        s = np.array([[3.0, 1.0, 0.5], [1e-3, 1e-4, 0.0], [0.2, 0.1, 0.1]])
        for rho in (1e3, 1e6, 1e308):
            got = numkit.rho_mean(s, rho)
            assert np.all(np.isfinite(got)) and np.all(got <= s.max(axis=1))
            want = [log_reference(row, np.full(3, 1 / 3), rho) for row in s]
            assert got == pytest.approx(want, rel=1e-12)
        assert np.array_equal(numkit.rho_mean(s, 1e308), s.max(axis=1))

    def test_only_the_rows_that_leave_the_range_are_rescaled(self):
        s = np.array([[0.5, 0.25], [1e-200, 0.0]])
        got = numkit.rho_mean(s, 2.0)
        assert got[0] == (0.3125 / 2) ** 0.5
        assert got[1] == 1e-200 * 0.5 ** 0.5


class TestOneKernel:
    def test_each_value_goes_through_rho_mean_once(self, monkeypatch):
        calls = []
        real = numkit.rho_mean

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(numkit, "rho_mean", counting)
        rng = np.random.default_rng(71)
        p, q, _ = random_joinable_pair(5, rng)
        g = pg.minimal_exponent(p, q)
        full = factor.NormalizedTrace(factor.FiniteAlgebra.full(5))
        for tr in (None, full):
            calls.clear()
            pg.rho_norm(g.z, 3.0, tr)
            assert len(calls) == 1
            calls.clear()
            pg.rho_length(g, 3.0, tr)
            assert len(calls) == 1
        # an exponent off skew goes through rho_norm, and so once
        calls.clear()
        pg.rho_length(geo.GeodesicExponent(z=g.z + 1e-3 * np.eye(5), p=p, q=q), 3.0)
        assert len(calls) == 1
        curve = block_curve(rng, 20)
        for tr in (None, factor.NormalizedTrace(CURVE_BLOCKS)):
            calls.clear()
            pg.curve_length(curve, rho=[None, 1.0, 2.0, 3.0, 4.5], trace=tr)
            assert calls == [(19, 7)] * 3  # one per order that is not even
            # an even order underflowing in every step re-reads the steps
            calls.clear()
            pg.curve_length(curve, rho=[2.0, 5000.0], trace=tr)
            assert calls == [(19, 7)]

    def test_a_zero_step_stays_zero_with_no_eigensolver(self, monkeypatch):
        p, q = rotation_pair(0.5)
        curve = np.stack([p.m, p.m, q.m, q.m])
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a, *args: calls.append(a.shape) or real(a, *args))
        assert pg.curve_length(curve, rho=1e308) == pytest.approx(math.sin(0.5), rel=1e-15)
        assert calls == [(1, 2, 2)]  # only the step from p to q


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--json"] + argv)
    return code, json.loads(out.getvalue())["results"]


@pytest.mark.parametrize("m,rho,want", [(2, 5000.0, math.pi / 4),
                                        (4, 1e6, math.pi / 3 * 2 ** -1e-6),
                                        (4, 1e308, math.pi / 3)])
def test_jones_at_large_orders(m, rho, want):
    code, res = run_cli(["jones", "--m", str(m), "--rho", repr(rho)])
    entry, = res["rho"]
    assert code == 0 and entry["assert_ok"] is True
    assert abs(entry["value"] - entry["closed_form"]) <= 1e-12
    assert abs(entry["value"] - want) <= 1e-12


def test_geodesic_at_the_largest_order(tmp_path):
    pi4 = (np.diag([1.0, 1.0, 0.0]),
           pg.from_span(np.array([[1.0, 0.0], [0.0, 2 ** -0.5], [0.0, 2 ** -0.5]])).m)
    wedge = (np.diag([1.0, 0.0, 1.0]), np.diag([0.0, 1.0, 1.0]))
    for (pm, qm), want in ((pi4, math.pi / 4), (wedge, math.pi / 2)):
        pf, qf = tmp_path / "p.json", tmp_path / "q.json"
        cli.write_matrix(pf, pm)
        cli.write_matrix(qf, qm)
        code, res = run_cli(["geodesic", str(pf), str(qf), "--rho", "1e308"])
        assert code == 0
        assert abs(res["rho_lengths"]["1e+308"] - want) <= 1e-12
