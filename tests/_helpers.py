"""Shared oracles and generators for the test suite.

The oracles deliberately take different computational routes than the
library (null spaces via SVD instead of eigenvalue clustering, generic
matrix exponentials instead of eigendecompositions) so agreement is
evidence, not tautology.
"""

import math
import sys

import numpy as np
import scipy.linalg
from hypothesis import strategies as st

import projgeo as pg
from projgeo import geo, jones, numkit, sampling

KERNELS = [(np.linalg, "eigh"), (np.linalg, "eigvalsh"), (np.linalg, "svd"),
           (np.linalg, "qr"), (scipy.linalg, "schur"), (scipy.linalg, "expm"),
           (scipy.linalg, "qr"), (scipy.linalg.lapack, "zpstrf"),
           (scipy.linalg.lapack, "zpotrf")]


def adj(a):
    return a.conj().T


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rotation_pair(theta, tol=pg.DEFAULT_TOL):
    """p = diag(1, 0) and its rotation by theta, in M_2."""
    p = pg.make_projection(np.diag([1.0, 0.0]), tol)
    r = rotation(theta)
    q = pg.make_projection(r @ p.m @ adj(r), tol)
    return p, q


def unitary(g, t):
    """e^{tz} = 1 + V (e^{-itw} - 1) V* of an exponent g as an n x n matrix,
    from its spectrum: the tests' reference for e^{tz}."""
    return g.apply(t, np.eye(g.p.n))


def compress(m, basis):
    """basis* m basis: the matrix of m restricted to span(basis)."""
    return adj(basis) @ m @ basis


def meet_oracle(pm, qm, atol=1e-8):
    """Projection onto range(p) & range(q) via the null space of
    p + q - 2I, computed with an SVD (independent of the library's
    eigenvalue-cluster route)."""
    n = pm.shape[0]
    u, s, vh = np.linalg.svd(pm + qm - 2 * np.eye(n))
    null = vh[s < atol].conj().T
    return null @ adj(null)


def part_matrices(pos):
    """The five parts as dense matrices, each the symmetrized b b* of its
    basis (what ``Projection.m`` forms), with no validation of the bases."""
    bases = [pos.b11, pos.e00.basis, pos.b10, pos.b01, np.hstack([pos.x, pos.u])]
    mats = [b @ adj(b) for b in bases]
    return [(m + adj(m)) / 2 for m in mats]


def split_residuals(pos, p, q):
    """Sum, pairwise and commutator residuals of the five parts."""
    mats = part_matrices(pos)
    total = pg.operator_norm(sum(mats) - np.eye(p.n))
    pairwise = max(pg.operator_norm(a @ b)
                   for i, a in enumerate(mats) for b in mats[i + 1:])
    commutator = max(pg.operator_norm(e @ r.m - r.m @ e)
                     for e in mats for r in (p, q))
    return total, pairwise, commutator


def battery_rounding(report, n):
    """How far a report's thin residuals may lie from :func:`split_residuals`:
    with eta = ||W* W - 1|| the sum residual of the frame W of the parts'
    bases, W* [e_i, r] W = [E_i, W* r W] + O(eta) and a product through W keeps
    its norm within a factor 1 +- eta, so the fields differ by at most about
    3 eta, plus the rounding of n-term products."""
    return 4 * (report["halmos_sum_residual"] + n * np.finfo(float).eps)


def random_joinable_pair(n, rng, force_wedge=False, tol=pg.DEFAULT_TOL):
    """Random pair guaranteed to admit a geodesic: equal wedge ranks,
    drawn structure, Haar-conjugated."""
    while True:
        g = int(rng.integers(0, n // 2 + 1))
        rest = n - 2 * g
        wmax = rest // 2
        wmin = 1 if force_wedge else 0
        if wmax < wmin:
            continue
        w = int(rng.integers(wmin, wmax + 1))
        rest -= 2 * w
        n11 = int(rng.integers(0, rest + 1))
        n00 = rest - n11
        if g + w + n11 + n00 > 0:
            break
    angles = rng.uniform(0.05, np.pi / 2 - 0.05, size=g)
    p, q, info = sampling.structured_pair(n11, n00, w, w, angles, rng, tol)
    return p, q, info


def perturbed_curves(g, rng, count, samples=1000, amp=0.25, reparam=0.12):
    """Smooth competitor curves through the endpoints of a geodesic.

    Each curve is the geodesic under a random time reparametrization,
    conjugated by a one-parameter unitary group whose parameter vanishes
    at the endpoints. Yields (samples, n, n) stacks of projections.
    """
    z = g.z
    n = g.p.n
    ts = np.linspace(0.0, 1.0, samples)
    lam_z, u_z = np.linalg.eigh(1j * z)

    def group(u, lam, params):
        phases = np.exp(-1j * np.outer(params, lam))
        return np.einsum("ij,tj,kj->tik", u, phases, u.conj())

    for _ in range(count):
        b = reparam * rng.uniform(-1.0, 1.0)
        hs = ts + b * np.sin(np.pi * ts)
        k = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        k = (k - adj(k)) / 2
        k /= max(np.linalg.norm(k, 2), 1e-12)
        ss = amp * rng.uniform(0.2, 1.0) * np.sin(np.pi * ts) \
            + amp * rng.uniform(-0.5, 0.5) * np.sin(2 * np.pi * ts)
        lam_k, u_k = np.linalg.eigh(1j * k)
        w_geo = group(u_z, lam_z, hs)
        w_pert = group(u_k, lam_k, ss)
        delta = w_geo @ g.p.m @ w_geo.conj().transpose(0, 2, 1)
        yield w_pert @ delta @ w_pert.conj().transpose(0, 2, 1)


def record_kernels(monkeypatch, kernels=KERNELS):
    """Patch each dense kernel to record (name, shape of the matrix it
    factors) per call; returns the list the calls are appended to."""
    calls = []
    for module, name in kernels:
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls.append((_name, np.shape(args[0])))
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def force_exact(monkeypatch):
    """Patch the exponent certificate to nan, so that every exponent built
    from a position gets the exact report, and its points a measured Gram."""
    monkeypatch.setattr(geo, "_exponent_bound", lambda *args: (math.nan,) * 3)


def nan_frobenius(a):
    """numkit.frobenius with every norm nan: a float, or an array over a stack."""
    shape = np.shape(a)[:-2]
    return np.full(shape, math.nan) if shape else math.nan


def patch_nan_norms(set_attr):
    """Replace numkit.operator_norm and numkit.frobenius by functions that
    return nan in every loaded projgeo module that binds them, through
    ``set_attr(module, name, value)`` (monkeypatch.setattr, or setattr)."""
    fakes = {"operator_norm": lambda a: math.nan, "frobenius": nan_frobenius}
    real = {name: getattr(numkit, name) for name in fakes}
    for key, module in list(sys.modules.items()):
        if key.split(".")[0] == "projgeo":
            for name, fake in fakes.items():
                if getattr(module, name, None) is real[name]:
                    set_attr(module, name, fake)


@st.composite
def conjugated_subalgebras(draw, kind, n, rng, reach):
    """(spec0, spec1): a block partition ("blocks") or tensor factor
    ("tensor") of M_n and its conjugate by a unitary e^h with ||h|| <= reach."""
    if kind == "blocks":
        cuts = sorted(draw(st.sets(st.integers(1, n - 1))))
        perm = rng.permutation(n)
        spec0 = jones.BlockPartition(
            groups=tuple(tuple(perm[a:b]) for a, b in zip([0, *cuts], [*cuts, n])))
    else:
        k = draw(st.sampled_from([k for k in range(1, n + 1) if n % k == 0]))
        spec0 = jones.TensorFactor(k, n // k)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (g - adj(g)) / pg.operator_norm(g - adj(g))
    u = scipy.linalg.expm(draw(st.floats(0.0, reach)) * h)
    return spec0, jones.MatrixSpan(mats=tuple(
        u @ a @ adj(u) for a in jones.spanning_matrices(spec0, n)))
