"""Random and structured generation of projection pairs, plus the
diagnostic battery the batch experiments and property tests share.

Structured pairs are assembled in a canonical basis from prescribed part
ranks and generic angles, then conjugated by a common Haar unitary, so
the ground-truth decomposition is known exactly.
"""

from __future__ import annotations

import numpy as np

from . import geo, numkit, projlat
from .numkit import DEFAULT_TOL, ToleranceProfile, adjoint, operator_norm
from .projlat import Projection

WITNESS_SEEDS = (1, 2)  # of the partial isometries pair_diagnostics compares


def random_projection(n: int, rank: int, rng: np.random.Generator,
                      tol: ToleranceProfile = DEFAULT_TOL) -> Projection:
    """Haar-random projection of the given rank in M_n."""
    if not 0 <= rank <= n:
        raise ValueError(f"rank must lie in [0, {n}]")
    d = np.zeros((n, n), dtype=np.complex128)
    d[np.arange(rank), np.arange(rank)] = 1.0
    u = numkit.haar_unitary(n, rng)
    return projlat.make_projection(u @ d @ adjoint(u), tol)


def structured_pair(n11: int, n00: int, n10: int, n01: int, angles,
                    rng: np.random.Generator | None = None,
                    tol: ToleranceProfile = DEFAULT_TOL):
    """Pair with prescribed part ranks and generic principal angles.

    Returns (p, q, info) where info records the ambient dimension and the
    intended ranks (e11, e00, e10, e01, e0). An angle within the width
    sqrt(2 atol_spectral) (1.41e-3 by default) of 0 or pi/2 is counted in a
    meet or wedge part by the verdicts, while the exponent still turns its
    plane by it unless it lies within 1e-10 of the threshold.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    g = angles.size
    n = n11 + n00 + n10 + n01 + 2 * g
    pm = np.zeros((n, n), dtype=np.complex128)
    qm = np.zeros((n, n), dtype=np.complex128)
    i = 0
    pm[i:i + n11, i:i + n11] = np.eye(n11)
    qm[i:i + n11, i:i + n11] = np.eye(n11)
    i += n11 + n00
    pm[i:i + n10, i:i + n10] = np.eye(n10)
    i += n10
    qm[i:i + n01, i:i + n01] = np.eye(n01)
    i += n01
    for theta in angles:
        c, s = np.cos(theta), np.sin(theta)
        pm[i, i] = 1.0
        qm[i:i + 2, i:i + 2] = [[c * c, c * s], [c * s, s * s]]
        i += 2
    if rng is not None:
        u = numkit.haar_unitary(n, rng)
        pm = u @ pm @ adjoint(u)
        qm = u @ qm @ adjoint(u)
    info = {"n": n, "ranks": (n11, n00, n10, n01, 2 * g),
            "angles": np.sort(angles).tolist()}
    return (projlat.make_projection(pm, tol),
            projlat.make_projection(qm, tol), info)


def random_pair(n: int, rng: np.random.Generator, force_wedge: bool = False,
                tol: ToleranceProfile = DEFAULT_TOL):
    """Random pair in M_n with a randomly drawn position structure.

    With force_wedge the pair always has equal wedge ranks >= 1 (so a
    geodesic exists but is not unique). Generic angles are drawn from
    [0.05, pi/2 - 0.05], far outside the classification width (see
    :func:`structured_pair`, which reaches inside it) at 0 and pi/2.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    while True:
        gmax = (n - 2) // 2 if force_wedge else n // 2
        g = int(rng.integers(0, gmax + 1))
        rest = n - 2 * g
        if force_wedge:
            wedge = int(rng.integers(1, rest // 2 + 1))
            n10 = n01 = wedge
            rest -= 2 * wedge
        else:
            n10 = int(rng.integers(0, rest + 1))
            rest -= n10
            n01 = int(rng.integers(0, rest + 1))
            rest -= n01
        n11 = int(rng.integers(0, rest + 1))
        n00 = rest - n11
        if g + n11 + n00 + n10 + n01 > 0:
            break
    angles = rng.uniform(0.05, np.pi / 2 - 0.05, size=g)
    p, q, info = structured_pair(n11, n00, n10, n01, angles, rng, tol)
    return p, q, info


def spectral_symmetry_residual(p: Projection, q: Projection,
                               pos: projlat.Position | None = None) -> float:
    """How far the spectrum of p - q on the generic part is from being
    symmetric about the origin (0.0 when there is no generic part)."""
    if pos is None:
        pos = projlat.position(p, q)
    if pos.angles.size == 0:
        return 0.0
    a, b = (adjoint(r.basis) @ np.hstack([pos.x, pos.u]) for r in (p, q))
    lam = np.linalg.eigvalsh(adjoint(a) @ a - adjoint(b) @ b)
    return float(np.abs(lam + lam[::-1]).max())


def position_report(pos: projlat.Position) -> dict:
    """The decomposition half of :func:`pair_diagnostics`, read from one
    position with no exponent built: the decomposition residuals, spectral
    symmetry, the existence verdict and the angles, and when a geodesic
    exists its uniqueness and distance, with no part matrix formed (README,
    "The diagnostic battery")."""
    p, q = pos.p, pos.q
    bases = (pos.b11, pos.e00.basis, pos.b10, pos.b01, np.hstack([pos.x, pos.u]))
    part = np.repeat(np.arange(5), [b.shape[1] for b in bases])  # the part of each column
    frame = np.hstack(bases)
    gram = adjoint(frame) @ frame  # e_i e_j: the rows of part i, the columns of part j
    # W* r W for r = p, q; [e_i, r]: the rows of part i, the columns of the others
    inner = np.stack([adjoint(c) @ c for c in (adjoint(r.basis) @ frame for r in (p, q))])
    report = {
        "n": p.n,
        "ranks": list(pos.ranks()),
        "halmos_sum_residual": operator_norm(gram - np.eye(p.n)),
        "halmos_commutator_residual": max(operator_norm(inner[:, part == i][..., part != i])
                                          for i in range(5)),
        "halmos_pairwise_residual": max(operator_norm(gram[part == i][:, part == j])
                                        for i in range(5) for j in range(i + 1, 5)),
        "spectral_symmetry_residual": spectral_symmetry_residual(p, q, pos),
        "exists": pos.exists(),
        "angles": [float(a) for a in pos.angles],
    }
    if report["exists"]:
        report["unique"] = pos.unique()
        report["distance"] = pos.distance()
    return report


def pair_diagnostics(p: Projection, q: Projection) -> dict:
    """Run the full invariant battery on one pair; plain-value report.

    Covers the decomposition residuals, existence/uniqueness verdicts
    (:func:`position_report`), the exponent contract, the wedge
    intertwining ||e^z e10 e^-z - e01|| (as ||(1 - b01 b01*) e^z b10||, equal
    for equal ranks), and when ``unique`` is False the gap between the
    exponents of two seeded witnesses (0, none built, if they swap nothing).
    The exponent's ``exponent_endpoint`` and ``exponent_codiagonality`` are
    certified upper bounds (see ``geo.verify_geodesic``).
    """
    pos = projlat.position(p, q)
    report = position_report(pos)
    if not report["exists"]:
        return report
    g = geo.position_exponent(pos)
    res = geo.verify_geodesic(g)
    moved = g.apply(1.0, pos.b10)  # e^z b10
    report.update({
        "exponent_skewness": res.skewness,
        "exponent_codiagonality": res.codiagonality,
        "exponent_norm_excess": res.norm_bound,
        "exponent_endpoint": res.endpoint,
        "wedge_intertwine": operator_norm(moved - pos.b01 @ (adjoint(pos.b01) @ moved)),
    })
    if not report["unique"]:  # witnesses that swap no column give one exponent
        _, (swapped, _) = pos.split(geo.WITNESS_REACH)
        zs = [geo.position_exponent(pos, geo.partial_isometry(pos.e10, pos.e01, seed=s)).z
              for s in (WITNESS_SEEDS if swapped.size else ())]
        report["seeded_exponent_gap"] = float(operator_norm(zs[0] - zs[1])) if zs else 0.0
    return report
