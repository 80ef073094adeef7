"""Block direct-sum matrix algebras with normalized traces.

A single block models a finite factor, where equal traces guarantee a
minimal geodesic between projections; multiple blocks give the smallest
counterexamples, since equivalence must be witnessed inside the algebra
(per-block rank equality), not just globally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import geo, numkit, projlat
from .errors import (
    BadTrace,
    DimensionMismatch,
    InternalConsistencyError,
    InvariantViolation,
    NotMember,
    RankMismatch,
)
from .geo import GeodesicExponent
from .numkit import DEFAULT_TOL, ToleranceProfile, adjoint
from .projlat import Projection


@dataclass(frozen=True)
class FiniteAlgebra:
    """Direct sum of full matrix blocks with trace weights summing to 1."""

    blocks: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        blocks = tuple(self.blocks)
        # nan and +-inf first, as int() raises on them
        if any(b != b or b in (math.inf, -math.inf) or int(b) != b or b < 1 for b in blocks):
            raise ValueError("block dimensions must be integers >= 1")
        object.__setattr__(self, "blocks", tuple(int(b) for b in blocks))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.blocks) != len(self.weights) or not self.blocks:
            raise ValueError("blocks and weights must be equal-length, nonempty")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        if numkit.exceeds(abs(sum(self.weights) - 1.0), 1e-12):
            raise ValueError("weights must sum to 1")

    @classmethod
    def full(cls, n: int) -> "FiniteAlgebra":
        """The full matrix algebra M_n as a single block."""
        return cls(blocks=(n,), weights=(1.0,))

    @property
    def n(self) -> int:
        return sum(self.blocks)

    def slices(self) -> list[slice]:
        edges = np.cumsum((0,) + self.blocks)
        return [slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]


def member_check(a: FiniteAlgebra, x, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    """True iff every off-block entry of x is at most atol_structure."""
    x = numkit.as_complex(x)
    if x.shape[0] != a.n:
        raise DimensionMismatch(f"expected dimension {a.n}, got {x.shape[0]}")
    mask = np.ones(x.shape, dtype=bool)
    for sl in a.slices():
        mask[sl, sl] = False
    return not numkit.exceeds(float(np.abs(x[mask]).max(initial=0.0)), tol.atol_structure)


def trace(t: "NormalizedTrace", x) -> complex:
    """Weighted sum of normalized block traces; requires membership."""
    a = t.algebra
    x = numkit.as_complex(x)
    if not member_check(a, x):
        raise NotMember("matrix has off-block mass; not in the algebra")
    total = 0j
    for w, dim, sl in zip(a.weights, a.blocks, a.slices()):
        total += w * np.trace(x[sl, sl]) / dim
    return complex(total)


@dataclass(frozen=True)
class NormalizedTrace:
    """The tracial state of a FiniteAlgebra: tau(I) = 1, tau(xy) = tau(yx)."""

    algebra: FiniteAlgebra

    def __call__(self, x) -> complex:
        return trace(self, x)

    def of_factored(self, v: np.ndarray, d: np.ndarray) -> float | np.ndarray:
        """tau(V diag(d) V*) for n x m V and real d, with no n x n product;
        for a (k, n, m) stack of V, the k values as an array, with d shared
        (m,) or given per matrix (k, m).

        Each block's trace is sum_j d_j ||V[block, j]||^2. Membership, which
        :func:`trace` requires, is checked on the off-block products
        V[a] diag(d) V[b]* alone, entrywise within atol_structure; a single
        block has none."""
        a = self.algebra
        if v.shape[-2] != a.n:
            raise DimensionMismatch(f"expected dimension {a.n}, got {v.shape[-2]}")
        slices = a.slices()
        for i, si in enumerate(slices):
            for sj in slices[i + 1:]:
                off = ((v[..., si, :] * d[..., None, :])
                       @ v[..., sj, :].conj().swapaxes(-1, -2))
                if numkit.exceeds(float(np.abs(off).max()), DEFAULT_TOL.atol_structure):
                    raise NotMember("matrix has off-block mass; not in the algebra")
        weight = ((v.real ** 2 + v.imag ** 2) @ d[..., None])[..., 0]
        vals = sum(w * weight[..., sl].sum(axis=-1) / dim
                   for w, dim, sl in zip(a.weights, a.blocks, slices))
        return float(vals) if v.ndim == 2 else vals


@dataclass(frozen=True)
class HopfRinowCertificate:
    """Existence verdict with the per-block wedge ranks that explain it."""

    exists: bool
    per_block_ranks: tuple[tuple[int, int], ...]


def _block_projection(p: Projection, sl: slice) -> Projection:
    return projlat.make_projection(p.m[sl, sl], p.tol)


def hopf_rinow_certify(a: FiniteAlgebra, p: Projection,
                       q: Projection) -> HopfRinowCertificate:
    """Certify whether p and q are joined by a geodesic inside the algebra.

    Equivalence of the wedge parts must hold blockwise. In a single
    block, equal traces (equal ranks) force existence; that implication
    is a theorem, so its failure would signal a kernel bug.
    """
    return _certify_blocks(a, p, q)[0]


def _certify_blocks(a: FiniteAlgebra, p: Projection, q: Projection) -> tuple:
    """The certificate of :func:`hopf_rinow_certify` and each block's position."""
    for x in (p, q):
        if not member_check(a, x.m, x.tol):
            raise NotMember("projection is not a member of the algebra")
    positions = [projlat.position(_block_projection(p, sl), _block_projection(q, sl))
                 for sl in a.slices()]
    ranks = [pos.ranks()[2:4] for pos in positions]
    exists = all(pos.exists() for pos in positions)
    if len(a.blocks) == 1 and p.rank == q.rank and not exists:
        raise InternalConsistencyError(
            "equal-trace projections in a factor must be joinable")
    return HopfRinowCertificate(exists=exists, per_block_ranks=tuple(ranks)), positions


def orthogonal_pair(a: FiniteAlgebra, r, seed: int | None = None
                    ) -> tuple[Projection, Projection]:
    """Orthogonal projections p, q of normalized trace r in a single block.

    Coordinate projections onto the first and second groups of r*n basis
    vectors; a seed conjugates both by a common Haar unitary. The pair
    has wedge parts e10 = p, e01 = q and empty generic part.
    """
    if len(a.blocks) != 1:
        raise ValueError("orthogonal_pair needs a single-block algebra")
    if not math.isfinite(r):
        raise BadTrace(f"the trace r = {r} is not finite")
    n = a.n
    rn = Fraction(r).limit_denominator(10 ** 9) * n
    if rn.denominator != 1:
        raise BadTrace(f"r*n = {float(r) * n} is not an integer")
    k = int(rn)
    if k < 1 or 2 * k > n:
        raise BadTrace(f"need 1 <= r*n and 2*r*n <= n, got r*n = {k}")
    pm = np.zeros((n, n), dtype=np.complex128)
    qm = np.zeros((n, n), dtype=np.complex128)
    pm[np.arange(k), np.arange(k)] = 1.0
    qm[np.arange(k, 2 * k), np.arange(k, 2 * k)] = 1.0
    if seed is not None:
        u = numkit.seeded_unitary(n, seed)
        pm = u @ pm @ adjoint(u)
        qm = u @ qm @ adjoint(u)
    return projlat.make_projection(pm), projlat.make_projection(qm)


def multi_geodesics(p: Projection, q: Projection, count: int, rho: float,
                    t: NormalizedTrace) -> list[tuple[GeodesicExponent, float]]:
    """Normalized geodesics between orthogonal equal-trace projections,
    with their rho-lengths, one per seeded partial isometry between p and
    q, all of one length: distinct when ||pq|| <= ENDPOINT_ATOL/8, where the
    witnesses swap every plane (``geo.position_exponent``).
    """
    if p.rank != q.rank:
        raise RankMismatch(f"ranks differ: {p.rank} vs {q.rank}")
    if numkit.exceeds(numkit.bounded_norm(p.m @ q.m, p.tol.atol_structure), p.tol.atol_structure):
        raise InvariantViolation("projections must be orthogonal (pq = 0)")
    pos = projlat.position(p, q)
    out = []
    for i in range(count):
        w = geo.partial_isometry(p, q, seed=i + 1)
        g = geo.position_exponent(pos, w)
        out.append((g, geo.rho_length(g, rho, t)))
    return out


def blockwise_minimal_exponent(a: FiniteAlgebra, p: Projection,
                               q: Projection) -> GeodesicExponent:
    """Assemble a minimal exponent inside the algebra, block by block.

    Each block's thin spectrum (w, V) is embedded in the block's rows, so
    the exponent is built from the concatenated spectrum with no
    eigendecomposition of the assembled z."""
    cert, positions = _certify_blocks(a, p, q)
    if not cert.exists:
        raise RankMismatch(f"not joinable inside the algebra: {cert.per_block_ranks}")
    ws, vs = [], []
    for sl, pos in zip(a.slices(), positions):
        w, v = geo.position_exponent(pos).spectrum
        embedded = np.zeros((a.n, v.shape[1]), dtype=np.complex128)
        embedded[sl] = v
        ws.append(w)
        vs.append(embedded)
    g = GeodesicExponent.from_spectrum(np.concatenate(ws), np.hstack(vs), p, q)
    if numkit.exceeds(geo.verify_geodesic(g).max(), geo.ENDPOINT_ATOL):
        raise InternalConsistencyError("blockwise exponent fails verification")
    return g
