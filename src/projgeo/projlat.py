"""The projection lattice: validated projections, meets, the relative
position of a pair (its five parts, principal angles and principal
vectors) and the reflection symmetry of its generic part.

A position comes from one SVD of Bp* Bq over the orthonormal range bases
that each projection carries from birth, and planes near angle 0 from the
sine side. Only this module classifies planes: a meet when the cosine of
the principal angle is within atol_spectral of 1, a wedge when its sine is
(an angle width of about sqrt(2 atol_spectral), 1.41e-3 by default).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg

from . import numkit
from .errors import (DimensionMismatch, NoGenericPart, NoGeodesic,
                     NotProjection, RankDeficient)
from .numkit import DEFAULT_TOL, ToleranceProfile, adjoint, frobenius

_log = logging.getLogger("projgeo")


@dataclass(frozen=True, eq=False)
class Projection:
    """A validated Hermitian idempotent matrix, held as its range basis.

    Instances are produced by :func:`make_projection`, or from orthonormal
    columns by :func:`from_span`, the parts of a :class:`Position`,
    ``geo.geodesic_point`` and ``jones.expectation_projection``. ``basis``
    (n x rank, orthonormal, read-only), fixed at birth, is the pivoted-Cholesky
    factor that certified the matrix in :func:`make_projection` (refined only
    above the rounding allowance; the eigenvalue-1 eigenvectors when its eigh
    fallback decided), or the orthonormal columns the projection was built
    from; ``n`` and ``rank`` are its shape. The read-only matrix ``m`` is
    the sym that make_projection validated, or else the symmetrized
    basis basis*, formed when first read. ``basis_residual`` bounds
    ||basis* basis - 1|| from above: the residual measured when the basis
    was certified or validated, a proven bound that settled the validation
    (``geo.geodesic_point`` of a position-built exponent), or else
    measured when first read. The read-only :func:`range_basis` is formed
    when first asked for and kept.
    """

    basis: np.ndarray
    tol: ToleranceProfile

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @cached_property
    def m(self) -> np.ndarray:
        m = self.basis @ adjoint(self.basis)
        return _frozen((m + adjoint(m)) / 2)

    @cached_property
    def basis_residual(self) -> float:
        return numkit.orthonormality_residual(self.basis, np.inf)

    @cached_property
    def _range_basis(self) -> np.ndarray:  # range_basis(self)
        b = self.basis
        if b.shape[1] == 0:
            return _frozen(np.zeros(b.shape, dtype=np.complex128))
        qmat, _, _ = scipy.linalg.qr(adjoint(b), pivoting=True)
        return _frozen(numkit.fix_phases(b @ qmat))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def make_projection(m, tol: ToleranceProfile = DEFAULT_TOL) -> Projection:
    """Validate and wrap a matrix as an orthogonal projection.

    The entries are re-symmetrized as sym = (m + m*)/2 before the
    idempotency and spectral checks, but a Hermiticity residual ||m - m*||
    above atol_structure (:func:`numkit.bounded_norm`, reported exactly) in
    the original input is already grounds for rejection.

    A projection is then accepted from a range basis that certifies it
    (see :func:`_certified_basis`), with no eigendecomposition. Any sym
    the certificate cannot settle (noise near a threshold, a negative
    eigenvalue, a trace far from an integer) goes to one eigh of sym, which
    decides: it gives the idempotency residual max |lam^2 - lam|, the
    spectrum, the rank and the range basis, and every rejection comes from
    it.
    """
    m = numkit.as_complex(m)
    mh = adjoint(m)
    herm = numkit.bounded_norm(m - mh, tol.atol_structure)
    if numkit.exceeds(herm, tol.atol_structure):
        raise NotProjection(f"Hermiticity residual {herm:.3e} > atol_structure")
    sym = (m + mh) / 2
    basis, eps = _certified_basis(sym, tol)
    if basis is None:
        _log.debug("no certified range basis for an n = %d projection; taking "
                   "its eigh", sym.shape[0])
        eigs, vecs = np.linalg.eigh(sym)
        idem = float(np.abs(eigs * eigs - eigs).max())
        if numkit.exceeds(idem, tol.atol_structure):
            raise NotProjection(f"idempotency residual {idem:.3e} > atol_structure")
        off = np.minimum(np.abs(eigs), np.abs(eigs - 1.0))
        if numkit.exceeds(off.max(), tol.atol_spectral):
            raise NotProjection("spectrum not within atol_spectral of {0, 1}")
        rank = int((eigs > 0.5).sum())
        # eigenvalues ascend: the last rank columns span the range
        basis = vecs[:, sym.shape[0] - rank:].copy()
    p = Projection(basis=_frozen(basis), tol=tol)
    vars(p)["m"] = _frozen(sym)
    if eps is not None:
        vars(p)["basis_residual"] = eps
    return p


def _certified_basis(sym: np.ndarray, tol: ToleranceProfile):
    """(B, ||B* B - 1||_F) for an n x k orthonormal basis B that proves the
    Hermitian sym a projection of rank k, or (None, None) when this cannot
    be shown cheaply.

    k is the trace of sym rounded. A pivoted Cholesky (LAPACK ?pstrf)
    truncated at k gives sym ~ L L*; for a projection L = B M with M
    unitary, so L spans the range. L itself is certified: it reproduces sym
    to O(n u) (Higham 2002, section 10.3), and d below measured at most
    4.1 n u on Haar projections up to n = 512. Only above the rounding
    allowance 8 g(n) ~ 11.4 n u (g = :func:`numkit.complex_dot_error`) or
    the tolerances does one subspace step B = (sym L) R^-1, with R* R the
    Cholesky factorization of (sym L)* (sym L), replace it.

    B is accepted when d = ||B* B - 1||_F + ||sym - B B*||_F satisfies
    d <= atol_spectral (so d < 1/2) and d (1 + d) <= atol_structure. B B* has
    the spectrum {0} with that of B* B, which lies within d of 1, and
    by Weyl's inequality each eigenvalue of sym lies within d of one of
    B B*: the spectrum is within atol_spectral of {0, 1}, the idempotency
    residual max |lam (lam - 1)| is at most atol_structure and exactly k
    eigenvalues exceed 1/2, which is every check of the eigh in
    :func:`make_projection` (the argument of :func:`_from_orthonormal`).
    The pivots of a block-diagonal sym stay in one block each and L keeps
    its exact zeros, so each column of B lies in one block. Cost O(n^2 k).
    """
    n = sym.shape[0]
    trace = sym.trace().real
    if not -0.5 < trace < n + 0.5:
        return None, None
    k = round(trace)
    b = np.zeros((n, k), dtype=np.complex128)
    if k:
        # sym.T is conj(sym) in Fortran order: conj(sym)[piv, piv] = U* U, so L[piv] = U^T.
        # A projection's rank-j Schur complement has a diagonal entry >= j / n,
        # so the pivots stop below 1 / (2n) only past its rank.
        c, piv, rank, info = scipy.linalg.lapack.zpstrf(sym.T, tol=0.5 / n)
        if info < 0 or rank < k:
            return None, None
        b[piv - 1] = np.triu(c[:k]).T
    eps, d = _certificate(b, sym)
    if k and numkit.exceeds(d, min(8 * numkit.complex_dot_error(n), tol.atol_spectral,
                                   tol.atol_structure / 2)):
        y = sym @ b
        r, info = scipy.linalg.lapack.zpotrf(adjoint(y) @ y)
        if info:
            return None, None
        # B^T = R^-T Y^T, with Y^T in Fortran order, is B = Y R^-1
        b = scipy.linalg.blas.ztrsm(1.0, r, y.T, trans_a=1, overwrite_b=1).T
        eps, d = _certificate(b, sym)
    if numkit.exceeds(d, tol.atol_spectral) or numkit.exceeds(d * (1.0 + d), tol.atol_structure):
        return None, None
    return b, eps


def _certificate(b: np.ndarray, sym: np.ndarray) -> tuple[float, float]:
    """(eps, d) = (||b* b - 1||_F, eps + ||sym - b b*||_F) of n x k columns b."""
    resid = b @ adjoint(b)
    resid -= sym
    eps = numkit.orthonormality_residual(b, np.inf)
    return eps, eps + frobenius(resid)


def _from_orthonormal(b: np.ndarray, tol: ToleranceProfile,
                      certified: float | None = None) -> Projection:
    """The projection b b* onto the span of n x k orthonormal columns b.

    It is validated through eps = ||b* b - 1||, a k x k residual, and
    rejected unless eps <= min(atol_structure / 2, atol_spectral, 1/4).
    That bound implies every check of :func:`make_projection`, up to the
    rounding of the product: b b* is Hermitian, and its nonzero
    eigenvalues are those of b* b, which lie in [1 - eps, 1 + eps], so the
    spectrum is within eps <= atol_spectral of {0, 1}, the idempotency
    residual max |lam (lam - 1)| <= (1 + eps) eps <= atol_structure, and
    the rank (eigenvalues above 1/2) is k. The Frobenius norm bounds eps
    and settles it unless it exceeds the tolerance. b itself becomes the
    read-only ``basis``, and no matrix is formed until ``m`` is read.

    A caller that holds a proven upper bound ``certified`` of eps passes it,
    and where :func:`numkit.settles` accepts it at that tolerance it is
    taken as eps, with no Gram formed; else eps is measured.
    """
    bound = min(tol.atol_structure / 2, tol.atol_spectral, 0.25)
    if certified is not None and numkit.settles("geodesic point's Gram bound", bound, certified):
        eps = certified
    else:
        eps = numkit.orthonormality_residual(b, bound)
        if numkit.exceeds(eps, bound):
            raise NotProjection(
                f"orthonormality residual {eps:.3e} of the range basis > {bound:.3e}")
    p = Projection(basis=_frozen(b), tol=tol)
    vars(p)["basis_residual"] = eps
    return p


def from_span(columns, tol: ToleranceProfile = DEFAULT_TOL) -> Projection:
    """Orthogonal projection onto the column span of an n x k matrix."""
    cols = np.asarray(columns, dtype=np.complex128)
    if cols.ndim == 1:
        cols = cols[:, None]
    if cols.ndim != 2:
        raise ValueError("expected a vector or an n x k matrix of columns")
    if not np.isfinite(cols).all():
        raise ValueError("column entries must be finite")
    n, k = cols.shape
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    if k == 0 or (s > tol.rank_cutoff(max(n, k), s[0])).sum() < s.size:
        raise RankDeficient(f"columns do not have numerical rank {k}")
    return _from_orthonormal(u, tol)


def complement(p: Projection) -> Projection:
    """I - p."""
    return make_projection(np.eye(p.n) - p.m, p.tol)


def meet(p: Projection, q: Projection) -> Projection:
    """Projection onto range(p) intersect range(q): the e11 part of the
    position, which counts angles below ~sqrt(2 atol_spectral) as zero."""
    return position(p, q).e11


_SKIP = 1e-10  # planes this near 0 are held, and by default this near pi/2 swapped
MEET, GENERIC, WEDGE = 0, 1, 2  # the class of a principal plane


@dataclass(frozen=True, eq=False)
class Position:
    """The relative position of a pair (p, q), built once by :func:`position`.

    Each principal plane j is held once: unit vectors x_j of range p and y_j
    of range q, cos and sin of their angle theta_j, u_j off range p with
    y_j = cos x_j + sin u_j (0 where sin = 0), and its class: MEET if
    cos >= 1 - atol_spectral, WEDGE if sin is, else GENERIC. A meet plane
    gives (x +- y)/|x +- y| in e11 = p ^ q and e00, a wedge plane the
    symmetric orthonormalization of (x, y) in e10 = p ^ q' and e01 = p' ^ q
    with the unpaired vectors, and the generic planes (``x``, ``u``,
    ascending ``angles``) span e0, through a QR since [x, u] is orthonormal
    only to about eps / sin; each part is validated when first read.
    The exponent holds ``held``, turns and swaps by :meth:`split` with a witness of e10 ~ e01.
    """

    p: Projection
    q: Projection
    xs: np.ndarray      # n x k: x_j,
    ys: np.ndarray      # y_j
    us: np.ndarray      # and u_j of each plane,
    cos: np.ndarray     # the cosine
    sin: np.ndarray     # and sine of its angle
    kind: np.ndarray    # and its class
    p_only: np.ndarray  # unpaired principal vectors of p
    q_only: np.ndarray  # and of q

    x = cached_property(lambda self: _frozen(self.xs[:, self.kind == GENERIC]))
    u = cached_property(lambda self: _frozen(self.us[:, self.kind == GENERIC]))
    theta = cached_property(lambda self: _frozen(np.arctan2(self.sin, self.cos)))
    angles = cached_property(lambda self: _frozen(self.theta[self.kind == GENERIC]))
    held = cached_property(lambda self: self._select(self.theta <= _SKIP))
    _splits = cached_property(lambda self: {})  # split() by its swapped planes

    def _select(self, mask: np.ndarray) -> tuple[np.ndarray, ...]:
        return tuple(_frozen(a[..., mask]) for a in (self.theta, self.xs, self.ys, self.us))

    @cached_property
    def b11(self) -> np.ndarray:
        both = self.xs[:, self.kind == MEET] + self.ys[:, self.kind == MEET]
        return _frozen(both / np.linalg.norm(both, axis=0))

    def _wedge_bases(self, planes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # symmetric (Lowdin) orthonormalization of (x, y): the Gram matrix
        # [[1, c], [c, 1]] has inverse square root [[a+b, a-b], [a-b, a+b]]/2
        c, xw, yw = self.cos[planes], self.xs[:, planes], self.ys[:, planes]
        a, b = 1.0 / np.sqrt(1.0 + c), 1.0 / np.sqrt(1.0 - c)
        return (_frozen(np.hstack([((a + b) * xw + (a - b) * yw) / 2, self.p_only])),
                _frozen(np.hstack([((a - b) * xw + (a + b) * yw) / 2, self.q_only])))

    _wedges = cached_property(lambda self: self._wedge_bases(self.kind == WEDGE))
    b10 = property(lambda self: self._wedges[0])
    b01 = property(lambda self: self._wedges[1])

    def ranks(self) -> tuple[int, int, int, int, int]:
        """Ranks of (e11, e00, e10, e01, e0)."""
        r = [b.shape[1] for b in (self.b11, self.b10, self.b01)] + [2 * self.angles.size]
        return (r[0], self.p.n - sum(r), r[1], r[2], r[3])

    def _span(self, *bases) -> Projection:
        return _from_orthonormal(np.hstack(bases), self.p.tol)

    e11 = cached_property(lambda self: self._span(self.b11))
    e10 = cached_property(lambda self: self._span(self.b10))
    e01 = cached_property(lambda self: self._span(self.b01))
    e0 = cached_property(lambda self: self._span(np.linalg.qr(np.hstack([self.x, self.u]))[0]))

    @cached_property
    def e00(self) -> Projection:  # the complement of the other parts, from a complete QR
        b = np.hstack([self.b11, self.b10, self.b01, self.x, self.u])
        return self._span(np.linalg.qr(b, mode="complete")[0][:, b.shape[1]:])

    def split(self, reach: float = _SKIP) -> tuple[tuple, tuple[np.ndarray, np.ndarray]]:
        """(theta, x, y, u) of the planes above 1e-10 the exponent turns, and bases of
        the parts it swaps: wedge planes within ``reach`` of pi/2, unpaired vectors."""
        swap = (self.kind == WEDGE) & (self.theta >= np.pi / 2 - reach)
        if (key := swap.tobytes()) not in self._splits:
            parts = (self._wedges if np.array_equal(swap, self.kind == WEDGE)
                     else self._wedge_bases(swap))
            self._splits[key] = self._select((self.theta > _SKIP) & ~swap), parts
        return self._splits[key]

    def exists(self) -> bool:
        return self.b10.shape[1] == self.b01.shape[1]

    def unique(self) -> bool:
        """No wedge parts; raises NoGeodesic when no geodesic exists."""
        if not self.exists():
            raise NoGeodesic(f"rank(p^q') = {self.b10.shape[1]} != "
                             f"{self.b01.shape[1]} = rank(p'^q)")
        return self.b10.shape[1] == 0

    def distance(self) -> float:
        if not self.unique():
            return np.pi / 2
        return float(self.angles.max(initial=0.0))


@lru_cache(maxsize=1)
def position(p: Projection, q: Projection) -> Position:
    """The :class:`Position` of p and q, each plane from its accurate side.

    One SVD Bp* Bq = L C R* gives the principal vectors Bp L, Bq R, the
    cosines C that set the classes and the sines |y - cos x| (Bjorck & Golub).
    Cosines near 1 do not tell planes apart, so the planes with cos >= 1 -
    max(atol_spectral, 1e-6) are taken again when their sines exceed 1e-10
    in Frobenius norm, from one SVD (1 - R)(1 - P) Y = U S Q* of their q
    vectors (P = Bp Bp*, R onto range p, the other u and q's unpaired vectors;
    Knyazev & Argentati, SIAM J. Sci. Comput. 23, 2002): y = Y Q,
    x = P y / |P y|, sines S and u = U.

    Called again with the same two projection objects, it returns the
    position it built last: projections (compared by identity) and
    positions are immutable, so ``geo.geodesic_distance`` after
    ``geo.minimal_exponent`` builds one. The cache has one slot, so at most
    one position outlives its callers."""
    if p.n != q.n:
        raise DimensionMismatch(f"ambient dimensions differ: {p.n} vs {q.n}")
    atol = p.tol.atol_spectral
    bp, bq = p.basis, q.basis
    left, cos, right_h = np.linalg.svd(adjoint(bp) @ bq)
    xs, ys = bp @ left, bq @ adjoint(right_h)
    k = cos.size
    x, y, cos = xs[:, :k], ys[:, :k], np.clip(cos, 0.0, 1.0)
    kind = np.where(cos >= 1.0 - atol, MEET, np.where(
        np.sqrt(1.0 - cos * cos) >= 1.0 - atol, WEDGE, GENERIC))
    near = cos >= 1.0 - max(atol, 1e-6)
    d = y - cos * x
    # the classes come in this order as the cosines descend; sines by class, bit for bit
    sin = np.hstack([np.linalg.norm(d[:, kind == c], axis=0) for c in (MEET, GENERIC, WEDGE)])
    u = d / np.where(sin > 0.0, sin, 1.0)
    if numkit.exceeds(frobenius(d[:, near]), _SKIP):
        h = adjoint(bp) @ y[:, near]
        rest = np.hstack([bp, u[:, ~near], ys[:, k:]])
        off = y[:, near] - bp @ h
        uu, s, qh = np.linalg.svd(off - rest @ (adjoint(rest) @ off), full_matrices=False)
        u[:, near], sin[near], qh = uu[:, ::-1], s[::-1], qh[::-1]
        px = bp @ (h @ adjoint(qh))
        cos[near] = np.linalg.norm(px, axis=0)
        x[:, near], y[:, near] = px / cos[near], y[:, near] @ adjoint(qh)
    order, gen = np.arange(k), kind == GENERIC
    order[gen] = order[gen][np.argsort(np.arctan2(sin[gen], cos[gen]))]
    arrays = (x[:, order], y[:, order], u[:, order], cos[order], sin[order], kind[order],
              xs[:, k:].copy(), ys[:, k:].copy())
    return Position(p, q, *(_frozen(a) for a in arrays))


def halmos_decompose(p: Projection, q: Projection) -> Position:
    """Split the ambient space by the relative position of p and q."""
    return position(p, q)


def range_basis(p: Projection) -> np.ndarray:
    """Deterministic orthonormal basis (n x rank) of range(p).

    A column-pivoted QR of the projection matrix keeps each basis vector
    inside the support of the columns it came from, so block-diagonal
    projections get block-supported bases even when the rank exceeds 1
    (an eigenvector basis of the degenerate eigenvalue 1 would not). For
    b = ``p.basis``, a pivoted QR b* P = Q R of the k x n matrix b* gives
    b b* P = (b Q) R with the same pivots, since b keeps the norms that
    choose them: b Q, phases fixed to be reproducible, at O(n k^2) cost.
    It is formed once per projection and kept on it read-only, so one
    basis per part serves every witness of it (``geo.partial_isometry``).
    """
    return p._range_basis


def davis_symmetry(p: Projection, q: Projection) -> np.ndarray:
    """Self-adjoint unitary v0 on the generic part with v0 (p-q) v0 = q-p.

    v0 is the polar factor of p + q - 1 on the generic part, embedded as
    an n x n matrix with v0* = v0 and v0^2 = e0. In the basis (x, u) of a
    generic plane, p + q - 1 = cos(theta) [[cos theta, sin theta],
    [sin theta, -cos theta]], and that reflection is its polar factor.
    """
    pos = position(p, q)
    if pos.angles.size == 0:
        raise NoGenericPart("the pair has no generic part")
    c, s, x, u = np.cos(pos.angles), np.sin(pos.angles), pos.x, pos.u
    return (x * c + u * s) @ adjoint(x) + (x * s - u * c) @ adjoint(u)


def principal_angles(p: Projection, q: Projection) -> np.ndarray:
    """Ascending principal angles of the generic part, in (0, pi/2),
    counted with multiplicity; empty when the projections commute."""
    return position(p, q).angles.copy()
