"""The projection lattice: validated projections, meets, the relative
position of a pair (its five parts, principal angles and principal
vectors) and the reflection symmetry of its generic part.

A position comes from one SVD of Bp* Bq over the orthonormal range bases
that each projection carries from birth (Bjorck & Golub). A plane joins a meet
when the cosine of its principal angle is within atol_spectral of 1 and a
wedge when its sine is: an angle width of about sqrt(2 atol_spectral),
1.41e-3 by default.
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
    (n x rank, orthonormal, read-only), fixed at birth, is the refined
    pivoted-Cholesky basis that certified the matrix in
    :func:`make_projection` (the eigenvalue-1 eigenvectors when its eigh
    fallback decided), or the orthonormal columns the projection was built
    from; ``n`` and ``rank`` are its shape. The read-only matrix ``m`` is
    the sym that make_projection validated, or else the symmetrized
    basis basis*, formed when first read. ``basis_residual`` bounds
    ||basis* basis - 1|| from above: the residual measured when the basis
    was certified or validated, or else measured when first read.
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


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def make_projection(m, tol: ToleranceProfile = DEFAULT_TOL) -> Projection:
    """Validate and wrap a matrix as an orthogonal projection.

    The entries are re-symmetrized as sym = (m + m*)/2 before the
    idempotency and spectral checks, but a Hermiticity residual
    ||m - m*|| above atol_structure in the original input is already
    grounds for rejection. That residual is settled by the Frobenius norm,
    which bounds the operator norm, unless the bound exceeds the tolerance;
    only then are the eigenvalues of the normal matrix i(m - m*) taken.

    A projection is then accepted from a range basis that certifies it
    (see :func:`_certified_basis`), with no eigendecomposition. Any sym
    the certificate cannot settle (noise near a threshold, a negative
    eigenvalue, a trace far from an integer) goes to one eigh of sym, which
    decides: it gives the idempotency residual max |lam^2 - lam|, the
    spectrum, the rank and the range basis, and every rejection comes from
    it.
    """
    m = numkit.as_complex(m)
    if frobenius(m - adjoint(m)) > tol.atol_structure:
        herm = float(np.abs(np.linalg.eigvalsh(1j * (m - adjoint(m)))).max())
        if herm > tol.atol_structure:
            raise NotProjection(f"Hermiticity residual {herm:.3e} > atol_structure")
    sym = (m + adjoint(m)) / 2
    basis, eps = _certified_basis(sym, tol)
    if basis is None:
        _log.debug("no certified range basis for an n = %d projection; taking "
                   "its eigh", sym.shape[0])
        eigs, vecs = np.linalg.eigh(sym)
        idem = float(np.abs(eigs * eigs - eigs).max())
        if idem > tol.atol_structure:
            raise NotProjection(f"idempotency residual {idem:.3e} > atol_structure")
        off = np.minimum(np.abs(eigs), np.abs(eigs - 1.0))
        if off.max() > tol.atol_spectral:
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
    unitary, so L spans the range. One subspace step refines it:
    B = (sym L) R^-1, where R* R is the Cholesky factorization of the
    Gram matrix (sym L)* (sym L).

    B is accepted when d = ||B* B - 1||_F + ||sym - B B*||_F satisfies
    d <= atol_spectral, d (1 + d) <= atol_structure and d < 1/2. B B* has
    the spectrum {0} with that of B* B, which lies within d of 1, and
    by Weyl's inequality each eigenvalue of sym lies within d of one of
    B B*: the spectrum is within atol_spectral of {0, 1}, the idempotency
    residual max |lam (lam - 1)| is at most atol_structure and exactly k
    eigenvalues exceed 1/2, which is every check of the eigh in
    :func:`make_projection` (the argument of :func:`_from_orthonormal`).
    The pivots of a block-diagonal sym stay inside one block each, so
    every column of B is supported on one block. Cost O(n^2 k).
    """
    n = sym.shape[0]
    trace = sym.trace().real
    if not -0.5 < trace < n + 0.5:
        return None, None
    k = round(trace)
    b = np.zeros((n, 0), dtype=np.complex128)
    if k:
        low = _pivoted_cholesky(sym, k)
        if low is None:
            return None, None
        y = sym @ low
        r, info = scipy.linalg.lapack.zpotrf(adjoint(y) @ y)
        if info:
            return None, None
        # B^T = R^-T Y^T, with Y^T in Fortran order, is B = Y R^-1
        b = scipy.linalg.blas.ztrsm(1.0, r, y.T, trans_a=1, overwrite_b=1).T
    gram_err = adjoint(b) @ b
    gram_err.flat[::k + 1] -= 1.0
    resid = b @ adjoint(b)
    resid -= sym
    eps = frobenius(gram_err)
    d = eps + frobenius(resid)
    if d <= tol.atol_spectral and d * (1.0 + d) <= tol.atol_structure and d < 0.5:
        return b, eps
    return None, None


def _pivoted_cholesky(sym: np.ndarray, k: int) -> np.ndarray | None:
    """The n x k factor L of a pivoted Cholesky sym ~ L L* stopped after k
    pivots, or None when the pivots give out before k."""
    n = sym.shape[0]
    # sym.T is conj(sym) in Fortran order, factored as conj(sym)[piv, piv]
    # = U* U. A projection's rank-j Schur complement has a diagonal entry
    # >= j / n, so the pivots stop below 1 / (2n) only past its rank.
    c, piv, rank, info = scipy.linalg.lapack.zpstrf(sym.T, tol=0.5 / n)
    if info < 0 or rank < k:
        return None
    # The pivot columns are S = sym[:, piv[:k]] = L conj(U11), so
    # L^T = U11^-H S^T; the solve reads only U11's upper triangle.
    cols = sym[:, piv[:k] - 1]
    return scipy.linalg.blas.ztrsm(1.0, c[:k, :k], cols.T, trans_a=2, overwrite_b=1).T


def _from_orthonormal(b: np.ndarray, tol: ToleranceProfile) -> Projection:
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
    """
    bound = min(tol.atol_structure / 2, tol.atol_spectral, 0.25)
    eps = numkit.orthonormality_residual(b, bound)
    if eps > bound:
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
    n, k = cols.shape
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    if k == 0 or s[-1] <= tol.rank_cutoff(max(n, k), s[0]):
        raise RankDeficient(f"columns do not have numerical rank {k}")
    return _from_orthonormal(u, tol)


def complement(p: Projection) -> Projection:
    """I - p."""
    return make_projection(np.eye(p.n) - p.m, p.tol)


def meet(p: Projection, q: Projection) -> Projection:
    """Projection onto range(p) intersect range(q): the e11 part of the
    position, which counts angles below ~sqrt(2 atol_spectral) as zero."""
    return position(p, q).e11


@dataclass(frozen=True, eq=False)
class Position:
    """The relative position of a pair (p, q), built once by :func:`position`.

    Principal vectors x_j of p and y_j of q (x_j* y_j = cos theta_j) span
    orthogonal planes. If cos theta_j >= 1 - atol_spectral, x_j + y_j lies
    in e11 = p ^ q and x_j - y_j in e00 = p' ^ q'; if sin theta_j >= 1 -
    atol_spectral, the symmetric orthonormalization of (x_j, y_j) lies in
    e10 = p ^ q' and e01 = p' ^ q, as do unpaired principal vectors. In
    angle space either width is about sqrt(2 atol_spectral), 1.41e-3 by
    default; ``x11`` and ``y11`` keep the principal vectors of the planes
    absorbed into the meet. The other planes form the generic part e0:
    ``x``, ``y``, ``u`` = (y_j - cos theta_j x_j)/sin theta_j and ascending
    ``angles``. Every x is a column of Bp L and every y one of Bq R, for
    the SVD L C R* of Bp* Bq. The five orthogonal parts sum to 1 and are
    validated when first read. ``miss`` is the largest miss of an absorbed
    plane: sin theta_j over the planes absorbed into a meet, cos theta_j
    over those absorbed into a wedge, and 0 when no plane is absorbed.
    """

    p: Projection
    q: Projection
    b11: np.ndarray  # orthonormal bases of e11,
    b10: np.ndarray  # e10
    b01: np.ndarray  # and e01
    x11: np.ndarray
    y11: np.ndarray
    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    angles: np.ndarray
    miss: float

    def ranks(self) -> tuple[int, int, int, int, int]:
        """Ranks of (e11, e00, e10, e01, e0)."""
        r = [b.shape[1] for b in (self.b11, self.b10, self.b01)] + [2 * self.angles.size]
        return (r[0], self.p.n - sum(r), r[1], r[2], r[3])

    def _span(self, *bases) -> Projection:
        return _from_orthonormal(np.hstack(bases), self.p.tol)

    e11 = cached_property(lambda self: self._span(self.b11))
    e10 = cached_property(lambda self: self._span(self.b10))
    e01 = cached_property(lambda self: self._span(self.b01))
    e0 = cached_property(lambda self: self._span(self.x, self.u))

    @cached_property
    def e00(self) -> Projection:
        b = np.hstack([self.b11, self.b10, self.b01, self.x, self.u])
        return make_projection(np.eye(self.p.n) - b @ adjoint(b), self.p.tol)

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
    """The :class:`Position` of p and q: one SVD of the range bases' product.

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
    x, y = xs[:, :k], ys[:, :k]
    cos = np.clip(cos, 0.0, 1.0)
    meets = cos >= 1.0 - atol
    wedges = ~meets & (np.sqrt(1.0 - cos * cos) >= 1.0 - atol)
    gen = ~(meets | wedges)
    x11, y11 = x[:, meets], y[:, meets]
    both = x11 + y11
    # symmetric (Lowdin) orthonormalization of (x, y): the Gram matrix
    # [[1, c], [c, 1]] has inverse square root [[a+b, a-b], [a-b, a+b]]/2
    c, xw, yw = cos[wedges], x[:, wedges], y[:, wedges]
    a, b = 1.0 / np.sqrt(1.0 + c), 1.0 / np.sqrt(1.0 - c)
    yg = y[:, gen]
    d = yg - cos[gen] * x[:, gen]
    s = np.linalg.norm(d, axis=0)
    # the sine of a meet plane from its vectors, like s: read off a cosine
    # near 1 it would be accurate only to about sqrt(eps) = 1.5e-8
    sines = np.linalg.norm(y11 - cos[meets] * x11, axis=0)
    miss = max(sines.max(initial=0.0), c.max(initial=0.0))
    angles = np.arctan2(s, cos[gen])
    order = np.argsort(angles)
    arrays = (both / np.linalg.norm(both, axis=0),
              np.hstack([((a + b) * xw + (a - b) * yw) / 2, xs[:, k:]]),
              np.hstack([((a - b) * xw + (a + b) * yw) / 2, ys[:, k:]]),
              x11, y11, x[:, gen][:, order], yg[:, order], (d / s)[:, order], angles[order])
    for arr in arrays:
        arr.flags.writeable = False
    return Position(p, q, *arrays, float(miss))


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
    """
    b = p.basis
    if b.shape[1] == 0:
        return np.zeros(b.shape, dtype=np.complex128)
    qmat, _, _ = scipy.linalg.qr(adjoint(b), pivoting=True)
    return numkit.fix_phases(b @ qmat)


def compress(m: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """basis* m basis: the matrix of m restricted to span(basis)."""
    return adjoint(basis) @ m @ basis


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
