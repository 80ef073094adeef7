"""Geodesics of the projection manifold: existence and uniqueness
predicates, constructive minimal exponents, curve evaluation, distances,
and lengths in the operator and trace norms.

A geodesic through p with exponent z is t -> e^{tz} p e^{-tz} with z
skew-Hermitian and p-codiagonal (anticommuting with 2p - 1); it is
normalized when the operator norm of z is at most pi/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from . import numkit, projlat
from .errors import (DimensionMismatch, InternalConsistencyError,
                     InvariantViolation, NotSkewHermitian, RankMismatch, TooFewPoints)
from .numkit import adjoint, frobenius, operator_norm
from .projlat import Position, Projection

HALF_PI = np.pi / 2

# Endpoint contract for constructed exponents: ||e^z p e^{-z} - q||.
ENDPOINT_ATOL = 1e-8
# a supplied witness swaps wedge planes this near pi/2 (codiagonality ~9 cos)
WITNESS_REACH = ENDPOINT_ATOL / 8


@dataclass(frozen=True, eq=False)
class PartialIsometry:
    """w with w* w = source and w w* = target, held as orthonormal bases bs
    of range(source) and bt = w bs of range(target); w = bt bs* is formed
    when read. Shapes and orthonormality are checked here (InvariantViolation),
    ranges where a witness is made or used (:func:`position_exponent`)."""

    bs: np.ndarray
    bt: np.ndarray
    source: Projection
    target: Projection

    def __post_init__(self):
        src, tgt, tol = self.source, self.target, self.source.tol.atol_structure
        if not self.bs.shape == (src.n, src.rank) == self.bt.shape == (tgt.n, tgt.rank):
            raise InvariantViolation(f"witness bases {self.bs.shape} do not fit the ranks")
        eps = numkit.worst(numkit.orthonormality_residual(b, tol) for b in (self.bs, self.bt))
        if numkit.exceeds(eps, tol):
            raise InvariantViolation(f"orthonormality residual {eps:.3e} of a witness basis")

    @cached_property
    def w(self) -> np.ndarray:
        return self.bt @ adjoint(self.bs)


@dataclass(frozen=True)
class GeodesicResiduals:
    """The exponent's residual report. For an exponent built by
    :func:`position_exponent`, ``endpoint`` and ``codiagonality`` are
    certified upper bounds (:func:`_exponent_bound`) where
    :func:`numkit.settles` accepts them at ENDPOINT_ATOL, and measured
    values otherwise; ``skewness`` and ``norm_bound`` are exact."""

    skewness: float
    codiagonality: float
    norm_bound: float
    endpoint: float

    def max(self) -> float:
        return numkit.worst(vars(self).values())


class GeodesicExponent:
    """Skew-Hermitian, p-codiagonal exponent taking p to q at t = 1; z is read-only.

    Built from z alone, its :attr:`spectrum` is one eigh of i z. Built by
    :meth:`from_spectrum`, as :func:`position_exponent` builds it, it holds
    a thin spectrum that needs no eigendecomposition, and the dense z is
    formed only when first read. :func:`position_exponent` also keeps the
    planes it was built from, which :func:`geodesic_point` rotates.
    Instances are immutable."""

    _planes = None  # (X11, theta, X, U, a, v a, Gram bound) of position_exponent

    def __init__(self, z, p: Projection, q: Projection):
        z = np.array(z)
        z.flags.writeable = False
        self.__dict__.update(z=z, p=p, q=q, _thin=None)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @classmethod
    def from_spectrum(cls, w: np.ndarray, v: np.ndarray, p: Projection,
                      q: Projection) -> GeodesicExponent:
        """The exponent z = -i V diag(w) V* of real w and n x m orthonormal V.

        (w, V) becomes its :attr:`spectrum` as given. V* V = 1 is checked
        once within atol_structure, and a failure raises
        InternalConsistencyError; the residual, an upper bound of
        ||V* V - 1||, is kept for :func:`_exponent_bound`. z is made from
        V diag(w) V* symmetrized to be exactly Hermitian, so that z is
        exactly skew: its skewness is 0 without forming z."""
        w, v = np.array(w, dtype=np.float64), np.array(v, dtype=np.complex128)
        eps = numkit.orthonormality_residual(v, p.tol.atol_structure)
        if numkit.exceeds(eps, p.tol.atol_structure):
            raise InternalConsistencyError(
                f"orthonormality residual {eps:.3e} of the exponent's "
                "eigenvectors > atol_structure")
        for arr in (w, v):
            arr.flags.writeable = False
        g = cls.__new__(cls)
        g.__dict__.update(p=p, q=q, _thin=(w, v), _v_residual=eps, skewness=0.0)
        return g

    @cached_property
    def z(self) -> np.ndarray:
        """-i V diag(w) V* from the thin spectrum, formed on first read."""
        w, v = self._thin
        h = (v * w) @ adjoint(v)
        z = -0.5j * (h + adjoint(h))
        z.flags.writeable = False
        return z

    @cached_property
    def skewness(self) -> float:
        """||z + z*||, the residual that gates :attr:`spectrum`."""
        return operator_norm(self.z + adjoint(self.z))

    @cached_property
    def residuals(self) -> GeodesicResiduals:
        """Skewness, codiagonality, excess over pi/2, and the endpoint error.

        :func:`position_exponent` settles this report from its certificate
        when it can, and then the endpoint and the codiagonality are upper
        bounds. Otherwise, for a z that passes the skewness check every
        residual is the exact
        operator norm of thin factors, with P = Bp Bp* and Q = Bq Bq* the
        range projections of the bases p and q carry:

        - endpoint: (e^z P e^-z - Q)^2 is the sum of P'(1 - Q)P' and
          (1 - P')Q(1 - P') for P' = e^z P e^-z, two positive parts on
          orthogonal ranges, so ||e^z P e^-z - Q|| is the larger of
          ||(1 - Q) e^z Bp|| and ||(1 - P) e^-z Bq||, n x rank matrices.
          For equal ranks the two are equal, both sqrt(1 - s^2) with s the
          least singular value of the square matrix Bq* e^z Bp, so only the
          first is taken;
        - codiagonality: z S + S z = 2 (P z P - P' z P') for S = 2P - 1 and
          P' = 1 - P, again two parts on orthogonal ranges; ||P z P|| is
          that of the rank x rank core Bp* (i z) Bp, and with P' V = Q R,
          ||P' z P'|| is that of the m x m core R diag(w) R*.

        Each norm is the largest |eigenvalue| of a Hermitian matrix of order
        rank or m, so a thin spectrum (m < n) factors no n x n matrix. Any
        other z is reported through a general matrix exponential."""
        if numkit.exceeds(self.skewness, self.p.tol.atol_structure):
            z, p, q = self.z, self.p.m, self.q.m
            sym = 2 * p - np.eye(self.p.n)
            return GeodesicResiduals(
                skewness=self.skewness,
                codiagonality=operator_norm(z @ sym + sym @ z),
                norm_bound=numkit.worst((0.0, operator_norm(z) - HALF_PI)),
                endpoint=operator_norm(
                    scipy.linalg.expm(z) @ p @ scipy.linalg.expm(-z) - q))
        w, v = self.spectrum
        bp, bq = self.p.basis, self.q.basis
        endpoint = _norm_off(bq, self.apply(1.0, bp))
        if self.p.rank != self.q.rank:
            endpoint = numkit.worst((endpoint, _norm_off(bp, self.apply(-1.0, bq))))
        c = adjoint(v) @ bp
        r = np.linalg.qr(v - bp @ adjoint(c), mode="r")
        codiag = 2 * numkit.worst((_hermitian_norm((adjoint(c) * w) @ c),
                                   _hermitian_norm((r * w) @ adjoint(r))))
        return GeodesicResiduals(skewness=self.skewness, codiagonality=codiag,
                                 norm_bound=_norm_excess(w), endpoint=endpoint)

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, V) with 1j z = V diag(w) V* and V* V = 1, once z passes the
        skewness check.

        V is the thin n x m basis :meth:`from_spectrum` was given, which
        spans the support of z (m = 2k for k rotated planes), or else the
        n x n eigenvectors of one eigh of i z."""
        if numkit.exceeds(self.skewness, self.p.tol.atol_structure):
            raise NotSkewHermitian("skewness residual exceeds atol_structure")
        if self._thin is not None:
            return self._thin
        return np.linalg.eigh(1j * (self.z - adjoint(self.z)) / 2)

    def apply(self, t: float, b: np.ndarray) -> np.ndarray:
        """e^{tz} b = b + V ((e^{-itw} - 1) V* b) for an n x k matrix b; no
        n x n unitary is formed."""
        w, v = self.spectrum
        return b + v @ (np.expm1(-1j * t * w)[:, None] * (adjoint(v) @ b))


def _norm_excess(w: np.ndarray) -> float:
    """max(0, ||z|| - pi/2) of a z with eigenvalues -i w."""
    return numkit.worst((0.0, float(np.abs(w).max(initial=0.0)) - HALF_PI))


def _hermitian_norm(h: np.ndarray) -> float:
    """The operator norm of a Hermitian matrix: its largest |eigenvalue|."""
    return float(np.abs(np.linalg.eigvalsh(h)).max(initial=0.0))


def _norm_off(b: np.ndarray, x: np.ndarray) -> float:
    """||(1 - b b*) x|| for orthonormal columns b and an n x k matrix x, from
    the k x k Gram of the residual x - b (b* x), formed explicitly so that a
    small norm keeps its relative accuracy."""
    d = x - b @ (adjoint(b) @ x)
    return float(np.sqrt(_hermitian_norm(adjoint(d) @ d)))


def geodesic_exists(p: Projection, q: Projection) -> bool:
    """True iff rank(p ^ q') = rank(p' ^ q).

    In a full matrix algebra Murray-von Neumann equivalence is rank
    equality, so this is exactly the existence criterion for a geodesic
    joining p and q.
    """
    return projlat.position(p, q).exists()


def unique_geodesic(p: Projection, q: Projection) -> bool:
    """True iff both wedge parts vanish (so the normalized geodesic is
    unique); requires a geodesic to exist at all."""
    return projlat.position(p, q).unique()


def partial_isometry(source: Projection, target: Projection,
                     seed: int | None = None) -> PartialIsometry:
    """A partial isometry carrying range(source) onto range(target).

    With seed None the deterministic phase-fixed bases are matched in
    index order; a seed right-multiplies the source basis by a Haar
    unitary, giving distinct witnesses of the same equivalence. Each basis
    is p.basis Q for a unitary Q, so its range is exact; w is not formed.
    The bases are :func:`projlat.range_basis`, one per projection however
    many witnesses use it, and the unitary is
    :func:`numkit.seeded_unitary`, one per rank and seed.
    """
    if source.rank != target.rank:
        raise RankMismatch(
            f"ranks differ: {source.rank} vs {target.rank}")
    bs = projlat.range_basis(source)
    bt = projlat.range_basis(target)
    if seed is not None and source.rank > 0:
        bs = bs @ numkit.seeded_unitary(source.rank, seed)
    return PartialIsometry(bs=bs, bt=bt, source=source, target=target)


def minimal_exponent(p: Projection, q: Projection,
                     w: PartialIsometry | None = None) -> GeodesicExponent:
    """Construct a normalized exponent z with e^z p e^{-z} = q.

    z vanishes on p^q and p'^q', equals i(pi/2)(w + w*) on the wedge parts
    it swaps (w defaulting to the deterministic partial isometry of p^q'
    onto p'^q), and on every other principal plane, of any class, is the
    rotation by its angle. Raises NoGeodesic when the wedge ranks differ.
    """
    return position_exponent(projlat.position(p, q), w)


def position_exponent(pos: Position,
                      w: PartialIsometry | None = None) -> GeodesicExponent:
    """:func:`minimal_exponent` of the pair of a position already built.

    The exponent is built from the spectrum the position holds. Each plane
    it turns (any class; :meth:`Position.split`), (x_j, u_j) at angle
    theta_j, gives the eigenvectors (x_j +- i u_j)/sqrt(2) of i z with
    eigenvalues +-theta_j. On the wedge parts it swaps z = i(pi/2)(v + v*)
    for the witness v: each column a of its basis ``bs`` gives
    (a +- v a)/sqrt(2) with eigenvalues -+pi/2, v a the matching column of
    ``bt``. The default witness ``partial_isometry(pos.e10, pos.e01)`` swaps the
    planes within 1e-10 of pi/2; a supplied one, of the rank of p^q' with bases in
    p^q' and p'^q within ENDPOINT_ATOL (else InvariantViolation), those within
    ENDPOINT_ATOL/8. Either swaps by its polar part there if it covers more.

    The report holds the endpoint and codiagonality bounds of
    :func:`_exponent_bound` where :func:`numkit.settles` accepts them at
    ENDPOINT_ATOL, and else the exact report measures them. The exponent
    keeps the held vectors, the turned planes, the wedge bases a and v a it
    swaps and the certificate's bound on their Gram residual, from which
    :func:`geodesic_point` forms its points."""
    turned, (s10, s01) = pos.split() if w is None else pos.split(WITNESS_REACH)
    th, x, _, u = turned
    a, va = s10, s01  # empty when the pair has no wedge part
    if not pos.unique():
        if w is None:
            w = partial_isometry(pos.e10, pos.e01)
        elif w.bs.shape[1] != pos.b10.shape[1] or numkit.exceeds(numkit.worst(
                (_norm_off(pos.b10, w.bs), _norm_off(pos.b01, w.bt))), ENDPOINT_ATOL):
            raise InvariantViolation("supplied isometry does not witness p^q' ~ p'^q")
        a, va = w.bs, w.bt
        if s10.shape[1] < a.shape[1]:  # the polar part of s01* v s10
            left, _, right_h = np.linalg.svd(adjoint(s01) @ va @ (adjoint(a) @ s10))
            a, va = s10 @ adjoint(right_h), s01 @ left
    # the wedge columns swap the two wedge parts: e^z = i (v + v*) there
    half_pi = np.full(a.shape[1], HALF_PI)
    g = GeodesicExponent.from_spectrum(
        np.concatenate([th, -th, -half_pi, half_pi]),
        np.hstack([x + 1j * u, x - 1j * u, a + va, a - va]) / np.sqrt(2), pos.p, pos.q)
    endpoint, codiag, gram = _exponent_bound(pos, turned, a, va, g)
    vars(g)["_planes"] = (pos.held[1], th, x, u, a, va, gram)
    if numkit.settles("exponent certificate (endpoint, codiagonality)", ENDPOINT_ATOL,
                      endpoint, codiag):
        vars(g)["residuals"] = GeodesicResiduals(
            skewness=0.0, codiagonality=codiag, norm_bound=_norm_excess(g.spectrum[0]),
            endpoint=endpoint)
    res = verify_geodesic(g)
    if numkit.exceeds(res.max(), ENDPOINT_ATOL):
        raise InternalConsistencyError(f"constructed exponent fails verification ({res})")
    return g


def _exponent_bound(pos: Position, turned: tuple, a: np.ndarray, va: np.ndarray,
                    g: GeodesicExponent) -> tuple[float, float, float]:
    """Upper bounds on the endpoint and codiagonality residuals of the
    exponent g that :func:`position_exponent` builds from ``pos``, the
    planes it turns and the witness bases a and va of the wedge parts it
    swaps, as the exact report would measure them, and on the Gram residual
    of every geodesic point's basis, from thin gemm-only Frobenius norms
    (README.md, "The exponent certificate", derives them).

    Bp and Bq are the bases of p and q; X11, Y11 the principal vectors of
    the planes the exponent holds, and X, Y, U and theta the planes it
    turns, with X rotated to X cos theta + U sin theta. The measured
    ingredients are the orthonormality residuals eps_p, eps_q, eps_v and
    eps_11 of Bp, Bq, V and X11, beta = ||V* X11||_F, off_p = ||(1 - Bp Bp*) a||_F,
    sigma = ||Bp* [U, va]||_F, off_q = ||(1 - Bq Bq*) va||_F and
    delta = ||[X11 - Y11, X cos theta + U sin theta - Y]||_F, each raised by
    the rounding allowance tau = 4 g(n) (rank + m),
    g = :func:`numkit.complex_dot_error`. With eta = max(eps_11, eps_v) + beta
    and nu = sqrt(1 + eta), [X11, X] = Bp L and [Y11, Y] = Bq R leave
    their ranges by at most xi = eps_p nu sqrt((1 + eps_p) / (1 - eps_p)) + tau
    and psi = eps_q (nu + delta) sqrt((1 + eps_q) / (1 - eps_q)) + tau.
    With omega = max |w|,

        endpoint <= sqrt((1 + eps_p) / (1 - eta)) (off_q + delta + psi
                    + 2 nu (beta + eps_v) + (1 + 2 nu^2 eps_v) (off_p + xi)) + tau
        codiagonality <= 4 omega nu max(sqrt(1 + eps_p) sigma, off_p + xi) + tau.

    Both are inf when eps_p, eps_q or eta reaches 1/2. The third bound,
    eta + 2 tau, holds for the basis [X11, X cos t theta + U sin t theta,
    a cos(t pi/2) + i va sin(t pi/2)] of :func:`geodesic_point` at every t:
    it is [X11, X, U, a, va] times columns that are orthonormal, and tau
    covers the rounding of forming it and of measuring its Gram."""
    bp, bq = pos.p.basis, pos.q.basis
    (_, xh, yh, _), (th, x, y, u) = pos.held, turned
    w, v = g.spectrum
    tau = 4.0 * numkit.complex_dot_error(bp.shape[0]) * (bp.shape[1] + v.shape[1])
    on_p = adjoint(bp) @ np.hstack([a, u, va])
    k = a.shape[1]
    rotated = x * np.cos(th) + u * np.sin(th)
    eps_p, eps_q, eps_v, eps_11, beta, off_p, sigma, off_q, delta = (e + tau for e in (
        pos.p.basis_residual, pos.q.basis_residual, g._v_residual,
        numkit.orthonormality_residual(xh, math.inf), frobenius(adjoint(v) @ xh),
        frobenius(a - bp @ on_p[:, :k]), frobenius(on_p[:, k:]),
        frobenius(va - bq @ (adjoint(bq) @ va)),
        math.hypot(frobenius(xh - yh), frobenius(rotated - y))))
    eta = numkit.worst((eps_11, eps_v)) + beta
    gram = eta + 2.0 * tau
    if numkit.worst((eps_p, eps_q, eta)) < 0.5:  # else, a nan included, no bound
        nu = math.sqrt(1.0 + eta)
        xi = eps_p * nu * math.sqrt((1.0 + eps_p) / (1.0 - eps_p)) + tau
        psi = eps_q * (nu + delta) * math.sqrt((1.0 + eps_q) / (1.0 - eps_q)) + tau
        endpoint = math.sqrt((1.0 + eps_p) / (1.0 - eta)) * (
            off_q + delta + psi + 2.0 * nu * (beta + eps_v)
            + (1.0 + 2.0 * nu * nu * eps_v) * (off_p + xi)) + tau
        omega = float(np.abs(w).max(initial=0.0))
        codiag = 4.0 * omega * nu * numkit.worst((math.sqrt(1.0 + eps_p) * sigma,
                                                  off_p + xi)) + tau
        return endpoint, codiag, gram
    return math.inf, math.inf, gram


def geodesic_point(g: GeodesicExponent, t: float) -> Projection:
    """The projection e^{tz} p e^{-tz}, validated, with no n x n unitary and
    no eigendecomposition of its own. A t that is not finite raises
    ValueError.

    For an exponent built by :func:`position_exponent` its basis is the
    position's planes turned by t theta, [X11, X cos t theta + U sin t theta,
    a cos(t pi/2) + i va sin(t pi/2)], formed elementwise, which is e^{tz}
    [X11, X, a] in exact arithmetic; its ``basis_residual`` is the bound of
    :func:`_exponent_bound` on that basis's Gram residual, and the Gram is
    measured only when the bound cannot settle the check
    (:func:`numkit.settles`). The range lies within about xi + off_p of
    e^{tz} range(p) (README.md, "The exponent certificate"). Any other
    exponent gives the basis ``g.apply(t, g.p.basis)``, validated through
    its measured Gram.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if g._planes is None:
        return projlat._from_orthonormal(g.apply(t, g.p.basis), g.p.tol)
    xh, th, x, u, a, va, gram = g._planes
    c, s = math.cos(t * HALF_PI), math.sin(t * HALF_PI)
    b = np.hstack([xh, x * np.cos(t * th) + u * np.sin(t * th), c * a + 1j * s * va])
    return projlat._from_orthonormal(b, g.p.tol, certified=gram)


def geodesic_distance(p: Projection, q: Projection) -> float:
    """Operator-norm length of the minimal geodesic joining p and q.

    Equals pi/2 as soon as the wedge parts are nonzero, and the largest
    principal angle otherwise.
    """
    return projlat.position(p, q).distance()


def rho_length(g: GeodesicExponent, rho: float, trace=None) -> float:
    """Length of the geodesic in the trace rho-norm: ||z||_rho.

    For a z that passes the skewness check, |z|^rho = V diag(|w|^rho) V*
    is read from :attr:`GeodesicExponent.spectrum` (i z = V diag(w) V*).
    Its normalized trace is sum |w|^rho / n when ``trace`` is None, and
    ``trace.of_factored(V, |w|^rho)`` under a ``factor.NormalizedTrace``,
    with no n x n product, and :func:`numkit.rho_mean` takes the root; any
    other z goes through :func:`numkit.rho_norm`.
    """
    numkit.check_rho(rho)
    if numkit.exceeds(g.skewness, g.p.tol.atol_structure):
        return numkit.rho_norm(g.z, rho, trace)
    w, v = g.spectrum
    if trace is None:
        return numkit.rho_mean(np.abs(w), rho, lambda d: float(d.sum()) / g.p.n)
    return numkit.rho_mean(np.abs(w), rho, lambda d: trace.of_factored(v, d))


def _stack_points(points) -> np.ndarray:
    if isinstance(points, np.ndarray) and points.ndim == 3:
        mats = np.ascontiguousarray(points, dtype=np.complex128)
        # the float view takes half the time of isfinite on complex entries
        if not np.isfinite(mats.view(np.float64)).all():
            raise ValueError("matrix entries must be finite")
    else:
        mats = np.stack([pt.m if isinstance(pt, Projection) else
                         numkit.as_complex(pt) for pt in points])
    if mats.shape[0] < 2:
        raise TooFewPoints("need at least two points")
    if mats.shape[1] != mats.shape[2]:
        raise DimensionMismatch("points must be square matrices")
    return mats


def _even_power_traces(diffs: np.ndarray, m: int, trace=None) -> np.ndarray:
    """tau(|D|^{2m}) for each Hermitian D of a (k, n, n) stack.

    |D|^{2m} = D^m (D^m)*, so under tr/n it is ||D^m||_F^2 / n, the sum of
    squares of the real and imaginary parts of D^m, and under a
    ``factor.NormalizedTrace`` it is ``trace.of_factored(D^m, 1)``, which
    takes per-block sums of the same squares; no eigensolver runs. A power
    that overflowed (an inf or nan entry) enters that trace as 0, which the
    caller re-reads from the step's spectrum: ``of_factored`` fails a nan
    as off-block mass."""
    power = np.linalg.matrix_power(diffs, m)
    if trace is not None:
        finite = np.isfinite(power).all(axis=(1, 2))
        power = np.where(finite[:, None, None], power, 0.0)
        return trace.of_factored(power, np.ones(power.shape[-1]))
    x = power.view(np.float64)
    return np.einsum("kij,kij->k", x, x) / diffs.shape[-1]


def curve_length(points, rho: float | None | list | tuple = None,
                 trace=None) -> float | list[float]:
    """Chordal length of a discretized curve of projections.

    Sums ||points[k+1] - points[k]|| in the operator norm, or in the
    trace rho-norm when ``rho`` is given. The chordal sum approximates
    the smooth length from below as the partition refines. ``points``
    may be a sequence of Projection objects or a stacked (N, n, n) array
    of projection matrices. ``rho`` may also be a list or tuple of orders
    (None for the operator norm); the lengths then come back as a list in
    the same order, each equal to the length of its order alone.

    An even order rho = 2m takes each step's tau(|D|^rho) from the squares
    of the entries of a matrix power (see :func:`_even_power_traces`), with
    no eigensolver, under the default trace tr/n and under a ``trace``
    (a ``factor.NormalizedTrace``) alike; a nonzero step whose power trace
    is not a positive normal number (an overflow or underflow at a large
    order) is re-read from its spectrum, and a zero step stays 0. Above
    1024 no power is formed, and every nonzero step is read from its spectrum.
    The operator norm and any other order read the steps' singular values,
    |eigenvalues| of the Hermitian differences, from one batched eigvalsh,
    which runs only when such an order is asked for. Under a ``trace``, an
    order that is not even reads |D|^rho = V diag(|lam|^rho) V* from one
    batched eigh D = V diag(lam) V* of the steps, through
    ``trace.of_factored`` with per-step weights. Each spectral value is
    taken by :func:`numkit.rho_mean`, finite at every order.
    """
    orders = rho if isinstance(rho, (list, tuple)) else [rho]
    for r in orders:
        if r is not None:
            numkit.check_rho(r)
    mats = _stack_points(points)
    diffs = mats[1:] - mats[:-1]
    svals = eig = None
    if any(r is None or (trace is None and r % 2 != 0) for r in orders):
        # differences of Hermitian matrices: singular values = |eigenvalues|
        svals = np.abs(np.linalg.eigvalsh(diffs))
    if trace is not None and any(r is not None and r % 2 != 0 for r in orders):
        eig = np.linalg.eigh(diffs)

    def spectral(r, steps=None) -> np.ndarray:
        """Each step's value from its spectrum: all steps from svals or eig,
        or only ``steps``, decomposed anew."""
        if trace is None:
            s = svals if steps is None else np.abs(np.linalg.eigvalsh(steps))
            return numkit.rho_mean(s, r)
        lam, v = eig if steps is None else np.linalg.eigh(steps)
        return numkit.rho_mean(np.abs(lam), r, lambda d: trace.of_factored(v, d))

    def length(r) -> float:
        if r is None:
            return float(svals.max(axis=1).sum())
        if r % 2 != 0:
            return float(spectral(r).sum())
        # above 1024 the power takes over ten squarings and may leave the double range
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            taus = (np.zeros(len(diffs)) if r > 1024
                    else _even_power_traces(diffs, int(r) // 2, trace))
        bad = ~numkit.positive_normal(taus)
        roots = np.where(bad, 0.0, taus) ** (1.0 / r)
        if bad.any():  # a zero step stays 0
            redo = bad & diffs.any(axis=(1, 2))
            if redo.any():
                roots[redo] = spectral(r, diffs[redo])
        return float(roots.sum())

    lengths = [length(r) for r in orders]
    return lengths if orders is rho else lengths[0]


def verify_geodesic(g: GeodesicExponent) -> GeodesicResiduals:
    """The exponent's residual report, computed on the first call. For an
    exponent built from a position (:func:`minimal_exponent`,
    :func:`position_exponent`) the endpoint and codiagonality are certified
    upper bounds, measured only where a bound exceeds ENDPOINT_ATOL."""
    return g.residuals
