"""Geodesics of the projection manifold: existence and uniqueness
predicates, constructive minimal exponents, curve evaluation, distances,
and lengths in the operator and trace norms.

A geodesic through p with exponent z is t -> e^{tz} p e^{-tz} with z
skew-Hermitian and p-codiagonal (anticommuting with 2p - 1); it is
normalized when the operator norm of z is at most pi/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from . import numkit, projlat
from .errors import (DimensionMismatch, InternalConsistencyError,
                     InvariantViolation, NotSkewHermitian, RankMismatch, TooFewPoints)
from .numkit import adjoint, operator_norm
from .projlat import Position, Projection

HALF_PI = np.pi / 2

# Endpoint contract for constructed exponents: ||e^z p e^{-z} - q||.
ENDPOINT_ATOL = 1e-8


@dataclass(frozen=True, eq=False)
class PartialIsometry:
    """w with w* w = source and w w* = target."""

    w: np.ndarray
    source: Projection
    target: Projection


@dataclass(frozen=True)
class GeodesicResiduals:
    skewness: float
    codiagonality: float
    norm_bound: float
    endpoint: float

    def max(self) -> float:
        return max(self.skewness, self.codiagonality,
                   self.norm_bound, self.endpoint)


@dataclass(frozen=True, eq=False)
class GeodesicExponent:
    """Skew-Hermitian, p-codiagonal exponent taking p to q at t = 1; z is read-only.

    Built from z alone, its :attr:`spectrum` is one eigh of i z. Built by
    :meth:`from_spectrum`, as :func:`position_exponent` builds it, z is made
    from a thin spectrum that needs no eigendecomposition."""

    z: np.ndarray
    p: Projection
    q: Projection
    _thin: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "z", np.array(self.z))
        self.z.flags.writeable = False

    @classmethod
    def from_spectrum(cls, w: np.ndarray, v: np.ndarray, p: Projection,
                      q: Projection) -> GeodesicExponent:
        """The exponent z = -i V diag(w) V* of real w and n x m orthonormal V.

        (w, V) becomes its :attr:`spectrum` as given. V* V = 1 is checked
        once within atol_structure, and a failure raises
        InternalConsistencyError. V diag(w) V* is made exactly Hermitian,
        so that z is exactly skew and 1j z = V diag(w) V* up to rounding."""
        w, v = np.array(w, dtype=np.float64), np.array(v, dtype=np.complex128)
        eps = projlat._orthonormality_residual(v, p.tol.atol_structure)
        if eps > p.tol.atol_structure:
            raise InternalConsistencyError(
                f"orthonormality residual {eps:.3e} of the exponent's "
                "eigenvectors > atol_structure")
        h = (v * w) @ adjoint(v)
        g = cls(z=-0.5j * (h + adjoint(h)), p=p, q=q)
        for arr in (w, v):
            arr.flags.writeable = False
        object.__setattr__(g, "_thin", (w, v))
        return g

    @cached_property
    def skewness(self) -> float:
        """||z + z*||, the residual that gates :attr:`spectrum`."""
        return operator_norm(self.z + adjoint(self.z))

    @cached_property
    def residuals(self) -> GeodesicResiduals:
        """Skewness, codiagonality, excess over pi/2, and the endpoint error.

        For a z that passes the skewness check the norm and e^z are read
        from :attr:`spectrum`; any other z is reported through a general
        matrix exponential."""
        z, p, q = self.z, self.p.m, self.q.m
        sym = 2 * p - np.eye(self.p.n)
        codiag = operator_norm(z @ sym + sym @ z)
        if self.skewness <= self.p.tol.atol_structure:
            w, v = self.spectrum
            norm = float(np.abs(w).max(initial=0.0))
            ez = _spectral_exp(w, v, 1.0)
            endpoint = operator_norm(ez @ p @ adjoint(ez) - q)
        else:
            norm = operator_norm(z)
            ez = scipy.linalg.expm(z)
            endpoint = operator_norm(ez @ p @ scipy.linalg.expm(-z) - q)
        return GeodesicResiduals(skewness=self.skewness, codiagonality=codiag,
                                 norm_bound=max(0.0, norm - HALF_PI),
                                 endpoint=endpoint)

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, V) with 1j z = V diag(w) V* and V* V = 1, once z passes the
        skewness check.

        V is the thin n x m basis :meth:`from_spectrum` was given, which
        spans the support of z (m = 2k for k rotated planes), or else the
        n x n eigenvectors of one eigh of i z."""
        if self.skewness > self.p.tol.atol_structure:
            raise NotSkewHermitian("skewness residual exceeds atol_structure")
        if self._thin is not None:
            return self._thin
        return np.linalg.eigh(1j * (self.z - adjoint(self.z)) / 2)

    def unitary(self, t: float) -> np.ndarray:
        """e^{tz} = 1 + V (e^{-itw} - 1) V*, which is the identity off span V."""
        return _spectral_exp(*self.spectrum, t)


def _spectral_exp(w: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """1 + V (e^{-itw} - 1) V*: e^{tz} for 1j z = V diag(w) V*, V* V = 1."""
    return np.eye(v.shape[0]) + (v * np.expm1(-1j * t * w)) @ adjoint(v)


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
    unitary, giving distinct witnesses of the same equivalence.
    """
    if source.rank != target.rank:
        raise RankMismatch(
            f"ranks differ: {source.rank} vs {target.rank}")
    bs = projlat.range_basis(source)
    bt = projlat.range_basis(target)
    if seed is not None and source.rank > 0:
        u = numkit.haar_unitary(source.rank, np.random.default_rng(seed))
        bs = bs @ u
    w = bt @ adjoint(bs)
    tol = source.tol.atol_structure
    if (operator_norm(adjoint(w) @ w - source.m) > tol
            or operator_norm(w @ adjoint(w) - target.m) > tol):
        raise InternalConsistencyError("constructed isometry fails its contract")
    return PartialIsometry(w=w, source=source, target=target)


def minimal_exponent(p: Projection, q: Projection,
                     w: PartialIsometry | None = None) -> GeodesicExponent:
    """Construct a normalized exponent z with e^z p e^{-z} = q.

    z vanishes on p^q and p'^q', equals i(pi/2)(w + w*) on the two wedge
    parts (w defaulting to the deterministic partial isometry between
    them), and on each generic plane is the rotation by its principal
    angle. Raises NoGeodesic when the wedge ranks differ.
    """
    return position_exponent(projlat.position(p, q), w)


def position_exponent(pos: Position,
                      w: PartialIsometry | None = None) -> GeodesicExponent:
    """:func:`minimal_exponent` of the pair of a position already built.

    The exponent is built from the spectrum the position holds. Each
    generic plane (x_j, u_j) at angle theta_j gives the eigenvectors
    (x_j +- i u_j)/sqrt(2) of i z with eigenvalues +-theta_j. On the wedge
    parts z = i(pi/2)(v + v*) for the witness v, so each column a of a
    basis of p^q' gives (a +- v a)/sqrt(2) with eigenvalues -+pi/2. The
    default witness is read from the position's wedge bases: the
    pivoted-QR bases of p^q' and p'^q matched in index order, which is
    ``partial_isometry(pos.e10, pos.e01).w`` without building either part;
    its v a is the pivoted basis of p'^q itself."""
    th, x, u = pos.angles, pos.x, pos.u
    cols, ws = [x + 1j * u, x - 1j * u], [th, -th]
    if not pos.unique():
        if w is None:
            a, va = projlat._pivoted_basis(pos.b10), projlat._pivoted_basis(pos.b01)
        else:
            v = w.w
            if (operator_norm(adjoint(v) @ v - pos.e10.m) > ENDPOINT_ATOL
                    or operator_norm(v @ adjoint(v) - pos.e01.m) > ENDPOINT_ATOL):
                raise InvariantViolation("supplied isometry does not witness p^q' ~ p'^q")
            a = pos.b10
            va = v @ a
        # swaps the two wedge parts: e^z = i (v + v*) there
        half_pi = np.full(a.shape[1], HALF_PI)
        cols += [a + va, a - va]
        ws += [-half_pi, half_pi]
    g = GeodesicExponent.from_spectrum(np.concatenate(ws), np.hstack(cols) / np.sqrt(2),
                                       pos.p, pos.q)
    res = verify_geodesic(g)
    if res.max() > ENDPOINT_ATOL:
        raise InternalConsistencyError(
            f"constructed exponent fails verification ({res}); the pair "
            "has angle data at the meet or wedge classification boundary")
    return g


def geodesic_point(g: GeodesicExponent, t: float) -> Projection:
    """The projection e^{tz} p e^{-tz}, validated.

    Its range is e^{tz} range(p), so it is built from the orthonormal basis
    ``g.unitary(t) @ g.p.basis`` and validated through that basis's
    orthonormality residual, with no eigendecomposition of its own.
    """
    return projlat._from_orthonormal(g.unitary(t) @ g.p.basis, g.p.tol)


def geodesic_distance(p: Projection, q: Projection) -> float:
    """Operator-norm length of the minimal geodesic joining p and q.

    Equals pi/2 as soon as the wedge parts are nonzero, and the largest
    principal angle otherwise.
    """
    return projlat.position(p, q).distance()


def rho_length(g: GeodesicExponent, rho: float, trace=None) -> float:
    """Length of the geodesic in the trace rho-norm: ||z||_rho.

    For a z that passes the skewness check, |z|^rho = V diag(|w|^rho) V*
    is read from :attr:`GeodesicExponent.spectrum` (i z = V diag(w) V*),
    and tr(|z|^rho)/n is sum |w|^rho / n when ``trace`` is None; any other
    z goes through :func:`numkit.rho_norm`.
    """
    numkit.check_rho(rho)
    if g.skewness > g.p.tol.atol_structure:
        return numkit.rho_norm(g.z, rho, trace, g.p.tol)
    w, v = g.spectrum
    powered = np.abs(w) ** rho
    if trace is None:
        val = float(powered.sum()) / g.p.n
    else:
        val = complex(trace((v * powered) @ adjoint(v))).real
    return max(val, 0.0) ** (1.0 / rho)


def _stack_points(points) -> np.ndarray:
    if isinstance(points, np.ndarray) and points.ndim == 3:
        mats = np.asarray(points, dtype=np.complex128)
    else:
        mats = np.stack([pt.m if isinstance(pt, Projection) else
                         numkit.as_complex(pt) for pt in points])
    if mats.shape[0] < 2:
        raise TooFewPoints("need at least two points")
    if mats.shape[1] != mats.shape[2]:
        raise DimensionMismatch("points must be square matrices")
    return mats


def _even_power_sums(diffs: np.ndarray, m: int) -> np.ndarray:
    """The sum of sigma_i^{2m} for each Hermitian D of a (k, n, n) stack.

    It is tr(D^{2m}) = ||D^m||_F^2, the sum of squares of the real and
    imaginary parts of D^m; no eigensolver runs."""
    x = np.linalg.matrix_power(diffs, m).view(np.float64)
    return np.einsum("kij,kij->k", x, x)


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

    Under the default trace tr/n, an even order rho = 2m takes each step's
    sum of sigma_i^rho from the Frobenius norm of a matrix power (see
    :func:`_even_power_sums`), with no eigensolver. The operator norm and
    any other order read the steps' singular values, |eigenvalues| of the
    Hermitian differences, from one batched eigvalsh, which runs only when
    such an order is asked for. Under a ``trace``, each step's rho-norm is
    :func:`numkit.rho_norm`.
    """
    orders = rho if isinstance(rho, (list, tuple)) else [rho]
    for r in orders:
        if r is not None:
            numkit.check_rho(r)
    mats = _stack_points(points)
    diffs = mats[1:] - mats[:-1]
    n = mats.shape[1]
    svals = None
    if any(r is None or (trace is None and r % 2 != 0) for r in orders):
        # differences of Hermitian matrices: singular values = |eigenvalues|
        svals = np.abs(np.linalg.eigvalsh(diffs))

    def length(r) -> float:
        if r is None:
            return float(svals.max(axis=1).sum())
        if trace is not None:
            return float(sum(numkit.rho_norm(d, r, trace) for d in diffs))
        if r % 2 == 0:
            sums = _even_power_sums(diffs, int(r) // 2)
        else:
            sums = (svals ** r).sum(axis=1)
        return float(((sums / n) ** (1.0 / r)).sum())

    lengths = [length(r) for r in orders]
    return lengths if orders is rho else lengths[0]


def verify_geodesic(g: GeodesicExponent) -> GeodesicResiduals:
    """The exponent's residual report, computed on the first call."""
    return g.residuals
