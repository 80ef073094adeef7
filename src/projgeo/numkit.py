"""Dense complex linear-algebra kernel with explicit tolerance contracts.

Every residual of the library is a norm taken here, of a matrix or of a
stack of matrices, checked through :func:`bounded_norm` and reported
exactly; a certified field's proven bound is decided by :func:`settles`.
A value fails a check when it :func:`exceeds` the bound, as a nan does, and
a reported maximum is :func:`worst`, which keeps a nan; every trace rho-norm
takes its trace and root through :func:`rho_mean`, finite at every order.
The unitary exponential of a skew matrix is evaluated through an
eigendecomposition, never a truncated series, so it is unitary to
eigensolver accuracy. :func:`hermitian_eig`, :func:`polar_unitary` and
:func:`log_unitary_principal` have no caller in the library; they stay
only because the benchmark traces them.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .errors import (
    BadRho,
    BranchCut,
    NotHermitian,
    NotSkewHermitian,
    SingularInput,
)

_log = logging.getLogger("projgeo")

_EPS = float(np.finfo(np.float64).eps)
_UNIT_ROUNDOFF = _EPS / 2

# the classification width at which a plane at pi/4 joins both a meet and
# a wedge window (cos = sin = 1/sqrt(2))
MAX_ATOL_SPECTRAL = 1.0 - 1.0 / math.sqrt(2.0)
# the narrowest width: a Haar projection's eigenvalues carry rounding up to
# 4.3e-15 at n = 512 and 6.6e-15 at n = 1024, which a narrower one rejects
MIN_ATOL_SPECTRAL = 8e-15


@dataclass(frozen=True)
class ToleranceProfile:
    """Separates structural validation (tight) from spectral classification.

    atol_structure bounds Hermiticity/idempotency/unitarity residuals,
    atol_spectral is the eigenvalue-classification width (meets, branch
    cuts), and atol_rank is a base factor scaled by ``n * smax`` wherever a
    numerical rank cutoff is needed.

    A principal plane of a pair joins a meet (wedge) part when the cosine
    (sine) of its angle is within atol_spectral of 1. Since
    cos(theta) ~ 1 - theta^2 / 2, the width in angle space is about
    sqrt(2 atol_spectral): 1.41e-3 at the default 1e-6, from 0 and from
    pi/2 alike.

    atol_spectral must stay below 1 - 1/sqrt(2) (about 0.293): at that
    width a plane at pi/4 has both its cosine and its sine within
    atol_spectral of 1, so the meet and wedge windows overlap and its
    classification is undefined. It must be at least MIN_ATOL_SPECTRAL
    (8e-15), the rounding that a valid projection's eigenvalues carry.
    """

    atol_structure: float = 1e-8
    atol_spectral: float = 1e-6
    atol_rank: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("atol_structure", "atol_spectral", "atol_rank"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.atol_rank < _EPS:
            raise ValueError("atol_rank must be at least machine epsilon")
        if not MIN_ATOL_SPECTRAL <= self.atol_spectral < MAX_ATOL_SPECTRAL:
            raise ValueError(f"atol_spectral must be below 1 - 1/sqrt(2) = "
                             f"{MAX_ATOL_SPECTRAL:.6f}, where the meet and wedge "
                             f"windows overlap, and at least {MIN_ATOL_SPECTRAL:g}, "
                             "the rounding of a valid projection's eigenvalues")

    def rank_cutoff(self, n: int, smax: float) -> float:
        """Singular values at or below this count as zero."""
        return self.atol_rank * n * max(smax, _EPS)


DEFAULT_TOL = ToleranceProfile()


def as_complex(a) -> np.ndarray:
    """Coerce to a square complex128 matrix with finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def exceeds(value, bound) -> bool:
    """Whether ``value`` fails the check ``value <= bound``: a nan exceeds any."""
    return not value <= bound


def worst(values, default=0.0):
    """The largest of ``values`` (``default`` for none), nan if one is nan; without a
    nan exactly builtin ``max``, the first of ties (``max`` keeps its first over a nan)."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else max(values, default=default)


def frobenius(a):
    """Frobenius norm of a matrix, or the array of norms of a stack of any
    leading shape: the root of the sum of squares of real and imaginary parts."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    if a.ndim == 2:  # one BLAS dot
        return float(np.sqrt(np.vdot(a, a).real))
    parts = a.view(np.float64)
    return np.sqrt(np.einsum("...ij,...ij->...", parts, parts))


# A computed largest singular value may exceed the computed Frobenius norm
# of a rank-one matrix by rounding (by up to 4 eps on random rank-one
# matrices with n <= 16); operator_norm keeps a matrix for its second SVD
# while its Frobenius norm, times this factor, exceeds the candidate.
_FROBENIUS_SLACK = 1.0 + 1e-12


def operator_norm(a) -> float:
    """Largest singular value of a matrix, or over a stack of any leading
    shape; 0.0 with no SVD when no entry is nonzero (the skewness z + z* of
    a z built skew). A stack's value is, bit for bit, the largest first
    singular value of one batched SVD: one SVD of the matrix of largest
    Frobenius norm gives a candidate, and since ||R|| <= ||R||_F only the
    matrices whose Frobenius norm (times :data:`_FROBENIUS_SLACK`) exceeds
    it go through a second, batched SVD."""
    a = np.asarray(a, dtype=np.complex128)
    if not a.any():  # NaN counts as nonzero and reaches an SVD
        return 0.0
    if a.ndim == 2:
        return float(np.linalg.svd(a, compute_uv=False)[0])
    mats = a.reshape(-1, *a.shape[-2:])
    frob = frobenius(mats)
    top = int(frob.argmax())
    best = float(np.linalg.svd(mats[top], compute_uv=False)[0])
    rest = frob * _FROBENIUS_SLACK > best
    rest[top] = False
    if rest.any():
        best = worst((best, float(np.linalg.svd(mats[rest], compute_uv=False)[:, 0].max())))
    return best


def bounded_norm(a, bound: float) -> float:
    """The Frobenius norm of a matrix (the largest over a stack), which bounds
    its :func:`operator_norm`, when positive (squares of tiny entries underflow)
    and at most ``bound``; else, a nan included, the operator norm."""
    frob = frobenius(a) if a.ndim == 2 else float(frobenius(a).max(initial=0.0))
    return frob if 0.0 < frob <= bound else operator_norm(a)


def settles(site: str, tol: float, *bounds: float) -> bool:
    """Whether no proven bound :func:`exceeds` ``tol``; if one does, one
    DEBUG record on the ``projgeo`` logger names the site, the bounds and
    tol, and the caller measures."""
    if not any(exceeds(b, tol) for b in bounds):
        return True
    _log.debug("%s: %s not within %.3e; measuring", site,
               ", ".join(f"{b:.3e}" for b in bounds), tol)
    return False


def orthonormality_residual(b: np.ndarray, bound: float) -> float:
    """||b* b - 1|| of n x k columns b, as :func:`bounded_norm` at ``bound``."""
    return bounded_norm(adjoint(b) @ b - np.eye(b.shape[1]), bound)


def complex_dot_error(k: int) -> float:
    """Relative error bound sqrt(2) gamma_{k+2} of a complex dot product of
    k nonzero terms, gamma_j = j u / (1 - j u) (Higham 2002, sections 3.1
    and 3.6); zero terms add nothing, so k counts the structural nonzeros."""
    j = (k + 2) * _UNIT_ROUNDOFF
    return math.sqrt(2.0) * j / (1.0 - j)


def fix_phases(u: np.ndarray) -> np.ndarray:
    """Rotate each column so its first nonzero entry is real positive."""
    u = u.copy()
    if u.shape[1] == 0:
        return u
    mags = np.abs(u)
    above = mags > 1e-12 * max(mags.max(), 1.0)
    has = above.any(axis=0)  # a column with no entry above the floor is left as is
    pivots = u[above.argmax(axis=0)[has], has]
    # np.hypot rounds like the scalar abs of one entry; np.abs of an array may not
    u[:, has] *= pivots.conjugate() / np.hypot(pivots.real, pivots.imag)
    return u


def hermitian_eig(h, tol: ToleranceProfile = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns ascending eigenvalues and a unitary whose columns are the
    eigenvectors, phase-fixed so the first nonzero component of each is
    real positive.
    """
    h = as_complex(h)
    if exceeds(bounded_norm(h - adjoint(h), tol.atol_structure), tol.atol_structure):
        raise NotHermitian("Hermiticity residual exceeds atol_structure")
    w, u = np.linalg.eigh((h + adjoint(h)) / 2)
    return w, fix_phases(u)


def polar_unitary(a, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Unitary factor v of the polar decomposition a = v |a|.

    Requires a invertible; otherwise the polar factor is not unitary.
    """
    a = as_complex(a)
    u, s, vh = np.linalg.svd(a)
    if (s > tol.rank_cutoff(a.shape[0], s[0])).sum() < s.size:
        raise SingularInput("smallest singular value at the rank cutoff")
    return u @ vh


def exp_skew(z, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Unitary exponential of a skew-Hermitian matrix."""
    z = as_complex(z)
    if exceeds(bounded_norm(z + adjoint(z), tol.atol_structure), tol.atol_structure):
        raise NotSkewHermitian("skewness residual exceeds atol_structure")
    skew = (z - adjoint(z)) / 2
    w, u = np.linalg.eigh(1j * skew)  # 1j*z is Hermitian for skew z
    return (u * np.exp(-1j * w)) @ adjoint(u)


def log_unitary_principal(w, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Skew-Hermitian logarithm of a unitary, spectrum in i*(-pi, pi).

    Uses the complex Schur form, which is diagonal for a (normal) unitary
    input, so the computed logarithm is skew to eigensolver accuracy.
    """
    w = as_complex(w)
    n = w.shape[0]
    if exceeds(bounded_norm(adjoint(w) @ w - np.eye(n), tol.atol_structure), tol.atol_structure):
        raise ValueError("input is not unitary within atol_structure")
    t, q = scipy.linalg.schur(w, output="complex")
    lam = np.diag(t)
    if np.any(np.abs(lam + 1.0) <= tol.atol_spectral):
        raise BranchCut("eigenvalue at -1: principal logarithm undefined")
    z = (q * (1j * np.angle(lam))) @ adjoint(q)
    return (z - adjoint(z)) / 2


def check_rho(rho) -> None:
    """Raise BadRho unless rho is a finite order >= 1 (inf and nan pass a
    plain ``rho < 1`` test)."""
    if not 1 <= rho < float("inf"):
        raise BadRho(f"rho must be a finite number >= 1, got {rho}")


def rho_norm(a, rho: float, trace=None) -> float:
    """Noncommutative L^rho norm (tau((a* a)^{rho/2}))^{1/rho}.

    ``trace`` is any callable implementing a normalized trace (tau(I) = 1);
    when omitted, the normalized trace of the full matrix algebra,
    tr(x)/n, is used. One SVD a = U diag(s) V* gives |a|^rho =
    V diag(s^rho) V*, so a kernel of a contributes exact zeros (powering
    the eigenvalues of a* a by rho/2 would lift their rounding noise to
    ~1e-9 at rho = 1); :func:`rho_mean` takes the trace and the root.
    """
    check_rho(rho)
    a = as_complex(a)
    if trace is None:
        return rho_mean(np.linalg.svd(a, compute_uv=False), rho)
    _, s, vh = np.linalg.svd(a)
    return rho_mean(s, rho, lambda d: complex(trace((adjoint(vh) * d) @ vh)).real)


_TINY = float(np.finfo(np.float64).tiny)


def positive_normal(x):
    """Whether x (elementwise) is a positive normal float: neither zero,
    subnormal, infinite nor NaN."""
    return (x >= _TINY) & (x < math.inf)


def _mean(d: np.ndarray):
    return d.sum(axis=-1) / d.shape[-1]


def rho_mean(s, rho: float, trace=_mean):
    """(tau(s^rho))^{1/rho} of nonnegative spectral values s on the last
    axis: a float for a vector, an array over the leading axes of a stack.

    ``trace`` maps the powered values (shaped like s) to their normalized
    traces, by default the mean over the last axis. A value whose powers
    overflow, or whose trace tau(s^rho) is not a positive normal number
    while s has a nonzero entry, is read as max(s) tau((s / max s)^rho)^{1/rho}
    instead: that trace lies between the weight of the top entries and 1,
    so the value stays finite and tends to max(s), the operator norm, as
    rho grows. Every other value is the plain formula, bit for bit."""
    s = np.asarray(s, dtype=np.float64)
    top = s.max(axis=-1, initial=0.0)
    with np.errstate(over="ignore", under="ignore"):
        powered = s ** rho
    over = np.isinf(powered).any(axis=-1)
    val = np.maximum(trace(np.where(over[..., None], 0.0, powered)), 0.0)
    redo = (over | ~positive_normal(val)) & (top > 0)
    scale = 1.0
    if redo.any():
        unit = np.divide(s, top[..., None], out=np.zeros_like(s), where=redo[..., None])
        with np.errstate(under="ignore"):
            val = np.where(redo, np.maximum(trace(unit ** rho), 0.0), val)
        scale = np.where(redo, top, 1.0)
    if s.ndim == 1:
        return float(scale) * float(val) ** (1.0 / rho)
    return scale * val ** (1.0 / rho)


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix with the
    R-diagonal phase correction."""
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    phases = np.where(np.abs(d) > 0, d / np.abs(d), 1.0)
    return q * phases.conjugate()


@lru_cache(maxsize=16)
def seeded_unitary(n: int, seed: int) -> np.ndarray:
    """``haar_unitary(n, default_rng(seed))``, drawn once per (n, seed) and
    kept read-only in a cache of 16 entries."""
    u = haar_unitary(n, np.random.default_rng(seed))
    u.flags.writeable = False
    return u
