"""Index geometry at matrix scale: angle pairs satisfying p q p = tau p,
conditional expectations realized as orthogonal projections on the
Hilbert-Schmidt space of M_n, the geodesic path of expectations between
two subalgebras, and the parallel transport equation with its propagator.

The Hilbert-Schmidt inner product uses the normalized trace, so the
identity has norm one; orthogonal projections onto vectorized
subalgebras then induce the trace-preserving conditional expectations.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import geo, numkit, projlat
from .errors import (
    DimensionMismatch,
    InternalConsistencyError,
    InvariantViolation,
    NotProjection,
    NotSubalgebra,
    TooFar,
)
from .factor import FiniteAlgebra, NormalizedTrace
from .geo import GeodesicExponent
from .numkit import DEFAULT_TOL, ToleranceProfile, adjoint, operator_norm
from .projlat import Projection

IDX_ATOL = 1e-9  # tolerance of the index-distance identities
AXIOM_SAMPLES, AXIOM_SEED = 4, 7  # test matrices drawn by expectation_axioms
_PRODUCT_BLOCK = 1 << 14  # complex entries (256 KiB) in one block of member products


def vec(x: np.ndarray) -> np.ndarray:
    """Flatten a matrix to a Hilbert-Schmidt vector (row-major)."""
    return np.asarray(x, dtype=np.complex128).reshape(-1)


def _square(x, n: int, what: str) -> np.ndarray:
    """x as a complex n x n matrix; DimensionMismatch names both sizes."""
    m = numkit.as_complex(x)
    if m.shape != (n, n):
        raise DimensionMismatch(f"{what} must be {n} x {n}, got {m.shape[0]} x {m.shape[1]}")
    return m


# ---------------------------------------------------------------------------
# subalgebra specifications


@dataclass(frozen=True)
class BlockPartition:
    """Matrices block-diagonal over groups of coordinates (0-based
    integers; a float is refused, so that equal partitions name one
    algebra)."""

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "groups", tuple(tuple(operator.index(i) for i in g) for g in self.groups))


@dataclass(frozen=True)
class TensorFactor:
    """The subalgebra M_k tensor I_m inside M_{k m}; k and m are integers
    of at least 1 (a float is refused, so that equal factors name one
    algebra)."""

    k: int
    m: int

    def __post_init__(self):
        object.__setattr__(self, "k", operator.index(self.k))
        object.__setattr__(self, "m", operator.index(self.m))
        if self.k < 1 or self.m < 1:
            raise ValueError(f"a tensor factor needs k, m >= 1, got k = {self.k}, m = {self.m}")


@dataclass(frozen=True, eq=False)
class MatrixSpan:
    """A linear spanning set of the subalgebra (must be *- and
    product-closed as a subspace; this is validated, not completed)."""

    mats: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "mats", tuple(numkit.as_complex(m) for m in self.mats))


@dataclass(frozen=True, eq=False)
class Conjugated:
    """The subalgebra u A u* for A = ``base``, a BlockPartition or a
    TensorFactor (anything else raises TypeError, so the base end is always
    one that compares by value), and u an n x n unitary, stored as a finite,
    read-only complex copy. Its spanning set is u m u* over the base's. For a
    unitary u the trace-preserving conditional expectation onto u A u* is
    Ad(u) E_A Ad(u)* (it is unique, Tomiyama 1957), so
    :func:`expectation_path` builds it by conjugating the shared end of the
    base (:func:`_conjugated_end`). Unitarity is not checked here: a u off
    unitary ends in the measured build of its spanning set."""

    base: BlockPartition | TensorFactor
    u: np.ndarray

    def __post_init__(self):
        if not isinstance(self.base, (BlockPartition, TensorFactor)):
            raise TypeError("a conjugated subalgebra needs a BlockPartition or a TensorFactor "
                            f"base, got {type(self.base)!r}")
        u = np.array(numkit.as_complex(self.u))
        u.flags.writeable = False
        object.__setattr__(self, "u", u)


SubalgebraSpec = BlockPartition | TensorFactor | MatrixSpan | Conjugated


def diagonal_spec(n: int) -> BlockPartition:
    """The diagonal subalgebra of M_n."""
    return BlockPartition(groups=tuple((i,) for i in range(n)))


def rotated_diagonal_spec(n: int, theta: float) -> Conjugated:
    """The diagonal subalgebra conjugated by the rotation of angle theta in
    the first two coordinates, ``Conjugated(diagonal_spec(n), u)``, so a
    path builds it from the shared diagonal end; n must be at least 2 and
    theta finite."""
    if n < 2:
        raise ValueError(f"a rotation in the first two coordinates needs n >= 2, got {n}")
    if not math.isfinite(theta):
        raise ValueError(f"a rotation angle must be finite, got {theta}")
    u = np.eye(n, dtype=np.complex128)
    c, s = math.cos(theta), math.sin(theta)
    u[0, 0] = c
    u[0, 1] = -s
    u[1, 0] = s
    u[1, 1] = c
    return Conjugated(diagonal_spec(n), u)


def check_size(spec: SubalgebraSpec, n: int) -> None:
    """Raise ValueError unless ``spec`` names a subset of M_n: a block
    partition of the coordinates 0..n-1, a tensor factor with k m = n, a
    span of at least one n x n matrix, or the conjugate of such a partition
    or factor by an n x n matrix. Nothing is built."""
    if isinstance(spec, BlockPartition):
        if sorted(i for g in spec.groups for i in g) != list(range(n)):
            raise ValueError(f"groups must partition the coordinates 0..{n - 1}")
    elif isinstance(spec, TensorFactor):
        if spec.k * spec.m != n:
            raise ValueError(f"k*m = {spec.k * spec.m} does not match n = {n}")
    elif isinstance(spec, MatrixSpan):
        if not spec.mats:
            raise ValueError("a matrix span needs at least one matrix")
        for i, m in enumerate(spec.mats):
            if m.shape != (n, n):
                raise ValueError(f"spanning matrix {i} has shape {m.shape}, not ({n}, {n})")
    elif isinstance(spec, Conjugated):
        check_size(spec.base, n)
        if spec.u.shape != (n, n):
            raise ValueError(f"the conjugating matrix has shape {spec.u.shape}, not ({n}, {n})")
    else:
        raise TypeError(f"unknown subalgebra specification: {type(spec)!r}")


def spanning_matrices(spec: SubalgebraSpec, n: int) -> list[np.ndarray]:
    """A linear spanning set of the specified subset of M_n
    (:func:`check_size` first)."""
    check_size(spec, n)
    if isinstance(spec, BlockPartition):
        mats = []
        for g in spec.groups:
            for i in g:
                for j in g:
                    e = np.zeros((n, n), dtype=np.complex128)
                    e[i, j] = 1.0
                    mats.append(e)
        return mats
    if isinstance(spec, TensorFactor):
        eye = np.eye(spec.m)
        mats = []
        for i in range(spec.k):
            for j in range(spec.k):
                e = np.zeros((spec.k, spec.k), dtype=np.complex128)
                e[i, j] = 1.0
                mats.append(np.kron(e, eye))
        return mats
    if isinstance(spec, Conjugated):
        return list(spec.u @ np.stack(spanning_matrices(spec.base, n)) @ adjoint(spec.u))
    return list(spec.mats)


# ---------------------------------------------------------------------------
# conditional expectations as Hilbert-Schmidt projections


@dataclass(frozen=True, eq=False)
class ExpectationProjection:
    """Orthogonal projection of HS(M_n) onto a vectorized *-subalgebra.

    The induced map E(x) = B (B* vec x), B the orthonormal ``basis`` (so
    ``big.m``, formed only when read, is the symmetrized B B*), is the
    trace-preserving conditional expectation onto the subalgebra; ``basis``
    and ``n`` are read off ``big``.

    ``closure`` is the product residual kappa, the largest distance of a
    product of two members from the span: as measured, for an end that
    :func:`expectation_projection` built, and for a conjugated end of
    :func:`expectation_path` the certified upper bound that settled it, or
    where none settled, as measured on the conjugated basis.
    """

    big: Projection
    spec: SubalgebraSpec
    closure: float

    @property
    def basis(self) -> np.ndarray:
        return self.big.basis

    @property
    def n(self) -> int:
        return math.isqrt(self.big.n)

    def expect(self, x) -> np.ndarray:
        return _expect(self.basis, _square(x, self.n, "x")[None])[0]


def _orthonormal_range(mats: list[np.ndarray], n: int,
                       tol: ToleranceProfile) -> np.ndarray:
    cols = np.stack([vec(m) for m in mats], axis=1)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    r = int((s > tol.rank_cutoff(n * n, s[0])).sum())
    return u[:, :r]


def _span_residuals(basis: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Distance of each matrix of a stack from the span of the basis, read
    row-major as :func:`_expect` reads it: rows vec(x) less (rows conj(B))
    B^T, the norms of the rows from one :func:`numkit.frobenius`."""
    rows = mats.reshape(len(mats), basis.shape[0])
    res = rows - (rows @ basis.conj()) @ basis.T
    return numkit.frobenius(res.reshape(len(mats), 1, basis.shape[0]))


def _product_blocks(left: np.ndarray, right: np.ndarray):
    """Every product a @ b of n x n matrices, a in ``left`` and b in
    ``right``, in a-major order (the rows a @ right one after another), as
    stacks of one broadcast matmul each: the kernel of every r^2 product
    pass, the closure, the measured bimodule and the multiplicativity. A
    block takes as many left factors as keep it within ``_PRODUCT_BLOCK``
    complex entries, and at least one, a count set by ``right`` alone."""
    n = right.shape[-1]
    k = max(1, _PRODUCT_BLOCK // max(len(right) * n * n, 1))
    for i in range(0, len(left), k):
        yield (left[i:i + k, None] @ right).reshape(-1, n, n)


def _product_residual(basis: np.ndarray, members: np.ndarray) -> float:
    """Largest distance of a product a @ b of members from the span, one
    :func:`_span_residuals` per block of :func:`_product_blocks`."""
    return float(numkit.worst(_span_residuals(basis, block).max()
                              for block in _product_blocks(members, members)))


def _expect(basis: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """E(x) = B (B* vec x), E = B B* for B = ``basis``, applied to each
    matrix of a stack by two gemms: rows vec(x) times conj(B), then B^T."""
    rows = mats.reshape(len(mats), basis.shape[0])
    return ((rows @ basis.conj()) @ basis.T).reshape(mats.shape)


def _gamma(z: GeodesicExponent, t: float, mats: np.ndarray) -> np.ndarray:
    """Gamma_t(x) = e^{tZ} vec x = x + V ((e^{-itw} - 1) V* x), from the
    exponent's spectrum i Z = V diag(w) V*, for each matrix of a stack;
    no n^2 x n^2 unitary is formed (see ``GeodesicExponent.apply``)."""
    rows = mats.reshape(len(mats), z.p.n)
    return z.apply(t, rows.T).T.reshape(mats.shape)


def expectation_projection(spec: SubalgebraSpec, n: int,
                           tol: ToleranceProfile = DEFAULT_TOL
                           ) -> ExpectationProjection:
    """Build the expectation projection for a unital *-subalgebra of M_n.

    The spanning set is orthonormalized on the Hilbert-Schmidt space by one
    SVD, the closure residual of the basis is measured over its r^2 member
    products, and :func:`_validated_end` accepts the end (NotSubalgebra
    unless the span is closed under adjoints and products and holds the
    identity). Nothing is cached, a Conjugated spec included: this is the
    fully measured reference build.
    """
    basis = _orthonormal_range(spanning_matrices(spec, n), n, tol)
    members = _members(basis, n)
    return _validated_end(spec, n, tol, basis, members, _product_residual(basis, members))


def _validated_end(spec: SubalgebraSpec, n: int, tol: ToleranceProfile, basis: np.ndarray,
                   members: np.ndarray, closure: float,
                   big: Projection | None = None) -> ExpectationProjection:
    """The end of ``spec`` spanned by the basis B of the ``members``, by the
    one rule of every end: the product residual ``closure`` (measured, or a
    bound that settled) and the span residuals of the unit and the member
    adjoints must lie within ``atol_structure``, else NotSubalgebra; then
    the Gram of B (:func:`projlat._from_orthonormal`, unless the caller
    passes the ``big`` it built from B); then the axioms of E = B B*, as
    the bounds of :func:`_axiom_bounds` read off those residuals. Where one
    cannot settle (site "expectation axioms bound"), :func:`_axioms` measures
    every field from them. A finite failure that the bounds of the rounding
    alone (span and closure residuals set to zero, site "expectation axioms
    rounding") settle is the admitted residuals': NotSubalgebra names the
    axiom and them. Otherwise, a nan included, the InternalConsistencyError
    carries the largest field."""
    atol = tol.atol_structure
    spans = _span_residuals(basis, np.concatenate([np.eye(n)[None], _adjoints(members)]))
    res = numkit.worst((spans.max(), closure))
    why = f"residual {res:.3e}"
    if not numkit.exceeds(res, atol):
        if big is None:
            big = projlat._from_orthonormal(basis, tol)
        bounds = _axiom_bounds(basis, n, big.basis_residual, spans, closure)
        found = {} if numkit.settles("expectation axioms bound", atol, *bounds) else vars(
            _axioms(big, n, members, spans, closure))
        res = numkit.worst(found.values())
        if not numkit.exceeds(res, atol):
            return ExpectationProjection(big=big, spec=spec, closure=closure)
        rounding = _axiom_bounds(basis, n, big.basis_residual, np.zeros_like(spans), 0.0)
        if not (math.isfinite(res) and numkit.settles(
                "expectation axioms rounding", atol, *rounding)):
            raise InternalConsistencyError(
                f"expectation axioms fail on a validated subalgebra ({res:.3e})")
        field = next(name for name, value in found.items() if value == res)
        why = f"{field} axiom {res:.3e}, span residual {spans.max():.3e}, closure {closure:.3e}"
    raise NotSubalgebra(f"span is not a unital *-subalgebra ({why})")


@dataclass(frozen=True)
class ExpectationAxioms:
    """Residuals of the conditional-expectation axioms for an HS
    projection: idempotency, unitality, *-preservation, trace
    invariance, the bimodule property over the range algebra, and
    closure of the range under products.

    ``bimodule`` is the certified upper bound of :func:`_axiom_bounds` where
    :func:`numkit.settles` accepts it at ``atol_structure``; otherwise it is
    measured over the products (a x) b and (a E(x)) b. Every other field is
    measured."""

    idempotent: float
    unital: float
    star: float
    trace: float
    bimodule: float
    closure: float

    def max(self) -> float:
        return numkit.worst(vars(self).values())


def _members(basis: np.ndarray, n: int) -> np.ndarray:
    """The columns of an n^2 x r basis, as an (r, n, n) stack."""
    return basis.T.reshape(-1, n, n)


def _adjoints(mats: np.ndarray) -> np.ndarray:
    return mats.conj().transpose(0, 2, 1)


def expectation_axioms(big: Projection, n: int) -> ExpectationAxioms:
    """Measure the conditional-expectation axioms of E = B B* on HS(M_n),
    B = ``big.basis`` (n^2 x r, orthonormal), against the range algebra B
    spans: its unit and adjoint span residuals and its closure residual, then
    every field by :func:`_axioms`. E equals ``big.m`` to rounding for every
    projection the library builds from orthonormal columns. Raises
    DimensionMismatch unless ``big`` acts on the n^2-dimensional space.

    At an interior point of an :class:`ExpectationPath` the ``closure`` and
    ``bimodule`` fields are measurements of the path, not checks: the range
    of E_t need not be closed under products, and on correct code they can
    lie far above tolerance (closure 1.5e-2 at t = 0.5 from the diagonal of
    M_3 to its e^{0.4 h} conjugate; README.md, "The exponent")."""
    if big.n != n * n:
        raise DimensionMismatch(
            f"projection acts on dimension {big.n}, not n^2 = {n * n} for n = {n}")
    basis = big.basis
    members = _members(basis, n)
    spans = _span_residuals(basis, np.concatenate([np.eye(n)[None], _adjoints(members)]))
    return _axioms(big, n, members, spans, _product_residual(basis, members))


def _axioms(big: Projection, n: int, members: np.ndarray, spans: np.ndarray,
            closure: float) -> ExpectationAxioms:
    """The :class:`ExpectationAxioms` of E = B B*, B = ``big.basis``, applied
    as :func:`_expect`, from its ``members``, their unit and adjoint ``spans``
    residuals and the product residual ``closure``, returned as given; each
    norm an exact :func:`numkit.operator_norm`. E E - E = B M B* (M = G - 1,
    G = B* B) has the norm of the r x r matrix M G. A measured bimodule takes
    its products from :func:`_product_blocks`."""
    basis = big.basis
    gram = adjoint(basis) @ basis
    residual = gram - np.eye(basis.shape[1])
    idempotent = operator_norm(residual @ gram)
    xs = _axiom_samples(n)[0]
    exs = _expect(basis, xs)
    eye = np.eye(n, dtype=np.complex128)

    unital = operator_norm(_expect(basis, eye[None]) - eye)
    star = operator_norm(_expect(basis, _adjoints(xs)) - _adjoints(exs))
    dtr = np.trace(exs, axis1=1, axis2=2) - np.trace(xs, axis1=1, axis2=2)
    # hypot is abs() of each complex scalar bit for bit; np.abs of a complex
    # array can differ from it in the last bit
    tr = (np.hypot(dtr.real, dtr.imag) / n).max()
    bimod = _axiom_bounds(basis, n, numkit.frobenius(residual), spans, closure)[4]
    if not numkit.settles("bimodule bound", big.tol.atol_structure, bimod):
        # (a x) b and (a E(x)) b: two streams in one order, blocked by the right stack
        ax, aex = ((members[:, None] @ ys).reshape(-1, n, n) for ys in (xs, exs))
        bimod = numkit.worst(operator_norm(_expect(basis, p) - q) for p, q in zip(
            _product_blocks(ax, members), _product_blocks(aex, members)))
    return ExpectationAxioms(idempotent=idempotent, unital=unital, star=star,
                             trace=float(tr), bimodule=bimod, closure=closure)


def _rounding_terms(basis: np.ndarray, n: int) -> tuple[float, float]:
    """(g(nu), beta (g(N_col) + g(N_row))), the rounding terms of
    :func:`_axiom_bounds` for the n^2 x r ``basis`` B, from one nonzero
    mask and one |B|: g = :func:`numkit.complex_dot_error`, nu the most
    nonzeros in a row or column of a member, N_col and N_row the most in a
    column and in a row of B, and beta = sqrt(||B||_1 ||B||_inf) >= || |B| ||.
    The second number times (1 + eps) ||v||_F bounds the rounding of one
    E v = B (B* v) as :func:`_expect` and :func:`_span_residuals` form it."""
    mask = (basis != 0).reshape(n, n, -1)
    in_cols, in_rows = mask.sum(axis=0), mask.sum(axis=1)  # per member column, row
    nu = max(in_cols.max(initial=0), in_rows.max(initial=0))
    n_col = in_cols.sum(axis=0).max(initial=0)
    n_row = mask.sum(axis=2).max(initial=0)
    mags = np.abs(basis)
    beta = math.sqrt(mags.sum(axis=0).max(initial=0.0) * mags.sum(axis=1).max(initial=0.0))
    g = numkit.complex_dot_error
    return g(nu), beta * (g(n_col) + g(n_row))


def _axiom_bounds(basis: np.ndarray, n: int, eps: float, spans: np.ndarray,
                  closure: float) -> tuple[float, ...]:
    """Upper bounds of the six fields of :func:`expectation_axioms`
    (idempotent, unital, star, trace, bimodule, closure) at the n^2 x r ``basis`` B, from
    numbers its build measured: eps >= ||B* B - 1||, ``spans`` = the span
    residuals rho_1 of the unit and sigma_k of the member adjoints m_k*
    (:func:`_span_residuals`, in that order), and the product residual
    ``closure`` = kappa, with X the largest sample norm (:func:`_axiom_samples`).
    In exact arithmetic, for eps < 1/2 and P = B B*: idempotent <= eps (1 +
    eps); unital <= rho_1; trace <= rho_1 X / n, as tr(P x) - tr x =
    <P 1 - 1, x>; star <= X ||P - J P J|| <= X (2 eps + (||sigma||_2 +
    eps mu) / sqrt(1 - eps)), J(x) = x*, mu = sqrt(1 + eps) >= ||m_k||_F;
    bimodule <= 2 (1 + eps)^3 mu X (max sigma_k + sqrt(r) (1 + phi) kappa),
    phi the largest ||B* m_k*||_1; closure = kappa. Each adds the rounding of
    the measurement it replaces and of the residuals it reads, with the
    counts of :func:`_rounding_terms` (README.md, "The expectation axiom
    certificate"). Every bound is inf unless eps < 1/2, a nan included."""
    if not eps < 0.5:
        return (math.inf,) * 6
    r = basis.shape[1]
    g = numkit.complex_dot_error
    x_norm = _axiom_samples(n)[1]
    g_nu, apply = _rounding_terms(basis, n)
    mu = math.sqrt(1.0 + eps)
    delta = (1.0 + eps) * apply  # one E v, per ||v||_F
    # a span residual of a vector of norm at most mu rounds by at most
    # slack; a second measurement of it lies within 2 slack
    slack = mu * delta
    rho, sigma = float(spans[0]), spans[1:]
    root_n = math.sqrt(n)
    idempotent = eps * (1.0 + eps) * (1.0 + r * g(r)) + 3.0 * delta
    unital = rho + 2.0 * root_n * delta
    trace = x_norm * (unital + 2.0 * root_n * (1.0 + eps) * g(n)) / n
    sigma_2 = math.hypot(*sigma) + math.sqrt(r) * slack
    star = x_norm * (2.0 * eps + 2.0 * delta + (sigma_2 + eps * mu) / math.sqrt(1.0 - eps))
    phi = np.abs(adjoint(basis) @ _adjoints(_members(basis, n)).reshape(r, n * n).T).sum(
        axis=0).max(initial=0.0)
    exact = 2.0 * (1.0 + eps) ** 3 * mu * x_norm * (
        float(sigma.max(initial=0.0)) + 2.0 * slack + math.sqrt(r) * (1.0 + phi) * closure)
    bimodule = float(exact + (1.0 + eps) * mu * mu * x_norm * (4.0 * g_nu + 2.0 * apply))
    return idempotent, unital, star, trace, bimodule, closure


@functools.lru_cache(maxsize=8)
def _axiom_samples(n: int) -> tuple[np.ndarray, float]:
    """(xs, X): the AXIOM_SAMPLES test matrices of :func:`expectation_axioms`
    at size n, drawn from AXIOM_SEED once per n, as a read-only
    (AXIOM_SAMPLES, n, n) stack, and X, their largest Frobenius norm."""
    rng = np.random.default_rng(AXIOM_SEED)
    xs = np.stack([rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                   for _ in range(AXIOM_SAMPLES)])
    xs.flags.writeable = False
    return xs, float(numkit.frobenius(xs).max(initial=0.0))


# ---------------------------------------------------------------------------
# index pairs and the distance theorem


@dataclass(frozen=True, eq=False)
class JonesPair:
    """Projections p, q in M_{k m} with p q p = tau p, tau = 1/m, equal
    normalized traces tau, and no wedge or meet parts besides the common
    null corner."""

    p: Projection
    q: Projection
    tau: float
    m: int
    k: int

    @property
    def n(self) -> int:
        return self.p.n


def jones_pair(m: int, k: int, tol: ToleranceProfile = DEFAULT_TOL) -> JonesPair:
    """Construct the canonical angle pair with index parameter tau = 1/m.

    In M_{k m}, p projects onto the even coordinates f_0, f_2, ...,
    f_{2(k-1)} and q onto their rotations by theta = arccos(sqrt(tau))
    into the following odd coordinates; the remaining k m - 2 k
    coordinates lie in neither range.
    """
    if m < 2 or k < 1:
        raise ValueError("need m >= 2 and k >= 1")
    n = k * m
    tau = 1.0 / m
    theta = math.acos(math.sqrt(tau))
    even = 2 * np.arange(k)
    pm = np.zeros((n, n), dtype=np.complex128)
    qm = np.zeros((n, n), dtype=np.complex128)
    pm[even, even] = 1.0
    v = (math.cos(theta), math.sin(theta))  # q projects onto v_0 f_2j + v_1 f_2j+1
    for (i, j), entry in np.ndenumerate(np.outer(v, v)):
        qm[even + i, even + j] = entry
    p = projlat.make_projection(pm, tol)
    q = projlat.make_projection(qm, tol)
    c = adjoint(p.basis) @ q.basis  # p q p - tau p = P (C C* - tau) P*, C = P* Q
    if numkit.exceeds(numkit.bounded_norm(c @ adjoint(c) - tau * np.eye(k), 1e-10), 1e-10):
        raise InternalConsistencyError("angle relation p q p = tau p fails")
    ranks = projlat.position(p, q).ranks()
    if ranks != (0, n - 2 * k, 0, 0, 2 * k):
        raise InternalConsistencyError(f"unexpected position ranks {ranks}")
    return JonesPair(p=p, q=q, tau=tau, m=m, k=k)


def rho_distance_closed_form(tau: float, rho: float) -> float:
    """The rho-norm length (2 tau)^{1/rho} arccos(sqrt(tau)) of the minimal
    geodesic of an angle pair with p q p = tau p and trace(p) = trace(q) = tau.

    The pair has no wedge parts, so the exponent z has |z| = arccos(sqrt(tau))
    on the whole generic part p v q, whose normalized trace is 2 tau; hence
    tr|z|^rho = 2 tau arccos(sqrt(tau))^rho.
    """
    return (2.0 * tau) ** (1.0 / rho) * math.acos(math.sqrt(tau))


def index_distance(jp: JonesPair):
    """Geodesic distance data for an index pair.

    Returns (d, d_rho): d is the operator-norm distance, checked against
    the closed form arccos(sqrt(tau)); d_rho(rho) computes the rho-norm
    length of the minimal exponent under the normalized trace of the
    ambient matrix algebra and checks it against
    rho_distance_closed_form(tau, rho) = (2 tau)^{1/rho} arccos(sqrt(tau)),
    raising InvariantViolation when the check fails, a NaN included (the
    raised error carries the computed and the expected value).
    """
    pos = projlat.position(jp.p, jp.q)
    d = pos.distance()
    closed = math.acos(math.sqrt(jp.tau))
    if numkit.exceeds(abs(d - closed), IDX_ATOL):
        raise InvariantViolation(
            f"distance {d!r} != arccos(sqrt(tau)) = {closed!r}",
            computed=d, expected=closed)
    tr = NormalizedTrace(FiniteAlgebra.full(jp.n))
    g = geo.position_exponent(pos)

    def d_rho(rho: float) -> float:
        val = geo.rho_length(g, rho, tr)
        expected = rho_distance_closed_form(jp.tau, rho)
        if numkit.exceeds(abs(val - expected), IDX_ATOL):
            raise InvariantViolation(
                f"rho-distance {val!r} != (2 tau)^(1/rho) arccos(sqrt(tau)) = "
                f"{expected!r} at rho = {rho}", computed=val, expected=expected)
        return val

    return d, d_rho


# ---------------------------------------------------------------------------
# the geodesic path of expectations and parallel transport


@dataclass(frozen=True, eq=False)
class ExpectationPath:
    """Geodesic of expectation projections between two subalgebras.

    Immutable handle; evaluation at any t is a pure function. The exponent
    carries its thin spectrum (w, V) from birth, V (n^2 x 2k) spanning the
    k generic planes of (E_0, E_1) on which Z rotates, so no
    eigendecomposition runs after construction and concurrent use at
    distinct times is safe.
    """

    z: GeodesicExponent  # exponent on the HS space of M_n
    end0: ExpectationProjection
    end1: ExpectationProjection
    n: int
    gap: float  # ||E_0 - E_1||, read off the position when the path is built

    def projection_at(self, t: float) -> Projection:
        """E_t = Gamma_t E_0 Gamma_t*, validated: ``geo.geodesic_point``,
        whose basis is the position's planes turned by t theta and whose
        ``basis_residual`` is the exponent certificate's bound."""
        return geo.geodesic_point(self.z, t)

    def expect(self, t: float, x) -> np.ndarray:
        """E(t, x): the expectation at time t applied to x, as B_t (B_t* x)."""
        x = _square(x, self.n, "x")
        return _expect(self.projection_at(t).basis, x[None])[0]

    def transport(self, t: float, x) -> np.ndarray:
        """Gamma_t(x): the propagator of the transport equation."""
        return _gamma(self.z, t, _square(x, self.n, "x")[None])[0]


@functools.lru_cache(maxsize=4)
def _shared_end(spec: BlockPartition | TensorFactor, n: int,
                tol: ToleranceProfile) -> ExpectationProjection:
    """:func:`expectation_projection` of an end that compares by value,
    built once per (spec, n, tol) and shared by the paths that ask again
    (:func:`expectation_path`)."""
    return expectation_projection(spec, n, tol)


def _gram_bound(measured: float, k: int, cols: int) -> float:
    """An upper bound of ||A* A - 1|| for a matrix A of ``cols`` columns,
    from ``measured``, the norm of its computed Gram residual, whose dots
    take at most k terms: the computed Gram lies within g(k) ||A||_F^2 <=
    g(k) cols (1 + ||A* A - 1||) of the exact one, g =
    :func:`numkit.complex_dot_error`."""
    slack = numkit.complex_dot_error(k) * cols
    return (measured + slack) / (1.0 - slack) if slack < 1.0 else math.inf


def _conjugated_closure(kappa: float, eps0: float, eps1: float, eta: float,
                        n: int, r: int) -> float:
    """An upper bound of the closure residual of the r members N_k =
    fl(fl(u M_k) u*) of a conjugated end, exact or as :func:`_product_residual`
    would measure it, from numbers in hand: the base members' measured
    closure residual ``kappa`` and Gram bound ``eps0``, the conjugated
    members' Gram bound ``eps1``, and ``eta`` >= ||u* u - 1||. With mu =
    sqrt(1 + eps0) >= ||M_k||_F, f >= ||N_k - u M_k u*||_F from the rounding
    of the two n x n products, and c = B_0* vec(M_j M_k):
    N_j N_k = sum_l c_l N_l + u D u* - sum_l c_l F_l + u M_j (u* u - 1) M_k u*
    + (terms in F), D the base's closure defect; README.md, "The conjugated
    end", derives each term. Infinite unless eps0, eps1 and eta are below 1/2."""
    if not numkit.worst((eps0, eps1, eta)) < 0.5:
        return math.inf
    g = numkit.complex_dot_error

    def apply(eps: float) -> float:  # one E v = B (B* v) rounds by this times ||v||
        return (1.0 + eps) * math.sqrt(r * (1.0 + eps)) * (g(n * n) + g(r))

    mu = math.sqrt(1.0 + eps0)
    lift = 1.0 + eta  # >= ||u||^2
    nu = math.sqrt(n * lift)  # >= ||u||_F
    f = g(n) * nu * mu * (2.0 * math.sqrt(lift) + g(n) * nu)
    defect = kappa + mu * mu * (g(n) + (1.0 + g(n)) * apply(eps0))  # >= ||D||_F
    exact = (lift * (defect + eta * mu * mu) + math.sqrt(r) * mu ** 3 * f
             + 2.0 * lift * mu * f + f * f + math.sqrt(1.0 + eps1) * eps1 * mu ** 3)
    return exact + (1.0 + eps1) * (g(n) + (1.0 + g(n)) * apply(eps1))


def _conjugated_end(spec: Conjugated, n: int, tol: ToleranceProfile) -> ExpectationProjection:
    """The end of ``spec`` = u A u* as Ad(u) of the shared end of A: the
    members u M_k u* from one batched product, their vecs the basis, whose
    Gram :func:`projlat._from_orthonormal` validates. The closure residual
    is the certified bound of :func:`_conjugated_closure` where
    :func:`numkit.settles` accepts it at ``atol_structure`` (site
    "conjugated end closure bound"), and else measured on this basis by
    :func:`_product_residual`; :func:`_validated_end` then accepts the end
    as it accepts every build.

    Ad(u) E_A Ad(u)* is the expectation onto u A u* only for a unitary u, and
    a basis off orthonormal by eps_1 moves each checked residual by about
    eps_1. So unless eta = ||u* u - 1|| lies within ten times its rounding
    n g(n) (g = :func:`numkit.complex_dot_error`) and ``_from_orthonormal``
    accepts the basis, the bound is inf and the end is
    :func:`expectation_projection`'s build of the spanning set, which raises
    as the equal MatrixSpan does."""
    check_size(spec, n)
    base = _shared_end(spec.base, n, tol)
    u, r = spec.u, base.basis.shape[1]
    eta = numkit.frobenius(adjoint(u) @ u - np.eye(n))
    members = u @ _members(base.basis, n) @ adjoint(u)
    basis = members.reshape(r, n * n).T
    big = None
    if not numkit.exceeds(eta, 10.0 * n * numkit.complex_dot_error(n)):
        with contextlib.suppress(NotProjection):
            big = projlat._from_orthonormal(basis, tol)
    closure = math.inf if big is None else _conjugated_closure(
        base.closure, _gram_bound(base.big.basis_residual, n * n, r),
        _gram_bound(big.basis_residual, n * n, r), _gram_bound(eta, n, n), n, r)
    if not numkit.settles("conjugated end closure bound", tol.atol_structure, closure):
        if big is None:
            return expectation_projection(spec, n, tol)
        closure = _product_residual(basis, members)
    return _validated_end(spec, n, tol, basis, members, closure, big)


def _path_end(spec: SubalgebraSpec, n: int, tol: ToleranceProfile) -> ExpectationProjection:
    """An end of :func:`expectation_path`: shared, conjugated or built."""
    if isinstance(spec, (BlockPartition, TensorFactor)):
        return _shared_end(spec, n, tol)
    if isinstance(spec, Conjugated):
        return _conjugated_end(spec, n, tol)
    return expectation_projection(spec, n, tol)


def expectation_path(spec0: SubalgebraSpec, spec1: SubalgebraSpec, n: int,
                     tol: ToleranceProfile = DEFAULT_TOL) -> ExpectationPath:
    """The minimal geodesic between two expectation projections.

    Requires the gap ||e0 - e1|| to be below 1 (raising TooFar at the
    boundary), which guarantees a unique normalized geodesic. Its inner
    points need not be conditional expectations: their ranges can fail to
    be closed under products (README).

    The position of (e0, e1) is built once and handed to the exponent.
    TooFar is raised exactly when it classifies a wedge part (a principal
    angle with sine at least 1 - atol_spectral, or unpaired range); else the
    gap is the sine of the largest generic angle, ||e0 - e1|| with the
    planes absorbed into a meet counted as angle 0: a verdict, as the
    exponent turns them.

    An end given by a spec that compares by value, a BlockPartition (so
    :func:`diagonal_spec`) or a TensorFactor, comes from a process cache
    of the last four (spec, n, tol) builds, ``_shared_end``, whose
    ``cache_info()`` counts builds and reuses. The trace-preserving
    conditional expectation onto a subalgebra is unique, so every later
    path from an equal spec shares the first build's immutable
    ExpectationProjection, its basis read-only, with every check of that
    build (and its one ``settles`` DEBUG record, if any) made once. A
    Conjugated end u A u* (so :func:`rotated_diagonal_spec`) is Ad(u) of the
    shared end of A, built on every call with its closure residual
    certified from the base's build (:func:`_conjugated_end`). A MatrixSpan
    end, compared by identity over arrays the caller owns, is built on every
    call, and a build that raises is not kept. The transport benchmark's
    paths need three entries. An entry grows with n^4 and is
    held until it is evicted or ``_shared_end.cache_clear()`` is called:
    the n^2 x n^2 basis of a single-group BlockPartition (or of
    TensorFactor(n, 1)), 16 MiB at the CLI cap n = 32 and 256 MiB at
    n = 64, and as much again for ``big.m`` once a caller reads it.
    """
    end0, end1 = (_path_end(spec, n, tol) for spec in (spec0, spec1))
    pos = projlat.position(end0.big, end1.big)
    if not pos.exists() or not pos.unique():
        raise TooFar("||e0 - e1|| = 1.000000 is not below 1")
    return ExpectationPath(z=geo.position_exponent(pos), end0=end0, end1=end1, n=n,
                           gap=math.sin(pos.angles.max(initial=0.0)))


def _rk4_coordinates(path: ExpectationPath, x0, steps: int):
    """Set up the fixed-step RK4 of :func:`transport_ode_solve` and return
    (x, V, zw, y0, K): x = vec x0, i Z = V diag(w) V* with zw = -i w,
    y0 = V* x, and K = S - 1 for the one m x m step matrix S = D_h* R_0 by
    which the rotated coordinates y_j = D_{t_j}* V* x_j advance, so
    y_j = S^j y0. K, of size O(h), is formed directly, its diagonal from
    expm1: S itself would round its small part to eps, an error that its
    powers carry once per step."""
    if steps < 100:
        raise ValueError("need at least 100 steps")
    x = vec(_square(x0, path.n, "x0"))
    w, v = path.z.spectrum
    zw = -1j * w
    c = adjoint(v) @ path.end0.basis
    p0 = c @ adjoint(c)
    # [dE, E] with dE = ZP - PZ collapses to ZP + PZ - 2 PZP
    a0 = zw[:, None] * p0 + p0 * zw - 2.0 * p0 @ (zw[:, None] * p0)

    def generator(t: float) -> np.ndarray:
        d = np.exp(t * zw)
        return d[:, None] * a0 * d.conj()

    h = 1.0 / steps
    eye = np.eye(w.size)
    a_mid = generator(h / 2)
    k1 = a0
    k2 = a_mid @ (eye + (h / 2) * k1)
    k3 = a_mid @ (eye + (h / 2) * k2)
    k4 = generator(h) @ (eye + h * k3)
    d1 = np.expm1(np.conj(h * zw))  # D_h* - 1
    k = (1.0 + d1)[:, None] * ((h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)) + np.diag(d1)
    return x, v, zw, adjoint(v) @ x, k


def _squarings(k: np.ndarray):
    """K_i = S^{2^i} - 1 for ``k`` = S - 1, lazily: K_0 = k, K_{i+1} = K_i (K_i + 2)."""
    two = 2.0 * np.eye(len(k))
    while True:
        yield k
        k = k @ (k + two)


def transport_ode_solve(path: ExpectationPath, x0, steps: int):
    """Integrate the parallel transport equation with fixed-step RK4.

    The state is the vectorized matrix; the generator is the commutator
    [dE_t, E_t] with E_t the geodesic projection at time t and dE_t its
    exact derivative Z E_t - E_t Z (no finite differencing). The exponent's
    spectrum i Z = V diag(w) V* is thin: V (n^2 x m) spans the support of
    Z, a sum of parts of the position of (E_0, E_1), so Z, E_0 and every
    E_t commute with V V* and the generator vanishes off span V. The
    component x0 - V V* x0 is carried unchanged and RK4 runs on the m
    coordinates V* x. There Z is diag(zw) with zw = -i w, and the generator
    is A(t) = D_t A_0 D_t* with D_t = diag(e^{t zw}) and
    A_0 = Z P_0 + P_0 Z - 2 P_0 Z P_0, P_0 = V* E_0 V. So each RK4 step
    matrix is R_j = D_{t_j} R_0 D_{t_j}*, where R_0 takes the usual four
    stages from A(0), A(h/2) and A(h), and the coordinates rotated back by
    D_{t_j}* advance by the one m x m matrix S = D_h* R_0: y_j = S^j y_0.
    The iterates come by doubling: rows j + 2^i are S^{2^i} times rows
    j < 2^i, with S^{2^i} by repeated squaring, so all steps + 1 take
    ceil(log2(steps + 1)) block products and each is a product of at most
    log2(steps) + 1 powers. Each power is held as K = S^{2^i} - 1, which
    acts as y + K y and squares as K (K + 2), so no rounding of the
    identity's size enters the small part. Returns the times and the
    transported matrices at steps + 1 uniform points. Raises
    DimensionMismatch unless x0 is n x n.
    """
    x, v, zw, y0, k = _rk4_coordinates(path, x0, steps)
    rotated = np.empty((steps + 1, zw.size), dtype=np.complex128)
    rotated[0] = y0
    done = 1
    for power in _squarings(k):
        more = min(done, steps + 1 - done)
        head = rotated[:more]
        np.add(head, head @ power.T, out=rotated[done:done + more])
        done += more
        if done > steps:
            break
    times = np.linspace(0.0, 1.0, steps + 1)
    coords = np.exp(np.outer(times, zw)) * rotated
    states = (x - v @ y0) + coords @ v.T
    return times, states.reshape(steps + 1, path.n, path.n)


def transport_ode_endpoint(path: ExpectationPath, x0, steps: int) -> np.ndarray:
    """The state at t = 1 of :func:`transport_ode_solve`: y_steps =
    S^steps y_0 by binary powering, applying S^{2^i} for the set bits of
    steps from the lowest up, the nesting of the solve's last row, each
    as y + K y with K = S^{2^i} - 1 squared as K (K + 2). It holds the
    power and one state, so memory does not grow with steps; a single
    vector goes through BLAS gemv where the solve's rows go through gemm,
    so the two agree to rounding, not bit for bit."""
    x, v, zw, y0, k = _rk4_coordinates(path, x0, steps)
    y, bits = y0, steps
    for power in _squarings(k):
        if bits & 1:
            y = y + y @ power.T
        bits >>= 1
        if not bits:
            break
    state = (x - v @ y0) + (np.exp(zw) * y) @ v.T
    return state.reshape(path.n, path.n)


@dataclass(frozen=True)
class PropagatorReport:
    """Residuals of the propagator identities along a path: the
    intertwining Gamma_t E_0 Gamma_{-t} = E_t, multiplicativity and
    *-preservation of Gamma_t on the initial subalgebra, and the
    codiagonality identity z e0 + e0 z = z on the HS space."""

    intertwine: float
    multiplicative: float
    star: float
    codiagonal: float

    def max(self) -> float:
        return numkit.worst(vars(self).values())


def _multiplicative(z: GeodesicExponent, t: float, members: np.ndarray,
                    gammas: np.ndarray) -> float:
    """max ||Gamma_t(a b) - Gamma_t(a) Gamma_t(b)|| over the members a, b,
    given ``gammas`` = Gamma_t(members): one stacked :func:`operator_norm`
    per block of :func:`_product_blocks`, of the difference written over the
    contiguous block of Gamma_t(a) Gamma_t(b), read without a copy; the
    blocks are freed on return, so the caller's loop over times holds none."""
    return numkit.worst(operator_norm(np.subtract(_gamma(z, t, prods), res, out=res))
                        for prods, res in zip(_product_blocks(members, members),
                                              _product_blocks(gammas, gammas)))


def propagator_checks(path: ExpectationPath, ts, xs) -> PropagatorReport:
    """Check the propagator identities at the given times.

    ``xs`` are arbitrary n x n test matrices for the intertwining identity
    (DimensionMismatch otherwise); multiplicativity and *-preservation are
    checked on the initial subalgebra (its basis together with the
    projections of ``xs``). Gamma_t is applied as :func:`_gamma` and E_t as
    B_t B_t* with B_t the basis of ``path.projection_at(t)``, which spans
    Gamma_t range(E_0), so no n^2 x n^2 matrix is formed. The
    member products a b and Gamma_t(a) Gamma_t(b) come in the blocks of
    :func:`_product_blocks`, one stacked :func:`operator_norm` of
    Gamma_t(a b) - Gamma_t(a) Gamma_t(b) per block (:func:`_multiplicative`).
    The codiagonal residual ||Z P_0 + P_0 Z - Z|| is the exponent's reported
    codiagonality ||Z S + S Z|| halved, since Z S + S Z = 2 (Z P_0 + P_0 Z - Z)
    for S = 2 P_0 - 1: a certified upper bound, as Z is built from a
    position (``geo.verify_geodesic``).

    ``multiplicative`` is a measurement of the path, not a check: Gamma_t
    need not carry the initial algebra onto range(E_t) multiplicatively
    when 0 < t < 1, and on correct code it can lie far above tolerance
    there (README.md, "The exponent").
    """
    n, z, b0 = path.n, path.z, path.end0.basis
    xs = np.array([_square(x, n, "test matrices") for x in xs]).reshape(-1, n, n)
    members = np.concatenate([_members(b0, n), _expect(b0, xs)])
    intertwine = mult = star = 0.0
    for t in ts:
        lhs = _gamma(z, t, _expect(b0, _gamma(z, -t, xs)))
        bt = path.projection_at(t).basis
        intertwine = numkit.worst((intertwine, operator_norm(lhs - _expect(bt, xs))))
        gammas = _gamma(z, t, members)
        star = numkit.worst((star, operator_norm(
            _gamma(z, t, _adjoints(members)) - _adjoints(gammas))))
        mult = numkit.worst((mult, _multiplicative(z, t, members, gammas)))
    return PropagatorReport(intertwine=intertwine, multiplicative=mult, star=star,
                            codiagonal=z.residuals.codiagonality / 2)
