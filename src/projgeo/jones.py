"""Index geometry at matrix scale: angle pairs satisfying p q p = tau p,
conditional expectations realized as orthogonal projections on the
Hilbert-Schmidt space of M_n, the geodesic path of expectations between
two subalgebras, and the parallel transport equation with its propagator.

The Hilbert-Schmidt inner product uses the normalized trace, so the
identity has norm one; orthogonal projections onto vectorized
subalgebras then induce the trace-preserving conditional expectations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import geo, numkit, projlat
from .errors import (
    DimensionMismatch,
    InternalConsistencyError,
    InvariantViolation,
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
    """Matrices block-diagonal over groups of coordinates (0-based)."""

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "groups", tuple(tuple(int(i) for i in g) for g in self.groups))


@dataclass(frozen=True)
class TensorFactor:
    """The subalgebra M_k tensor I_m inside M_{k m}."""

    k: int
    m: int


@dataclass(frozen=True, eq=False)
class MatrixSpan:
    """A linear spanning set of the subalgebra (must be *- and
    product-closed as a subspace; this is validated, not completed)."""

    mats: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "mats", tuple(numkit.as_complex(m) for m in self.mats))


SubalgebraSpec = BlockPartition | TensorFactor | MatrixSpan


def diagonal_spec(n: int) -> BlockPartition:
    """The diagonal subalgebra of M_n."""
    return BlockPartition(groups=tuple((i,) for i in range(n)))


def rotated_diagonal_spec(n: int, theta: float) -> MatrixSpan:
    """The diagonal subalgebra conjugated by a rotation of angle theta in
    the first two coordinates; n must be at least 2."""
    if n < 2:
        raise ValueError(f"a rotation in the first two coordinates needs n >= 2, got {n}")
    u = np.eye(n, dtype=np.complex128)
    c, s = math.cos(theta), math.sin(theta)
    u[0, 0] = c
    u[0, 1] = -s
    u[1, 0] = s
    u[1, 1] = c
    # member i is u_i u_i* for the column u_i of the rotation
    return MatrixSpan(mats=tuple(np.einsum("ai,bi->iab", u, u.conj())))


def spanning_matrices(spec: SubalgebraSpec, n: int) -> list[np.ndarray]:
    """A linear spanning set of the specified subset of M_n."""
    if isinstance(spec, BlockPartition):
        seen = sorted(i for g in spec.groups for i in g)
        if seen != list(range(n)):
            raise ValueError("groups must partition the coordinates 0..n-1")
        mats = []
        for g in spec.groups:
            for i in g:
                for j in g:
                    e = np.zeros((n, n), dtype=np.complex128)
                    e[i, j] = 1.0
                    mats.append(e)
        return mats
    if isinstance(spec, TensorFactor):
        if spec.k * spec.m != n:
            raise ValueError(f"k*m = {spec.k * spec.m} does not match n = {n}")
        eye = np.eye(spec.m)
        mats = []
        for i in range(spec.k):
            for j in range(spec.k):
                e = np.zeros((spec.k, spec.k), dtype=np.complex128)
                e[i, j] = 1.0
                mats.append(np.kron(e, eye))
        return mats
    if isinstance(spec, MatrixSpan):
        for m in spec.mats:
            if m.shape[0] != n:
                raise ValueError("spanning matrices have the wrong dimension")
        return list(spec.mats)
    raise TypeError(f"unknown subalgebra specification: {type(spec)!r}")


# ---------------------------------------------------------------------------
# conditional expectations as Hilbert-Schmidt projections


@dataclass(frozen=True, eq=False)
class ExpectationProjection:
    """Orthogonal projection of HS(M_n) onto a vectorized *-subalgebra.

    The induced map E(x) = B (B* vec x), B the orthonormal ``basis`` (so
    ``big.m``, formed only when read, is the symmetrized B B*), is the
    trace-preserving conditional expectation onto the subalgebra.
    """

    big: Projection
    spec: SubalgebraSpec
    n: int
    basis: np.ndarray  # n^2 x r, orthonormal columns spanning the range

    def expect(self, x) -> np.ndarray:
        return _expect(self.basis, _square(x, self.n, "x")[None])[0]


def _orthonormal_range(mats: list[np.ndarray], n: int,
                       tol: ToleranceProfile) -> np.ndarray:
    cols = np.stack([vec(m) for m in mats], axis=1)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    r = int((s > tol.rank_cutoff(n * n, s[0])).sum())
    return u[:, :r]


def _span_residuals(basis: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Distance of each matrix of a stack from the span of the basis."""
    v = mats.reshape(len(mats), basis.shape[0]).T
    return np.linalg.norm(v - basis @ (adjoint(basis) @ v), axis=0)


def _product_blocks(left: np.ndarray, right: np.ndarray):
    """Every product a @ b of n x n matrices, a in ``left`` and b in
    ``right``, in a-major order (the rows a @ right one after another), as
    stacks of one broadcast matmul each. A block takes as many left factors
    as keep it within ``_PRODUCT_BLOCK`` complex entries, and at least one."""
    n = right.shape[-1]
    k = max(1, _PRODUCT_BLOCK // max(len(right) * n * n, 1))
    for i in range(0, len(left), k):
        yield (left[i:i + k, None] @ right).reshape(-1, n, n)


def _product_residual(basis: np.ndarray, members: np.ndarray) -> float:
    """Largest distance of a product a @ b of members from the span, one
    :func:`_span_residuals` per block of :func:`_product_blocks`: memory
    stays at one block, where all r^2 products at once take O(r^2 n^2)."""
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

    The spanning set is orthonormalized on the Hilbert-Schmidt space;
    closure under adjoints and products and the presence of the identity
    are validated, raising NotSubalgebra on failure.

    The conditional-expectation axioms of E = B B*, B the orthonormal
    ``basis``, are then guarded by :func:`_axiom_bounds`: upper bounds of
    every field of :func:`_axioms`, read off what the build measured (the
    Gram residual ``big.basis_residual``, the unit and adjoint span
    residuals and the closure residual). Where :func:`numkit.settles`
    accepts all six at ``atol_structure`` (site "expectation axioms
    bound") nothing more is measured; otherwise one :func:`_axioms` pass
    measures the fields, and the InternalConsistencyError carries the largest.
    """
    mats = spanning_matrices(spec, n)
    basis = _orthonormal_range(mats, n, tol)
    members = _members(basis, n)
    unit_star = np.concatenate([np.eye(n)[None], _adjoints(members)])
    closure = _product_residual(basis, members)
    spans = _span_residuals(basis, unit_star)
    res = numkit.worst((spans.max(), closure))
    if numkit.exceeds(res, tol.atol_structure):
        raise NotSubalgebra(f"span is not a unital *-subalgebra (residual {res:.3e})")
    big = projlat._from_orthonormal(basis, tol)
    atol = tol.atol_structure
    bounds = _axiom_bounds(basis, n, big.basis_residual, spans, closure)
    if not numkit.settles("expectation axioms bound", atol, *bounds):
        res = _axioms(basis, n, closure, atol).max()
        if numkit.exceeds(res, atol):
            raise InternalConsistencyError(
                f"expectation axioms fail on a validated subalgebra ({res:.3e})")
    return ExpectationProjection(big=big, spec=spec, n=n, basis=basis)


@dataclass(frozen=True)
class ExpectationAxioms:
    """Residuals of the conditional-expectation axioms for an HS
    projection: idempotency, unitality, *-preservation, trace
    invariance, the bimodule property over the range algebra, and
    closure of the range under products.

    ``bimodule`` is the certified upper bound of :func:`_bimodule_bound`
    where :func:`numkit.settles` accepts it at ``atol_structure``; otherwise
    it is the measured residual of the sandwich products. Every other field
    is measured."""

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
    B = ``big.basis``, against its own range algebra, each residual an
    exact operator norm except the certified ``bimodule``
    (:class:`ExpectationAxioms`). E equals ``big.m`` to rounding for every
    projection the library builds from orthonormal columns. The closure
    residual is taken over the member products in blocks of
    :func:`_product_blocks`, and the test matrices are drawn once per n
    (:func:`_axiom_samples`). Raises DimensionMismatch unless ``big`` acts
    on the n^2-dimensional space.

    At an interior point of an :class:`ExpectationPath` the ``closure`` and
    ``bimodule`` fields are measurements of the path, not checks: the range
    of E_t need not be closed under products, and on correct code they can
    lie far above tolerance (closure 1.5e-2 at t = 0.5 from the diagonal of
    M_3 to its e^{0.4 h} conjugate; README.md, "The exponent")."""
    if big.n != n * n:
        raise DimensionMismatch(
            f"projection acts on dimension {big.n}, not n^2 = {n * n} for n = {n}")
    basis = big.basis
    return _axioms(basis, n, _product_residual(basis, _members(basis, n)),
                   big.tol.atol_structure)


def _rounding_terms(basis: np.ndarray, n: int) -> tuple[float, float]:
    """(g(nu), beta (g(N_col) + g(N_row))), the rounding terms of
    :func:`_bimodule_bound` for the n^2 x r ``basis`` B, from one nonzero
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


def _bimodule_bound(basis: np.ndarray, members: np.ndarray, eps: float, mu: float,
                    sigma: float, closure: float, x_norm: float,
                    rounding: tuple[float, float]) -> float:
    """An upper bound of max ||E(a x b) - a E(x) b|| over the samples x and
    the members a, b, for E = B B*, B = ``basis``, as the sandwich of
    :func:`_axioms` would measure it. It needs no product of members.

    The exact-arithmetic part is 2 (1 + eps)^3 mu X (sigma + sqrt(r)
    (1 + phi) kappa), with eps >= ||B* B - 1||, mu >= the largest member
    norm ||m_k||_F, X = ``x_norm`` the largest ||x||_F, sigma the largest
    member-adjoint residual ||(1 - E) m_k*||_F as measured, phi the largest
    ||B* m_k*||_1 and kappa the product residual ``closure`` (README.md
    derives it). The rounding of the measurement adds (1 + eps) mu^2 X
    (4 g(nu) + 2 beta (g(N_col) + g(N_row))), from the counts of
    :func:`_rounding_terms`."""
    r = basis.shape[1]
    phi = np.abs(adjoint(basis) @ _adjoints(members).reshape(r, -1).T).sum(
        axis=0).max(initial=0.0)
    exact = 2.0 * (1.0 + eps) ** 3 * mu * x_norm * (
        sigma + math.sqrt(r) * (1.0 + phi) * closure)
    g_nu, apply = rounding
    return float(exact + (1.0 + eps) * mu * mu * x_norm * (4.0 * g_nu + 2.0 * apply))


def _axiom_bounds(basis: np.ndarray, n: int, eps: float, spans: np.ndarray,
                  closure: float) -> tuple[float, ...]:
    """Upper bounds of the six fields of :func:`_axioms` (idempotent,
    unital, star, trace, bimodule, closure) at the n^2 x r ``basis`` B, from
    numbers its build measured: eps = ||B* B - 1||, ``spans`` = the span
    residuals rho_1 of the unit and sigma_k of the member adjoints m_k*
    (:func:`_span_residuals`, in that order), and the product residual
    ``closure``, with X the largest sample norm (:func:`_sample_norm`).
    In exact arithmetic, for eps < 1/2 and P = B B*: idempotent <= eps (1 +
    eps); unital <= rho_1; trace <= rho_1 X / n, as tr(P x) - tr x =
    <P 1 - 1, x>; star <= X ||P - J P J|| <= X (2 eps + (||sigma||_2 +
    eps sqrt(1 + eps)) / sqrt(1 - eps)), J(x) = x*; bimodule by
    :func:`_bimodule_bound`; closure = kappa. Each adds the rounding of the
    measurement it replaces and of the residuals it reads, in the model of
    :func:`_bimodule_bound` (README.md, "The expectation axiom certificate"),
    with eps <= 1/4 as :func:`projlat._from_orthonormal` accepted it."""
    r = basis.shape[1]
    g = numkit.complex_dot_error
    x_norm = _sample_norm(n)
    rounding = _rounding_terms(basis, n)
    delta = (1.0 + eps) * rounding[1]  # one E v, per ||v||_F
    # a span residual of a vector of norm at most sqrt(1 + eps) rounds by at
    # most slack; a second measurement of it lies within 2 slack
    slack = math.sqrt(1.0 + eps) * delta
    rho, sigma = float(spans[0]), spans[1:]
    root_n = math.sqrt(n)
    idempotent = eps * (1.0 + eps) * (1.0 + r * g(r)) + 3.0 * delta
    unital = rho + 2.0 * root_n * delta
    trace = x_norm * (unital + 2.0 * root_n * (1.0 + eps) * g(n)) / n
    sigma_2 = math.hypot(*sigma) + math.sqrt(r) * slack
    star = x_norm * (2.0 * eps + 2.0 * delta + (
        sigma_2 + eps * math.sqrt(1.0 + eps)) / math.sqrt(1.0 - eps))
    bimodule = _bimodule_bound(basis, _members(basis, n), eps, math.sqrt(1.0 + eps),
                               float(sigma.max(initial=0.0)) + 2.0 * slack, closure,
                               x_norm, rounding)
    return idempotent, unital, star, trace, bimodule, closure


def _sandwich(a: np.ndarray, ys: np.ndarray, members: np.ndarray) -> np.ndarray:
    """a y b for every y of the stack and every member b, y-major, by one
    gemm (a y_1; ...; a y_k) @ [b_1 ... b_r]."""
    n, r = a.shape[0], len(members)
    prod = (a @ ys).reshape(-1, n) @ members.transpose(1, 0, 2).reshape(n, r * n)
    return prod.reshape(-1, n, r, n).transpose(0, 2, 1, 3).reshape(-1, n, n)


@functools.lru_cache(maxsize=8)
def _axiom_samples(n: int) -> np.ndarray:
    """The AXIOM_SAMPLES test matrices of :func:`_axioms` at size n, drawn
    from AXIOM_SEED once per n, as a read-only (AXIOM_SAMPLES, n, n) stack."""
    rng = np.random.default_rng(AXIOM_SEED)
    xs = np.stack([rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                   for _ in range(AXIOM_SAMPLES)])
    xs.flags.writeable = False
    return xs


@functools.lru_cache(maxsize=8)
def _sample_norm(n: int) -> float:
    """X, the largest Frobenius norm of the :func:`_axiom_samples` at size n,
    taken once per n."""
    return float(numkit.frobenius(_axiom_samples(n)).max(initial=0.0))


def _axioms(basis: np.ndarray, n: int, closure: float, atol: float) -> ExpectationAxioms:
    """The axioms of E = B B*, B = ``basis`` (n^2 x r, orthonormal), onto
    the range algebra B spans, applied as :func:`_expect`, each norm field
    an exact :func:`numkit.operator_norm`. The idempotency E E - E = B M B*
    with M = G - 1, G = B* B, has the norm of the r x r matrix M G (both are
    max |s^2 (s^2 - 1)| over the singular values s of B); the product
    residual ``closure`` comes measured by the caller.

    The bimodule field is :func:`_bimodule_bound` where :func:`numkit.settles`
    accepts it at ``atol``; only otherwise are the r^2 sandwich products
    formed and measured."""
    members = _members(basis, n)
    r = basis.shape[1]
    gram = adjoint(basis) @ basis
    idempotent = operator_norm((gram - np.eye(r)) @ gram)
    xs = _axiom_samples(n)
    exs = _expect(basis, xs)
    eye = np.eye(n, dtype=np.complex128)

    unital = operator_norm(_expect(basis, eye[None]) - eye)
    star = operator_norm(_expect(basis, _adjoints(xs)) - _adjoints(exs))
    dtr = np.trace(exs, axis1=1, axis2=2) - np.trace(xs, axis1=1, axis2=2)
    # hypot is abs() of each complex scalar bit for bit; np.abs of a complex
    # array can differ from it in the last bit
    tr = (np.hypot(dtr.real, dtr.imag) / n).max()
    sigma = _span_residuals(basis, _adjoints(members)).max(initial=0.0)
    bimod = _bimodule_bound(
        basis, members, numkit.frobenius(gram - np.eye(r)),
        math.sqrt(np.abs(np.diagonal(gram)).max(initial=0.0)), sigma, closure,
        _sample_norm(n), _rounding_terms(basis, n))
    if not numkit.settles("bimodule bound", atol, bimod):
        # one left factor a at a time; a x b and a E(x) b come from one
        # call, as the two halves of its stack
        both = np.concatenate([xs, exs])

        def bimodule(a) -> float:
            prods = _sandwich(a, both, members).reshape(2, -1, n, n)
            return operator_norm(_expect(basis, prods[0]) - prods[1])

        bimod = numkit.worst(map(bimodule, members))
    return ExpectationAxioms(idempotent=idempotent, unital=unital, star=star,
                             trace=float(tr), bimodule=bimod, closure=closure)


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
    pm = np.zeros((n, n), dtype=np.complex128)
    qm = np.zeros((n, n), dtype=np.complex128)
    for j in range(k):
        v = np.zeros(n, dtype=np.complex128)
        v[2 * j] = math.cos(theta)
        v[2 * j + 1] = math.sin(theta)
        pm[2 * j, 2 * j] = 1.0
        qm += np.outer(v, v.conj())
    p = projlat.make_projection(pm, tol)
    q = projlat.make_projection(qm, tol)
    if numkit.exceeds(numkit.bounded_norm(pm @ qm @ pm - tau * pm, 1e-10), 1e-10):
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


def expectation_path(spec0: SubalgebraSpec, spec1: SubalgebraSpec, n: int,
                     tol: ToleranceProfile = DEFAULT_TOL,
                     check_distance: bool = True) -> ExpectationPath:
    """The minimal geodesic between two expectation projections.

    Requires the gap ||e0 - e1|| to be below 1 (raising TooFar at the
    boundary), which guarantees a unique normalized geodesic. Its inner
    points need not be conditional expectations: their ranges can fail to
    be closed under products (README). Passing check_distance=False
    skips the guard; the resulting path is the experiment for the open
    boundary regime and comes with no guarantees.

    The gap is read off the position of (e0, e1), built once and handed to
    the exponent: 1 when a wedge part is classified (a principal angle
    with sine at least 1 - atol_spectral, or unpaired range), and the sine
    of the largest generic angle otherwise, ||e0 - e1|| with the planes
    absorbed into a meet counted as angle 0: a verdict, as the exponent
    turns them. TooFar is raised exactly when a wedge part is classified.
    """
    end0 = expectation_projection(spec0, n, tol)
    end1 = expectation_projection(spec1, n, tol)
    pos = projlat.position(end0.big, end1.big)
    wedge = not pos.exists() or not pos.unique()
    gap = 1.0 if wedge else math.sin(pos.angles.max(initial=0.0))
    if check_distance and wedge:
        raise TooFar(f"||e0 - e1|| = {gap:.6f} is not below 1")
    z = geo.position_exponent(pos)
    return ExpectationPath(z=z, end0=end0, end1=end1, n=n, gap=gap)


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
    x, v, zw, y0, power = _rk4_coordinates(path, x0, steps)
    two = 2.0 * np.eye(zw.size)
    rotated = np.empty((steps + 1, zw.size), dtype=np.complex128)
    rotated[0] = y0
    done = 1
    while True:
        more = min(done, steps + 1 - done)
        head = rotated[:more]
        np.add(head, head @ power.T, out=rotated[done:done + more])
        done += more
        if done > steps:
            break
        power = power @ (power + two)
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
    x, v, zw, y0, power = _rk4_coordinates(path, x0, steps)
    two = 2.0 * np.eye(zw.size)
    y, bits = y0, steps
    while True:
        if bits & 1:
            y = y + y @ power.T
        bits >>= 1
        if not bits:
            break
        power = power @ (power + two)
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
