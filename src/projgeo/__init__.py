"""Minimal geodesics between orthogonal projections in finite matrix
algebras, with the index-distance formulas and the parallel transport of
conditional expectations at desk scale."""

from .errors import (
    BadRho,
    BadTrace,
    BranchCut,
    DimensionMismatch,
    InternalConsistencyError,
    InvariantViolation,
    NoGenericPart,
    NoGeodesic,
    NotHermitian,
    NotMember,
    NotProjection,
    NotSkewHermitian,
    NotSubalgebra,
    ProjGeoError,
    RankDeficient,
    RankMismatch,
    SingularInput,
    TooFar,
    TooFewPoints,
)
from .factor import (
    FiniteAlgebra,
    HopfRinowCertificate,
    NormalizedTrace,
    blockwise_minimal_exponent,
    hopf_rinow_certify,
    member_check,
    multi_geodesics,
    orthogonal_pair,
    trace,
)
from .geo import (
    GeodesicExponent,
    GeodesicResiduals,
    PartialIsometry,
    curve_length,
    geodesic_distance,
    geodesic_exists,
    geodesic_point,
    minimal_exponent,
    partial_isometry,
    position_exponent,
    rho_length,
    unique_geodesic,
    verify_geodesic,
)
from .jones import (
    BlockPartition,
    Conjugated,
    ExpectationPath,
    ExpectationProjection,
    JonesPair,
    MatrixSpan,
    TensorFactor,
    diagonal_spec,
    expectation_axioms,
    expectation_path,
    expectation_projection,
    index_distance,
    jones_pair,
    propagator_checks,
    rotated_diagonal_spec,
    transport_ode_endpoint,
    transport_ode_solve,
)
from .numkit import (
    DEFAULT_TOL,
    ToleranceProfile,
    exp_skew,
    hermitian_eig,
    log_unitary_principal,
    operator_norm,
    polar_unitary,
    rho_norm,
)
from .projlat import (
    Position,
    Projection,
    complement,
    davis_symmetry,
    from_span,
    halmos_decompose,
    make_projection,
    meet,
    position,
    principal_angles,
)

__version__ = "0.1.0"
