"""seqlab: certificate-producing sequence-space constructions on
truncated lp / c0 models.

The package builds, at desk scale, the classical objects behind
zero-coordinate structure questions in sequence spaces: geometric
generator families closed under coordinatewise products, basic
sequences with prescribed zero/dominance patterns, block bases with
norm-1 projections, small-perturbation certificates, sup-norm cascades,
and the even/odd witness splits -- each emitted as a JSON certificate
whose every inequality can be re-verified from raw coordinates.
"""

from .core import (
    AmbientSpace,
    Seq,
    Subspace,
    combine,
    hadamard,
    load_fixture,
    norm,
    norm_pth_power,
    normalize,
    subspace_from_json,
    tail_norm,
    vanish_at,
    vanish_on_prefix,
)
from .errors import (
    CaseBoundViolated,
    ConfigError,
    ConstructionFailure,
    DimensionExhausted,
    DuplicateRatio,
    EpsOutOfRange,
    IndexOutOfRange,
    InsufficientStabilization,
    InvariantViolation,
    LengthMismatch,
    MalformedCertificate,
    MissingPerturbCert,
    ModelLimitError,
    NetTooCoarse,
    NonFiniteCoordinate,
    OverlappingWindows,
    RatioOutOfRange,
    SearchExhausted,
    SeqLabError,
    TooFewIndices,
    UnnormalizedBlock,
    WitnessViolation,
    ZeroVector,
)
from .lineability import (
    GeometricCombination,
    certified_zero_bound,
    geometric_generator,
    independence_rank,
    lineability_certificate,
    zero_scan,
)
from .linf_construction import (
    CascadeCert,
    MazurCert,
    SupZeroingCert,
    build_cascade,
    construct_sup_zeroed_sequence,
    extract_stabilizing_subsequence,
    mazur_basic_sequence,
)
from .lp_construction import (
    DominanceCert,
    PerturbationCert,
    ZeroingCert,
    basis_constant_lower_bound,
    block_projection,
    construct_dominant_sequence,
    construct_zeroed_sequence,
    small_perturbation_cert,
)
from .operators import ProjectionOp
from .verify import VerifyReport, verify_certificate
from .witnesses import (
    WitnessCert,
    algebra_witness_membership,
    complement_split,
    density_repair_c0,
    density_repair_lp,
    spaceable_witness,
    witness_from_doc,
)

__version__ = "0.1.0"
