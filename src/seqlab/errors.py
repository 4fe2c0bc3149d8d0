"""Exception taxonomy.

Three families matter operationally:

* ``ModelLimitError`` -- the finite truncated model ran out of room
  (dimension, coordinate horizon, or stabilization data).  Expected and
  recoverable: enlarge the fixture or the truncation.  CLI exit code 2.
* ``InvariantViolation`` -- a quantitative guarantee that should hold by
  construction failed.  Indicates a bug, a bad parameter (too-loose
  stabilization tolerance), or a tampered certificate.  CLI exit code 1.
* ``ConfigError`` -- a precondition on inputs was violated; the message
  names the offending field and the bound.  CLI exit code 1.
"""


class SeqLabError(Exception):
    """Base class for all package errors."""


class ConfigError(SeqLabError):
    """Invalid input or parameter; message names the violated constraint."""


class NonFiniteCoordinate(ConfigError):
    """A coordinate is NaN or infinite."""


class LengthMismatch(ConfigError):
    """Operands have different truncation lengths."""


class IndexOutOfRange(ConfigError):
    """A 1-based coordinate index falls outside [1, T]."""


class ZeroVector(ConfigError):
    """An operation requiring a nonzero vector received (numerically) zero."""


class RatioOutOfRange(ConfigError):
    """A geometric ratio lies outside the open interval (0, 1)."""


class DuplicateRatio(ConfigError):
    """A ratio family contains a repeated value."""


class EpsOutOfRange(ConfigError):
    """An eps parameter violates its strict admissibility interval."""


class OverlappingWindows(ConfigError):
    """Block windows are not pairwise disjoint."""


class UnnormalizedBlock(ConfigError):
    """A block vector is not unit norm (within tolerance)."""


class TooFewIndices(ConfigError):
    """A certificate carries too few constructed indices for this operation."""


class MissingPerturbCert(ConfigError):
    """The source certificate lacks the perturbation/projection evidence."""


class MalformedCertificate(SeqLabError):
    """A certificate file does not parse or lacks required fields."""


class ModelLimitError(SeqLabError):
    """The finite model is too small for the requested construction depth."""


class DimensionExhausted(ModelLimitError):
    """Subspace dimension cannot support further zero constraints."""


class SearchExhausted(ModelLimitError):
    """No admissible index exists within the truncation horizon."""


class InsufficientStabilization(ModelLimitError):
    """No value bucket captures enough indices to stand in for a limit."""


class InvariantViolation(SeqLabError):
    """A proof inequality that must hold by construction failed."""


class WitnessViolation(InvariantViolation):
    """An even witness vector is nonzero at a forbidden (odd) marker."""


class CaseBoundViolated(InvariantViolation):
    """A cascade vector exceeds its fired case's sup-norm bound."""


class NetTooCoarse(InvariantViolation):
    """The sampled basis inequality failed: the functional net was too coarse."""


class ConstructionFailure(InvariantViolation):
    """A numerically computed object violates its own post-condition."""
