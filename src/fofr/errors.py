"""Exception hierarchy for the fofr package.

Every error is a ``FofrError`` under exactly one of two bases, and the base
carries the command-line exit code, so the class of an error decides it:

- ``InputError`` (exit 2): the input is at fault.  Data-model and ingestion
  errors (malformed rows or schemas, duplicate timestamps, times outside the
  domain, missing channels, too few subjects, bad grid sizes), bad synthetic
  scenarios and bad run configurations.
- ``RuntimeFailure`` (exit 3): well-formed input on which a stage failed.
  Smoothing, FPCA and regression errors, persistence errors (channel
  mismatches, corrupt or version-mismatched artifacts), ``PipelineError``,
  which wraps a stage's error, and ``IndexOutOfRange``.
"""


class FofrError(Exception):
    """Base class for all fofr errors."""


class InputError(FofrError):
    """The input or configuration is at fault."""

    exit_code = 2


class RuntimeFailure(FofrError):
    """A stage failed on well-formed input."""

    exit_code = 3


# --- data model / ingestion ---

class MalformedRow(InputError):
    pass


class DuplicateTimestamp(InputError):
    pass


class DomainViolation(InputError):
    pass


class MissingChannel(InputError):
    pass


class InsufficientCoverage(InputError):
    pass


class BadGridSize(InputError):
    pass


class BadConfig(InputError, ValueError):
    """A run configuration (its top level, ``split`` or ``pipeline``) that is
    not valid JSON, is not an object, has an unknown key or a value of the
    wrong JSON type or range, or names one path twice.  Also a ValueError,
    like the bad arguments it reports.  Schema and scenario files are read by
    the same reader but raise ``MalformedRow`` and ``BadScenario``."""


# --- smoothing ---

class DegenerateWindow(RuntimeFailure):
    pass


class NonFiniteFit(RuntimeFailure):
    pass


class NoPairs(RuntimeFailure):
    pass


class AllCandidatesDegenerate(RuntimeFailure):
    pass


# --- fpca ---

class EigenFailure(RuntimeFailure):
    pass


class EmptySpectrum(RuntimeFailure):
    pass


class TooSparse(RuntimeFailure):
    pass


class TooFewSubjects(RuntimeFailure):
    pass


class BlockMismatch(RuntimeFailure):
    pass


class ChannelCountMismatch(RuntimeFailure):
    pass


class LengthMismatch(RuntimeFailure):
    pass


# --- regression ---

class ShapeMismatch(RuntimeFailure):
    pass


class DivergenceDetected(RuntimeFailure):
    pass


# --- pipeline / persistence ---

class ChannelMismatch(RuntimeFailure):
    pass


class NoOverlap(RuntimeFailure):
    pass


class VersionMismatch(RuntimeFailure):
    pass


class CorruptArtifact(RuntimeFailure):
    pass


class PipelineError(RuntimeFailure):
    """Wraps a module-level error with the pipeline stage where it occurred."""

    def __init__(self, stage, cause):
        super().__init__(f"{stage}: {type(cause).__name__}: {cause}")
        self.stage = stage
        self.cause = cause


# --- synthetic generator ---

class BadScenario(InputError):
    pass


class IndexOutOfRange(RuntimeFailure):
    pass
