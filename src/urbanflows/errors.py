"""Exception taxonomy shared across the package."""


class UrbanFlowsError(Exception):
    """Base class for all package errors."""


class DimensionError(UrbanFlowsError):
    """Tensor shapes are incompatible with an operation."""


class ConfigurationError(UrbanFlowsError):
    """A model or run configuration is internally inconsistent."""


class DataError(UrbanFlowsError):
    """Input data violates a documented precondition."""


class ModeError(UrbanFlowsError):
    """An operation was requested in an unsupported train/eval mode."""


def check_mode(mode):
    """Raise ``ModeError`` naming ``mode`` unless it is "train" or "eval"."""
    if mode not in ("train", "eval"):
        raise ModeError(f"unknown mode {mode!r}: expected 'train' or 'eval'")


class TrainingFault(UrbanFlowsError):
    """Non-finite value during training.  A non-finite NLL carries the
    index of its first bad sample in the batch and the flat index of the
    first flow layer whose output is non-finite (None if the replay finds
    none); Adam's non-finite update ("non-finite parameters after step N")
    carries neither."""

    def __init__(self, message, sample_index=None, layer_index=None):
        super().__init__(message)
        self.sample_index = sample_index
        self.layer_index = layer_index


class SamplingFault(UrbanFlowsError):
    """Non-finite intermediate state during sampling; names the layer."""

    def __init__(self, message, layer_index=None):
        super().__init__(message)
        self.layer_index = layer_index


class PipelineError(UrbanFlowsError):
    """A required pipeline stage input (e.g. a checkpoint) is missing."""


class OracleError(UrbanFlowsError):
    """The finite-difference oracle hit a non-finite function value."""


class ParseError(UrbanFlowsError):
    """A dataset or config file line could not be parsed; ``path`` and
    ``line_number`` (1-based) say where."""

    def __init__(self, message, line_number=None, path=None):
        super().__init__(message)
        self.line_number = line_number
        self.path = path


class FormatError(UrbanFlowsError):
    """A file declares an unsupported format version."""


class CheckpointError(UrbanFlowsError):
    """Base class for checkpoint load failures."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint magic or version byte does not match this build."""


class CheckpointManifestError(CheckpointError):
    """Declared payload length disagrees with the parameter manifest."""


class CheckpointTruncatedError(CheckpointError):
    """Checkpoint file ends before the declared payload does."""


class CheckpointValueError(CheckpointError):
    """A checkpoint parameter holds a value no trained model has: a
    non-finite entry, or a batch-norm running variance <= 0."""
