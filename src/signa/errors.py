"""Exception hierarchy shared across the toolkit.

Each error class carries the process exit code the CLI returns for it:
configuration problems (an unwritable output path among them) exit with
1, data/ingestion problems with 2, numeric failures with 3.
"""


class SignaError(Exception):
    """Base class for all toolkit errors; subclasses set `exit_code`."""


class ConfigError(SignaError):
    """Invalid configuration value, flag, or argument."""

    exit_code = 1


class OutputError(ConfigError, OSError):
    """An output path cannot be written; callers that catch OSError still do."""


class ShapeError(SignaError):
    """Tensor or graph dimensions do not line up."""

    exit_code = 2


class ContractError(SignaError):
    """An API was used outside its documented contract."""

    exit_code = 3


class DataError(SignaError):
    """Problem with user-supplied data files or payloads."""

    exit_code = 2


class IngestionError(DataError):
    """A data file failed to parse; message carries file/line context."""


class CheckpointError(DataError):
    """Checkpoint is corrupt, truncated, or incompatible."""


class NumericError(SignaError):
    """A numeric invariant was violated (NaN/Inf, degenerate input)."""

    exit_code = 3


class DegenerateEmbeddingError(NumericError):
    """An embedding row has (near-)zero norm and cannot be normalized."""


class DegenerateGraphError(NumericError):
    """The graph violates a precondition of the contrastive objective."""


class OptimizationError(NumericError):
    """Training produced a non-finite loss or gradient."""


class AnalysisError(DataError):
    """An analytics routine is missing required inputs (e.g. labels)."""


def not_utf8(path, exc: UnicodeDecodeError) -> str:
    """The message for a file that does not decode as UTF-8."""
    return f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x} ({exc.reason})"
