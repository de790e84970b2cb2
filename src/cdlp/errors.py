"""Exception taxonomy shared across the package."""


class CdlpError(Exception):
    """Base class for all package errors."""


class ConfigError(CdlpError):
    """Model configuration text could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FormatError(CdlpError):
    """A binary file or container is malformed (framing, magic, truncation)."""


class IntegrityError(CdlpError):
    """Authentication failed; the payload must not be used.

    Deliberately not a subclass of FormatError: callers need to tell
    tampering apart from mere framing damage.
    """


class DimensionError(CdlpError):
    """Tensor or layer geometry is inconsistent."""


class RangeError(DimensionError):
    """A neuron or channel subset lies outside the layer's output range."""


class PlanError(CdlpError):
    """A partition plan could not be produced or failed validation."""


class PlanInfeasibleError(PlanError):
    """The scheme cannot fit the model into the secure memory budget; the
    sublayer scheme raises it only when activation spill cannot help."""


class LayerTooLargeError(PlanInfeasibleError):
    """A partition of fixed size (a whole layer, one branch, or a requested
    subset) exceeds the secure memory budget."""


class SecureMemoryError(CdlpError):
    """Secure arena capacity would be exceeded."""
