"""Exception types shared across the package."""


class NdluError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(NdluError):
    """Invalid configuration value (bad descriptor, rho < 1, ...)."""


class GeometryError(NdluError):
    """Invalid input geometry (self-intersecting or degenerate polygon)."""


class ParseError(NdluError):
    """A text input could not be parsed; the message starts with the file's
    path and goes on with the reader's account of where it failed."""


class NonFiniteError(NdluError, ValueError):
    """An input array (matrix entries, coordinates, right-hand side) holds
    a NaN or an infinity."""


class DimensionError(NdluError):
    """Operands with incompatible shapes or index ranges."""


class SingularBlockError(NdluError):
    """A dense diagonal block was exactly singular during elimination.

    Carries where it happened so a failed factorization is attributable.
    """

    def __init__(self, message, level=None, segment=None):
        self.level = level
        self.segment = segment
        where = []
        if level is not None:
            where.append(f"level {level}")
        if segment is not None:
            where.append(f"segment {segment}")
        if where:
            message = f"{message} ({', '.join(where)})"
        super().__init__(message)


class InterpolationBoundError(NdluError):
    """Interpolation coefficients exceeded the hard stability bound."""


class DegenerateSeparatorError(NdluError):
    """The separator walk could not produce a usable separator."""
