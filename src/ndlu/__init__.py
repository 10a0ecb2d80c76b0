"""ndlu: a sparse direct solver built on nested dissection with
skeleton compression of separator segments."""

__version__ = "0.1.0"

from .core import SparseMatrix
from .errors import (
    ConfigError,
    DegenerateSeparatorError,
    DimensionError,
    GeometryError,
    InterpolationBoundError,
    NdluError,
    NonFiniteError,
    ParseError,
    SingularBlockError,
)

__all__ = [
    "SparseMatrix",
    "NdluError",
    "ConfigError",
    "GeometryError",
    "ParseError",
    "DimensionError",
    "NonFiniteError",
    "SingularBlockError",
    "DegenerateSeparatorError",
    "InterpolationBoundError",
]
