"""ndlu: a sparse direct solver built on nested dissection with
skeleton compression of separator segments."""

__version__ = "0.1.0"

from .core import SparseMatrix, Permutation, extract_block, permute, dense_lu, triangular_solve
from .errors import (
    ConfigError,
    DegenerateSeparatorError,
    DimensionError,
    GeometryError,
    InterpolationBoundError,
    NdluError,
    ParseError,
    SingularBlockError,
)

__all__ = [
    "SparseMatrix",
    "Permutation",
    "extract_block",
    "permute",
    "dense_lu",
    "triangular_solve",
    "NdluError",
    "ConfigError",
    "GeometryError",
    "ParseError",
    "DimensionError",
    "SingularBlockError",
    "DegenerateSeparatorError",
    "InterpolationBoundError",
]
