"""Matrix Market coordinate IO plus the plain-text coordinate/vector sidecars.

Writers emit 17 significant digits so a read-back is bitwise identical for
float64 data. Parse failures always carry the 1-based line number.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .core import as_csr
from .errors import ParseError

__all__ = [
    "read_matrix_market_file",
    "write_matrix_market_file",
    "read_coords_file",
    "write_coords_file",
    "read_vector_file",
    "write_vector_file",
]

_FMT = "%.17g"


def _fmt(x):
    return _FMT % x


def write_matrix_market_file(path, matrix):
    """Write a sparse matrix in coordinate format (general symmetry)."""
    coo = as_csr(matrix).tocoo()
    complex_data = np.iscomplexobj(coo.data)
    field = "complex" if complex_data else "real"
    with open(path, "w") as f:
        f.write(f"%%MatrixMarket matrix coordinate {field} general\n")
        f.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        if complex_data:
            for i, j, v in zip(coo.row, coo.col, coo.data):
                f.write(f"{i + 1} {j + 1} {_fmt(v.real)} {_fmt(v.imag)}\n")
        else:
            for i, j, v in zip(coo.row, coo.col, coo.data):
                f.write(f"{i + 1} {j + 1} {_fmt(v)}\n")


def read_matrix_market_file(path):
    """Read a coordinate-format Matrix Market file into CSR."""
    with open(path) as f:
        lines = f.readlines()
    if not lines:
        raise ParseError("empty file", line=1)
    header = lines[0].split()
    if (
        len(header) < 4
        or not lines[0].startswith("%%MatrixMarket")
        or header[1].lower() != "matrix"
        or header[2].lower() != "coordinate"
    ):
        raise ParseError("expected '%%MatrixMarket matrix coordinate ...' header", line=1)
    field = header[3].lower()
    symmetry = header[4].lower() if len(header) > 4 else "general"
    if field not in ("real", "integer", "complex"):
        raise ParseError(f"unsupported field type {field!r}", line=1)
    if symmetry not in ("general", "symmetric"):
        raise ParseError(f"unsupported symmetry {symmetry!r}", line=1)

    ln = 1
    # skip comments
    while ln < len(lines) and lines[ln].lstrip().startswith("%"):
        ln += 1
    if ln >= len(lines):
        raise ParseError("missing size line", line=len(lines))
    parts = lines[ln].split()
    if len(parts) != 3:
        raise ParseError("size line must be 'rows cols nnz'", line=ln + 1)
    try:
        n, m, nnz = (int(p) for p in parts)
    except ValueError:
        raise ParseError("size line must hold three integers", line=ln + 1) from None
    ln += 1

    vals_per_line = 4 if field == "complex" else 3
    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    data = np.empty(nnz, dtype=np.complex128 if field == "complex" else np.float64)
    count = 0
    for k in range(ln, len(lines)):
        s = lines[k].strip()
        if not s or s.startswith("%"):
            continue
        parts = s.split()
        if len(parts) != vals_per_line:
            raise ParseError(
                f"expected {vals_per_line} values per entry, got {len(parts)}", line=k + 1
            )
        if count >= nnz:
            raise ParseError(f"more than the declared {nnz} entries", line=k + 1)
        try:
            i = int(parts[0])
            j = int(parts[1])
            if field == "complex":
                v = complex(float(parts[2]), float(parts[3]))
            else:
                v = float(parts[2])
        except ValueError:
            raise ParseError("malformed entry", line=k + 1) from None
        if not (1 <= i <= n and 1 <= j <= m):
            raise ParseError(f"index ({i}, {j}) outside {n}x{m}", line=k + 1)
        rows[count] = i - 1
        cols[count] = j - 1
        data[count] = v
        count += 1
    if count != nnz:
        raise ParseError(
            f"declared {nnz} entries but file holds {count}", line=len(lines)
        )
    if symmetry == "symmetric":
        off = rows != cols
        rows, cols = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
        )
        data = np.concatenate([data, data[off]])
    mat = sp.coo_matrix((data, (rows, cols)), shape=(n, m)).tocsr()
    return mat


def write_coords_file(path, coords):
    coords = np.asarray(coords, dtype=np.float64)
    with open(path, "w") as f:
        for x, y in coords:
            f.write(f"{_fmt(x)} {_fmt(y)}\n")


def read_coords_file(path):
    pts = []
    with open(path) as f:
        for k, line in enumerate(f):
            s = line.strip()
            if not s or s.startswith("%") or s.startswith("#"):
                continue
            parts = s.split()
            if len(parts) != 2:
                raise ParseError("expected 'x y' per line", line=k + 1)
            try:
                pts.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise ParseError("malformed coordinate", line=k + 1) from None
    return np.array(pts, dtype=np.float64).reshape(-1, 2)


def write_vector_file(path, v):
    v = np.asarray(v)
    with open(path, "w") as f:
        if np.iscomplexobj(v):
            for x in v:
                f.write(f"{_fmt(x.real)} {_fmt(x.imag)}\n")
        else:
            for x in v:
                f.write(f"{_fmt(x)}\n")


def read_vector_file(path):
    vals = []
    complex_vals = False
    with open(path) as f:
        for k, line in enumerate(f):
            s = line.strip()
            if not s or s.startswith("%") or s.startswith("#"):
                continue
            parts = s.split()
            try:
                if len(parts) == 1:
                    vals.append(float(parts[0]))
                elif len(parts) == 2:
                    complex_vals = True
                    vals.append(complex(float(parts[0]), float(parts[1])))
                else:
                    raise ParseError("expected one value (or 're im') per line", line=k + 1)
            except ValueError:
                raise ParseError("malformed value", line=k + 1) from None
    return np.array(vals, dtype=np.complex128 if complex_vals else np.float64)
