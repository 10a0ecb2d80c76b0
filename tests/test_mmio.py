"""Reading a problem from files (assembly.read_matrix_market): a Matrix
Market matrix, an 'x y' coordinate file and an optional right-hand side.
The files are written here with scipy.io.mmwrite and np.savetxt."""

import re

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from ndlu.assembly import read_matrix_market
from ndlu.errors import ParseError

GENERAL = "%%MatrixMarket matrix coordinate real general\n"
IDENTITY = GENERAL + "2 2 2\n1 1 1.0\n2 2 1.0\n"
TWO_POINTS = "0 0\n1 0\n"


def write(path, content):
    """Write text as it is, a sparse matrix with scipy.io.mmwrite and an
    array with np.savetxt at 17 significant digits, a complex one as 're im'
    columns; return the path."""
    if isinstance(content, str):
        path.write_text(content)
    elif sp.issparse(content):
        scipy.io.mmwrite(path, content)
    else:
        content = np.asarray(content)
        if np.iscomplexobj(content):
            content = np.column_stack([content.real, content.imag])
        np.savetxt(path, content, fmt="%.17g")
    return path


def read(tmp_path, matrix, coords=TWO_POINTS, rhs=None):
    """The problem read back from files holding matrix, coords and rhs."""
    return read_matrix_market(
        write(tmp_path / "a.mtx", matrix), write(tmp_path / "xy.txt", coords),
        None if rhs is None else write(tmp_path / "b.txt", rhs))


def test_identity_parses(tmp_path):
    text = IDENTITY.replace("2 2 2\n", "% a comment\n2 2 2\n")
    p = read(tmp_path, text)
    assert np.array_equal(p.matrix.csr.toarray(), np.eye(2))
    assert np.array_equal(p.rhs, np.ones(2))


MALFORMED = {
    "nnz-mismatch": ("matrix", GENERAL + "2 2 3\n1 1 1.0\n2 2 1.0\n"),
    "bad-header": ("matrix", "MatrixMarket but wrong\n1 1 0\n"),
    "malformed-entry": ("matrix", GENERAL + "2 2 1\n1 x 1.0\n"),
    "index-out-of-range": ("matrix", GENERAL + "2 2 1\n3 1 1.0\n"),
    "extra-entries": ("matrix", GENERAL + "2 2 1\n1 1 1.0\n2 2 1.0\n"),
    "short-coordinate-line": ("coords", "0.0 0.0\n1.0\n"),
    "three-coordinates": ("coords", "0 0 0\n1 0 0\n"),
    "malformed-rhs": ("rhs", "1.0\nx\n"),
    "three-rhs-values": ("rhs", "1 2 3\n4 5 6\n"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_input_names_the_file(tmp_path, case):
    role, text = MALFORMED[case]
    files = {"matrix": IDENTITY, "coords": TWO_POINTS, "rhs": "1\n1\n", role: text}
    paths = {name: write(tmp_path / name, content)
             for name, content in files.items()}
    with pytest.raises(ParseError, match=re.escape(str(paths[role]))):
        read_matrix_market(paths["matrix"], paths["coords"], paths["rhs"])


@pytest.mark.parametrize("text", [
    "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 3\n2 2 -4\n",
    "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n",
    "%%MatrixMarket matrix array integer general\n2 2\n3\n0\n0\n-4\n",
], ids=["integer", "pattern", "array"])
def test_integer_pattern_and_array_files_read_as_float64(tmp_path, text):
    p = read(tmp_path, text)
    assert p.matrix.csr.dtype == np.float64 and p.rhs.dtype == np.float64
    want = np.eye(2) if "pattern" in text else np.diag([3.0, -4.0])
    assert np.array_equal(p.matrix.csr.toarray(), want)


@pytest.mark.filterwarnings("ignore:loadtxt")
def test_empty_problem_reads(tmp_path):
    p = read(tmp_path, GENERAL + "0 0 0\n", coords="", rhs="")
    assert p.n == 0 and p.coords.shape == (0, 2) and p.rhs.shape == (0,)


def test_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(42)
    m = sp.random(17, 17, density=0.2, random_state=np.random.RandomState(0), format="csr")
    m.data[:] = rng.standard_normal(m.nnz) * np.exp(rng.uniform(-30, 30, m.nnz))
    back = read(tmp_path, m, coords=np.zeros((17, 2))).matrix.csr
    assert np.array_equal(back.indptr, m.indptr)
    assert np.array_equal(back.indices, m.indices)
    assert np.array_equal(back.data, m.data)


def test_symmetric_storage_mirrors(tmp_path):
    text = ("%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 3\n1 1 2.0\n2 1 -1.0\n2 2 2.0\n")
    m = read(tmp_path, text).matrix.csr.toarray()
    assert np.array_equal(m, [[2.0, -1.0], [-1.0, 2.0]])


def test_complex_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    dense = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    dense[rng.random((5, 5)) < 0.5] = 0
    p = read(tmp_path, sp.csr_matrix(dense), coords=np.zeros((5, 2)))
    assert np.array_equal(p.matrix.csr.toarray(), dense)
    assert p.rhs.dtype == np.complex128


def test_coords_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    xy = rng.standard_normal((20, 2))
    back = read(tmp_path, sp.identity(20, format="csr"), coords=xy).coords
    assert np.array_equal(back, xy)


def test_vector_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    v = rng.standard_normal(31)
    p = read(tmp_path, sp.identity(31, format="csr"), coords=np.zeros((31, 2)),
             rhs=v)
    assert p.rhs.dtype == np.float64
    assert np.array_equal(p.rhs, v)


def test_complex_vector_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    v = rng.standard_normal(31) + 1j * rng.standard_normal(31)
    p = read(tmp_path, sp.identity(31, format="csr"), coords=np.zeros((31, 2)),
             rhs=v)
    assert p.rhs.dtype == np.complex128
    assert np.array_equal(p.rhs, v)
