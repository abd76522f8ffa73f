"""MatrixMarket I/O: bit-exact round trips and cross-reads against scipy."""

import numpy as np
import pytest
import scipy.io
import scipy.sparse

from spamm.matrixmarket import read_matrix_market, write_matrix_market
from spamm.quadtree import from_dense


def _tricky_matrix():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((7, 7))
    m[0, 0] = 0.1
    m[1, 2] = -1.0 / 3.0
    m[2, 1] = np.pi * 1e300
    m[3, 4] = 5e-324  # smallest denormal
    m[4, 3] = -2.2250738585072014e-308  # smallest normal
    m[5, 5] = 0.0
    return m


@pytest.mark.parametrize("fmt", ["array", "coordinate"])
def test_roundtrip_bit_exact(fmt, tmp_path):
    m = _tricky_matrix()
    m[6, 0] = -0.0  # a coordinate file must list it, and read it as -0.0
    path = tmp_path / f"m.{fmt}.mtx"
    write_matrix_market(m, path, fmt=fmt)
    back = read_matrix_market(path)
    assert back.tobytes() == m.tobytes()


@pytest.mark.parametrize("fmt", ["array", "coordinate"])
def test_roundtrip_nonsquare_and_quadtree(fmt, tmp_path):
    rng = np.random.default_rng(1)
    rect = rng.standard_normal((3, 5))
    write_matrix_market(rect, tmp_path / "rect.mtx", fmt=fmt)
    assert read_matrix_market(tmp_path / "rect.mtx").tobytes() == rect.tobytes()
    square = rng.standard_normal((6, 6))
    write_matrix_market(from_dense(square), tmp_path / "tree.mtx", fmt=fmt)
    assert read_matrix_market(tmp_path / "tree.mtx").tobytes() == square.tobytes()


def test_headers_and_zero_matrix(tmp_path):
    write_matrix_market(np.zeros((3, 3)), tmp_path / "za.mtx", fmt="array")
    lines = (tmp_path / "za.mtx").read_text().splitlines()
    assert lines[0] == "%%MatrixMarket matrix array real general"
    assert lines[1] == "3 3"
    assert len(lines) == 2 + 9

    write_matrix_market(np.zeros((3, 3)), tmp_path / "zc.mtx", fmt="coordinate")
    lines = (tmp_path / "zc.mtx").read_text().splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate real general"
    assert lines[1] == "3 3 0"
    assert len(lines) == 2


@pytest.mark.parametrize("fmt", ["array", "coordinate"])
def test_scipy_reads_our_files(fmt, tmp_path):
    m = _tricky_matrix()
    path = tmp_path / "ours.mtx"
    write_matrix_market(m, path, fmt=fmt)
    got = scipy.io.mmread(path)
    if scipy.sparse.issparse(got):
        got = got.toarray()
    assert np.array_equal(np.asarray(got), m)


def test_we_read_scipy_files(tmp_path):
    rng = np.random.default_rng(2)
    dense = rng.standard_normal((5, 4))
    scipy.io.mmwrite(tmp_path / "sd.mtx", dense)
    assert np.allclose(read_matrix_market(tmp_path / "sd.mtx"), dense,
                       rtol=0, atol=0)

    sparse = scipy.sparse.random(8, 8, density=0.2, random_state=3)
    scipy.io.mmwrite(tmp_path / "ss.mtx", sparse)
    assert np.array_equal(read_matrix_market(tmp_path / "ss.mtx"),
                          sparse.toarray())

    sym = dense[:4, :4] + dense[:4, :4].T
    scipy.io.mmwrite(tmp_path / "sym.mtx", sym, symmetry="symmetric")
    assert np.array_equal(read_matrix_market(tmp_path / "sym.mtx"), sym)

    # A symmetric array payload of n = 64 holding a -0.0.  scipy's read
    # mirrors it as +0.0, so scipy is the oracle in value and the source
    # array the one in bits.
    n = 64
    big = rng.standard_normal((n, n))
    big += big.T
    big[5, 2] = big[2, 5] = -0.0
    scipy.io.mmwrite(tmp_path / "sym64.mtx", big, symmetry="symmetric")
    got = read_matrix_market(tmp_path / "sym64.mtx")
    assert np.array_equal(got, scipy.io.mmread(tmp_path / "sym64.mtx"))
    assert got.tobytes() == big.tobytes()


def test_symmetric_coordinate_mirrors_entries(tmp_path):
    path = tmp_path / "sym.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    "3 3 2\n"
                    "2 1 5.0\n"
                    "3 3 7.0\n")
    got = read_matrix_market(path)
    expect = np.zeros((3, 3))
    expect[1, 0] = expect[0, 1] = 5.0
    expect[2, 2] = 7.0
    assert np.array_equal(got, expect)


def test_read_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.mtx"
    bad.write_text("not a matrix market file\n1 1\n0\n")
    with pytest.raises(ValueError):
        read_matrix_market(bad)

    complex_hdr = tmp_path / "cx.mtx"
    complex_hdr.write_text("%%MatrixMarket matrix array complex general\n"
                           "1 1\n1.0 0.0\n")
    with pytest.raises(ValueError):
        read_matrix_market(complex_hdr)

    short = tmp_path / "short.mtx"
    short.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\n")
    with pytest.raises(ValueError):
        read_matrix_market(short)

    with pytest.raises(ValueError):
        write_matrix_market(np.eye(2), tmp_path / "x.mtx", fmt="harwell")
    with pytest.raises(ValueError):
        write_matrix_market(np.zeros(3), tmp_path / "x.mtx")


def test_write_rejects_bad_fmt_before_opening(tmp_path):
    """A bad ``fmt`` is rejected before the path is opened, so an existing
    file keeps its bytes."""
    path = tmp_path / "keep.mtx"
    write_matrix_market(np.arange(4.0).reshape(2, 2), path)
    before = path.read_bytes()
    for fmt in ("csv", "Array", None):
        with pytest.raises(ValueError, match="fmt must be"):
            write_matrix_market(np.eye(2), path, fmt=fmt)
        assert path.read_bytes() == before
    missing = tmp_path / "missing.mtx"
    with pytest.raises(ValueError):
        write_matrix_market(np.eye(2), missing, fmt="csv")
    assert not missing.exists()


@pytest.mark.parametrize("entry", ["0 1 5.0", "1 0 5.0", "4 1 5.0", "1 4 5.0",
                                   "-1 2 5.0"])
def test_read_rejects_out_of_range_coordinates(tmp_path, entry):
    """Indices are 1-based and bounded by the size line: a 0 or negative
    index must not wrap round to the last row or column."""
    path = tmp_path / "out.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    f"3 3 2\n2 2 1.0\n{entry}\n")
    with pytest.raises(ValueError, match="outside the 3 x 3 matrix"):
        read_matrix_market(path)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("fmt, symmetry", [("array", "general"), ("array", "symmetric"),
                                           ("coordinate", "general"),
                                           ("coordinate", "symmetric")])
def test_read_rejects_non_finite_values(tmp_path, fmt, symmetry, value):
    """A nan or inf value is rejected, naming its entry (row, column),
    in every format the reader takes."""
    path = tmp_path / "bad.mtx"
    if fmt == "array":
        # column-major; a symmetric payload is the lower triangle
        values = (["1.0", "0.5", value, "2.0"] if symmetry == "general"
                  else ["1.0", "0.5", value])
        body = "2 2\n" + "\n".join(values)
    else:
        body = f"2 2 2\n1 1 1.0\n2 2 {value}"
    path.write_text(f"%%MatrixMarket matrix {fmt} real {symmetry}\n{body}\n")
    with pytest.raises(ValueError, match=r"entry \(\d, \d\) .* is not finite") as exc:
        read_matrix_market(path)
    want = "(1, 2)" if fmt == "array" and symmetry == "general" else "(2, 2)"
    assert want in str(exc.value)


# A symmetric header on a size that is not square: the array file holds the
# 6 values of a 3-row lower triangle, the coordinate file an entry (1, 3).
NON_SQUARE_SYMMETRIC = {
    "array": "%%MatrixMarket matrix array real symmetric\n3 2\n" + "1.0\n" * 6,
    "coordinate": "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 3 1.0\n",
}


@pytest.mark.parametrize("fmt", ["array", "coordinate"])
def test_read_rejects_non_square_symmetric(tmp_path, fmt):
    """A symmetric file must be square; its size is named in the error."""
    path = tmp_path / "rect.mtx"
    path.write_text(NON_SQUARE_SYMMETRIC[fmt])
    size = "3 x 2" if fmt == "array" else "2 x 3"
    with pytest.raises(ValueError, match=f"must be square, got size {size}"):
        read_matrix_market(path)


@pytest.mark.parametrize("fmt, line", [("array", "3"), ("array", "3 3 9"),
                                       ("coordinate", "3 3"), ("coordinate", "3 3 3 3")])
def test_read_rejects_malformed_size_line(tmp_path, fmt, line):
    """An array size line has two numbers and a coordinate one three."""
    path = tmp_path / "size.mtx"
    path.write_text(f"%%MatrixMarket matrix {fmt} real general\n{line}\n")
    with pytest.raises(ValueError, match="malformed"):
        read_matrix_market(path)
