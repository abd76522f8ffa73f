"""Minimal MatrixMarket exchange: dense ``array`` and sparse ``coordinate``
real matrices, written with 17 significant digits so float64 values survive
a round trip bit-exactly."""

from __future__ import annotations

import numpy as np

_HEADER_PREFIX = "%%MatrixMarket"


def write_matrix_market(mat, path, fmt="array"):
    """Write a matrix as ``matrix array real general`` (dense, column-major
    values) or ``matrix coordinate real general`` (1-based triples of every
    entry that is nonzero or -0.0).

    ``mat`` may be a 2-D ndarray or anything with a to_dense() method.
    """
    dense = mat.to_dense() if hasattr(mat, "to_dense") else np.asarray(mat)
    if dense.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {dense.shape}")
    if fmt not in ("array", "coordinate"):
        raise ValueError(f"fmt must be 'array' or 'coordinate', got {fmt!r}")
    rows, cols = dense.shape
    with open(path, "w") as fh:
        if fmt == "array":
            fh.write(f"{_HEADER_PREFIX} matrix array real general\n")
            fh.write(f"{rows} {cols}\n")
            for j in range(cols):
                for i in range(rows):
                    fh.write(f"{dense[i, j]:.17g}\n")
        else:
            fh.write(f"{_HEADER_PREFIX} matrix coordinate real general\n")
            nz_i, nz_j = np.nonzero((dense.T != 0) | np.signbit(dense.T))
            fh.write(f"{rows} {cols} {nz_i.size}\n")
            for j, i in zip(nz_i, nz_j):
                fh.write(f"{i + 1} {j + 1} {dense[i, j]:.17g}\n")


def read_matrix_market(path):
    """Read a real MatrixMarket file (array or coordinate; general or
    symmetric) into a dense float64 array.  A non-finite entry (nan or
    inf), and a symmetric file whose size is not square, are rejected."""
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith(_HEADER_PREFIX):
            raise ValueError(f"not a MatrixMarket file: {path}")
        tokens = header.split()
        if len(tokens) != 5:
            raise ValueError(f"malformed MatrixMarket header: {header.strip()!r}")
        _, obj, fmt, field, symmetry = (t.lower() for t in tokens)
        if obj != "matrix":
            raise ValueError(f"unsupported MatrixMarket object {obj!r}")
        if fmt not in ("array", "coordinate"):
            raise ValueError(f"unsupported MatrixMarket format {fmt!r}")
        if field not in ("real", "integer"):
            raise ValueError(f"unsupported MatrixMarket field {field!r}")
        if symmetry not in ("general", "symmetric"):
            raise ValueError(f"unsupported MatrixMarket symmetry {symmetry!r}")

        data_lines = (line for line in fh
                      if line.strip() and not line.lstrip().startswith("%"))
        size_line = next(data_lines, None)
        if size_line is None:
            raise ValueError(f"missing size line in {path}")

        size = [int(t) for t in size_line.split()]
        if len(size) != (2 if fmt == "array" else 3):
            raise ValueError(f"malformed {fmt} size line: {size_line.strip()!r}")
        rows, cols = size[:2]
        if symmetry == "symmetric" and rows != cols:
            raise ValueError(f"a symmetric matrix must be square, got size {rows} x {cols}")

        if fmt == "array":
            values = []
            for line in data_lines:
                values.extend(float(t) for t in line.split())
            if symmetry == "symmetric":
                # Symmetric array payloads hold the lower triangle only,
                # column by column, diagonal included.
                expected = rows * (rows + 1) // 2
                if len(values) != expected:
                    raise ValueError(
                        f"expected {expected} values, found {len(values)}")
                # Column-major lower-triangle order is the row-major order
                # of the upper triangle's indices, transposed.
                upper, lower = np.triu_indices(rows)
                out = np.zeros((rows, cols))
                out[lower, upper] = values
                out[upper, lower] = values
            elif len(values) != rows * cols:
                raise ValueError(
                    f"expected {rows * cols} values, found {len(values)}")
            else:
                out = np.array(values).reshape(cols, rows).T
        else:
            nnz = size[2]
            # a position keeps its first value as is (-0.0 too); duplicates add
            out = np.zeros((rows, cols))
            written = np.zeros((rows, cols), dtype=bool)
            seen = 0
            for line in data_lines:
                i_s, j_s, v_s = line.split()
                i, j = int(i_s) - 1, int(j_s) - 1
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError(f"entry ({i_s}, {j_s}) lies outside the "
                                     f"{rows} x {cols} matrix")
                v = float(v_s)
                for p, q in {(i, j), (j, i)} if symmetry == "symmetric" else {(i, j)}:
                    out[p, q] = out[p, q] + v if written[p, q] else v
                    written[p, q] = True
                seen += 1
            if seen != nnz:
                raise ValueError(f"expected {nnz} entries, found {seen}")
    bad = np.argwhere(~np.isfinite(out))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"entry ({i + 1}, {j + 1}) of {path} is not finite: {out[i, j]}")
    return out
