"""Print one SHA-256 per workload over every output the library promises to
keep bit for bit, to compare two checkouts of the code.

    python3 tools/output_digest.py [--seeds 1,2,3]

Run it in each checkout and compare the lines: equal digests mean equal
bytes.  It imports the ``spamm`` package from the ``src/`` directory of the
checkout that holds this script, and the benchmark's workloads from its
``perfbench/harness.py`` (read only), with BLAS on one thread as the
benchmark runs it.  The lines are:

- one per benchmark workload, over ``INSTANCES`` problems of each seed:
  for ``purify``, every field of the result (the density tree's keys and
  block stack, ``energy``, ``trace_history``, ``step_leaf_matmuls``,
  ``held_at``, ``idempotency_gap``, ...) and every product and
  ``ProductStats`` of its multiplies; for ``multiply``, the product and
  its ``ProductStats``, boxes collected;
- ``multiply-density-leaves``: the same product of (first seed, instance
  0) at leaf sizes 1 to 64;
- ``multiply-density-no-cubes``: those products again with no whole
  subcube tier (``multiply._CUBE_LEVELS = ()``), so every leaf product
  is a lone leaf triple; it equals the line above as long as whole
  subcubes keep the bits of the leaf triples they stand for;
- ``initial-guess``: ``tc2_initial_guess`` (keys, block stack and
  ``symmetric`` flag of X0) over symmetric trees drawn from the first
  seed (see ``guess_inputs``), at n that pad and n that do not, and leaf
  sizes 1 to 64;
- ``cli-recipe``: the files and standard output of the README's command
  line recipes, run in a fresh directory.

Each line has a twin, ``<name>-values``, over the same outputs minus every
norm-derived float: a tree's ``norm()`` and stored leaf norms,
``ProductStats.omitted_budget`` and the CLI's ``omitted_budget`` column
(the benchmark's ``err_to_budget`` is not hashed at all).  A change that
only re-sums norms moves a line and keeps its twin.

A tree is hashed by its shape, ``symmetric`` flag, the blocks it
represents (``represented_blocks``: both triangles, in key order, however
the tree stores them), its stored leaf norms and ``norm()``, so the order
in which norms are summed counts too.  Floats are hashed by their bytes,
so ``omitted_budget`` and energies must match to the last bit.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import os
import struct
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import harness  # noqa: E402
from spamm import cli, multiply, purification  # noqa: E402
from spamm.multiply import SpammConfig, spamm  # noqa: E402
from spamm.quadtree import QuadTreeMatrix, from_dense  # noqa: E402

LEAF_SIZES = (1, 2, 4, 8, 16, 32, 64)

# The README's quick start recipe, then its CLI section's multiply, purify
# and boxes examples.
CLI_RECIPE = (
    "generate --kind exp --n 512 --alpha 0.5 --out a.mtx",
    "multiply --a a.mtx --b a.mtx --tau 1e-8 --with-error --stats stats.csv",
    "generate --kind gapped --n 256 --gap 1.0 --out f.mtx",
    "multiply --a a.mtx --b a.mtx --tau 1e-6 --stats stats.csv "
    "--out-c c.mtx --with-error",
    "purify --f f.mtx --n-occ 128 --mode spamm --tau 1e-8 "
    "--report report.csv --out-p p.mtx",
    "boxes --a a.mtx --b a.mtx --tau 1e-6 --out boxes.log --summary summary.txt",
)


def represented_blocks(m):
    """The keys and block stack of every nonzero block the tree ``m``
    represents, in key order.  A tree flagged ``symmetric`` equals its
    transpose, so it is read from its stored blocks with i <= j alone: each
    strict-upper block (i, j) stands for its transpose at (j, i) too."""
    keys, stack = m._keys, m._stack
    if not m.symmetric:
        return keys, stack
    nb = m.block_grid
    i, j = np.divmod(keys, nb)
    upper = np.flatnonzero(i <= j)
    strict = upper[i[upper] < j[upper]]
    full = np.concatenate((keys[upper], j[strict] * nb + i[strict]))
    order = np.argsort(full)
    blocks = np.concatenate((stack[upper], stack[strict].swapaxes(1, 2)))
    return full[order], blocks[order]


# The norm-derived fields of the dataclasses that are hashed.
NORM_DERIVED = frozenset({"omitted_budget"})


def feed(hs, value):
    """Add ``value`` to each hash of ``hs``, the full hash and then its
    ``-values`` twin, tagged by its kind so that no two different values
    feed the same bytes.  Norm-derived floats (a tree's norms and the
    ``NORM_DERIVED`` fields) are fed to the full hash alone."""
    def put(data):
        for h in hs:
            h.update(data)

    if isinstance(value, QuadTreeMatrix):
        put(b"tree")
        feed(hs, (value.logical_dim, value.leaf_size, value.symmetric,
                  *represented_blocks(value)))
        feed(hs[:1], (value._block_norm_sq, value.norm()))
    elif isinstance(value, np.ndarray):
        put(f"array {value.dtype.str} {value.shape}".encode())
        put(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (float, np.floating)):
        put(b"float" + struct.pack("<d", float(value)))
    elif isinstance(value, (bool, type(None), str, bytes)):
        put(f"{type(value).__name__} {value!r}".encode())
    elif isinstance(value, (int, np.integer)):
        put(f"int {int(value)}".encode())
    elif dataclasses.is_dataclass(value):
        put(type(value).__name__.encode())
        for f in dataclasses.fields(value):
            feed(hs[:1] if f.name in NORM_DERIVED else hs, getattr(value, f.name))
    elif isinstance(value, (list, tuple)):
        put(f"seq {len(value)}".encode())
        for item in value:
            feed(hs, item)
    else:
        raise TypeError(f"cannot hash {type(value).__name__}")


def without_budget(data):
    """``data``, text or a file's bytes, with the value under each
    ``omitted_budget`` header of its CSV lines blanked."""
    if isinstance(data, bytes):
        return without_budget(data.decode("latin-1")).encode("latin-1")
    lines = data.split("\n")
    for r, line in enumerate(lines[:-1]):
        header = line.split(",")
        if "omitted_budget" in header:
            row = lines[r + 1].split(",")
            row[header.index("omitted_budget")] = ""
            lines[r + 1] = ",".join(row)
    return "\n".join(lines)


def feed_cli(hs, value):
    """Feed a CLI output ``(..., data)``: as it is to the full hash, and
    ``without_budget`` to the twin."""
    *head, data = value
    feed(hs[:1], value)
    feed(hs[1:], (*head, without_budget(data)))


def purify_outputs(w, inst):
    """The result of the workload's purify call on ``inst`` and the
    (product, stats) of each multiply it ran."""
    products = []

    def recording(a, b, config=None):
        out = spamm(a, b, config)
        products.append(out)
        return out

    purification.spamm = recording
    try:
        res = purification.purify(inst.matrix, inst.n_occ, harness.mode_of(w),
                                  max_iter=harness.SWEEPS,
                                  reference_energy=inst.e_ref)
    finally:
        purification.spamm = spamm
    return res, products


def multiply_outputs(w, p):
    return spamm(p, p, SpammConfig(tau=w.tau, collect_boxes=True))


def workload_digest(hs, w, seeds):
    for seed in seeds:
        for index in range(harness.INSTANCES):
            inst = harness.build_instance(w, seed, index)
            if w.call == "purify":
                feed(hs, purify_outputs(w, inst))
            else:
                feed(hs, multiply_outputs(w, inst.matrix))


def leaf_digest(hs, seed, cube_levels):
    """The multiply-density product of (``seed``, instance 0) at every leaf
    size, with ``multiply._CUBE_LEVELS`` set to ``cube_levels``."""
    w = harness.WORKLOADS["multiply-density"]
    p = harness.build_instance(w, seed, 0).matrix.to_dense()
    default = multiply._CUBE_LEVELS
    multiply._CUBE_LEVELS = cube_levels
    try:
        for leaf in LEAF_SIZES:
            feed(hs, multiply_outputs(w, from_dense(p, leaf_size=leaf)))
    finally:
        multiply._CUBE_LEVELS = default


# Sizes of the initial-guess trees: a lone element, sizes that pad at every
# leaf size, and powers of two that pad at none up to their own size.
GUESS_SIZES = (1, 37, 64, 100, 129, 200, 256)


def guess_inputs(rng, n):
    """Symmetric matrices for ``tc2_initial_guess``: random with empty blocks
    and -0.0 entries, that matrix shifted so its Gershgorin bounds are all
    negative (so X0 holds -0.0 where F holds +0.0), and a multiple of I,
    whose bounds meet."""
    d = rng.standard_normal((n, n))
    d[rng.random((n, n)) < 0.6] = 0.0
    d[rng.random((n, n)) < 0.05] = -0.0
    d = np.where(np.triu(np.ones((n, n), dtype=bool)), d, d.T)
    shifted = d - (np.abs(d).sum(axis=1).max() + 1.0) * np.eye(n)
    return d, shifted, 2.5 * np.eye(n)


def initial_guess_digest(hs, seed):
    rng = np.random.default_rng(seed)
    for leaf in LEAF_SIZES:
        for n in GUESS_SIZES:
            for d in guess_inputs(rng, n):
                feed(hs, purification.tc2_initial_guess(from_dense(d, leaf_size=leaf)))


def cli_digest(hs):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for line in CLI_RECIPE:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    status = cli.main(line.split())
                feed_cli(hs, (line, status, out.getvalue()))
            for name in sorted(os.listdir(tmp)):
                feed_cli(hs, (name, Path(tmp, name).read_bytes()))
        finally:
            os.chdir(cwd)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3",
                        help="comma-separated benchmark seeds (default 1,2,3)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s]
    lines = [*((name, workload_digest, (w, seeds)) for name, w in harness.WORKLOADS.items()),
             ("multiply-density-leaves", leaf_digest, (seeds[0], multiply._CUBE_LEVELS)),
             ("multiply-density-no-cubes", leaf_digest, (seeds[0], ())),
             ("initial-guess", initial_guess_digest, (seeds[0],)),
             ("cli-recipe", cli_digest, ())]
    for name, digest, digest_args in lines:
        hs = (hashlib.sha256(), hashlib.sha256())
        digest(hs, *digest_args)
        print(f"{hs[0].hexdigest()}  {name}")
        print(f"{hs[1].hexdigest()}  {name}-values", flush=True)


if __name__ == "__main__":
    main()
