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

A tree is hashed by its shape, ``symmetric`` flag, ``norm()`` and the
blocks it represents (``represented_blocks``: both triangles, in key
order, however the tree stores them), so the order in which norms are
summed counts too.  Floats are
hashed by their bytes, so ``omitted_budget`` and energies must match to the
last bit.
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
    "--boxes boxes.log --out-c c.mtx --with-error",
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


def feed(h, value):
    """Add ``value`` to hash ``h``, tagged by its kind so that no two
    different values feed the same bytes."""
    if isinstance(value, QuadTreeMatrix):
        h.update(b"tree")
        feed(h, (value.logical_dim, value.leaf_size, value.symmetric,
                 *represented_blocks(value), value.norm()))
    elif isinstance(value, np.ndarray):
        h.update(f"array {value.dtype.str} {value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (float, np.floating)):
        h.update(b"float" + struct.pack("<d", float(value)))
    elif isinstance(value, (bool, type(None), str, bytes)):
        h.update(f"{type(value).__name__} {value!r}".encode())
    elif isinstance(value, (int, np.integer)):
        h.update(f"int {int(value)}".encode())
    elif dataclasses.is_dataclass(value):
        h.update(type(value).__name__.encode())
        for f in dataclasses.fields(value):
            feed(h, getattr(value, f.name))
    elif isinstance(value, (list, tuple)):
        h.update(f"seq {len(value)}".encode())
        for item in value:
            feed(h, item)
    else:
        raise TypeError(f"cannot hash {type(value).__name__}")


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


def workload_digest(w, seeds):
    h = hashlib.sha256()
    for seed in seeds:
        for index in range(harness.INSTANCES):
            inst = harness.build_instance(w, seed, index)
            if w.call == "purify":
                feed(h, purify_outputs(w, inst))
            else:
                feed(h, multiply_outputs(w, inst.matrix))
    return h.hexdigest()


def leaf_digest(seed, cube_levels):
    """The multiply-density product of (``seed``, instance 0) at every leaf
    size, with ``multiply._CUBE_LEVELS`` set to ``cube_levels``."""
    w = harness.WORKLOADS["multiply-density"]
    p = harness.build_instance(w, seed, 0).matrix.to_dense()
    h = hashlib.sha256()
    default = multiply._CUBE_LEVELS
    multiply._CUBE_LEVELS = cube_levels
    try:
        for leaf in LEAF_SIZES:
            feed(h, multiply_outputs(w, from_dense(p, leaf_size=leaf)))
    finally:
        multiply._CUBE_LEVELS = default
    return h.hexdigest()


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


def initial_guess_digest(seed):
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    for leaf in LEAF_SIZES:
        for n in GUESS_SIZES:
            for d in guess_inputs(rng, n):
                feed(h, purification.tc2_initial_guess(from_dense(d, leaf_size=leaf)))
    return h.hexdigest()


def cli_digest():
    h = hashlib.sha256()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for line in CLI_RECIPE:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    status = cli.main(line.split())
                feed(h, (line, status, out.getvalue()))
            for name in sorted(os.listdir(tmp)):
                feed(h, (name, Path(tmp, name).read_bytes()))
        finally:
            os.chdir(cwd)
    return h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3",
                        help="comma-separated benchmark seeds (default 1,2,3)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s]
    for name, w in harness.WORKLOADS.items():
        print(f"{workload_digest(w, seeds)}  {name}", flush=True)
    print(f"{leaf_digest(seeds[0], multiply._CUBE_LEVELS)}  multiply-density-leaves",
          flush=True)
    print(f"{leaf_digest(seeds[0], ())}  multiply-density-no-cubes", flush=True)
    print(f"{initial_guess_digest(seeds[0])}  initial-guess", flush=True)
    print(f"{cli_digest()}  cli-recipe", flush=True)


if __name__ == "__main__":
    main()
