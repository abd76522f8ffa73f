"""Workloads, output checks and metrics of the spamm benchmark.

Every workload is a closed loop with one caller in one process.  It calls
one public function, ``purify`` or ``spamm``, on ``INSTANCES`` problems in
turn until the measuring time is up, and checks every output.  Each problem
is made from the seed: a tight-binding chain from ``spamm.generators`` with
weak seeded on-site disorder, and its exact reference from a dense
eigensolver.  A problem is set up just before its first call and once more
after the loop, when its inputs must come out identical.  Reporting over
several problems, and over set-ups at both ends of the run, keeps the
figures steady from seed to seed.

A traced run pairs every plain call with a traced call on the same
instance.  The traced call wraps the names ``spamm.purification`` looks up
(``tc2_step``, ``spamm``, ``add``, ``scale``, ``filter_drop``, ``trace``) and
derives the per-layer times from those spans; nothing under ``src/`` changes.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from spamm import purification
from spamm.generators import ModelHamiltonian, gen_model_hamiltonian
from spamm.multiply import SpammConfig, spamm
from spamm.purification import DroppingMode, SpammMode
from spamm.quadtree import from_dense

from tracing import Tracer, patched

SWEEPS = 50          # TC2 sweeps per purify call
INSTANCES = 5        # problems per run
ENERGY_TOL = 1e-6    # largest accepted |Tr(PF) - E_ref| / |E_ref|
ROUNDOFF = 1e-12     # roundoff allowance of the multiply error contract, times ||P||_F^2
COVERAGE_TOL = 0.10  # traced self times must sum to the traced wall time within this share
QUADTREE_OPS = ("add", "scale", "filter_drop", "trace")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; BENCHMARK.json records why each was chosen."""

    name: str
    call: str        # "purify" or "multiply"
    chain: str       # ModelHamiltonian kind: "gapped" or "gapless"
    n: int
    tau: float
    dropping: bool   # purify with DroppingMode instead of SpammMode
    disorder: float  # width of the uniform on-site disorder


# The disorder widths keep each chain in its regime: on the gapped chain
# (gap 1) they move no eigenvalue by more than 0.025, and on the gapless chain
# they shift the HOMO-LUMO gap (about 0.033 at n=192) by far less than itself.
# On the gapped chain, weaker disorder lets the convergence latch of purify
# engage at widely different sweeps (or never), so the call time would vary
# with the seed far more than with the code.
WORKLOADS = {w.name: w for w in (
    Workload("tc2-gapped-spamm", "purify", "gapped", 1024, 1e-8, False, 0.05),
    Workload("tc2-gapless-drop", "purify", "gapless", 192, 1e-5, True, 0.01),
    Workload("multiply-density", "multiply", "gapped", 1024, 1e-8, False, 0.05),
)}

# Names of the end-to-end metrics in the terms of each call, for the report.
ALIASES = {
    "purify": {"call_s": "purify_s", "err_rel": "energy_err_rel"},
    "multiply": {"call_s": "multiply_s", "err_rel": "multiply_err_rel"},
}


@dataclass
class Instance:
    """One problem and its dense reference, with the time its set-up took."""

    index: int
    matrix: object           # F for purify, P for multiply (QuadTreeMatrix)
    n_occ: int
    gap: float               # HOMO-LUMO gap of the chain
    setup_s: float
    generators_s: float
    eigh_s: float
    e_ref: float = 0.0       # sum of the n_occ lowest eigenvalues
    product: np.ndarray | None = None  # dense P @ P
    product_norm: float = 0.0
    dense_matmul_s: float = 0.0


@dataclass
class Outcome:
    """A checked call: its error, work signature and failed checks."""

    err_rel: float
    signature: tuple
    tree: object
    problems: list
    err_to_budget: float = 0.0


@dataclass
class TracedCall:
    """Spans and exact counters of one traced call."""

    index: int
    wall_s: float = 0.0
    spans: dict = field(default_factory=dict)
    products: list = field(default_factory=list)  # ProductStats per multiply
    trees_built: int = 0
    problems: list = field(default_factory=list)

    def tree_returned(self, args, result):
        tree = result[0] if isinstance(result, tuple) else result
        if all(tree is not arg for arg in args):
            self.trees_built += 1

    def product_returned(self, args, result):
        self.tree_returned(args, result)
        product, stats = result
        self.products.append(stats)
        if stats.covered_volume(product.leaf_size) != product.padded_dim ** 3:
            self.problems.append("multiply does not tile the product cube")


class Tally:
    """Attempted calls and failures.  A call whose work signature differs
    from an earlier call under the same key is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.first = {}  # instance index -> Outcome of its first call
        self._signatures = {}

    def drift(self, key, signature):
        first = self._signatures.setdefault(key, signature)
        if first == signature:
            return None
        return f"work counters drifted on {key!r}: {first} then {signature}"

    def count(self, index, outcome):
        self.attempted += 1
        problems = list(outcome.problems)
        drift = self.drift(index, outcome.signature)
        if drift:
            problems.append(drift)
        self.first.setdefault(index, outcome)
        if problems:
            self.failures.append(f"instance {index}: " + "; ".join(problems))

    def error(self, index):
        self.attempted += 1
        self.failures.append(f"instance {index}: {traceback.format_exc()}")


def chain_hamiltonian(w, seed, index):
    """The workload's chain with on-site disorder drawn uniformly from
    [-disorder/2, disorder/2]; equal (seed, index) give equal matrices."""
    h = gen_model_hamiltonian(ModelHamiltonian(w.n, kind=w.chain)).to_dense()
    rng = np.random.default_rng([seed, index])
    h[np.diag_indices(w.n)] += w.disorder * rng.uniform(-0.5, 0.5, w.n)
    return h


def build_instance(w, seed, index):
    n_occ = w.n // 2
    t0 = time.perf_counter()
    h = chain_hamiltonian(w, seed, index)
    if w.call == "purify":
        f = from_dense(h)
        t1 = time.perf_counter()
        evals = np.linalg.eigvalsh(h)
        t2 = time.perf_counter()
        return Instance(index, f, n_occ, float(evals[n_occ] - evals[n_occ - 1]),
                        setup_s=t2 - t0, generators_s=t1 - t0, eigh_s=t2 - t1,
                        e_ref=float(evals[:n_occ].sum()))
    t1 = time.perf_counter()
    evals, vecs = np.linalg.eigh(h)
    occ = vecs[:, :n_occ]
    p = occ @ occ.T
    t2 = time.perf_counter()
    q = from_dense(p)
    t3 = time.perf_counter()
    pp = p @ p
    t4 = time.perf_counter()
    return Instance(index, q, n_occ, float(evals[n_occ] - evals[n_occ - 1]),
                    setup_s=t4 - t0, generators_s=t1 - t0, eigh_s=t2 - t1,
                    product=pp, product_norm=float(np.linalg.norm(pp)),
                    dense_matmul_s=t4 - t3)


def mode_of(w):
    return DroppingMode(w.tau) if w.dropping else SpammMode(w.tau)


def check_purify(inst, res):
    err = abs(res.energy - inst.e_ref) / abs(inst.e_ref)
    problems = []
    if not math.isfinite(res.energy):
        problems.append(f"non-finite energy {res.energy}")
    elif not err <= ENERGY_TOL:
        problems.append(f"energy_err_rel {err:.3e} > {ENERGY_TOL:g}")
    return Outcome(err, (res.energy, tuple(res.step_leaf_matmuls)),
                   res.density, problems)


def check_multiply(inst, c, stats):
    abs_err = float(np.linalg.norm(c.to_dense() - inst.product))
    allowed = stats.omitted_budget + ROUNDOFF * inst.matrix.norm() ** 2
    problems = []
    if not abs_err <= allowed:
        problems.append(f"|C - P@P|_F {abs_err:.3e} > budget + roundoff {allowed:.3e}")
    if stats.covered_volume(c.leaf_size) != c.padded_dim ** 3:
        problems.append("multiply does not tile the product cube")
    ratio = abs_err / stats.omitted_budget if stats.omitted_budget > 0 else 0.0
    return Outcome(abs_err / inst.product_norm,
                   (stats.leaf_matmuls, stats.pruned_calls, stats.omitted_budget),
                   c, problems, ratio)


def plain_call(w, inst):
    """Time one untraced call and check its output; returns (Outcome, wall_s)."""
    if w.call == "purify":
        t0 = time.perf_counter()
        res = purification.purify(inst.matrix, inst.n_occ, mode_of(w),
                                  max_iter=SWEEPS, reference_energy=inst.e_ref)
        wall = time.perf_counter() - t0
        return check_purify(inst, res), wall
    t0 = time.perf_counter()
    c, stats = spamm(inst.matrix, inst.matrix, SpammConfig(tau=w.tau))
    wall = time.perf_counter() - t0
    return check_multiply(inst, c, stats), wall


def traced_call(w, inst, tally):
    """One call with spans around every layer boundary; returns
    (Outcome, TracedCall)."""
    tracer = Tracer()
    rec = TracedCall(inst.index)
    traced_spamm = tracer.wrap("spamm", spamm, rec.product_returned)
    if w.call == "purify":
        root = tracer.wrap("purify", purification.purify)
        wrappers = {"purify": root, "spamm": traced_spamm,
                    "tc2_step": tracer.wrap("tc2_step", purification.tc2_step),
                    "trace": tracer.wrap("trace", purification.trace)}
        for name in ("add", "scale", "filter_drop"):
            wrappers[name] = tracer.wrap(name, getattr(purification, name),
                                         rec.tree_returned)
        with patched(purification, wrappers):
            t0 = time.perf_counter()
            res = root(inst.matrix, inst.n_occ, mode_of(w), max_iter=SWEEPS,
                       reference_energy=inst.e_ref)
            rec.wall_s = time.perf_counter() - t0
        outcome = check_purify(inst, res)
    else:
        t0 = time.perf_counter()
        c, stats = traced_spamm(inst.matrix, inst.matrix, SpammConfig(tau=w.tau))
        rec.wall_s = time.perf_counter() - t0
        outcome = check_multiply(inst, c, stats)

    rec.spans = tracer.summary()
    outcome.problems.extend(rec.problems)
    if rec.spans.get("purify", (0,))[0] > 1:
        outcome.problems.append("purify ran its own tau=0 reference")
    coverage = sum(own for _, _, own in rec.spans.values()) / rec.wall_s
    if abs(coverage - 1.0) > COVERAGE_TOL:
        outcome.problems.append(f"layer self times cover {coverage:.3f} of the wall time")
    counters = tuple((s.leaf_matmuls, s.pruned_calls, s.omitted_budget)
                     for s in rec.products)
    drift = tally.drift(("multiplies", inst.index), counters)
    if drift:
        outcome.problems.append(drift)
    return outcome, rec


def schedule(count, seconds, min_steps):
    """Instance indices in turn, until ``seconds`` have passed and at least
    ``min_steps`` were given."""
    deadline = time.perf_counter() + seconds
    step = 0
    while step < min_steps or time.perf_counter() < deadline:
        yield step % count
        step += 1


def measure(w, seed, seconds, traced, spec_metrics):
    """One benchmark run.  ``spec_metrics`` is the BENCHMARK.json list the
    run reports: the end-to-end metrics, or with ``traced`` the per-layer
    ones.  Returns (report lines, result object)."""
    instances = {}
    tally = Tally()
    plain_s, records = [], []
    # An untraced run calls the first instance twice, so its work counters
    # are compared with a re-run; a traced run compares each instance's
    # traced call with its plain call.
    steps = INSTANCES if traced else INSTANCES + 1
    for index in schedule(INSTANCES, seconds, steps):
        if index not in instances:
            instances[index] = build_instance(w, seed, index)
        inst = instances[index]
        try:
            outcome, wall = plain_call(w, inst)
        except Exception:
            tally.error(index)
        else:
            tally.count(index, outcome)
            plain_s.append(wall)
        if traced:
            try:
                outcome, rec = traced_call(w, inst, tally)
            except Exception:
                tally.error(index)
            else:
                tally.count(index, outcome)
                records.append(rec)

    setups = list(instances.values())
    for inst in instances.values():
        again = build_instance(w, seed, inst.index)
        if not (again.matrix.structurally_equal(inst.matrix) and again.e_ref == inst.e_ref):
            tally.failures.append(f"instance {inst.index}: inputs differ when set up again")
        setups.append(replace(again, matrix=None, product=None))  # keep the timings

    if traced:
        metrics = layer_metrics(w, setups, tally, plain_s, records)
    else:
        metrics = end_to_end_metrics(setups, tally, plain_s)
    units = {m["name"]: m["unit"] for m in spec_metrics}
    if set(units) != set(metrics):
        raise ValueError(f"metrics {sorted(metrics)} do not match {sorted(units)}")
    lines = report(w, seed, list(instances.values()), tally, plain_s, len(records),
                   metrics, units)
    return lines, {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }


def block_occupancy(m):
    """Share of the leaf blocks over the logical matrix holding a nonzero."""
    b = m.leaf_size
    nb = -(-m.logical_dim // b)
    dense = np.zeros((nb * b, nb * b))
    dense[:m.logical_dim, :m.logical_dim] = m.to_dense()
    return float((dense.reshape(nb, b, nb, b) != 0).any(axis=(1, 3)).mean())


def p90(samples):
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(setups, tally, plain_s):
    return {
        "setup_s": statistics.median(i.setup_s for i in setups),
        "call_s": statistics.median(plain_s),
        "err_rel": statistics.fmean(o.err_rel for o in tally.first.values()),
        "peak_rss_mib": peak_rss_mib(),
    }


def layer_metrics(w, setups, tally, plain_s, records):
    """Per-layer metrics of a traced run.  Exact counters are averaged over
    the first traced call of each instance, so they repeat exactly for a
    seed; times are averaged over every traced call."""
    firsts = list({r.index: r for r in reversed(records)}.values())

    def span(r, name, part):
        return r.spans.get(name, (0, 0.0, 0.0))[part]

    def over_firsts(value):
        return statistics.fmean(value(r) for r in firsts)

    def over_all(value):
        return statistics.fmean(value(r) for r in records)

    m = {}
    for op in QUADTREE_OPS:
        m[f"quadtree.{op}.calls"] = over_firsts(lambda r: span(r, op, 0))
        m[f"quadtree.{op}.busy_s"] = over_all(lambda r: span(r, op, 1))
    sweeps = sum(span(r, "tc2_step", 0) for r in firsts)
    m["quadtree.trees_built_per_sweep"] = (
        sum(r.trees_built for r in firsts) / sweeps if sweeps else 0.0)
    m["quadtree.final_occupancy"] = statistics.fmean(
        block_occupancy(o.tree) for o in tally.first.values())

    leaf = setups[0].matrix.leaf_size
    padded = setups[0].matrix.padded_dim
    itemsize = setups[0].matrix.dtype.itemsize
    matmuls = [sum(s.leaf_matmuls for s in r.products) for r in firsts]
    multiplies = sum(len(r.products) for r in firsts)
    all_matmuls = sum(s.leaf_matmuls for r in records for s in r.products)
    spamm_busy = sum(span(r, "spamm", 1) for r in records)
    m["multiply.spamm.calls"] = over_firsts(lambda r: len(r.products))
    m["multiply.spamm.busy_s"] = over_all(lambda r: span(r, "spamm", 1))
    # Computed from the leaf multiplies, not measured: 2 leaf^3 flops each,
    # reading two leaf blocks and writing one.
    m["multiply.gflops"] = 2 * leaf ** 3 * all_matmuls / spamm_busy / 1e9
    m["multiply.bytes_computed"] = statistics.fmean(matmuls) * 3 * leaf ** 2 * itemsize
    m["multiply.leaf_matmuls"] = statistics.fmean(matmuls)
    m["multiply.pruned_calls"] = over_firsts(
        lambda r: sum(s.pruned_calls for s in r.products))
    m["multiply.omitted_budget"] = over_firsts(
        lambda r: sum(s.omitted_budget for s in r.products))
    m["multiply.cube_fraction"] = sum(matmuls) * leaf ** 3 / (multiplies * padded ** 3)
    if w.call == "multiply":
        dense_s = statistics.median(i.dense_matmul_s for i in setups)
        m["multiply.err_to_budget"] = statistics.fmean(
            o.err_to_budget for o in tally.first.values())
        m["reference.dense_matmul_s"] = dense_s
        m["multiply.speedup_vs_dense"] = dense_s / statistics.median(plain_s)
    else:
        m["multiply.err_to_budget"] = 0.0
        m["reference.dense_matmul_s"] = 0.0
        m["multiply.speedup_vs_dense"] = 0.0

    steps = over_firsts(lambda r: span(r, "tc2_step", 0))
    m["purification.purify.self_s"] = over_all(lambda r: span(r, "purify", 2))
    m["purification.tc2_step.calls"] = steps
    m["purification.tc2_step.self_s"] = over_all(lambda r: span(r, "tc2_step", 2))
    m["purification.latched_sweeps"] = SWEEPS - steps if w.call == "purify" else 0.0

    m["generators.busy_s"] = statistics.median(i.generators_s for i in setups)
    m["reference.eigh_s"] = statistics.median(i.eigh_s for i in setups)
    m["trace.overhead_frac"] = (statistics.median(r.wall_s for r in records)
                                / statistics.median(plain_s) - 1.0)
    m["trace.coverage"] = over_all(
        lambda r: sum(own for _, _, own in r.spans.values()) / r.wall_s)
    return m


def report(w, seed, instances, tally, plain_s, traced_calls, metrics, units):
    lines = [f"workload {w.name} (n={w.n}, tau={w.tau:g}), seed {seed}: "
             f"{len(plain_s)} plain and {traced_calls} traced calls "
             f"on {len(instances)} instances"]
    for i in instances:
        first = tally.first.get(i.index)
        occupancy = block_occupancy(first.tree) if first else float("nan")
        lines.append(f"  instance {i.index}: HOMO-LUMO gap {i.gap:.4f}, "
                     f"final block occupancy {occupancy:.4f}, set-up {i.setup_s:.3f} s")
    aliases = ALIASES[w.call]
    for name, value in metrics.items():
        label = f"{aliases[name]} ({name})" if name in aliases else name
        lines.append(f"  {label:<44} {value:.6g} {units[name]}")
    if plain_s:
        label = f"{aliases['call_s']}.p90"
        lines.append(f"  {label:<44} {p90(plain_s):.6g} s ({len(plain_s)} plain calls)")
    failed_frac = len(tally.failures) / tally.attempted if tally.attempted else 0.0
    lines.append(f"  {'ops_failed_frac':<44} {failed_frac:.6g} fraction "
                 f"({len(tally.failures)} of {tally.attempted} calls)")
    lines.extend(f"  FAILED {failure}" for failure in tally.failures)
    return lines

