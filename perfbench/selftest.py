"""Fast self-test of the benchmark harness on tiny chains.

    python3 perfbench/selftest.py

Runs every workload shrunk to a small n, plain and traced, and checks that
the result object carries exactly the metrics of BENCHMARK.json with their
units and no failed call.  Then it breaks the program on purpose (a wrong
product, drifting work counters, inputs that change between set-ups, a
purification that never runs) and checks that the harness reports the
failures.  Exits non-zero on the first broken expectation.
"""

import math
import sys
from dataclasses import replace

import run

run.prepare()

import harness  # noqa: E402  (needs the path set up by run.prepare)
from spamm import purification  # noqa: E402
from spamm.quadtree import from_dense  # noqa: E402
from tracing import patched  # noqa: E402

TINY_N = {"tc2-gapped-spamm": 64, "tc2-gapless-drop": 48, "multiply-density": 64}


def tiny(name):
    return replace(harness.WORKLOADS[name], n=TINY_N[name])


def expect(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def measure(name, traced, spec):
    lines, result = harness.measure(tiny(name), 7, 0.0, traced,
                                    spec["per_layer" if traced else "end_to_end"])
    return lines, result


def check_metrics(spec):
    for name in harness.WORKLOADS:
        for traced in (False, True):
            wanted = spec["per_layer" if traced else "end_to_end"]
            lines, result = measure(name, traced, spec)
            where = f"{name} traced={traced}"
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{where}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0,
                   f"{where}: failed calls\n" + "\n".join(lines))
            expect(result["attempted"] >= harness.INSTANCES, f"{where}: too few calls")
            expect([m["name"] for m in wanted] == list(result["metrics"]),
                   f"{where}: metric names {list(result['metrics'])}")
            for m in wanted:
                got = result["metrics"][m["name"]]
                expect(got["unit"] == m["unit"], f"{where}: unit of {m['name']}")
                expect(isinstance(got["value"], float) and math.isfinite(got["value"]),
                       f"{where}: value of {m['name']} is {got['value']!r}")
            for m in spec["end_to_end"] if not traced else ():
                expect(result["metrics"][m["name"]]["value"] > 0,
                       f"{where}: end-to-end metric {m['name']} is not positive")
        print(f"selftest: {name} ok")


def expect_failures(name, module, replacements, what, spec):
    with patched(module, replacements):
        lines, result = measure(name, False, spec)
    expect(not result["correct"] and result["failed"] > 0,
           f"{what} went unnoticed on {name}\n" + "\n".join(lines))
    print(f"selftest: caught {what}")


def check_checks(spec):
    spamm = harness.spamm

    def wrong_product(a, b, config):
        c, stats = spamm(a, b, config)
        dense = c.to_dense()
        dense[0, 0] += 1e-3
        return from_dense(dense, leaf_size=c.leaf_size), stats

    calls = []

    def drifting_counters(a, b, config):
        c, stats = spamm(a, b, config)
        calls.append(None)
        stats.pruned_calls += len(calls)
        return c, stats

    expect_failures("multiply-density", harness, {"spamm": wrong_product},
                    "a product outside the error budget", spec)
    expect_failures("multiply-density", harness, {"spamm": drifting_counters},
                    "work counters that drift between re-runs", spec)
    chain = harness.chain_hamiltonian
    builds = []

    def unrepeatable_chain(w, seed, index):
        h = chain(w, seed, index)
        builds.append(None)
        h[0, 0] += 1e-9 * len(builds)
        return h

    expect_failures("tc2-gapless-drop", harness, {"chain_hamiltonian": unrepeatable_chain},
                    "inputs that do not repeat from the seed", spec)
    expect_failures("tc2-gapped-spamm", purification,
                    {"tc2_step": lambda x, n_occ, mode: (x, spamm(x, x)[1])},
                    "an energy off by more than the tolerance", spec)


def main():
    spec = run.load_spec()
    check_metrics(spec)
    check_checks(spec)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
