"""Run one workload of the spamm benchmark and print its metrics.

    python3 perfbench/run.py --workload tc2-gapped-spamm --seed 1 --seconds 20 --trace 0

The package is imported from the ``src/`` directory of the checkout that
holds this script, never from an installed copy; without it the script
exits with an error.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, the per-layer ones with
``--trace 1``.  The lines before it describe the machine, the instances,
every metric under the name the report gives it, and any failed check.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One caller on one thread: the SpAMM kernel and the purification algebra
# are single-threaded, so the dense references run on one thread too.
BLAS_THREADS = 1


def prepare():
    """Pin the BLAS threads and put this checkout's package on the path.
    Runs before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.dont_write_bytecode = True
    src = ROOT / "src"
    if not (src / "spamm" / "__init__.py").is_file():
        raise SystemExit(f"error: no spamm package under {src}; "
                         "run the benchmark from a source checkout")
    sys.path.insert(0, str(src))
    import spamm
    if Path(spamm.__file__).resolve().parent != src / "spamm":
        raise SystemExit(f"error: imported spamm from {spamm.__file__}, not {src}")


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _caches():
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[f"L{level}{suffix}"] = size
    return caches


def machine_info():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def main(argv=None):
    prepare()
    import harness

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")

    spec = load_spec()
    lines, result = harness.measure(
        harness.WORKLOADS[args.workload], args.seed, args.seconds,
        bool(args.trace), spec["per_layer" if args.trace else "end_to_end"])
    print("machine " + json.dumps(machine_info()))
    print("\n".join(lines))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
