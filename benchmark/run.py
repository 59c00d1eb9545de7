#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
benchmark/ (the libraries under src/ and the crpm_bench program) into
.bench_build/. crpm_bench runs the workload, checks the outputs, and
writes its metrics; this script checks them against BENCHMARK.json, prints
every metric by name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones. With --trace 1 they are
the per-layer ones, from a run with the per-layer probes on; its spans go
to .bench_build/trace-<workload>.json (Chrome trace-event format).

Exit status: 0 when every output was correct, 1 when a correctness check
failed, 2 when the benchmark could not be built or run (no result line).
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "crpm_bench")
WORKLOADS = ("kv-durable", "kv-read", "epoch-replicated", "recover")

# A run must end within 180 s; the first run of a checkout, which builds,
# within 900 s.
RUN_LIMIT_S = 175
FIRST_RUN_LIMIT_S = 890


class BenchError(Exception):
    """The benchmark could not be built or run."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def build():
    """Configures (once) and builds crpm_bench; True if anything was built."""
    cmds = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    fresh = bool(cmds) or not os.path.exists(BINARY)
    cmds.append(["cmake", "--build", BUILD_DIR, "--target", "crpm_bench",
                 "-j", "4"])
    for cmd in cmds:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return fresh


def run_bench(workload, seed, seconds, trace, smoke=False, binary=BINARY,
               timeout=RUN_LIMIT_S):
    """Runs crpm_bench once; returns its parsed result.

    The result is {"correct", "attempted", "failed", "metrics"}, with
    metrics mapping every name crpm_bench measured to {"value", "unit"}.
    """
    work = os.path.join(os.path.dirname(binary), f"work-{workload}")
    out = os.path.join(os.path.dirname(binary), f"result-{workload}.json")
    shutil.rmtree(work, ignore_errors=True)
    if os.path.exists(out):
        os.remove(out)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--json", out, "--work", work]
    if trace:
        cmd += ["--trace", os.path.join(os.path.dirname(binary),
                                        f"trace-{workload}.json")]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        returncode = proc.wait(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no result within {timeout:.0f}s")
    finally:
        # Also on a timeout or a signal: never leave crpm_bench running.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    if returncode != 0:
        raise BenchError(f"{workload}: crpm_bench exited with {returncode}")
    try:
        with open(out) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"{workload}: unreadable crpm_bench output: {e}")
    scale = doc["scale"]
    return {
        "correct": bool(scale["correct"]),
        "attempted": int(scale["attempted"]),
        "failed": int(scale["failed"]),
        "metrics": {row["metric"]: {"value": row["value"],
                                    "unit": row["unit"]}
                    for row in doc["results"]},
    }


def check_schema(result, specs):
    """Raises BenchError unless `result` has every metric in `specs` with the
    declared unit and a finite value, and attempted at least 1."""
    if result["attempted"] < 1:
        raise BenchError("no operation was attempted")
    for spec in specs:
        m = result["metrics"].get(spec["name"])
        if m is None:
            raise BenchError(f"metric {spec['name']} missing")
        if m["unit"] != spec["unit"]:
            raise BenchError(f"metric {spec['name']} in {m['unit']}, "
                             f"declared {spec['unit']}")
        if not isinstance(m["value"], (int, float)) or \
                not math.isfinite(m["value"]):
            raise BenchError(f"metric {spec['name']} is not a number")


def select(result, specs):
    """The result restricted to the metrics in `specs`, in their order."""
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {s["name"]: result["metrics"][s["name"]] for s in specs},
    }


def print_table(result):
    width = max(len(n) for n in result["metrics"])
    for name, m in result["metrics"].items():
        print(f"{name:<{width}}  {m['value']:>16.6g}  {m['unit']}")
    print(f"attempted={result['attempted']} failed={result['failed']} "
          f"correct={str(result['correct']).lower()}")


def exit_on_sigterm():
    """Turns SIGTERM into SystemExit, so run_bench's cleanup still runs."""
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))


def main(argv=None):
    exit_on_sigterm()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    start = time.monotonic()
    try:
        spec = load_spec()
        specs = spec["per_layer"] if args.trace else spec["end_to_end"]
        limit = FIRST_RUN_LIMIT_S if build() else RUN_LIMIT_S
        result = run_bench(args.workload, args.seed, args.seconds,
                            args.trace,
                            timeout=limit - (time.monotonic() - start))
        check_schema(result, specs)
    except BenchError as e:
        log(f"benchmark: {e}")
        return 2
    result = select(result, specs)
    print_table(result)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
