#!/usr/bin/env python3
"""Repeated benchmark runs, their comparison, and the smoke check.

    python3 benchmark/suite.py run [--seed N] [--repeat R] [--seconds S]
                                   [--workloads W ...] [--trace] [--out F]
    python3 benchmark/suite.py compare BASE.json NEW.json
    python3 benchmark/suite.py smoke [--binary PATH]

run    runs every workload R times (seeds N .. N+R-1) without tracing, and
       with --trace once more each with the per-layer probes on. It prints
       the median and quartiles of every metric, the trace overhead per
       workload, and writes all runs to F. Exits 1 if any output was wrong.
compare  judges NEW against BASE on every (end-to-end metric, workload)
       pair, by the rule in BENCHMARK.md: improved, regressed, unchanged or
       unresolved. Exits 1 if any pair regressed.
smoke  runs every workload at --smoke scale, traced, and checks the
       outputs and the result schema (the benchmark_smoke ctest).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run as bench

# --- statistics and verdicts -------------------------------------------------

# Host drift between two sets of runs can make a few pairs all lean one way;
# a gain is claimed only from at least this many.
MIN_PAIRS_FOR_GAIN = 10


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def verdict(base, new, bound, better):
    """Judges one (metric, workload) pair from paired runs.

    base[i] and new[i] were measured with the same seed. `bound` is the share
    of the base median by which the metric may get worse; `better` is
    "lower" or "higher". Returns "improved", "regressed", "unchanged" or
    "unresolved":

    improved    at least ten pairs were run, new wins at least nine in ten
                of them (ties count for neither side), and the medians
                differ by more than the distance between base's quartiles;
    unresolved  otherwise, when either side's spread exceeds the bound,
                unless every new run is better than every base run;
    regressed   otherwise, when new's median is worse than base's by more
                than the bound;
    unchanged   otherwise.
    """
    if len(base) != len(new) or not base:
        raise ValueError("verdict needs the same number of runs per side")
    sign = 1 if better == "lower" else -1

    def gain(n, b):  # > 0 when n is better than b
        return sign * (b - n)

    mb, mn = statistics.median(base), statistics.median(new)
    wins = sum(1 for b, n in zip(base, new) if gain(n, b) > 0)
    q1, _, q3 = quartiles(base)
    if len(base) >= MIN_PAIRS_FOR_GAIN and wins >= 0.9 * len(base) and \
            gain(mn, mb) > q3 - q1:
        return "improved"
    every_better = all(gain(n, b) > 0 for n in new for b in base)
    if max(spread(base), spread(new)) > bound and not every_better:
        return "unresolved"
    if mb and -gain(mn, mb) / abs(mb) > bound:
        return "regressed"
    return "unchanged"


# --- run -------------------------------------------------------------------------


def summarize(runs):
    """{metric: {unit, median, q1, q3, spread, n}} over a list of runs."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = quartiles(values)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"],
                     "median": q2, "q1": q1, "q3": q3,
                     "spread": spread(values) if q2 else 0.0,
                     "n": len(values)}
    return out


def print_summary(workload, summary):
    print(f"\n== {workload} ==")
    width = max(len(n) for n in summary)
    print(f"{'metric':<{width}}  {'median':>14}  {'q1':>14}  {'q3':>14}  "
          f"{'spread':>7}  unit")
    for name, s in summary.items():
        print(f"{name:<{width}}  {s['median']:>14.6g}  {s['q1']:>14.6g}  "
              f"{s['q3']:>14.6g}  {s['spread']:>7.3f}  {s['unit']}")


def commit_id():
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=bench.ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def cmd_run(args):
    spec = bench.load_spec()
    bench.build()
    doc = {"commit": commit_id(), "nproc": os.cpu_count(),
           "machine": platform.machine(), "seed": args.seed,
           "repeat": args.repeat, "seconds": args.seconds, "workloads": {}}
    ok = True
    for w in args.workloads:
        entry = {"runs": []}
        for trace in ([0, 1] if args.trace else [0]):
            specs = spec["per_layer"] if trace else spec["end_to_end"]
            runs = []
            for r in range(args.repeat):
                seed = args.seed + r
                result = bench.run_bench(w, seed, args.seconds, trace)
                bench.check_schema(result, specs)
                result = bench.select(result, specs)
                ok = ok and result["correct"]
                bench.log(f"{w} seed={seed} trace={trace}: "
                          f"correct={result['correct']} "
                          f"failed={result['failed']}/{result['attempted']}")
                runs.append(dict(result, seed=seed, trace=trace))
            entry["runs"] += runs
            entry["end_to_end" if not trace else "per_layer"] = \
                summarize(runs)
        if args.trace:
            traced = entry["per_layer"]["trace.primary_p50_us"]["median"]
            plain = entry["end_to_end"]["primary_p50_us"]["median"]
            entry["trace_overhead"] = traced / plain - 1 if plain else 0.0
        doc["workloads"][w] = entry
        for key in ("end_to_end", "per_layer"):
            if key in entry:
                print_summary(f"{w} ({key})", entry[key])
        if "trace_overhead" in entry:
            print(f"trace overhead (primary p50): "
                  f"{entry['trace_overhead']:+.1%}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


# --- compare ----------------------------------------------------------------------


def e2e_values(doc, workload, metric):
    runs = [r for r in doc["workloads"][workload]["runs"] if not r["trace"]]
    runs.sort(key=lambda r: r["seed"])
    return [r["metrics"][metric]["value"] for r in runs]


def cmd_compare(args):
    spec = bench.load_spec()
    with open(args.base) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    regressed = False
    print(f"{'workload':<18}{'metric':<30}{'base':>14}{'new':>14}"
          f"{'bound':>7}  verdict")
    for w in base["workloads"]:
        if w not in new["workloads"]:
            continue
        for m in spec["end_to_end"]:
            b = e2e_values(base, w, m["name"])
            n = e2e_values(new, w, m["name"])
            k = min(len(b), len(n))
            v = verdict(b[:k], n[:k], m["bound"], m["better"])
            regressed = regressed or v == "regressed"
            print(f"{w:<18}{m['name']:<30}{statistics.median(b):>14.6g}"
                  f"{statistics.median(n):>14.6g}{m['bound']:>7.2f}  {v}")
    return 1 if regressed else 0


# --- smoke ----------------------------------------------------------------------


def cmd_smoke(args):
    spec = bench.load_spec()
    binary = args.binary
    if binary is None:
        bench.build()
        binary = bench.BINARY
    ok = True
    for w in bench.WORKLOADS:
        result = bench.run_bench(w, 1, 1, True, smoke=True, binary=binary,
                                  timeout=60)
        bench.check_schema(result, spec["end_to_end"] + spec["per_layer"])
        print(f"{w}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}")
        ok = ok and result["correct"] and result["failed"] == 0
    return 0 if ok else 1


def main(argv=None):
    bench.exit_on_sigterm()
    p = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seed", type=int, default=1)
    r.add_argument("--repeat", type=int, default=5)
    r.add_argument("--seconds", type=float, default=10)
    r.add_argument("--workloads", nargs="+", default=list(bench.WORKLOADS),
                   choices=bench.WORKLOADS)
    r.add_argument("--trace", action="store_true")
    r.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("new")
    s = sub.add_parser("smoke")
    s.add_argument("--binary")
    args = p.parse_args(argv)
    try:
        return {"run": cmd_run, "compare": cmd_compare,
                "smoke": cmd_smoke}[args.cmd](args)
    except bench.BenchError as e:
        bench.log(f"benchmark: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
