#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results.

    compare.py SET_A SET_B [--benchmark BENCHMARK.json]
    compare.py --self-test

A set is a directory of results files written by e2e_bench (one JSON
object per run; bench/e2e/baseline/ is one). For every workload present
in both sets, prints each set's median and quartiles and a verdict for B
against A on:

  - every end-to-end metric of BENCHMARK.json, with its bound;
  - fail_ratio, the set's failed / attempted over all its runs, where any
    increase is worse;
  - the workload metrics of WORKLOAD_METRICS below, which only some
    workloads report (results files keep them under "workload_metrics").
    They depend on the seed, so they are compared only when both sets
    ran the same seeds; otherwise their rows read "skipped".

Verdicts:

  better      B's median is better than A's by more than the bound
  same        the medians differ by no more than the bound, and B is not
              flagged as below
  worse       B's median is worse than A's by more than the bound
  unresolved  a set's spread (quartile distance over median) is wider
              than the bound, so the runs cannot tell (reported as
              better only when every run of B beats every run of A); or
              B is worse by less than the bound but by more than half
              of it and more than the spread of either set

Exits 1 when any verdict is worse or unresolved, else 0.
"""

import argparse
import io
import json
import os
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")

# End-to-end metrics of single workloads. BENCHMARK.json holds only the
# ones every workload reports, so these bounds live here; they come from
# the same 10-seed spreads as BENCHMARK.json's (README.md).
WORKLOAD_METRICS = [
    {"name": "rel_error_p50", "unit": "ratio", "better": "lower",
     "bound": 0.05},
    {"name": "rel_error_p90", "unit": "ratio", "better": "lower",
     "bound": 0.05},
]
# Compared exactly: a bound of 0 makes any increase worse.
FAIL_RATIO = {"name": "fail_ratio", "unit": "ratio", "better": "lower",
              "bound": 0.0}
# load_set's key for the seeds of a workload's runs.
SEEDS = "seeds"


def load_set(path):
    """{workload: {metric: [values]}} from every results file in `path`.

    fail_ratio holds one value, pooled over the set's runs; SEEDS holds
    the sorted seeds of the runs."""
    out = {}
    counts = {}
    for name in sorted(os.listdir(path)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(path, name), encoding="utf-8") as f:
            doc = json.load(f)
        metrics = out.setdefault(doc["workload"], {})
        for section in ("end_to_end", "workload_metrics"):
            for metric, entry in doc.get(section, {}).items():
                metrics.setdefault(metric, []).append(float(entry["value"]))
        metrics.setdefault(SEEDS, []).append(
            doc.get("hardware", {}).get("seed"))
        failed, attempted = counts.get(doc["workload"], (0, 0))
        counts[doc["workload"]] = (failed + doc["failed"],
                                   attempted + max(doc["attempted"], 1))
    for workload, (failed, attempted) in counts.items():
        out[workload][FAIL_RATIO["name"]] = [failed / attempted]
        out[workload][SEEDS].sort(key=str)
    return out


def summary(values):
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values):
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a, b, better, bound):
    """Verdict for B against A; `better` is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = summary(a)[0], summary(b)[0]
    if bound == 0.0:
        change = sign * (med_b - med_a)
        return "worse" if change > 0 else "better" if change < 0 else "same"
    if max(spread(a), spread(b)) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better"
        return "unresolved"
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    # Within the bound, but worse by more than half of it and by more than
    # either set varies in itself: likely a real regression that a bound
    # as wide as this box's noise does not catch.
    if worse_by > max(spread(a), spread(b), bound / 2):
        return "unresolved"
    return "same"


def compare(set_a, set_b, benchmark, out):
    """Prints the comparison table; returns the list of verdicts."""
    verdicts = []
    out.write("%-14s %-20s %24s %24s %8s %8s %7s  %s\n" % (
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
        "change", "spread", "bound", "verdict"))
    gated = benchmark["end_to_end"] + [FAIL_RATIO] + WORKLOAD_METRICS
    for workload in sorted(set(set_a) & set(set_b)):
        same_seeds = set_a[workload][SEEDS] == set_b[workload][SEEDS]
        for m in gated:
            a = set_a[workload].get(m["name"])
            b = set_b[workload].get(m["name"])
            if not a or not b:
                continue
            if m in WORKLOAD_METRICS and not same_seeds:
                v = "skipped"
            else:
                v = verdict(a, b, m["better"], m["bound"])
                verdicts.append(v)
            sa, sb = summary(a), summary(b)
            change = (sb[0] - sa[0]) / abs(sa[0]) if sa[0] else 0.0
            row = "%-14s %-20s %24s %24s %+7.1f%% %7.1f%% %6.0f%%  %s\n"
            out.write(row % (
                workload, m["name"],
                "%.4g [%.4g, %.4g]" % sa, "%.4g [%.4g, %.4g]" % sb,
                100 * change, 100 * max(spread(a), spread(b)),
                100 * m["bound"], v))
    return verdicts


def self_test():
    benchmark = {"end_to_end": [
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "throughput_rps", "unit": "1/s", "better": "higher",
         "bound": 0.1}]}
    steady = [10, 10.2, 9.9, 10.1, 10]
    no_fail = [0] * 5
    err = [0.1] * 5
    # Per case, A's and B's p50_ms values, their throughput_rps values,
    # their failed counts out of 100 attempted, their rel_error_p50 values
    # (a workload metric, bound 0.05), and the expected verdicts on p50_ms,
    # throughput_rps, fail_ratio and rel_error_p50. Both sets run seeds
    # 1-5, except in the cases of `other_seeds`, where B runs 6-10 and
    # rel_error_p50 gets no verdict.
    other_seeds = {6}
    cases = [
        (steady, [10.1, 10, 10.2, 9.9, 10],
         [100, 101, 99, 100, 100], [100, 99, 101, 100, 100],
         no_fail, no_fail, err, err, ["same", "same", "same", "same"]),
        (steady, [12, 12.1, 11.9, 12.2, 12],
         [100, 101, 99, 100, 100], [80, 81, 79, 80, 80],
         no_fail, [0, 0, 1, 0, 0], err, [0.12] * 5,
         ["worse", "worse", "worse", "worse"]),
        (steady, [8, 8.1, 7.9, 8.2, 8],
         [100, 101, 99, 100, 100], [130, 131, 129, 130, 130],
         [0, 2, 0, 0, 0], no_fail, err, [0.08] * 5,
         ["better", "better", "better", "better"]),
        ([10, 14, 8, 12, 9], [10, 11, 12, 9, 13],
         [100, 140, 80, 120, 90], [300, 310, 305, 299, 301],
         no_fail, no_fail, [0.1, 0.14, 0.08, 0.12, 0.09], [0.07] * 5,
         ["unresolved", "better", "same", "better"]),
        (steady, [10.6, 10.7, 10.5, 10.6, 10.6],
         [100, 101, 99, 100, 100], [94, 95, 93, 94, 94],
         no_fail, no_fail, err, [0.104] * 5,
         ["unresolved", "unresolved", "same", "unresolved"]),
        (steady, [10.3, 10.3, 10.3, 10.3, 10.3],
         [100, 101, 99, 100, 100], [97, 97, 97, 97, 97],
         no_fail, no_fail, err, [0.102] * 5,
         ["same", "same", "same", "same"]),
        (steady, steady, [100] * 5, [100] * 5, no_fail, no_fail, err,
         [0.5] * 5, ["same", "same", "same"]),
    ]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for n, (pa, pb, ra, rb, fa, fb, ea, eb, expected) in enumerate(cases):
            dirs = []
            for side, runs in (("a", zip(pa, ra, fa, ea)),
                               ("b", zip(pb, rb, fb, eb))):
                d = os.path.join(tmp, "%d%s" % (n, side))
                os.mkdir(d)
                seed = 6 if side == "b" and n in other_seeds else 1
                for k, (p50, rps, failed, rel_error) in enumerate(runs):
                    with open(os.path.join(d, "r%d.json" % k), "w") as f:
                        json.dump({
                            "workload": "w", "hardware": {"seed": seed + k},
                            "attempted": 100,
                            "failed": failed,
                            "end_to_end": {
                                "p50_ms": {"value": p50, "unit": "ms"},
                                "throughput_rps": {"value": rps,
                                                   "unit": "1/s"}},
                            "workload_metrics": {
                                "rel_error_p50": {"value": rel_error,
                                                  "unit": "ratio"}},
                        }, f)
                dirs.append(d)
            got = compare(load_set(dirs[0]), load_set(dirs[1]), benchmark,
                          io.StringIO())
            if got != expected:
                failures += 1
                print("self-test case %d: got %s, want %s"
                      % (n, got, expected))
    print("compare.py self-test: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("set_a", nargs="?")
    parser.add_argument("set_b", nargs="?")
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.set_a or not args.set_b:
        parser.error("need two result sets")
    with open(args.benchmark, encoding="utf-8") as f:
        benchmark = json.load(f)
    verdicts = compare(load_set(args.set_a), load_set(args.set_b), benchmark,
                       sys.stdout)
    if not verdicts:
        print("compare.py: no workload in common", file=sys.stderr)
        return 1
    return 1 if any(v in ("worse", "unresolved") for v in verdicts) else 0


if __name__ == "__main__":
    sys.exit(main())
