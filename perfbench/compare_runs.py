#!/usr/bin/env python3
"""Compare two sets of EXP-E1 result files against BENCHMARK.json.

    python3 perfbench/compare_runs.py BASE_DIR NEW_DIR [--layers]

Each directory holds the per-run reports perfbench/run.py leaves in
<build>/results/ (<workload>-seed<N>-trace<T>.json); copy that directory
aside after running the base commit, then run the new one. Checks:

  * runs of the same workload and seed must have the same outputs_digest,
    and traced runs the same values for every count metric;
  * for every end-to-end metric and workload, the new median over seeds may
    be worse than the base median by at most the metric's bound. When the
    base runs' own spread (interquartile range over median) is wider than
    the bound the row is "unresolved", unless every new run is better than
    every base run. The "paired" column is the median change between runs
    of the same seed, which cancels slow phases of the host when the two
    sets were run alternately.

Prints one row per (metric, workload); --layers adds the per-layer medians.
Exits 1 on a digest or count mismatch or a regression. Python 3 standard
library only.
"""
import argparse
import glob
import json
import os
import statistics
import sys


def load(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-seed*-trace*.json"))):
        with open(path) as f:
            r = json.load(f)
        runs[(r["workload"], r["seed"], r["trace"])] = r
    return runs


def spread(values):
    """Interquartile range over median, as statistics.quantiles gives it."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(med)


def values(runs, workload, trace, metric):
    return {s: r["metrics"][metric]["value"]
            for (w, s, t), r in runs.items()
            if w == workload and t == trace and metric in r["metrics"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    ap.add_argument("--layers", action="store_true",
                    help="also print per-layer medians (no verdict)")
    args = ap.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    base, new = load(args.base), load(args.new)
    if not base or not new:
        sys.exit("no result files in %s" % (args.base if not base else args.new))
    bad = False

    for key in sorted(set(base) & set(new)):
        b, n = base[key], new[key]
        label = "%s seed %s trace %s" % key
        if b["outputs_digest"] != n["outputs_digest"]:
            print("DIGEST   %s: %s != %s" % (label, b["outputs_digest"],
                                             n["outputs_digest"]))
            bad = True
        for m, v in b["metrics"].items():
            if v["unit"] == "count" and m in n["metrics"] and \
                    n["metrics"][m]["value"] != v["value"]:
                print("COUNT    %s %s: %s != %s" % (
                    label, m, v["value"], n["metrics"][m]["value"]))
                bad = True

    workloads = [w["name"] for w in spec["workloads"]]
    print("%-15s %-15s %12s %12s %7s %7s %7s %6s  %s" % (
        "metric", "workload", "base median", "new median", "change",
        "paired", "spread", "bound", "verdict"))
    for m in spec["end_to_end"]:
        sign = 1.0 if m["better"] == "lower" else -1.0
        for w in workloads:
            bs, ns = values(base, w, 0, m["name"]), values(new, w, 0, m["name"])
            if not bs or not ns:
                continue
            bv, nv = list(bs.values()), list(ns.values())
            bmed, nmed = statistics.median(bv), statistics.median(nv)
            worse = sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
            # Same seed on both sides, run back to back: the host's slow
            # phases cancel in the ratio.
            pairs = [sign * (ns[k] / bs[k] - 1.0) for k in bs
                     if k in ns and bs[k]]
            paired = statistics.median(pairs) if pairs else float("nan")
            sp = spread(bv)
            if worse > m["bound"]:
                verdict = "REGRESSION"
                bad = True
            elif sp > m["bound"]:
                all_better = all(sign * x < sign * y for x in nv for y in bv)
                verdict = "better" if all_better else "unresolved"
            else:
                verdict = "ok"
            print("%-15s %-15s %12.6g %12.6g %+6.1f%% %+6.1f%% %6.1f%% %5.0f%%"
                  "  %s (n=%d/%d)" % (
                      m["name"], w, bmed, nmed, 100.0 * worse, 100.0 * paired,
                      100.0 * sp, 100.0 * m["bound"], verdict, len(bv),
                      len(nv)))
    if args.layers:
        print()
        for m in spec["per_layer"]:
            for w in workloads:
                bv = list(values(base, w, 1, m["name"]).values())
                nv = list(values(new, w, 1, m["name"]).values())
                if bv and nv and (any(bv) or any(nv)):
                    print("%-30s %-16s %13.6g %13.6g %s" % (
                        m["name"], w, statistics.median(bv),
                        statistics.median(nv), m["unit"]))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
