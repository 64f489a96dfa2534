#!/usr/bin/env python3
"""Compare two checkouts on the end-to-end benchmark.

  python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR [--pairs 10]
  python3 bench/e2e/compare.py --same DIR [--pairs 10]

PARENT_DIR and CHANGE_DIR are repository checkouts; each side runs its own
bench/e2e/run.py (which builds that checkout into its build-e2e/). For every
workload, pair i runs both sides with seed SEED_BASE + i, the parent first
on even pairs and the change first on odd ones. Per workload and
end-to-end metric the report gives each side's median and quartiles, the
change's wins, and a verdict:

  gain         the change wins >= 9/10 of the pairs and the medians differ
               by more than the parent's own quartile spread
  regression   the change's median is worse than the parent's by more
               than the metric's bound in BENCHMARK.json
  loss         the mirror of gain, within the bound: the change loses
               >= 9/10 of the pairs and the medians differ by more than
               the parent's quartile spread. The bound is one per metric
               and set by the noisiest workload, so on a steadier workload
               a slowdown can be clear and still within it
  unresolved   the parent's spread (IQR / median) exceeds the bound, and
               not every change run beats every parent run
  ok           none of the above

--same runs one checkout on both sides; every metric must then show
medians that differ by less than its bound. Exits 1 on a regression (or,
with --same, on any metric outside its bound).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["build-heavy", "enum-heavy", "update-mix", "shard-k4"]
SEED_BASE = 1000


def run_once(checkout, workload, seed):
    cmd = ["python3", os.path.join(checkout, "bench/e2e/run.py"),
           "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("%s: run failed (%s, seed %d)" % (checkout, workload, seed))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("%s: incorrect output (%s, seed %d)" %
                 (checkout, workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def verdict(spec, parent, change, same):
    lower = spec["better"] == "lower"
    p, c = summary(parent), summary(change)
    sign = 1.0 if lower else -1.0
    # Positive: the change is worse.
    worse_by = sign * (c["median"] - p["median"]) / p["median"]
    spread = (p["q3"] - p["q1"]) / p["median"]
    wins = sum(1 for a, b in zip(parent, change)
               if (b < a if lower else b > a))
    losses = sum(1 for a, b in zip(parent, change)
                 if (b > a if lower else b < a))
    clear = abs(c["median"] - p["median"]) > p["q3"] - p["q1"]
    all_better = (max(change) < min(parent)) if lower else \
        (min(change) > max(parent))
    if same:
        name = "ok" if abs(worse_by) < spec["bound"] else "outside-bound"
    elif spread > spec["bound"] and not all_better:
        name = "unresolved"
    elif worse_by > spec["bound"]:
        name = "regression"
    elif clear and worse_by < 0 and wins >= 0.9 * len(parent):
        name = "gain"
    elif clear and worse_by > 0 and losses >= 0.9 * len(parent):
        name = "loss"
    else:
        name = "ok"
    return {"parent": p, "change": c, "worse_by": worse_by, "wins": wins,
            "verdict": name}


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("dirs", nargs="+", metavar="DIR")
    parser.add_argument("--same", action="store_true")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args()
    if len(args.dirs) != (1 if args.same else 2):
        parser.error("give PARENT_DIR CHANGE_DIR, or --same DIR")
    parent_dir = os.path.abspath(args.dirs[0])
    change_dir = os.path.abspath(args.dirs[-1])
    if args.pairs < 4:
        parser.error("--pairs must be at least 4 (quartiles)")
    with open(os.path.join(parent_dir, "BENCHMARK.json")) as f:
        specs = json.load(f)["end_to_end"]

    failed = False
    for workload in args.workload or WORKLOADS:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = SEED_BASE + i
            order = ["parent", "change"] if i % 2 == 0 else \
                ["change", "parent"]
            for side in order:
                checkout = parent_dir if side == "parent" else change_dir
                runs[side].append(run_once(checkout, workload, seed))
            print("%s pair %d/%d done" % (workload, i + 1, args.pairs),
                  file=sys.stderr, flush=True)
        print("\n%s (%d pairs)" % (workload, args.pairs))
        print("%-12s %12s %12s %12s %12s %6s %8s  %s" %
              ("metric", "parent.med", "parent.iqr", "change.med",
               "change.iqr", "wins", "worse", "verdict"))
        for spec in specs:
            parent = [r[spec["name"]] for r in runs["parent"]]
            change = [r[spec["name"]] for r in runs["change"]]
            v = verdict(spec, parent, change, args.same)
            failed |= v["verdict"] in ("regression", "outside-bound")
            print("%-12s %12.5g %12.5g %12.5g %12.5g %3d/%-2d %+7.2f%%  %s"
                  % (spec["name"], v["parent"]["median"],
                     v["parent"]["q3"] - v["parent"]["q1"],
                     v["change"]["median"],
                     v["change"]["q3"] - v["change"]["q1"], v["wins"],
                     args.pairs, 100 * v["worse_by"], v["verdict"]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
