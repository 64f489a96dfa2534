#!/usr/bin/env python3
"""End-to-end serving benchmark runner.

Builds the benchmark (bench/e2e/CMakeLists.txt, which pulls in src/) into
build-e2e/ at the repository root, runs each requested workload in its own
process, checks the outputs, prints one `name value unit n=<samples>` line
per metric, writes build-e2e/out/<workload>.json, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}.

  python3 bench/e2e/run.py --workload build-heavy --seed 7 --seconds 20 --trace 0
  python3 bench/e2e/run.py [--seed S] [--workload W] [--trace]   # all four by default
  python3 bench/e2e/run.py --smoke    # every workload at 1/50 size, < 30 s

Without --trace the metrics are the end-to-end list of BENCHMARK.json;
with --trace they are the per-layer list, and a Chrome trace is written to
build-e2e/out/trace_<workload>.json. Exits non-zero when a build fails or
any check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_DIR = os.path.join(ROOT, "build-e2e")
OUT_DIR = os.path.join(BUILD_DIR, "out")
WORKLOADS = ["build-heavy", "enum-heavy", "update-mix", "shard-k4"]
SMOKE_SCALE = 0.02
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build(targets):
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", BUILD_DIR, "-j", "4", "--target"] + targets):
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            sys.exit(1)


def run_workload(args, workload, baseline):
    cmd = [os.path.join(BUILD_DIR, "sgm_e2e_bench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.smoke:
        cmd += ["--scale", str(SMOKE_SCALE)]
    if args.trace:
        cmd += ["--trace", "--trace-out",
                os.path.join(OUT_DIR, "trace_%s.json" % workload)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s: timed out after %d s" % (workload, RUN_TIMEOUT_S))
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("%s: sgm_e2e_bench exited %d" % (workload, proc.returncode))
        sys.exit(1)
    result = json.loads(lines[-1])

    # Input drift check: at the default seed the fingerprint and the
    # expected match total must equal the recorded ones.
    scale_key = "smoke" if args.smoke else "full"
    pinned = baseline["inputs"][scale_key].get(workload)
    if args.seed == baseline["default_seed"] and pinned is not None:
        for key in ("fingerprint", "expected_total"):
            if result[key] != pinned[key]:
                log("%s: %s %s differs from the recorded %s" %
                    (workload, key, result[key], pinned[key]))
                result["failed"] += 1
                result["correct"] = False
    return result


def main():
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    baseline = load_json(os.path.join(HERE, "baseline.json"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=baseline["default_seed"])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        args.seconds, args.trace = 1.0, 1
    workloads = args.workload or WORKLOADS

    build(["sgm_e2e_bench", "sgm_e2e_selftest"] if args.smoke
          else ["sgm_e2e_bench"])
    if args.smoke and subprocess.run(
            [os.path.join(BUILD_DIR, "sgm_e2e_selftest")],
            stdout=sys.stderr).returncode:
        sys.exit(1)
    os.makedirs(OUT_DIR, exist_ok=True)

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        result = run_workload(args, workload, baseline)
        with open(os.path.join(OUT_DIR, workload + ".json"), "w") as f:
            json.dump(result, f, indent=1)
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = "" if len(workloads) == 1 else workload + "/"
        for spec in wanted:
            m = result["metrics"].get(spec["name"])
            if m is None:
                log("%s: metric %s missing" % (workload, spec["name"]))
                sys.exit(1)
            print("%s%s %.6g %s n=%d" %
                  (prefix, spec["name"], m["value"], m["unit"], m["n"]))
            metrics[prefix + spec["name"]] = {"value": m["value"],
                                              "unit": spec["unit"]}
        print("%sfail_ratio %.6g ratio n=%d" %
              (prefix, result["failed"] / max(1, result["attempted"]),
               result["attempted"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
