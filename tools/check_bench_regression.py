#!/usr/bin/env python3
"""Guard benchmark regressions in CI.

Runs the manifest's list of checks (--manifest), each comparing a freshly
generated benchmark JSON against a committed baseline. Three metric kinds
are understood:
  - service_p99:        BENCH_service.json (tools/sgm_serve --out);
                        per-pass latency.p99_ms, higher is worse.
  - benchmark_cpu_time: google-benchmark --benchmark_out JSON;
                        per-benchmark cpu_time, higher is worse.
  - dynamic_speedup:    BENCH_dynamic.json (bench_dynamic_updates);
                        a floor check — the incremental-vs-rebuild
                        speedup must stay at or above the check's
                        min_speedup (default 10), and the per-batch
                        count cross-check must have passed.
Every check prints a per-metric table and the run fails if any metric
exceeds its budget.

Budgets combine a fractional threshold with an absolute slack floor:
sub-millisecond baselines are noisy on shared CI runners, so the floor
absorbs scheduler jitter that a pure ratio would flag.

Exit codes: 0 = within budget, 1 = regression, 2 = usage or I/O error.
"""

import argparse
import json
import sys


def fail_usage(message):
    print(f"check_bench_regression: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as err:
        fail_usage(f"cannot read {path}: {err}")
    except json.JSONDecodeError as err:
        fail_usage(f"{path} is not JSON: {err}")


def load_service_metrics(path):
    """BENCH_service.json -> {pass key: p99 ms}."""
    doc = load_json(path)
    if doc.get("bench") != "service" or not isinstance(doc.get("passes"), list):
        fail_usage(f"{path} is not a BENCH_service.json document "
                   "(expected bench=service with a passes array)")
    metrics = {}
    for entry in doc["passes"]:
        key = "cache-on" if entry.get("cache") else "cache-off"
        p99 = entry.get("latency", {}).get("p99_ms")
        if not isinstance(p99, (int, float)):
            fail_usage(f"pass {key} in {path} has no latency.p99_ms")
        metrics[key] = float(p99)
    if not metrics:
        fail_usage(f"{path} has no passes")
    return metrics


_TIME_UNIT_TO_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}


def load_benchmark_metrics(path):
    """google-benchmark JSON -> {benchmark name: cpu_time ms}."""
    doc = load_json(path)
    if not isinstance(doc.get("benchmarks"), list):
        fail_usage(f"{path} is not a google-benchmark JSON document "
                   "(expected a benchmarks array)")
    metrics = {}
    for entry in doc["benchmarks"]:
        if entry.get("run_type") == "aggregate":
            continue  # compare raw runs, not mean/median/stddev rows
        name = entry.get("name")
        cpu = entry.get("cpu_time")
        unit = entry.get("time_unit", "ns")
        if not isinstance(name, str) or not isinstance(cpu, (int, float)):
            fail_usage(f"benchmark entry without name/cpu_time in {path}")
        if unit not in _TIME_UNIT_TO_MS:
            fail_usage(f"unknown time_unit '{unit}' in {path}")
        metrics[name] = float(cpu) * _TIME_UNIT_TO_MS[unit]
    if not metrics:
        fail_usage(f"{path} has no benchmarks")
    return metrics


_LOADERS = {
    "service_p99": load_service_metrics,
    "benchmark_cpu_time": load_benchmark_metrics,
}


def load_dynamic_doc(path):
    """BENCH_dynamic.json -> the whole document, validated."""
    doc = load_json(path)
    if doc.get("bench") != "dynamic_updates":
        fail_usage(f"{path} is not a BENCH_dynamic.json document "
                   "(expected bench=dynamic_updates)")
    if not isinstance(doc.get("speedup"), (int, float)):
        fail_usage(f"{path} has no numeric speedup")
    return doc


def check_dynamic_speedup(name, baseline_path, current_path, min_speedup):
    """Floor check: speedup >= min_speedup, counts identical. The baseline
    is informational (printed for context), not a ratio budget — speedups
    vary with machine load far more than latencies do."""
    baseline = load_dynamic_doc(baseline_path)
    current = load_dynamic_doc(current_path)
    speedup = float(current["speedup"])
    consistent = current.get("counts_identical") is True
    failed = False
    print(f"== {name} (floor {min_speedup:g}x) ==")
    print(f"  speedup   {speedup:9.1f}x vs baseline "
          f"{float(baseline['speedup']):9.1f}x  floor {min_speedup:g}x  "
          f"{'OK' if speedup >= min_speedup else 'REGRESSION'}")
    if speedup < min_speedup:
        failed = True
    print(f"  counts    {'identical' if consistent else 'DIVERGED'}  "
          f"{'OK' if consistent else 'REGRESSION'}")
    if not consistent:
        failed = True
    return failed


def compare(name, baseline, current, max_regression, slack_ms):
    """Prints the per-metric table for one check; returns True on failure."""
    failed = False
    width = max([len(k) for k in baseline] + [len(k) for k in current] + [6])
    print(f"== {name} (threshold +{max_regression * 100:.0f}%, "
          f"slack {slack_ms:g} ms) ==")
    for key, base in sorted(baseline.items()):
        if key not in current:
            print(f"  {key:<{width}}  missing from current run -> REGRESSION")
            failed = True
            continue
        cur = current[key]
        budget = base * (1.0 + max_regression) + slack_ms
        delta = (cur / base - 1.0) * 100.0 if base > 0.0 else 0.0
        verdict = "OK" if cur <= budget else "REGRESSION"
        print(f"  {key:<{width}}  {cur:9.3f} ms vs {base:9.3f} ms "
              f"({delta:+6.1f}%)  budget {budget:9.3f} ms  {verdict}")
        if cur > budget:
            failed = True
    for key in sorted(set(current) - set(baseline)):
        print(f"  {key:<{width}}  not in baseline, skipping "
              f"({current[key]:.3f} ms)")
    return failed


def run_manifest(path, default_regression, default_slack):
    doc = load_json(path)
    checks = doc.get("checks")
    if not isinstance(checks, list) or not checks:
        fail_usage(f"{path} has no checks array")
    failed = False
    for check in checks:
        kind = check.get("kind")
        if kind not in _LOADERS and kind != "dynamic_speedup":
            fail_usage(f"check {check.get('name', '?')} in {path} has "
                       f"unknown kind '{kind}'")
        for field in ("baseline", "current"):
            if not isinstance(check.get(field), str):
                fail_usage(f"check {check.get('name', '?')} in {path} "
                           f"lacks a '{field}' path")
        if kind == "dynamic_speedup":
            if check_dynamic_speedup(check.get("name", check["current"]),
                                     check["baseline"], check["current"],
                                     float(check.get("min_speedup", 10.0))):
                failed = True
            continue
        loader = _LOADERS[kind]
        if compare(check.get("name", check["current"]),
                   loader(check["baseline"]),
                   loader(check["current"]),
                   float(check.get("max_regression", default_regression)),
                   float(check.get("slack_ms", default_slack))):
            failed = True
    return failed


def main():
    parser = argparse.ArgumentParser(
        description="Fail when benchmark metrics regress vs their baselines.")
    parser.add_argument("--manifest", required=True,
                        help="JSON manifest of checks: {checks: [{name, kind, "
                             "baseline, current, max_regression, slack_ms}]}")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed fractional increase when a check does "
                             "not set its own (default 0.25)")
    parser.add_argument("--slack-ms", type=float, default=2.0,
                        help="absolute slack added to every budget, absorbing "
                             "scheduler noise on tiny latencies (default 2.0)")
    args = parser.parse_args()
    if args.max_regression < 0.0 or args.slack_ms < 0.0:
        parser.error("--max-regression and --slack-ms must be non-negative")

    failed = run_manifest(args.manifest, args.max_regression, args.slack_ms)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
