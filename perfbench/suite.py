"""Run every workload over several seeds and summarize, in one command.

    python3 perfbench/suite.py [--seeds 10] [--first-seed 1] [--label NAME]

Calls ``run.py`` once per (seed, workload), seeds in the outer loop, with
the run length from ``BENCHMARK.json``; then once per workload with
``--trace 1``, using the first seed.  Prints, per workload, every end-to-end metric
with its unit, run count, median, upper quartile and maximum over runs, the
spread (interquartile distance over median) against the metric's bound, the
failure fraction and the correctness verdict; then the traced per-layer
table.  ``--label NAME`` also writes ``results/BENCH_<NAME>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=200)
    except subprocess.TimeoutExpired:
        return {"workload": workload, "seed": seed, "trace": trace, "exit": None,
                "stderr": "timed out", "wall_s": time.perf_counter() - start, "correct": False}
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"workload": workload, "seed": seed, "trace": trace, "exit": proc.returncode,
                "stderr": proc.stderr[-2000:], "wall_s": wall, "correct": False}
    result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "trace": trace, "exit": 0, "wall_s": wall,
            **result, "detail": json.loads(lines[-2])["detail"]}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile (``statistics.quantiles``, n=4) and
    the interquartile distance as a share of the median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def summarize(runs: list[dict], bench: dict) -> dict:
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    out = {}
    for workload in sorted({r["workload"] for r in runs}, key=WORKLOADS.index):
        plain = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        ok = [r for r in plain if r.get("metrics")]
        attempted = sum(r.get("attempted", 0) for r in plain)
        failed = sum(r.get("failed", 0) for r in plain)
        metrics = {}
        for name, spec in bounds.items():
            values = [r["metrics"][name]["value"] for r in ok]
            if not values:
                continue
            med, q1, q3, rel = spread(values)
            metrics[name] = {"unit": spec["unit"], "runs": len(values),
                             "samples": sum(sample_count(r, name) for r in ok),
                             "median": med, "q1": q1, "q3": q3, "max": max(values),
                             "spread": rel, "bound": spec["bound"],
                             "within_bound": rel <= spec["bound"]}
        out[workload] = {
            "correct": bool(plain) and all(r["correct"] for r in plain),
            "attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted if attempted else 1.0,
            "cpu_share": statistics.median(
                v for r in ok for v in r["detail"]["samples"]["cpu_share"]["values"]),
            "metrics": metrics,
        }
        traced = [r for r in runs if r["workload"] == workload and r["trace"] == 1
                  and r.get("metrics")]
        if traced:
            out[workload]["per_layer"] = {
                name: statistics.median(r["metrics"][name]["value"] for r in traced)
                for name in traced[0]["metrics"]
            }
            out[workload]["traced_correct"] = all(r["correct"] for r in traced)
            out[workload]["trace_detail"] = traced[0]["detail"]
    return out


def sample_count(run: dict, metric: str) -> int:
    samples = run["detail"]["samples"]
    return samples["trial_ms" if metric.startswith("trial_ms") else metric]["n"]


def print_summary(summary: dict) -> None:
    print(f"{'workload':<20} {'metric':<14} {'unit':<5} {'runs':>4} {'samples':>7} "
          f"{'median':>11} {'q3':>11} {'max':>11} {'spread':>7} {'bound':>6} within")
    for workload, s in summary.items():
        for name, m in s["metrics"].items():
            print(f"{workload:<20} {name:<14} {m['unit']:<5} {m['runs']:>4} {m['samples']:>7} "
                  f"{m['median']:>11.5g} {m['q3']:>11.5g} {m['max']:>11.5g} "
                  f"{m['spread']:>7.4f} {m['bound']:>6} {m['within_bound']}")
        print(f"{workload:<20} correct={s['correct']} failed_frac={s['failed_frac']:.4g} "
              f"({s['failed']}/{s['attempted']} invocations) cpu/wall={s['cpu_share']:.3f}")
    for workload, s in summary.items():
        layers = s.get("per_layer")
        if not layers:
            continue
        d = s["trace_detail"]
        print(f"\n{workload}: traced per-layer medians (traced run_s {d['traced_run_s']:.4g} s, "
              f"untraced run_s {d['untraced_run_s']:.4g} s, "
              f"overhead {layers['trace.overhead_s']:.4g} s, "
              f"sum of self times {layers['trace.self_sum_s']:.4g} s)")
        print(f"  {'layer':<40} {'calls':>8} {'incl s':>10} {'self s':>10}")
        names = sorted({k.rsplit('.', 1)[0] for k in layers if k.endswith(".self_s")},
                       key=lambda n: -layers[f"{n}.self_s"])
        for name in names:
            if layers[f"{name}.calls"]:
                print(f"  {name:<40} {layers[f'{name}.calls']:>8.0f} "
                      f"{layers[f'{name}.s']:>10.4f} {layers[f'{name}.self_s']:>10.4f}")
        for key in ("sampling.s_coef_bytes", "sampling.rank_deficient_trials",
                    "sampling.full_rank_frac", "linalg.calls_per_trial"):
            print(f"  {key:<40} {layers[key]:>8.6g}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--label", default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        bench = json.load(fp)
    seconds = bench["run_seconds"]
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for workload in WORKLOADS:
            runs.append(run_once(workload, seed, seconds, 0))
            r = runs[-1]
            print(f"# {workload} seed {seed}: correct={r['correct']} wall {r['wall_s']:.1f} s",
                  file=sys.stderr)
    for workload in WORKLOADS:
        runs.append(run_once(workload, args.first_seed, seconds, 1))
    summary = summarize(runs, bench)
    print_summary(summary)
    if args.label:
        os.makedirs(RESULTS, exist_ok=True)
        path = os.path.join(RESULTS, f"BENCH_{args.label}.json")
        with open(path, "w", encoding="utf-8") as fp:
            provenance = next((r["detail"]["provenance"] for r in runs if "detail" in r), None)
            json.dump({"label": args.label, "run_seconds": seconds, "provenance": provenance,
                       "seeds": [args.first_seed, args.first_seed + args.seeds - 1],
                       "summary": summary, "runs": runs}, fp, indent=1, sort_keys=True)
            fp.write("\n")
        print(f"wrote {os.path.relpath(path, ROOT)}", file=sys.stderr)
    return 0 if all(s["correct"] for s in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
