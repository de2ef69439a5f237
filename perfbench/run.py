"""Benchmark of the stochsamp command-line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) as a closed loop: one process at a
time runs the CLI command once through ``stochsamp.cli.main`` (``invoke.py``),
and the next starts when it has ended, for about ``S`` seconds and at least
twice.  Every invocation's stdout JSON and ``--out`` CSV are checked against
the reference for the seed's case and against the error-bound and
closed-form-leverage oracles.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced invocations and reports the per-layer metrics, with the
run-time difference as the tracing overhead.  A detail line (provenance,
sample counts, upper percentiles, checks) precedes the result, which is the
last line of stdout.  Exit code 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# workloads pins the BLAS thread count, so it is imported before numpy is.
from workloads import (
    BLAS_ENV, BLAS_THREADS, FL_WORKLOADS, FRAME, SIZES, WORKLOADS, case_of, cli_argv, frame_path,
)

import outputs
from tracer import LAYER_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
INVOKE = os.path.join(HERE, "invoke.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")

# A run must end within 180 s; no invocation starts that could cross this.
DEADLINE_S = 165.0
LEVERAGE_TOL = 1e-12

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "trial_ms_p50": "ms",
    "trial_ms_p90": "ms",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}

COUNTS = {
    "sampling.s_coef_bytes": "bytes_computed",
    "sampling.rank_deficient_trials": "count",
    "sampling.full_rank_frac": "ratio",
    "linalg.calls_per_trial": "calls/trial",
    "trace.overhead_s": "s",
    "trace.self_sum_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in LAYER_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTS)
    return units


def provenance() -> dict:
    """Machine and source facts recorded with every result."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            cpu = next((line.split(":", 1)[1].strip() for line in fp
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads_requested": BLAS_THREADS,
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fp:
            head = fp.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as fp:
                return fp.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fp:
            for line in fp:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


@dataclasses.dataclass
class Invocation:
    """One finished CLI process: its timing record, outputs and problems."""

    traced: bool
    wall_s: float
    record: dict = dataclasses.field(default_factory=dict)
    stdout: str = ""
    csv: str = ""
    problems: list[str] = dataclasses.field(default_factory=list)


@contextlib.contextmanager
def work_dir(workload: str):
    """A fresh directory under ``WORK_ROOT``, removed with ``WORK_ROOT`` (when
    empty) on exit."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


def invoke(workdir: str, argv: list[str], traced: bool, fl_oracle: bool,
           timeout: float) -> Invocation:
    for name in ("stdout.txt", "result.json", "out.csv", "out.json"):
        path = os.path.join(workdir, name)
        if os.path.exists(path):
            os.remove(path)
    cmd = [sys.executable, INVOKE, "--workdir", workdir, "--trace", str(int(traced)),
           "--fl-oracle", str(int(fl_oracle)), "--", *argv]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=timeout,
                              env={**os.environ, **BLAS_ENV})
    except subprocess.TimeoutExpired:
        inv = Invocation(traced, time.perf_counter() - start)
        inv.problems.append(f"invocation timed out after {timeout:.0f} s")
        return inv
    inv = Invocation(traced, time.perf_counter() - start)
    if proc.returncode != 0:
        inv.problems.append(f"invoke.py exited {proc.returncode}: {proc.stderr[-2000:]}")
        return inv
    with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fp:
        inv.record = json.load(fp)
    with open(os.path.join(workdir, "stdout.txt"), encoding="utf-8", newline="") as fp:
        inv.stdout = fp.read()
    if inv.record["error"] is not None or inv.record["exit_code"] != 0:
        inv.problems.append(
            f"stochsamp exit code {inv.record['exit_code']}: "
            f"{inv.record['error'] or proc.stderr[-2000:]}"
        )
        return inv
    csv_path = os.path.join(workdir, "out.csv")
    if not os.path.exists(csv_path):
        inv.problems.append("no --out CSV written")
        return inv
    with open(csv_path, encoding="utf-8", newline="") as fp:
        inv.csv = fp.read()
    if inv.record["setup_s"] is None:
        inv.problems.append("no draw_samples call, so no set-up or trial times")
    return inv


def check(inv: Invocation, ref: dict, frame: str | None, first: Invocation | None) -> None:
    """Add every failed correctness check to ``inv.problems``."""
    if inv.problems:
        return
    stdout = outputs.normalize_stdout(inv.stdout, frame)
    inv.problems += outputs.reference_mismatches(ref, stdout, inv.csv)[:10]
    inv.problems += outputs.bound_failures(inv.csv)[:10]
    err = inv.record.get("leverage_rel_err")
    if err is not None and not err <= LEVERAGE_TOL:
        inv.problems.append(f"leverage profile differs from closed form by {err:.3e} relative")
    if first is not None and (inv.stdout, inv.csv) != (first.stdout, first.csv):
        inv.problems.append("outputs differ byte-wise from the run's first good invocation")


def percentile(values, q: int) -> float:
    """Linearly interpolated percentile (numpy's default method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(invs: list[Invocation]) -> tuple[dict, dict]:
    """End-to-end metrics (medians over invocations; trial percentiles pooled)
    and, per metric, sample count, median and upper value."""
    recs = [inv.record for inv in invs]
    trial_ms = [1e3 * t for r in recs for t in r["trial_s"]]
    per_inv = {
        "setup_s": [r["setup_s"] for r in recs],
        "run_s": [r["run_s"] for r in recs],
        "trials_per_s": [len(r["trial_s"]) / (r["run_s"] - r["setup_s"]) for r in recs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in recs],
    }
    metrics = {name: statistics.median(vals) for name, vals in per_inv.items()}
    metrics["trial_ms_p50"] = percentile(trial_ms, 50)
    metrics["trial_ms_p90"] = percentile(trial_ms, 90)
    samples = {
        name: {"n": len(vals), "median": statistics.median(vals),
               "upper": max(vals), "upper_is": "max", "values": vals}
        for name, vals in per_inv.items()
    }
    samples["trial_ms"] = {"n": len(trial_ms), "median": percentile(trial_ms, 50),
                           "upper": percentile(trial_ms, 90), "upper_is": "p90"}
    # CPU time over wall time of main: near 1 means a slower run computed
    # slower rather than waited.
    cpu_share = [r["cpu_s"] / r["run_s"] for r in recs]
    samples["cpu_share"] = {"n": len(cpu_share), "median": statistics.median(cpu_share),
                            "values": cpu_share}
    return metrics, samples


def per_layer(invs: list[Invocation]) -> tuple[dict, dict] | tuple[None, None]:
    """Per-layer metrics (medians over traced invocations) and the traced and
    untraced run times they are compared with."""
    traced = [inv.record for inv in invs if inv.traced]
    plain = [inv.record for inv in invs if not inv.traced]
    if not traced or not plain:
        return None, None
    metrics = {key: statistics.median(r["layers"][key] for r in traced)
               for key in traced[0]["layers"]}
    run_s = {"traced_run_s": statistics.median(r["run_s"] for r in traced),
             "untraced_run_s": statistics.median(r["run_s"] for r in plain)}
    metrics["trace.overhead_s"] = run_s["traced_run_s"] - run_s["untraced_run_s"]
    metrics["trace.self_sum_s"] = statistics.median(r["self_sum_s"] for r in traced)
    return metrics, run_s


def properties(size: str, inv: Invocation) -> dict:
    """Generated input properties as the program reports them."""
    report = json.loads(inv.stdout)
    model = report["model"]
    if model["kind"] == "fourier-legendre":
        ambient, j_count = model["ambient"], model["J"]
    else:
        ambient = j_count = FRAME[size][0]
    lines = inv.csv.splitlines()
    m_col = lines[0].split(",").index("m")
    return {
        "command": report["command"], "ambient": ambient, "J": j_count,
        "n": report.get("n", report.get("n_sweep")),
        "m": sorted({int(line.split(",")[m_col]) for line in lines[1:]}),
        "trials": report["trials"],
        "rank_deficient_share": outputs.rank_deficient_share(inv.csv),
    }


def measure(workload: str, size: str, case: int, seconds: float, trace: bool) -> list[Invocation]:
    """Invoke the workload until about ``seconds`` have passed (at least
    twice), alternating untraced and traced invocations when tracing."""
    ref = outputs.load_reference(size, workload, case)
    fl_oracle = workload in FL_WORKLOADS
    invs: list[Invocation] = []
    with work_dir(workload) as workdir:
        start = time.perf_counter()
        argv = cli_argv(workload, size, case, workdir)
        frame = frame_path(workdir) if os.path.exists(frame_path(workdir)) else None
        while True:
            traced = trace and len(invs) % 2 == 1
            timeout = max(DEADLINE_S - (time.perf_counter() - start), 1.0)
            inv = invoke(workdir, argv, traced, fl_oracle, timeout)
            check(inv, ref, frame, next((i for i in invs if not i.problems), None))
            for problem in inv.problems:
                print(f"[{workload} invocation {len(invs)}] {problem}", file=sys.stderr)
            invs.append(inv)
            elapsed = time.perf_counter() - start
            if elapsed + 1.2 * max(i.wall_s for i in invs) > DEADLINE_S:
                break
            if len(invs) >= 2 and elapsed + statistics.fmean(i.wall_s for i in invs) > seconds:
                break
    return invs


def run(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    case = case_of(seed)
    invs = measure(workload, size, case, seconds, trace)
    good = [inv for inv in invs if not inv.problems]
    failed = len(invs) - len(good)
    detail = {
        "workload": workload, "seed": seed, "case": case, "size": size,
        "trace": int(trace), "seconds": seconds, "provenance": provenance(),
        "attempted": len(invs), "failed": failed, "failed_frac": failed / len(invs),
        "problems": [p for inv in invs for p in inv.problems][:20],
    }
    metrics = None
    if good:
        for key in ("numpy", "openblas", "blas_threads"):
            detail["provenance"][key] = good[0].record[key]
        detail["properties"] = properties(size, good[0])
        if trace:
            metrics, run_s = per_layer(good)
            detail.update(run_s or {})
        else:
            metrics, detail["samples"] = end_to_end(good)
    return {"detail": detail, "metrics": metrics,
            "units": per_layer_units() if trace else END_TO_END,
            "attempted": len(invs), "failed": failed}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="'small' shrinks every workload (harness self-tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "stochsamp", "cli.py")):
        print(f"no stochsamp sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    if result["metrics"] is None:
        print("every invocation failed; no metrics to report", file=sys.stderr)
        return 1
    print(json.dumps({"detail": result["detail"]}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in result["units"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
