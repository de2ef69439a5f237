"""Run one stochsamp CLI command in a fresh process and record its timings.

    python3 perfbench/invoke.py --workdir DIR --trace 0|1 --fl-oracle 0|1 -- ARGS...

Calls ``stochsamp.cli.main(ARGS)`` in process with stdout captured to
``DIR/stdout.txt`` and writes ``DIR/result.json``.  The only hook in an
untraced run stamps the time at each ``draw_samples`` entry; ``--trace 1``
also installs the per-layer :class:`tracer.Tracer`.  The BLAS thread count
comes from the environment ``run.py`` gives the process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import stochsamp.cli as cli  # noqa: E402
from stochsamp import fourier_legendre  # noqa: E402

import blas  # noqa: E402
from tracer import Tracer  # noqa: E402


class DrawStamps:
    """Time of each ``draw_samples`` entry and the distinct profiles drawn from."""

    def __init__(self):
        self.times: list[float] = []
        self.profiles: dict[int, object] = {}

    def wrap(self, fn):
        def stamped(prof, *args, **kwargs):
            self.times.append(time.perf_counter())
            self.profiles.setdefault(id(prof), prof)
            return fn(prof, *args, **kwargs)
        return stamped


def leverage_rel_err(profiles) -> float:
    """Largest max-norm relative gap between a drawn profile's p and the
    closed-form FL leverage distribution for its (n, J)."""
    worst = 0.0
    for prof in profiles:
        exact, _ = fourier_legendre.fl_leverage_distribution(prof.n, prof.p.shape[0])
        gap = float(np.max(np.abs(prof.p - exact)) / np.max(np.abs(exact)))
        worst = max(worst, gap)
    return worst


def run_once(argv: list[str], trace: bool, fl_oracle: bool) -> tuple[dict, str]:
    """Run the CLI once; return the timing record and the captured stdout."""
    stamps = DrawStamps()
    rank_deficient = [0, 0]
    s_coef_bytes = [0]

    def on_reconstruct(report):
        rank_deficient[0] += report.used_pseudo_inverse
        rank_deficient[1] += 1

    def on_model(model):
        s_coef_bytes[0] = model.s_coef.size * model.s_coef.itemsize

    tracer = Tracer({"sampling.reconstruct": on_reconstruct,
                     "sampling.build_frame_model": on_model})
    if trace:
        tracer.install()
    original_draw = cli.draw_samples
    cli.draw_samples = stamps.wrap(original_draw)
    buf = io.StringIO()
    error = None
    before = resource.getrusage(resource.RUSAGE_SELF)
    try:
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # the record reports it and the harness fails the run
                code, error = None, traceback.format_exc()
            end = time.perf_counter()
    finally:
        cli.draw_samples = original_draw
        tracer.restore()
    usage = resource.getrusage(resource.RUSAGE_SELF)

    times = stamps.times
    record = {
        "exit_code": code,
        "error": error,
        "run_s": end - start,
        "setup_s": (times[0] - start) if times else None,
        "trial_s": [b - a for a, b in zip(times, times[1:] + [end])],
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        # CPU time of the command; well below run_s means the process waited.
        "cpu_s": (usage.ru_utime + usage.ru_stime) - (before.ru_utime + before.ru_stime),
        "numpy": np.__version__,
        "openblas": blas.version(),
        "blas_threads": blas.threads(),
    }
    if fl_oracle and error is None:
        record["leverage_rel_err"] = leverage_rel_err(stamps.profiles.values())
    if trace:
        layers = tracer.metrics()
        draws = layers["sampling.draw_samples.calls"]
        linalg_calls = sum(v for k, v in layers.items()
                           if k.startswith("linalg.") and k.endswith(".calls"))
        layers["sampling.s_coef_bytes"] = s_coef_bytes[0]
        layers["sampling.rank_deficient_trials"] = rank_deficient[0]
        layers["sampling.full_rank_frac"] = (
            (rank_deficient[1] - rank_deficient[0]) / rank_deficient[1]
            if rank_deficient[1] else 0.0
        )
        layers["linalg.calls_per_trial"] = linalg_calls / draws if draws else 0.0
        record["layers"] = layers
        record["self_sum_s"] = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    return record, buf.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fl-oracle", type=int, choices=(0, 1), default=0)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    record, stdout = run_once(argv, bool(args.trace), bool(args.fl_oracle))
    with open(os.path.join(args.workdir, "stdout.txt"), "w", encoding="utf-8", newline="") as fp:
        fp.write(stdout)
    with open(os.path.join(args.workdir, "result.json"), "w", encoding="utf-8") as fp:
        json.dump(record, fp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
