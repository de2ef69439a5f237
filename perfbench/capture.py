"""Capture the reference outputs that ``run.py`` checks every invocation against.

    python3 perfbench/capture.py [--size full|small]

Runs each workload once per input case (case 0 only at the small size used
by the self-tests) with the program as it stands and
writes ``reference/<size>-<workload>.json``.  Re-capture only when a change
is meant to alter the program's outputs, and say so with the change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# workloads pins the BLAS thread count, so it is imported before numpy is.
from workloads import FL_WORKLOADS, NUM_CASES, SIZES, WORKLOADS, cli_argv, frame_path

import outputs
from run import invoke, work_dir


def capture(workload: str, size: str) -> dict:
    cases = {}
    for case in range(NUM_CASES) if size == "full" else (0,):
        with work_dir(f"capture-{workload}") as workdir:
            argv = cli_argv(workload, size, case, workdir)
            frame = frame_path(workdir) if os.path.exists(frame_path(workdir)) else None
            inv = invoke(workdir, argv, False, workload in FL_WORKLOADS, 170.0)
        if inv.problems:
            raise SystemExit(f"{workload} case {case}: {inv.problems}")
        cases[str(case)] = {
            "stdout": outputs.normalize_stdout(inv.stdout, frame),
            "csv": inv.csv,
            "rank_deficient_share": outputs.rank_deficient_share(inv.csv),
        }
        print(f"{size} {workload} case {case}: run {inv.record['run_s']:.2f} s, "
              f"rank-deficient share {cases[str(case)]['rank_deficient_share']}",
              file=sys.stderr)
    return {"workload": workload, "size": size, "cases": cases}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=SIZES, default="full")
    args = parser.parse_args()
    os.makedirs(outputs.REFERENCE_DIR, exist_ok=True)
    for workload in WORKLOADS:
        data = capture(workload, args.size)
        with open(outputs.reference_path(args.size, workload), "w", encoding="utf-8") as fp:
            json.dump(data, fp, indent=1, sort_keys=True)
            fp.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
