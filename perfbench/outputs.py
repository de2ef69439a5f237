"""Correctness checks on one invocation's stdout JSON and ``--out`` CSV.

* Reference match: integers, booleans and strings exactly; reals (the 17-digit
  decimal strings of the JSON report, decimal cells of the CSV) within
  ``REL_TOL`` relative.
* Error-bound oracle: every full-rank CSV row satisfies
  ``err_l2 <= tail_err * sqrt(1 + k_factor**2) + 1e-8``.
"""

from __future__ import annotations

import json
import math
import os

REL_TOL = 1e-12
BOUND_SLACK = 1e-8
FRAME_PLACEHOLDER = "<frame>"

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def reference_path(size: str, workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{size}-{workload}.json")


def load_reference(size: str, workload: str, case: int) -> dict:
    with open(reference_path(size, workload), encoding="utf-8") as fp:
        return json.load(fp)["cases"][str(case)]


def normalize_stdout(stdout: str, frame: str | None) -> str:
    """Replace the run's temporary frame path, which the report echoes."""
    if frame is None:
        return stdout
    return stdout.replace(json.dumps(frame)[1:-1], FRAME_PLACEHOLDER)


def _real(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _close(a: float, b: float) -> bool:
    if a == b:
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _compare_json(ref, got, where: str, out: list[str]) -> None:
    if isinstance(ref, dict) and isinstance(got, dict):
        if sorted(ref) != sorted(got):
            out.append(f"{where}: keys {sorted(got)} != {sorted(ref)}")
            return
        for key in ref:
            _compare_json(ref[key], got[key], f"{where}.{key}", out)
    elif isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            out.append(f"{where}: length {len(got)} != {len(ref)}")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            _compare_json(r, g, f"{where}[{i}]", out)
    elif isinstance(ref, str) and isinstance(got, str):
        # The report writes every real as a decimal string; other strings are labels.
        a, b = _real(ref), _real(got)
        if ref != got and (a is None or b is None or not _close(a, b)):
            out.append(f"{where}: {got!r} != {ref!r}")
    elif type(ref) is not type(got) or ref != got:
        out.append(f"{where}: {got!r} != {ref!r}")


def _is_int_text(text: str) -> bool:
    return text.lstrip("-").isdigit()


def _compare_csv(ref: str, got: str, out: list[str]) -> None:
    ref_rows = [line.split(",") for line in ref.splitlines()]
    got_rows = [line.split(",") for line in got.splitlines()]
    if len(ref_rows) != len(got_rows):
        out.append(f"csv: {len(got_rows)} lines != {len(ref_rows)}")
        return
    if ref_rows and ref_rows[0] != got_rows[0]:
        out.append(f"csv header: {got_rows[0]} != {ref_rows[0]}")
        return
    header = ref_rows[0] if ref_rows else []
    for line, (r_row, g_row) in enumerate(zip(ref_rows[1:], got_rows[1:]), start=2):
        if len(r_row) != len(g_row):
            out.append(f"csv line {line}: {len(g_row)} cells != {len(r_row)}")
            continue
        for col, r, g in zip(header, r_row, g_row):
            if r == g:
                continue
            a, b = _real(r), _real(g)
            exact = _is_int_text(r) or a is None or b is None
            if exact or not _close(a, b):
                out.append(f"csv line {line} {col}: {g!r} != {r!r}")


def reference_mismatches(ref: dict, stdout: str, csv: str) -> list[str]:
    """Differences from the reference; empty when the outputs match."""
    out: list[str] = []
    try:
        got = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    _compare_json(json.loads(ref["stdout"]), got, "stdout", out)
    _compare_csv(ref["csv"], csv, out)
    return out


def bound_failures(csv: str) -> list[str]:
    """Full-rank rows that break the a-posteriori error bound (only CSVs with
    per-trial ``err_l2``, ``tail_err``, ``k_factor`` and ``full_rank`` columns)."""
    lines = csv.splitlines()
    if not lines:
        return ["csv is empty"]
    header = lines[0].split(",")
    needed = ("err_l2", "tail_err", "k_factor", "full_rank")
    if not all(col in header for col in needed):
        return []
    err, tail, k, full = (header.index(col) for col in needed)
    out = []
    for line_no, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if cells[full] != "true":
            continue
        bound = float(cells[tail]) * math.sqrt(1.0 + float(cells[k]) ** 2) + BOUND_SLACK
        if not float(cells[err]) <= bound:
            out.append(f"csv line {line_no}: err_l2 {cells[err]} > bound {bound!r}")
    return out


def rank_deficient_share(csv: str) -> float | None:
    """Share of CSV rows whose draw was rank-deficient (None without a
    ``full_rank`` column)."""
    lines = csv.splitlines()
    header = lines[0].split(",")
    if "full_rank" not in header:
        return None
    col = header.index("full_rank")
    rows = [line.split(",") for line in lines[1:]]
    return sum(row[col] == "false" for row in rows) / len(rows)
