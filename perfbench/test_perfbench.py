"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

They run the workloads at the small size, so they take seconds, not minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

# workloads pins the BLAS thread count, so it is imported before numpy is.
from workloads import WHY, WORKLOADS, cli_argv

import outputs
from invoke import run_once
from run import END_TO_END, per_layer_units
from tracer import LAYERS, Tracer, package_modules

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fp:
    BENCH = json.load(_fp)


def test_benchmark_json_matches_harness():
    assert {w["name"]: w["why"] for w in BENCH["workloads"]} == WHY
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == per_layer_units()
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def _namespaces():
    import stochsamp.fourier_legendre as fl

    snap = {(mod.__name__, key): value for mod in package_modules()
            for key, value in vars(mod).items()}
    snap[("AnalyticTarget", "fourier_coef")] = fl.AnalyticTarget.__dict__["fourier_coef"]
    return snap


def test_tracer_patches_and_restores_every_name():
    import stochsamp.cli as cli
    import stochsamp.sampling as sampling

    before = _namespaces()
    tracer = Tracer()
    with tracer:
        during = _namespaces()
        # Each layer is wrapped where its callers look it up.
        assert cli.main is not before[("stochsamp.cli", "main")]
        assert sampling.operator_norm is not before[("stochsamp.sampling", "operator_norm")]
        assert cli.operator_norm is sampling.operator_norm
        changed = {k for k in before if during[k] is not before[k]}
        assert len(changed) >= len(LAYERS)
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_outputs_byte_identical_and_self_times_within_run(workload, tmp_path):
    outs = {}
    for trace in (False, True):
        workdir = tmp_path / f"trace{int(trace)}"
        workdir.mkdir()
        argv = cli_argv(workload, "small", 0, str(workdir))
        record, stdout = run_once(argv, trace, fl_oracle=True)
        assert record["exit_code"] == 0, record["error"]
        csv = (workdir / "out.csv").read_bytes()
        stdout = stdout.replace(str(workdir), "<workdir>")
        outs[trace] = (stdout, csv)
        if trace:
            layers = record["layers"]
            # Self times of all spans add up to the root span, cli.main.
            assert record["self_sum_s"] <= record["run_s"]
            assert record["self_sum_s"] == pytest.approx(layers["cli.main.s"], rel=1e-9)
            assert layers["sampling.draw_samples.calls"] == len(record["trial_s"])
        if workload != "mc-coherent-custom":
            assert record["leverage_rel_err"] <= 1e-12
    assert outs[True] == outs[False]


def _run_bench(cwd, *args):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_workload_emits_every_metric(workload, trace):
    proc = _run_bench(ROOT, "--workload", workload, "--seed", "8", "--seconds", "0.5",
                      "--trace", str(trace), "--size", "small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run_bench(str(tmp_path), "--workload", WORKLOADS[0], "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_comparison_tolerances():
    ref = {"stdout": json.dumps({"x": "0.5", "k": 3, "label": "a"}),
           "csv": "i,err,ok\n1,0.25,true\n"}
    same = outputs.reference_mismatches(ref, ref["stdout"], ref["csv"])
    assert same == []
    near = outputs.reference_mismatches(
        ref, json.dumps({"x": "0.50000000000000011", "k": 3, "label": "a"}),
        "i,err,ok\n1,0.25000000000000006,true\n")
    assert near == []
    far = outputs.reference_mismatches(
        ref, json.dumps({"x": "0.5000000001", "k": 4, "label": "b"}),
        "i,err,ok\n2,0.2500001,false\n")
    assert len(far) == 6


def test_bound_oracle_flags_only_full_rank_violations():
    csv = ("trial_index,err_l2,tail_err,k_factor,full_rank\n"
           "0,0.1,0.1,0,true\n"
           "1,5,0.1,1,false\n"
           "2,5,0.1,1,true\n")
    failures = outputs.bound_failures(csv)
    assert len(failures) == 1 and "line 4" in failures[0]
