"""Cold start: what one command pays before and beside its results.

No command imports numpy.ma (np.unique and np.median would), statistics or
numpy.polynomial (for Gauss-Legendre rules the module computes itself), the
CLI imports no argparse, and coherence_profile takes T = ||(I - QQ^H) S||^2 = 1
with no SVD for orthonormal sampling vectors with J above the rank of W_n."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import stochsamp
import stochsamp.cli as cli
import stochsamp.sampling as sampling
from stochsamp.fourier_legendre import build_fl_model
from stochsamp.sampling import (
    build_frame_model,
    build_selection_model,
    coherence_profile,
    leverage_profile,
)
from stochsamp.serialize import dumps, model_to_dict

SRC = os.path.dirname(os.path.dirname(os.path.abspath(stochsamp.__file__)))
FL = "fl:n=6,ambient=301,max_defect=0.05"

# Runs each argv list of argv[1] through cli.main in this fresh process and
# prints the exit codes and the modules the runs added to those present
# after importing numpy and the CLI (numpy 1.24 imports numpy.ma and
# numpy.polynomial eagerly).
PROBE = """
import contextlib, io, json, sys
import numpy, stochsamp.cli
before = set(sys.modules)
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(stochsamp.cli.main(argv))
print(json.dumps({"codes": codes, "added": sorted(set(sys.modules) - before)}))
"""


def command_runs(command, frame):
    runs = {
        "reconstruct": [["--model", "identity:4"], ["--model", FL, "--target", "exp_c:1"],
                        ["--model", "fl:n=10", "--target", "pole_a:2"]],
        "mc-gram": [["--model", "identity:4", "--trials", "3"],
                    ["--model", FL, "--target", "exp_c:1", "--trials", "3"],
                    ["--model", f"custom:{frame}", "--n", "4", "--trials", "3"]],
        "leverage": [["--model", "identity:4"], ["--model", FL]],
        "bounds": [["--model", "identity:4"], ["--model", FL],
                   ["--model", f"custom:{frame}", "--n", "4"]],
        "convergence": [["--model", FL, "--n", "3,4,5,6", "--trials", "2"],
                        ["--trials", "2"]],
    }
    return [[command, *args] for args in runs[command]]


@pytest.mark.parametrize("command", list(cli.RUNNERS))
def test_command_imports_no_numpy_ma_or_statistics(command, tmp_path):
    frame = tmp_path / "frame.json"
    frame.write_text(dumps(model_to_dict(build_frame_model(np.eye(6), np.eye(6)[:, :4]))))
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(command_runs(command, frame))],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["codes"] == [0] * len(result["codes"])
    assert not {"numpy.ma", "numpy.polynomial", "statistics"} & set(result["added"])


def test_cli_import_builds_no_argparse():
    # main parses argv in one pass, so neither argparse nor the gettext it
    # imports is loaded, on import or on a usage error or --help.
    probe = ("import contextlib, io, json, sys\n"
             "before = set(sys.modules)\n"
             "import numpy, stochsamp.cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    codes = [stochsamp.cli.main(argv) for argv in (['--help'], ['mc-gram', '--tri', '5'])]\n"
             "print(json.dumps({'codes': codes, 'added': sorted(set(sys.modules) - before)}))\n")
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["codes"] == [0, 2]
    assert not {"argparse", "gettext"} & set(result["added"])


# -- T = ||(I - QQ^H) S||^2 ----------------------------------------------------

def haar_frame(ambient=100, n=32, scale=1.0):
    """scale times a Haar-random unitary S, and W on 64 of its columns plus
    small noise."""
    rng = np.random.default_rng(7)
    z = rng.standard_normal((ambient, ambient)) + 1j * rng.standard_normal((ambient, ambient))
    s = np.linalg.qr(z / np.sqrt(2.0))[0]
    cols = rng.choice(ambient, size=64, replace=False)
    g = rng.standard_normal((64, n)) + 1j * rng.standard_normal((64, n))
    w = s[:, cols] @ g / np.sqrt(128.0) + 0.02 * rng.standard_normal((ambient, n))
    return build_frame_model(scale * s, w)


def residual_t(model, n):
    """sigma_max((I - QQ^H) S)^2 from a dense S and an SVD of W_n."""
    u, sv, _ = np.linalg.svd(model.w_coef[:, :n], full_matrices=False)
    q = u[:, sv > 1e-12 * sv[0]]
    s = model.s_coef
    return float(np.linalg.svd(s - q @ (q.conj().T @ s), compute_uv=False)[0] ** 2)


@pytest.mark.parametrize("make,n", [(haar_frame, 32),
                                    (lambda: build_fl_model(10, 301, 301, max_defect=0.05), 10)],
                         ids=["dense", "selection"])
def test_orthonormal_sampling_wider_than_w_n_takes_t_as_one_without_svd(make, n, monkeypatch):
    model = make()
    prof = leverage_profile(model, n)
    rec = prof._rec
    assert model.sampling_is_orthonormal and model.num_sampling > rec.q.shape[1]
    svd = np.linalg.svd

    def refuse_wide(a, *args, **kwargs):
        # ||Sigma|| takes an n x n SVD; an ambient-sized one is refused.
        if min(np.shape(a)) > n:
            raise AssertionError(f"SVD of a {np.shape(a)} matrix")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", refuse_wide)
    coh = coherence_profile(prof)
    assert coh.T_norm == 1.0
    monkeypatch.undo()
    assert abs(residual_t(model, n) - 1.0) < 1e-12


@pytest.mark.parametrize("make,n", [
    (lambda: haar_frame(scale=1.5), 32),
    (lambda: build_frame_model(np.random.default_rng(1).standard_normal((40, 30)),
                               np.random.default_rng(2).standard_normal((40, 8))), 8),
    (lambda: build_selection_model([0, 3, 5, 7],
                                   np.random.default_rng(3).standard_normal((12, 6))), 6),
    (lambda: build_frame_model(np.eye(6)[:, :4], np.eye(6)), 6),
], ids=["scaled-unitary", "gaussian", "narrow-selection", "narrow-orthonormal"])
def test_other_frames_keep_the_residual_svd(make, n):
    model = make()
    coh = coherence_profile(leverage_profile(model, n))
    want = residual_t(model, n)
    assert abs(coh.T_norm - want) <= 1e-12 * want


# -- the sort-based replacements of np.median and np.unique ----------------------

def test_median_from_a_sort_equals_np_median_bit_for_bit():
    rng = np.random.default_rng(11)
    for size in list(range(1, 12)) + [20, 99, 100]:
        for _ in range(50):
            values = list(np.exp(rng.standard_normal(size) * 5.0))
            got = cli._median(values)
            assert type(got) is float and got == float(np.median(values)), values


def test_selection_rejects_duplicate_rows_in_unsorted_input():
    w = np.eye(5)
    with pytest.raises(sampling.InputValidationError, match="distinct"):
        build_selection_model([3, 0, 3], w)
    with pytest.raises(sampling.InputValidationError, match=r"lie in \[0, 4\]"):
        build_selection_model([3, 5, 0], w)
    with pytest.raises(sampling.InputValidationError, match=r"lie in \[0, 4\]"):
        build_selection_model([3, -1, 0], w)
    assert list(build_selection_model([4, 0, 2], w).s_rows) == [4, 0, 2]
