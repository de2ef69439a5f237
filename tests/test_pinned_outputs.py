"""mc-gram outputs pinned to values captured before the per-trial norms
changed route.

``gram_dev`` = ||G_hat - Sigma|| now comes from the eigenvalues of the
Hermitian difference instead of an SVD, so it may move by a few units in the
last place; every other CSV column, and the JSON report, must not move at
all.  The expected CSVs under ``data/mc_gram_pinned`` were written by the
SVD route with one BLAS thread.  Bits are promised only for one numpy/BLAS
build (README, "Output is deterministic"), so the exact check runs where a
small LAPACK/BLAS canary reproduces the bits it had at capture; elsewhere
reals are held to the cross-build 1e-12.
"""

import csv
import hashlib
import json
import os

import numpy as np
import pytest

from stochsamp import cli, sampling
from stochsamp.cli import main
from stochsamp.sampling import build_frame_model
from stochsamp.serialize import model_to_dict

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "mc_gram_pinned")

# sha256 of canary() on the build that captured the expected outputs.
CAPTURE_CANARY = "6571024e6741af562e8bf77365be35f76b1ecb1b009a45e421a0c9e653ce0fb6"


def canary() -> str:
    """sha256 of an SVD, a Hermitian eigensolve and products of one small
    complex matrix of exact dyadic entries: the LAPACK and BLAS routines the
    pinned columns go through."""
    rng = np.random.default_rng(0)
    a = (rng.integers(-9, 10, size=(8, 6)) + 1j * rng.integers(-9, 10, size=(8, 6))) / 8.0
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    h = a.conj().T @ a
    parts = (u, s, vh, np.linalg.eigvalsh(h), a @ vh.conj().T)
    return hashlib.sha256(b"".join(np.ascontiguousarray(x).tobytes() for x in parts)).hexdigest()


def hadamard_frame(path) -> None:
    """A 16 x 16 Hadamard S / 4 and six W columns of small dyadic numbers,
    all exact in binary, so the model file does not depend on the build."""
    h = np.array([[1]])
    for _ in range(4):
        h = np.block([[h, h], [h, -h]])
    rng = np.random.default_rng(5)
    g_re, g_im = rng.integers(-4, 5, size=(2, 10, 6))
    e_re, e_im = rng.integers(-8, 9, size=(2, 16, 6))
    w = ((h[:, :10] @ g_re) * 8 + e_re + 1j * ((h[:, :10] @ g_im) * 8 + e_im)) / 512.0
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(model_to_dict(build_frame_model(h / 4.0, w)), fp)


CASES = {
    "identity": ["--model", "identity:8", "--n", "4", "--m", "6", "--trials", "8", "--seed", "3"],
    "fl": ["--model", "fl:n=6,ambient=301,max_defect=0.05", "--target", "exp_c:1",
           "--m", "12", "--trials", "8", "--seed", "0"],
    "custom": ["--model", "custom:{frame}", "--n", "6", "--m", "8", "--trials", "8",
               "--seed", "1"],
}


def close(got: str, want: str, rel: float) -> bool:
    """Equal strings, or two reals within ``rel`` relative."""
    if got == want:
        return True
    try:
        x, y = float(got), float(want)
    except ValueError:
        return False
    return abs(x - y) <= rel * max(abs(x), abs(y))


def json_leaves(value):
    if isinstance(value, dict):
        for key in sorted(value):
            yield key
            yield from json_leaves(value[key])
    elif isinstance(value, list):
        for item in value:
            yield from json_leaves(item)
    else:
        yield str(value)


def run_pinned(name, tmp_path, capsys) -> None:
    """Run mc-gram on case ``name`` and hold stdout and the CSV to the pinned
    outputs.  The canary runs first, so that every linalg call after the
    last draw is the run's."""
    exact = canary() == CAPTURE_CANARY
    frame = tmp_path / "frame.json"
    hadamard_frame(frame)
    out = tmp_path / "out"
    argv = ["mc-gram", *(a.format(frame=frame) for a in CASES[name]), "--out", str(out)]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    with open(os.path.join(DATA, f"{name}.json"), encoding="utf-8") as fp:
        want_stdout = fp.read().replace("<frame>", str(frame))
    with open(os.path.join(DATA, f"{name}.csv"), encoding="utf-8") as fp:
        want = list(csv.reader(fp))
    with open(f"{out}.csv", encoding="utf-8") as fp:
        got = list(csv.reader(fp))

    if exact:
        assert stdout == want_stdout
    else:
        leaves = [list(json_leaves(json.loads(text))) for text in (stdout, want_stdout)]
        assert len(leaves[0]) == len(leaves[1])
        assert all(close(g, w, 1e-12) for g, w in zip(*leaves))
    assert got[0] == want[0] and len(got) == len(want)
    for row, ref in zip(got[1:], want[1:]):
        for column, g, w in zip(want[0], row, ref):
            rel = 1e-14 if column == "gram_dev" else 0.0
            assert close(g, w, rel if exact else 1e-12), (column, g, w)


@pytest.mark.parametrize("name", sorted(CASES))
def test_mc_gram_outputs_pinned(name, tmp_path, capsys):
    run_pinned(name, tmp_path, capsys)


@pytest.mark.parametrize("name", ["custom", "fl"])
def test_mc_gram_trial_budget(name, tmp_path, capsys, monkeypatch):
    """A trial after the first takes two SVDs (of G_hat and of the weighted
    design), at most three Hermitian eigensolves (K, the cross-term
    deviation, ||G_hat - Sigma||) and no np.unique; the run builds one
    target record."""
    counts = {"svd": 0, "eigvalsh": 0, "unique": 0}

    def counted(module, attr):
        original = getattr(module, attr)

        def call(*args, **kwargs):
            counts[attr] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, attr, call)

    counted(np.linalg, "svd")
    counted(np.linalg, "eigvalsh")
    counted(np, "unique")
    stamps = []
    draw_samples = cli.draw_samples
    monkeypatch.setattr(cli, "draw_samples",
                        lambda *args: stamps.append(dict(counts)) or draw_samples(*args))
    built = []
    per_target = sampling._PerTarget
    monkeypatch.setattr(sampling, "_PerTarget", lambda *args: built.append(1) or per_target(*args))

    run_pinned(name, tmp_path, capsys)
    stamps.append(dict(counts))
    trials = int(CASES[name][CASES[name].index("--trials") + 1])
    assert len(stamps) == trials + 1 and len(built) == 1
    for before, after in zip(stamps[1:-1], stamps[2:]):
        spent = {k: after[k] - before[k] for k in counts}
        assert spent["svd"] == 2 and spent["eigvalsh"] <= 3 and spent["unique"] == 0, spent
    assert counts["unique"] == 0
