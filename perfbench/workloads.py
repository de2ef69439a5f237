"""Workloads of the stochsamp benchmark and the inputs they are made from.

Each workload is one ``stochsamp`` CLI command.  The benchmark seed selects
one of ``NUM_CASES`` input cases (``case = seed % NUM_CASES``); the case is
the CLI ``--seed`` and, for ``mc-coherent-custom``, also seeds the generated
frame.  Reference outputs for every case are stored under ``reference/``, so
any benchmark seed can be checked against them.

``size="small"`` shrinks every workload for the harness self-tests, which
use case 0 only; the benchmark itself always runs ``size="full"``.
"""

from __future__ import annotations

import os

# One BLAS thread (at most nproc on any machine) for every invocation and for
# the frame generator: OpenBLAS results can change with the thread count, and
# the timings must be taken with the same count on both sides of a comparison.
# The invocations get BLAS_ENV from run.py; this process sets it here, before
# numpy is imported, which is when BLAS reads it.  Import this module before
# anything that imports numpy.
BLAS_THREADS = 1
BLAS_ENV = {var: str(BLAS_THREADS)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402

NUM_CASES = 8
SIZES = ("full", "small")

# Why each workload is in the benchmark; BENCHMARK.json carries the same text.
WHY = {
    "mc-dense-fl": (
        "Dense ambient-space work: FL ambient 2001, J 2001, n 10, m 142, 100 trials; "
        "the 2001x2001 coherence SVD and S^H S test dominate set-up, S^H f each trial"
    ),
    "sweep-fl-pole": (
        "One FL model (ambient 2001, J 2001) serves n=4,8,..,20 with m=47..320, 5x20 "
        "trials, pole target; per-trial reconstruct dominates, no coherence profile"
    ),
    "mc-coherent-custom": (
        "custom: JSON frame, dense random 400x400 unitary S, W on 64 columns; n 32, m 48, "
        "100 trials, ~1/5 rank-deficient: small algebra, pseudo-inverse path, no selection"
    ),
}
WORKLOADS = tuple(WHY)

# Workloads whose sampling system is a Fourier-Legendre column selection; on
# these the program's leverage profile is checked against the closed form.
FL_WORKLOADS = ("mc-dense-fl", "sweep-fl-pole")

_SMALL_FL_MODEL = "fl:n=10,ambient=301,max_defect=0.05"

# Coherent custom frame: ambient dimension, concentrated columns, noise level.
FRAME = {"full": (400, 64, 0.02), "small": (100, 64, 0.02)}
_CUSTOM_N = 32
_CUSTOM_M = 48


def case_of(seed: int) -> int:
    """Input case selected by a benchmark seed."""
    return seed % NUM_CASES


def cli_argv(workload: str, size: str, case: int, workdir: str) -> list[str]:
    """CLI arguments of one invocation; writes the custom frame when needed.

    Outputs go to ``<workdir>/out.json`` and ``<workdir>/out.csv``.
    """
    out = ["--seed", str(case), "--out", os.path.join(workdir, "out")]
    small = size == "small"
    if workload == "mc-dense-fl":
        model = _SMALL_FL_MODEL if small else "fl:n=10"
        return ["mc-gram", "--model", model, "--target", "exp_c:1",
                "--trials", "20" if small else "100", *out]
    if workload == "sweep-fl-pole":
        if small:
            return ["convergence", "--model", _SMALL_FL_MODEL, "--n", "4,6,8,10",
                    "--trials", "5", *out]
        return ["convergence", "--trials", "20", *out]
    if workload == "mc-coherent-custom":
        path = frame_path(workdir)
        if not os.path.exists(path):
            write_coherent_frame(path, size, case)
        return ["mc-gram", "--model", f"custom:{path}", "--n", str(_CUSTOM_N),
                "--m", str(_CUSTOM_M), "--trials", "30" if small else "100", *out]
    raise ValueError(f"unknown workload {workload!r}")


def frame_path(workdir: str) -> str:
    return os.path.join(workdir, "frame.json")


def coherent_frame(size: str, case: int) -> tuple[np.ndarray, np.ndarray]:
    """Sampling matrix S (a Haar-random unitary) and reconstruction matrix W
    (random combinations of a few columns of S plus small dense noise).

    Leverage is concentrated on the chosen columns, so m = 48 draws for
    n = 32 are rank-deficient in about a fifth of the trials.
    """
    ambient, k, noise = FRAME[size]
    rng = np.random.default_rng([case, 0x5EED])
    z = rng.standard_normal((ambient, ambient)) + 1j * rng.standard_normal((ambient, ambient))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    s = q * (np.diag(r) / np.abs(np.diag(r)))
    cols = rng.choice(ambient, size=k, replace=False)
    g = rng.standard_normal((k, _CUSTOM_N)) + 1j * rng.standard_normal((k, _CUSTOM_N))
    e = rng.standard_normal((ambient, _CUSTOM_N)) + 1j * rng.standard_normal((ambient, _CUSTOM_N))
    w = s[:, cols] @ g / np.sqrt(2.0 * k) + noise * e / np.sqrt(2.0 * ambient)
    return s, w


def write_coherent_frame(path: str, size: str, case: int) -> None:
    """Write the frame in the ``custom:`` JSON format (reals as 17-digit
    strings, complex entries as [re, im] pairs), row by row."""
    s, w = coherent_frame(size, case)

    def matrix(fp, a):
        fp.write("[")
        for i, row in enumerate(a):
            if i:
                fp.write(",\n")
            fp.write("[" + ",".join(
                f'["{format(z.real, ".17g")}","{format(z.imag, ".17g")}"]' for z in row
            ) + "]")
        fp.write("]")

    with open(path, "w", encoding="utf-8") as fp:
        fp.write('{"type": "FrameModel", "declared_bounds": null,\n"s_coef": ')
        matrix(fp, s)
        fp.write(',\n"w_coef": ')
        matrix(fp, w)
        fp.write("}\n")
