"""Round-trip serialization of the core types to a JSON data model.

Floating-point numbers travel as decimal strings with 17 significant digits
(exact binary64 round trip); complex numbers as [re, im] string pairs; arrays
as nested lists.  Sample indices are 1-based on the wire (matching the model
index set {1..J}) and 0-based in memory.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InputValidationError
from .sampling import (
    FrameModel,
    LeverageProfile,
    ReconstructionReport,
    SampleDraw,
    _frozen,
    build_frame_model,
)

__all__ = [
    "fmt_real",
    "parse_real",
    "fmt_complex",
    "real_array_to_lists",
    "complex_array_to_lists",
    "real_array_from_lists",
    "complex_array_from_lists",
    "model_to_dict",
    "model_from_dict",
    "profile_to_dict",
    "profile_from_dict",
    "draw_to_dict",
    "draw_from_dict",
    "report_to_dict",
    "report_from_dict",
    "dumps",
]


def fmt_real(x: float) -> str:
    """17-significant-digit decimal string; round-trips binary64 exactly."""
    return format(float(x), ".17g")


def parse_real(s: str) -> float:
    return float(s)


def fmt_complex(z: complex) -> list[str]:
    z = complex(z)
    return [fmt_real(z.real), fmt_real(z.imag)]


def _parse_complex(pair) -> complex:
    return complex(float(pair[0]), float(pair[1]))


def real_array_to_lists(a: np.ndarray):
    if a.ndim == 1:
        return [fmt_real(x) for x in a]
    return [real_array_to_lists(row) for row in a]


def complex_array_to_lists(a: np.ndarray):
    if a.ndim == 1:
        return [fmt_complex(x) for x in a]
    return [complex_array_to_lists(row) for row in a]


def real_array_from_lists(data) -> np.ndarray:
    return np.asarray(data, dtype=float)


def complex_array_from_lists(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise InputValidationError("complex array data must end in [re, im] pairs")
    return (arr[..., 0] + 1j * arr[..., 1]).astype(complex)


def model_to_dict(model: FrameModel) -> dict:
    return {
        "type": "FrameModel",
        "s_coef": complex_array_to_lists(model.s_coef),
        "w_coef": complex_array_to_lists(model.w_coef),
        "declared_bounds": (
            None
            if model.declared_bounds is None
            else [fmt_real(x) for x in model.declared_bounds]
        ),
        "sampling_is_orthonormal": model.sampling_is_orthonormal,
        "reconstruction_is_riesz": model.reconstruction_is_riesz,
    }


def model_from_dict(data: dict) -> FrameModel:
    _expect(data, "FrameModel")
    bounds = data.get("declared_bounds")
    if bounds is not None:
        bounds = tuple(float(x) for x in bounds)
    return build_frame_model(
        complex_array_from_lists(data["s_coef"]),
        complex_array_from_lists(data["w_coef"]),
        declared_bounds=bounds,
    )


def profile_to_dict(prof: LeverageProfile) -> dict:
    return {
        "type": "LeverageProfile",
        "n": prof.n,
        "v": complex_array_to_lists(prof.v),
        "sigma": complex_array_to_lists(prof.sigma),
        "trace_sigma": fmt_real(prof.trace_sigma),
        "p": real_array_to_lists(prof.p),
        "tail_mass": fmt_real(prof.tail_mass),
        "lambda0": fmt_real(prof.lambda0),
        "distribution_id": prof.distribution_id,
    }


def profile_from_dict(data: dict) -> LeverageProfile:
    _expect(data, "LeverageProfile")
    prof = LeverageProfile(
        n=int(data["n"]),
        v=_frozen(complex_array_from_lists(data["v"])),
        sigma=_frozen(complex_array_from_lists(data["sigma"])),
        trace_sigma=float(data["trace_sigma"]),
        p=_frozen(real_array_from_lists(data["p"])),
        tail_mass=float(data["tail_mass"]),
        lambda0=float(data["lambda0"]),
    )
    if prof.distribution_id != data["distribution_id"]:
        raise InputValidationError("distribution digest mismatch after parsing")
    return prof


def draw_to_dict(draw: SampleDraw) -> dict:
    return {
        "type": "SampleDraw",
        "indices": [int(i) + 1 for i in draw.indices],
        "m": draw.m,
        "seed": draw.seed,
        "distribution_id": draw.distribution_id,
    }


def draw_from_dict(data: dict) -> SampleDraw:
    _expect(data, "SampleDraw")
    idx = np.asarray(data["indices"], dtype=np.int64) - 1
    if idx.size and idx.min() < 0:
        raise InputValidationError("serialized indices must be 1-based positive")
    return SampleDraw(
        indices=_frozen(idx),
        m=int(data["m"]),
        seed=int(data["seed"]),
        distribution_id=str(data["distribution_id"]),
    )


def report_to_dict(report: ReconstructionReport) -> dict:
    cond = report.gram_condition
    return {
        "type": "ReconstructionReport",
        "x_tilde": complex_array_to_lists(report.x_tilde),
        "f_tilde_coef": complex_array_to_lists(report.f_tilde_coef),
        "residual_weighted": fmt_real(report.residual_weighted),
        "err_l2": fmt_real(report.err_l2),
        "tail_err": fmt_real(report.tail_err),
        "k_factor": fmt_real(report.k_factor),
        "bound_ok": report.bound_ok,
        "gram_condition": cond if isinstance(cond, str) else fmt_real(cond),
        "used_pseudo_inverse": report.used_pseudo_inverse,
    }


def report_from_dict(data: dict) -> ReconstructionReport:
    _expect(data, "ReconstructionReport")
    cond = data["gram_condition"]
    if cond != "rank-deficient":
        cond = float(cond)
    return ReconstructionReport(
        x_tilde=_frozen(complex_array_from_lists(data["x_tilde"])),
        f_tilde_coef=_frozen(complex_array_from_lists(data["f_tilde_coef"])),
        residual_weighted=float(data["residual_weighted"]),
        err_l2=float(data["err_l2"]),
        tail_err=float(data["tail_err"]),
        k_factor=float(data["k_factor"]),
        bound_ok=bool(data["bound_ok"]),
        gram_condition=cond,
        used_pseudo_inverse=bool(data["used_pseudo_inverse"]),
    )


def dumps(obj: dict) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _expect(data: dict, type_name: str) -> None:
    if data.get("type") != type_name:
        raise InputValidationError(
            f"expected serialized {type_name}, got {data.get('type')!r}"
        )
