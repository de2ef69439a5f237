"""JSON forms of the CLI's inputs and outputs.

:func:`model_to_dict` writes the frame-model file that ``--model
custom:PATH`` reads, and :func:`read_model_json` with :func:`model_from_dict`
reads it back; :func:`read_model_json` takes the two coefficient arrays
straight from the file's bytes into float64, without building the nested
lists.  Floating-point numbers travel as decimal strings with 17 significant
digits (an exact binary64 round trip), complex numbers as [re, im] string
pairs, arrays as nested lists.  :func:`dumps` gives the CLI's deterministic
JSON text.
"""

from __future__ import annotations

import io
import json
import os
import re
import stat
import warnings

import numpy as np

from .errors import InputValidationError
from .sampling import FrameModel, build_frame_model

__all__ = [
    "fmt_real",
    "fmt_complex",
    "complex_array_to_lists",
    "complex_array_from_lists",
    "model_to_dict",
    "model_from_dict",
    "read_model_json",
    "dumps",
]


def fmt_real(x: float) -> str:
    """17-significant-digit decimal string; round-trips binary64 exactly."""
    return format(float(x), ".17g")


def fmt_complex(z: complex) -> list[str]:
    z = complex(z)
    return [fmt_real(z.real), fmt_real(z.imag)]


def complex_array_to_lists(a: np.ndarray):
    if a.ndim == 1:
        return [fmt_complex(x) for x in a]
    return [complex_array_to_lists(row) for row in a]


def complex_array_from_lists(data) -> np.ndarray:
    """Complex array of nested [re, im] pairs (lists or a float array whose
    last axis has length 2).  The parts are reinterpreted, not recombined by
    arithmetic, so signed zeros and NaN payloads survive."""
    try:
        arr = np.ascontiguousarray(data, dtype=np.float64)
    except TypeError as exc:
        raise InputValidationError(f"complex array data must hold numbers: {exc}")
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise InputValidationError("complex array data must end in [re, im] pairs")
    return arr.view(np.complex128)[..., 0]


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
    """The frame model of a :func:`model_to_dict` document, built by
    :func:`build_frame_model` from copies of its arrays."""
    _expect(data, "FrameModel")
    for key in ("s_coef", "w_coef"):
        if data.get(key) is None:
            raise InputValidationError(f"serialized FrameModel has no {key!r} array")
    return build_frame_model(
        complex_array_from_lists(data["s_coef"]),
        complex_array_from_lists(data["w_coef"]),
        data.get("declared_bounds"),
    )


# The bytes of a model file's coefficient arrays as the checks read them:
# each character of a decimal number becomes 0x80, JSON whitespace a space,
# any other non-ASCII byte "?", which no array skeleton holds.
_KINDS = bytes(
    0x80 if c in b"0123456789+-.eE" else 0x20 if c in b" \t\n\r" else c if c < 0x80 else 0x3F
    for c in range(256)
)
_TO_TEXT = bytes.maketrans(b'[]"', b"   ")
_PAIR = b'["",""]'
_CHUNK = 1 << 18
_ARRAY_START = re.compile(rb"[ \t\n\r]*:[ \t\n\r]*\[")


def read_model_json(path) -> dict:
    """The JSON document of a model file, as ``json.load`` reads it, except
    that ``s_coef`` and ``w_coef`` are ``(R, C, 2)`` float64 arrays.

    That holds when both are written as :func:`model_to_dict` writes them:
    R rows of C ``["re", "im"]`` pairs of quoted decimal numbers, with any
    JSON whitespace between tokens.  Each array is then checked and converted
    in one pass over the file's bytes, with the correctly rounded values that
    ``float`` gives, and memory peaks near 1.5 times the file size.  Any other
    file (bare numbers, escapes, ragged or malformed arrays) is parsed from
    the start with ``json.load``, and so is a pipe or any other file that is
    not a regular one, so it is accepted or rejected exactly as by
    ``json.load`` and :func:`model_from_dict`.
    """
    with open(path, "rb") as fp:
        info = os.fstat(fp.fileno())
        if stat.S_ISREG(info.st_mode):
            data = _read_pair_arrays(fp, info.st_size)
            if data is not None:
                return data
            fp.seek(0)
        return json.load(io.TextIOWrapper(fp, encoding="utf-8"))


def _read_pair_arrays(fp, size: int) -> dict | None:
    buf = bytearray(size)
    if fp.readinto(buf) != size or fp.read(1) or b"\\" in buf:
        return None
    spans = []
    for key in ("s_coef", "w_coef"):
        name = f'"{key}"'.encode()
        at = buf.find(name)
        if at < 0 or buf.find(name, at + 1) >= 0:
            return None
        opening = _ARRAY_START.match(buf, at + len(name))
        if opening is None:
            return None
        start = opening.end() - 1
        # A well-formed array holds no ":" or "}", so it ends at the last "]"
        # before the next one; _pair_array rejects any other cut.
        stop = min((i for i in (buf.find(b":", start), buf.find(b"}", start)) if i >= 0),
                   default=len(buf))
        spans.append((start, buf.rfind(b"]", start, stop) + 1, key))
    # The spans cannot overlap: each ends before the ":" that follows the
    # other's key, if that key lies after its start.
    spans.sort()
    pieces, pos = [], 0
    for start, end, _ in spans:
        pieces += [buf[pos:start], b"null"]
        pos = end
    pieces.append(buf[pos:])
    try:
        data = json.loads(b"".join(pieces).decode("utf-8"))
    except ValueError:
        return None
    if not isinstance(data, dict) or any(data.get(key, 0) is not None for *_, key in spans):
        return None
    for start, end, key in spans:
        data[key] = _pair_array(buf, start, end)
        if data[key] is None:
            return None
    return data


def _pair_array(buf: bytearray, start: int, end: int) -> np.ndarray | None:
    """(R, C, 2) float64 array of the JSON array literal ``buf[start:end]``
    of R rows of C ``["re", "im"]`` pairs of quoted numbers; None for any
    other text.  Overwrites ``buf[start:end]``."""
    skeleton, ends, quoted = [], 0, 0
    for lo in range(start, end, _CHUNK):
        hi = min(lo + _CHUNK, end)
        kinds = buf[lo:min(hi + 1, end)].translate(_KINDS)
        step = np.frombuffer(kinds, np.uint8)
        step = step[:-1] ^ step[1:]
        # Ends of runs of number characters, and those of them at a quote.
        ends += np.count_nonzero(step >= 0x80)
        quoted += np.count_nonzero(step == 0x80 ^ ord('"'))
        skeleton.append(kinds[:hi - lo].translate(None, b"\x80 "))
        buf[lo:hi] = buf[lo:hi].translate(_TO_TEXT)
    skeleton = b"".join(skeleton)
    cols = skeleton.find(b"]]") // 8
    rows = (len(skeleton) - 1) // (8 * cols + 2) if cols > 0 else 0
    row = b"[" + b",".join([_PAIR] * cols) + b"]"
    if rows == 0 or skeleton != b"[" + b",".join([row] * rows) + b"]":
        return None
    # Given that skeleton, one run per string, flush with both of its quotes,
    # means every string holds number characters only: no whitespace or empty
    # string inside the quotes and no number character outside them.
    count = 2 * rows * cols
    if not ends == quoted == 2 * count:
        return None
    text = np.frombuffer(buf, np.uint8, end - start, start)
    text.flags.writeable = False
    # On bad text numpy 1.x warns and returns the values read so far, 2.x
    # raises; a numpy that refuses an array argument is left to json.load.
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.fromstring(text, sep=",")
        except (ValueError, TypeError, DeprecationWarning):
            return None
    if values.size != count:
        return None
    return values.reshape(rows, cols, 2)


def dumps(obj: dict) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _expect(data: dict, type_name: str) -> None:
    if not isinstance(data, dict):
        raise InputValidationError(
            f"expected serialized {type_name}, got a {type(data).__name__}"
        )
    if data.get("type") != type_name:
        raise InputValidationError(
            f"expected serialized {type_name}, got {data.get('type')!r}"
        )
