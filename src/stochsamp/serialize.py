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
import itertools
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


def complex_array_from_lists(data, name: str = "complex array data") -> np.ndarray:
    """Complex array of nested [re, im] pairs (lists or a float array whose
    last axis has length 2).  The parts are reinterpreted, not recombined by
    arithmetic, so signed zeros and NaN payloads survive.  Errors name the
    array ``name``; JSON ``true``, ``false`` and ``null`` are not numbers."""
    try:
        arr = np.ascontiguousarray(data, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InputValidationError(f"{name} must be rows of [re, im] pairs of numbers: {exc}")
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise InputValidationError(f"{name} must be rows of [re, im] pairs of numbers")
    if not isinstance(data, np.ndarray):
        entries = data
        for _ in range(arr.ndim - 1):
            entries = itertools.chain.from_iterable(entries)
        for x in entries:
            if x is None or x is True or x is False:
                raise InputValidationError(
                    f"{name} has an entry that is not a number: {json.dumps(x)}")
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
    }


def model_from_dict(data: dict) -> FrameModel:
    """The frame model of a :func:`model_to_dict` document, built by
    :func:`build_frame_model` from copies of its arrays."""
    _expect(data, "FrameModel")
    for key in ("s_coef", "w_coef"):
        if data.get(key) is None:
            raise InputValidationError(f"serialized FrameModel has no {key!r} array")
    return build_frame_model(
        complex_array_from_lists(data["s_coef"], "s_coef"),
        complex_array_from_lists(data["w_coef"], "w_coef"),
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
_KEYS = {b'"s_coef"': "s_coef", b'"w_coef"': "w_coef"}
_ARRAY_START = re.compile(rb":[ \t\n\r]*\[")

# x87 extended precision, the long double of gcc and clang on x86-64; other
# platforms parse in float64 alone.  Biased exponents 15361..17405 are the
# doubles 2**-1022 <= |x| < 2**1023, where the cast neither loses a bit
# below 2**-1022 nor overflows.
_X87_LONG_DOUBLE = (np.finfo(np.longdouble).nmant == 63
                    and np.dtype(np.longdouble).itemsize == 16)
_X87_MIN_NORMAL = np.uint64(16383 - 1022)
_X87_NORMAL_SPAN = np.uint64(2045)


def read_model_json(path) -> dict:
    """The JSON document of a model file, as ``json.load`` reads it, except
    that ``s_coef`` and ``w_coef`` are ``(R, C, 2)`` float64 arrays.

    That holds when both are written as :func:`model_to_dict` writes them:
    R rows of C ``["re", "im"]`` pairs of quoted decimal numbers, with any
    JSON whitespace between tokens.  Each array is then checked and converted
    in one pass over the file's bytes, and memory peaks near 1.5 times the
    file size.  Every value is the correctly rounded one that ``float``
    gives.  Where ``long double`` is x87 extended precision in 16 bytes (gcc
    and clang on x86-64), ``strtold`` reads the numbers in chunks and the
    values are cast to float64; a chunk that holds a value whose two
    roundings could differ from one (a 64-bit value halfway between two
    doubles, or one outside the normal doubles) is read again by numpy's
    float64 parser, which elsewhere reads every number.  Any other
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
        with io.TextIOWrapper(fp, encoding="utf-8") as text:
            return json.load(text)


def _read_pair_arrays(fp, size: int) -> dict | None:
    buf = bytearray(size)
    if fp.readinto(buf) != size or fp.read(1) or b"\\" in buf:
        return None
    spans = _array_spans(buf)
    if spans is None:
        return None
    pieces, pos = [], 0
    for start, end, _ in spans:
        pieces += [buf[pos:start], b"null"]
        pos = end
    pieces.append(buf[pos:])
    envelope = b"".join(pieces)
    # Each key once; a key inside an array fails that array's checks.
    if any(envelope.count(name) != 1 for name in _KEYS):
        return None
    try:
        data = json.loads(envelope.decode("utf-8"))
    except ValueError:
        return None
    if not isinstance(data, dict) or any(data.get(key, 0) is not None for *_, key in spans):
        return None
    for start, end, key in spans:
        data[key] = _pair_array(buf, start, end)
        if data[key] is None:
            return None
    return data


def _array_spans(buf: bytearray) -> list | None:
    """Sorted ``(start, end, key)`` of the array literals after the first
    ``"s_coef":`` and ``"w_coef":`` keys; None if either is missing or is not
    followed by "[".  The search hops from ":" to ":" and reads only the few
    bytes before each, never the array data."""
    spans, keys, lo = [], dict(_KEYS), 0
    colon = buf.find(b":")
    while keys and colon >= 0:
        quote = buf.rfind(b'"', lo, colon)
        key = None
        if quote - 7 >= lo and not buf[quote + 1:colon].strip():
            key = keys.pop(bytes(buf[quote - 7:quote + 1]), None)
        if key is None:
            lo = colon + 1
            colon = buf.find(b":", lo)
            continue
        opening = _ARRAY_START.match(buf, colon)
        if opening is None:
            return None
        lo = start = opening.end() - 1
        # A well-formed array holds no ":", so it ends at the last "]" before
        # the next one; _pair_array rejects any other cut.
        colon = buf.find(b":", start)
        spans.append((start, buf.rfind(b"]", start, len(buf) if colon < 0 else colon) + 1, key))
    # The spans cannot overlap: each ends before the next ":" after its start.
    return None if keys else sorted(spans)


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
    values = np.empty(count)
    done, lo = 0, 0
    # On bad text numpy 1.x warns and returns the values read so far, 2.x
    # raises; a numpy that refuses an array argument is left to json.load.
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            # Chunks of whole numbers, cut at commas.
            while lo < text.size:
                hi = buf.find(b",", start + min(lo + _CHUNK, text.size), end)
                hi = text.size if hi < 0 else hi - start
                part = _parse_numbers(text[lo:hi])
                # More numbers than the skeleton counted do not fit: ValueError.
                values[done:done + part.size] = part
                done += part.size
                lo = hi + 1
        except (ValueError, TypeError, DeprecationWarning):
            return None
    if done != count:
        return None
    return values.reshape(rows, cols, 2)


def _parse_numbers(text: np.ndarray) -> np.ndarray:
    """float64 values of comma-separated decimal numbers, each the correctly
    rounded value that ``float`` gives.

    Where ``long double`` is x87 extended precision, ``strtold`` reads them
    about twice as fast as numpy's float64 parser.  It rounds correctly to a
    64-bit significand, and the cast rounds that to 53 bits; the two
    roundings differ from one only when the 64-bit value lies exactly
    halfway between two doubles, its low 11 bits ``10000000000``.  Text with
    such a value, or with one outside the normal doubles (whose rounding
    keeps fewer bits, or overflows), is read again as float64."""
    if _X87_LONG_DOUBLE:
        wide = np.fromstring(text, dtype=np.longdouble, sep=",")
        # The x87 layout: 64-bit significand with an explicit integer bit,
        # then sign and 15-bit exponent, then padding.
        bits = wide.view(np.uint64)
        significand, exponent = bits[0::2], bits[1::2] & np.uint64(0x7FFF)
        single = ((significand & np.uint64(0x7FF)) != np.uint64(0x400)) & (
            exponent - _X87_MIN_NORMAL < _X87_NORMAL_SPAN)
        # Zeros (biased exponent and significand 0) convert exactly.
        if (single | (significand == 0)).all():
            return wide.astype(np.float64)
    return np.fromstring(text, sep=",")


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
