"""Reading ``custom:`` model files: the byte-level reader of the coefficient
arrays against ``json.load`` + ``model_from_dict``, its fallback on every
other input, CLI errors identical to those with json.load, and its memory
ceiling."""

import decimal
import json
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import stochsamp.cli as cli
from stochsamp import serialize
from stochsamp.cli import main
from stochsamp.sampling import build_frame_model
from stochsamp.serialize import (
    complex_array_from_lists,
    dumps,
    model_from_dict,
    model_to_dict,
    read_model_json,
)


def random_frame(ambient=24, n=5, seed=0):
    rng = np.random.default_rng(seed)
    s = rng.standard_normal((ambient, ambient)) + 1j * rng.standard_normal((ambient, ambient))
    w = rng.standard_normal((ambient, n)) + 1j * rng.standard_normal((ambient, n))
    # Values that stress the decimal round trip and the sign handling.
    s[0, :4] = [-0.0 + 0.0j, complex(0.0, -0.0), 5e-324 - 1.5e50j, -2.5e-310 + 1e-5j]
    w[1, 0] = complex(-0.0, -0.0)
    return s, w


def write_rows(path, s, w, declared_bounds="null"):
    """The row-by-row layout of the benchmark's frame writer."""

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
        fp.write(f'{{"type": "FrameModel", "declared_bounds": {declared_bounds},\n"s_coef": ')
        matrix(fp, s)
        fp.write(',\n"w_coef": ')
        matrix(fp, w)
        fp.write("}\n")


def write_dumps(path, s, w, declared_bounds=None):
    path.write_text(json.dumps(model_to_dict(build_frame_model(s, w, declared_bounds))))


def write_indented(path, s, w, declared_bounds=None):
    path.write_text(dumps(model_to_dict(build_frame_model(s, w, declared_bounds))))


def write_bare(path, s, w, declared_bounds=None):
    def pairs(a):
        return [[[z.real, z.imag] for z in row] for row in a]

    path.write_text(json.dumps({
        "type": "FrameModel", "s_coef": pairs(s), "w_coef": pairs(w),
        "declared_bounds": declared_bounds,
    }))


def json_load(path):
    with open(path, encoding="utf-8") as fp:
        return json.load(fp)


def read_fast(path):
    """The byte-level reader alone: None where read_model_json falls back."""
    with open(path, "rb") as fp:
        return serialize._read_pair_arrays(fp, path.stat().st_size)


def assert_same_model(path):
    got = model_from_dict(read_model_json(path))
    ref = model_from_dict(json_load(path))
    assert got.s_coef.tobytes() == ref.s_coef.tobytes()
    assert got.w_coef.tobytes() == ref.w_coef.tobytes()
    assert got.s_coef.shape == ref.s_coef.shape and got.w_coef.shape == ref.w_coef.shape
    assert got.declared_bounds == ref.declared_bounds
    return got


WRITERS = {"rows": write_rows, "dumps": write_dumps, "indented": write_indented}


@pytest.mark.parametrize("layout", sorted(WRITERS))
@pytest.mark.parametrize("chunk", [1, 7, 1 << 20])
def test_reader_matches_json_load(tmp_path, monkeypatch, layout, chunk):
    # Small chunks put chunk boundaries at every kind of byte.
    monkeypatch.setattr(serialize, "_CHUNK", chunk)
    s, w = random_frame()
    path = tmp_path / "frame.json"
    WRITERS[layout](path, s, w)
    data = read_model_json(path)
    assert isinstance(data["s_coef"], np.ndarray) and data["s_coef"].shape == (24, 24, 2)
    assert isinstance(data["w_coef"], np.ndarray) and data["w_coef"].shape == (24, 5, 2)
    model = assert_same_model(path)
    assert model.s_coef.tobytes() == s.tobytes()
    assert model.w_coef.tobytes() == w.tobytes()


@pytest.mark.parametrize("layout", ["rows", "dumps", "indented"])
def test_declared_bounds_read(tmp_path, layout):
    s, w = random_frame(seed=1)
    path = tmp_path / "frame.json"
    if layout == "rows":
        write_rows(path, s, w, declared_bounds='["0.5", "2", "0.25", "4"]')
    else:
        WRITERS[layout](path, s, w, declared_bounds=(0.5, 2.0, 0.25, 4.0))
    assert assert_same_model(path).declared_bounds == (0.5, 2.0, 0.25, 4.0)


def test_bare_numbers_read_through_json_load(tmp_path):
    s, w = random_frame(seed=2)
    path = tmp_path / "frame.json"
    write_bare(path, s, w, declared_bounds=[0.5, 2.0, 0.25, 4.0])
    assert isinstance(read_model_json(path)["s_coef"], list)
    model = assert_same_model(path)
    assert model.s_coef.tobytes() == s.tobytes()
    assert model.declared_bounds == (0.5, 2.0, 0.25, 4.0)


def test_key_order_and_nesting(tmp_path):
    s, w = random_frame(ambient=4, n=2, seed=3)
    doc = model_to_dict(build_frame_model(s, w))
    path = tmp_path / "frame.json"
    # w_coef before s_coef, and other fields after both.
    path.write_text(json.dumps(dict(reversed(list(doc.items())))))
    assert isinstance(read_model_json(path)["s_coef"], np.ndarray)
    assert_same_model(path)
    # A second "s_coef" (here inside another field) is left to json.load,
    # which keeps the top-level one.
    path.write_text(json.dumps({**doc, "note": {"s_coef": doc["w_coef"]}}))
    assert isinstance(read_model_json(path)["s_coef"], list)
    assert_same_model(path)


@pytest.mark.parametrize("text", [
    '["1", "2"]',                # an array of the right shape at the top level
    '{"type": "FrameModel", "s_coef": [[["1","0"]]], "w_coef": [[["1","0"]]]',
    '{"type": "FrameModel", "s_coef": [[["1","0"]]], "w_coef": [[["1","0"]]],}',
    '{"type": "FrameModel", "s_coef": [[["1","0"]]]x, "w_coef": [[["1","0"]]]}',
    '{"type": "FrameModel", "s_coef": [[["1","0"]]], "w_coef": [[["1","0"]]]}\n{}',
    # The only "s_coef" is not a top-level key.
    '{"type": "FrameModel", "x": {"s_coef": [[["1","0"]]]}, "w_coef": [[["1","0"]]]}',
    # json.load keeps the last of two equal keys.
    '{"type": "FrameModel", "s_coef": [[["1","0"]]], "w_coef": [[["1","0"]]], "s_coef": null}',
    # The top-level key is spelled with an escape; json.load reads it as s_coef.
    '{"type": "FrameModel", "s\\u005fcoef": null, "x": {"s_coef": [[["1","0"]]]},'
    ' "w_coef": [[["1","0"]]]}',
])
def test_other_documents_fall_back(tmp_path, text):
    path = tmp_path / "frame.json"
    path.write_text(text)
    assert read_fast(path) is None


# Entries of s_coef that the byte-level reader must hand to json.load; the
# first element of the first pair is replaced by each.
@pytest.mark.parametrize("entry", [
    '" 1"', '"1 "', '"\t1"', '"1\n"', '"1 2"', '""', '" "', '"1"2', '2"1"', '"1" "2"',
    '"1-2"', '"1e"', '"-"', '"."', '"+.e1"', '"0x10"', '"1_0"', '"nan"', '"inf"',
    '"\\u0031"', '1', '-0.0', '1e5', '"1", "2"', '["1"]',
])
def test_entries_outside_the_fast_form_fall_back(tmp_path, entry):
    path = tmp_path / "frame.json"
    path.write_text('{"type": "FrameModel", "s_coef": [[[%s, "0"], ["1", "0"]]],'
                    ' "w_coef": [[["1", "0"]]]}' % entry)
    assert read_fast(path) is None


@pytest.mark.parametrize("warn", [True, False])
def test_partial_parse_falls_back(tmp_path, monkeypatch, warn):
    # numpy 1.x: on text it cannot read to the end, np.fromstring warns (a
    # DeprecationWarning) and returns the values read so far.
    def fromstring(text, dtype=float, sep=""):
        calls.append(dtype)
        if warn:
            warnings.warn("string or file could not be read to its end", DeprecationWarning)
        return np.ones(3, dtype)

    calls = []
    path = tmp_path / "frame.json"
    path.write_text('{"type": "FrameModel", "s_coef": [[["1", "0"], ["1", "0"]]],'
                    ' "w_coef": [[["1", "0"]]]}')
    monkeypatch.setattr(np, "fromstring", fromstring)
    assert read_fast(path) is None
    assert calls


@pytest.mark.parametrize("entry", ['"1."', '".5"', '"+1"', '"-0"', '"00012"', '"1E+3"',
                                   '"1e999"', '"4.9406564584124654e-324"'])
def test_float_syntax_beyond_json_numbers(tmp_path, entry):
    # Quoted strings are read as float() reads them, json.load path included.
    path = tmp_path / "frame.json"
    path.write_text('{"type": "FrameModel", "s_coef": [[[%s, "0"], ["1", "0"]]],'
                    ' "w_coef": [[["1", "0"]]]}' % entry)
    data = read_model_json(path)
    assert isinstance(data["s_coef"], np.ndarray)
    ref = np.asarray(json_load(path)["s_coef"], dtype=float)
    assert data["s_coef"].tobytes() == ref.tobytes()


def float_corpus(count=100_000, seed=11):
    """Decimal number tokens that stress correct rounding, grouped by kind:
    ``.17g`` and ``repr`` of random bit patterns, exact midpoints between
    adjacent doubles written in full, decimals 1e-20 to 1e-40 (relative) from
    such a midpoint, subnormals and their midpoints, overflow, underflow and
    short forms."""
    rng = np.random.default_rng(seed)
    exact = decimal.Context(prec=2000)
    k = count // 8 + 100

    def random_doubles(subnormal=False):
        bits = rng.integers(0, 2**63, size=k, dtype=np.uint64) << np.uint64(1)
        bits |= rng.integers(0, 2, size=k, dtype=np.uint64)
        if subnormal:
            bits &= np.uint64(0x800FFFFFFFFFFFFF)
        x = bits.view(np.float64)
        return x[np.isfinite(x)].tolist()

    def moderate():
        return (rng.standard_normal(k) * 2.0 ** rng.integers(-60, 61, k)).tolist()

    def midpoint(x):
        return exact.divide(exact.add(decimal.Decimal(x), decimal.Decimal(np.nextafter(x, 1e300))), 2)

    near = [
        decimal.Context(prec=70).fma(m, decimal.Decimal(sign).scaleb(-offset), m)
        for m, offset, sign in zip(map(midpoint, moderate()), rng.integers(20, 41, k).tolist(),
                                   rng.choice([-1, 1], k).tolist())
    ]
    edge = ["1e309", "-1.8e308", "1.7976931348623158e308", "1.7976931348623159e308", "1e999",
            "-1e5000", "1e-400", "-1e-5000", "2.4703282292062327e-324", "2.4703282292062328e-324",
            "8.98846567431158e307", "0", "-0", "1", "+1", ".5", "1.", "00012", "1E+3", "-1e-3",
            "123456789012345678901234567890", "0.1", "9007199254740993"]
    kinds = [
        [format(x, ".17g") for x in random_doubles()],
        [repr(x) for x in random_doubles()],
        [str(midpoint(x)) for x in moderate()],
        [format(x, "e") for x in near],
        [format(x, ".17g") if i % 2 else repr(x)
         for i, x in enumerate(random_doubles(subnormal=True))],
        # Subnormal midpoints run to 770 digits; an eighth of these are.
        [str(midpoint(x)) if i % 8 == 0 else format(x, ".17g")
         for i, x in enumerate(random_doubles(subnormal=True))],
        [edge[i % len(edge)] for i in range(k)],
        [str(i) for i in rng.integers(-10**12, 10**12, k).tolist()],
    ]
    return [t for kind in kinds for t in kind[:count // len(kinds)]]


@pytest.fixture(scope="module")
def corpus():
    tokens = float_corpus()
    return tokens, np.array([float(t) for t in tokens])


def write_tokens(path, tokens, cols=200):
    pairs = [f'["{re}","{im}"]' for re, im in zip(tokens[0::2], tokens[1::2])]
    rows = ["[" + ",".join(pairs[i:i + cols]) + "]" for i in range(0, len(pairs), cols)]
    path.write_text('{"type": "FrameModel", "s_coef": [%s],\n"w_coef": [[["1", "0"]]]}'
                    % ",\n".join(rows))


@pytest.mark.parametrize("route, chunk, step", [
    ("platform", 1 << 18, 1), ("float64", 1 << 18, 1),
    # Chunks of a number or two: at the default size nearly every chunk holds
    # some number that sends it all to the float64 re-read.
    ("platform", 64, 1),
    # One cut between every two tokens, and cuts inside tokens.
    ("platform", 1, 50), ("platform", 7, 50),
])
def test_corpus_read_bit_for_bit_as_float(tmp_path, monkeypatch, corpus, route, chunk, step):
    tokens, ref = corpus
    tokens, ref = tokens[::step], ref[::step]
    monkeypatch.setattr(serialize, "_CHUNK", chunk)
    if route == "float64":
        monkeypatch.setattr(serialize, "_X87_LONG_DOUBLE", False)
    path = tmp_path / "frame.json"
    write_tokens(path, tokens, cols=200 if step == 1 else 10)
    data = read_fast(path)
    assert data is not None
    assert data["s_coef"].tobytes() == ref.tobytes()


def spy_fromstring(monkeypatch):
    """The dtype of each np.fromstring call, in order."""
    calls, fromstring = [], np.fromstring

    def spy(text, dtype=float, sep=""):
        calls.append(np.dtype(dtype))
        return fromstring(text, dtype=dtype, sep=sep)

    monkeypatch.setattr(np, "fromstring", spy)
    return calls


@pytest.mark.skipif(not serialize._X87_LONG_DOUBLE, reason="long double is not x87")
def test_frame_takes_the_long_double_route(tmp_path, monkeypatch):
    # A 17-digit frame, as the benchmark writes it, with signed zeros: no
    # chunk is read again as float64.
    rng = np.random.default_rng(9)
    s = rng.standard_normal((80, 80)) + 1j * rng.standard_normal((80, 80))
    w = rng.standard_normal((80, 8)) + 1j * rng.standard_normal((80, 8))
    s[0, :2] = [complex(-0.0, 0.0), complex(0.0, -0.0)]
    path = tmp_path / "frame.json"
    write_rows(path, s, w)
    monkeypatch.setattr(serialize, "_CHUNK", 4096)
    calls = spy_fromstring(monkeypatch)
    model = model_from_dict(read_model_json(path))
    assert model.s_coef.tobytes() == s.tobytes() and model.w_coef.tobytes() == w.tobytes()
    assert len(calls) > 2 and set(calls) == {np.dtype(np.longdouble)}


@pytest.mark.skipif(not serialize._X87_LONG_DOUBLE, reason="long double is not x87")
def test_midpoints_and_overflow_are_read_again(tmp_path, monkeypatch):
    # 1 + 2**-53 lies halfway between 1 and the next double; the second
    # token lies just above it, so strtold rounds it to the midpoint and the
    # cast would round that to 1 instead of 1 + 2**-52.
    half = "1.00000000000000011102230246251565404236316680908203125"
    tokens = [half, half + "0001", "1e999", "-1e-400"]
    path = tmp_path / "frame.json"
    write_tokens(path, tokens)
    monkeypatch.setattr(serialize, "_CHUNK", 1)
    calls = spy_fromstring(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = read_fast(path)
    assert data["s_coef"].tobytes() == np.array([float(t) for t in tokens]).tobytes()
    assert data["s_coef"][0, 0, 1] == 1 + 2**-52
    # Each of the four is read again on its own, from a chunk of one number.
    assert calls.count(np.dtype(np.float64)) == 4


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_pipe_is_read_once_with_json_load(tmp_path):
    s, w = random_frame(ambient=4, n=2, seed=6)
    text = json.dumps(model_to_dict(build_frame_model(s, w)))
    fifo = tmp_path / "frame.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
    writer.start()
    try:
        data = read_model_json(fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert data == json.loads(text)


def _cli_error(capsys, path):
    code = main(["leverage", "--model", f"custom:{path}", "--n", "1"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


MALFORMED = {
    "ragged row": '[[["1","0"],["1","0"]],[["1","0"]]]',
    "three-element pair": '[[["1","0","0"],["1","0","0"]]]',
    "non-numeric string": '[[["1","0"],["one","0"]]]',
    "empty string": '[[["1","0"],["","0"]]]',
    "nan": '[[["1","0"],["nan","0"]]]',
    "null array": "null",
    "object array": '{"re": "1"}',
}


@pytest.mark.parametrize("name", sorted(MALFORMED) + ["missing w_coef", "wrong type",
                                                      "not an object"])
def test_malformed_files_exit_2_as_with_json_load(tmp_path, capsys, monkeypatch, name):
    path = tmp_path / "frame.json"
    s_coef = MALFORMED.get(name, '[[["1","0"]],[["0","1"]]]')
    doc = '{"type": "%s", "s_coef": %s%s}' % (
        "Frame" if name == "wrong type" else "FrameModel", s_coef,
        "" if name == "missing w_coef" else ', "w_coef": [[["1","0"]],[["0","0"]]]',
    )
    path.write_text(f"[{doc}]" if name == "not an object" else doc)
    got = _cli_error(capsys, path)
    monkeypatch.setattr(cli, "read_model_json", json_load)
    assert _cli_error(capsys, path) == got
    code, out, err = got
    assert code == 2 and out == ""
    assert err.startswith("config error: ")
    if name == "missing w_coef":
        assert "serialized FrameModel has no 'w_coef' array" in err
    if name == "null array":
        assert "serialized FrameModel has no 's_coef' array" in err
    if name in ("ragged row", "three-element pair", "non-numeric string", "empty string",
                "object array"):
        assert err.startswith("config error: s_coef must be rows of [re, im] pairs of numbers")
    if name == "nan":
        assert "s_coef contains non-finite entries" in err


@pytest.mark.parametrize("key, array, message", [
    ("s_coef", '[[[true,"0"]],[["0","1"]]]', "has an entry that is not a number: true"),
    ("s_coef", '[[["1",false]],[["0","1"]]]', "has an entry that is not a number: false"),
    ("w_coef", '[[["1","0"]],[[null,"0"]]]', "has an entry that is not a number: null"),
    ("w_coef", '[[["a","0"]],[["0","0"]]]',
     "must be rows of [re, im] pairs of numbers: could not convert string to float: 'a'"),
    ("w_coef", '[[["1","0"]],[["0","0"],["0","0"]]]',
     "must be rows of [re, im] pairs of numbers: setting an array element"),
])
def test_bad_entries_exit_2_naming_the_field(tmp_path, capsys, key, array, message):
    # float() reads true as 1 and numpy reads null as NaN; neither is a number.
    arrays = {"s_coef": '[[["1","0"]],[["0","1"]]]', "w_coef": '[[["1","0"]],[["0","0"]]]'}
    arrays[key] = array
    path = tmp_path / "frame.json"
    path.write_text('{"type": "FrameModel", "s_coef": %(s_coef)s, "w_coef": %(w_coef)s}' % arrays)
    code, out, err = _cli_error(capsys, path)
    assert code == 2 and out == ""
    assert err.startswith(f"config error: {key} {message}")


def test_unreadable_file_message(tmp_path, capsys):
    code, out, err = _cli_error(capsys, tmp_path / "absent.json")
    assert code == 2 and out == ""
    assert err.startswith(f"config error: cannot read model file {tmp_path / 'absent.json'}: ")


def test_signed_zeros_and_nan_kept():
    z = complex_array_from_lists([["-0", "1"], ["-0", "-0"], ["0", "-0"], ["1", "nan"]])
    assert z.dtype == np.complex128 and z.shape == (4,)
    assert np.signbit(z.real).tolist() == [True, True, False, False]
    assert np.signbit(z.imag).tolist() == [False, True, True, False]
    assert z[3].real == 1.0 and np.isnan(z[3].imag)


def test_signed_zeros_round_trip(tmp_path):
    s, w = random_frame(ambient=4, n=2, seed=4)
    model = build_frame_model(s, w)
    back = model_from_dict(model_to_dict(model))
    assert back.s_coef.tobytes() == s.tobytes() and back.w_coef.tobytes() == w.tobytes()
    path = tmp_path / "frame.json"
    write_rows(path, s, w)
    from_file = model_from_dict(read_model_json(path))
    assert from_file.s_coef.tobytes() == s.tobytes()
    assert from_file.w_coef.tobytes() == w.tobytes()


def test_memory_of_reading_a_400_frame(tmp_path):
    # The benchmark's frame size: 400 x 400 S and 400 x 32 W, 7.6 MiB of text
    # here.  Measured peaks (numpy 2.4, x87 long double): 11.9 MiB, 1.56
    # times the file, for the byte-level reader, which holds the file, the
    # float64 values and one chunk of checks or of long double numbers;
    # 46 MiB, 6.0 times the file, for json.load.
    s, w = random_frame(ambient=400, n=32, seed=5)
    path = tmp_path / "frame.json"
    write_rows(path, s, w)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        data = read_model_json(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(data["s_coef"], np.ndarray)
    assert peak < 1.75 * size


def test_build_frame_model_copies_caller_arrays():
    s, w = random_frame(ambient=12, n=3, seed=6)
    model = build_frame_model(s, w)
    s_bytes, w_bytes = model.s_coef.tobytes(), model.w_coef.tobytes()
    s[:] = 7.0
    w[:] = -7.0
    assert model.s_coef.tobytes() == s_bytes
    assert model.w_coef.tobytes() == w_bytes
    assert not model.s_coef.flags.writeable and not model.w_coef.flags.writeable


def test_model_from_dict_builds_through_build_frame_model(monkeypatch):
    s, w = random_frame(ambient=12, n=3, seed=7)
    data = model_to_dict(build_frame_model(s, w))
    calls = []
    build = serialize.build_frame_model
    monkeypatch.setattr(serialize, "build_frame_model",
                        lambda *args: calls.append(args) or build(*args))
    model = model_from_dict(data)
    assert len(calls) == 1
    assert model.s_coef.tobytes() == s.tobytes() and model.w_coef.tobytes() == w.tobytes()


def test_model_from_dict_never_shares_its_input(tmp_path):
    s, w = random_frame(ambient=12, n=3, seed=8)
    path = tmp_path / "frame.json"
    write_rows(path, s, w)
    data = read_model_json(path)
    pairs = np.stack([s.real, s.imag], axis=-1)
    view = pairs[:]
    view.setflags(write=False)
    # The reader's arrays, a caller's writeable array and a read-only view
    # of one are all copied; the model's arrays are read-only.
    for raw in (data["s_coef"], pairs, view):
        model = model_from_dict(dict(data, s_coef=raw))
        assert not np.shares_memory(model.s_coef, raw)
        assert not np.shares_memory(model.w_coef, data["w_coef"])
        assert not model.s_coef.flags.writeable and not model.w_coef.flags.writeable
        pairs[0, 0] = 99.0
        assert model.s_coef.tobytes() == s.tobytes()
        pairs[0, 0] = [s[0, 0].real, s[0, 0].imag]
