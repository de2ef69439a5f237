import json
import math
import os
import re
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest

import stochsamp
import stochsamp.cli as cli
import stochsamp.sampling as sampling
from stochsamp.cli import main
from stochsamp.sampling import build_frame_model, draw_samples
from stochsamp.serialize import model_to_dict


# fl:n=4,ambient=301,max_defect=0.05 as the config resolves it.
FL_4_RESOLVED = ("fourier-legendre", {"n": 4, "ambient": 301, "J": None, "max_defect": 0.05})


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


class TestReconstruct:
    def test_identity_run(self, capsys):
        code, report = run(
            capsys, "reconstruct", "--model", "identity:8", "--n", "4",
            "--m", "20", "--seed", "7",
        )
        assert code == 0
        err = float(report["err_l2"])
        tail = float(report["tail_err"])
        k = float(report["k_factor"])
        assert report["bound_ok"]
        assert err <= tail * math.sqrt(1 + k**2) + 1e-8

    def test_fl_with_exp_target(self, capsys, tmp_path):
        out = tmp_path / "run"
        code, report = run(
            capsys, "reconstruct", "--model", "fl:n=10,ambient=301,max_defect=0.05",
            "--target", "exp_c:1", "--m", "160", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        assert "bound_ok" in report
        assert (tmp_path / "run.json").exists()
        csv_text = (tmp_path / "run.csv").read_text()
        assert csv_text.splitlines()[0] == "coef_index,x_tilde_re,x_tilde_im"
        assert len(csv_text.splitlines()) == 11

    def test_fl_without_target_rejected(self, capsys):
        code, _ = run(capsys, "reconstruct", "--model", "fl:n=4,ambient=301,max_defect=0.05")
        assert code == 2


class TestConfigHandling:
    def test_config_file_with_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "identity:8", "n": 3, "m": 30, "seed": 5}))
        code, report = run(capsys, "reconstruct", "--config", str(cfg), "--n", "4")
        assert code == 0
        assert report["n"] == 4  # flag overrides config
        assert report["m"] == 30  # config value kept

    def test_malformed_config_exit_2_no_files(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        out = tmp_path / "res"
        code, _ = run(
            capsys, "reconstruct", "--config", str(cfg), "--out", str(out)
        )
        assert code == 2
        assert not (tmp_path / "res.json").exists()
        assert not (tmp_path / "res.csv").exists()

    def test_unknown_config_field(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _ = run(capsys, "reconstruct", "--config", str(cfg))
        assert code == 2

    def test_unknown_model_kind(self, capsys):
        code, _ = run(capsys, "reconstruct", "--model", "warp:3")
        assert code == 2


# mc-gram --model identity:4 --m 3 as the config resolves it.
MC_GRAM_M3 = dict(cli.DEFAULTS, model=("identity", {"dim": 4}), n=4, m=3)


@pytest.mark.parametrize("argv,code,expect", [
    (["mc-gram", "--model", "identity:4", "--m", "3"], 0, MC_GRAM_M3),
    (["mc-gram", "--model=identity:4", "--m=3"], 0, MC_GRAM_M3),
    (["mc-gram", "--m", "7", "--model", "identity:8", "--model=identity:4", "--m", "3"],
     0, MC_GRAM_M3),
    ([], 2, "no command given"),
    (["warp"], 2, "'warp'"),
    (["mc-gram", "--tri", "5"], 2, "'--tri'"),
    (["mc-gram", "--bogus", "1"], 2, "'--bogus'"),
    (["mc-gram", "-m", "3"], 2, "'-m'"),
    (["mc-gram", "--m", "3", "stray"], 2, "'stray'"),
    (["mc-gram", "--m"], 2, "flag --m needs a value"),
    (["mc-gram", "--m", "--n", "3"], 2, "flag --m needs a value"),
    (["-h"], 0, "usage"),
    (["--help"], 0, "usage"),
    (["mc-gram", "--m", "3", "-h"], 0, "usage"),
])
def test_command_line_forms(capsys, monkeypatch, argv, code, expect):
    """A command, then --NAME VALUE or --NAME=VALUE, the last of a repeated
    flag winning; any other token returns 2 naming it, and -h or --help
    where a command or flag is expected prints the usage."""
    resolved = []
    monkeypatch.setitem(cli.RUNNERS, "mc-gram", resolved.append)
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == "" and expect in captured.err
    elif expect == "usage":
        assert captured.out.startswith("usage: stochsamp COMMAND")
        assert all(name in captured.out for name in cli.RUNNERS)
        assert all(f"--{name}" in captured.out for name in ["config", *cli.FLAG_FIELDS])
    else:
        assert resolved == [expect]


class TestSpecKeys:
    """Model and target specs are checked key by key when the config is
    loaded, before any model is built."""

    @pytest.fixture(autouse=True)
    def no_models(self, monkeypatch):
        def refuse(cfg):
            raise AssertionError("a model was built for a bad spec")

        monkeypatch.setattr(cli, "_build_model", refuse)

    @pytest.mark.parametrize("flag,spec,key", [
        ("--model", "fl:N=4,ambient=301,max_defect=0.05", "N"),
        ("--model", "identity:dim=8,foo=3", "foo"),
        ("--model", "identity:abc", "dim"),
        ("--model", "fl:n=4,ambient=3.5", "ambient"),
        ("--model", "custom:path=frame.json,mode=fast", "mode"),
        ("--target", "exp_c:xyz", "c"),
        ("--target", "exp_c:nan", "c"),
        ("--target", "pole_a:a=1.5,b=2", "b"),
        # Neither "value" nor "kind" is a key of a 'kind:...' string.
        ("--model", "fl:value=6,ambient=301,max_defect=0.05", "'value'"),
        ("--model", "fl:kind=identity,dim=4", "'kind'"),
    ])
    @pytest.mark.parametrize("command", ["reconstruct", "mc-gram", "leverage", "bounds"])
    def test_bad_spec_rejected(self, capsys, command, flag, spec, key):
        code = main([command, flag, spec, "--n", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert repr(spec) in captured.err
        assert key in captured.err

    def test_config_spec_value_must_be_an_integer(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"kind": "identity", "dim": 8.5}}))
        code = main(["leverage", "--config", str(cfg)])
        assert code == 2
        assert "dim must be an integer, got 8.5" in capsys.readouterr().err

    @pytest.mark.parametrize("name,spec,key", [
        ("model", {"kind": "fl", "n": True, "ambient": 301, "max_defect": 0.05}, "n"),
        ("model", {"kind": "fl", "n": 4, "ambient": 301, "max_defect": False}, "max_defect"),
        ("model", {"kind": "identity", "dim": True}, "dim"),
        ("model", {"kind": "custom", "path": True}, "path"),
        ("target", {"kind": "exp_c", "c": True}, "c"),
    ])
    def test_config_spec_boolean_rejected(self, capsys, tmp_path, name, spec, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name: spec}))
        with pytest.raises(cli.InputValidationError, match=f": {key} must be"):
            cli._spec_fields(spec, name, cli.MODEL_FIELDS if name == "model" else cli.TARGET_FIELDS)
        code = main(["mc-gram", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"{key} must be" in captured.err

    @pytest.mark.parametrize("name", ["model", "target"])
    @pytest.mark.parametrize("kind", [[1], {"a": 1}, 5])
    def test_config_spec_kind_must_be_a_name(self, capsys, tmp_path, name, kind):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name: {"kind": kind}}))
        code = main(["mc-gram", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"unknown {name} kind {kind!r}" in captured.err

    @pytest.mark.parametrize("command", ["reconstruct", "mc-gram"])
    def test_target_built_before_model(self, capsys, command):
        # The spec parses; the target itself is invalid (pole inside [-1, 1]).
        code = main([command, "--model", "custom:frame.json", "--target", "pole_a:0.5"])
        assert code == 2
        assert "pole location must satisfy a > 1" in capsys.readouterr().err


@pytest.mark.parametrize("path", [["a"], 5, True])
def test_custom_path_must_be_a_string(capsys, tmp_path, monkeypatch, path):
    def refuse(path):
        raise AssertionError("a model file was opened for a bad path")

    monkeypatch.setattr(cli, "read_model_json", refuse)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"kind": "custom", "path": path}}))
    code = main(["leverage", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f": path must be a string, got {path!r}" in captured.err


class TestUnusedFields:
    """A field given by a flag or a config key that the command does not read
    exits 2 naming the field and the command; defaults do not count."""

    @pytest.fixture(autouse=True)
    def no_models(self, monkeypatch):
        def refuse(cfg):
            raise AssertionError("a model was built for an unused field")

        monkeypatch.setattr(cli, "_build_model", refuse)

    FLAGS = {"target": "exp_c:1", "m": "3", "delta": "0.2", "epsilon": "0.3",
             "trials": "5", "seed": "1"}

    @pytest.mark.parametrize("command,field", [
        ("reconstruct", "trials"), ("reconstruct", "epsilon"), ("convergence", "epsilon"),
        *(("leverage", f) for f in ("target", "m", "delta", "epsilon", "trials", "seed")),
        *(("bounds", f) for f in ("target", "m", "trials", "seed")),
    ])
    def test_unused_flag_rejected(self, capsys, command, field):
        code = main([command, "--model", "identity:4", f"--{field}", self.FLAGS[field]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"{command} does not use {field}" in captured.err

    def test_unused_config_key_rejected_even_at_its_default(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "identity:4", "trials": 100}))
        code = main(["leverage", "--config", str(cfg)])
        assert code == 2
        assert "leverage does not use trials" in capsys.readouterr().err

    def test_every_unused_field_named(self, capsys):
        code = main(["leverage", "--model", "identity:4", "--trials", "5", "--m", "3"])
        assert code == 2
        assert "leverage does not use m, trials" in capsys.readouterr().err

    def test_bad_values_reported_first(self, capsys):
        code = main(["leverage", "--model", "identity:4", "--trials", "0"])
        assert code == 2
        assert "trials must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(cli.COMMAND_FIELDS))
    def test_every_field_a_command_reads_accepted(self, tmp_path, command):
        values = {"model": "fl:n=4,ambient=301,max_defect=0.05", "target": "exp_c:1",
                  "n": [1, 2, 3, 4] if command == "convergence" else 4, "m": 3,
                  "delta": 0.2, "epsilon": 0.3, "trials": 5, "seed": 1,
                  "p_spec": "leverage", "out": str(tmp_path / "run")}
        wrote = {key: values[key] for key in cli.COMMAND_FIELDS[command]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(wrote))
        loaded = cli._load_config(*cli._parse_argv([command, "--config", str(cfg)]))
        # The specs are kept in their resolved forms.
        resolved = dict(wrote, model=FL_4_RESOLVED)
        if "target" in wrote:
            resolved["target"] = (cli.fl.exp_target(1.0), {"kind": "exp_c", "c": 1.0})
        assert {key: loaded[key] for key in wrote} == resolved


class TestLoadChecks:
    """The config key command, p_spec, a target's model kind, the target an
    FL model needs and the ceilings on m and on model sizes are checked at
    load, naming the field, before any model is built or sample drawn."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the config was checked")

        monkeypatch.setattr(cli, "_build_model", refuse)
        monkeypatch.setattr(cli, "draw_samples", refuse)

    @staticmethod
    def rejected(capsys, tmp_path, command, cfg, *argv) -> str:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main([command, "--config", str(path), *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        return captured.err

    @pytest.mark.parametrize("value", ["leverage", 5, None, "mc_gram"])
    def test_command_other_than_the_one_run_rejected(self, capsys, tmp_path, value):
        err = self.rejected(capsys, tmp_path, "mc-gram", {"command": value, "model": "identity:4"})
        assert f"config field command is {value!r}, but the command run is mc-gram" in err

    def test_command_equal_to_the_one_run_accepted(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "leverage", "model": "identity:4"}))
        args = cli._parse_argv(["leverage", "--config", str(path)])
        assert cli._load_config(*args)["command"] == "leverage"

    @pytest.mark.parametrize("value", [
        "foo", "Leverage", "", 5, True, {"kind": "leverage"}, [], [1.0, -1.0], [1, True],
        [1, "2"], [[1, 2]], [1e400], [10**400],
    ])
    def test_bad_p_spec_rejected(self, capsys, tmp_path, value):
        cfg = {"p_spec": value, "model": "fl:n=10,ambient=20001"}
        err = self.rejected(capsys, tmp_path, "leverage", cfg)
        assert "p_spec must be 'leverage' or 'uniform_on_support' or a list" in err

    @pytest.mark.parametrize("value", ["leverage", "uniform_on_support", [1, 0.5, 0]])
    def test_good_p_spec_accepted(self, tmp_path, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"p_spec": value}))
        args = cli._parse_argv(["leverage", "--config", str(path)])
        assert cli._load_config(*args)["p_spec"] == value

    @pytest.mark.parametrize("command", ["reconstruct", "mc-gram"])
    @pytest.mark.parametrize("model", [["--model", "identity:8"], ["--model", "custom:f.json"], []])
    @pytest.mark.parametrize("target", ["exp_c:1", "pole_a:3"])
    def test_target_on_a_non_fl_model_rejected(self, capsys, command, model, target):
        code = main([command, *model, "--target", target])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "target is for fourier-legendre models only" in captured.err

    def test_target_on_a_convergence_sweep_accepted(self):
        args = cli._parse_argv(["convergence", "--target", "exp_c:2"])
        assert cli._load_config(*args)["target"] == (cli.fl.exp_target(2.0), {"kind": "exp_c", "c": 2.0})

    def test_sweep_defaults_resolved_at_load(self):
        cfg = cli._load_config(*cli._parse_argv(["convergence"]))
        assert cfg["n"] == [4, 8, 12, 16, 20]
        assert cfg["model"] == ("fourier-legendre", {"n": 20, "ambient": 2001, "J": None,
                                                     "max_defect": 1e-2})
        assert cfg["target"] == (cli.fl.pole_target(1.5), {"kind": "pole_a", "a": 1.5})

    @pytest.mark.parametrize("command", ["reconstruct", "mc-gram", "convergence"])
    def test_m_above_the_ceiling_rejected(self, capsys, command):
        # Rejected at load: nothing of size m is allocated.
        code = main([command, "--m", str(cli.M_MAX + 1)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"m must be an integer in [1, {cli.M_MAX}]" in captured.err

    def test_m_at_the_ceiling_accepted(self):
        args = cli._parse_argv(["mc-gram", "--m", str(cli.M_MAX)])
        assert cli._load_config(*args)["m"] == cli.M_MAX == 1_000_000

    def test_m_times_n_ceiling(self):
        # m n at MN_MAX, one 160 MB complex m x n array, is accepted; one
        # more entry's worth of m is not, given or from rate_onb.
        assert cli.MN_MAX == 10 * cli.M_MAX
        assert cli._pick_m({"m": cli.M_MAX, "delta": 0.1}, 10) == cli.M_MAX
        with pytest.raises(cli.InputValidationError, match=r"m must be at most 909090 for n = 11"):
            cli._pick_m({"m": cli.M_MAX, "delta": 0.1}, 11)
        assert cli._pick_m({"m": None, "delta": 0.1}, 100) == 2027
        with pytest.raises(cli.InputValidationError, match=r"got 26410 \(the rate_onb"):
            cli._pick_m({"m": None, "delta": 0.1}, 1000)

    @pytest.fixture
    def no_builders(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a model was built for a rejected config")

        monkeypatch.setattr(cli.fl, "build_fl_model", refuse)
        monkeypatch.setattr(cli, "_selection_model", refuse)

    @pytest.mark.parametrize("command", ["reconstruct", "mc-gram"])
    @pytest.mark.parametrize("model", ["fl:n=10,ambient=20001", {"kind": "fourier-legendre"}])
    def test_fl_model_without_target_rejected(self, capsys, tmp_path, no_builders, command, model):
        err = self.rejected(capsys, tmp_path, command, {"model": model})
        assert "fourier-legendre models need a --target" in err

    @pytest.mark.parametrize("command", ["leverage", "bounds", "convergence"])
    def test_fl_model_without_target_accepted_where_none_is_read(self, command):
        # The default sweep reaches n = 20, and its default target is pole_a:1.5.
        args = cli._parse_argv([command, "--model", "fl:n=20"])
        target = cli._load_config(*args)["target"]
        if command == "convergence":
            assert target == (cli.fl.pole_target(1.5), {"kind": "pole_a", "a": 1.5})
        else:
            assert target is None

    @pytest.mark.parametrize("spec,key,ceiling", [
        ("identity:3001", "dim", "3000"),
        ("identity:dim=1000000000", "dim", "3000"),
        ({"kind": "identity", "dim": 10**12}, "dim", "3000"),
        ("fl:n=101", "n", "100"),
        ("fl:n=10,ambient=100002", "ambient", "100001"),
        ({"kind": "fl", "n": 4, "ambient": 10**15}, "ambient", "100001"),
    ])
    @pytest.mark.parametrize("command", ["leverage", "bounds", "mc-gram"])
    def test_model_above_its_size_ceiling_rejected(self, capsys, tmp_path, no_builders,
                                                   command, spec, key, ceiling):
        err = self.rejected(capsys, tmp_path, command, {"model": spec})
        assert f"{key} must be at most {ceiling}" in err

    @pytest.mark.parametrize("argv", [
        ["leverage", "--model", "identity:8", "--n", "9"],
        ["leverage", "--model", "fl:n=10", "--n", "11"],
        ["convergence", "--model", "fl:n=10", "--n", "4,8,12,16"],
        ["convergence", "--model", "fl:n=10"],  # the default sweep reaches 20
    ])
    def test_n_above_the_model_columns_rejected(self, capsys, no_builders, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "n must lie in [1, " in captured.err

    @pytest.mark.parametrize("out", [5, True, ""])
    def test_out_must_be_a_nonempty_string(self, capsys, tmp_path, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        err = self.rejected(capsys, tmp_path, "mc-gram",
                            {"model": "identity:8", "trials": 50, "out": out})
        assert "out must be null or a nonempty path prefix" in err
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_out_in_a_missing_directory_rejected(self, capsys, tmp_path):
        err = self.rejected(capsys, tmp_path, "mc-gram", {"model": "identity:8", "trials": 50},
                            "--out", str(tmp_path / "missing" / "run"))
        assert "out must be null or a nonempty path prefix whose directory exists" in err
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_models_at_their_ceilings_accepted(self):
        for spec, resolved in (
            ("identity:3000", ("identity", {"dim": 3000})),
            ("fl:n=100,ambient=100001",
             ("fourier-legendre", {"n": 100, "ambient": 100_001, "J": None, "max_defect": 1e-2})),
        ):
            args = cli._parse_argv(["leverage", "--model", spec])
            assert cli._load_config(*args)["model"] == resolved
        assert (cli.IDENTITY_DIM_MAX, cli.FL_N_MAX, cli.FL_AMBIENT_MAX) == (3000, 100, 100_001)


def test_identity_at_its_ceiling_builds_one_dense_array():
    # One 144 MB complex identity, kept by the model as built: the process
    # peaks below 250 MB (three such arrays were once alive at a time).  The
    # peak is VmHWM, which starts afresh at exec; ru_maxrss would carry the
    # size of the test process the child was forked from (Linux only).
    src = os.path.dirname(os.path.dirname(os.path.abspath(stochsamp.__file__)))
    code = ("import io, contextlib, re\n"
            "from stochsamp.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['leverage', '--model', 'identity:3000', '--n', '4'])\n"
            "status = open('/proc/self/status').read()\n"
            "print(code, int(re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1)) / 1024)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, peak_mb = proc.stdout.split()
    assert code == "0" and float(peak_mb) < 250.0


def test_spec_forms_give_the_same_model_info(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"kind": "fl", "n": 4, "ambient": 301,
                                         "max_defect": 0.05}}))
    infos = []
    for argv in (["--model", "fl:n=4,ambient=301,max_defect=0.05"], ["--config", str(cfg)]):
        code, report = run(capsys, "leverage", *argv)
        assert code == 0
        infos.append(report["model"])
    assert infos == [{"kind": "fourier-legendre", "n": 4, "J": 301, "ambient": 301}] * 2
    for spec in ("identity:6", "identity:dim=6"):
        code, report = run(capsys, "leverage", "--model", spec)
        assert report["model"] == {"kind": "identity", "dim": 6}


def test_identity_model_is_a_selection():
    args = cli._parse_argv(["leverage", "--model", "identity:5"])
    model, info = cli._build_model(cli._load_config(*args))
    assert info == {"kind": "identity", "dim": 5}
    assert model.s_matrix is None
    assert np.array_equal(model.s_rows, np.arange(5))
    assert np.array_equal(model.s_coef, np.eye(5)) and np.array_equal(model.w_coef, np.eye(5))


SMALL_FL = "fl:n=7,ambient=301,max_defect=0.05"


@pytest.mark.parametrize("argv", [
    ["mc-gram", "--model", SMALL_FL, "--target", "exp_c:1", "--trials", "2"],
    ["reconstruct", "--model", SMALL_FL, "--target", "pole_a:2"],
    ["convergence", "--model", SMALL_FL, "--n", "4,5,6,7", "--trials", "2"],
    ["convergence", "--n", "4,5,6,7", "--trials", "1"],
    ["leverage", "--model", SMALL_FL],
    ["bounds"],
    ["mc-gram", "--model", "identity:4", "--trials", "2"],
])
def test_each_spec_parsed_and_target_built_once(capsys, monkeypatch, argv):
    parsed = []
    spec_fields = cli._spec_fields
    monkeypatch.setattr(cli, "_spec_fields",
                        lambda spec, name, kinds: parsed.append(name) or spec_fields(spec, name, kinds))
    built = []
    target_type = cli.fl.AnalyticTarget
    monkeypatch.setattr(cli.fl, "AnalyticTarget", lambda **kw: built.append(kw) or target_type(**kw))
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert parsed.count("model") == 1
    reads_target = report.get("target") is not None
    assert parsed.count("target") == len(built) == reads_target


def test_custom_model_n_checked_against_its_columns(capsys, tmp_path):
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(model_to_dict(build_frame_model(np.eye(3), np.eye(3)[:, :2]))))
    code = main(["leverage", "--model", f"custom:{path}", "--n", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "n must lie in [1, 2], got 3" in captured.err


@pytest.mark.parametrize("command", ["leverage", "bounds"])
def test_custom_model_whose_gram_overflows_names_w_coef(capsys, tmp_path, command):
    # ||v_j||^2 = 1e400 overflows float64; rejected before any division or
    # eigensolve, with no RuntimeWarning (pyproject.toml makes one an error).
    path = tmp_path / "big.json"
    path.write_text(json.dumps(model_to_dict(build_frame_model(np.eye(6), 1e200 * np.eye(6)[:, :4]))))
    code = main([command, "--model", f"custom:{path}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "w_coef" in captured.err and "overflows" in captured.err


class TestDeclaredBounds:
    """A model file's declared_bounds is null or four numbers (or numeric strings)."""

    @staticmethod
    def write(tmp_path, bounds) -> str:
        data = model_to_dict(build_frame_model(np.eye(1), np.eye(1)))
        data["declared_bounds"] = bounds
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(data))
        return f"custom:{path}"

    @pytest.mark.parametrize("bounds", [
        "1234", ["a", "1", "1", "1"], ["1", "1", "1"], [1, 1, 1, 1, 1], [True, 1, 1, 1],
        [[1], 1, 1, 1], {"A": 1}, 4, ["1", "inf", "1", "1"], [2, 1, 1, 1],
    ])
    def test_bad_bounds_rejected(self, capsys, tmp_path, bounds):
        code = main(["leverage", "--model", self.write(tmp_path, bounds), "--n", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "declared_bounds must be null or four finite numbers" in captured.err

    @pytest.mark.parametrize("bounds", [None, [0.5, 2, 0.25, 4], ["0.5", "2", "0.25", "4"]])
    def test_good_bounds_read(self, capsys, tmp_path, bounds):
        code, report = run(capsys, "bounds", "--model", self.write(tmp_path, bounds), "--n", "1")
        assert code == 0
        expected = "4" if bounds else report["inputs"]["sigma_norm"]
        assert report["inputs"]["D_riesz_upper"] == expected


class TestLeverage:
    def test_identity_uniform_rows(self, capsys, tmp_path):
        out = tmp_path / "lev"
        code, report = run(
            capsys, "leverage", "--model", "identity:4", "--n", "4", "--out", str(out)
        )
        assert code == 0
        lines = (tmp_path / "lev.csv").read_text().splitlines()
        assert lines[0] == "index,frequency,v_norm_sq,p,cumulative_p"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 4
        assert all(float(r[3]) == 0.25 for r in rows)
        p_sum = sum(float(r[3]) for r in rows)
        assert abs(p_sum - 1.0) <= 1e-12
        cums = [float(r[4]) for r in rows]
        assert cums == sorted(cums)
        assert float(report["tail_mass"]) == 0.0

    def test_fl_tail_mass_matches_closed_form(self, capsys):
        from stochsamp.fourier_legendre import fl_leverage_distribution

        code, report = run(
            capsys, "leverage", "--model", "fl:n=10,ambient=301,max_defect=0.05",
        )
        assert code == 0
        exact = fl_leverage_distribution(10, 301)[1]
        assert abs(float(report["tail_mass"]) - exact) <= 1e-12
        assert float(report["tail_mass"]) > 0.007

    def test_fl_zero_frequency_row(self, capsys, tmp_path):
        out = tmp_path / "levfl"
        code, report = run(
            capsys, "leverage", "--model", "fl:n=5,ambient=301,max_defect=0.05",
            "--n", "5", "--out", str(out),
        )
        assert code == 0
        first = (tmp_path / "levfl.csv").read_text().splitlines()[1].split(",")
        assert int(first[1]) == 0  # frequency sigma(1) = 0
        # only the degree-0 Legendre polynomial contributes at frequency 0
        assert float(first[2]) == pytest.approx(1.0, abs=1e-12)
        assert 5.0 * float(first[3]) == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("model", ["identity:6", "fl:n=5,ambient=301,max_defect=0.05"])
    def test_v_norm_sq_column_is_the_profiles(self, capsys, tmp_path, model):
        # The column prints the ||v_j||^2 the profile stored, bit for bit.
        out = tmp_path / "lev"
        code, _ = run(capsys, "leverage", "--model", model, "--out", str(out))
        assert code == 0
        rows = [line.split(",") for line in (tmp_path / "lev.csv").read_text().splitlines()[1:]]
        _, _, prof = cli._profile(cli._load_config("leverage", {"model": model}))
        assert [float(r[2]) for r in rows] == prof.v_norm_sq.tolist()
        assert np.array_equal(prof.v_norm_sq, np.sum(np.abs(prof.v) ** 2, axis=0))
        assert prof.trace_sigma == float(np.sum(prof.v_norm_sq))

    def test_p_spec_whose_sum_overflows(self, capsys, tmp_path):
        # Each weight is finite and their sum overflows; the distribution is
        # uniform, as "uniform_on_support" gives it, bit for bit.
        outputs = []
        for p_spec in ([1e308] * 4, "uniform_on_support"):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"p_spec": p_spec}))
            for command in (["leverage"], ["mc-gram", "--trials", "3"]):
                out = tmp_path / "run"
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code = main([*command, "--model", "identity:4", "--config", str(cfg),
                                 "--out", str(out)])
                assert code == 0
                assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
                outputs.append((capsys.readouterr().out, (tmp_path / "run.csv").read_text()))
        assert outputs[:2] == outputs[2:]


class TestBounds:
    def test_rate_onb_value(self, capsys):
        code, report = run(
            capsys, "bounds", "--model", "identity:10", "--n", "10", "--delta", "0.1"
        )
        assert code == 0
        assert report["thresholds"]["gram_rate_onb"] == 142

    def test_out_of_range_epsilon_flagged_not_fatal(self, capsys):
        code, report = run(
            capsys, "bounds", "--model", "identity:10", "--n", "10", "--epsilon", "50",
        )
        assert code == 0
        assert "error" in report["thresholds"]["gram_explicit_eps"]
        assert isinstance(report["thresholds"]["gram_rate_onb"], int)


class TestMonteCarlo:
    def test_summary_fields(self, capsys, tmp_path):
        out = tmp_path / "mc"
        code, report = run(
            capsys, "mc-gram", "--model", "identity:8", "--n", "4", "--m", "60",
            "--trials", "40", "--seed", "11", "--out", str(out),
        )
        assert code == 0
        for key in (
            "p_gram_dev_ge_eps", "p_cross_dev_ge_eps",
            "full_rank_frequency", "range_stable_frequency",
        ):
            entry = report[key]
            assert entry["trials"] == 40
            lo, hi = (float(v) for v in entry["wilson95"])
            assert 0.0 <= lo <= float(entry["estimate"]) <= hi <= 1.0
        assert report["bound_violations"] == 0
        lines = (tmp_path / "mc.csv").read_text().splitlines()
        assert len(lines) == 41
        assert lines[0].startswith("trial_index,seed,m,n,err_l2")

    def test_pathological_m1_never_full_rank(self, capsys):
        code, report = run(
            capsys, "mc-gram", "--model", "identity:8", "--n", "4", "--m", "1",
            "--trials", "20", "--seed", "0",
        )
        assert code == 0
        assert float(report["full_rank_frequency"]["estimate"]) == 0.0
        # The error bound covers full-rank draws only, so none can violate it.
        assert report["bound_violations"] == 0

    def test_crossterm_alias_removed(self, capsys):
        code = main(["mc-crossterm", "--model", "identity:8", "--n", "4", "--trials", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "unknown command 'mc-crossterm'" in captured.err

    def test_doubling_m_reduces_median_gram_dev(self, capsys, tmp_path):
        meds = []
        for m in (40, 80):
            out = tmp_path / f"mc{m}"
            code, _ = run(
                capsys, "mc-gram", "--model", "identity:8", "--n", "4",
                "--m", str(m), "--trials", "120", "--seed", "2", "--out", str(out),
            )
            assert code == 0
            rows = (tmp_path / f"mc{m}.csv").read_text().splitlines()[1:]
            meds.append(np.median([float(r.split(",")[7]) for r in rows]))
        assert meds[1] < meds[0]


class TestConvergence:
    def test_small_sweep(self, capsys, tmp_path):
        out = tmp_path / "conv"
        code, report = run(
            capsys, "convergence", "--model", "fl:n=7,ambient=301,max_defect=0.05",
            "--target", "pole_a:1.5", "--n", "4,5,6,7", "--trials", "3",
            "--seed", "0", "--out", str(out),
        )
        assert code == 0
        assert float(report["fit_slope"]) < 0.0
        lines = (tmp_path / "conv.csv").read_text().splitlines()
        assert len(lines) == 5

    def test_trials_pay_only_for_the_solve(self, capsys, tmp_path, monkeypatch):
        argv = ["convergence", "--model", "fl:n=7,ambient=301,max_defect=0.05",
                "--target", "pole_a:1.5", "--n", "4,5,6,7", "--trials", "3", "--seed", "2"]
        code = main([*argv, "--out", str(tmp_path / "plain")])
        plain = capsys.readouterr().out

        def refuse(*args, **kwargs):
            raise AssertionError("a convergence trial built the kernel or K-factor")

        monkeypatch.setattr(sampling, "_draw_kernel", refuse)
        monkeypatch.setattr(sampling, "_k_factor", refuse)
        draws = []
        draw = cli.draw_samples
        monkeypatch.setattr(cli, "draw_samples", lambda *a: draws.append(a) or draw(*a))
        assert code == main([*argv, "--out", str(tmp_path / "bare")]) == 0
        assert capsys.readouterr().out == plain
        assert len(draws) == 4 * 3
        for ext in ("json", "csv"):
            assert (tmp_path / f"bare.{ext}").read_bytes() == (tmp_path / f"plain.{ext}").read_bytes()
        monkeypatch.undo()
        # The medians are those of reconstruct's err_l2.
        model = cli.fl.build_fl_model(7, 301, 301, max_defect=0.05)
        f = cli.fl.pole_target(1.5).fourier_coef(cli.fl.frequencies(301))
        medians = []
        for n in (4, 5, 6, 7):
            prof = sampling.leverage_profile(model, n)
            m = cli._pick_m({"m": None, "delta": 0.1}, n)
            medians.append(cli.fmt_real(np.median(
                [sampling.reconstruct(prof, draw(prof, m, 2 + t), f).err_l2
                 for t in range(3)])))
        assert json.loads(plain)["median_err"] == medians

    def test_each_n_record_is_freed_before_the_next(self, capsys, monkeypatch):
        # A sweep holds one n's n x J interaction vectors at a time: each n's
        # are freed once its trials end, the profile's and the memo's alike.
        alive = []
        real = cli.leverage_profile

        def profile(model, n, p_spec):
            assert not [ref for ref in alive if ref() is not None]
            prof = real(model, n, p_spec)
            alive.append(weakref.ref(prof.v))
            return prof

        monkeypatch.setattr(cli, "leverage_profile", profile)
        code, _ = run(capsys, "convergence", "--model", "fl:n=7,ambient=301,max_defect=0.05",
                      "--n", "4,5,6,7", "--trials", "3")
        assert code == 0 and len(alive) == 4
        assert not [ref for ref in alive if ref() is not None]

    def test_requires_four_points(self, capsys):
        code, _ = run(
            capsys, "convergence", "--model", "fl:n=6,ambient=301,max_defect=0.05",
            "--n", "4,5,6", "--trials", "2",
        )
        assert code == 2

    def test_sweep_must_increase(self, capsys):
        code, _ = run(
            capsys, "convergence", "--model", "fl:n=6,ambient=301,max_defect=0.05",
            "--n", "5,4,6,7", "--trials", "2",
        )
        assert code == 2

    @pytest.mark.parametrize("model", ["identity:8", "custom:frame.json"])
    def test_explicit_non_fl_model_rejected(self, capsys, monkeypatch, model):
        def refuse(cfg):
            raise AssertionError("a model was built for a rejected sweep")

        monkeypatch.setattr(cli, "_build_model", refuse)
        code = main(["convergence", "--model", model, "--n", "4,5,6,7", "--trials", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "convergence sweeps require a fourier-legendre model" in captured.err

    def test_default_model_is_fl(self, capsys, monkeypatch):
        built = []
        build = cli._build_model
        monkeypatch.setattr(cli, "_build_model", lambda cfg: built.append(cfg["model"]) or build(cfg))
        small = cli.fl.build_fl_model
        # The default ambient of 2001 shrunk to 301 to keep the test fast.
        monkeypatch.setattr(cli.fl, "build_fl_model",
                            lambda n, j, amb, max_defect: small(n, 301, 301, max_defect=0.05))
        code, report = run(capsys, "convergence", "--n", "4,5,6,7", "--trials", "2")
        assert code == 0
        assert built == [("fourier-legendre",
                          {"n": 7, "ambient": 2001, "J": None, "max_defect": 1e-2})]
        assert report["model"]["kind"] == "fourier-legendre"

    def test_default_model_above_the_ceiling_rejected(self, capsys, monkeypatch):
        # The default model fl:n=MAX of a sweep is checked like a given
        # spec, before anything is built.
        def refuse(*args, **kwargs):
            raise AssertionError("a model was built above its ceiling")

        monkeypatch.setattr(cli.fl, "build_fl_model", refuse)
        code = main(["convergence", "--n", f"4,5,6,{cli.FL_N_MAX + 1}", "--trials", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"model spec 'fl:n={cli.FL_N_MAX + 1}': n must be at most 100" in captured.err


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = [
            "mc-gram", "--model", "identity:6", "--n", "3", "--m", "30",
            "--trials", "25", "--seed", "123",
        ]
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code, _ = run(capsys, *args, "--out", str(out))
            assert code == 0
            blobs.append(
                (tmp_path / f"{tag}.json").read_bytes()
                + (tmp_path / f"{tag}.csv").read_bytes()
            )
        assert blobs[0] == blobs[1]


class TestInputValidation:
    """Bad numeric input exits 2 naming the field before any sample is drawn."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before input validation")

        monkeypatch.setattr(cli, "draw_samples", refuse)

    @pytest.mark.parametrize("command", ["mc-gram", "bounds", "reconstruct"])
    @pytest.mark.parametrize("flag,value,field", [
        ("--epsilon", "nan", "epsilon"),
        ("--epsilon", "inf", "epsilon"),
        ("--delta", "nan", "delta"),
        ("--delta", "-inf", "delta"),
        ("--seed", "-1", "seed"),
        ("--trials", "0", "trials"),
        ("--m", "0", "m"),
        ("--m", "1.5", "m"),
        ("--seed", "x", "seed"),
        ("--delta", "abc", "delta"),
    ])
    def test_flag_rejected(self, capsys, command, flag, value, field):
        code = main([command, "--model", "fl:n=10,ambient=301,max_defect=0.05",
                     "--target", "exp_c:1", "--m", "20", f"{flag}={value}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"{field} must" in captured.err

    def test_config_field_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "identity:4", "seed": 2.5}))
        code = main(["mc-gram", "--config", str(cfg)])
        assert code == 2
        assert "seed must" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["seed", "trials", "m", "delta", "epsilon"])
    @pytest.mark.parametrize("value", [True, False])
    def test_json_boolean_rejected(self, capsys, tmp_path, field, value):
        # int(True) == float(True) == 1, but a boolean is not a number.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "identity:4", field: value}))
        code = main(["mc-gram", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"{field} must be" in captured.err

    def test_convergence_zero_trials_rejected(self, capsys):
        code = main(["convergence", "--model", "fl:n=7,ambient=301,max_defect=0.05",
                     "--n", "4,5,6,7", "--trials", "0"])
        assert code == 2
        assert "trials must" in capsys.readouterr().err


FL_6 = "fl:n=6,ambient=301,max_defect=0.05"
DELTA = "sample size is not a finite number at this delta"
EPSILON = "sample size is not a finite number at this epsilon"
EXTREME_VALUES = [
    # Sizes that are not finite: exit 2 before the first draw, except in
    # bounds, which reports them per threshold.
    (["mc-gram", "--model", "identity:4", "--trials", "2", "--delta", "5e-324"], 2, DELTA),
    (["mc-gram", "--model", "identity:4", "--m", "8", "--trials", "2", "--delta", "5e-324"],
     2, DELTA),
    (["bounds", "--model", "identity:4", "--delta", "5e-324"], 0, DELTA),
    (["convergence", "--model", FL_6, "--n", "3,4,5,6", "--trials", "2", "--delta", "5e-324"],
     2, DELTA),
    (["reconstruct", "--model", "identity:4", "--delta", "5e-324"], 2, DELTA),
    (["mc-gram", "--model", "identity:4", "--trials", "2", "--epsilon", "5e-324"], 2, EPSILON),
    (["bounds", "--model", "identity:4", "--epsilon", "5e-324"], 0, EPSILON),
    # Targets whose norm is not finite or whose expansion is cut: exit 2 at load.
    (["reconstruct", "--model", FL_6, "--target", "exp_c:360"], 2, "exp_c needs |c| <="),
    (["reconstruct", "--model", FL_6, "--target", "exp_c:-700"], 2, "exp_c needs |c| <="),
    (["reconstruct", "--model", FL_6, "--target", "pole_a:1e308"], 2, "pole location"),
    (["reconstruct", "--model", FL_6, "--target", "pole_a:1.0000000000000002"], 2, "pole location"),
    (["reconstruct", "--model", FL_6, "--target", "pole_a:1.003"], 2, "pole location"),
    # A truncation bound that no column meets: exit 2 before the table is built.
    (["leverage", "--model", "fl:n=4,ambient=301,max_defect=0"], 2, "max_defect must be > 0"),
    (["leverage", "--model", "fl:n=4,ambient=301,max_defect=-1"], 2, "max_defect must be > 0"),
    # Controls.
    (["mc-gram", "--model", "identity:4", "--trials", "2", "--delta", "1e-300"], 0, None),
    (["bounds", "--model", "identity:4", "--epsilon", "1e308"], 0, None),
    (["mc-gram", "--model", "identity:4", "--trials", "2", "--epsilon", "1e308"], 0, None),
    (["mc-gram", "--model", "identity:4", "--trials", "2", "--m", "1"], 0, None),
    (["reconstruct", "--model", FL_6, "--target", "exp_c:0"], 0, None),
    (["reconstruct", "--model", FL_6, "--target", "exp_c:5e-324"], 0, None),
    (["reconstruct", "--model", FL_6, "--target", "exp_c:-355"], 0, None),
    (["reconstruct", "--model", FL_6, "--target", "pole_a:1e150"], 0, None),
    (["leverage", "--model", "fl:n=6,ambient=301,max_defect=1e308"], 0, None),
    (["mc-gram", "--model", "fl:n=1,ambient=1,max_defect=1", "--target", "exp_c:1",
      "--trials", "2"], 0, None),
    (["mc-gram", "--model", "identity:1", "--trials", "2"], 0, None),
    (["mc-gram", "--model", "identity:4", "--trials", "2", "--seed", "1e300"], 2, "seed must be"),
    # m within its own ceiling whose m n arrays would not fit: exit 2 naming m.
    (["reconstruct", "--model", "identity:200", "--n", "100", "--m", "1000000"], 2,
     "m must be at most 100000 for n = 100"),
    (["mc-gram", "--model", "identity:200", "--n", "20", "--m", "600000", "--trials", "2"], 2,
     "m must be at most 500000 for n = 20"),
    (["convergence", "--model", "fl:n=100,ambient=101", "--n", "25,50,75,100", "--trials", "2",
      "--delta", "1e-300"], 2, "got 139158 (the rate_onb sample size)"),
]

def with_config(tmp_path, config, argv):
    """argv and, unless config is None, --config naming a file that holds it."""
    if config is None:
        return argv
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return [*argv, "--config", str(path)]


# Extreme values only a config file gives: (config, argv, code, message).  A
# p_spec weight so small that a coherence ratio overflows exits 2 in the
# commands that read the coherence; leverage and reconstruct read none.
TINY_P = {"p_spec": [1, 1, 1, 1e-320]}
EXTREME_CONFIGS = [
    (TINY_P, ["bounds", "--model", "identity:4"], 2, "p_spec gives index 3"),
    (TINY_P, ["mc-gram", "--model", "identity:4", "--trials", "3"], 2, "p_spec gives index 3"),
    ({"p_spec": [1] * 7 + [1e-320]}, ["bounds", "--model", "identity:8"], 2,
     "p_spec gives index 7"),
    (TINY_P, ["leverage", "--model", "identity:4"], 0, None),
    (TINY_P, ["reconstruct", "--model", "identity:4"], 0, None),
]


@pytest.mark.parametrize("config,argv,code,message", [
    *(pytest.param(None, *case, id=" ".join(case[0])) for case in EXTREME_VALUES),
    *(pytest.param(*case, id=f"{json.dumps(case[0])} {' '.join(case[1])}")
      for case in EXTREME_CONFIGS),
])
def test_extreme_values(capsys, monkeypatch, tmp_path, config, argv, code, message):
    """Each input ends in its exit code (0, 2 or 3) with no exception out of
    main and no RuntimeWarning, and an exit 0 prints no infinite or NaN
    number.  An exit 2 names the field on stderr and comes before the first
    draw; bounds names it in its thresholds."""
    argv = with_config(tmp_path, config, argv)
    draws = []
    monkeypatch.setattr(cli, "draw_samples", lambda *a: draws.append(a) or draw_samples(*a))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == code
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == "" and not draws
        assert message in captured.err
    else:
        assert not re.search(r'"[-+]?(inf|nan)"', captured.out)
        assert message is None or message in captured.out


# Config and spec checks that no other test reaches: (config file content
# or None, argv, text on stderr naming the field).  Each exits 2 before any
# model is built.
LOAD_REJECTIONS = [
    ([1, 2], ["leverage"], "config must be a JSON object"),
    ({"model": 5}, ["leverage"], "model spec must be a string or object"),
    (None, ["leverage", "--model", "fl:n=4,foo"], "malformed model spec field 'foo'"),
    (None, ["leverage", "--model", "fl:n=0"], "n must be >= 1"),
    (None, ["leverage", "--model", "identity:0"], "dim must be >= 1"),
    (None, ["leverage", "--model", "custom:"], "needs a file path"),
]


@pytest.mark.parametrize("config,argv,message", LOAD_REJECTIONS)
def test_load_rejections_name_the_field(capsys, monkeypatch, tmp_path, config, argv, message):
    def refuse(cfg):
        raise AssertionError("a model was built before the check")

    monkeypatch.setattr(cli, "_build_model", refuse)
    argv = with_config(tmp_path, config, argv)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_numerical_accuracy_failure_exits_3(capsys, monkeypatch):
    # No accepted pole_a leaves the quadrature unresolved, so it is made to fail.
    def unresolved(fn):
        raise cli.NumericalAccuracyError("quadrature did not resolve")

    monkeypatch.setattr(cli.fl, "adaptive_quadrature", unresolved)
    code = main(["reconstruct", "--model", FL_6, "--target", "pole_a:2"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "numerical accuracy failure: quadrature did not resolve" in captured.err


class TestNValidation:
    """n is checked at load, as a count or a strictly increasing sweep list."""

    @pytest.fixture(autouse=True)
    def no_models(self, monkeypatch):
        def refuse(cfg):
            raise AssertionError("work started before n was checked")

        monkeypatch.setattr(cli, "_build_model", refuse)

    @pytest.mark.parametrize("command", ["leverage", "mc-gram", "convergence"])
    @pytest.mark.parametrize("value", ["abc", "3.7", "4,4", "0", "5,4,6,7", "4,x,6,7", ""])
    def test_bad_flag_rejected(self, capsys, command, value):
        code = main([command, f"--n={value}", "--trials", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "n must be" in captured.err

    @pytest.mark.parametrize("value", [3.7, "abc", [4, 4], [4, 3.5, 6, 7], [], -1])
    def test_bad_config_field_rejected(self, capsys, tmp_path, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": value}))
        code = main(["leverage", "--config", str(cfg)])
        assert code == 2
        assert "n must be" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [True, False, [True, 4, 8, 12], [4, 8, 12, True]])
    def test_json_boolean_rejected(self, capsys, tmp_path, value):
        with pytest.raises(cli.InputValidationError, match="n must be"):
            cli._parse_counts(value)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": value}))
        command = "convergence" if isinstance(value, list) else "leverage"
        code = main([command, "--config", str(cfg), "--trials", "2"])
        assert code == 2
        assert "n must be" in capsys.readouterr().err

    def test_sweep_list_only_for_convergence(self, capsys):
        code = main(["reconstruct", "--n", "4,8", "--m", "10"])
        assert code == 2
        assert "n must be a single integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value,parsed", [
        ("4", 4), (" 4 , 8,12,16 ", [4, 8, 12, 16]), (5.0, 5), ([4, 8, 12, 16], [4, 8, 12, 16]),
    ])
    def test_good_values_parsed(self, value, parsed):
        assert cli._parse_counts(value) == parsed


def test_fl_ambient_20001_runs(capsys):
    # A dense S at this size would take 6.4 GB; the selection form needs O(ambient * n).
    code, report = run(
        capsys, "mc-gram", "--model", "fl:n=10,ambient=20001", "--target", "exp_c:1",
        "--trials", "3", "--seed", "0",
    )
    assert code == 0
    assert report["model"]["ambient"] == 20001
    assert report["full_rank_frequency"]["trials"] == 3
    assert report["bound_violations"] == 0


def _cli_outputs(tmp_path, tag, threads, argv):
    """Run the CLI in a fresh process with the given BLAS thread count."""
    env = dict(os.environ)
    env.update({var: str(threads) for var in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    src = os.path.dirname(os.path.dirname(os.path.abspath(stochsamp.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = tmp_path / tag
    proc = subprocess.run(
        [sys.executable, "-m", "stochsamp.cli", *argv, "--out", str(out)],
        env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, (tmp_path / f"{tag}.csv").read_bytes()


def _same_up_to_reals(a: str, b: str) -> bool:
    """Token-wise equal, except decimal reals may differ by 1e-12 relative."""
    number = re.compile(r"(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)")
    ta, tb = number.split(a), number.split(b)
    if len(ta) != len(tb):
        return False
    # split() puts the captured numbers at odd positions, the text between at even.
    for i, (x, y) in enumerate(zip(ta, tb)):
        if x == y:
            continue
        if i % 2 == 0 or not re.search(r"[.eE]", x + y):  # text and integers exactly
            return False
        fx, fy = float(x), float(y)
        if abs(fx - fy) > 1e-12 * max(abs(fx), abs(fy)):
            return False
    return True


def _coherent_frame_file(path) -> None:
    """A 100 x 100 unitary S and W on a few of its columns plus noise; with
    OpenBLAS its CSV reals change in the last digits with the thread count."""
    rng = np.random.default_rng(3)
    z = rng.standard_normal((100, 100)) + 1j * rng.standard_normal((100, 100))
    s = np.linalg.qr(z / np.sqrt(2.0))[0]
    cols = rng.choice(100, size=64, replace=False)
    g = rng.standard_normal((64, 32)) + 1j * rng.standard_normal((64, 32))
    e = rng.standard_normal((100, 32)) + 1j * rng.standard_normal((100, 32))
    w = s[:, cols] @ g / np.sqrt(128.0) + 0.02 * e / np.sqrt(200.0)
    path.write_text(json.dumps(model_to_dict(build_frame_model(s, w))))


@pytest.mark.parametrize("model", ["fl:n=10,ambient=301,max_defect=0.05", "custom"])
def test_determinism_scope_across_blas_threads(tmp_path, model):
    # Byte-identical for one BLAS build and thread count; across thread counts
    # integers, booleans and strings match and reals agree within 1e-12.
    if model == "custom":
        _coherent_frame_file(tmp_path / "frame.json")
        argv = ["mc-gram", "--model", f"custom:{tmp_path / 'frame.json'}",
                "--n", "32", "--m", "48", "--trials", "30", "--seed", "0"]
    else:
        argv = ["mc-gram", "--model", model, "--target", "exp_c:1",
                "--trials", "50", "--seed", "0"]
    first = _cli_outputs(tmp_path, "one_a", 1, argv)
    assert _cli_outputs(tmp_path, "one_b", 1, argv) == first
    two = _cli_outputs(tmp_path, "two", 2, argv)
    for got, ref in zip(two, first):
        assert _same_up_to_reals(got.decode(), ref.decode())
