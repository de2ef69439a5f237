import json

import numpy as np
import pytest

from stochsamp.cli import main
from stochsamp.errors import InputValidationError
from stochsamp.sampling import (
    SampleDraw,
    build_frame_model,
    draw_samples,
    empirical_gram,
    leverage_profile,
    reconstruct,
)
from stochsamp.serialize import (
    dumps,
    fmt_complex,
    fmt_real,
    model_from_dict,
    model_to_dict,
)


def sample_objects(seed=0):
    rng = np.random.default_rng(seed)
    s = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
    w = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    model = build_frame_model(s, w, declared_bounds=(1.0, 1.0, 0.5, 4.0))
    prof = leverage_profile(model, 3)
    draw = draw_samples(prof, 25, seed=7)
    f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    report = reconstruct(prof, draw, f)
    return model, prof, draw, report


class TestScalarFormats:
    def test_real_round_trip_exact(self):
        for x in (0.1, np.pi, 1.0 / 3.0, 1e-300, -2.5e17, 0.0):
            assert float(fmt_real(x)) == x

    def test_complex_pair(self):
        re, im = fmt_complex(1.5 - 2.25j)
        assert float(re) == 1.5
        assert float(im) == -2.25


class TestModelRoundTrip:
    def test_exact(self):
        model, _, _, _ = sample_objects()
        back = model_from_dict(model_to_dict(model))
        assert np.array_equal(back.s_coef, model.s_coef)
        assert np.array_equal(back.w_coef, model.w_coef)
        assert back.declared_bounds == model.declared_bounds
        assert back.sampling_is_orthonormal == model.sampling_is_orthonormal
        assert back.reconstruction_is_riesz == model.reconstruction_is_riesz

    def test_writes_only_what_the_reader_reads(self):
        model, _, _, _ = sample_objects()
        assert set(model_to_dict(model)) == {"type", "s_coef", "w_coef", "declared_bounds"}

    def test_json_serializable(self):
        model, _, _, _ = sample_objects()
        text = dumps(model_to_dict(model))
        assert model_to_dict(model) == json.loads(text)

    def test_wrong_type_tag(self):
        model, _, _, _ = sample_objects()
        with pytest.raises(InputValidationError):
            model_from_dict(dict(model_to_dict(model), type="LeverageProfile"))


def run_cli(capsys, tmp_path, *argv):
    """Run a CLI command on the sample model's file; its JSON report and CSV rows."""
    model, _, _, _ = sample_objects()
    path = tmp_path / "model.json"
    path.write_text(dumps(model_to_dict(model)))
    out = tmp_path / "out"
    code = main([*argv, "--model", f"custom:{path}", "--n", "3", "--out", str(out)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    rows = [line.split(",") for line in (tmp_path / "out.csv").read_text().splitlines()[1:]]
    return report, rows


class TestProfileRoundTrip:
    """The leverage report and table carry the profile's values exactly."""

    def test_exact(self, capsys, tmp_path):
        _, prof, _, _ = sample_objects()
        report, rows = run_cli(capsys, tmp_path, "leverage")
        assert report["n"] == prof.n
        assert report["num_indices"] == prof.num_indices
        assert float(report["trace_sigma"]) == prof.trace_sigma
        assert float(report["lambda0"]) == prof.lambda0
        assert float(report["tail_mass"]) == prof.tail_mass
        assert report["distribution_id"] == prof.distribution_id
        assert np.array_equal([float(r[3]) for r in rows], prof.p)

    def test_digest_validated(self):
        _, prof, draw, _ = sample_objects()
        forged = SampleDraw(indices=draw.indices, seed=draw.seed,
                            distribution_id="0" * 16)
        with pytest.raises(InputValidationError):
            empirical_gram(prof, forged)


class TestReportRoundTrip:
    """The reconstruct report and table carry the library's values exactly."""

    def test_exact(self, capsys, tmp_path):
        model, prof, draw, _ = sample_objects()
        f = 1.0 / np.arange(1.0, model.ambient_dim + 1.0)
        report = reconstruct(prof, draw, f / np.linalg.norm(f))
        back, rows = run_cli(capsys, tmp_path, "reconstruct", "--m", "25", "--seed", "7")
        x_tilde = [complex(float(r[1]), float(r[2])) for r in rows]
        assert np.array_equal(x_tilde, report.x_tilde)
        assert float(back["err_l2"]) == report.err_l2
        assert float(back["tail_err"]) == report.tail_err
        assert float(back["k_factor"]) == report.k_factor
        assert float(back["residual_weighted"]) == report.residual_weighted
        assert back["bound_ok"] == report.bound_ok
        assert float(back["gram_condition"]) == report.gram_condition
        assert back["full_rank"] == (not report.used_pseudo_inverse)

    def test_rank_deficient_flag_survives(self, capsys, tmp_path):
        back, _ = run_cli(capsys, tmp_path, "reconstruct", "--m", "1")
        assert back["gram_condition"] == "rank-deficient"
        assert back["full_rank"] is False


class TestDumps:
    def test_deterministic(self):
        model, _, _, _ = sample_objects()
        assert dumps(model_to_dict(model)) == dumps(model_to_dict(model))

    def test_ends_with_newline(self):
        assert dumps({"a": 1}).endswith("\n")
