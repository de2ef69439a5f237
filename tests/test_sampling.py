import math
from dataclasses import fields

import numpy as np
import pytest

import stochsamp.sampling as sampling
from stochsamp.errors import (
    DegenerateModelError,
    InputValidationError,
    SupportViolationError,
)
from stochsamp.linalg import operator_norm
from stochsamp.sampling import (
    FrameModel,
    LeverageProfile,
    SampleDraw,
    build_frame_model,
    build_selection_model,
    christoffel_profile,
    coherence_profile,
    cross_term_matrix,
    draw_samples,
    empirical_cross_term,
    empirical_gram,
    leverage_profile,
    range_stability_check,
    reconstruct,
)


def identity_model(dim=8):
    eye = np.eye(dim, dtype=complex)
    return build_frame_model(eye, eye)


def random_riesz_model(seed, ambient=7, j_count=7, k_count=4):
    """Random model with orthonormal sampling columns and well-conditioned
    reconstruction columns."""
    rng = np.random.default_rng(seed)
    s = np.linalg.qr(
        rng.standard_normal((ambient, j_count)) + 1j * rng.standard_normal((ambient, j_count))
    )[0]
    w = rng.standard_normal((ambient, k_count)) + 1j * rng.standard_normal((ambient, k_count))
    w += 2 * np.linalg.qr(w)[0]
    return build_frame_model(s, w)


class TestBuildFrameModel:
    def test_identity_flags(self):
        model = identity_model()
        assert model.sampling_is_orthonormal
        assert model.reconstruction_is_riesz

    def test_duplicated_column_not_riesz(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((5, 3))
        w[:, 2] = w[:, 0]
        model = build_frame_model(np.eye(5), w)
        assert not model.reconstruction_is_riesz

    def test_riesz_flag_taken_on_first_read(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an SVD was taken at build")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        w = np.eye(5)[:, :3]
        w[:, 2] = w[:, 0]
        selection = build_selection_model(np.arange(4), np.eye(4))
        dense = build_frame_model(np.eye(5), w)
        monkeypatch.undo()
        assert selection.reconstruction_is_riesz
        assert not dense.reconstruction_is_riesz

    def test_row_count_mismatch(self):
        with pytest.raises(InputValidationError):
            build_frame_model(np.eye(3), np.eye(4))

    def test_bad_declared_bounds(self):
        with pytest.raises(InputValidationError):
            build_frame_model(np.eye(3), np.eye(3), declared_bounds=(2, 1, 1, 1))

    def test_immutable(self):
        model = identity_model(3)
        with pytest.raises(ValueError):
            model.s_coef[0, 0] = 5.0


class TestLeverageProfile:
    def test_identity_leverage(self):
        prof = leverage_profile(identity_model(8), 4)
        assert np.allclose(prof.p[:4], 0.25)
        assert np.allclose(prof.p[4:], 0.0)
        assert np.allclose(prof.sigma, np.eye(4))
        assert prof.trace_sigma == pytest.approx(4.0)
        assert prof.lambda0 == pytest.approx(1.0)

    def test_identity_custom_uniform(self):
        prof = leverage_profile(identity_model(8), 4, p_spec=np.full(8, 1.0))
        assert np.allclose(prof.p, 1.0 / 8.0)
        coh = coherence_profile(prof)
        assert coh.R == pytest.approx(8.0)

    def test_uniform_on_support(self):
        prof = leverage_profile(identity_model(8), 4, p_spec="uniform_on_support")
        assert np.allclose(prof.p[:4], 0.25)
        assert np.allclose(prof.p[4:], 0.0)

    def test_support_violation(self):
        bad = np.zeros(8)
        bad[4:] = 1.0  # zero where v_j is nonzero
        with pytest.raises(SupportViolationError):
            leverage_profile(identity_model(8), 4, p_spec=bad)

    def test_degenerate_model(self):
        # reconstruction orthogonal to all sampling vectors
        s = np.eye(4, 2, dtype=complex)
        w = np.zeros((4, 1), dtype=complex)
        w[3, 0] = 1.0
        with pytest.raises(DegenerateModelError):
            leverage_profile(build_frame_model(s, w), 1)

    def test_n_out_of_range(self):
        with pytest.raises(InputValidationError):
            leverage_profile(identity_model(4), 5)

    @pytest.mark.parametrize("seed", range(3))
    def test_sigma_assembly_and_trace(self, seed):
        model = random_riesz_model(seed)
        prof = leverage_profile(model, 4)
        brute = sum(
            np.outer(prof.v[:, j], prof.v[:, j].conj()) for j in range(prof.num_indices)
        )
        assert operator_norm(prof.sigma - brute) <= 1e-9
        vn2 = np.sum(np.abs(prof.v) ** 2)
        assert abs(prof.trace_sigma - vn2) <= 1e-9
        assert abs(prof.p.sum() - 1.0) <= 1e-12


class TestCoherenceProfile:
    def test_identity_subspace_zero_cross_term(self):
        model = identity_model(8)
        prof = leverage_profile(model, 4)
        coh = coherence_profile(prof)
        assert coh.C_norm <= 1e-9
        # C is exactly zero here; its norm prints as 0, never as -0.
        assert math.copysign(1.0, coh.C_norm) == 1.0

    def test_identity_full_no_residual(self):
        model = identity_model(5)
        prof = leverage_profile(model, 5)
        coh = coherence_profile(prof)
        assert coh.R_prime == 0.0
        assert coh.T_norm == 0.0
        assert coh.K_scale == pytest.approx(coh.sigma_norm)

    @pytest.mark.parametrize("seed", range(3))
    def test_cross_term_brute_force(self, seed):
        model = random_riesz_model(seed, ambient=6, j_count=6, k_count=3)
        prof = leverage_profile(model, 3)
        q = np.linalg.qr(model.w_coef[:, :3])[0]
        proj = q @ q.conj().T
        brute = np.zeros((3, 6), dtype=complex)
        for j in range(6):
            u_j = model.s_coef[:, j] - proj @ model.s_coef[:, j]
            brute += np.outer(prof.v[:, j], u_j.conj())
        c = cross_term_matrix(prof)
        assert operator_norm(c - brute) <= 1e-10
        coh = coherence_profile(prof)
        assert coh.C_norm == pytest.approx(operator_norm(brute), abs=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_scalar_relations(self, seed):
        model = random_riesz_model(seed)
        prof = leverage_profile(model, 4)
        coh = coherence_profile(prof)
        assert coh.R_double == pytest.approx(max(coh.R, coh.R_prime))
        assert coh.K_scale == pytest.approx(max(coh.sigma_norm, coh.T_norm))
        assert coh.Lambda == pytest.approx(1.0 + coh.sigma_inv_norm + coh.C_norm)
        assert prof.trace_sigma <= coh.R + 1e-9

    def test_condition_number_bound_with_declared_bounds(self):
        # W inside the sampling span with bounds computed from singular values
        rng = np.random.default_rng(7)
        s = np.eye(6, dtype=complex)
        w = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        sv = np.linalg.svd(w, compute_uv=False)
        bounds = (1.0, 1.0, float(sv[-1] ** 2), float(sv[0] ** 2))
        model = build_frame_model(s, w, declared_bounds=bounds)
        prof = leverage_profile(model, 3)
        coh = coherence_profile(prof)
        a, b, c, d = bounds
        assert coh.sigma_norm * coh.sigma_inv_norm <= b * d / (a * c) + 1e-6


class TestDrawSamples:
    def test_point_mass(self):
        s = np.eye(3, dtype=complex)
        w = s[:, :1]
        prof = leverage_profile(build_frame_model(s, w), 1)
        draw = draw_samples(prof, 50, seed=0)
        assert np.all(draw.indices == 0)

    def test_law_of_large_numbers(self):
        prof = leverage_profile(identity_model(4), 4)
        draw = draw_samples(prof, 100_000, seed=42)
        freq = np.bincount(draw.indices, minlength=4) / draw.m
        assert np.all(np.abs(freq - 0.25) < 0.01)

    def test_determinism(self):
        prof = leverage_profile(identity_model(6), 3)
        d1 = draw_samples(prof, 1000, seed=9)
        d2 = draw_samples(prof, 1000, seed=9)
        assert np.array_equal(d1.indices, d2.indices)

    def test_indices_in_support(self):
        prof = leverage_profile(identity_model(8), 4)
        draw = draw_samples(prof, 10_000, seed=3)
        assert draw.indices.max() < 4

    def test_digest_guards_mismatched_profile(self):
        prof_a = leverage_profile(identity_model(8), 4)
        prof_b = leverage_profile(identity_model(8), 3)
        draw = draw_samples(prof_a, 10, seed=0)
        with pytest.raises(InputValidationError):
            empirical_gram(prof_b, draw)


class TestEmpiricalGram:
    def test_point_mass(self):
        s = np.eye(3, dtype=complex)
        w = np.zeros((3, 2), dtype=complex)
        w[0, 0] = 1.0
        w[0, 1] = 0.5
        prof = leverage_profile(build_frame_model(s, w), 2)
        draw = draw_samples(prof, 7, seed=1)
        v0 = prof.v[:, 0]
        expected = np.outer(v0, v0.conj()) / prof.p[0]
        assert np.allclose(empirical_gram(prof, draw), expected)

    def test_multiplicity_formula(self):
        prof = leverage_profile(identity_model(4), 4)
        # force exact multiplicities via a handcrafted draw
        from stochsamp.sampling import SampleDraw

        idx = np.array([0, 1, 2, 3] * 5, dtype=np.int64)
        draw = SampleDraw(indices=idx, seed=0, distribution_id=prof.distribution_id)
        assert np.allclose(empirical_gram(prof, draw), np.eye(4))

    def test_concentration_large_m(self):
        prof = leverage_profile(identity_model(6), 4)
        draw = draw_samples(prof, 100_000, seed=5)
        assert operator_norm(empirical_gram(prof, draw) - np.eye(4)) <= 0.05

    @pytest.mark.parametrize("seed", range(3))
    def test_single_draw_unbiasedness(self, seed):
        # exact expectation over the support reproduces Sigma
        model = random_riesz_model(seed, ambient=6, j_count=6, k_count=3)
        prof = leverage_profile(model, 3)
        from stochsamp.sampling import SampleDraw

        total = np.zeros((3, 3), dtype=complex)
        for j in np.flatnonzero(prof.p > 0):
            draw = SampleDraw(
                indices=np.array([j], dtype=np.int64),
                seed=0,
                distribution_id=prof.distribution_id,
            )
            total += prof.p[j] * empirical_gram(prof, draw)
        assert operator_norm(total - prof.sigma) <= 1e-12 * max(1.0, prof.trace_sigma)


class TestEmpiricalCrossTerm:
    def test_identity_model_zero(self):
        model = identity_model(8)
        prof = leverage_profile(model, 4)
        draw = draw_samples(prof, 100, seed=2)
        assert operator_norm(empirical_cross_term(prof, draw)) <= 1e-12

    def test_point_mass(self):
        rng = np.random.default_rng(3)
        s = np.linalg.qr(rng.standard_normal((5, 5)) + 0j)[0]
        w = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        model = build_frame_model(s, w)
        prof = leverage_profile(model, 2)
        j = int(np.argmax(prof.p))
        custom = np.zeros(5)
        # point mass must still cover the support; collapse w to one vector
        w1 = model.s_coef[:, j:j + 1] * 2.0
        model1 = build_frame_model(s, w1)
        prof1 = leverage_profile(model1, 1)
        draw = draw_samples(prof1, 4, seed=0)
        q = np.linalg.qr(w1)[0]
        u = model1.s_coef - q @ (q.conj().T @ model1.s_coef)
        jj = draw.indices[0]
        expected = np.outer(prof1.v[:, jj], u[:, jj].conj()) / prof1.p[jj]
        del custom
        assert np.allclose(empirical_cross_term(prof1, draw), expected)

    def test_concentration_large_m(self):
        # sampling span excludes part of w so the limiting C is nonzero
        model = random_riesz_model(11, ambient=7, j_count=5, k_count=4)
        prof = leverage_profile(model, 3)
        c = cross_term_matrix(prof)
        draw = draw_samples(prof, 100_000, seed=8)
        dev = operator_norm(empirical_cross_term(prof, draw) - c)
        assert dev <= 0.05 * operator_norm(c) + 0.01

    @pytest.mark.parametrize("seed", range(3))
    def test_single_draw_unbiasedness(self, seed):
        model = random_riesz_model(seed, ambient=6, j_count=6, k_count=3)
        prof = leverage_profile(model, 3)
        c = cross_term_matrix(prof)
        from stochsamp.sampling import SampleDraw

        total = np.zeros_like(c)
        for j in np.flatnonzero(prof.p > 0):
            draw = SampleDraw(
                indices=np.array([j], dtype=np.int64),
                seed=0,
                distribution_id=prof.distribution_id,
            )
            total += prof.p[j] * empirical_cross_term(prof, draw)
        assert operator_norm(total - c) <= 1e-12 * max(1.0, operator_norm(c))


class TestReconstruct:
    def test_exact_interpolation(self):
        model = identity_model(8)
        prof = leverage_profile(model, 4)
        f = np.zeros(8, dtype=complex)
        f[:4] = [1.0, -2.0, 0.5j, 3.0]
        draw = draw_samples(prof, 40, seed=0)
        assert len(set(draw.indices.tolist())) == 4  # covers {1..4}
        rep = reconstruct(prof, draw, f)
        assert rep.err_l2 <= 1e-10
        assert np.allclose(rep.x_tilde, f[:4], atol=1e-10)

    def test_orthogonal_tail_split(self):
        model = identity_model(8)
        prof = leverage_profile(model, 4)
        f = np.arange(1.0, 9.0).astype(complex)
        draw = draw_samples(prof, 60, seed=1)
        rep = reconstruct(prof, draw, f)
        assert rep.k_factor <= 1e-12
        assert abs(rep.err_l2 - rep.tail_err) <= 1e-10
        assert rep.bound_ok

    def test_weight_scaling_invariance(self):
        # scaling all weights by a common constant rescales design and rhs
        # together, leaving the least-squares argmin unchanged
        from stochsamp.linalg import minimal_norm_lsq

        model = random_riesz_model(4)
        prof = leverage_profile(model, 4)
        draw = draw_samples(prof, 30, seed=6)
        f = np.random.default_rng(0).standard_normal(7).astype(complex)
        idx = draw.indices
        wts = 1.0 / np.sqrt(draw.m * prof.p[idx])
        design = prof.v[:, idx].conj().T * wts[:, None]
        rhs = wts * (model.s_coef.conj().T @ f)[idx]
        x1 = minimal_norm_lsq(design, rhs)
        c = np.sqrt(17.3)
        x2 = minimal_norm_lsq(c * design, c * rhs)
        assert np.linalg.norm(x1 - x2) <= 1e-10

    def test_determinism_bit_identical(self):
        model = random_riesz_model(2)
        prof = leverage_profile(model, 4)
        draw = draw_samples(prof, 25, seed=12)
        f = np.linspace(1, 2, 7).astype(complex)
        r1 = reconstruct(prof, draw, f)
        r2 = reconstruct(prof, draw, f)
        assert np.array_equal(r1.x_tilde, r2.x_tilde)
        assert r1.err_l2 == r2.err_l2
        assert r1.k_factor == r2.k_factor

    def test_f_tilde_consistency(self):
        model = random_riesz_model(3)
        prof = leverage_profile(model, 4)
        draw = draw_samples(prof, 30, seed=2)
        f = np.ones(7, dtype=complex)
        rep = reconstruct(prof, draw, f)
        assert np.allclose(rep.f_tilde_coef, model.w_coef[:, :4] @ rep.x_tilde)

    def test_bound_holds_on_full_rank_draws(self):
        model = random_riesz_model(5)
        prof = leverage_profile(model, 4)
        f = np.random.default_rng(1).standard_normal(7).astype(complex)
        for t in range(50):
            draw = draw_samples(prof, 40, seed=100 + t)
            rep = reconstruct(prof, draw, f)
            if not rep.used_pseudo_inverse:
                assert rep.err_l2 <= rep.tail_err * np.sqrt(1 + rep.k_factor**2) + 1e-8

    def test_dimension_mismatch(self):
        model = identity_model(4)
        prof = leverage_profile(model, 2)
        draw = draw_samples(prof, 5, seed=0)
        with pytest.raises(InputValidationError):
            reconstruct(prof, draw, np.ones(3))


class TestChristoffel:
    def test_identity_equals_leverage(self):
        prof = leverage_profile(identity_model(8), 4)
        chris = christoffel_profile(prof)
        assert np.allclose(chris.values[:4], 1.0, atol=1e-9)
        assert chris.kappa_w == pytest.approx(4.0)

    def test_hand_inverse_diag(self):
        # two sampling directions scaled so Sigma = diag(2, 1)
        s = np.eye(3, dtype=complex)
        w = np.zeros((3, 2), dtype=complex)
        w[0, 0] = np.sqrt(2.0)
        w[1, 1] = 1.0
        model = build_frame_model(s, w)
        prof = leverage_profile(model, 2)
        assert np.allclose(prof.sigma, np.diag([2.0, 1.0]))
        chris = christoffel_profile(prof)
        # K_P(j) = <Sigma^-1 v_j, v_j> with v_0 = (sqrt2, 0), v_1 = (0, 1)
        assert chris.values[0] == pytest.approx(1.0)
        assert chris.values[1] == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_sandwich(self, seed):
        model = random_riesz_model(seed)
        prof = leverage_profile(model, 4)
        coh = coherence_profile(prof)
        chris = christoffel_profile(prof)
        assert coh.R / coh.sigma_norm - 1e-9 <= chris.kappa_w
        assert chris.kappa_w <= coh.sigma_inv_norm * coh.R + 1e-9


class TestRangeStability:
    def test_large_m_equal(self):
        model = random_riesz_model(1)
        prof = leverage_profile(model, 4)
        draw = draw_samples(prof, 5000, seed=0)
        out = range_stability_check(prof, draw)
        assert out.equal
        assert out.distance < 1e-6

    def test_rank_one_point_mass(self):
        s = np.eye(3, dtype=complex)
        w = s[:, :1] * 2.0
        prof = leverage_profile(build_frame_model(s, w), 1)
        draw = draw_samples(prof, 3, seed=0)
        assert range_stability_check(prof, draw).equal

    def test_missing_direction_detected(self):
        from stochsamp.sampling import SampleDraw

        prof = leverage_profile(identity_model(4), 4)
        idx = np.zeros(6, dtype=np.int64)  # only index 1 ever drawn
        draw = SampleDraw(indices=idx, seed=0, distribution_id=prof.distribution_id)
        out = range_stability_check(prof, draw)
        assert not out.equal
        assert out.distance == pytest.approx(1.0)


def tiny_selection(value, ambient=3):
    """Selection model with one reconstruction column value * e_0."""
    w = np.zeros((ambient, 1), dtype=complex)
    w[0, 0] = value
    return build_selection_model(np.arange(ambient), w)


# A custom p with a weight so small that ||v_j||^2/p_j or ||u_j||^2/p_j
# overflows: index 3 of identity:4, or index 7 of identity:8 at n = 4, where
# v_7 = 0 and u_7 = e_7.
TINY_P4 = [1.0, 1.0, 1.0, 1e-320]
TINY_P8 = [1.0] * 7 + [1e-320]


def coherence_at(dim, p_spec):
    model = identity_model(dim)
    return coherence_profile(leverage_profile(model, 4, p_spec))


def draw_at(m, seed):
    return draw_samples(leverage_profile(identity_model(4), 4), m, seed)


def hand_built_gram(indices):
    """empirical_gram of a hand-built draw with these indices."""
    prof = leverage_profile(identity_model(4), 4)
    return empirical_gram(prof, SampleDraw(indices=indices, seed=0,
                                           distribution_id=prof.distribution_id))

# Every validation branch of the profile, the draw and the coherence and
# Christoffel values: (call, error, text naming the field).
PROFILE_ERRORS = [
    (lambda: leverage_profile(identity_model(4), 0), InputValidationError, "n must lie in"),
    (lambda: leverage_profile(identity_model(4), 4, "bogus"), InputValidationError,
     "unknown p_spec 'bogus'"),
    (lambda: leverage_profile(identity_model(4), 4, [1.0, 1.0]), InputValidationError,
     "custom p has length 2, expected 4"),
    (lambda: leverage_profile(identity_model(4), 4, [1.0, 1.0, -1.0, 1.0]), InputValidationError,
     "custom p must be nonnegative and finite"),
    (lambda: leverage_profile(identity_model(4), 4, [1.0, np.nan, 1.0, 1.0]),
     InputValidationError, "custom p must be nonnegative and finite"),
    (lambda: leverage_profile(identity_model(4), 4, [1.0, 0.0, 1.0, 1.0]), SupportViolationError,
     "custom p is zero"),
    # ||v_0||^2 = 1e-26 is below the support tolerance, so a zero p passes
    # the support check and sums to zero.
    (lambda: leverage_profile(tiny_selection(1e-13), 1, [0.0, 0.0, 0.0]), InputValidationError,
     "custom p sums to zero"),
    (lambda: leverage_profile(tiny_selection(1e-170), 1), DegenerateModelError, "zero trace"),
    # |v_0|^2 rounds up to the least subnormal, a^2 + b^2 to 0: the trace is
    # positive, the Gram section zero.
    (lambda: leverage_profile(tiny_selection(1.5e-162 * (1 + 1j)), 1), DegenerateModelError,
     "numerically zero"),
    (lambda: leverage_profile(identity_model(4), True), InputValidationError,
     "n must be an integer, got True"),
    (lambda: leverage_profile(identity_model(4), 2.5), InputValidationError,
     "n must be an integer, got 2.5"),
    (lambda: draw_at(0, 0), InputValidationError, "m must be >= 1"),
    (lambda: draw_at(True, 0), InputValidationError, "m must be an integer, got True"),
    (lambda: draw_at(2.5, 0), InputValidationError, "m must be an integer, got 2.5"),
    (lambda: draw_at(4, -1), InputValidationError, "seed must be >= 0, got -1"),
    (lambda: draw_at(4, True), InputValidationError, "seed must be an integer, got True"),
    (lambda: draw_at(4, 1.5), InputValidationError, "seed must be an integer, got 1.5"),
    (lambda: hand_built_gram(np.array([0.0, 1.0])), InputValidationError,
     "draw indices must be a 1-d integer ndarray"),
    (lambda: hand_built_gram(np.array([[0, 1]])), InputValidationError,
     "draw indices must be a 1-d integer ndarray"),
    (lambda: hand_built_gram([0, 1]), InputValidationError,
     "draw indices must be a 1-d integer ndarray"),
    (lambda: coherence_at(4, TINY_P4), InputValidationError, "p_spec gives index 3 the probability"),
    (lambda: coherence_at(8, TINY_P8), InputValidationError, "||u_j||^2/p_j overflows"),
    (lambda: christoffel_profile(leverage_profile(identity_model(4), 4, TINY_P4)),
     InputValidationError, "K_P(j)/p_j overflows"),
]


@pytest.mark.parametrize("call,error,field", PROFILE_ERRORS)
def test_validation_names_the_field(call, error, field):
    with pytest.raises(error) as exc:
        call()
    assert field in str(exc.value)


class TestDerivedFields:
    """Records hold their inputs; everything else is derived on first read."""

    def test_draw_m_is_its_index_count(self):
        prof = leverage_profile(identity_model(4), 4)
        draw = draw_samples(prof, 7, 0)
        assert draw.m == draw.indices.size == 7
        assert "m" not in {f.name for f in fields(SampleDraw)}
        # 20 indices, one of them each 5 times: diag(G_hat) is 1.
        idx = np.repeat(np.arange(4), 5)
        hand = SampleDraw(indices=idx, seed=0, distribution_id=prof.distribution_id)
        assert np.array_equal(np.diag(empirical_gram(prof, hand)).real, np.ones(4))

    def test_orthonormality_is_taken_on_first_read(self):
        assert "sampling_is_orthonormal" not in {f.name for f in fields(FrameModel)}
        assert "_memo" not in {f.name for f in fields(LeverageProfile)}
        dense = build_frame_model(2.0 * np.eye(4), np.eye(4)[:, :2])
        assert "_sampling_gram" not in vars(dense)
        assert not dense.sampling_is_orthonormal and dense._s_norm2 == 4.0
        assert build_selection_model(np.arange(4), np.eye(4)[:, :2]).sampling_is_orthonormal

    @pytest.mark.parametrize("s, orthonormal, s_norm2", [
        (np.hstack([np.eye(6), np.eye(6)]), False, 2.0),  # redundant, ||S||^2 = 2
        (np.diag([1.0, 0.5, 0.5]), False, 1.0),  # ||S|| = 1, yet not orthonormal
        (np.eye(3)[:, [2, 0, 1]], True, 1.0),
    ])
    def test_one_gram_of_s_gives_both_sampling_results(self, s, orthonormal, s_norm2):
        class Counted(np.ndarray):
            conj_calls = 0

            def conj(self):
                Counted.conj_calls += 1
                return np.asarray(self).conj()

        model = build_frame_model(s, np.eye(s.shape[0])[:, :2])
        counted = FrameModel(w_coef=model.w_coef, declared_bounds=None,
                             s_matrix=model.s_matrix.view(Counted))
        assert counted.sampling_is_orthonormal is orthonormal
        assert counted._s_norm2 == s_norm2
        assert counted._s_norm2 is counted._s_norm2
        assert Counted.conj_calls == 1

    def test_sigma_is_factored_once_per_profile(self, monkeypatch):
        # One eigvalsh of sigma gives lambda0, ||sigma|| and its rank, which
        # the coherence profile and the range check read; sigma's one SVD is
        # taken only where its singular vectors are read.  Here sigma =
        # [[1, 1, 0], [1, 1, 0], [0, 0, 1]], of rank 2 < n = 3.
        seen = {"eigvalsh": [], "svd": []}
        for name, args in seen.items():
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, *rest, _real=real, _args=args, **kw:
                                _args.append(a) or _real(a, *rest, **kw))

        def on_sigma(name, prof):
            return sum(a is prof.sigma for a in seen[name])

        model = build_selection_model(np.arange(6), np.eye(6)[:, [0, 0, 1]])
        prof = leverage_profile(model, 3)
        coh = coherence_profile(prof)
        assert (prof.lambda0, prof.rank) == (pytest.approx(1.0), 2)
        assert coh.sigma_norm == prof.sigma_norm == pytest.approx(2.0)
        assert (on_sigma("eigvalsh", prof), on_sigma("svd", prof)) == (1, 0)
        ranks = {sampling._draw_kernel(prof, d).rank: range_stability_check(prof, d)
                 for d in (draw_samples(prof, 1 + seed % 4, seed) for seed in range(8))}
        assert ranks[1] == sampling._RANKS_DIFFER and ranks[2].equal
        christoffel_profile(prof)
        assert (on_sigma("eigvalsh", prof), on_sigma("svd", prof)) == (1, 1)
        # A profile of full rank reads no singular vector of sigma.
        full = leverage_profile(identity_model(4), 4)
        for seed in range(4):
            range_stability_check(full, draw_samples(full, 2 + seed, seed))
        assert full.rank == 4 and on_sigma("svd", full) == 0

    @pytest.mark.parametrize("model", [
        build_selection_model(np.arange(6), np.eye(6)[:, [0, 0, 1]]),
        build_frame_model(np.hstack([np.eye(6), np.eye(6)]), np.eye(6)[:, :4]),
        random_riesz_model(3, ambient=9, j_count=9, k_count=5),
    ])
    def test_eigenvalue_rank_of_sigma_matches_its_svd_rank(self, model):
        for n in range(1, model.num_reconstruction + 1):
            prof = leverage_profile(model, n)
            assert prof.rank == sampling.svd_with_rank(prof.sigma)[3]
            assert prof.sigma_norm == operator_norm(prof.sigma)
