"""The column-selection form of the sampling system against the dense form
of the same frame, the closed-form Fourier-Legendre leverage, and a memory
ceiling that only the selection form can meet."""

import tracemalloc

import numpy as np
import pytest

from stochsamp.errors import InputValidationError
from stochsamp.fourier_legendre import (
    build_fl_model,
    exp_target,
    fl_leverage_distribution,
    frequencies,
)
from stochsamp.sampling import (
    build_frame_model,
    build_selection_model,
    coherence_profile,
    cross_term_matrix,
    draw_samples,
    leverage_profile,
    reconstruct,
)

AMBIENT, N, REL = 301, 10, 1e-12
COHERENCE_FIELDS = (
    "R", "R_prime", "R_double", "T_norm", "K_scale", "Lambda",
    "sigma_norm", "sigma_inv_norm", "C_norm",
)


def assert_close(got, ref, scale=None):
    """Max-norm gap within REL of ``scale`` (default: the reference's size)."""
    got, ref = np.asarray(got), np.asarray(ref)
    scale = np.max(np.abs(ref)) if scale is None else scale
    assert np.max(np.abs(got - ref)) <= REL * scale


@pytest.fixture(scope="module", params=[301, 201, 8], ids=lambda j: f"J{j}")
def pair(request):
    """(selection model, dense model) of one FL frame; J = 8 < n leaves the
    selection no wider than rank Q."""
    sel = build_fl_model(N, request.param, AMBIENT, max_defect=0.05)
    dense = build_frame_model(np.eye(AMBIENT, request.param), sel.w_coef)
    return sel, dense


def test_selection_form_stores_no_dense_matrix(pair):
    sel, dense = pair
    assert sel.s_matrix is None and sel.sampling_is_orthonormal
    assert sel.num_sampling == dense.num_sampling
    assert np.array_equal(sel.s_coef, dense.s_coef)
    with pytest.raises(ValueError):
        sel.s_coef[0, 0] = 2.0


def test_leverage_matches_dense_and_closed_form(pair):
    sel, dense = pair
    ps, pd = leverage_profile(sel, N), leverage_profile(dense, N)
    assert_close(ps.p, pd.p)
    assert_close(ps.sigma, pd.sigma)
    exact, _ = fl_leverage_distribution(N, sel.num_sampling)
    assert_close(ps.p, exact)


def test_coherence_and_cross_term_match_dense(pair):
    sel, dense = pair
    ps, pd = leverage_profile(sel, N), leverage_profile(dense, N)
    cs, cd = coherence_profile(ps), coherence_profile(pd)
    for name in COHERENCE_FIELDS:
        # C_norm vanishes to rounding when J = ambient; those fields are O(1)
        # quantities, so the gap is measured against max(|ref|, 1).
        ref = getattr(cd, name)
        assert abs(getattr(cs, name) - ref) <= REL * max(abs(ref), 1.0), name
    # C is roundoff-sized when J = ambient: measure against the size of v.
    assert_close(cross_term_matrix(ps), cross_term_matrix(pd),
                 scale=np.max(np.abs(pd.v)))


def test_reconstruct_reports_match_dense(pair):
    sel, dense = pair
    ps, pd = leverage_profile(sel, N), leverage_profile(dense, N)
    f = exp_target(1.0).fourier_coef(frequencies(AMBIENT))
    for seed in range(5):
        rs = reconstruct(ps, draw_samples(ps, 40, seed), f)
        rd = reconstruct(pd, draw_samples(pd, 40, seed), f)
        assert_close(rs.x_tilde, rd.x_tilde)
        assert_close(rs.f_tilde_coef, rd.f_tilde_coef)
        for name in ("err_l2", "tail_err", "k_factor", "residual_weighted"):
            ref = getattr(rd, name)
            assert abs(getattr(rs, name) - ref) <= REL * abs(ref), name
        assert rs.bound_ok == rd.bound_ok
        assert rs.used_pseudo_inverse == rd.used_pseudo_inverse
        if isinstance(rd.gram_condition, str):
            assert rs.gram_condition == rd.gram_condition
        else:
            assert abs(rs.gram_condition - rd.gram_condition) <= REL * rd.gram_condition


def test_pipeline_memory_stays_small():
    # A dense 2001 x 2001 complex S alone is 64 MB.
    tracemalloc.start()
    try:
        model = build_fl_model(10, 2001, 2001)
        prof = leverage_profile(model, 10)
        coherence_profile(prof)
        cross_term_matrix(prof)
        f = exp_target(1.0).fourier_coef(frequencies(2001))
        reconstruct(prof, draw_samples(prof, 142, 0), f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("rows", [[0, 0], [0, 5], [], [[0]], [0.0]])
def test_bad_rows_rejected(rows):
    with pytest.raises(InputValidationError):
        build_selection_model(rows, np.eye(3, 2))
