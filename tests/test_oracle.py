"""The per-trial numbers of one draw against the 40-digit oracle of
``oracle.py``: an FL selection, an identity model and a dense unitary frame.

Each number is held within a tolerance stated from its conditioning, with
u the unit round-off of float64 and C = 1e3, a modest multiple of the sum
lengths here (N, J <= 41) times the square-root amplification sqrt(100)
that the n-space guard of the deviations admits:

- tail_err: C u ||f||, a projection onto an orthonormal basis;
- err_l2: C u kappa(G_hat) ||f||, the solve's forward error;
- gram_dev: C u (||G_hat|| + ||Sigma||), by Weyl's inequality;
- cross_dev: C u (||C_hat||_F + ||C||_F), likewise;
- k_factor: C u kappa(G_hat) K, relative, through G_hat^+;
- gram_condition: C u kappa(G_hat)^2, relative C u kappa of kappa.

The pole target's Legendre coefficients, up to its k_cut, are held to the
closed form within 1e-11 of the largest: the agreement of two successive
Gauss-Legendre rules at which the program's quadrature stops.
"""

import numpy as np
import pytest

from oracle import model_oracle, pole_legendre_coef
from stochsamp.fourier_legendre import build_fl_model, exp_target, frequencies, pole_target
from stochsamp.sampling import (
    build_frame_model,
    build_selection_model,
    cross_term_deviation,
    draw_samples,
    gram_deviation,
    leverage_profile,
    reconstruct,
)

U = np.finfo(float).eps / 2
C = 1e3


def fl_case():
    model = build_fl_model(6, 41, 41, max_defect=0.2)
    return model, 6, 40, exp_target(1.0).fourier_coef(frequencies(41))


def identity_case():
    f = 1.0 / np.arange(1.0, 7.0)
    return build_selection_model(np.arange(6), np.eye(6)), 4, 12, f / np.linalg.norm(f)


def dense_case():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    s = np.linalg.qr(z / np.sqrt(2.0))[0]
    g = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    w = s[:, :6] @ g / 3.0 + 0.05 * rng.standard_normal((12, 4))
    return build_frame_model(s, w), 4, 16, rng.standard_normal(12) + 1j * rng.standard_normal(12)


@pytest.mark.parametrize("make", [fl_case, identity_case, dense_case],
                         ids=["fl", "identity", "dense"])
def test_per_trial_numbers_match_the_40_digit_oracle(make):
    model, n, m, f = make()
    prof = leverage_profile(model, n)
    draw = draw_samples(prof, m, 0)
    rep = reconstruct(prof, draw, f)
    assert not rep.used_pseudo_inverse
    ref = model_oracle(model, prof, draw, f)
    kappa, f_norm = ref["gram_condition"], float(np.linalg.norm(f))
    got = {
        "tail_err": (rep.tail_err, C * U * f_norm),
        "err_l2": (rep.err_l2, C * U * kappa * f_norm),
        "gram_dev": (gram_deviation(prof, draw), C * U * ref["gram_scale"]),
        "cross_dev": (cross_term_deviation(prof, draw), C * U * ref["cross_scale"]),
        "k_factor": (rep.k_factor, C * U * kappa * ref["k_factor"]),
        "gram_condition": (rep.gram_condition, C * U * kappa**2),
    }
    for name, (value, tol) in got.items():
        assert abs(value - ref[name]) <= tol, (name, value, ref[name], tol)


@pytest.mark.parametrize("a", [1.5, 1.05])
def test_pole_legendre_coefficients_match_the_40_digit_oracle(a):
    target = pole_target(a)
    got = target.legendre_coef(target.k_cut)
    want = pole_legendre_coef(a, target.k_cut)
    scale = float(np.max(np.abs(want)))
    dist = float(np.max(np.abs(got - want))) / scale
    assert dist <= 1e-11, (
        f"pole_a:{a}: legendre_coef up to k_cut = {target.k_cut} is {dist:.2e} of the "
        f"largest coefficient from the 40-digit closed form (tolerance 1e-11)")
