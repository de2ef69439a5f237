"""The paper's Bernstein tails checked on the estimators they govern.

C_hat - C = sum_t X_t with X_t = (v_j u_j^H / p_j - C) / m, j = i_t, and
G_hat - Sigma = sum_t Y_t with Y_t = (v_j v_j^H / p_j - Sigma) / m.  For each
frame at n = 3 the parameters of both tails come from enumerating j, with Q
and the residuals u_j = (I - QQ^H) s_j formed here from an SVD of W_n:
L = max_j ||X||, V1 = sum_t E[X_t X_t^H], V2 = sum_t E[X_t^H X_t],
sigma^2 = max(||V1||, ||V2||), and likewise L, V = sum_t E[Y_t^2] for the Gram.
On a grid of eps at or above the validity threshold where the tail is below
1, the observed frequency of a deviation >= eps over 2,000 draws must stay
below min(1, tail) plus 3 standard errors, those of a frequency whose
probability is the tail itself.

The tails are loose: the rectangular one first drops below 1 at 1.4 to 1.8
times the largest observed ||C_hat - C||.  So the check catches only a tail
that is too small by a large factor: the smallest factor that fails, in
steps of 1.25, is 44 to 108 on these frames and sample counts, and a tail
divided by ``PLANTED`` fails on each.
"""

import math

import numpy as np
import pytest

from stochsamp.bounds import (
    _validity_threshold,
    bernstein_operator_tail,
    bernstein_rectangular_tail,
)
from stochsamp.fourier_legendre import build_fl_model
from stochsamp.sampling import (
    build_frame_model,
    cross_term_deviation,
    draw_samples,
    gram_deviation,
    leverage_profile,
)

N = 3
DRAWS = 2000
DELTA = 0.1
# A tail divided by this is too small for what the draws show.
PLANTED = 200.0


def unitary_frame(seed):
    """A Haar-random 24 x 24 unitary S and W with unit-norm random columns,
    so the leverage scores are not uniform.  S is square and unitary, so
    C = W_n^H (I - QQ^H) = 0, while C_hat is not."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    w = rng.standard_normal((24, N)) + 1j * rng.standard_normal((24, N))
    return build_frame_model(np.linalg.qr(z)[0], w / np.linalg.norm(w, axis=0))


FRAMES = {
    "unitary-0": lambda: unitary_frame(0),
    "unitary-1": lambda: unitary_frame(1),
    "unitary-2": lambda: unitary_frame(2),
    # J = 12 of 101 ambient frequencies: C is not zero.
    "fl-selection": lambda: build_fl_model(N, 12, 101, max_defect=0.05),
}


def tail_parameters(model, prof, m):
    """(L, sigma^2, tr V1, tr V2, max ||V_i||) of the cross-term and
    (L, sigma^2, tr V / ||V||) of the Gram at sample count m, by
    enumerating the support of p."""
    v, p, vn2 = prof.v, prof.p, prof.v_norm_sq
    q = np.linalg.svd(model.w_coef[:, :N], full_matrices=False)[0]
    s = model.s_coef
    u = s - q @ (q.conj().T @ s)
    c = v @ u.conj().T
    sup = np.flatnonzero(p > 0)
    v, u, p, vn2 = v[:, sup], u[:, sup], p[sup], vn2[sup]
    un2 = np.sum(np.abs(u) ** 2, axis=0)
    l_rect = max(np.linalg.norm(np.outer(v[:, j], u[:, j].conj()) / p[j] - c, 2)
                 for j in range(p.size))
    v1 = (v * (un2 / p)) @ v.conj().T - c @ c.conj().T
    v2 = (u * (vn2 / p)) @ u.conj().T - c.conj().T @ c
    v_max = max(np.linalg.norm(v1, 2), np.linalg.norm(v2, 2))
    rect = (l_rect / m, v_max / m, np.trace(v1).real / m, np.trace(v2).real / m, v_max / m)
    sig = prof.sigma
    l_gram = max(np.linalg.norm(np.outer(v[:, j], v[:, j].conj()) / p[j] - sig, 2)
                 for j in range(p.size))
    var = (v * (vn2 / p)) @ v.conj().T - sig @ sig
    var_norm = np.linalg.norm(var, 2)
    gram = (l_gram / m, var_norm / m, np.trace(var).real / var_norm)
    return rect, gram


@pytest.fixture(scope="module", params=[(f, m) for f in FRAMES for m in (50, 400)],
                ids=lambda fm: f"{fm[0]}-m{fm[1]}")
def case(request):
    """{tail name: (tail as a function of eps, its validity threshold, the
    observed deviations)} over DRAWS draws of one frame at one m."""
    frame, m = request.param
    model = FRAMES[frame]()
    prof = leverage_profile(model, N)
    rect, gram = tail_parameters(model, prof, m)
    draws = [draw_samples(prof, m, seed) for seed in range(DRAWS)]
    return {
        "rectangular": (lambda eps: bernstein_rectangular_tail(eps, *rect),
                        _validity_threshold(*rect[:2]),
                        np.array([cross_term_deviation(model, prof, d) for d in draws])),
        "operator": (lambda eps: bernstein_operator_tail(eps, *gram),
                     _validity_threshold(*gram[:2]),
                     np.array([gram_deviation(prof, d) for d in draws])),
    }


def violations(tail, eps0, devs, factor=1.0):
    """The grid points eps in [eps0, 10 eps0] where b = tail(eps) / factor is
    below 1 and the observed frequency of devs >= eps exceeds
    b + 3 sqrt(b (1 - b) / DRAWS)."""
    out = []
    for eps in np.geomspace(eps0, 10.0 * eps0, 60):
        b = tail(eps) / factor
        if b >= 1.0:
            continue
        seen = np.count_nonzero(devs >= eps) / devs.size
        if seen > b + 3.0 * math.sqrt(b * (1.0 - b) / devs.size):
            out.append((float(eps), seen, b))
    return out


def slack(tail, eps0, devs):
    """The eps where the tail reaches DELTA, by bisection, over the observed
    (1 - DELTA) quantile of the deviations."""
    lo, hi = eps0, 2.0 * eps0
    while tail(hi) > DELTA:
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if tail(mid) > DELTA else (lo, mid)
    return hi / float(np.quantile(devs, 1.0 - DELTA))


@pytest.mark.parametrize("name", ["rectangular", "operator"])
def test_observed_deviations_stay_below_the_bernstein_tail(case, name):
    tail, eps0, devs = case[name]
    bad = violations(tail, eps0, devs)
    ratio = slack(tail, eps0, devs)
    print(f"[tail {name}] eps at tail {DELTA} / observed {1 - DELTA:g} quantile = {ratio:.2f}")
    assert not bad, f"{name} tail below the observed frequency at (eps, seen, tail) {bad[:3]}"
    # The tail is not met trivially: it reaches DELTA within a few times
    # the observed (1 - DELTA) quantile.
    assert 1.0 < ratio < 5.0, f"{name} tail reaches {DELTA} at {ratio:.2f} x the observed quantile"


@pytest.mark.parametrize("name", ["rectangular", "operator"])
def test_a_tail_planted_too_small_is_caught(case, name):
    tail, eps0, devs = case[name]
    assert violations(tail, eps0, devs, PLANTED), f"{name} tail / {PLANTED} passed"
