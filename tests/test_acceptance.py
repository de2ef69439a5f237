"""Acceptance suite: end-to-end checks of the library's statistical and
numerical guarantees at desk scale.  Each test prints one pass/fail line."""

import json
import math

import mpmath
import numpy as np
import pytest

from stochsamp.bounds import BoundInputs, bernstein_matrix_tail, gram_sample_size
from stochsamp.cli import main as cli_main
from stochsamp.fourier_legendre import (
    adaptive_quadrature,
    build_fl_model,
    exp_target,
    frequencies,
    legendre_fourier_table,
    legendre_table,
    pole_target,
    spherical_bessel_table,
)
from stochsamp.linalg import hermitian_dilation, operator_norm
from stochsamp.sampling import (
    SampleDraw,
    build_frame_model,
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


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {status}: {detail}")
    assert ok, detail


def wilson95(successes, trials):
    z = 1.959963984540054
    phat = successes / trials
    denom = 1.0 + z**2 / trials
    center = (phat + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z**2 / (4 * trials**2)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


@pytest.fixture(scope="module")
def fl_model():
    # one shared Fourier-Legendre model; smaller n come from column prefixes
    return build_fl_model(20, 2001, 2001)


@pytest.fixture(scope="module")
def mc_trials(fl_model):
    """300 draws at n = 10, delta = 0.1, m = rate_onb = 142, with full
    reconstruction reports for the exponential target."""
    n, delta, trials = 10, 0.1, 300
    m = gram_sample_size(BoundInputs(n=n, delta=delta), "rate_onb")
    assert m == 142
    prof = leverage_profile(fl_model, n)
    f_coef = exp_target(1.0).fourier_coef(frequencies(fl_model.ambient_dim))
    records = []
    for t in range(trials):
        draw = draw_samples(prof, m, seed=1000 + t)
        gram_dev = operator_norm(empirical_gram(prof, draw) - prof.sigma)
        rep = reconstruct(prof, draw, f_coef)
        records.append((gram_dev, rep))
    return prof, records


def test_01_gram_concentration_at_rate_onb(mc_trials):
    prof, records = mc_trials
    trials = len(records)
    exceed = sum(1 for gram_dev, _ in records if gram_dev >= prof.lambda0)
    frac = exceed / trials
    lo, hi = wilson95(exceed, trials)
    report(
        1,
        frac <= 0.10,
        f"P(gram_dev >= lambda0) = {frac:.4f} (Wilson95 [{lo:.4f}, {hi:.4f}], "
        f"{trials} trials, m=142) <= 0.10",
    )


def test_02_error_bound_validity(fl_model, mc_trials):
    # The slack is reconstruct's rounding allowance c u ||f|| with c = 1e3,
    # 2.1e-13 here, far below err_l2 (about 5e-10), so a draw that breaks
    # the bound by more than rounding counts as a violation.
    _, records = mc_trials
    f_coef = exp_target(1.0).fourier_coef(frequencies(fl_model.ambient_dim))
    slack = 1e3 * np.finfo(float).eps / 2 * np.linalg.norm(f_coef)
    full_rank = [rep for _, rep in records if not rep.used_pseudo_inverse]
    violations = sum(
        1
        for rep in full_rank
        if rep.err_l2 > rep.tail_err * math.sqrt(1 + rep.k_factor**2) + slack
    )
    report(
        2,
        len(full_rank) > 0 and violations == 0,
        f"{violations} violations of err <= tail*sqrt(1+k^2)+c*u*||f|| "
        f"(c=1e3, slack {slack:.2e}) over {len(full_rank)} full-rank trials",
    )


def test_03_vanishing_cross_term(fl_model):
    # K-factor concentration needs the joint coherence R'' under control; pure
    # leverage sampling leaves the residual coherence R' unbounded here (tiny
    # p_j against order-one residuals), so mix in the residual leverage scores.
    n, trials = 5, 100
    prof0 = leverage_profile(fl_model, n)
    q, _ = np.linalg.qr(fl_model.w_coef[:, :n])
    resid = fl_model.s_coef - q @ (q.conj().T @ fl_model.s_coef)
    un2 = np.sum(np.abs(resid) ** 2, axis=0).real
    vn2 = np.sum(np.abs(prof0.v) ** 2, axis=0).real
    p_mix = 0.5 * vn2 / vn2.sum() + 0.5 * (vn2 + un2) / (vn2 + un2).sum()
    prof = leverage_profile(fl_model, n, p_spec=p_mix)
    coh = coherence_profile(prof)
    f_coef = exp_target(1.0).fourier_coef(frequencies(fl_model.ambient_dim))
    medians = {}
    for m in (200, 2000):
        ks = [
            reconstruct(prof, draw_samples(prof, m, seed=5000 + t), f_coef).k_factor
            for t in range(trials)
        ]
        medians[m] = float(np.median(ks))
    ok = medians[2000] <= 0.5 * medians[200] and coh.C_norm <= 1e-9
    report(
        3,
        ok,
        f"median K at m=2000 ({medians[2000]:.4g}) <= 0.5 * median at m=200 "
        f"({medians[200]:.4g}); C_norm = {coh.C_norm:.3g} <= 1e-9",
    )


def test_04_near_exponential_convergence(fl_model):
    target = pole_target(1.5)
    f_coef = target.fourier_coef(frequencies(fl_model.ambient_dim))
    n_values, trials, delta = [4, 8, 12, 16, 20], 20, 0.1
    medians = []
    for n in n_values:
        prof = leverage_profile(fl_model, n)
        m = gram_sample_size(BoundInputs(n=n, delta=delta), "rate_onb")
        errs = [
            reconstruct(prof, draw_samples(prof, m, seed=9000 + t), f_coef).err_l2
            for t in range(trials)
        ]
        medians.append(float(np.median(errs)))
    slope = float(np.polyfit(n_values, np.log(medians), 1)[0])
    report(
        4,
        slope <= -math.log(2.0),
        f"fitted slope of ln(median err) vs n is {slope:.4f} <= -ln(2) = "
        f"{-math.log(2.0):.4f} (theory -ln(rho) = {-math.log(target.rho):.4f})",
    )


def test_05_trace_and_leverage_identities():
    worst_trace = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        s = np.linalg.qr(rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7)))[0]
        w = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
        model = build_frame_model(s, w)
        prof = leverage_profile(model, 4)
        vn2 = float(np.sum(np.abs(prof.v) ** 2))
        worst_trace = max(worst_trace, abs(prof.trace_sigma - vn2))

    eye = np.eye(8, dtype=complex)
    prof_on = leverage_profile(build_frame_model(eye, eye), 4)
    coh_on = coherence_profile(prof_on)
    chris_on = christoffel_profile(prof_on)
    on_gap = abs(chris_on.kappa_w - coh_on.R)

    sandwich_ok = True
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        s = np.linalg.qr(rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7)))[0]
        w = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
        w += 2 * np.linalg.qr(w)[0]
        model = build_frame_model(s, w)
        prof = leverage_profile(model, 4)
        coh = coherence_profile(prof)
        kw = christoffel_profile(prof).kappa_w
        sandwich_ok &= coh.R / coh.sigma_norm - 1e-9 <= kw <= coh.sigma_inv_norm * coh.R + 1e-9
    report(
        5,
        worst_trace <= 1e-9 and on_gap <= 1e-9 and sandwich_ok,
        f"trace identity gap {worst_trace:.2e} <= 1e-9; orthonormal kappa_w == R "
        f"(gap {on_gap:.2e}); Riesz sandwich holds on 10 random models",
    )


def test_06_unbiasedness_brute_force():
    worst_gram = worst_cross = 0.0
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        j_count = 5 + seed  # J <= 12 throughout
        s = np.linalg.qr(
            rng.standard_normal((12, j_count)) + 1j * rng.standard_normal((12, j_count))
        )[0]
        w = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
        model = build_frame_model(s, w)
        prof = leverage_profile(model, 3)
        c = cross_term_matrix(prof)
        gram_sum = np.zeros((3, 3), dtype=complex)
        cross_sum = np.zeros_like(c)
        for j in np.flatnonzero(prof.p > 0):
            draw = SampleDraw(
                indices=np.array([j], dtype=np.int64), seed=0,
                distribution_id=prof.distribution_id,
            )
            gram_sum += prof.p[j] * empirical_gram(prof, draw)
            cross_sum += prof.p[j] * empirical_cross_term(prof, draw)
        scale = max(1.0, prof.trace_sigma)
        worst_gram = max(worst_gram, operator_norm(gram_sum - prof.sigma) / scale)
        worst_cross = max(
            worst_cross, operator_norm(cross_sum - c) / max(1.0, operator_norm(c))
        )
    report(
        6,
        worst_gram <= 1e-12 and worst_cross <= 1e-12,
        f"single-draw expectations reproduce Sigma (gap {worst_gram:.2e}) and C "
        f"(gap {worst_cross:.2e}) to 1e-12",
    )


def test_07_bernstein_soundness():
    # ensemble X = e_j e_j^H - I/d with j uniform: ||sum|| = max_k |count_k - m/d|
    d, m, n_mc = 4, 20, 10_000
    L = 1.0 - 1.0 / d
    V = m * (d - 1) / d**2
    rng = np.random.default_rng(0)
    idx = rng.integers(0, d, size=(n_mc, m))
    counts = np.stack([(idx == k).sum(axis=1) for k in range(d)], axis=1)
    norms = np.abs(counts - m / d).max(axis=1)
    eps_grid = np.linspace(1.0, 10.0, 10)
    sound = True
    for eps in eps_grid:
        freq = float(np.mean(norms >= eps))
        bound = bernstein_matrix_tail(float(eps), d, L, V)
        se = math.sqrt(max(freq * (1 - freq), 1.0 / n_mc) / n_mc)
        sound &= freq <= bound + 3 * se

    dilation_ok = True
    for seed in range(5):
        r2 = np.random.default_rng(300 + seed)
        total = sum(
            r2.standard_normal((3, 2)) + 1j * r2.standard_normal((3, 2)) for _ in range(6)
        )
        gap = abs(operator_norm(total) - operator_norm(hermitian_dilation(total)))
        dilation_ok &= gap <= 1e-12
    report(
        7,
        sound and dilation_ok,
        f"empirical tails never exceed bernstein_matrix_tail + 3 MC std errors at "
        f"{len(eps_grid)} deviations ({n_mc} trials); Hermitian dilation preserves "
        f"norms to 1e-12",
    )


def test_08_frame_path_with_duplicated_columns():
    rng = np.random.default_rng(42)
    basis = np.linalg.qr(
        rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    )[0]
    w = np.hstack([basis, basis])  # n = 6 columns spanning a 3-dim space
    model = build_frame_model(np.eye(8, dtype=complex), w)
    assert not model.reconstruction_is_riesz
    prof = leverage_profile(model, 6)
    coh = coherence_profile(prof)
    assert prof.lambda0 == pytest.approx(2.0, abs=1e-9)
    m = gram_sample_size(
        BoundInputs(
            n=6, delta=0.1, R=coh.R, sigma_norm=coh.sigma_norm,
            sigma_inv_norm=coh.sigma_inv_norm,
        ),
        "at_lambda0",
    )
    f = rng.standard_normal(8) + 1j * rng.standard_normal(8)

    trials, stable_count, bound_bad, pinv_used = 200, 0, 0, 0
    for t in range(trials):
        draw = draw_samples(prof, m, seed=7000 + t)
        rep = reconstruct(prof, draw, f)
        pinv_used += rep.used_pseudo_inverse
        stable = range_stability_check(prof, draw).equal
        stable_count += stable
        if stable and rep.err_l2 > rep.tail_err * math.sqrt(1 + rep.k_factor**2) + 1e-8:
            bound_bad += 1
    freq = stable_count / trials
    report(
        8,
        pinv_used == trials and bound_bad == 0 and freq >= 0.9,
        f"pseudo-inverse path on all {trials} trials; 0 bound violations on "
        f"range-stable draws; range-stability frequency {freq:.3f} >= 0.9 at m={m}",
    )


def test_09_special_function_accuracy():
    worst_bessel = 0.0
    xs = (math.pi, 2 * math.pi, 10.5)
    for x, seq in zip(xs, spherical_bessel_table(xs, 40)):
        with mpmath.workdps(50):
            for k in range(41):
                truth = float(
                    mpmath.sqrt(mpmath.pi / (2 * x)) * mpmath.besselj(k + 0.5, x)
                )
                if abs(truth) > 1e-13:
                    worst_bessel = max(worst_bessel, abs(seq[k] - truth) / abs(truth))

    worst_coef = 0.0
    ells = (0, 1, -2, 5)
    table = legendre_fourier_table(13, ells)
    for k in (0, 1, 3, 7, 12):
        for li, ell in enumerate(ells):
            def integrand(x, k=k, ell=ell):
                return (
                    legendre_table(k, x)[k]
                    * np.exp(-1j * math.pi * ell * x)
                    / math.sqrt(2.0)
                )

            truth = adaptive_quadrature(integrand)
            worst_coef = max(worst_coef, abs(table[li, k] - truth))
    report(
        9,
        worst_bessel <= 1e-10 and worst_coef <= 1e-10,
        f"spherical Bessel worst relative error {worst_bessel:.2e} <= 1e-10; "
        f"Fourier-Legendre coefficients vs quadrature {worst_coef:.2e} <= 1e-10",
    )


def test_10_cli_determinism(tmp_path, capsys):
    argv = [
        "mc-gram", "--model", "identity:8", "--n", "4", "--m", "47",
        "--trials", "50", "--seed", "321",
    ]
    outputs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        code = cli_main(argv + ["--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        json.loads(stdout)  # well-formed
        outputs.append(
            (stdout, (tmp_path / f"{tag}.json").read_bytes(),
             (tmp_path / f"{tag}.csv").read_bytes())
        )
    same = outputs[0][0] == outputs[1][0] and outputs[0][1:] == outputs[1][1:]
    with capsys.disabled():
        report(10, same, "two identical CLI runs produce byte-identical stdout, JSON and CSV")
