import math

import mpmath
import numpy as np
import pytest

import stochsamp.fourier_legendre as fourier_legendre
from stochsamp.errors import InputValidationError, NumericalAccuracyError, TruncationError
from stochsamp.fourier_legendre import (
    EXP_C_MAX,
    _leggauss,
    _legval,
    adaptive_quadrature,
    build_fl_model,
    column_defects,
    exp_target,
    fl_leverage_distribution,
    frequencies,
    legendre_fourier_table,
    legendre_table,
    pole_target,
    spherical_bessel_table,
)
from stochsamp.sampling import draw_samples, leverage_profile, reconstruct


def bessel_oracle(x, k):
    """High-precision spherical Bessel value via the half-integer Bessel link."""
    with mpmath.workdps(50):
        if x == 0:
            return 1.0 if k == 0 else 0.0
        val = mpmath.sqrt(mpmath.pi / (2 * abs(x))) * mpmath.besselj(k + 0.5, abs(x))
        if x < 0 and k % 2 == 1:
            val = -val
        return float(val)


def _bessel_scalar_abs(ax, k_max):
    """j_0..j_k_max at one point 0 < ax <= k_max + 1, one point at a time: the
    upward recurrence up to k_up = min(k_max, floor(ax)), then, if ax < k_max,
    a downward recurrence rescaled at 1e250 and anchored at the largest
    upward value."""
    k_up = min(k_max, int(math.floor(ax)))
    up = np.empty(max(k_up + 1, 2))
    up[0] = math.sin(ax) / ax
    up[1] = math.sin(ax) / ax**2 - math.cos(ax) / ax
    for k in range(1, k_up):
        up[k + 1] = (2 * k + 1) / ax * up[k] - up[k - 1]
    if k_max <= ax:
        return up[: k_max + 1].copy()

    k_start = k_max + 16 + math.ceil(1.5 * math.sqrt(k_max))
    vals = np.zeros(k_max + 1)
    jp, jc = 0.0, 1e-150
    for k in range(k_start, -1, -1):
        if k <= k_max:
            vals[k] = jc
        jm = (2 * k + 1) / ax * jc - jp
        jp, jc = jc, jm
        if abs(jc) > 1e250:
            jp *= 1e-250
            jc *= 1e-250
            vals *= 1e-250
    if k_up >= 1:
        anchor = int(np.argmax(np.abs(up[: k_up + 1])))
        scale = up[anchor] / vals[anchor]
    else:
        scale = (math.sin(ax) / ax) / vals[0]
    return vals * scale


def legval_divide_after(x, c):
    """Clenshaw recursion for a Legendre series, dividing after the product,
    ``(c1 * (nd - 1)) / nd``, as numpy 2.4's ``lagval`` does and an older
    numpy's ``legval`` may; ``_legval`` takes numpy 2.4's ``legval`` step,
    ``c1 * ((nd - 1) / nd)``, which rounds differently."""
    c0, c1 = (c[0], 0) if len(c) == 1 else (c[-2], c[-1])
    nd = len(c)
    for i in range(3, len(c) + 1):
        nd -= 1
        c0, c1 = c[-i] - (c1 * (nd - 1)) / nd, c0 + (c1 * x * (2 * nd - 1)) / nd
    return c0 + c1 * x


PROBE = np.random.default_rng(0)
PROBE_X, PROBE_C = PROBE.uniform(-1.0, 1.0, 257), PROBE.standard_normal(64)


def numpy_legval_rounds_as_legval():
    """True if the installed numpy's ``legval`` takes ``_legval``'s Clenshaw
    step, bit for bit on a probe series."""
    got = np.polynomial.legendre.legval(PROBE_X, PROBE_C)
    return np.array_equal(got.view(np.uint64), _legval(PROBE_X, PROBE_C).view(np.uint64))


def bessel_table_by_point(xs, k_max):
    """The spherical Bessel table with a loop over the points at or below
    |x| = k_max + 1 and a plain upward recurrence, one point per row, above."""
    xs = np.asarray(xs, dtype=float)
    out = np.empty((xs.size, k_max + 1))
    ax = np.abs(xs)
    fast = ax > k_max + 1.0
    a = ax[fast]
    block = np.empty((a.size, k_max + 1))
    jm = np.sin(a) / a
    block[:, 0] = jm
    if k_max >= 1:
        jc = np.sin(a) / a**2 - np.cos(a) / a
        block[:, 1] = jc
        for k in range(1, k_max):
            jm, jc = jc, (2 * k + 1) / a * jc - jm
            block[:, k + 1] = jc
    out[fast] = block
    for i in np.flatnonzero(~fast):
        if ax[i] == 0.0:
            out[i] = 0.0
            out[i, 0] = 1.0
        else:
            out[i] = _bessel_scalar_abs(ax[i], k_max)
    neg = xs < 0.0
    out[neg] *= np.where(np.arange(k_max + 1) % 2 == 0, 1.0, -1.0)
    return out


def frequency_oracle(index):
    """sigma(l) for a 1-based index l, straight from the enumeration rule
    0, +1, -1, +2, -2, ..."""
    half, odd = divmod(index, 2)
    return 0 if index == 1 else (-half if odd else half)


def bessel_seq(x, k_max):
    """j_0(x) .. j_{k_max}(x) through the production table."""
    return spherical_bessel_table([x], k_max)[0]


def legendre_fourier_coef(k, ell):
    """Fourier coefficient of the degree-k normalized Legendre polynomial at
    frequency ell, through the production table."""
    return legendre_fourier_table(k + 1, [ell])[0, k]


class TestFrequencyMap:
    def test_enumeration_rule(self):
        assert frequencies(7).tolist() == [0, 1, -1, 2, -2, 3, -3]

    def test_bijection(self):
        # The first 2q + 1 indices enumerate each frequency in [-q, q] once.
        assert sorted(frequencies(199).tolist()) == list(range(-99, 100))

    def test_vectorized_matches_scalar(self):
        fr = frequencies(50)
        assert [frequency_oracle(i) for i in range(1, 51)] == fr.tolist()


class TestSphericalBessel:
    def test_x_zero_exact(self):
        seq = bessel_seq(0.0, 5)
        assert seq[0] == 1.0
        assert np.all(seq[1:] == 0.0)

    def test_closed_forms_at_pi(self):
        seq = bessel_seq(math.pi, 2)
        assert abs(seq[0]) <= 1e-15
        assert seq[1] == pytest.approx(1.0 / math.pi, rel=1e-12)
        assert seq[2] == pytest.approx(3.0 / math.pi**2, rel=1e-12)

    @pytest.mark.parametrize("x", [math.pi, 2 * math.pi, 10.5])
    def test_oracle_agreement(self, x):
        seq = bessel_seq(x, 40)
        for k in range(41):
            truth = bessel_oracle(x, k)
            # at the zeros of j_0 (x = pi*l) only absolute accuracy is possible
            assert abs(seq[k] - truth) <= 1e-10 * abs(truth) + 1e-14

    @pytest.mark.parametrize("x", [0.3, -0.3, 1.7, -7.2, 25.0, 100.0])
    def test_oracle_agreement_general(self, x):
        seq = bessel_seq(x, 30)
        for k in range(31):
            truth = bessel_oracle(x, k)
            if abs(truth) > 1e-250:
                assert abs(seq[k] - truth) <= 1e-10 * abs(truth) + 1e-300

    @pytest.mark.parametrize("x", [1.3, 4.0, 10.5, -6.6, 33.3])
    def test_recurrence_residual(self, x):
        seq = bessel_seq(x, 25)
        for k in range(1, 25):
            resid = seq[k - 1] + seq[k + 1] - (2 * k + 1) / x * seq[k]
            scale = max(abs(seq[k - 1]), abs(seq[k]), abs(seq[k + 1]))
            assert abs(resid) <= 1e-10 * max(scale, 1e-300)

    def test_parity(self):
        pos, neg = spherical_bessel_table([5.3, -5.3], 12)
        signs = np.where(np.arange(13) % 2 == 0, 1.0, -1.0)
        assert np.allclose(neg, pos * signs, rtol=1e-13)

    def test_rejects_nonfinite(self):
        with pytest.raises(InputValidationError):
            spherical_bessel_table([1.0, math.nan], 3)

    @pytest.mark.parametrize("k_max", [0, 1, 2, 9, 19, 72, 400])
    @pytest.mark.parametrize("count", [7, 301, 2001, 20001])
    def test_equals_the_point_by_point_table_bit_for_bit(self, k_max, count):
        # The frequency points of the Fourier-Legendre tables, then x = 0,
        # negative points and |x| at both ends of the upward-only range.
        extra = [0.0, -0.0, -0.4, 0.4, -1.0, -2.5, k_max, -k_max, k_max + 1, -(k_max + 1),
                 k_max - 0.5, k_max + 0.5, -(k_max + 1.5)]
        xs = np.concatenate([-math.pi * frequencies(count), extra])
        got = spherical_bessel_table(xs, k_max)
        want = bessel_table_by_point(xs, k_max)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestLegendreFourierCoef:
    def test_k0_l0(self):
        assert legendre_fourier_coef(0, 0) == pytest.approx(1.0)

    def test_k0_nonzero_frequency(self):
        assert abs(legendre_fourier_coef(0, 3)) <= 1e-15

    def test_k1_l1(self):
        # i * sqrt(3) * j_1(-pi) = -i sqrt(3)/pi
        val = legendre_fourier_coef(1, 1)
        assert val == pytest.approx(-1j * math.sqrt(3.0) / math.pi, abs=1e-12)

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 9])
    @pytest.mark.parametrize("ell", [0, 1, -2, 4])
    def test_quadrature_oracle(self, k, ell):
        def integrand(x):
            return legendre_table(k, x)[k] * np.exp(-1j * math.pi * ell * x) / math.sqrt(2.0)

        truth = adaptive_quadrature(integrand)
        assert abs(legendre_fourier_coef(k, ell) - truth) <= 1e-10

    def test_parity_symmetry(self):
        for k in range(8):
            for ell in range(1, 6):
                plus = legendre_fourier_coef(k, ell)
                minus = legendre_fourier_coef(k, -ell)
                assert abs(minus - (-1) ** k * plus) <= 1e-12

    def test_table_matches_scalar(self):
        # Each entry against the closed form i^k sqrt(2k+1) j_k(-pi l), with
        # j_k from mpmath; the table mixes the upward and Miller paths.
        freqs = frequencies(15)
        tbl = legendre_fourier_table(6, freqs)
        for li, ell in enumerate(freqs):
            for k in range(6):
                scalar = 1j**k * math.sqrt(2 * k + 1) * bessel_oracle(-math.pi * ell, k)
                assert tbl[li, k] == pytest.approx(scalar, abs=1e-13)

    def test_phase_is_exact_past_degree_100(self):
        # Column k is i^k times a real column: even k real, odd k imaginary,
        # with exact zeros, though (1j) ** k rounds from k = 100 on.
        tbl = legendre_fourier_table(120, frequencies(301))
        assert np.all(tbl[:, 0::2].imag == 0.0)
        assert np.all(tbl[:, 1::2].real == 0.0)

    def test_phase_matches_the_power_below_degree_100(self):
        # Below k = 100 the exact phase and (1j) ** k agree bit for bit, so
        # tables of up to 100 columns are what they were with the power.
        freqs = frequencies(301)
        tbl = legendre_fourier_table(100, freqs)
        ks = np.arange(100)
        old = (1j) ** ks * np.sqrt(2 * ks + 1) * spherical_bessel_table(-math.pi * freqs, 99)
        assert np.array_equal(tbl.view(np.uint64), old.view(np.uint64))


class TestLeverageDistribution:
    def test_n1_point_mass(self):
        p, tail = fl_leverage_distribution(1, 21)
        assert p[0] == pytest.approx(1.0)
        assert np.all(np.abs(p[1:]) <= 1e-25)
        assert tail <= 1e-12

    def test_n5_zero_frequency_entry(self):
        p, tail = fl_leverage_distribution(5, 401)
        pre_renorm = p[0] * (1.0 - tail)
        assert 5.0 * pre_renorm == pytest.approx(1.0, abs=1e-12)

    def test_retained_mass_audit(self):
        # sum over all integers of n * p_l equals n = tr(Sigma)
        n = 5
        p, tail = fl_leverage_distribution(n, 801)
        retained = (1.0 - tail) * n
        assert retained <= n + 1e-12
        assert retained == pytest.approx(n, rel=2e-3)

    def test_tail_decreases_with_J(self):
        tails = [fl_leverage_distribution(5, j)[1] for j in (41, 201, 801)]
        assert tails[0] > tails[1] > tails[2] >= -1e-12

    def test_insufficient_J(self):
        with pytest.raises(TruncationError):
            fl_leverage_distribution(5, 1)

    def test_matches_generic_model_path(self):
        # closed-form n*p_l agrees with ||v_l||^2 from the assembled model
        n, j_count, ambient = 4, 201, 201
        model = build_fl_model(n, j_count, ambient, max_defect=0.05)
        prof = leverage_profile(model, n)
        vn2 = np.sum(np.abs(prof.v) ** 2, axis=0).real
        p, tail = fl_leverage_distribution(n, j_count)
        pre_renorm = p * (1.0 - tail)
        assert np.max(np.abs(n * pre_renorm - vn2)) <= 1e-9


@pytest.fixture
def rules_taken(monkeypatch):
    """Node counts of the Gauss-Legendre rules adaptive_quadrature takes, in order."""
    seen = []

    def rule(nodes):
        seen.append(nodes)
        return _leggauss(nodes)

    monkeypatch.setattr(fourier_legendre, "_leggauss", rule)
    return seen


class TestQuadrature:
    def test_polynomial_exact(self):
        out = adaptive_quadrature(lambda x: x**4)
        assert out == pytest.approx(2.0 / 5.0, abs=1e-12)

    def test_nonconvergent_raises(self, rules_taken):
        with pytest.raises(NumericalAccuracyError):
            # The 2048- and 4096-node rules differ by 4.7e-6.
            adaptive_quadrature(lambda x: np.sqrt(np.abs(x)))
        assert rules_taken == [64, 128, 256, 512, 1024, 2048, 4096]

    def test_never_compares_a_rule_with_itself(self, rules_taken):
        adaptive_quadrature(lambda x: np.ones_like(x))
        assert rules_taken == [64, 128]

    def test_stops_at_the_first_rule_within_tolerance(self, rules_taken):
        # |x|^3.5: the 512- and 1024-node rules differ by 8.7e-13.
        out = adaptive_quadrature(lambda x: np.abs(x) ** 3.5)
        assert rules_taken == [64, 128, 256, 512, 1024]
        assert out == pytest.approx(2.0 / 4.5, abs=1e-12)

    def test_accepts_a_gap_up_to_1e9_at_4096_nodes(self, rules_taken):
        # |x|^1.9: the 2048- and 4096-node rules differ by 3.0e-11.
        out = adaptive_quadrature(lambda x: np.abs(x) ** 1.9)
        assert rules_taken == [64, 128, 256, 512, 1024, 2048, 4096]
        assert out == pytest.approx(2.0 / 2.9, abs=1e-11)

    @pytest.mark.parametrize("option", ["tol", "min_nodes", "max_nodes"])
    def test_takes_no_schedule_options(self, option):
        with pytest.raises(TypeError, match=option):
            adaptive_quadrature(lambda x: x**4, **{option: 64})

    def test_numpy_legval_takes_one_of_two_clenshaw_steps(self):
        got = np.polynomial.legendre.legval(PROBE_X, PROBE_C).view(np.uint64)
        steps = [f(PROBE_X, PROBE_C).view(np.uint64) for f in (_legval, legval_divide_after)]
        assert not np.array_equal(*steps)  # the probe tells the two apart
        assert any(np.array_equal(got, step) for step in steps)

    @pytest.mark.parametrize("nodes", [1, 2, 3, 64, 128, 256, 512, 1024, 2048, 4096])
    def test_rule_equals_numpy_leggauss_bit_for_bit(self, nodes, monkeypatch):
        x, w = _leggauss(nodes)
        if not numpy_legval_rounds_as_legval():
            # This numpy's rule differs in the weights' last bits (up to 1.3e-8
            # relative at 4096 nodes); the rest of its arithmetic must not.
            monkeypatch.setattr(np.polynomial.legendre, "legval",
                                lambda x, c: _legval(x, np.asarray(c, dtype=float)))
        want_x, want_w = np.polynomial.legendre.leggauss(nodes)
        assert np.array_equal(x.view(np.uint64), want_x.view(np.uint64))
        assert np.array_equal(w.view(np.uint64), want_w.view(np.uint64))


class TestAnalyticTargets:
    def test_constant_target(self):
        t = exp_target(0.0)
        fc = t.fourier_coef(frequencies(9))
        assert fc[0] == pytest.approx(math.sqrt(2.0))
        assert np.max(np.abs(fc[1:])) <= 1e-12
        lc = t.legendre_coef(5)
        assert lc[0] == pytest.approx(math.sqrt(2.0))
        assert np.max(np.abs(lc[1:])) <= 1e-12

    def test_exp_closed_form(self):
        t = exp_target(1.0)
        fc = t.fourier_coef(np.array([0]))
        assert fc[0] == pytest.approx(math.sqrt(2.0) * math.sinh(1.0))
        assert abs(fc[0] - 1.6620) <= 1e-4

    def test_exp_fourier_vs_quadrature(self):
        t = exp_target(1.0)
        fr = frequencies(11)
        fc = t.fourier_coef(fr)
        truth = adaptive_quadrature(
            lambda x: np.exp(x) * np.exp(-1j * math.pi * np.outer(fr, x)) / math.sqrt(2.0)
        )
        assert np.max(np.abs(fc - truth)) <= 1e-10

    def test_pole_rho(self):
        t = pole_target(1.5)
        assert t.rho == pytest.approx(1.5 + math.sqrt(1.25))

    def test_pole_requires_a_above_one(self):
        with pytest.raises(InputValidationError):
            pole_target(0.9)

    @pytest.mark.parametrize("a,k_cut", [(1.5, 72), (1.0058493751726991, 400), (1e150, 31)])
    def test_pole_k_cut(self, a, k_cut):
        assert pole_target(a).k_cut == k_cut

    @pytest.mark.parametrize("a", [
        1.005849375172699, 1.003, 1.0000001, 1.0000000000000002,
        math.nextafter(1e150, math.inf), 1e308, math.inf, math.nan,
    ])
    def test_pole_outside_its_range_rejected(self, a):
        # Either its expansion would need a degree above 400, or it lies so
        # far out that ||f||^2 = 2/(a^2 - 1) is no longer a normal double.
        with pytest.raises(InputValidationError, match=r"\ba\b"):
            pole_target(a)

    def test_exp_range_is_where_the_norm_is_finite(self):
        for c in (EXP_C_MAX, -EXP_C_MAX):
            assert math.isfinite(math.sinh(2.0 * c) / c)
            assert exp_target(c).param == c
        for c in (math.nextafter(EXP_C_MAX, math.inf), -360.0, 700.0, math.inf, math.nan):
            with pytest.raises(InputValidationError, match=r"\|c\|"):
                exp_target(c)

    def test_pole_fourier_vs_quadrature(self):
        t = pole_target(1.5)
        fr = np.array([0, 1, -1, 3, -5, 12])
        fc = t.fourier_coef(fr)
        truth = adaptive_quadrature(
            lambda x: t.value(x) * np.exp(-1j * math.pi * np.outer(fr, x)) / math.sqrt(2.0)
        )
        assert np.max(np.abs(fc - truth)) <= 1e-10

    def test_pole_legendre_decay_ratio(self):
        t = pole_target(1.5)
        lc = np.abs(t.legendre_coef(21))
        ratios = lc[11:21] / lc[10:20]
        fitted = float(np.mean(ratios))
        assert abs(fitted - 1.0 / t.rho) <= 0.05 / t.rho

    def test_target_coefficients_shapes(self):
        target = pole_target(1.5)
        legendre, fourier = target.legendre_coef(7), target.fourier_coef(frequencies(101))
        assert legendre.shape == (8,)
        assert fourier.shape == (101,)

    def test_parseval_audit(self):
        t = pole_target(1.5)
        j_count = 2001
        fc = t.fourier_coef(frequencies(j_count))
        retained = float(np.sum(np.abs(fc) ** 2))
        norm2 = float(adaptive_quadrature(lambda x: t.value(x) ** 2))
        gap = norm2 - retained
        assert -1e-10 <= gap <= 1e-3
        # |f_hat(l)| ~ C/|l| asymptotically, so frequencies (1000, 2000] must
        # carry about half of the remaining mass: C^2(1/1000 - 1/2000)
        extra = float(np.sum(np.abs(t.fourier_coef(frequencies(4001)[j_count:])) ** 2))
        assert 0.45 <= extra / gap <= 0.55


class TestBuildFlModel:
    def test_n1_exact_column(self):
        model = build_fl_model(1, 5, 9)
        expected = np.zeros(9, dtype=complex)
        expected[0] = 1.0  # sigma^{-1}(0) = 1, first ambient coordinate
        assert np.allclose(model.w_coef[:, 0], expected, atol=1e-15)

    def test_orthonormal_sampling_flag(self):
        model = build_fl_model(3, 101, 101, max_defect=0.05)
        assert model.sampling_is_orthonormal

    def test_gram_near_identity(self):
        model = build_fl_model(5, 2001, 2001)
        prof = leverage_profile(model, 5)
        assert np.max(np.abs(prof.sigma - np.eye(5))) <= 1e-2

    def test_defect_reported_and_bounded(self):
        model = build_fl_model(5, 2001, 2001)
        defects = column_defects(model.w_coef)
        assert np.all(defects >= -1e-12)
        assert defects.max() <= 1e-2

    def test_ambient_too_small(self):
        with pytest.raises(TruncationError):
            build_fl_model(5, 41, 41, max_defect=1e-6)

    def test_J_exceeding_ambient_rejected(self):
        with pytest.raises(InputValidationError):
            build_fl_model(3, 200, 101)


class TestL2Error:
    """reconstruct's err_l2 is the coefficient-space distance ||f - f_tilde||."""

    def test_shape_mismatch(self):
        model = build_fl_model(2, 9, 9, max_defect=1.0)
        prof = leverage_profile(model, 2)
        with pytest.raises(InputValidationError):
            reconstruct(model, prof, draw_samples(prof, 4, 0), np.ones(8))

    def test_quadrature_cross_check(self):
        # synthesize f and its reconstruction from Fourier coefficients and
        # compare err_l2 to direct quadrature of |f - f_tilde|^2 (Parseval)
        rng = np.random.default_rng(0)
        j_count = 9
        fr = frequencies(j_count)
        fc = rng.standard_normal(j_count) + 1j * rng.standard_normal(j_count)
        model = build_fl_model(2, j_count, j_count, max_defect=1.0)
        prof = leverage_profile(model, 2)
        rep = reconstruct(model, prof, draw_samples(prof, 4, 0), fc)
        gc = rep.f_tilde_coef

        def diff_sq(x):
            basis = np.exp(1j * math.pi * np.outer(fr, x)) / math.sqrt(2.0)
            d = (fc - gc) @ basis
            return np.abs(d) ** 2

        truth = math.sqrt(float(adaptive_quadrature(diff_sq).real))
        assert abs(rep.err_l2 - truth) <= 1e-8


class TestLegendreEval:
    def test_degree_zero(self):
        assert legendre_table(0, [0.37])[0, 0] == pytest.approx(math.sqrt(0.5))

    def test_degree_one_at_one(self):
        assert legendre_table(1, [1.0])[1, 0] == pytest.approx(math.sqrt(1.5))

    def test_orthonormality_by_quadrature(self):
        x, w = np.polynomial.legendre.leggauss(64)
        vals = legendre_table(7, x)
        gram = (vals * w) @ vals.T
        assert np.max(np.abs(gram - np.eye(8))) <= 1e-12


# Every argument check of the tables and the model builder: (call, text
# naming the field).  Each runs before any frequency table is made.
ARGUMENT_ERRORS = [
    (lambda: spherical_bessel_table([1.0], -1), "k_max must be >= 0"),
    (lambda: spherical_bessel_table([1.0, np.inf], 3), "spherical Bessel arguments must be finite"),
    (lambda: legendre_table(-1, [0.0]), "k_max must be >= 0"),
    (lambda: legendre_fourier_table(0, np.arange(5.0)), "n must be >= 1"),
    (lambda: fl_leverage_distribution(0, 5), "n and J must be >= 1"),
    (lambda: fl_leverage_distribution(4, 0), "n and J must be >= 1"),
    (lambda: build_fl_model(4, 0, 301), "need 1 <= J <= ambient"),
    (lambda: build_fl_model(4, 302, 301), "need 1 <= J <= ambient"),
    (lambda: build_fl_model(0, 301, 301), "n must be >= 1"),
    (lambda: build_fl_model(4, 301, 301, max_defect=0.0), "max_defect must be > 0"),
    (lambda: build_fl_model(4, 301, 301, max_defect=-1.0), "max_defect must be > 0"),
    (lambda: build_fl_model(4, 301, 301, max_defect=math.nan), "max_defect must be > 0"),
]


@pytest.mark.parametrize("call,field", ARGUMENT_ERRORS)
def test_argument_checks_name_the_field(monkeypatch, call, field):
    def refuse(count):
        raise AssertionError("a table was built before the check")

    monkeypatch.setattr(fourier_legendre, "frequencies", refuse)
    with pytest.raises(InputValidationError) as exc:
        call()
    assert field in str(exc.value)
