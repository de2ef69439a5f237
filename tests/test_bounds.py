import math

import pytest

from stochsamp.bounds import (
    GRAM_MODES,
    BoundInputs,
    bernstein_matrix_tail,
    bernstein_operator_tail,
    bernstein_rectangular_tail,
    crossterm_sample_size,
    gram_sample_size,
    kfactor_sample_size,
)
from stochsamp.errors import (
    BoundValidityError,
    DegenerateVarianceError,
    InputValidationError,
)


class TestMatrixTail:
    def test_unit_case(self):
        # 2 * exp(-(1/2)/(1 + 1/3)) = 2 * exp(-0.375)
        expected = 2.0 * math.exp(-0.375)
        assert bernstein_matrix_tail(1.0, 1, 1.0, 1.0) == pytest.approx(expected)
        assert expected == pytest.approx(1.3746, abs=1e-4)

    def test_eps_zero(self):
        assert bernstein_matrix_tail(0.0, 3, 1.0, 1.0) == 6.0

    def test_degenerate_variance_limit(self):
        assert bernstein_matrix_tail(0.5, 2, 0.0, 0.0) == 0.0

    def test_monotonicity(self):
        vals = [bernstein_matrix_tail(e, 4, 0.5, 2.0) for e in (0.5, 1.0, 2.0, 4.0)]
        assert vals == sorted(vals, reverse=True)
        assert bernstein_matrix_tail(1.0, 4, 0.5, 2.0) <= bernstein_matrix_tail(
            1.0, 4, 0.5, 3.0
        )
        assert bernstein_matrix_tail(1.0, 4, 0.5, 2.0) <= bernstein_matrix_tail(
            1.0, 4, 1.0, 2.0
        )
        assert bernstein_matrix_tail(1.0, 4, 0.5, 2.0) <= bernstein_matrix_tail(
            1.0, 8, 0.5, 2.0
        )

    def test_rejects_negative(self):
        with pytest.raises(InputValidationError):
            bernstein_matrix_tail(-1.0, 1, 1.0, 1.0)


class TestOperatorTail:
    def test_unit_case(self):
        # L=0, sigma2=1 gives threshold exactly 1; value 14 * exp(-0.5)
        expected = 14.0 * math.exp(-0.5)
        assert bernstein_operator_tail(1.0, 0.0, 1.0, 1.0) == pytest.approx(expected)
        assert expected == pytest.approx(8.4914, abs=1e-4)

    def test_below_threshold_raises_with_value(self):
        with pytest.raises(BoundValidityError) as exc:
            bernstein_operator_tail(0.999999, 0.0, 1.0, 1.0)
        assert exc.value.threshold == pytest.approx(1.0)

    def test_eps_zero(self):
        # Valid only with L = sigma^2 = 0, and P(||X|| >= 0) = 1, so the
        # bound is the prefactor, as bernstein_matrix_tail gives 2d.
        assert bernstein_operator_tail(0.0, 0.0, 0.0, 3.0) == 42.0
        assert bernstein_rectangular_tail(0.0, 0.0, 0.0, 1.0, 2.0, 0.5) == 84.0

    def test_linearity_in_rank(self):
        one = bernstein_operator_tail(2.0, 0.0, 1.0, 1.0)
        two = bernstein_operator_tail(2.0, 0.0, 1.0, 2.0)
        assert two == pytest.approx(2.0 * one)

    def test_threshold_formula(self):
        # (L + sqrt(L^2 + 36 sigma2)) / 6 at L=2, sigma2=1
        thr = (2.0 + math.sqrt(4.0 + 36.0)) / 6.0
        with pytest.raises(BoundValidityError) as exc:
            bernstein_operator_tail(thr * 0.99, 2.0, 1.0, 1.0)
        assert exc.value.threshold == pytest.approx(thr)
        bernstein_operator_tail(thr, 2.0, 1.0, 1.0)  # boundary accepted


class TestRectangularTail:
    def test_symmetric_case(self):
        # 14 * (1+1)/1 * exp(-0.5) = 28 * exp(-0.5)
        expected = 28.0 * math.exp(-0.5)
        out = bernstein_rectangular_tail(1.0, 0.0, 1.0, 1.0, 1.0, 1.0)
        assert out == pytest.approx(expected)
        assert expected == pytest.approx(16.983, abs=1e-3)

    def test_trace_scaling(self):
        base = bernstein_rectangular_tail(1.5, 0.0, 1.0, 1.0, 1.0, 1.0)
        scaled = bernstein_rectangular_tail(1.5, 0.0, 1.0, 3.0, 3.0, 1.0)
        assert scaled == pytest.approx(3.0 * base)

    def test_equals_twice_operator_tail(self):
        rect = bernstein_rectangular_tail(2.0, 0.5, 1.0, 1.0, 1.0, 1.0)
        op = bernstein_operator_tail(2.0, 0.5, 1.0, 1.0)
        assert rect == pytest.approx(2.0 * op)

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateVarianceError):
            bernstein_rectangular_tail(1.0, 0.0, 1.0, 0.0, 0.0, 0.0)


class TestGramSampleSize:
    def test_rate_onb_value(self):
        # ceil((8/3) * 10 * ln(200)) = 142
        inputs = BoundInputs(n=10, delta=0.1)
        assert gram_sample_size(inputs, "rate_onb") == 142
        assert math.ceil((8.0 / 3.0) * 10 * math.log(200.0)) == 142

    def test_at_lambda0_identity_collapse(self):
        inputs = BoundInputs(
            n=10, delta=0.1, R=10.0, sigma_norm=1.0, sigma_inv_norm=1.0
        )
        assert gram_sample_size(inputs, "at_lambda0") == gram_sample_size(
            inputs, "rate_onb"
        )

    def test_explicit_eps_quarter_scaling(self):
        a = gram_sample_size(
            BoundInputs(n=6, delta=0.05, epsilon=0.4, R=5.0, sigma_norm=1.0),
            "explicit_eps",
        )
        b = gram_sample_size(
            BoundInputs(n=6, delta=0.05, epsilon=0.2, R=5.0, sigma_norm=1.0),
            "explicit_eps",
        )
        assert b in (4 * a - 3, 4 * a - 2, 4 * a - 1, 4 * a)  # ceiling slack

    def test_at_lambda0_matches_explicit_at_lambda0(self):
        inputs = BoundInputs(
            n=7, delta=0.2, R=9.0, sigma_norm=3.0, sigma_inv_norm=2.0, epsilon=0.5
        )
        assert gram_sample_size(inputs, "at_lambda0") == gram_sample_size(
            BoundInputs(n=7, delta=0.2, R=9.0, sigma_norm=3.0, epsilon=0.5),
            "explicit_eps",
        )

    def test_rate_leverage_formula(self):
        inputs = BoundInputs(
            n=4, delta=0.1, trace_sigma=4.0, sigma_norm=2.0, sigma_inv_norm=1.5
        )
        expected = math.ceil((8.0 / 3.0) * 4.0 * 2.0 * 1.5**2 * math.log(80.0))
        assert gram_sample_size(inputs, "rate_leverage") == expected

    def test_epsilon_above_sigma_norm_rejected(self):
        inputs = BoundInputs(n=4, delta=0.1, epsilon=2.0, R=4.0, sigma_norm=1.0)
        with pytest.raises(InputValidationError):
            gram_sample_size(inputs, "explicit_eps")

    def test_missing_scalar(self):
        with pytest.raises(InputValidationError):
            gram_sample_size(BoundInputs(n=4, delta=0.1), "rate_Rlogn")

    def test_unknown_mode(self):
        with pytest.raises(InputValidationError):
            gram_sample_size(BoundInputs(n=4, delta=0.1), "bogus")

    def test_monotone_in_n_and_delta(self):
        for mode in GRAM_MODES:
            kw = dict(
                R=5.0, sigma_norm=2.0, sigma_inv_norm=1.0, trace_sigma=5.0, epsilon=1.0
            )
            small = gram_sample_size(BoundInputs(n=4, delta=0.1, **kw), mode)
            big_n = gram_sample_size(BoundInputs(n=8, delta=0.1, **kw), mode)
            small_delta = gram_sample_size(BoundInputs(n=4, delta=0.01, **kw), mode)
            assert big_n >= small
            assert small_delta >= small


class TestCrosstermSampleSize:
    def test_spec_scale_value(self):
        # ceil((10/3) * 1 * 10 * ln(2800) / 0.25) = 1059
        inputs = BoundInputs(
            n=10, delta=0.1, epsilon=0.5, K_scale=1.0, R_double=10.0, sigma_norm=1.0
        )
        assert crossterm_sample_size(inputs) == 1059

    def test_boundary_epsilon_accepted(self):
        inputs = BoundInputs(
            n=10, delta=0.1, epsilon=1.0, K_scale=1.0, R_double=10.0, sigma_norm=1.0
        )
        crossterm_sample_size(inputs)

    def test_doubling_r_double(self):
        base = BoundInputs(
            n=10, delta=0.1, epsilon=0.5, K_scale=1.0, R_double=10.0, sigma_norm=1.0
        )
        doubled = BoundInputs(
            n=10, delta=0.1, epsilon=0.5, K_scale=1.0, R_double=20.0, sigma_norm=1.0
        )
        a, b = crossterm_sample_size(base), crossterm_sample_size(doubled)
        assert b in (2 * a - 1, 2 * a)

    def test_epsilon_above_sigma_norm_rejected(self):
        inputs = BoundInputs(
            n=10, delta=0.1, epsilon=2.0, K_scale=1.0, R_double=10.0, sigma_norm=1.0
        )
        with pytest.raises(InputValidationError):
            crossterm_sample_size(inputs)


class TestKfactorSampleSize:
    INPUTS = dict(
        n=10,
        delta=0.1,
        epsilon=0.5,
        K_scale=1.0,
        R_double=10.0,
        sigma_norm=1.0,
        sigma_inv_norm=1.0,
        Lambda=2.0,
        D_riesz_upper=1.0,
    )

    def test_riesz_closed_form(self):
        # (10/3) K R'' ln(56n/delta) Lambda^2 D / eps^2 * max{1, 2||Sigma^-1||}^4
        expected = math.ceil(
            (10.0 / 3.0) * 1.0 * 10.0 * math.log(5600.0) * 4.0 * 1.0 / 0.25 * 16.0
        )
        out = kfactor_sample_size(BoundInputs(**self.INPUTS), "riesz")
        assert out == expected

    def test_frames_equals_max_of_shifted_crossterms(self):
        inputs = BoundInputs(**self.INPUTS)
        out = kfactor_sample_size(inputs, "frames")
        scale = inputs.Lambda * math.sqrt(inputs.D_riesz_upper)
        parts = []
        for eps in (0.5 / scale, 0.5 / (4.0 * inputs.sigma_inv_norm**2 * scale)):
            parts.append(
                crossterm_sample_size(
                    BoundInputs(
                        n=10, delta=0.05, epsilon=eps, K_scale=1.0, R_double=10.0,
                        sigma_norm=1.0,
                    )
                )
            )
        assert out == max(parts)

    def test_epsilon_boundary_rejected(self):
        bad = dict(self.INPUTS, epsilon=2.0)  # eps_max = Lambda*sqrt(D)*1 = 2
        with pytest.raises(InputValidationError):
            kfactor_sample_size(BoundInputs(**bad), "riesz")

    def test_unknown_variant(self):
        with pytest.raises(InputValidationError):
            kfactor_sample_size(BoundInputs(**self.INPUTS), "bogus")


class TestBoundInputsValidation:
    def test_bad_delta(self):
        with pytest.raises(InputValidationError):
            BoundInputs(n=4, delta=1.5)

    def test_bad_epsilon(self):
        with pytest.raises(InputValidationError):
            BoundInputs(n=4, delta=0.1, epsilon=-1.0)

    def test_bad_n(self):
        with pytest.raises(InputValidationError):
            BoundInputs(n=0, delta=0.1)


class TestSizesThatAreNotFinite:
    """A delta or epsilon so small that a size is not a finite number raises
    InputValidationError naming it, where math.ceil would raise
    OverflowError or the division ZeroDivisionError."""

    INPUTS = dict(TestKfactorSampleSize.INPUTS, R=10.0, trace_sigma=10.0)
    READ_EPSILON = [
        (gram_sample_size, ("explicit_eps",)),
        (crossterm_sample_size, ()),
        (kfactor_sample_size, ("riesz",)),
        (kfactor_sample_size, ("frames",)),
    ]
    READ_DELTA = READ_EPSILON + [(gram_sample_size, (mode,)) for mode in GRAM_MODES[1:]]

    @pytest.mark.parametrize("delta", [5e-324, 1e-308])
    @pytest.mark.parametrize("calc,mode", READ_DELTA)
    def test_delta_named(self, calc, mode, delta):
        inputs = BoundInputs(**dict(self.INPUTS, delta=delta))
        with pytest.raises(InputValidationError, match="not a finite number at this delta"):
            calc(inputs, *mode)

    @pytest.mark.parametrize("eps", [5e-324, 1e-170, 1e-160])
    @pytest.mark.parametrize("calc,mode", READ_EPSILON)
    def test_epsilon_named(self, calc, mode, eps):
        inputs = BoundInputs(**dict(self.INPUTS, epsilon=eps))
        with pytest.raises(InputValidationError, match="not a finite number at this epsilon"):
            calc(inputs, *mode)

    def test_finite_sizes_kept_near_the_edge(self):
        # delta = 1e-300 leaves ln(2n/delta) finite; the size is exact.
        inputs = BoundInputs(n=4, delta=1e-300)
        expected = math.ceil((8.0 / 3.0) * 4 * math.log(2.0 * 4 / 1e-300))
        assert gram_sample_size(inputs, "rate_onb") == expected


# Every argument check of the tail bounds: (call, error, text naming the field).
TAIL_ARGUMENT_ERRORS = [
    (lambda: bernstein_matrix_tail(-1.0, 2, 1.0, 1.0), InputValidationError, "eps must be"),
    (lambda: bernstein_matrix_tail(1.0, 0, 1.0, 1.0), InputValidationError, "d must be >= 1"),
    (lambda: bernstein_operator_tail(1.0, -1.0, 1.0, 1.0), InputValidationError, "L must be"),
    (lambda: bernstein_operator_tail(1.0, 1.0, -1.0, 1.0), InputValidationError, "sigma2 must be"),
    (lambda: bernstein_operator_tail(1.0, 1.0, 1.0, -1.0), InputValidationError,
     "eff_rank must be"),
    (lambda: bernstein_rectangular_tail(1.0, 1.0, 1.0, -1.0, 1.0, 1.0), InputValidationError,
     "tr_v1 must be"),
    (lambda: bernstein_rectangular_tail(1.0, 1.0, 1.0, 1.0, 1.0, -1.0), InputValidationError,
     "max_v_norm must be"),
    (lambda: bernstein_rectangular_tail(1.0, 1.0, 1.0, 1.0, 1.0, 0.0), DegenerateVarianceError,
     "max{||V1||, ||V2||} is zero"),
]


@pytest.mark.parametrize("call,error,field", TAIL_ARGUMENT_ERRORS)
def test_tail_argument_checks_name_the_field(call, error, field):
    with pytest.raises(error) as exc:
        call()
    assert field in str(exc.value)


def test_operator_tail_without_variance_or_range():
    # L = sigma^2 = 0: the summands vanish, every eps > 0 is valid and the
    # tail is 0.
    assert bernstein_operator_tail(1.0, 0.0, 0.0, 3.0) == 0.0
