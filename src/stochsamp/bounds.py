"""Closed-form Bernstein tail bounds and sample-complexity thresholds.

All logarithms are natural (the constants 8/3 and 10/3 pair with ln in the
derivations).  Tail bounds are returned unclamped -- they may exceed 1 and the
caller clamps when a probability is needed.  Sample sizes apply the ceiling at
the final step only; a size that is not a finite number (a delta or epsilon
so small that a logarithm or a division overflows) raises
InputValidationError naming delta or epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BoundValidityError, DegenerateVarianceError, InputValidationError

__all__ = [
    "BoundInputs",
    "bernstein_matrix_tail",
    "bernstein_operator_tail",
    "bernstein_rectangular_tail",
    "gram_sample_size",
    "crossterm_sample_size",
    "kfactor_sample_size",
    "GRAM_MODES",
]

GRAM_MODES = ("explicit_eps", "at_lambda0", "rate_Rlogn", "rate_leverage", "rate_onb")


@dataclass(frozen=True)
class BoundInputs:
    """Scalar inputs for the sample-complexity calculators.

    Only the scalars needed by a given mode must be present; the calculators
    raise if a required one is missing.
    """

    n: int
    delta: float
    epsilon: float | None = None
    R: float | None = None
    R_prime: float | None = None
    R_double: float | None = None
    K_scale: float | None = None
    sigma_norm: float | None = None
    sigma_inv_norm: float | None = None
    trace_sigma: float | None = None
    Lambda: float | None = None
    D_riesz_upper: float | None = None

    def __post_init__(self):
        if self.n < 1:
            raise InputValidationError(f"n must be >= 1, got {self.n}")
        if not 0.0 < self.delta < 1.0:
            raise InputValidationError(f"delta must lie in (0, 1), got {self.delta}")
        if self.epsilon is not None and self.epsilon <= 0.0:
            raise InputValidationError(f"epsilon must be positive, got {self.epsilon}")


def _finite(value: float, field: str) -> float:
    """``value`` if it is a finite number, else InputValidationError naming
    the input ``field`` at which the sample size is not finite."""
    if not math.isfinite(value):
        raise InputValidationError(f"sample size is not a finite number at this {field}")
    return value


def _log(c: float, n: int, delta: float) -> float:
    """ln(c n / delta); a delta that makes it infinite is rejected."""
    return math.log(_finite(c * n / delta if delta else math.inf, "delta"))


def _over_eps2(num: float, eps: float) -> float:
    """num / eps^2, infinite where eps^2 underflows to 0."""
    sq = eps**2
    return num / sq if sq else math.inf


def _ceil(size: float, field: str) -> int:
    return math.ceil(_finite(size, field))


def _require(inputs: BoundInputs, *names: str) -> list[float]:
    vals = []
    for name in names:
        val = getattr(inputs, name)
        if val is None:
            raise InputValidationError(f"missing scalar {name!r} for this mode")
        vals.append(float(val))
    return vals


def bernstein_matrix_tail(eps: float, d: int, L: float, V: float) -> float:
    """Matrix Bernstein tail 2d * exp(-(eps^2/2) / (V + L*eps/3)) for a sum of
    independent centered self-adjoint d x d matrices with ||X_t|| <= L and
    variance scale V."""
    if eps < 0 or L < 0 or V < 0:
        raise InputValidationError("eps, L, V must be nonnegative")
    if d < 1:
        raise InputValidationError("d must be >= 1")
    if eps == 0.0:
        return 2.0 * d
    denom = V + L * eps / 3.0
    if denom == 0.0:
        return 0.0
    return 2.0 * d * math.exp(-(eps**2 / 2.0) / denom)


def _validity_threshold(L: float, sigma2: float) -> float:
    return (L + math.sqrt(L**2 + 36.0 * sigma2)) / 6.0


def bernstein_operator_tail(eps: float, L: float, sigma2: float, eff_rank: float) -> float:
    """Dimension-free Bernstein tail 14 * r * exp(-(eps^2/2) / (sigma^2 + L*eps/3))
    for self-adjoint Hilbert-Schmidt operators, valid for
    eps >= (L + sqrt(L^2 + 36 sigma^2)) / 6."""
    if eps < 0 or L < 0 or sigma2 < 0 or eff_rank < 0:
        raise InputValidationError("all arguments must be nonnegative")
    threshold = _validity_threshold(L, sigma2)
    if eps < threshold:
        raise BoundValidityError(
            f"eps={eps} below validity threshold {threshold}", threshold
        )
    denom = sigma2 + L * eps / 3.0
    if denom == 0.0:
        return 0.0
    return 14.0 * eff_rank * math.exp(-(eps**2 / 2.0) / denom)


def bernstein_rectangular_tail(
    eps: float, L: float, sigma2: float, tr_v1: float, tr_v2: float, max_v_norm: float
) -> float:
    """Rectangular-operator Bernstein tail
    14 * (tr V1 + tr V2) / max{||V1||, ||V2||} * exp(-(eps^2/2)/(sigma^2 + L*eps/3)),
    with the same validity threshold on eps as the operator version."""
    if min(eps, L, sigma2, tr_v1, tr_v2, max_v_norm) < 0:
        raise InputValidationError("all arguments must be nonnegative")
    if max_v_norm == 0.0:
        raise DegenerateVarianceError("max{||V1||, ||V2||} is zero; the bound is vacuous")
    return bernstein_operator_tail(eps, L, sigma2, (tr_v1 + tr_v2) / max_v_norm)


def gram_sample_size(inputs: BoundInputs, mode: str) -> int:
    """Sample-size threshold for concentration of the empirical Gram section.

    Modes: ``explicit_eps`` gives (8/3) R ||Sigma|| ln(2n/d)/eps^2;
    ``at_lambda0`` evaluates it at eps = 1/||Sigma^+|| (the invertibility /
    range-stability threshold); ``rate_Rlogn`` is the subspace-condition rate
    (8/3) R ln(2n/d); ``rate_leverage`` is
    (8/3) tr(Sigma) ||Sigma|| ||Sigma^+||^2 ln(2n/d); ``rate_onb`` is
    (8/3) n ln(2n/d).
    """
    if mode not in GRAM_MODES:
        raise InputValidationError(f"unknown mode {mode!r}; expected one of {GRAM_MODES}")
    log_term = _log(2.0, inputs.n, inputs.delta)
    if mode == "rate_onb":
        return _ceil((8.0 / 3.0) * inputs.n * log_term, "delta")
    if mode == "rate_Rlogn":
        (r,) = _require(inputs, "R")
        return _ceil((8.0 / 3.0) * r * log_term, "delta")
    if mode == "rate_leverage":
        tr, sn, sin_ = _require(inputs, "trace_sigma", "sigma_norm", "sigma_inv_norm")
        return _ceil((8.0 / 3.0) * tr * sn * sin_**2 * log_term, "delta")
    if mode == "at_lambda0":
        r, sn, sin_ = _require(inputs, "R", "sigma_norm", "sigma_inv_norm")
        return _ceil((8.0 / 3.0) * r * sn * sin_**2 * log_term, "delta")
    # explicit_eps
    r, sn, eps = _require(inputs, "R", "sigma_norm", "epsilon")
    if eps > sn:
        raise InputValidationError(
            f"epsilon={eps} exceeds ||Sigma||={sn}; admissible range is (0, ||Sigma||]"
        )
    return _ceil(_over_eps2((8.0 / 3.0) * r * sn * log_term, eps), "epsilon")


def _crossterm_formula(n: int, delta: float, k_scale: float, r_double: float, eps: float) -> int:
    return _ceil(
        _over_eps2((10.0 / 3.0) * k_scale * r_double * _log(28.0, n, delta), eps), "epsilon"
    )


def crossterm_sample_size(inputs: BoundInputs) -> int:
    """Threshold (10/3) K R'' ln(28n/d)/eps^2 for concentration of the
    empirical cross-term, valid for eps in (0, ||Sigma||]."""
    k_scale, r_double, sn, eps = _require(
        inputs, "K_scale", "R_double", "sigma_norm", "epsilon"
    )
    if eps > sn:
        raise InputValidationError(
            f"epsilon={eps} exceeds ||Sigma||={sn}; admissible range is (0, ||Sigma||]"
        )
    return _crossterm_formula(inputs.n, inputs.delta, k_scale, r_double, eps)


def kfactor_sample_size(inputs: BoundInputs, variant: str) -> int:
    """Sample size guaranteeing concentration of the aliasing factor K_{n,Omega}.

    ``riesz``: (10/3) K R'' ln(56n/d) Lambda^2 D / eps^2 * max{1, 2||Sigma^-1||}^4.
    ``frames``: max of two cross-term thresholds evaluated at the shifted
    deviations eps/(Lambda sqrt(D)) and eps/(4 ||Sigma^+||^2 Lambda sqrt(D)),
    each at confidence delta/2.

    Requires eps in (0, Lambda sqrt(D) min{1, 2||Sigma^+||}).
    """
    if variant not in ("riesz", "frames"):
        raise InputValidationError(f"unknown variant {variant!r}")
    k_scale, r_double, lam, d_up, sin_, eps = _require(
        inputs, "K_scale", "R_double", "Lambda", "D_riesz_upper", "sigma_inv_norm", "epsilon"
    )
    eps_max = lam * math.sqrt(d_up) * min(1.0, 2.0 * sin_)
    if not 0.0 < eps < eps_max:
        raise InputValidationError(
            f"epsilon={eps} outside admissible interval (0, {eps_max})"
        )
    if variant == "riesz":
        num = (10.0 / 3.0) * k_scale * r_double * _log(56.0, inputs.n, inputs.delta) * lam**2 * d_up
        return _ceil(_over_eps2(num, eps) * max(1.0, 2.0 * sin_) ** 4, "epsilon")
    scale = lam * math.sqrt(d_up)
    half = inputs.delta / 2.0
    return max(
        _crossterm_formula(inputs.n, half, k_scale, r_double, eps / scale),
        _crossterm_formula(inputs.n, half, k_scale, r_double, eps / (4.0 * sin_**2 * scale)),
    )
