"""Fourier-Legendre application: frequency enumeration, spherical Bessel
functions, closed-form Fourier coefficients of Legendre polynomials, the
explicit leverage distribution, analytic targets, and the frame-model builder
with truncation-tail accounting.

The ambient orthonormal basis is the Fourier system exp(pi*i*sigma(l)*x)/sqrt(2)
on [-1, 1], truncated to the first ``ambient`` frequencies of the enumeration
sigma = 0, +1, -1, +2, -2, ...  Legendre reconstruction vectors are represented
by their Fourier coefficient columns; the mass lost to truncation is reported,
never silently renormalized away.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputValidationError, NumericalAccuracyError, TruncationError
from .sampling import FrameModel, _selection_model

__all__ = [
    "frequencies",
    "spherical_bessel_table",
    "legendre_fourier_table",
    "fl_leverage_distribution",
    "AnalyticTarget",
    "exp_target",
    "pole_target",
    "build_fl_model",
    "column_defects",
    "legendre_table",
    "adaptive_quadrature",
]


# -- frequency enumeration ---------------------------------------------------

def frequencies(count: int) -> np.ndarray:
    """sigma(l) for l = 1..count as an int array."""
    idx = np.arange(1, count + 1)
    half = idx // 2
    return np.where(idx == 1, 0, np.where(idx % 2 == 0, half, -half))


# -- spherical Bessel functions ----------------------------------------------

def _miller_table(a: np.ndarray, k_max: int) -> np.ndarray:
    """Unnormalized downward recurrence for j_0..j_k_max at each point of
    ``a`` (all 0 < a < k_max), shape (k_max + 1, a.size).

    ``buf[k + 1]`` holds j_k for k = -1 .. k_start + 1.  Each point is
    rescaled by 1e-250 on its own, when its latest value passes 1e250.
    ``bound`` and ``prev`` bound |j_{k-1}| and |j_k| over the points (rounding
    is monotone, so the bound holds in floating point too); the points are
    looked at only once it passes 1e250.  Looking at them every step instead
    makes the whole table about a quarter slower at k_max = 9 and 72.
    """
    k_start = k_max + 16 + math.ceil(1.5 * math.sqrt(k_max))
    odd = np.arange(1, 2 * k_start + 2, 2)
    coef = odd[:, None] / a
    growth = (odd / a.min()).tolist()
    buf = np.zeros((k_start + 3, a.size))
    buf[k_start + 1] = 1e-150
    bound, prev = 1e-150, 0.0
    for k in range(k_start, -1, -1):
        jm = np.multiply(coef[k], buf[k + 1], out=buf[k])
        jm -= buf[k + 2]
        bound, prev = growth[k] * bound + prev, bound
        if not bound <= 1e250:  # NaN included
            big = np.abs(jm) > 1e250
            buf[k:, big] *= 1e-250
            bound, prev = float(np.abs(jm).max()), float(np.abs(buf[k + 1]).max())
    return buf[1 : k_max + 2]


def spherical_bessel_table(xs, k_max: int) -> np.ndarray:
    """j_k(x) for every x in ``xs`` and k = 0..k_max, shape (len(xs), k_max+1).

    One upward recurrence runs across all points; a point with |x| <= k_max + 1
    takes it only up to k_up = min(k_max, floor|x|), where it is still stable.
    Where |x| < k_max a normalized downward (Miller-type) recurrence takes
    over, anchored at the largest upward value (the closed-form j_0 when
    |x| < 1), since j_0 itself vanishes at the integer multiples of pi where
    this module evaluates.
    """
    if k_max < 0:
        raise InputValidationError(f"k_max must be >= 0, got {k_max}")
    xs = np.asarray(xs, dtype=float).reshape(-1)
    if not np.all(np.isfinite(xs)):
        raise InputValidationError("spherical Bessel arguments must be finite")
    out = np.empty((xs.size, k_max + 1))
    ax = np.abs(xs)
    # Near points in ascending order, then the far ones (|x| > k_max + 1):
    # the points that continue the recurrence past row r form a suffix.
    near = np.flatnonzero((ax > 0.0) & (ax <= k_max + 1.0))
    near = near[np.argsort(ax[near], kind="stable")]
    far = np.flatnonzero(ax > k_max + 1.0)
    lanes = np.concatenate([near, far])
    a = ax[lanes]
    # Near points take math.sin, math.cos and scalar squares, as when they
    # were computed one at a time; numpy does not promise np.sin rounds alike.
    near_a = a[: near.size].tolist()
    sin = np.concatenate([[math.sin(v) for v in near_a], np.sin(a[near.size :])])
    # Rows r >= 1 start at the first lane with |x| >= r; far lanes take all.
    starts = np.searchsorted(a[: near.size], np.arange(k_max + 1)).tolist()
    up = np.zeros((k_max + 1, a.size))
    up[0] = sin / a
    if k_max >= 1:
        s = starts[1]
        cos = np.concatenate([[math.cos(v) for v in near_a[s:]], np.cos(a[near.size :])])
        sq = np.concatenate([[v**2 for v in a[s : near.size]], a[near.size :] ** 2])
        up[1, s:] = sin[s:] / sq - cos / a[s:]
    for k in range(1, k_max):
        s = starts[k + 1]
        if s == a.size:
            break
        row = np.divide(2 * k + 1, a[s:], out=up[k + 1, s:])
        row *= up[k, s:]
        row -= up[k - 1, s:]
    # Lanes below |x| = k_max take the downward recurrence.
    top = starts[k_max]
    if top:
        # Rows past a lane's k_up are still zero, so its argmax stays in 0..k_up.
        anchor = np.argmax(np.abs(up[:, :top]), axis=0)
        vals = _miller_table(a[:top], k_max)
        cols = np.arange(top)
        up[:, :top] = vals * (up[anchor, cols] / vals[anchor, cols])
    # j_k(-x) = (-1)^k j_k(x)
    up[1::2] *= np.where(xs[lanes] < 0.0, -1.0, 1.0)
    out[lanes] = up.T
    zero = ax == 0.0
    out[zero] = 0.0
    out[zero, 0] = 1.0
    return out


# -- Fourier coefficients of Legendre polynomials -----------------------------

def legendre_fourier_table(n: int, freqs: np.ndarray) -> np.ndarray:
    """Matrix of Fourier coefficients, shape (len(freqs), n), column k the
    degree-k normalized Legendre polynomial."""
    if n < 1:
        raise InputValidationError(f"n must be >= 1, got {n}")
    freqs = np.asarray(freqs, dtype=float)
    tbl = spherical_bessel_table(-math.pi * freqs, n - 1)
    ks = np.arange(n)
    # i^k exactly: (1j) ** k picks up rounding from k = 100 on.
    return np.array([1, 1j, -1, -1j])[ks % 4] * np.sqrt(2 * ks + 1) * tbl


# -- leverage distribution with tail accounting --------------------------------

def fl_leverage_distribution(n: int, J: int) -> tuple[np.ndarray, float]:
    """Exact leverage distribution p_l = (1/n) sum_{k<n} (2k+1) j_k(-sigma(l) pi)^2
    on the first J enumerated frequencies, renormalized by the retained mass,
    and the tail mass.

    The raw distribution sums to 1 over all integers; the tail mass is the
    weight of the discarded frequencies.
    """
    if n < 1 or J < 1:
        raise InputValidationError("n and J must be >= 1")
    tbl = spherical_bessel_table(-math.pi * frequencies(J).astype(float), n - 1)
    ks = np.arange(n)
    p_raw = ((2 * ks + 1) * tbl**2).sum(axis=1) / n
    retained = float(p_raw.sum())
    tail = max(1.0 - retained, 0.0)
    if tail >= 0.5:
        raise TruncationError(
            f"J={J} retains only {retained:.3f} of the leverage mass for n={n}; "
            "increase J"
        )
    return p_raw / retained, tail


# -- Legendre evaluation and quadrature ----------------------------------------

def legendre_table(k_max: int, xs: np.ndarray) -> np.ndarray:
    """Normalized Legendre values, shape (k_max+1, len(xs)), via the
    three-term recurrence."""
    if k_max < 0:
        raise InputValidationError(f"k_max must be >= 0, got {k_max}")
    xs = np.asarray(xs, dtype=float)
    p = np.empty((k_max + 1, xs.size))
    p[0] = 1.0
    if k_max >= 1:
        p[1] = xs
    for k in range(1, k_max):
        p[k + 1] = ((2 * k + 1) * xs * p[k] - k * p[k - 1]) / (k + 1)
    norms = np.sqrt(np.arange(k_max + 1) + 0.5)
    return p * norms[:, None]


def _legval(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The Legendre series c at x by Clenshaw recursion, step for step as
    numpy 2.4's ``numpy.polynomial.legendre.legval`` takes it for a 1-D c.
    An older numpy's ``legval`` may divide after the product, as numpy 2.4's
    ``lagval`` does, ``(c1 * (nd - 1)) / nd``, which rounds differently."""
    c0, c1 = (c[0], 0) if len(c) == 1 else (c[-2], c[-1])
    nd = len(c)
    for i in range(3, len(c) + 1):
        nd -= 1
        c0, c1 = c[-i] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@lru_cache(maxsize=16)
def _leggauss(nodes: int):
    """Gauss-Legendre nodes and weights, with the arithmetic of
    ``numpy.polynomial.legendre.leggauss`` (without importing it): the
    eigenvalues of the symmetric companion matrix of P_nodes, one Newton
    step, and weights from P_nodes' and P_{nodes-1}, symmetrized and
    normalized to 2.  The Clenshaw step is ``_legval``'s on every numpy, so
    where numpy's ``legval`` rounds otherwise, its ``leggauss`` weights differ
    from these in the last bits."""
    c = np.zeros(nodes + 1)
    c[-1] = 1.0
    scl = 1.0 / np.sqrt(2 * np.arange(nodes) + 1)
    off = np.arange(1, nodes) * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    # d/dx P_n = sum of (2k + 1) P_k over k = n-1, n-3, ...
    ks = np.arange(nodes)
    der = np.where((nodes - 1 - ks) % 2 == 0, 2.0 * ks + 1.0, 0.0)
    dy = _legval(x, c)
    df = _legval(x, der)
    x -= dy / df
    fm = _legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


def adaptive_quadrature(fn):
    """Gauss-Legendre integration over [-1, 1] with node doubling.

    ``fn(x)`` must be vectorized with the integration axis last; scalar or
    array-valued integrands are both fine.  Doubles the node count from 64
    until two successive results agree to 1e-11 (absolute, sup over
    components); at 4096 nodes, a disagreement above 1e-9 raises
    :class:`NumericalAccuracyError`.
    """
    prev = None
    nodes = 64
    while True:
        x, w = _leggauss(nodes)
        val = np.asarray(fn(x)) @ w
        if prev is not None:
            gap = float(np.max(np.abs(val - prev)))
            if gap <= 1e-11:
                return val
            if nodes == 4096:
                if gap <= 1e-9:
                    return val
                raise NumericalAccuracyError(
                    f"quadrature did not converge at {nodes} nodes (gap {gap:.3e})"
                )
        prev = val
        nodes *= 2


# -- analytic targets -----------------------------------------------------------

@dataclass(frozen=True)
class AnalyticTarget:
    """Analytic function on [-1, 1] with coefficient oracles.

    ``rho`` is the Bernstein-ellipse parameter governing the decay of the
    Legendre coefficients (``inf`` for entire functions).
    """

    kind: str
    param: float
    rho: float

    def value(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "exp_c":
            return np.exp(self.param * x)
        return 1.0 / (x - self.param)

    def fourier_coef(self, freqs: np.ndarray) -> np.ndarray:
        """Fourier coefficients <f, s_l> at the given integer frequencies.

        The exponential uses the closed form sqrt(2) sinh(c - i pi l)/(c - i pi l).
        The pole target goes through its Legendre expansion (geometric decay at
        rate 1/rho) synthesized with the closed-form Fourier-Legendre table;
        direct quadrature of e^{-i pi l x}/(x - a) stalls at high frequencies.
        """
        freqs = np.asarray(freqs, dtype=float)
        if self.kind == "exp_c":
            z = self.param - 1j * np.pi * freqs
            small = np.abs(z) < 1e-8
            safe = np.where(small, 1.0, z)
            out = np.sqrt(2.0) * np.sinh(safe) / safe
            # sinh(z)/z -> 1 + z^2/6 near zero
            return np.where(small, np.sqrt(2.0) * (1.0 + z**2 / 6.0), out)
        c = self.legendre_coef(self.k_cut)
        return legendre_fourier_table(self.k_cut + 1, freqs) @ c

    @property
    def k_cut(self) -> int:
        """Legendre degree cutoff of the pole target, leaving a truncation
        tail below ~1e-15."""
        return int(math.ceil(40.0 / math.log(self.rho))) + 30

    def legendre_coef(self, k_max: int) -> np.ndarray:
        """Coefficients <f, w_{k+1}> for degrees 0..k_max, by quadrature."""
        return adaptive_quadrature(
            lambda x: self.value(x)[None, :] * legendre_table(k_max, x)
        ).astype(complex)


# The largest |c| whose ||exp(c x)||^2 = sinh(2c)/c is a finite double; the
# largest pole target degree cutoff, which puts the pole at a >= 1.00585; and
# the farthest pole, whose ||f||^2 = 2/(a^2 - 1) stays a normal double.
EXP_C_MAX = math.asinh(sys.float_info.max) / 2.0
POLE_K_CUT_MAX = 400
POLE_A_MAX = 1e150


def exp_target(c: float) -> AnalyticTarget:
    """Entire target exp(c*x) for |c| <= EXP_C_MAX (about 355.24); Bernstein
    parameter is infinite."""
    c = float(c)
    if not abs(c) <= EXP_C_MAX:
        raise InputValidationError(
            f"exp_c needs |c| <= {EXP_C_MAX!r}, where ||f||^2 = sinh(2c)/c is "
            f"a finite double; got c={c}"
        )
    return AnalyticTarget(kind="exp_c", param=c, rho=math.inf)


def pole_target(a: float) -> AnalyticTarget:
    """Target 1/(x - a) with a real pole at a > 1; rho = a + sqrt(a^2 - 1).
    The pole must lie at most POLE_A_MAX out and far enough from 1 that
    k_cut <= POLE_K_CUT_MAX."""
    a = float(a)
    if not 1.0 < a <= POLE_A_MAX:
        raise InputValidationError(
            f"pole location must satisfy a > 1 and a <= {POLE_A_MAX:g}, got {a}"
        )
    target = AnalyticTarget(kind="pole_a", param=a, rho=a + math.sqrt(a**2 - 1.0))
    if target.k_cut > POLE_K_CUT_MAX:
        raise InputValidationError(
            f"pole location a={a} needs Legendre degree {target.k_cut} "
            f"(> {POLE_K_CUT_MAX}) for a 1e-15 tail; a must be at least about 1.00585"
        )
    return target


# -- model builder ----------------------------------------------------------------

def column_defects(w_coef: np.ndarray) -> np.ndarray:
    """Truncation defect 1 - ||column||^2 of each reconstruction column."""
    return 1.0 - np.sum(np.abs(w_coef) ** 2, axis=0).real


def build_fl_model(
    n: int, J: int, ambient: int, max_defect: float = 1e-2
) -> FrameModel:
    """Fourier-Legendre frame model: sampling vectors are the first J ambient
    Fourier coordinates, reconstruction vectors the first n normalized
    Legendre polynomials expressed in ``ambient`` Fourier coordinates.

    The sampling system is stored as the column selection of ambient indices
    0..J-1, so memory and work stay O(ambient * n).

    Fails if any column loses more than ``max_defect`` of its unit mass to the
    ambient truncation; use :func:`column_defects` to inspect the loss.
    """
    if not 1 <= J <= ambient:
        raise InputValidationError(f"need 1 <= J <= ambient, got J={J}, ambient={ambient}")
    if n < 1:
        raise InputValidationError(f"n must be >= 1, got {n}")
    if not max_defect > 0:
        raise InputValidationError(f"max_defect must be > 0, got {max_defect}")
    w_coef = legendre_fourier_table(n, frequencies(ambient))
    defects = column_defects(w_coef)
    worst = float(defects.max())
    if worst > max_defect:
        raise TruncationError(
            f"ambient={ambient} leaves a column defect of {worst:.3e} "
            f"(> {max_defect:.1e}); increase ambient"
        )
    return _selection_model(np.arange(J), w_coef)
