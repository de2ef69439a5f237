"""Stochastic generalized-sampling engine.

A :class:`FrameModel` holds truncated coordinates of a sampling frame and a
reconstruction system in an ambient orthonormal basis.  From it one builds a
:class:`LeverageProfile` (interaction vectors, Gram section, sampling
distribution), draws index multisets, forms the empirical Gram and cross-term
estimators, and solves the weighted least-squares reconstruction.

All types are immutable after construction; random draws are deterministic
per seed, so parallel Monte Carlo should derive disjoint seeds per trial
(trial t uses ``base_seed + t``).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateModelError, InputValidationError, SupportViolationError
from .linalg import (
    _hermitian_norm,
    _lsq_from_svd,
    as_matrix,
    default_rel_tol,
    # Not called here: the benchmark's tracer self-test checks that the
    # name it wraps here is the one it wraps in cli.
    operator_norm,
    pinv_from_svd,
    projector_from_svd,
    svd_with_rank,
)

__all__ = [
    "SUPPORT_TOL",
    "FrameModel",
    "LeverageProfile",
    "SampleDraw",
    "CoherenceProfile",
    "ChristoffelProfile",
    "ReconstructionReport",
    "RangeStability",
    "build_frame_model",
    "build_selection_model",
    "leverage_profile",
    "coherence_profile",
    "cross_term_matrix",
    "cross_term_deviation",
    "gram_deviation",
    "draw_samples",
    "empirical_gram",
    "empirical_cross_term",
    "reconstruct",
    "reconstruction_error",
    "christoffel_profile",
    "range_stability_check",
]

# ||v_j|| below this counts as a structural zero (support of the interaction
# sequence in floating point).
SUPPORT_TOL = 1e-12

# c u, the rounding slack per unit ||f|| of reconstruct's bound check: u the
# unit round-off of float64, c = 1e3 (see reconstruct).
_BOUND_ROUNDING = 1e3 * np.finfo(float).eps / 2


def _frozen(a: np.ndarray) -> np.ndarray:
    """Mark ``a`` read-only in place; callers pass arrays they own."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FrameModel:
    """Truncated coordinates of the sampling and reconstruction systems.

    The sampling system comes in one of two forms: ``s_matrix``, a dense
    N_amb x J matrix (column j = sampling vector s_j in the ambient
    orthonormal basis), or ``s_rows``, J distinct ambient indices with
    s_j = e_{s_rows[j]} (a column selection, stored in O(J)).  ``w_coef`` is
    N_amb x K (column k = reconstruction vector w_k).  ``declared_bounds``
    optionally carries the frame/Riesz bounds (A, B, C, D).

    Everything else is derived on first read and takes no part in equality
    or serialization: the orthonormality test and ||S||^2, both from one
    J x J Gram S^H S of a dense S, and a memo that holds one record per n
    (see :class:`_PerN`): the interaction vectors, one SVD of the first n
    reconstruction columns and what the estimators derive from it, each
    built on first use; for a dense ``s_matrix`` that includes the residual
    adjoint, one J x N_amb array the size of S.  For the last
    target the memo holds one record (see :class:`_PerTarget`): its
    finiteness, ||f||, the J-vector S^H f and the tail ||f - QQ^H f|| per n.
    """

    w_coef: np.ndarray
    declared_bounds: tuple[float, float, float, float] | None
    s_matrix: np.ndarray | None = None
    s_rows: np.ndarray | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def s_coef(self) -> np.ndarray:
        """Dense read-only N_amb x J sampling matrix (materialized on each
        access for a selection)."""
        if self.s_matrix is not None:
            return self.s_matrix
        s = np.zeros((self.ambient_dim, self.num_sampling), dtype=complex)
        s[self.s_rows, np.arange(self.num_sampling)] = 1.0
        return _frozen(s)

    @property
    def ambient_dim(self) -> int:
        return self.w_coef.shape[0]

    @property
    def num_sampling(self) -> int:
        if self.s_rows is not None:
            return self.s_rows.shape[0]
        return self.s_matrix.shape[1]

    @property
    def num_reconstruction(self) -> int:
        return self.w_coef.shape[1]

    @cached_property
    def reconstruction_is_riesz(self) -> bool:
        """Whether the reconstruction columns have full column rank, from one
        SVD of ``w_coef`` taken on first read."""
        sv_w = np.linalg.svd(self.w_coef, compute_uv=False)
        return bool(sv_w[0] > 0 and sv_w[-1] > default_rel_tol(self.w_coef) * sv_w[0])

    @cached_property
    def _sampling_gram(self) -> tuple[bool, float]:
        """(sampling_is_orthonormal, _s_norm2) from one J x J Gram S^H S of a
        dense S, formed on first read of either.  Both are kept: a frame with
        lambda_max(S^H S) = 1 need not be orthonormal."""
        if self.s_rows is not None:
            return True, 1.0
        s = self.s_matrix
        gram = s.conj().T @ s
        diag = gram.diagonal().copy()
        gram.flat[:: s.shape[1] + 1] -= 1.0
        if np.linalg.norm(gram) <= 1e-8:
            return True, 1.0
        np.fill_diagonal(gram, diag)
        return False, float(np.linalg.eigvalsh(gram)[-1])

    @property
    def sampling_is_orthonormal(self) -> bool:
        """True for a column selection; for a dense S, whether
        ||S^H S - I||_F <= 1e-8.  Frobenius dominates the spectral norm, so
        this is a conservative test."""
        return self._sampling_gram[0]

    @property
    def _s_norm2(self) -> float:
        """||S||^2: 1 for orthonormal sampling vectors, a selection
        included, else lambda_max(S^H S)."""
        return self._sampling_gram[1]


@dataclass(frozen=True)
class LeverageProfile:
    """Interaction vectors, Gram section and sampling distribution at a fixed
    reconstruction dimension n.

    ``v`` is n x J with column j the interaction vector v_j; ``v_norm_sq``
    the J-vector of ||v_j||^2, whose sum is ``trace_sigma``; ``sigma`` is the
    n x n Gram section (sum of v_j v_j^H); ``p`` the sampling distribution
    over the J model indices.  One eigensolve of sigma gives ``lambda0``,
    the smallest retained eigenvalue, ``sigma_norm`` = ||sigma|| and
    ``rank``, the count of retained eigenvalues: those above
    default_rel_tol(sigma) times the largest.

    ``tail_mass`` is 1 - trace(sigma)/n.  When the first n reconstruction
    columns are unit-norm and the sampling vectors orthonormal, it is the
    share of their energy that the J sampling vectors miss (for
    Fourier-Legendre, the leverage mass beyond the J retained frequencies).
    For columns that are not unit-norm it is only that formula: it measures
    how far trace(sigma) is from n and can be negative.

    The digest, the sampling CDF and one SVD of sigma, for its singular
    vectors, are computed on first read; they take no part in equality.
    """

    n: int
    v: np.ndarray
    sigma: np.ndarray
    v_norm_sq: np.ndarray
    trace_sigma: float
    p: np.ndarray
    tail_mass: float
    lambda0: float
    sigma_norm: float
    rank: int

    @property
    def num_indices(self) -> int:
        return self.p.shape[0]

    @cached_property
    def distribution_id(self) -> str:
        p = np.ascontiguousarray(self.p, dtype=np.float64)
        return hashlib.sha256(p.tobytes()).hexdigest()[:16]

    @cached_property
    def _cdf(self) -> tuple[np.ndarray, int]:
        """cumsum(p) and the last supported index, which absorbs cumulative
        rounding past the end."""
        return _frozen(np.cumsum(self.p)), int(np.flatnonzero(self.p > 0)[-1])

    @cached_property
    def _sigma_svd(self):
        """(u, s, vh), the thin SVD of sigma, shared by the range check and
        the Christoffel values; its rank is ``rank``."""
        return np.linalg.svd(self.sigma, full_matrices=False)


@dataclass(frozen=True)
class SampleDraw:
    """A multiset of drawn indices (0-based into the model columns) plus the
    seed and distribution digest that produced it.

    The sample count m is the number of indices.  The per-draw estimator
    quantities (see :func:`_draw_kernel`) are memoized on the draw; the memo
    takes no part in equality.
    """

    indices: np.ndarray
    seed: int
    distribution_id: str
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def m(self) -> int:
        return self.indices.size


@dataclass(frozen=True)
class CoherenceProfile:
    """Scalar coherence and spectral quantities feeding the sample-size
    calculators: R = sup ||v_j||^2/p_j, R' the residual analogue, their max
    R'', T = ||(I - QQ^H) S||^2 (exactly 1 for orthonormal sampling vectors
    with J above the rank of W_n, see :func:`coherence_profile`), the
    limiting-operator scale K = max(||Sigma||, T), and
    Lambda = 1 + ||Sigma^+|| + ||C||."""

    R: float
    R_prime: float
    R_double: float
    T_norm: float
    K_scale: float
    Lambda: float
    sigma_norm: float
    sigma_inv_norm: float
    C_norm: float


@dataclass(frozen=True)
class ChristoffelProfile:
    """Discrete Christoffel values K_P(j) = <Sigma^+ v_j, v_j>, their
    weighted values K_P(j)/p_j, and kappa_w = sup over the support."""

    values: np.ndarray
    weighted: np.ndarray
    kappa_w: float


@dataclass(frozen=True)
class ReconstructionReport:
    """Outcome of one weighted least-squares reconstruction.  The weighted
    design and right-hand side of the solve are kept, outside equality and
    repr, so that ``residual_weighted`` is computed when first read."""

    x_tilde: np.ndarray
    f_tilde_coef: np.ndarray
    err_l2: float
    tail_err: float
    k_factor: float
    bound_ok: bool
    gram_condition: float | str
    used_pseudo_inverse: bool
    _system: tuple[np.ndarray, np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def residual_weighted(self) -> float:
        """||design x_tilde - rhs||, the weighted least-squares residual."""
        design, rhs = self._system
        return float(np.linalg.norm(design @ self.x_tilde - rhs))


@dataclass(frozen=True)
class RangeStability:
    equal: bool
    distance: float


# The outcomes that range_stability_check reads from the ranks alone.
_RANKS_DIFFER = RangeStability(equal=False, distance=1.0)
_BOTH_IDENTITY = RangeStability(equal=True, distance=0.0)


def _check_bounds(raw) -> tuple[float, float, float, float]:
    """(A, B, C, D) from four finite numbers or numeric strings with
    0 < A <= B and 0 < C <= D; anything else, a string too, is rejected
    naming declared_bounds."""
    try:
        if isinstance(raw, (str, bytes, dict)) or any(isinstance(x, bool) for x in raw):
            raise TypeError
        a, b, c, d = (float(x) for x in raw)
        valid = 0 < a <= b < math.inf and 0 < c <= d < math.inf
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise InputValidationError(
            "declared_bounds must be null or four finite numbers [A, B, C, D] "
            f"with 0 < A <= B and 0 < C <= D, got {raw!r:.80}"
        )
    return a, b, c, d


def build_frame_model(s_coef, w_coef, declared_bounds=None) -> FrameModel:
    """Assemble an immutable frame model from copies of the caller's
    arrays."""
    s = as_matrix(np.array(s_coef, dtype=complex), name="s_coef")
    w = as_matrix(np.array(w_coef, dtype=complex), name="w_coef")
    if s.shape[0] != w.shape[0]:
        raise InputValidationError(
            f"ambient row counts differ: s_coef has {s.shape[0]}, w_coef has {w.shape[0]}"
        )
    if declared_bounds is not None:
        declared_bounds = _check_bounds(declared_bounds)
    return FrameModel(w_coef=_frozen(w), declared_bounds=declared_bounds, s_matrix=_frozen(s))


def build_selection_model(rows, w_coef) -> FrameModel:
    """Frame model whose sampling vectors are ambient basis vectors,
    s_j = e_{rows[j]} (0-based, distinct), so they are orthonormal by
    construction and no dense sampling matrix is ever formed.  The model
    keeps a copy of the caller's w_coef."""
    return _selection_model(rows, np.array(w_coef, dtype=complex))


def _selection_model(rows, w_coef: np.ndarray) -> FrameModel:
    """:func:`build_selection_model` on a complex w_coef the caller hands
    over: it is checked and frozen, not copied, so the caller must not keep
    it."""
    w = as_matrix(w_coef, name="w_coef")
    r = np.asarray(rows)
    if r.ndim != 1 or r.size == 0 or not np.issubdtype(r.dtype, np.integer):
        raise InputValidationError("rows must be a nonempty 1-d integer sequence")
    srt = np.sort(r)
    if srt[0] < 0 or srt[-1] >= w.shape[0]:
        raise InputValidationError(f"rows must lie in [0, {w.shape[0] - 1}]")
    if np.any(srt[1:] == srt[:-1]):
        raise InputValidationError("rows must be distinct")
    return FrameModel(w_coef=_frozen(w), declared_bounds=None, s_rows=_frozen(r.astype(np.int64)))


def _sampling_adjoint(model: FrameModel, x: np.ndarray) -> np.ndarray:
    """S^H x for an ambient vector or matrix x (a gather for a selection)."""
    if model.s_rows is not None:
        return x[model.s_rows]
    return model.s_matrix.conj().T @ x


class _PerN:
    """What the estimators share at reconstruction dimension n, each part
    built on first use and read-only: the interaction vectors ``v`` (n x J),
    and from one rank-revealing SVD W_n = U_w diag(s) V^H of the first n
    reconstruction columns the orthonormal basis ``q`` = U_w[:, :rank] of
    W_n and ``sv`` = diag(s) V^H, with ||W_n y|| = ||sv y||.  Q^H is formed
    where it is read, ``q.conj().T``, not kept next to Q.
    Then the residual adjoint ``uh`` = U^H, U = (I - QQ^H) S (J x N_amb,
    dense S only), the cross-term limit ``c`` = sum_j v_j u_j^H (n x N_amb),
    ``cc`` = C C^H with ``cc_trace`` = ||C||_F^2, and ``b``, U^H C^H (J x n)
    for a dense S or (CQ)^H (rank Q x n) for a selection."""

    def __init__(self, model: FrameModel, n: int):
        self.model, self.n = model, n

    @cached_property
    def _svd(self):
        return svd_with_rank(self.model.w_coef[:, :self.n])

    @cached_property
    def q(self) -> np.ndarray:
        u, _, _, r = self._svd
        return _frozen(u[:, :r])

    @cached_property
    def sv(self) -> np.ndarray:
        _, s, vh, _ = self._svd
        return _frozen(s[:, None] * vh)

    @cached_property
    def v(self) -> np.ndarray:
        # v_j = iota_n^* U^* e_j with U = S^H w_coef; columns of the result.
        return _frozen(_sampling_adjoint(self.model, self.model.w_coef[:, :self.n]).conj().T)

    def residuals(self) -> np.ndarray:
        """(I - QQ^H) S, column j the residual u_j of s_j, N_amb x J."""
        s = self.model.s_coef
        return s - self.q @ (self.q.conj().T @ s)

    @cached_property
    def uh(self) -> np.ndarray:
        # C-contiguous, so a draw's residuals are a gather of rows.
        return _frozen(np.conjugate(self.residuals().T, order="C"))

    def cross(self, vw: np.ndarray, cols=None) -> np.ndarray:
        """sum_j vw_j u_j^H over the selected columns (all if None),
        n x N_amb.  For a dense S, vw times the selected rows of U^H.  For a
        selection u_j^H = e_{r_j}^T - Q[r_j, :] Q^H, so the sum is
        -(vw Q[rows, :]) Q^H plus a scatter-add of vw, with no N_amb x J
        array formed."""
        if self.model.s_rows is None:
            return vw @ (self.uh if cols is None else self.uh[cols])
        rows = self.model.s_rows if cols is None else self.model.s_rows[cols]
        out = -(vw @ self.q[rows]) @ self.q.conj().T
        out[:, rows] += vw
        return out

    @cached_property
    def c(self) -> np.ndarray:
        return _frozen(self.cross(self.v))

    @cached_property
    def cc(self) -> np.ndarray:
        return _frozen(self.c @ self.c.conj().T)

    @cached_property
    def cc_trace(self) -> float:
        return float(np.trace(self.cc).real)

    @cached_property
    def b(self) -> np.ndarray:
        if self.model.s_rows is None:
            return _frozen(self.uh @ self.c.conj().T)
        return _frozen(np.conjugate((self.c @ self.q).T, order="C"))


def _per_n(model: FrameModel, n: int) -> _PerN:
    """The per-n record of ``model``, memoized on it under the key n."""
    if n not in model._memo:
        model._memo[n] = _PerN(model, n)
    return model._memo[n]


def _drop_per_n(model: FrameModel, n: int) -> None:
    """Forget the per-n record of ``model`` at n, so that its arrays are
    freed once no profile holds them; a later read builds it again."""
    model._memo.pop(n, None)


def _per_n_of(model: FrameModel, prof: LeverageProfile) -> _PerN:
    """The per-n record of ``model`` at ``prof.n``.  The estimators read v
    and p from the profile and the rest from the record, so a profile whose v
    is neither the record's own nor equal to it is rejected."""
    rec = _per_n(model, prof.n)
    if prof.v is not rec.v and not np.array_equal(prof.v, rec.v):
        raise InputValidationError(f"the profile's interaction vectors at n = {prof.n} "
                                   "are not this model's: it is a profile of another model")
    return rec


def leverage_profile(model: FrameModel, n: int, p_spec="leverage") -> LeverageProfile:
    """Interaction vectors, Gram section and sampling distribution for the
    first n reconstruction vectors.

    ``p_spec`` is ``"leverage"`` (p_j proportional to ||v_j||^2),
    ``"uniform_on_support"``, or a custom nonnegative sequence (renormalized;
    must be positive wherever ||v_j|| exceeds the support tolerance).
    """
    if not 1 <= n <= model.num_reconstruction:
        raise InputValidationError(
            f"n must lie in [1, {model.num_reconstruction}], got {n}"
        )
    # Columns too large for float64 overflow here; that is rejected below,
    # before any division or eigensolve, with no warning.
    with np.errstate(over="ignore", invalid="ignore"):
        v = _per_n(model, n).v
        vn2 = np.sum(np.abs(v) ** 2, axis=0).real
        sigma = v @ v.conj().T
        sigma = (sigma + sigma.conj().T) / 2.0
        trace_sigma = float(np.sum(vn2))
    if not (math.isfinite(trace_sigma) and np.all(np.isfinite(sigma))):
        raise InputValidationError(
            f"w_coef is too large: the Gram section of its first {n} columns "
            "overflows float64 (sum of ||v_j||^2 is not finite)"
        )
    if trace_sigma <= 0.0:
        raise DegenerateModelError("Gram section has zero trace; no usable interactions")

    support = vn2 > SUPPORT_TOL**2
    if isinstance(p_spec, str):
        if p_spec == "leverage":
            p = vn2 / trace_sigma
        elif p_spec == "uniform_on_support":
            p = support.astype(float)
            p /= p.sum()
        else:
            raise InputValidationError(f"unknown p_spec {p_spec!r}")
    else:
        p = np.asarray(p_spec, dtype=float)
        if p.ndim != 1:
            raise InputValidationError(f"p_spec must be one-dimensional, got shape {p.shape}")
        if p.shape[0] != model.num_sampling:
            raise InputValidationError(
                f"custom p has length {p.shape[0]}, expected {model.num_sampling}"
            )
        if np.any(p < 0) or not np.all(np.isfinite(p)):
            raise InputValidationError("custom p must be nonnegative and finite")
        bad = support & (p == 0.0)
        if np.any(bad):
            raise SupportViolationError(
                f"custom p is zero at indices with nonzero interaction: {np.flatnonzero(bad)[:5]}"
            )
        with np.errstate(over="ignore"):
            total = p.sum()
        if not np.isfinite(total):
            # Finite weights whose sum overflows: scale by the largest first.
            # Only this case divides, so a p with a finite sum keeps its bits.
            p = p / p.max()
            total = p.sum()
        if total <= 0.0:
            raise InputValidationError("custom p sums to zero")
        p = p / total

    eigs = np.linalg.eigvalsh(sigma)
    retained = eigs[eigs > default_rel_tol(sigma) * eigs[-1]]
    lambda0 = float(retained[0]) if retained.size else 0.0
    if lambda0 <= 0.0:
        raise DegenerateModelError("Gram section is numerically zero")

    return LeverageProfile(
        n=n,
        v=v,
        sigma=_frozen(sigma),
        v_norm_sq=_frozen(vn2),
        trace_sigma=trace_sigma,
        p=_frozen(p),
        tail_mass=1.0 - trace_sigma / n,
        lambda0=lambda0,
        sigma_norm=float(max(abs(eigs[0]), abs(eigs[-1]))),
        rank=retained.size,
    )


def _per_weight(x: np.ndarray, p: np.ndarray, name: str) -> np.ndarray:
    """x_j / p_j on the support of p and 0 off it, for x >= 0.  A weight so
    small that a ratio overflows is rejected naming p_spec, with no overflow
    warning."""
    supp = p > 0.0
    out = np.zeros_like(x)
    with np.errstate(over="ignore"):
        out[supp] = x[supp] / p[supp]
    if not np.all(np.isfinite(out)):
        j = int(np.flatnonzero(~np.isfinite(out))[0])
        raise InputValidationError(
            f"p_spec gives index {j} the probability {float(p[j]):.4g}, so small "
            f"that {name}/p_j overflows"
        )
    return out


def coherence_profile(model: FrameModel, prof: LeverageProfile) -> CoherenceProfile:
    """Coherence parameters R, R', R'', the limiting scales K and Lambda, and
    the spectral norms of the Gram section and cross-term.

    T = ||(I - QQ^H) S||^2 with Q an orthonormal basis of W_n.  For
    orthonormal sampling vectors with J > rank Q, a selection or a dense S,
    T = 1 with no SVD: some unit y has Q^H S y = 0, so T >= ||S y||^2, and
    T <= ||S||^2.  For a dense S that passes the orthonormality test of
    :func:`build_frame_model` (||S^H S - I||_F <= 1e-8) both bounds are
    within ||S^H S - I|| of 1, so T = 1 differs from the computed
    sigma_max(U)^2 by at most that.  Every other case takes T from the SVD
    of the residual U = (I - QQ^H) S.
    """
    rec = _per_n_of(model, prof)
    wide = model.num_sampling > rec.q.shape[1]
    if model.s_rows is not None and wide:
        # ||u_j||^2 = 1 - ||Q[r_j, :]||^2, with no N_amb x J residual formed.
        un2 = np.maximum(1.0 - np.sum(np.abs(rec.q[model.s_rows]) ** 2, axis=1), 0.0)
    else:
        # Dense S: the rows of the memoized U^H.  A selection of at most
        # rank-Q columns: its residual, at most N_amb x n, formed here.
        u, axis = (rec.uh, 1) if model.s_rows is None else (rec.residuals(), 0)
        un2 = np.sum(np.abs(u) ** 2, axis=axis)
    if model.sampling_is_orthonormal and wide:
        t_norm = 1.0
    else:
        t_norm = float(np.linalg.svd(u, compute_uv=False)[0] ** 2)

    r_v = float(np.max(_per_weight(prof.v_norm_sq, prof.p, "||v_j||^2")))
    r_u = float(np.max(_per_weight(un2, prof.p, "||u_j||^2")))
    # ||C|| from the memoized n x n Gram C C^H the deviation reads too.
    c_norm = float(np.sqrt(_hermitian_norm(rec.cc)))
    sigma_inv_norm = 1.0 / prof.lambda0
    return CoherenceProfile(
        R=r_v,
        R_prime=r_u,
        R_double=max(r_v, r_u),
        T_norm=t_norm,
        K_scale=max(prof.sigma_norm, t_norm),
        Lambda=1.0 + sigma_inv_norm + c_norm,
        sigma_norm=prof.sigma_norm,
        sigma_inv_norm=sigma_inv_norm,
        C_norm=c_norm,
    )


def cross_term_matrix(model: FrameModel, prof: LeverageProfile) -> np.ndarray:
    """Limiting cross-term C = sum_j v_j u_j^H as a read-only n x N_amb
    matrix."""
    return _per_n_of(model, prof).c


def draw_samples(prof: LeverageProfile, m: int, seed: int) -> SampleDraw:
    """Draw m i.i.d. indices from the profile's distribution via inverse CDF.

    Deterministic for a fixed seed; repeated indices are kept as a multiset.
    """
    if m < 1:
        raise InputValidationError(f"m must be >= 1, got {m}")
    cdf, last = prof._cdf
    rng = np.random.default_rng(seed)
    u = rng.random(m)
    idx = np.minimum(np.searchsorted(cdf, u, side="right"), last)
    draw = SampleDraw(
        indices=_frozen(idx.astype(np.int64)),
        seed=int(seed),
        distribution_id=prof.distribution_id,
    )
    # Its read-only indices come from prof's CDF, so _check_draw passes it.
    draw._memo["checked"] = prof
    return draw


@dataclass(slots=True)
class _DrawKernel:
    """Per-draw quantities every estimator reads: the distinct drawn indices
    ``sel``, ``vw = v[:, sel] * count/(m p)``, and the empirical Gram with its
    one SVD (``u``, ``s``, ``vh``) and rank decision.  The drawn columns'
    residual Gram, which also depends on the model, is memoized next to it
    (see :func:`_residual_gram`).  Private and built once per draw, so not
    frozen: a frozen record costs a checked set per field."""

    sel: np.ndarray
    vw: np.ndarray
    gram: np.ndarray
    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray
    rank: int

    @property
    def full_rank(self) -> bool:
        return self.rank == self.gram.shape[0]


def _check_draw(prof: LeverageProfile, draw: SampleDraw) -> None:
    """Reject a draw from another distribution or with an index outside the
    profile's [0, J - 1].  A draw that :func:`draw_samples` made under
    ``prof`` itself is valid by construction and is not scanned."""
    if draw._memo.get("checked") is prof:
        return
    if draw.distribution_id != prof.distribution_id:
        raise InputValidationError("draw was produced under a different distribution")
    idx = draw.indices
    if idx.size == 0 or idx.min() < 0 or idx.max() >= prof.num_indices:
        raise InputValidationError(
            f"draw indices must be nonempty and lie in [0, {prof.num_indices - 1}]"
        )


def _distinct(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of a nonempty integer vector and their
    counts, as ``np.unique(idx, return_counts=True)`` gives them, from one
    sort: ``pos`` marks where each run of equal values starts, then the
    end."""
    srt = np.sort(idx)
    edge = np.empty(srt.size + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(srt[1:], srt[:-1], out=edge[1:-1])
    pos = np.flatnonzero(edge)
    return srt[pos[:-1]], pos[1:] - pos[:-1]


def _draw_kernel(prof: LeverageProfile, draw: SampleDraw) -> _DrawKernel:
    """The per-draw quantities of ``draw`` under ``prof``, computed once per
    (profile, draw) and memoized on the draw."""
    hit = draw._memo.get("kernel")
    if hit is not None and hit[0] is prof:
        return hit[1]
    _check_draw(prof, draw)
    sel, counts = _distinct(draw.indices)
    weights = counts / (draw.m * prof.p[sel])
    vs = prof.v[:, sel]
    vw = vs * weights
    g = vw @ vs.conj().T
    g = _frozen((g + g.conj().T) / 2.0)
    u, s, vh, rank = svd_with_rank(g)
    kern = _DrawKernel(sel=sel, vw=vw, gram=g, u=u, s=s, vh=vh, rank=rank)
    draw._memo["kernel"] = (prof, kern)
    return kern


def _residual_gram(model: FrameModel, prof: LeverageProfile, draw: SampleDraw):
    """(M, mu): the k x k Gram M = U_sel^H U_sel of the drawn columns'
    residuals U_sel = (I - QQ^H) S[:, sel] and a bound mu >= ||M||; memoized
    on the draw next to the kernel, for the same profile and model.

    For a selection M = I - Q_s Q_s^H with Q_s = Q[rows].  For a dense S,
    M = g g^H with g = U^H[sel].  mu = ||S||^2 >= ||(I - QQ^H) S_sel||^2 =
    ||M|| holds for every draw and n (see FrameModel._s_norm2).
    """
    hit = draw._memo.get("residual")
    if hit is not None and hit[0] is prof and hit[1] is model:
        return hit[2]
    sel = _draw_kernel(prof, draw).sel
    rec = _per_n(model, prof.n)
    if model.s_rows is None:
        g = rec.uh[sel]
        m = g @ g.conj().T
    else:
        qs = rec.q[model.s_rows[sel]]
        m = np.eye(sel.size) - qs @ qs.conj().T
    draw._memo["residual"] = (prof, model, (m, model._s_norm2))
    return draw._memo["residual"][2]


def empirical_gram(prof: LeverageProfile, draw: SampleDraw) -> np.ndarray:
    """Unbiased estimator (1/m) sum_t v_{i_t} v_{i_t}^H / p_{i_t} of the Gram
    section, as a read-only n x n matrix."""
    return _draw_kernel(prof, draw).gram


def empirical_cross_term(
    model: FrameModel, prof: LeverageProfile, draw: SampleDraw
) -> np.ndarray:
    """Unbiased estimator (1/m) sum_t v_{i_t} u_{i_t}^H / p_{i_t} of the
    cross-term, as a read-only n x N_amb matrix."""
    kern = _draw_kernel(prof, draw)
    return _frozen(_per_n_of(model, prof).cross(kern.vw, cols=kern.sel))


def _wide_norm(a: np.ndarray) -> float:
    """Spectral norm of an n x N matrix from the top eigenvalue of its n x n
    Gram a a^H; the Gram is of ``a`` itself, so nothing cancels."""
    return float(np.sqrt(_hermitian_norm(a @ a.conj().T)))


# rho_max of the n-space norms (see _n_space_norm).
_RHO_MAX = 1e2


def _n_space_norm(h: np.ndarray, scale: float, wide) -> float:
    """||Y|| from lambda_max of h, an n x n form equal to Y Y^H in exact
    arithmetic, or _wide_norm(wide()) when rounding may have spoiled h.

    ``scale`` bounds the sum of the norms of the terms of h: mu ||a||_F^2 for
    the K-factor, mu ||vw||_F^2 + 2 ||vw||_F ||P||_F + ||C||_F^2 for the
    deviation, with mu = ||S||^2 >= ||M|| (see :func:`_residual_gram`).
    Each term is a product of k x k and k x n factors whose rounding error
    is a modest multiple c u of its size (u the unit round-off); that of P, at most c u ||vw|| ||U_sel|| ||C|| inside X, is
    below c u (mu ||vw||^2 + ||C||^2) / 2.  So h is off by at most c u scale,
    which by Weyl's inequality bounds the move of lambda_max: its relative
    error is at most c u rho with rho = scale / lambda_max, the norm's half
    that.  Terms that cancel (sampling vectors close to W_n, C_hat close to
    C) make rho large.  Only lambda_max > 0 with rho <= rho_max = 1e2 takes
    the n-space value, whose relative error is then below 50 c u, about
    1e-13 for c = 20 (measured on near-W_n selections: at most rho u).
    Otherwise Y itself is formed, n x N_amb, and its own Gram, where nothing
    cancels, gives the norm.  The test multiplies instead of dividing, so
    lambda_max <= 0 raises no warning.
    """
    lam = np.linalg.eigvalsh(h)[-1]
    if lam > 0.0 and scale <= _RHO_MAX * lam:
        return float(np.sqrt(lam))
    return _wide_norm(wide())


def _k_factor(model: FrameModel, prof: LeverageProfile, draw: SampleDraw) -> float:
    """||W iota_n G_hat^+ C_hat|| = ||diag(s) V^H G_hat^+ C_hat|| with
    W_n = U_w diag(s) V^H the SVD of the n reconstruction columns, since U_w
    has orthonormal columns.  C_hat = vw U_sel^H, so with a = diag(s) V^H G_hat^+
    vw the K-factor squared is lambda_max(a M a^H), M = U_sel^H U_sel; the
    fallback forms a U_sel^H itself."""
    kern = _draw_kernel(prof, draw)
    rec = _per_n(model, prof.n)
    a = rec.sv @ pinv_from_svd(kern.u, kern.s, kern.vh, kern.rank) @ kern.vw
    m, mu = _residual_gram(model, prof, draw)
    return _n_space_norm(
        (a @ m) @ a.conj().T, mu * np.linalg.norm(a) ** 2,
        lambda: rec.cross(a, cols=kern.sel),
    )


def gram_deviation(prof: LeverageProfile, draw: SampleDraw) -> float:
    """||G_hat - Sigma||, which governs whether G_hat is invertible.  Both
    are symmetrized when formed, so the difference is exactly Hermitian and
    its norm is that of its extreme eigenvalues, as operator_norm takes it."""
    return _hermitian_norm(empirical_gram(prof, draw) - prof.sigma)


def cross_term_deviation(model: FrameModel, prof: LeverageProfile, draw: SampleDraw) -> float:
    """||C_hat - C||, the deviation of the empirical cross-term from its
    limit.  (C_hat - C)(C_hat - C)^H = vw M vw^H - X - X^H + C C^H with
    X = vw P, M the drawn columns' residual Gram (see :func:`_residual_gram`)
    and P = U_sel^H C^H, k x n: (U^H C^H)[sel] for a dense S, and
    C[:, rows]^H - Q_s (CQ)^H for a selection.  The fallback forms
    C_hat - C."""
    kern = _draw_kernel(prof, draw)
    rec = _per_n_of(model, prof)
    m, mu = _residual_gram(model, prof, draw)
    if model.s_rows is None:
        p = rec.b[kern.sel]
    else:
        rows = model.s_rows[kern.sel]
        p = rec.c[:, rows].conj().T - rec.q[rows] @ rec.b
    vw = kern.vw
    x = vw @ p
    vw_norm = np.linalg.norm(vw)

    def wide():
        diff = rec.cross(vw, cols=kern.sel)
        diff -= rec.c
        return diff

    return _n_space_norm(
        (vw @ m) @ vw.conj().T - x - x.conj().T + rec.cc,
        mu * vw_norm**2 + 2.0 * vw_norm * np.linalg.norm(p) + rec.cc_trace,
        wide,
    )


class _PerTarget:
    """What the estimators share for one target f, keyed on its bytes
    ``key``: whether f is finite, checked once, and, each built on first use
    and read-only, ``norm`` = ||f||, ``shf`` = S^H f (J-vector, a gather for
    a selection) and the tail ||f - QQ^H f|| per n.  Its f is a read-only
    view of the key, so a caller's array changed in place cannot reach it."""

    def __init__(self, model: FrameModel, key: bytes):
        self.model, self.key = model, key
        self.f = np.frombuffer(key, dtype=complex)
        self.finite = bool(np.all(np.isfinite(self.f)))
        self.tails = {}

    @cached_property
    def norm(self) -> float:
        return float(np.linalg.norm(self.f))

    @cached_property
    def shf(self) -> np.ndarray:
        return _frozen(_sampling_adjoint(self.model, self.f))

    def tail(self, n: int) -> float:
        """||f - Q Q^H f||, the best error from W_n."""
        if n not in self.tails:
            rec = _per_n(self.model, n)
            self.tails[n] = float(np.linalg.norm(self.f - rec.q @ (rec.q.conj().T @ self.f)))
        return self.tails[n]


def _target(model: FrameModel, f_coef) -> _PerTarget:
    """The record of ``f_coef`` as a complex ambient vector, memoized on the
    model under "target" with one entry, keyed on a copy of its bytes and
    replaced whenever they change, so a target changed in place is seen.  A
    shape other than (ambient dim,) or non-finite entries are rejected,
    naming them, on every call."""
    f = np.asarray(f_coef, dtype=complex)
    if f.ndim != 1:
        raise InputValidationError(f"f_coef must be one-dimensional, got shape {f.shape}")
    if f.shape[0] != model.ambient_dim:
        raise InputValidationError(
            f"f_coef has length {f.shape[0]}, expected ambient dim {model.ambient_dim}"
        )
    key = f.tobytes()
    tgt = model._memo.get("target")
    if tgt is None or tgt.key != key:
        tgt = model._memo["target"] = _PerTarget(model, key)
    if not tgt.finite:
        raise InputValidationError("f_coef contains non-finite entries")
    return tgt


def _solve(model: FrameModel, prof: LeverageProfile, draw: SampleDraw, tgt: _PerTarget):
    """The weighted design and right-hand side of ``draw``, the minimal-norm
    solution x, f_tilde = W_n x and ||f - f_tilde||.

    Row t of the design is (m p_{i_t})^{-1/2} v_{i_t}^H with matching weighted
    right-hand side; the minimal-norm solve covers both the invertible and the
    rank-deficient (pseudo-inverse) path.  Both are built from the profile's
    v and p and the target's checked f, so neither is scanned again.
    """
    idx = draw.indices
    wts = 1.0 / np.sqrt(draw.m * prof.p[idx])
    design = prof.v[:, idx].conj().T * wts[:, None]
    # S^H f once per target; the draw's samples are a gather of it.
    rhs = wts * tgt.shf[idx]
    x = _lsq_from_svd(*svd_with_rank(design), rhs)
    f_tilde = model.w_coef[:, : prof.n] @ x
    return design, rhs, x, f_tilde, float(np.linalg.norm(tgt.f - f_tilde))


def reconstruct(
    model: FrameModel, prof: LeverageProfile, draw: SampleDraw, f_coef
) -> ReconstructionReport:
    """Weighted least-squares reconstruction of ``f_coef`` from the drawn
    samples, with the error bound, the K-factor and the empirical Gram's rank
    decision (see :func:`_solve`).

    ``bound_ok`` tests err_l2 <= tail_err sqrt(1 + K^2) + c u ||f||, with u
    the unit round-off and c = 1e3.  The slack is for rounding only.  The
    vectors behind the three computed quantities are f, f - QQ^H f (||Q|| =
    1) and f - W_n x_tilde, whose size the bound itself limits to a few
    ||f||.  Their inner products and norms are sums of at most N_amb terms,
    whose rounding errors grow like sqrt(N_amb) u ||f|| in practice (N_amb u
    ||f|| is the worst case); the backward error of the solve, carried
    through a full-rank draw's G_hat^+, adds a modest multiple of u ||f||.
    For ambient sizes up to a few 10^4 (sqrt(N_amb) below 200), c = 1e3
    covers these, yet c u = 1.1e-13 lies far below the errors the bound
    governs (err_l2 near 3e-10 ||f|| for fl:n=10 with exp_c:1), so a real
    violation reads false.  Where tail_err itself is within a few c u ||f||
    of zero the check cannot fail: rounding then resolves nothing the bound
    could rule out.
    """
    _per_n_of(model, prof)
    tgt = _target(model, f_coef)
    kern = _draw_kernel(prof, draw)
    design, rhs, x, f_tilde, err_l2 = _solve(model, prof, draw, tgt)
    k_factor = _k_factor(model, prof, draw)
    tail_err = tgt.tail(prof.n)
    return ReconstructionReport(
        x_tilde=_frozen(x),
        f_tilde_coef=_frozen(f_tilde),
        err_l2=err_l2,
        tail_err=tail_err,
        k_factor=k_factor,
        bound_ok=bool(err_l2 <= tail_err * np.sqrt(1.0 + k_factor**2)
                      + _BOUND_ROUNDING * tgt.norm),
        gram_condition=float(kern.s[0] / kern.s[-1]) if kern.full_rank else "rank-deficient",
        used_pseudo_inverse=not kern.full_rank,
        _system=(_frozen(design), _frozen(rhs)),
    )


def reconstruction_error(
    model: FrameModel, prof: LeverageProfile, draw: SampleDraw, f_coef
) -> float:
    """||f - W_n x_tilde||, the ``err_l2`` of :func:`reconstruct` with the same
    checks and bits, from the solve alone: no per-draw kernel, K-factor, tail
    or weighted residual."""
    _per_n_of(model, prof)
    tgt = _target(model, f_coef)
    _check_draw(prof, draw)
    return _solve(model, prof, draw, tgt)[4]


def christoffel_profile(prof: LeverageProfile) -> ChristoffelProfile:
    """Christoffel values K_P(j) = <Sigma^+ v_j, v_j> for every index, their
    p-weighted values, and kappa_w = sup over the support."""
    sig_pinv = pinv_from_svd(*prof._sigma_svd, prof.rank)
    values = np.real(np.sum(prof.v.conj() * (sig_pinv @ prof.v), axis=0))
    values = np.clip(values, 0.0, None)
    weighted = _per_weight(values, prof.p, "K_P(j)")
    return ChristoffelProfile(
        values=_frozen(values), weighted=_frozen(weighted), kappa_w=float(np.max(weighted))
    )


def range_stability_check(prof: LeverageProfile, draw: SampleDraw) -> RangeStability:
    """Compare the ranges of the empirical and limiting Gram sections through
    their orthogonal projectors P_hat and P, of ranks r_hat and r.

    Orthogonal projectors of different ranks are at distance exactly 1, and
    two of rank n are both the identity, so those draws take no eigensolve.
    Only equal ranks below n form P_hat - P, whose norm comes from the
    extreme eigenvalues of the Hermitian difference.  The rank of sigma is
    the profile's; only that last case reads its SVD, for the projector.
    """
    kern = _draw_kernel(prof, draw)
    rank = prof.rank
    if kern.rank != rank:
        return _RANKS_DIFFER
    if rank == prof.n:
        return _BOTH_IDENTITY
    # Both projectors are exact by construction (the kernel's SVD and the
    # profile's), so the checks of linalg.range_distance, three SVDs per
    # projector, are not repeated for every draw.
    dist = _hermitian_norm(projector_from_svd(kern.u, rank)
                           - projector_from_svd(prof._sigma_svd[0], rank))
    return RangeStability(equal=bool(dist < 1e-6), distance=dist)
