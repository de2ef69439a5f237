"""Dense complex linear algebra kernel.

Everything here runs through one SVD backbone (``numpy.linalg.svd``) so that
operator norms, pseudo-inverses, projectors and least-squares solves all share
a single rank decision.  The norm of an exactly Hermitian matrix comes from
its eigenvalues (``numpy.linalg.eigvalsh``) instead, which decide no rank.
Matrices are plain ``numpy.ndarray`` with complex entries; all functions are
pure and never mutate their inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import InputValidationError

__all__ = [
    "default_rel_tol",
    "as_matrix",
    "operator_norm",
    "svd_with_rank",
    "pseudo_inverse",
    "pinv_from_svd",
    "minimal_norm_lsq",
    "hermitian_dilation",
    "projector_from_columns",
    "projector_from_svd",
    "range_distance",
]


def default_rel_tol(a: np.ndarray) -> float:
    """Relative singular-value cutoff used for rank decisions: 1e-10 * max(shape)."""
    return 1e-10 * max(a.shape)


def as_matrix(a, *, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-d complex array, validating shape and finiteness."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise InputValidationError(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    if m.size == 0:
        raise InputValidationError(f"{name} must be nonempty")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise InputValidationError(f"{name} contains non-finite entries")
    return m


def operator_norm(a) -> float:
    """Largest singular value of ``a`` (the spectral norm).  A square ``a``
    equal to its conjugate transpose, entry for entry, takes
    :func:`_hermitian_norm`; every other input the SVD."""
    m = as_matrix(a)
    if m.shape[0] == m.shape[1] and np.array_equal(m, m.conj().T):
        return _hermitian_norm(m)
    return float(np.linalg.svd(m, compute_uv=False)[0])


def _hermitian_norm(h: np.ndarray) -> float:
    """Spectral norm of a Hermitian matrix, max(|lambda_min|, |lambda_max|),
    from its eigenvalues; never negative, not even -0.0."""
    eigs = np.linalg.eigvalsh(h)
    return float(max(abs(eigs[0]), abs(eigs[-1])))


def svd_with_rank(m: np.ndarray):
    """Thin SVD ``(u, s, vh)`` of ``m`` and the shared rank decision r: the
    number of singular values above ``default_rel_tol(m) * sigma_max``, 0 for
    the zero matrix."""
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    if s[0] == 0.0:
        r = 0
    else:
        r = int(np.count_nonzero(s > default_rel_tol(m) * s[0]))
    return u, s, vh, r


def pseudo_inverse(a) -> np.ndarray:
    """Moore-Penrose pseudo-inverse through the shared rank decision.  An
    all-zero matrix maps to the zero matrix of transposed shape (rank 0)."""
    return pinv_from_svd(*svd_with_rank(as_matrix(a)))


def pinv_from_svd(u: np.ndarray, s: np.ndarray, vh: np.ndarray, r: int) -> np.ndarray:
    """Pseudo-inverse from the output of :func:`svd_with_rank` (the zero
    matrix of transposed shape when r = 0)."""
    return (vh[:r].conj().T / s[:r]) @ u[:, :r].conj().T


def minimal_norm_lsq(design, rhs) -> np.ndarray:
    """Minimal Euclidean-norm solution of min_x ||design @ x - rhs||.

    Computed as ``pinv(design) @ rhs`` through the shared SVD rank decision,
    which covers both full-rank and rank-deficient designs.
    """
    m = as_matrix(design, name="design")
    b = np.asarray(rhs, dtype=complex)
    if b.ndim != 1:
        raise InputValidationError(f"rhs must be one-dimensional, got shape {b.shape}")
    if b.shape[0] != m.shape[0]:
        raise InputValidationError(
            f"rhs length {b.shape[0]} does not match design rows {m.shape[0]}"
        )
    if not np.all(np.isfinite(b.real)) or not np.all(np.isfinite(b.imag)):
        raise InputValidationError("rhs contains non-finite entries")
    return _lsq_from_svd(*svd_with_rank(m), b)


def _lsq_from_svd(u: np.ndarray, s: np.ndarray, vh: np.ndarray, r: int,
                  b: np.ndarray) -> np.ndarray:
    """Minimal-norm least-squares solution for right-hand side ``b`` from the
    output of :func:`svd_with_rank` (the zero vector when r = 0)."""
    if r == 0:
        return np.zeros(vh.shape[1], dtype=complex)
    return vh[:r].conj().T @ ((u[:, :r].conj().T @ b) / s[:r])


def hermitian_dilation(t) -> np.ndarray:
    """Self-adjoint block matrix [[0, T^H], [T, 0]] of a d2 x d1 matrix T.

    Realizes (x, y) -> (T^H y, T x) on the direct sum of the two spaces; its
    operator norm equals that of T.
    """
    m = as_matrix(t)
    d2, d1 = m.shape
    out = np.zeros((d1 + d2, d1 + d2), dtype=complex)
    out[:d1, d1:] = m.conj().T
    out[d1:, :d1] = m
    return out


def projector_from_columns(cols) -> np.ndarray:
    """Orthogonal projector onto the column span of ``cols``.

    Rank-revealing through the shared SVD threshold, so duplicated or nearly
    dependent columns do not inflate the range.
    """
    m = as_matrix(cols, name="cols")
    u, _, _, r = svd_with_rank(m)
    return projector_from_svd(u, r)


def projector_from_svd(u: np.ndarray, r: int) -> np.ndarray:
    """Orthogonal projector onto the span of the first r left singular
    vectors ``u`` of :func:`svd_with_rank` (the zero matrix when r = 0)."""
    q = u[:, :r]
    return q @ q.conj().T


def _validate_projector(p: np.ndarray, name: str) -> None:
    scale = max(1.0, operator_norm(p))
    if operator_norm(p - p.conj().T) > 1e-8 * scale:
        raise InputValidationError(f"{name} is not self-adjoint within 1e-8")
    if operator_norm(p @ p - p) > 1e-8 * scale:
        raise InputValidationError(f"{name} is not idempotent within 1e-8")


def range_distance(p, q) -> float:
    """Operator norm ||P - Q|| between two orthogonal projectors.

    Equals max{||P Q_perp||, ||Q P_perp||}; a value below a caller-chosen
    threshold certifies equal ranges.
    """
    pm = as_matrix(p, name="p")
    qm = as_matrix(q, name="q")
    if pm.shape != qm.shape or pm.shape[0] != pm.shape[1]:
        raise InputValidationError("projectors must be square and of equal dimension")
    _validate_projector(pm, "p")
    _validate_projector(qm, "q")
    return operator_norm(pm - qm)
