"""A 40-digit oracle for the per-trial numbers of one draw.

From a draw's float64 inputs, taken as exact: the first n reconstruction
columns W_n, the sampling vectors S (dense, or a selection's rows), the
sampling distribution p, the drawn indices and the target f, it computes with
mpmath, independently of the program's formulas and factorizations:

- ``err_l2`` = ||f - W_n x||, x = G_hat^{-1} (1/m) sum_t v_{i_t} <f, s_{i_t}> /
  p_{i_t}, the normal equations of the weighted least-squares solve;
- ``tail_err`` = ||f - P f||, P = W_n (W_n^H W_n)^{-1} W_n^H;
- ``gram_dev`` = ||G_hat - Sigma||, from the eigenvalues of the difference;
- ``cross_dev`` = ||C_hat - C||, with C = sum_j v_j u_j^H, u_j = (I - P) s_j;
- ``k_factor`` = ||W_n G_hat^{-1} C_hat||, as ||L^H G_hat^{-1} C_hat|| with
  L L^H = W_n^H W_n;
- ``gram_condition`` = kappa(G_hat) = lambda_max / lambda_min;

and two scales the tolerances of a comparison need: ``gram_scale`` =
||G_hat|| + ||Sigma|| and ``cross_scale`` = ||C_hat||_F + ||C||_F.

:func:`pole_legendre_coef` gives the pole target's Legendre coefficients
<f, w_{k+1}>, f(x) = 1/(x - a), in closed form: Heine's formula 1/(a - x) =
sum_k (2k+1) P_k(x) Q_k(a) and w_{k+1} = sqrt((2k+1)/2) P_k give
-sqrt(2(2k+1)) Q_k(a), with Q_k the Legendre function of the second kind.

Here v_j = W_n^H s_j, Sigma = sum_j v_j v_j^H and G_hat = (1/m) sum_t
v_{i_t} v_{i_t}^H / p_{i_t}.  Only full-rank draws (G_hat invertible) and
full-rank W_n are covered.  Everything is O(n N J) work at 40 digits, so the
frames must be small: N and J of a few dozen take well under a second.
"""

from __future__ import annotations

import mpmath
import numpy as np

DPS = 40


def _matrix(a) -> mpmath.matrix:
    """An mpmath matrix holding the float64 entries of ``a`` exactly."""
    a = np.asarray(a, dtype=complex)
    if a.ndim == 1:
        a = a[:, None]
    return mpmath.matrix([[mpmath.mpc(float(z.real), float(z.imag)) for z in row] for row in a])


def _hermitian_eigs(h: mpmath.matrix) -> list:
    """Eigenvalues of a matrix Hermitian up to the working precision,
    symmetrized first, ascending."""
    return sorted(mpmath.re(e) for e in mpmath.eighe((h + h.H) / 2, eigvals_only=True))


def _norm(x: mpmath.matrix):
    """Frobenius norm, the 2-norm of a vector."""
    return mpmath.mnorm(x, "f")


def oracle(w_n, s, p, indices, f) -> dict:
    """The 40-digit values of one draw, as floats (see the module docstring).

    ``s`` is the N x J sampling matrix; for a selection, pass its dense
    0/1 matrix."""
    with mpmath.workdps(DPS):
        w = _matrix(w_n)
        sm = _matrix(s)
        fm = _matrix(f)
        n, m = w.cols, len(indices)
        sel, counts = np.unique(np.asarray(indices), return_counts=True)
        weights = {int(j): mpmath.mpf(int(c)) / (m * mpmath.mpf(float(p[j])))
                   for j, c in zip(sel, counts)}

        gw = w.H * w
        gw_inv = mpmath.inverse(gw)
        v = w.H * sm  # n x J, column j = v_j
        sh = sm.H  # J x N, row j = s_j^H
        shf = sh * fm
        vw = mpmath.matrix(n, sm.cols)  # column j = w_j v_j on the drawn set
        for j, wt in weights.items():
            for k in range(n):
                vw[k, j] = wt * v[k, j]

        sigma = v * v.H
        g_hat = vw * v.H
        project = gw_inv * w.H  # (W^H W)^{-1} W^H, n x N
        # C = sum_j v_j s_j^H (I - P) = V S^H - (V S^H W) (W^H W)^{-1} W^H.
        vs = v * sh
        c = vs - (vs * w) * project
        vs_hat = vw * sh
        c_hat = vs_hat - (vs_hat * w) * project

        g_eigs = _hermitian_eigs(g_hat)
        d_eigs = _hermitian_eigs(g_hat - sigma)
        diff = c_hat - c
        cross = _hermitian_eigs(diff * diff.H)[-1]
        g_inv = mpmath.inverse(g_hat)
        a = mpmath.cholesky(gw).H * (g_inv * c_hat)
        k2 = _hermitian_eigs(a * a.H)[-1]
        x = g_inv * (vw * shf)
        return {
            "err_l2": float(_norm(fm - w * x)),
            "tail_err": float(_norm(fm - w * (project * fm))),
            "gram_dev": float(max(abs(d_eigs[0]), abs(d_eigs[-1]))),
            "cross_dev": float(mpmath.sqrt(max(cross, 0))),
            "k_factor": float(mpmath.sqrt(max(k2, 0))),
            "gram_condition": float(g_eigs[-1] / g_eigs[0]),
            "gram_scale": float(g_eigs[-1] + _hermitian_eigs(sigma)[-1]),
            "cross_scale": float(_norm(c_hat) + _norm(c)),
        }


def model_oracle(model, prof, draw, f) -> dict:
    """:func:`oracle` on the inputs of ``draw`` under ``model`` and ``prof``."""
    return oracle(model.w_coef[:, :prof.n], model.s_coef, prof.p, draw.indices, f)


def pole_legendre_coef(a: float, k_max: int) -> np.ndarray:
    """<f, w_{k+1}> = -sqrt(2(2k+1)) Q_k(a) for f(x) = 1/(x - a), a > 1,
    degrees 0..k_max, at 40 digits; Q_k(a) from ``mpmath.legenq`` (type 3,
    the branch off [-1, 1]).  A float64 array."""
    with mpmath.workdps(DPS):
        x = mpmath.mpf(a)
        return np.array([float(-mpmath.sqrt(2 * (2 * k + 1))
                               * mpmath.re(mpmath.legenq(k, 0, x, type=3)))
                         for k in range(k_max + 1)])
