import numpy as np
import pytest

from stochsamp.errors import InputValidationError
from stochsamp.linalg import (
    hermitian_dilation,
    minimal_norm_lsq,
    operator_norm,
    projector_from_columns,
    pseudo_inverse,
    range_distance,
    svd_with_rank,
)


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(3)) == pytest.approx(1.0)

    def test_zero(self):
        assert operator_norm(np.zeros((2, 5))) == 0.0

    def test_nilpotent(self):
        # singular values of [[0,2],[0,0]] are {2, 0}
        assert operator_norm([[0, 2], [0, 0]]) == pytest.approx(2.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(InputValidationError):
            operator_norm([[np.nan, 0], [0, 1]])

    def test_rejects_empty(self):
        with pytest.raises(InputValidationError):
            operator_norm(np.zeros((0, 3)))


def hermitian(rng, kind, size):
    """An exactly Hermitian matrix: (h + h^H) / 2 is, in floating point."""
    a = random_complex(rng, size, size)
    if kind == "psd":
        h = a @ a.conj().T
    elif kind == "indefinite":
        h = a + a.conj().T
    elif kind == "real":
        h = a.real + a.real.T
    else:
        h = np.zeros((size, size), dtype=complex)
    return (h + h.conj().T) / 2.0


def counting_svd(monkeypatch):
    """Patch np.linalg.svd to record its calls; returns the call list."""
    svd, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    return calls


class TestOperatorNormHermitianPath:
    @pytest.mark.parametrize("kind", ["psd", "indefinite", "real", "zero"])
    @pytest.mark.parametrize("size", [1, 2, 7, 40])
    def test_agrees_with_the_svd_and_takes_none(self, kind, size, monkeypatch):
        h = hermitian(np.random.default_rng(size), kind, size)
        want = float(np.linalg.svd(h, compute_uv=False)[0])
        calls = counting_svd(monkeypatch)
        got = operator_norm(h)
        assert not calls
        assert abs(got - want) <= 1e-14 * want
        assert got >= 0.0 and np.copysign(1.0, got) == 1.0

    @pytest.mark.parametrize("value", [3.0, -2.5, 0.0, -0.0])
    def test_one_by_one(self, value):
        assert operator_norm([[value]]) == abs(value)

    @pytest.mark.parametrize("a", [
        np.array([[1j]]),                       # 1 x 1, not self-adjoint
        np.array([[0.0, 2.0], [0.0, 0.0]]),     # nilpotent
        np.array([[1.0, 2.0], [2.0 + 1e-16j, 1.0]]),
        np.arange(6.0).reshape(2, 3),           # rectangular
        np.arange(6.0).reshape(3, 2) * 1j,
    ])
    def test_other_inputs_take_the_svd(self, a, monkeypatch):
        want = float(np.linalg.svd(a, compute_uv=False)[0])
        calls = counting_svd(monkeypatch)
        assert operator_norm(a) == want
        assert len(calls) == 1


class TestPseudoInverse:
    def test_identity(self):
        assert np.allclose(pseudo_inverse(np.eye(4)), np.eye(4))

    def test_diagonal_with_zero(self):
        out = pseudo_inverse(np.diag([2.0, 0.0]))
        assert np.allclose(out, np.diag([0.5, 0.0]))

    def test_zero_matrix_transposed_shape(self):
        out = pseudo_inverse(np.zeros((3, 5)))
        assert out.shape == (5, 3)
        assert np.all(out == 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_moore_penrose_identities(self, seed):
        rng = np.random.default_rng(seed)
        a = random_complex(rng, 6, 4)
        if seed % 2:
            a[:, 3] = a[:, 0]  # force rank deficiency
        ap = pseudo_inverse(a)
        scale = operator_norm(a)
        assert operator_norm(a @ ap @ a - a) <= 1e-9 * scale
        assert operator_norm(ap @ a @ ap - ap) <= 1e-9 * operator_norm(ap)
        assert operator_norm(a @ ap - (a @ ap).conj().T) <= 1e-9
        assert operator_norm(ap @ a - (ap @ a).conj().T) <= 1e-9

    def test_duplicated_column_mp_identities(self):
        a = np.array([[1.0, 1.0], [0.0, 0.0]])
        ap = pseudo_inverse(a)
        assert np.allclose(a @ ap @ a, a, atol=1e-12)
        assert np.allclose(ap @ a @ ap, ap, atol=1e-12)


class TestMinimalNormLsq:
    def test_identity_design(self):
        x = minimal_norm_lsq(np.eye(2), [1.0, 2.0j])
        assert np.allclose(x, [1.0, 2.0j])

    def test_overdetermined(self):
        # normal equation: x = (1+1)^-1 (0+2) = 1
        x = minimal_norm_lsq([[1.0], [1.0]], [0.0, 2.0])
        assert x.shape == (1,)
        assert x[0] == pytest.approx(1.0)

    def test_rank_deficient_minimal_norm(self):
        # minimizers of |x1+x2-2| form a line; (1,1) has minimal norm
        x = minimal_norm_lsq([[1.0, 1.0]], [2.0])
        assert np.allclose(x, [1.0, 1.0])

    def test_shape_mismatch(self):
        with pytest.raises(InputValidationError):
            minimal_norm_lsq(np.eye(3), [1.0, 2.0])

    @pytest.mark.parametrize("seed", range(3))
    def test_residual_optimality_and_norm_minimality(self, seed):
        rng = np.random.default_rng(100 + seed)
        a = random_complex(rng, 8, 5)
        a[:, 4] = a[:, 1]  # rank-deficient design
        b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        x = minimal_norm_lsq(a, b)
        res = np.linalg.norm(a @ x - b)
        for _ in range(100):
            alt = x + 0.5 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
            assert res <= np.linalg.norm(a @ alt - b) + 1e-12
        # any competitor matching the residual must be at least as long
        null = np.zeros(5, dtype=complex)
        null[1], null[4] = 1.0, -1.0
        competitor = x + 0.3 * null
        assert np.linalg.norm(a @ competitor - b) == pytest.approx(res)
        assert np.linalg.norm(x) <= np.linalg.norm(competitor) + 1e-12


class TestHermitianDilation:
    def test_one_by_one(self):
        assert np.allclose(hermitian_dilation([[1.0]]), [[0, 1], [1, 0]])

    def test_zero_block(self):
        out = hermitian_dilation(np.zeros((2, 3)))
        assert out.shape == (5, 5)
        assert np.all(out == 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_self_adjoint_and_norm_preserving(self, seed):
        rng = np.random.default_rng(seed)
        t = random_complex(rng, 3, 2)
        h = hermitian_dilation(t)
        assert np.array_equal(h, h.conj().T)
        assert abs(operator_norm(h) - operator_norm(t)) <= 1e-12


class TestProjector:
    def test_single_unit_column(self):
        p = projector_from_columns([[1.0], [0.0], [0.0]])
        assert np.allclose(p, np.diag([1.0, 0.0, 0.0]))

    def test_full_rank_square(self):
        rng = np.random.default_rng(0)
        a = random_complex(rng, 4, 4)
        assert np.allclose(projector_from_columns(a), np.eye(4), atol=1e-10)

    def test_duplicated_column_same_span(self):
        rng = np.random.default_rng(1)
        v = random_complex(rng, 5, 1)
        p1 = projector_from_columns(v)
        p2 = projector_from_columns(np.hstack([v, v]))
        assert np.allclose(p1, p2, atol=1e-10)

    def test_zero_columns(self):
        p = projector_from_columns(np.zeros((4, 2)))
        assert np.all(p == 0)


class TestOneRankRule:
    @pytest.mark.parametrize("fn,args", [
        (svd_with_rank, (np.eye(2),)),
        (pseudo_inverse, (np.eye(2),)),
        (minimal_norm_lsq, (np.eye(2), np.ones(2))),
        (projector_from_columns, (np.eye(2),)),
    ])
    def test_takes_no_tolerance(self, fn, args):
        with pytest.raises(TypeError, match="rel_tol"):
            fn(*args, rel_tol=1e-12)

    @pytest.mark.parametrize("scale,rank", [(1.01, 2), (0.99, 1)])
    def test_rank_is_counted_above_default_rel_tol(self, scale, rank):
        # default_rel_tol of a 3 x 3 matrix is 3e-10, relative to sigma_max.
        m = np.diag([2.0, 2.0 * 3e-10 * scale, 0.0])
        assert svd_with_rank(m)[3] == rank
        assert np.trace(projector_from_columns(m)).real == pytest.approx(rank)
        assert np.count_nonzero(np.abs(pseudo_inverse(m)) > 0.0) == rank


class TestRangeDistance:
    def test_equal_projectors(self):
        p = projector_from_columns([[1.0], [1.0]])
        assert range_distance(p, p) == 0.0

    def test_orthogonal_ranges(self):
        assert range_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(1.0)

    def test_principal_angle(self):
        th = np.pi / 6
        q = projector_from_columns([[np.cos(th)], [np.sin(th)]])
        p = np.diag([1.0, 0.0])
        assert range_distance(p, q) == pytest.approx(np.sin(th))

    def test_rejects_non_projector(self):
        with pytest.raises(InputValidationError):
            range_distance(np.diag([1.0, 0.0]), np.diag([2.0, 0.0]))

    @pytest.mark.parametrize("seed", range(5))
    def test_difference_identity(self, seed):
        # ||P - Q|| = max(||P(I-Q)||, ||Q(I-P)||)
        rng = np.random.default_rng(seed)
        p = projector_from_columns(random_complex(rng, 6, 2))
        q = projector_from_columns(random_complex(rng, 6, 3))
        lhs = range_distance(p, q)
        eye = np.eye(6)
        rhs = max(operator_norm(p @ (eye - q)), operator_norm(q @ (eye - p)))
        assert abs(lhs - rhs) <= 1e-10


class TestRankProperties:
    @pytest.mark.parametrize("seed", range(4))
    def test_rank_lower_semicontinuity(self, seed):
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(random_complex(rng, 5, 5))[0]
        eigs = np.array([3.0, 2.0, 1.0, 0.0, 0.0])
        a = q @ np.diag(eigs) @ q.conj().T
        pert = random_complex(rng, 5, 5)
        pert = (pert + pert.conj().T) / 2
        pert *= 0.3 / operator_norm(pert)  # perturbation below lambda_r = 1
        b = a + pert
        # threshold derived from lambda_r: count singular values above lambda_r/2
        s = np.linalg.svd(b, compute_uv=False)
        assert np.count_nonzero(s > 0.5) >= 3

    @pytest.mark.parametrize("seed", range(4))
    def test_inverse_perturbation(self, seed):
        rng = np.random.default_rng(50 + seed)
        a = random_complex(rng, 4, 4) + 4 * np.eye(4)
        a_inv_norm = operator_norm(np.linalg.inv(a))
        gap = 0.5 / a_inv_norm
        pert = random_complex(rng, 4, 4)
        pert *= gap / operator_norm(pert) * 0.9
        b = a + pert
        assert svd_with_rank(b)[3] == 4
        bound = 1.0 / (1.0 / a_inv_norm - operator_norm(pert)) + 1e-9
        assert operator_norm(np.linalg.inv(b)) <= bound
