import numpy as np
import pytest
import scipy.linalg

from rsmlqr.errors import (
    InvalidMatrixError,
    NotPSDError,
    NotSymmetricError,
    ShapeError,
)
from rsmlqr.matkit import (
    block_diag,
    definiteness,
    is_controllable,
    is_hurwitz,
    is_observable,
    psd_sqrt_factor,
    rank_svd,
    sym_eig,
)


def pbh_controllable(a, b):
    """Independent oracle: rank [lambda I - A, B] == n for every eigenvalue."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    n = a.shape[0]
    for lam in np.linalg.eigvals(a):
        pencil = np.hstack([lam * np.eye(n) - a, b.astype(complex)])
        if np.linalg.matrix_rank(pencil) < n:
            return False
    return True


class TestBlockDiag:
    def test_matches_scipy(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((3, 1))
        out = block_diag(a, b)
        np.testing.assert_array_equal(out, scipy.linalg.block_diag(a, b))
        assert out.shape == (5, 4)

    @pytest.mark.parametrize(
        "shape_a, shape_b", [((2, 0), (1, 3)), ((2, 2), (3, 0)), ((0, 2), (1, 1))]
    )
    def test_empty_blocks_add_only_their_nonzero_dimension(self, shape_a, shape_b):
        a = np.full(shape_a, 2.0)
        b = np.full(shape_b, 3.0)
        out = block_diag(a, b)
        assert out.shape == (shape_a[0] + shape_b[0], shape_a[1] + shape_b[1])
        np.testing.assert_array_equal(out, scipy.linalg.block_diag(a, b))
        np.testing.assert_array_equal(out[shape_a[0]:, shape_a[1]:], b)
        assert not out[: shape_a[0], shape_a[1]:].any()
        assert not out[shape_a[0]:, : shape_a[1]].any()

    @pytest.mark.parametrize(
        "dtype_a, dtype_b, expected",
        [
            (np.int64, np.int64, np.int64),
            (np.int64, np.float64, np.float64),
            (np.float32, np.float32, np.float32),
            (np.float64, np.complex128, np.complex128),
        ],
    )
    def test_dtype_is_promoted(self, dtype_a, dtype_b, expected):
        out = block_diag(np.ones((1, 1), dtype_a), np.ones((2, 2), dtype_b))
        assert out.dtype == expected
        np.testing.assert_array_equal(out, np.eye(3) + [[0, 0, 0], [0, 0, 1], [0, 1, 0]])

    def test_inputs_not_mutated(self):
        a = np.eye(2)
        b = np.ones((1, 1))
        block_diag(a, b)[0, 0] = 9.0
        assert a[0, 0] == 1.0 and b[0, 0] == 1.0


class TestSymEig:
    def test_identity(self):
        w, v = sym_eig(np.eye(3))
        np.testing.assert_allclose(w, np.ones(3))
        np.testing.assert_allclose(v @ v.T, np.eye(3), atol=1e-14)

    def test_diagonal_known_values(self):
        w, v = sym_eig([[2.0, 0.0], [0.0, 3.0]])
        np.testing.assert_allclose(w, [2.0, 3.0])
        np.testing.assert_allclose(np.abs(v), np.eye(2), atol=1e-14)

    def test_offdiagonal_known_values(self):
        w, _ = sym_eig([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetricError):
            sym_eig([[0.0, 1.0], [2.0, 0.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            sym_eig(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidMatrixError):
            sym_eig([[np.nan, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("n", [1, 5, 17, 50])
    def test_reconstruction_random(self, n):
        rng = np.random.default_rng(1000 + n)
        for _ in range(5):
            g = rng.standard_normal((n, n))
            m = g + g.T
            w, v = sym_eig(m)
            err = np.linalg.norm(v @ np.diag(w) @ v.T - m)
            assert err <= 1e-10 * (1.0 + np.linalg.norm(m))
            assert np.all(np.diff(w) >= 0)

    def test_tolerance_override(self):
        m = [[1.0, 1.0 + 1e-7], [1.0, 1.0]]
        with pytest.raises(NotSymmetricError):
            sym_eig(m)
        w, _ = sym_eig(m, tol=1e-6)
        assert w.shape == (2,)


class TestRankSvd:
    def test_zero_matrix(self):
        assert rank_svd(np.zeros((3, 3))) == 0

    def test_identity(self):
        assert rank_svd(np.eye(4)) == 4

    def test_rank_one(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert rank_svd(m) == 1
        # the discarded singular value really is below the default cut
        s = np.linalg.svd(m, compute_uv=False)
        assert s[1] <= 2 * s[0] * np.finfo(float).eps

    def test_custom_tolerance(self):
        m = np.diag([1.0, 1e-6])
        assert rank_svd(m) == 2
        assert rank_svd(m, tol=1e-3) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_invariance_under_permutation_and_rotation(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols, r = 7, 5, 3
        m = rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols))
        base = rank_svd(m)
        assert base == r
        perm = rng.permutation(rows)
        assert rank_svd(m[perm]) == base
        ortho, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
        assert rank_svd(ortho @ m) == base


class TestIsHurwitz:
    def test_stable_scalar(self):
        res = is_hurwitz([[-1.0]])
        assert res.hurwitz
        assert res.max_real_part == pytest.approx(-1.0)

    def test_oscillator_on_axis(self):
        res = is_hurwitz([[0.0, 1.0], [-1.0, 0.0]])
        assert not res.hurwitz
        assert abs(res.max_real_part) <= 1e-12

    def test_margin(self):
        assert is_hurwitz(np.diag([-0.1, -1.0])).hurwitz
        assert not is_hurwitz(np.diag([-0.1, -1.0]), margin=0.2).hurwitz

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            is_hurwitz([[-1.0]], margin=-0.1)

    def test_unstable(self):
        res = is_hurwitz([[1.0, 0.0], [0.0, -2.0]])
        assert not res.hurwitz
        assert res.max_real_part == pytest.approx(1.0)


class TestDefiniteness:
    def test_identity_is_pd(self):
        d = definiteness(np.eye(3))
        assert d.symmetric and d.psd and d.pd
        assert d.min_eigenvalue == pytest.approx(1.0)

    def test_zero_is_psd_not_pd(self):
        d = definiteness(np.zeros((2, 2)))
        assert d.symmetric and d.psd and not d.pd
        assert d.min_eigenvalue == pytest.approx(0.0, abs=1e-15)

    def test_asymmetric_is_nothing(self):
        d = definiteness([[1.0, 2.0], [0.0, 1.0]])
        assert not d.symmetric and not d.psd and not d.pd

    def test_indefinite(self):
        d = definiteness(np.diag([1.0, -1.0]))
        assert d.symmetric and not d.psd and not d.pd
        assert d.min_eigenvalue == pytest.approx(-1.0)

    def test_tolerance_band(self):
        d = definiteness(np.diag([1.0, -1e-12]))
        assert d.psd  # within the default 1e-9 band
        assert not definiteness(np.diag([1.0, -1e-6])).psd


class TestPsdSqrtFactor:
    def test_identity(self):
        d = psd_sqrt_factor(np.eye(2))
        assert d.shape == (2, 2)
        np.testing.assert_allclose(d.T @ d, np.eye(2), atol=1e-12)

    def test_scalar(self):
        d = psd_sqrt_factor([[4.0]])
        np.testing.assert_allclose(np.abs(d), [[2.0]])

    def test_rank_deficient_known_factor(self):
        m = np.array([[2.0, 2.0], [2.0, 2.0]])
        d = psd_sqrt_factor(m)
        assert d.shape == (1, 2)
        np.testing.assert_allclose(np.abs(d), [[np.sqrt(2), np.sqrt(2)]], atol=1e-14)
        np.testing.assert_allclose(d.T @ d, m, atol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            psd_sqrt_factor([[-1.0]])

    def test_zero_matrix_gives_empty_factor(self):
        d = psd_sqrt_factor(np.zeros((3, 3)))
        assert d.shape == (0, 3)

    @pytest.mark.parametrize("rows,cols", [(4, 4), (6, 3), (2, 5)])
    def test_gram_matrices_random(self, rows, cols):
        rng = np.random.default_rng(rows * 100 + cols)
        for _ in range(10):
            g = rng.standard_normal((rows, cols))
            m = g.T @ g
            d = psd_sqrt_factor(m)
            assert np.linalg.norm(d.T @ d - m) <= 1e-9 * (1.0 + np.linalg.norm(m))
            assert d.shape[0] == min(rows, cols) == np.linalg.matrix_rank(m)


class TestControllability:
    def test_double_integrator(self):
        a = [[0.0, 1.0], [0.0, 0.0]]
        b = [[0.0], [1.0]]
        res = is_controllable(a, b)
        assert res.ok and res.rank == 2 and res.required == 2
        assert res.margin > 0.0

    def test_decoupled_unreachable_state(self):
        res = is_controllable(np.eye(2), [[1.0], [0.0]])
        assert not res.ok and res.rank == 1

    def test_scalar(self):
        assert is_controllable([[-3.0]], [[2.0]]).ok

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            is_controllable(np.eye(2), np.ones((3, 1)))

    def test_large_norm_does_not_overflow(self):
        rng = np.random.default_rng(7)
        a = 1e8 * rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 2))
        res = is_controllable(a, b)
        assert res.ok == pbh_controllable(a, b)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_pbh_oracle(self, seed):
        rng = np.random.default_rng(3000 + seed)
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 3))
        a = rng.standard_normal((n, n))
        if seed % 3 == 0:
            # force an unreachable block
            a = np.block(
                [[a, np.zeros((n, 1))], [np.zeros((1, n)), np.eye(1)]]
            )
            b = np.vstack([rng.standard_normal((n, m)), np.zeros((1, m))])
        else:
            b = rng.standard_normal((n, m))
        assert is_controllable(a, b).ok == pbh_controllable(a, b)


class TestObservability:
    def test_position_sensor_sees_velocity(self):
        a = [[0.0, 1.0], [0.0, 0.0]]
        assert is_observable(a, [[1.0, 0.0]]).ok
        assert not is_observable(a, [[0.0, 1.0]]).ok

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            is_observable(np.eye(2), np.ones((1, 3)))

    @pytest.mark.parametrize("seed", range(10))
    def test_duality(self, seed):
        rng = np.random.default_rng(4000 + seed)
        n = int(rng.integers(1, 6))
        p = int(rng.integers(1, 3))
        a = rng.standard_normal((n, n))
        c = rng.standard_normal((p, n))
        dual = is_controllable(a.T, c.T)
        direct = is_observable(a, c)
        assert direct.ok == dual.ok and direct.rank == dual.rank
