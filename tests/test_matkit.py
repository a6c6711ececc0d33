import numpy as np
import pytest

from rsmlqr.errors import (
    InvalidMatrixError,
    NotPDError,
    NotPSDError,
    NotSymmetricError,
    NumericalFailureError,
    ShapeError,
)
from rsmlqr.matkit import (
    RankTest,
    _rank_from_svals,
    _singular_values,
    block_diag,
    conform,
    definiteness,
    is_controllable,
    is_hurwitz,
    is_observable,
    psd_sqrt_factor,
    require_definite,
    require_matrix,
)
from rsmlqr.riccati import solve_care


EPS = np.finfo(float).eps


def unit_scaled(a, b):
    """``A`` and ``B`` each scaled to unit Frobenius norm (a zero ``A`` kept)."""
    norm_a = np.linalg.norm(a)
    return (a / norm_a if norm_a else a), b / np.linalg.norm(b)


def staircase_cut(a, b):
    """The rank tests' cut, ``max(n, m) * eps * ||[A, B]||_F`` of the
    unit-scaled pair."""
    return max(b.shape) * EPS * (np.sqrt(2.0) if np.linalg.norm(a) else 1.0)


def kalman_oracle(a, b):
    """Test-only rank reference: the SVD of the explicit Kalman matrix of
    the unit-scaled pair, cut at ``max(shape) * sigma_max * eps``.  Its
    columns lose rank in floating point as ``n`` grows, so it is used only
    up to ``n = 20``."""
    n, m = b.shape
    if n * m == 0 or not np.linalg.norm(b):
        return 0
    a, b = unit_scaled(a, b)
    blocks = [b]
    for _ in range(n - 1):
        blocks.append(a @ blocks[-1])
    ctrb = np.hstack(blocks)
    s = np.linalg.svd(ctrb, compute_uv=False)
    return int(np.count_nonzero(s > max(ctrb.shape) * s[0] * EPS))


def pbh_margin(a, b):
    """Test-only oracle: the smallest ``sigma_n([lambda I - A, B])`` over
    the eigenvalues ``lambda`` of ``A``, for the unit-scaled pair.  It is 0
    up to round-off exactly when the pair is uncontrollable."""
    n = a.shape[0]
    a, b = unit_scaled(a, b)
    eigs = np.linalg.eigvals(a)
    # a conjugate eigenvalue gives the conjugate pencil, with the same
    # singular values
    return min(
        np.linalg.svd(np.hstack([lam * np.eye(n) - a, b]), compute_uv=False)[n - 1]
        for lam in eigs[eigs.imag >= 0.0]
    )


def pbh_oracle(a, b):
    """Whether the pair is controllable by ``pbh_margin``, asserting first
    that the margin is decisive: above 1e-8 or below 1e-12."""
    margin = pbh_margin(a, b)
    assert not 1e-12 <= margin <= 1e-8, f"PBH margin {margin:.3e} is not decisive"
    return margin > 1e-8


def unreachable_pair(rng, n, m, k):
    """A pair whose reachable subspace is ``k`` of the ``n`` states: ``A``
    block upper triangular with an exactly zero ``(n-k) x k`` block and
    ``B`` zero below row ``k``, both under one random permutation of the
    states, which floating point carries out exactly."""
    a = rng.standard_normal((n, n)) / np.sqrt(n)
    a[k:, :k] = 0.0
    b = rng.standard_normal((n, m))
    b[k:] = 0.0
    perm = rng.permutation(n)
    return a[np.ix_(perm, perm)], b[perm]


class TestBlockDiag:
    def test_matches_scipy(self):
        linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(17)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((3, 1))
        out = block_diag(a, b)
        np.testing.assert_array_equal(out, linalg.block_diag(a, b))
        assert out.shape == (5, 4)

    @pytest.mark.parametrize(
        "shape_a, shape_b", [((2, 0), (1, 3)), ((2, 2), (3, 0)), ((0, 2), (1, 1))]
    )
    def test_empty_blocks_add_only_their_nonzero_dimension(self, shape_a, shape_b):
        linalg = pytest.importorskip("scipy.linalg")
        a = np.full(shape_a, 2.0)
        b = np.full(shape_b, 3.0)
        out = block_diag(a, b)
        assert out.shape == (shape_a[0] + shape_b[0], shape_a[1] + shape_b[1])
        np.testing.assert_array_equal(out, linalg.block_diag(a, b))
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


NON_NUMERIC = {
    "string": [["1.0", "x"]],
    "ragged-rows": [[1.0, 2.0], [3.0]],
    "dict": {"a": 1.0},
    "python-complex": 1j,
    "complex-ndarray": np.array([[1.0 + 2.0j]]),
}


class TestRequireMatrix:
    @pytest.mark.parametrize("bad", NON_NUMERIC.values(), ids=NON_NUMERIC.keys())
    def test_non_numeric_names_the_argument(self, bad):
        with pytest.raises(InvalidMatrixError, match="weight W must hold real numbers"):
            require_matrix(bad, "weight W")

    @pytest.mark.parametrize("bad", NON_NUMERIC.values(), ids=NON_NUMERIC.keys())
    def test_public_gate_raises_typed(self, bad):
        with pytest.raises(InvalidMatrixError, match="Q must hold real numbers"):
            solve_care([[-1.0]], [[1.0]], bad, [[1.0]])


class TestConform:
    def test_int_dims(self):
        (m,) = conform(([[1, 2, 3], [4, 5, 6]], "M", 2, 3))
        assert m.dtype == float and m.shape == (2, 3)
        with pytest.raises(ShapeError, match=r"^M has 3 columns, expected 4 \(shape \(2, 3\)\)$"):
            conform((m, "M", 2, 4))
        with pytest.raises(ShapeError, match=r"^M has 2 rows, expected 1 "):
            conform((m, "M", 1, 3))

    def test_symbol_binds_across_arguments(self):
        a, b, r = conform(
            (np.eye(2), "A", "n", "n"), (np.ones((2, 3)), "B", "n", "m"),
            (np.eye(3), "R", "m", "m"),
        )
        assert (a.shape, b.shape, r.shape) == ((2, 2), (2, 3), (3, 3))
        with pytest.raises(
            ShapeError,
            match=r"^B has 3 rows, expected n = 2 from A \(shape \(3, 1\)\)$",
        ):
            conform((np.eye(2), "A", "n", "n"), (np.ones((3, 1)), "B", "n", "m"))
        with pytest.raises(ShapeError, match=r"^R has 2 rows, expected m = 1 from B "):
            conform(
                (np.eye(2), "A", "n", "n"), (np.ones((2, 1)), "B", "n", "m"),
                (np.eye(2), "R", "m", "m"),
            )

    def test_symbols_are_bound_per_call(self):
        conform((np.eye(2), "A", "n", "n"))
        conform((np.eye(3), "A", "n", "n"))

    def test_non_square(self):
        with pytest.raises(ShapeError, match=r"^Q has 3 columns, expected n = 2 from Q "):
            conform((np.zeros((2, 3)), "Q", "n", "n"))

    def test_first_disagreement_in_spec_order(self):
        with pytest.raises(ShapeError, match="^B has"):
            conform(
                (np.eye(2), "A", "n", "n"), (np.ones((3, 1)), "B", "n", "m"),
                (np.eye(4), "Q", "n", "n"),
            )

    @pytest.mark.parametrize("bad", [np.ones(3), np.ones((1, 1, 3)), 1.0])
    def test_wrong_ndim(self, bad):
        with pytest.raises(InvalidMatrixError, match="M must be 2-D"):
            conform((bad, "M", 1, 3))

    @pytest.mark.parametrize("shape", [(3,), (3, 1), (1, 3), (1, 3, 1)])
    def test_vector_of_any_shape(self, shape):
        a, x = conform(
            (np.eye(3), "A", "n", "n"), (np.arange(3.0).reshape(shape), "x", "n")
        )
        np.testing.assert_array_equal(x, [0.0, 1.0, 2.0])
        with pytest.raises(ShapeError, match=r"^x has 3 entries, expected n = 2 from A "):
            conform((np.eye(2), "A", "n", "n"), (np.zeros(shape), "x", "n"))

    @pytest.mark.parametrize("dims", [(1, 1), ("n", "n"), ("n",)])
    @pytest.mark.parametrize(
        "bad", [*NON_NUMERIC.values(), None, "abc"],
        ids=[*NON_NUMERIC.keys(), "none", "string-scalar"],
    )
    def test_coercion_errors_stay_invalid_matrix(self, bad, dims):
        with pytest.raises(InvalidMatrixError, match="W must hold real numbers"):
            conform((bad, "W", *dims))

    @pytest.mark.parametrize("dims", [(2, 2), ("n", "n"), ("n",)])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entries(self, value, dims):
        with pytest.raises(InvalidMatrixError, match="W contains non-finite entries"):
            conform(([[1.0, value], [0.0, 1.0]], "W", *dims))


class TestLapackFailure:
    """A LAPACK routine that does not converge raises ``LinAlgError``; the
    package raises it as ``NumericalFailureError`` naming the operation."""

    @staticmethod
    def _failing(monkeypatch, name):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError(f"{name} did not converge")

        monkeypatch.setattr(np.linalg, name, fail)

    @pytest.mark.parametrize(
        "routine, call, operation",
        [
            ("eigh", lambda: psd_sqrt_factor(np.eye(2)), "eigendecomposition"),
            ("eigvalsh", lambda: definiteness(np.eye(2)), "eigenvalue computation"),
            ("eigvals", lambda: is_hurwitz(-np.eye(2)), "eigenvalue computation"),
            ("svd", lambda: is_controllable(np.eye(2), np.eye(2)), "SVD"),
        ],
    )
    def test_becomes_numerical_failure(self, monkeypatch, routine, call, operation):
        self._failing(monkeypatch, routine)
        with pytest.raises(NumericalFailureError) as info:
            call()
        assert str(info.value) == f"{operation} failed: {routine} did not converge"
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def rank_svd(m):
    return _rank_from_svals(_singular_values(m), m.shape)


class TestRankSvd:
    """The rank cut ``max(shape) * sigma_max * eps`` every rank test uses."""

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

    def test_identity_3x3(self):
        d = psd_sqrt_factor(np.eye(3))
        assert d.shape == (3, 3)
        np.testing.assert_allclose(d.T @ d, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(d @ d.T, np.eye(3), atol=1e-12)

    def test_scalar(self):
        d = psd_sqrt_factor([[4.0]])
        np.testing.assert_allclose(np.abs(d), [[2.0]])

    def test_diagonal_known_values(self):
        # rows follow the eigenvalues in ascending order
        d = psd_sqrt_factor([[2.0, 0.0], [0.0, 3.0]])
        np.testing.assert_allclose(np.abs(d), np.diag(np.sqrt([2.0, 3.0])), atol=1e-14)

    def test_offdiagonal_known_values(self):
        # [[2, 1], [1, 2]] has eigenvalues 1 and 3; [[0, 1], [1, 0]] has -1 and 1
        d = psd_sqrt_factor([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose((d**2).sum(axis=1), [1.0, 3.0], atol=1e-14)
        np.testing.assert_allclose(d.T @ d, [[2.0, 1.0], [1.0, 2.0]], atol=1e-14)
        with pytest.raises(NotPSDError, match=r"min eigenvalue -1\.000000e\+00"):
            psd_sqrt_factor([[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("n", [1, 5, 17, 50])
    def test_reconstruction_random(self, n):
        rng = np.random.default_rng(1000 + n)
        for _ in range(5):
            g = rng.standard_normal((n, n))
            m = g @ g.T
            d = psd_sqrt_factor(m)
            err = np.linalg.norm(d.T @ d - m)
            assert err <= np.sqrt(n) * 1e-9 * (1.0 + np.abs(m).max())
            assert np.all(np.diff((d**2).sum(axis=1)) >= 0)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetricError, match="psd_sqrt_factor input"):
            psd_sqrt_factor([[0.0, 1.0], [2.0, 0.0]])

    def test_rejects_asymmetry_above_the_cut(self):
        with pytest.raises(NotSymmetricError, match="psd_sqrt_factor input"):
            psd_sqrt_factor([[1.0, 1.0 + 1e-7], [1.0, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            psd_sqrt_factor(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidMatrixError):
            psd_sqrt_factor([[np.nan, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("asym, symmetric", [(5e-10, True), (5e-9, False)])
    def test_same_symmetry_rule_as_definiteness(self, asym, symmetric):
        m = np.array([[1.0, 0.5], [0.5 + asym, 1.0]])
        assert definiteness(m).symmetric is symmetric
        if symmetric:
            psd_sqrt_factor(m)
        else:
            with pytest.raises(NotSymmetricError, match=r"\(1 \+ max\|M\|\)"):
                psd_sqrt_factor(m)

    def test_factor_certificate(self, monkeypatch):
        # eigenvectors that do not belong to the eigenvalues give a factor
        # with D^T D = diag(4, 1) for M = diag(1, 4)
        eigh = np.linalg.eigh

        def wrong_vectors(m):
            w, v = eigh(m)
            return w, v[:, ::-1]

        monkeypatch.setattr(np.linalg, "eigh", wrong_vectors)
        with pytest.raises(NumericalFailureError, match="square-root factor error"):
            psd_sqrt_factor(np.diag([1.0, 4.0]))

    def test_rank_deficient_known_factor(self):
        m = np.array([[2.0, 2.0], [2.0, 2.0]])
        d = psd_sqrt_factor(m)
        assert d.shape == (1, 2)
        np.testing.assert_allclose(np.abs(d), [[np.sqrt(2), np.sqrt(2)]], atol=1e-14)
        np.testing.assert_allclose(d.T @ d, m, atol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError, match=r"min eigenvalue -1\.000000e\+00"):
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


class TestScaledDefiniteness:
    """Definiteness decisions cut at ``1e-9 * (1 + max|M|)``, so scaling a
    matrix by a constant, a change of units, leaves every verdict as it is."""

    @pytest.mark.parametrize("seed", range(5))
    def test_rank_deficient_gram(self, seed):
        v = np.random.default_rng(seed).standard_normal((5, 2))
        for c in (1e-3, 1.0, 1e3, 1e6, 1e8):
            m = c * (v @ v.T)
            assert definiteness(m).psd, c
            assert psd_sqrt_factor(m).shape == (2, 5), c

    def test_eigenvalues_just_inside_the_cut_are_dropped(self):
        # nine eigenvalues just below the cut 2e-9: dropping them moves the
        # factor by 3 * 1.9e-9, within the sqrt(n) * cut it may move
        m = np.diag([1.0] + [1.9e-9] * 9)
        assert psd_sqrt_factor(m).shape == (1, 10)

    def test_pd_is_relative(self):
        assert definiteness(np.diag([1.0, 1e-6])).pd
        assert not definiteness(np.diag([1e6, 1e-6])).pd


class TestRequireDefinite:
    def test_returns_symmetrized(self):
        m = np.array([[2.0, 1.0], [1.0 + 1e-10, 2.0]])
        out = require_definite(m, "W", pd=True)[0]
        np.testing.assert_array_equal(out, out.T)
        np.testing.assert_allclose(out, m, atol=1e-10)

    @pytest.mark.parametrize(
        "m, pd, error, message",
        [
            ([[1.0, 1.0], [0.0, 1.0]], False, NotSymmetricError, "W must be symmetric"),
            ([[1.0, 0.0], [0.0, -1.0]], False, NotPSDError, "W must be positive semidefinite"),
            ([[1.0, 0.0], [0.0, 0.0]], True, NotPDError, "W must be positive definite"),
        ],
    )
    def test_raises_with_name(self, m, pd, error, message):
        with pytest.raises(error, match=message):
            require_definite(m, "W", pd=pd)


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
        assert res.ok == pbh_oracle(a, b)

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
        assert is_controllable(a, b).ok == pbh_oracle(a, b)


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


class TestKalmanFactor:
    """The staircase against the explicit Kalman matrix where that oracle is
    sound (n <= 20); above that the explicit matrix loses rank in floating
    point, and the PBH oracle takes its place."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 16, 31, 40])
    @pytest.mark.parametrize("which", ["one", "n-1", "n", "2n+1"])
    def test_matches_explicit_kalman_matrix(self, n, which):
        m = {"one": 1, "n-1": n - 1, "n": n, "2n+1": 2 * n + 1}[which]
        rng = np.random.default_rng(100 * n + m)
        # a random pair, then one that reaches only half of its states
        for k in (n, n // 2):
            if k == n:
                a, b = rng.standard_normal((n, n)), rng.standard_normal((n, m))
            else:
                a, b = unreachable_pair(rng, n, m, k)
            got = is_controllable(a, b)
            if m == 0 or k == 0:
                assert got == RankTest(False, 0, n, 0.0)
                continue
            if n <= 20:
                assert got.rank == kalman_oracle(a, b) == k
            else:
                assert got.rank == k and pbh_oracle(a, b) == (k == n)
            assert got.ok == (k == n) and got.required == n
            # every kept singular value clears the cut and is one of a
            # projected block of the unit-scaled pair
            assert staircase_cut(a, b) < got.margin <= 1.0 + 1e-12
            # rank and margin do not depend on the units of A or B
            scaled = is_controllable(1e3 * a, 1e-5 * b)
            assert scaled[:3] == got[:3]
            assert scaled.margin == pytest.approx(got.margin, rel=1e-9)
            assert is_observable(a.T, b.T) == got

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_empty_input_or_output(self, n):
        a = np.random.default_rng(n).standard_normal((n, n))
        assert is_controllable(a, np.zeros((n, 0))) == RankTest(False, 0, n, 0.0)
        assert is_observable(a, np.zeros((0, n))) == RankTest(False, 0, n, 0.0)


class TestStaircase:
    """The scale-free cut, the PBH oracle at orders 30-200, and the work."""

    @pytest.mark.parametrize("rows, cols", [(2, 40), (3, 2)], ids=["wide-B", "narrow-B"])
    @pytest.mark.parametrize("a_is_zero", [True, False], ids=["zero-A", "identity-A"])
    @pytest.mark.parametrize("side", [0.9, 1.1], ids=["under", "over"])
    def test_each_side_of_the_cut(self, rows, cols, a_is_zero, side):
        # B's singular values are 1 and side * cut, with cut = max(n, m) eps
        # (times sqrt(2) when A is nonzero, for ||[A, B]||_F of the scaled
        # pair); A adds no direction, so the rank is 2 exactly when side > 1
        a = np.zeros((rows, rows)) if a_is_zero else np.eye(rows)
        b = np.zeros((rows, cols))
        b[0, 0] = 1.0
        b[1, 1] = side * staircase_cut(a, b)
        rank = 2 if side > 1.0 else 1
        for scale in (1e-200, 1e-6, 1.0, 1e6, 1e200):
            got = is_controllable(scale * a, b / scale)
            assert got[:3] == (rank == rows, rank, rows)
            assert got.margin == pytest.approx(min(1.0, b[1, 1]) if rank == 2 else 1.0, rel=1e-12)
            assert is_observable(scale * a.T, b.T / scale) == got

    def test_zero_input(self):
        assert is_controllable(np.eye(3), np.zeros((3, 2))) == RankTest(False, 0, 3, 0.0)

    @pytest.mark.parametrize("side", [0.9, 1.1], ids=["under", "over"])
    def test_each_side_of_the_cut_for_a_single_column(self, side):
        # B = e1 and A = e1 e1^T + t e2 e1^T with ||A||_F = 1 in floating
        # point: the second step's column is t e2, kept exactly when t is
        # above the cut 2 sqrt(2) eps
        a = np.diag([1.0, 0.0])
        b = np.array([[1.0], [0.0]])
        a[1, 0] = side * staircase_cut(a, b)
        got = is_controllable(a, b)
        if side > 1.0:
            assert got[:3] == (True, 2, 2)
            assert got.margin == pytest.approx(a[1, 0], rel=1e-12)
        else:
            assert got == RankTest(False, 1, 2, 1.0)

    def test_margin_is_the_smallest_over_all_steps(self):
        # B's directions e1 and e2 come in with singular values 1 and t
        # (over sqrt(1 + t^2)); A sends e1 to e3 at the second step with 1
        t = 0.01
        a = np.zeros((3, 3))
        a[2, 0] = 1.0
        b = np.array([[1.0, 0.0], [0.0, t], [0.0, 0.0]])
        got = is_controllable(a, b)
        assert got[:3] == (True, 3, 3)
        assert got.margin == pytest.approx(t / np.sqrt(1.0 + t * t), rel=1e-12)

    @pytest.mark.parametrize("delta", [1e-6, 1e-9])
    def test_weak_chain_keeps_the_basis_orthonormal(self, delta):
        # A chain I + delta * subdiagonal, rotated, reaches its 6 states
        # through blocks that cancel all of A v but delta of it; one pass of
        # Gram-Schmidt then leaves components along the basis far above the
        # cut, and counts them as new directions.  The other 6 states are
        # unreachable: A's lower-left block and B's lower rows are zero.
        n, k = 12, 6
        rng = np.random.default_rng(6)
        q = np.linalg.qr(rng.standard_normal((k, k)))[0]
        a = rng.standard_normal((n, n))
        a[:k, :k] = q @ (np.eye(k) + delta * np.eye(k, k=-1)) @ q.T
        a[k:, :k] = 0.0
        b = np.zeros((n, 1))
        b[:k, 0] = q[:, 0]
        got = is_controllable(a, b)
        assert got[:3] == (False, k, n)
        # each step adds delta / ||A||_F of a new direction
        assert staircase_cut(a, b) < got.margin < delta

    @pytest.mark.parametrize(
        "n, m, k",
        [
            (30, 1, 30), (30, 2, 11), (60, 4, 60), (60, 1, 45),
            (100, 3, 100), (100, 30, 70), (100, 90, 100),
            (200, 4, 200), (200, 60, 190),
        ],
    )
    def test_matches_pbh_oracle(self, n, m, k):
        rng = np.random.default_rng(10 * n + m)
        if k == n:
            a = rng.standard_normal((n, n)) / np.sqrt(n)
            b = rng.standard_normal((n, m))
        else:
            a, b = unreachable_pair(rng, n, m, k)
        got = is_controllable(a, b)
        assert got.rank == k
        assert got.ok == (k == n) == pbh_oracle(a, b)
        assert is_observable(a.T, b.T) == got

    @pytest.mark.parametrize("m", [4, 60])
    def test_work_at_order_200(self, m, monkeypatch):
        # one SVD per block, blocks at most m wide, and QR (for the
        # complement) at most n columns wide: no Kalman-width factor
        n = 200
        svd_shapes, qr_shapes = [], []
        for name, shapes in (("svd", svd_shapes), ("qr", qr_shapes)):
            inner = getattr(np.linalg, name)

            def spy(x, *args, inner=inner, shapes=shapes, **kwargs):
                shapes.append(x.shape)
                return inner(x, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        rng = np.random.default_rng(200 + m)
        a = rng.standard_normal((n, n)) / np.sqrt(n) - 2.0 * np.eye(n)
        got = is_controllable(a, rng.standard_normal((n, m)))
        monkeypatch.undo()
        assert got.ok and got.rank == n
        assert len(svd_shapes) <= -(-n // m) + 1
        assert all(cols <= m for _, cols in svd_shapes)
        assert all(cols <= n for _, cols in qr_shapes)
