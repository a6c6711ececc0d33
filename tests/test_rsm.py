import itertools
import math

import numpy as np
import pytest

from rsmlqr.errors import (
    NotPDError,
    NotPSDError,
    NotSymmetricError,
    PatternError,
    ShapeError,
)
from rsmlqr import matkit
from rsmlqr.matkit import is_hurwitz
from rsmlqr.rsm import (
    CompositionPattern,
    CostWeights,
    LinearSystem,
    _compose_cost,
    build_composition_matrix,
    closed_loop_matrix,
    compose_cost,
    compose_gains,
    compose_open_loop,
)

from numpy_oracles import block_diag


def all_patterns(n1, n2):
    """Every sharing pattern between systems of order n1 and n2."""
    for k in range(min(n1, n2) + 1):
        for firsts in itertools.combinations(range(n1), k):
            for seconds in itertools.permutations(range(n2), k):
                yield CompositionPattern(n1, n2, tuple(zip(firsts, seconds)))


class TestCompositionPattern:
    def test_duplicate_first_index(self):
        with pytest.raises(PatternError):
            CompositionPattern(2, 2, ((1, 0), (1, 1)))

    def test_duplicate_second_index(self):
        with pytest.raises(PatternError):
            CompositionPattern(2, 2, ((0, 1), (1, 1)))

    def test_out_of_range(self):
        with pytest.raises(PatternError):
            CompositionPattern(2, 2, ((2, 0),))
        with pytest.raises(PatternError):
            CompositionPattern(2, 2, ((0, -1),))

    def test_empty_is_fine(self):
        pattern = CompositionPattern(3, 2)
        assert pattern.k_shared == 0

    def test_nonpositive_dims(self):
        with pytest.raises(PatternError):
            CompositionPattern(0, 1)

    @pytest.mark.parametrize(
        "n1, pairs, message",
        [
            (2, ((0.7, 1),), "pairs[0][0]: expected an integer, got float"),
            (2, ((0, 2.9),), "pairs[0][1]: expected an integer, got float"),
            (2, ((True, 0),), "pairs[0][0]: expected an integer, got bool"),
            (2, (("1", "0"),), "pairs[0][0]: expected an integer, got str"),
            (2, (1,), "pairs[0]: expected a pair [j, k] of two integers"),
            (2, ((0, 1, 1),), "pairs[0]: expected a pair [j, k] of two integers"),
            (2, ("01",), "pairs[0]: expected a pair [j, k] of two integers"),
            (2, ({"j": 0, "k": 1},), "pairs[0]: expected a pair [j, k] of two integers"),
            (2.5, (), "n1: expected an integer, got float"),
            # the shape of every pair is checked before any range rule
            (2, ((5, 0), (0, None)), "pairs[1][1]: expected an integer, got NoneType"),
        ],
    )
    def test_pairs_and_dims_must_be_integers(self, n1, pairs, message):
        with pytest.raises(PatternError) as info:
            CompositionPattern(n1, 2, pairs)
        assert str(info.value) == message

    def test_index_too_large_to_convert(self):
        class Huge:
            def __index__(self):
                raise OverflowError

        with pytest.raises(PatternError) as info:
            CompositionPattern(2, 2, ((0, Huge()),))
        assert str(info.value) == "pairs[0][1]: integer is too large to be a state index"

    def test_integer_types_are_stored_as_int(self):
        pattern = CompositionPattern(np.int64(3), 2, [np.array([2, 1]), (np.int32(0), 0)])
        assert pattern == CompositionPattern(3, 2, ((2, 1), (0, 0)))
        assert type(pattern.n1) is int
        assert all(type(i) is int for pair in pattern.pairs for i in pair)


class TestBuildCompositionMatrix:
    def test_two_state_single_share(self):
        cm = build_composition_matrix(CompositionPattern(2, 2, ((1, 0),)))
        expected = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        np.testing.assert_array_equal(cm, expected)

    def test_no_sharing_is_identity(self):
        cm = build_composition_matrix(CompositionPattern(2, 2))
        np.testing.assert_array_equal(cm, np.eye(4))

    def test_full_sharing_scalars(self):
        cm = build_composition_matrix(CompositionPattern(1, 1, ((0, 0),)))
        np.testing.assert_array_equal(cm, [[1.0], [1.0]])

    def test_composite_ordering(self):
        # subsystem-1 states keep their order; then non-shared subsystem-2
        # states in their order
        cm = build_composition_matrix(CompositionPattern(3, 3, ((0, 2), (2, 0))))
        # row s of K is the unit vector of stacked state s's composite column
        np.testing.assert_array_equal(cm, np.eye(4)[[0, 1, 2, 2, 3, 0]])

    def test_structural_invariants_exhaustive(self):
        for n1 in range(1, 5):
            for n2 in range(1, 5):
                for pattern in all_patterns(n1, n2):
                    cm = build_composition_matrix(pattern)
                    k = pattern.k_shared
                    kmat = cm
                    assert kmat.shape == (n1 + n2, n1 + n2 - k)
                    # every row selects exactly one composite state
                    assert np.array_equal(
                        np.count_nonzero(kmat, axis=1), np.ones(n1 + n2, int)
                    )
                    assert set(np.unique(kmat)) <= {0.0, 1.0}
                    # columns: shared states have one entry per block
                    col_counts = np.count_nonzero(kmat, axis=0)
                    assert sorted(col_counts)[::-1][:k] == [2] * k
                    assert np.count_nonzero(col_counts == 2) == k
                    top = np.count_nonzero(kmat[:n1], axis=0)
                    bottom = np.count_nonzero(kmat[n1:], axis=0)
                    assert np.all(top <= 1) and np.all(bottom <= 1)
                    ktk = kmat.T @ kmat
                    np.testing.assert_array_equal(ktk, np.diag(col_counts))
                    # subsystem-1 states keep their positions, a shared
                    # subsystem-2 state joins its partner's column, and the
                    # other subsystem-2 states follow in order
                    cols = np.argmax(kmat, axis=1)
                    np.testing.assert_array_equal(cols[:n1], np.arange(n1))
                    for j, kk in pattern.pairs:
                        assert cols[n1 + kk] == j
                    shared2 = {kk for _, kk in pattern.pairs}
                    rest = [cols[n1 + kk] for kk in range(n2) if kk not in shared2]
                    assert rest == list(range(n1, n1 + n2 - k))

    def test_state_identification(self):
        rng = np.random.default_rng(21)
        pattern = CompositionPattern(3, 4, ((1, 3), (2, 0)))
        cm = build_composition_matrix(pattern)
        x = rng.standard_normal(cm.shape[1])
        lifted = cm @ x
        for j, k in pattern.pairs:
            assert lifted[j] == lifted[3 + k]


class TestComposeOpenLoop:
    def test_scalar_full_share(self):
        s1 = LinearSystem("one", [[-1.0]], [[1.0]])
        s2 = LinearSystem("two", [[-2.0]], [[1.0]])
        comp = compose_open_loop(s1, s2, CompositionPattern(1, 1, ((0, 0),)))
        np.testing.assert_allclose(comp.A, [[-3.0]])
        np.testing.assert_allclose(comp.B, [[1.0, 1.0]])
        assert comp.dims.shared == 1

    def test_no_share_is_block_diagonal(self):
        rng = np.random.default_rng(1)
        a1, a2 = rng.standard_normal((2, 2)), rng.standard_normal((3, 3))
        b1, b2 = rng.standard_normal((2, 1)), rng.standard_normal((3, 2))
        comp = compose_open_loop(
            LinearSystem("one", a1, b1),
            LinearSystem("two", a2, b2),
            CompositionPattern(2, 3),
        )
        np.testing.assert_allclose(comp.A[:2, :2], a1)
        np.testing.assert_allclose(comp.A[2:, 2:], a2)
        np.testing.assert_allclose(comp.A[:2, 2:], 0.0)
        np.testing.assert_allclose(comp.B[:2, :1], b1)
        np.testing.assert_allclose(comp.B[2:, 1:], b2)

    def test_shared_state_sums_dynamics(self):
        rng = np.random.default_rng(2)
        a1, a2 = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
        s1 = LinearSystem("one", a1, np.eye(2))
        s2 = LinearSystem("two", a2, np.eye(2))
        comp = compose_open_loop(s1, s2, CompositionPattern(2, 2, ((1, 0),)))
        # composite state 1 is the shared one; its self-dynamics add up
        assert comp.A[1, 1] == pytest.approx(a1[1, 1] + a2[0, 0])
        assert comp.A[0, 0] == pytest.approx(a1[0, 0])
        assert comp.A[2, 2] == pytest.approx(a2[1, 1])

    def test_dimension_mismatch(self):
        s1 = LinearSystem("one", [[-1.0]], [[1.0]])
        s2 = LinearSystem("two", [[-2.0]], [[1.0]])
        with pytest.raises(ShapeError):
            compose_open_loop(s1, s2, CompositionPattern(2, 1))


class TestLinearSystem:
    @pytest.mark.parametrize(
        "a, b, message",
        [
            (np.zeros((0, 0)), np.zeros((0, 1)), "s.A must be at least 1x1"),
            ([[-1.0]], np.zeros((1, 0)), "s.B must have at least one input column"),
        ],
        ids=["empty-A", "zero-column-B"],
    )
    def test_empty_dimension_is_a_shape_error(self, a, b, message):
        with pytest.raises(ShapeError) as info:
            LinearSystem("s", a, b)
        assert str(info.value) == message


class TestCostWeights:
    def test_rejects_indefinite_state_weight(self):
        with pytest.raises(NotPSDError):
            CostWeights([[-1.0]], [[1.0]])

    def test_rejects_semidefinite_input_weight(self):
        with pytest.raises(NotPDError):
            CostWeights([[1.0]], [[0.0]])

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetricError):
            CostWeights([[1.0, 1.0], [0.0, 1.0]], np.eye(2))

    def test_psd_state_weight_allowed(self):
        w = CostWeights(np.zeros((2, 2)), np.eye(2))
        assert w.Q.shape == (2, 2)

    def test_accepted_weights_are_stored_exactly_symmetric(self):
        nearly = np.array([[1.0, 0.5], [0.5 + 5e-10, 1.0]])
        w = CostWeights(nearly, nearly)
        for stored in (w.Q, w.R):
            np.testing.assert_array_equal(stored, stored.T)
            np.testing.assert_allclose(stored, nearly, rtol=0.0, atol=5e-10)


class TestComposeCost:
    def test_scalar_full_share(self):
        w1 = CostWeights([[1.0]], [[1.0]])
        w2 = CostWeights([[1.0]], [[1.0]])
        cm = build_composition_matrix(CompositionPattern(1, 1, ((0, 0),)))
        q, r = compose_cost(w1, w2, cm)
        np.testing.assert_allclose(q, [[2.0]])
        np.testing.assert_allclose(r, np.eye(2))

    def test_input_weight_never_mixes(self):
        rng = np.random.default_rng(3)
        h1, h2 = rng.standard_normal((2, 2)), rng.standard_normal((1, 1))
        w1 = CostWeights(np.eye(2), h1.T @ h1 + 0.1 * np.eye(2))
        w2 = CostWeights(np.eye(2), h2.T @ h2 + 0.1 * np.eye(1))
        cm = build_composition_matrix(CompositionPattern(2, 2, ((0, 0), (1, 1))))
        _, r = compose_cost(w1, w2, cm)
        np.testing.assert_allclose(r[:2, :2], w1.R)
        np.testing.assert_allclose(r[2:, 2:], w2.R)
        np.testing.assert_allclose(r[:2, 2:], 0.0)

    def test_composite_weight_stays_psd(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n1, n2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            g1, g2 = rng.standard_normal((n1, n1)), rng.standard_normal((n2, n2))
            w1 = CostWeights(g1.T @ g1, np.eye(1))
            w2 = CostWeights(g2.T @ g2, np.eye(1))
            k = int(rng.integers(0, min(n1, n2) + 1))
            firsts = rng.choice(n1, size=k, replace=False)
            seconds = rng.choice(n2, size=k, replace=False)
            pattern = CompositionPattern(
                n1, n2, tuple((int(a), int(b)) for a, b in zip(firsts, seconds))
            )
            q, _ = compose_cost(w1, w2, build_composition_matrix(pattern))
            np.testing.assert_allclose(q, q.T, atol=1e-12)
            assert np.linalg.eigvalsh(q).min() >= -1e-9

    def test_decides_no_definiteness(self, monkeypatch):
        # both weights passed CostWeights, so K^T Q_s K is PSD by congruence
        # and needs no eigenvalues of its own
        w1 = CostWeights(np.diag([2.0, 0.0]), [[1.0]])
        w2 = CostWeights([[3.0]], [[1.0]])
        kmat = build_composition_matrix(CompositionPattern(2, 1, ((1, 0),)))

        def refuse(*args, **kwargs):
            raise AssertionError("a definiteness decision ran")

        monkeypatch.setattr(matkit, "_definiteness", refuse)
        q, r = compose_cost(w1, w2, kmat)
        np.testing.assert_array_equal(q, np.diag([2.0, 3.0]))
        np.testing.assert_array_equal(r, np.eye(2))
        # the PD verdict is the weights': Q1 is singular, so it is False
        # even though sharing made this Q_c definite
        assert _compose_cost(w1, w2, kmat)[2] is False


class TestComposeGains:
    def test_scalar_full_share(self):
        cm = build_composition_matrix(CompositionPattern(1, 1, ((0, 0),)))
        f = compose_gains([[2.0]], [[3.0]], cm)
        np.testing.assert_allclose(f, [[2.0], [3.0]])

    def test_no_share_block_diagonal(self):
        cm = build_composition_matrix(CompositionPattern(2, 1))
        f = compose_gains([[1.0, 2.0]], [[3.0]], cm)
        np.testing.assert_allclose(f, [[1.0, 2.0, 0.0], [0.0, 0.0, 3.0]])

    def test_shape_guard(self):
        cm = build_composition_matrix(CompositionPattern(2, 2))
        with pytest.raises(ShapeError):
            compose_gains([[1.0]], [[1.0]], cm)


class TestClosedLoop:
    def test_zero_gain_is_open_loop(self):
        s1 = LinearSystem("one", [[-1.0]], [[1.0]])
        s2 = LinearSystem("two", [[-2.0]], [[1.0]])
        comp = compose_open_loop(s1, s2, CompositionPattern(1, 1, ((0, 0),)))
        np.testing.assert_allclose(
            closed_loop_matrix(comp, np.zeros((2, 1))), comp.A
        )

    def test_scalar_counterexample_closed_loop(self):
        s1 = LinearSystem("one", [[-1.0]], [[1.0]])
        s2 = LinearSystem("two", [[-2.0]], [[1.0]])
        comp = compose_open_loop(s1, s2, CompositionPattern(1, 1, ((0, 0),)))
        p1 = math.sqrt(2.0) - 1.0
        p2 = math.sqrt(5.0) - 2.0
        f = compose_gains([[-p1]], [[-p2]], comp.coupling)
        a_cl = closed_loop_matrix(comp, f)
        np.testing.assert_allclose(a_cl, [[-3.0 - p1 - p2]], atol=1e-14)

    def test_factorization_identity(self):
        # A_c + B_c (F_s K) equals K^T (A_s + B_s F_s) K, entry by entry up
        # to round-off, for any block gain
        rng = np.random.default_rng(8)
        for _ in range(50):
            n1, n2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            m1, m2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            s1 = LinearSystem("one", rng.standard_normal((n1, n1)),
                              rng.standard_normal((n1, m1)))
            s2 = LinearSystem("two", rng.standard_normal((n2, n2)),
                              rng.standard_normal((n2, m2)))
            k = int(rng.integers(0, min(n1, n2) + 1))
            firsts = rng.choice(n1, size=k, replace=False)
            seconds = rng.choice(n2, size=k, replace=False)
            pattern = CompositionPattern(
                n1, n2, tuple((int(a), int(b)) for a, b in zip(firsts, seconds))
            )
            comp = compose_open_loop(s1, s2, pattern)
            f1 = rng.standard_normal((m1, n1))
            f2 = rng.standard_normal((m2, n2))
            f = compose_gains(f1, f2, comp.coupling)
            lhs = closed_loop_matrix(comp, f)
            f_stacked = block_diag(f1, f2)
            kmat = comp.coupling
            rhs = kmat.T @ (comp.A_stacked + comp.B_stacked @ f_stacked) @ kmat
            scale = 1.0 + max(np.abs(lhs).max(), np.abs(rhs).max())
            assert np.abs(lhs - rhs).max() <= 1e-12 * scale

    def test_symmetric_stable_blocks_compose_stable(self):
        # symmetric Hurwitz closed-loop blocks survive composition because
        # K^T (negative definite) K stays negative definite
        rng = np.random.default_rng(9)
        for _ in range(200):
            n1, n2 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            blocks = []
            for n in (n1, n2):
                g = rng.standard_normal((n, n))
                sym = g + g.T
                shift = float(np.linalg.eigvalsh(sym).max()) + 0.1
                blocks.append(sym - shift * np.eye(n))
            k = int(rng.integers(0, min(n1, n2) + 1))
            firsts = rng.choice(n1, size=k, replace=False)
            seconds = rng.choice(n2, size=k, replace=False)
            pattern = CompositionPattern(
                n1, n2, tuple((int(a), int(b)) for a, b in zip(firsts, seconds))
            )
            kmat = build_composition_matrix(pattern)
            composite = kmat.T @ block_diag(*blocks) @ kmat
            res = is_hurwitz(composite)
            assert res.hurwitz, f"max Re {res.max_real_part} for k={k}"

    def test_asymmetric_stable_blocks_verdict_recorded(self):
        # no claim either way: composing stable asymmetric blocks may or may
        # not stay stable, so only record what the check says
        a1 = np.array([[-0.1, 5.0], [0.0, -0.1]])
        a2 = np.array([[-0.1, 0.0], [5.0, -0.1]])
        pattern = CompositionPattern(2, 2, ((0, 0), (1, 1)))
        kmat = build_composition_matrix(pattern)
        composite = kmat.T @ block_diag(a1, a2) @ kmat
        verdict = is_hurwitz(composite)
        assert isinstance(verdict.hurwitz, bool)
        assert is_hurwitz(a1).hurwitz and is_hurwitz(a2).hurwitz
        print(
            f"asymmetric stable pair composes to max Re = "
            f"{verdict.max_real_part:.6f} (hurwitz={verdict.hurwitz})"
        )
