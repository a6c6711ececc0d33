import math

import numpy as np
import pytest

from rsmlqr import lqr, riccati, sim
from rsmlqr.errors import (
    DetectabilityWarning,
    InconsistencyError,
    InvalidArgumentError,
    NotPSDError,
    NotStabilizableError,
    NotSymmetricError,
    NumericalFailureError,
    ShapeError,
)
from rsmlqr.lqr import (
    SearchConfig,
    check_exact_condition,
    check_necessary_condition,
    check_sufficient_condition,
    compare_gains,
    counterexample_search,
    evaluate_composition,
    lqr_composite,
    lqr_subsystem,
    sample_instance,
)
from rsmlqr.matkit import RankTest, is_hurwitz
from rsmlqr.riccati import rectangular_riccati_residual
from rsmlqr.rsm import (
    CompositionPattern,
    CostWeights,
    LinearSystem,
    compose_cost,
    compose_open_loop,
)

from numpy_oracles import block_diag, sample_system, sample_weights

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)
SQRT13 = math.sqrt(13.0)

UNIT_WEIGHTS = CostWeights([[1.0]], [[1.0]])
FULL_SHARE = CompositionPattern(1, 1, ((0, 0),))


def scalar_system(name, a):
    return LinearSystem(name, [[a]], [[1.0]])


def counterexample_analysis(**kwargs):
    return evaluate_composition(
        scalar_system("one", -1.0),
        scalar_system("two", -2.0),
        FULL_SHARE,
        UNIT_WEIGHTS,
        UNIT_WEIGHTS,
        **kwargs,
    )


def twin_analysis(**kwargs):
    return evaluate_composition(
        scalar_system("one", -1.0),
        scalar_system("two", -1.0),
        FULL_SHARE,
        UNIT_WEIGHTS,
        UNIT_WEIGHTS,
        **kwargs,
    )


class TestLqrSubsystem:
    def test_scalar_design(self):
        design = lqr_subsystem(scalar_system("one", -1.0), UNIT_WEIGHTS)
        assert design.P[0, 0] == pytest.approx(SQRT2 - 1.0, abs=1e-12)
        assert design.F[0, 0] == pytest.approx(1.0 - SQRT2, abs=1e-12)

    def test_zero_state_weight(self):
        weights = CostWeights([[0.0]], [[1.0]])
        design = lqr_subsystem(scalar_system("one", -1.0), weights)
        assert design.P[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert design.F[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_weight_dimension_guard(self):
        with pytest.raises(ShapeError):
            lqr_subsystem(
                LinearSystem("one", np.diag([-1.0, -1.0]), np.eye(2)),
                UNIT_WEIGHTS,
            )

    def test_gain_matches_definition(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            sys1, _, _, w1, _ = sample_instance(rng, (1, 5), (1, 3), (0, 0))
            design = lqr_subsystem(sys1, w1)
            expected = -np.linalg.solve(w1.R, sys1.B.T @ design.P)
            assert np.abs(design.F - expected).max() <= 1e-12 * (
                1.0 + np.abs(expected).max()
            )
            # it is the certified gain, and the loop it closes is stable
            assert design.F is design.solution.F
            assert design.solution.closed_loop_max_re < 0.0

    def test_undetectable_weight_warns(self):
        # unstable first state carries no cost, so (A, sqrt(Q)) misses it
        system = LinearSystem("odd", np.diag([1.0, -1.0]), np.eye(2))
        weights = CostWeights(np.diag([0.0, 1.0]), np.eye(2))
        with pytest.warns(DetectabilityWarning):
            design = lqr_subsystem(system, weights)
        assert design.notes
        assert design.solution.closed_loop_max_re < 0.0

    def test_unweighted_mode_just_left_of_axis_warns(self):
        # Re = -1e-12 lies within the PBH edge -1e-9 * (1 + max|A|), so the
        # unweighted first mode counts as on the axis
        system = LinearSystem("slow", np.diag([-1e-12, -1.0]), np.eye(2))
        weights = CostWeights(np.diag([0.0, 1.0]), np.eye(2))
        with pytest.warns(DetectabilityWarning):
            lqr_subsystem(system, weights)

    def test_detectable_weight_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DetectabilityWarning)
            lqr_subsystem(scalar_system("one", -1.0), UNIT_WEIGHTS)

    @pytest.mark.parametrize(
        "a, q, factors",
        [
            # a PD Q makes every mode observable: never factored
            pytest.param(np.diag([-1.0, -2.0]), np.eye(2), 0, id="stable-pd_q"),
            pytest.param(np.diag([1.0, -2.0]), np.eye(2), 0, id="unstable-pd_q"),
            # a singular Q is factored only when A has an eigenvalue to test
            pytest.param(np.diag([-1.0, -2.0]), np.diag([1.0, 0.0]), 0, id="stable-singular_q"),
            pytest.param(np.diag([1.0, -2.0]), np.diag([1.0, 0.0]), 1, id="unstable-singular_q"),
        ],
    )
    def test_state_weight_factored_only_for_unstable_modes(self, monkeypatch, a, q, factors):
        calls = []
        factor = lqr.psd_sqrt_factor

        def counting(m):
            calls.append(m)
            return factor(m)

        monkeypatch.setattr(lqr, "psd_sqrt_factor", counting)
        lqr_subsystem(LinearSystem("s", a, np.eye(2)), CostWeights(q, np.eye(2)))
        assert len(calls) == factors


class TestLqrComposite:
    def test_scalar_reduced_system(self):
        comp = compose_open_loop(
            scalar_system("one", -1.0), scalar_system("two", -2.0), FULL_SHARE
        )
        design = lqr_composite(comp, [[2.0]], np.eye(2))
        assert design.P[0, 0] == pytest.approx((SQRT13 - 3.0) / 2.0, abs=1e-12)
        expected_f = -design.P[0, 0]
        np.testing.assert_allclose(
            design.F, [[expected_f], [expected_f]], atol=1e-12
        )

    def test_weight_guard(self):
        comp = compose_open_loop(
            scalar_system("one", -1.0), scalar_system("two", -2.0), FULL_SHARE
        )
        with pytest.raises(ShapeError):
            lqr_composite(comp, np.eye(2), np.eye(2))


class TestExactCondition:
    def test_counterexample_deviation(self):
        analysis = counterexample_analysis()
        expected = abs((SQRT2 - 1.0) - (SQRT13 - 3.0) / 2.0)
        assert analysis.report.exact.deviation == pytest.approx(expected, abs=1e-9)
        assert not analysis.report.exact.equivalent

    def test_twin_is_equivalent(self):
        analysis = twin_analysis()
        assert analysis.report.exact.deviation <= 1e-9
        assert analysis.report.exact.equivalent

    def test_no_sharing_always_equivalent(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            sys1, sys2, pattern, w1, w2 = sample_instance(rng, (1, 4), (1, 2), (0, 0))
            report = evaluate_composition(sys1, sys2, pattern, w1, w2).report
            assert report.exact.deviation_rel <= 1e-9
            assert report.gains.equivalent

    def test_direct_call_shapes(self):
        with pytest.raises(ShapeError):
            check_exact_condition(np.eye(3), np.ones((2, 1)), np.eye(1))

    def test_report_verdict_is_the_exact_test(self):
        assert counterexample_analysis().report.compositional is False
        assert twin_analysis().report.compositional is True


class TestNecessaryCondition:
    def test_counterexample_fails_symmetry(self):
        analysis = counterexample_analysis()
        nec = analysis.report.necessary
        assert not nec.symmetric and not nec.psd and not nec.passes

    def test_twin_passes(self):
        nec = twin_analysis().report.necessary
        assert nec.symmetric and nec.psd and nec.passes
        assert nec.min_eigenvalue == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        # P_s K K^T for the scalar counterexample is [[p1, p1], [p2, p2]]
        p1, p2 = SQRT2 - 1.0, SQRT5 - 2.0
        p_stacked = np.diag([p1, p2])
        kmat = np.array([[1.0], [1.0]])
        nec = check_necessary_condition(p_stacked, kmat)
        assert not nec.symmetric
        product = p_stacked @ kmat @ kmat.T
        np.testing.assert_allclose(product, [[p1, p1], [p2, p2]])

    def test_no_sharing_identity_coupling(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            sys1, _, _, w1, _ = sample_instance(rng, (1, 4), (1, 2), (0, 0))
            p = lqr_subsystem(sys1, w1).P
            nec = check_necessary_condition(p, np.eye(p.shape[0]))
            assert nec.passes


class TestSufficientCondition:
    def test_counterexample_hypothesis_fails(self):
        suff = counterexample_analysis().report.sufficient
        assert not suff.hypothesis_ok
        assert not suff.predicts_compositional

    def test_twin_observability_breaks_down(self):
        # shared scalar state: P_s K K^T is symmetric PSD and the input
        # pair (A_s K K^T, B_s) is controllable, but K Q_c K^T has rank 1 against a
        # 2-dimensional stacked state, so no prediction is made even though
        # the designs do coincide: the test is one-sided
        report = twin_analysis().report
        suff = report.sufficient
        assert suff.hypothesis_ok
        assert suff.controllability.ok
        assert not suff.observability.ok
        assert suff.observability.rank == 1
        assert not suff.predicts_compositional
        assert report.exact.equivalent

    def test_no_sharing_predicts(self):
        rng = np.random.default_rng(29)
        predicted = 0
        for _ in range(50):
            sys1, sys2, pattern, w1, w2 = sample_instance(rng, (1, 4), (1, 2), (0, 0))
            report = evaluate_composition(sys1, sys2, pattern, w1, w2).report
            if report.sufficient.predicts_compositional:
                predicted += 1
                assert report.exact.equivalent
        # PD weights and decoupled dynamics: the hypotheses hold generically
        assert predicted == 50

    @pytest.mark.parametrize(
        "b_stacked, r_stacked",
        [
            (np.ones((3, 2)), np.eye(2)),  # B_s rows differ from A_s
            (np.eye(2), np.eye(3)),  # R_s larger than B_s's columns
            (np.eye(2), np.eye(1)),  # R_s smaller than B_s's columns
        ],
    )
    def test_shape_mismatch_is_shape_error(self, b_stacked, r_stacked):
        with pytest.raises(ShapeError):
            check_sufficient_condition(
                np.diag([-1.0, -2.0]),
                b_stacked,
                np.array([[1.0], [1.0]]),
                [[2.0]],
                r_stacked,
                np.diag([0.3, 0.2]),
            )

    @pytest.mark.parametrize(
        "q_composite, error",
        [
            ([[1.0, 2.0], [0.0, 1.0]], NotSymmetricError),
            (np.diag([-1.0, 1.0]), NotPSDError),
        ],
    )
    def test_rejects_bad_composite_state_weight(self, q_composite, error):
        with pytest.raises(error, match="composite state weight"):
            check_sufficient_condition(
                np.diag([-1.0, -2.0]),
                np.eye(2),
                np.eye(2),
                q_composite,
                np.eye(2),
                np.diag([0.3, 0.2]),
            )

    def test_rejects_semidefinite_input_weight(self):
        from rsmlqr.errors import NotPDError

        with pytest.raises(NotPDError):
            check_sufficient_condition(
                np.diag([-1.0, -2.0]),
                np.eye(2),
                np.array([[1.0], [1.0]]),
                [[2.0]],
                np.diag([1.0, 0.0]),
                np.diag([0.3, 0.2]),
            )


class TestObservabilityOnTheCompositePair:
    """With ``D = F K^T`` and ``F^T F = Q_c``, ``D (A_s K K^T)^j = F A_c^j K^T``:
    the observability matrix of the stacked pair is that of ``(A_c, F)``
    times ``K^T``, so its rank is at most the composite order ``c = s - k``
    and the stacked order ``s`` is out of reach once a state is shared."""

    def test_rank_is_at_most_the_composite_order(self):
        rng = np.random.default_rng(5)
        shared = 0
        for _ in range(400):
            sys1, sys2, pattern, w1, w2 = sample_instance(rng, (1, 6), (1, 2), (0, 4))
            composite = compose_open_loop(sys1, sys2, pattern)
            q_c, r_c = compose_cost(w1, w2, composite.coupling)
            s = composite.A_stacked.shape[0]
            # the observability half does not read P_s
            obsv = check_sufficient_condition(
                composite.A_stacked, composite.B_stacked, composite.coupling,
                q_c, r_c, np.zeros((s, s)),
            ).observability
            assert obsv.required == s
            assert obsv.rank <= s - pattern.k_shared
            assert obsv.ok == (obsv.rank == s)
            shared += pattern.k_shared > 0
        assert shared > 200

    def test_cholesky_factor_reads_the_eigen_factors_rank_and_margin(self):
        # a PD Q_c takes its Cholesky factor; the two factors differ by an
        # orthogonal mix of columns, so the staircase reads the same test
        rng = np.random.default_rng(6)
        for _ in range(100):
            sys1, sys2, pattern, w1, w2 = sample_instance(rng, (1, 6), (1, 2), (0, 4))
            composite = compose_open_loop(sys1, sys2, pattern)
            q_c, _ = compose_cost(w1, w2, composite.coupling)
            a_c = composite.A.T
            chol = lqr._staircase(a_c, lqr._weight_factor(q_c, True))
            eigen = lqr._staircase(a_c, lqr._weight_factor(q_c, False))
            assert chol.rank == eigen.rank
            assert chol.margin == pytest.approx(eigen.margin, rel=1e-12, abs=1e-15)


def drawn_subsystem(rng, n, inputs=2):
    """A stable n-state subsystem with PD weights, drawn the way the
    scale-gap benchmark draws one: Gaussian ``A / sqrt(n)`` shifted left of
    ``Re = -0.5``, uniform ``B``, and Gram weights plus ``0.1 I``."""
    a = rng.standard_normal((n, n)) / math.sqrt(n)
    a -= (np.linalg.eigvals(a).real.max() + 0.5) * np.eye(n)
    b = rng.uniform(-1.0, 1.0, (n, inputs))
    g = rng.standard_normal((n, n))
    h = rng.standard_normal((inputs, inputs))
    weights = CostWeights(g.T @ g / n + 0.1 * np.eye(n), h.T @ h / inputs + 0.1 * np.eye(inputs))
    return LinearSystem("drawn", a, b), weights


class TestSufficientAtScale:
    """The rank tests keep the sufficient condition's power as the order
    grows, and it never contradicts the exact test."""

    @pytest.mark.parametrize("order", [20, 40, 60, 80, 100, 160])
    def test_unshared_pairs_are_predicted(self, order):
        # K = I: decoupled dynamics and PD weights make every hypothesis
        # hold, so the prediction must come out at every order
        n = order // 2
        rng = np.random.default_rng(order)
        (sys1, w1), (sys2, w2) = drawn_subsystem(rng, n), drawn_subsystem(rng, n)
        report = evaluate_composition(sys1, sys2, CompositionPattern(n, n, ()), w1, w2).report
        suff = report.sufficient
        assert report.exact.equivalent
        assert suff.controllability == (True, order, order, suff.controllability.margin)
        assert suff.observability.ok
        assert suff.predicts_compositional

    def test_sweep_raises_no_inconsistency(self):
        # composite orders 4-60: no sharing, a quarter shared, and twins
        # sharing every state; evaluate_composition raises
        # InconsistencyError if a prediction contradicts the exact test
        rng = np.random.default_rng(460)
        predicted = 0
        for n in range(2, 31, 2):
            (sys1, w1), (sys2, w2) = drawn_subsystem(rng, n), drawn_subsystem(rng, n)
            shared = tuple(
                zip(rng.choice(n, n // 4, replace=False).tolist(),
                    rng.choice(n, n // 4, replace=False).tolist())
            )
            twins = tuple((i, i) for i in range(n))
            for other, ww, pairs in ((sys2, w2, ()), (sys2, w2, shared), (sys1, w1, twins)):
                report = evaluate_composition(
                    sys1, other, CompositionPattern(n, n, pairs), w1, ww
                ).report
                if report.sufficient.predicts_compositional:
                    predicted += 1
                    assert report.exact.equivalent
        assert predicted >= 15  # at least every unshared pair


class TestEigenvalueFreePipeline:
    """The Riccati certificates are Cholesky factorizations, and
    ``closed_loop_max_re`` is computed only when it is read."""

    def test_evaluate_makes_no_eigvals_call(self, monkeypatch):
        # composite order 44: two drawn subsystems of order 24, 4 shared
        rng = np.random.default_rng(44)
        (sys1, w1), (sys2, w2) = drawn_subsystem(rng, 24), drawn_subsystem(rng, 24)
        pattern = CompositionPattern(24, 24, ((0, 3), (5, 7), (11, 2), (20, 19)))
        calls = {"eigvals": 0, "eigvalsh": 0}
        for name in calls:
            real = getattr(np.linalg, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        analysis = evaluate_composition(
            sys1, sys2, pattern, w1, w2, x0=np.ones(44)
        )
        gap = analysis.report.gap
        assert gap.stable_composed and gap.stable_direct
        assert analysis.direct.solution.method == "doubling"
        # the one symmetric eigenvalue problem is the necessary test's
        # reported minimum eigenvalue of P_s K K^T
        assert calls == {"eigvals": 0, "eigvalsh": 1}

        sol = analysis.direct.solution
        a_cl = analysis.composite.A + analysis.composite.B @ sol.F
        first = sol.closed_loop_max_re
        assert calls["eigvals"] == 1
        assert sol.closed_loop_max_re == first
        assert calls["eigvals"] == 1
        monkeypatch.undo()
        assert first == is_hurwitz(a_cl).max_real_part < 0.0
        assert sol.stabilizing


class TestCompareGains:
    def test_counterexample_gains_differ(self):
        analysis = counterexample_analysis()
        gains = analysis.report.gains
        p1, pc = SQRT2 - 1.0, (SQRT13 - 3.0) / 2.0
        assert gains.deviation == pytest.approx(abs(p1 - pc), abs=1e-9)
        assert not gains.equivalent

    def test_twin_gains_match(self):
        gains = twin_analysis().report.gains
        assert gains.deviation <= 1e-9
        assert gains.equivalent

    def test_identical_gains(self):
        f = np.array([[1.0, 2.0]])
        check = compare_gains(f, f.copy())
        assert check.deviation == 0.0 and check.equivalent

    def test_shape_guard(self):
        with pytest.raises(ShapeError):
            compare_gains(np.ones((1, 2)), np.ones((2, 1)))


class TestCheckAgreement:
    """The separate verdicts have to tell one coherent story."""

    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_random_suite_invariants(self, seed):
        rng = np.random.default_rng(seed)
        equivalent_count = 0
        for _ in range(100):
            sys1, sys2, pattern, w1, w2 = sample_instance(rng, (1, 4), (1, 2), (0, 2))
            analysis = evaluate_composition(sys1, sys2, pattern, w1, w2)
            report = analysis.report
            # gain equivalence tracks solution equivalence
            assert report.gains.equivalent == report.exact.equivalent
            # necessity: an equivalent instance never fails the necessary check
            if report.exact.equivalent:
                equivalent_count += 1
                assert report.necessary.passes
            # sufficiency: a prediction never contradicts the exact test
            # (evaluate_composition would have raised otherwise)
            if report.sufficient.predicts_compositional:
                assert report.exact.equivalent
        assert equivalent_count > 0  # the suite exercises both outcomes

    def test_rectangular_residual_on_both_solutions(self):
        # both the stacked block solution and the lifted composite solution
        # satisfy the rectangular composite equation
        linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(71)
        for _ in range(100):
            sys1, sys2, pattern, w1, w2 = sample_instance(rng, (1, 4), (1, 2), (0, 2))
            analysis = evaluate_composition(sys1, sys2, pattern, w1, w2)
            comp = analysis.composite
            r_stacked = linalg.block_diag(w1.R, w2.R)
            for x in (
                analysis.P_stacked @ comp.coupling,
                comp.coupling @ analysis.direct.P,
            ):
                _, norm = rectangular_riccati_residual(
                    comp.A_stacked, comp.B_stacked, comp.coupling,
                    analysis.Q, r_stacked, x,
                )
                scale = 1.0 + np.linalg.norm(x) ** 2 * np.linalg.norm(comp.B_stacked) ** 2
                assert norm <= 1e-8 * scale

    def test_embedded_residual_for_symmetric_candidates(self):
        # K P_c K^T is symmetric; when the designs are equivalent it solves
        # the embedded equation
        #   -X (A_s K K^T) - (A_s K K^T)^T X - K Q_c K^T + X B_s R_s^{-1} B_s^T X = 0
        analysis = twin_analysis()
        comp = analysis.composite
        kmat = comp.coupling
        x = kmat @ analysis.direct.P @ kmat.T
        akk = comp.A_stacked @ kmat @ kmat.T
        b_s, r_s = comp.B_stacked, np.eye(2)
        res = (
            -x @ akk - akk.T @ x - kmat @ analysis.Q @ kmat.T
            + x @ b_s @ np.linalg.solve(r_s, b_s.T @ x)
        )
        assert np.linalg.norm(res) <= 1e-9


class TestEvaluateComposition:
    def test_gap_attached_when_x0_given(self):
        analysis = counterexample_analysis(x0=np.ones(1))
        gap = analysis.report.gap
        assert gap is not None
        assert gap.gap == pytest.approx(0.0023105, abs=1e-6)
        assert analysis.report.gap.stable_composed and gap.stable_direct

    def test_gap_absent_by_default(self):
        assert counterexample_analysis().report.gap is None

    def test_weight_of_the_wrong_size_is_a_shape_error(self):
        # the pairing rule runs before the weights enter the composite cost
        system = LinearSystem("pair", -np.eye(2), np.ones((2, 1)))
        with pytest.raises(ShapeError, match="pair: state weight Q has 3 rows"):
            evaluate_composition(
                system, scalar_system("one", -1.0), CompositionPattern(2, 1),
                CostWeights(np.eye(3), [[1.0]]), UNIT_WEIGHTS,
            )

    def test_notes_propagate(self):
        system = LinearSystem("odd", np.diag([1.0, -1.0]), np.eye(2))
        weights = CostWeights(np.diag([0.0, 1.0]), np.eye(2))
        other = LinearSystem("even", [[-1.0]], [[1.0]])
        with pytest.warns(DetectabilityWarning):
            analysis = evaluate_composition(
                system, other, CompositionPattern(2, 1),
                weights, UNIT_WEIGHTS,
            )
        assert any("detectable" in note for note in analysis.report.notes)

    def test_sharing_the_unweighted_state_makes_the_composite_detectable(self):
        # Q1 = 0 leaves subsystem one's unstable mode unseen, but its state
        # is shared with subsystem two, whose Q2 = 1 sees it: Q_c = 1 is PD,
        # though not both weights are, so the composite runs the PBH test
        # and finds every mode observable
        weights = CostWeights([[0.0]], [[1.0]])
        with pytest.warns(DetectabilityWarning, match="odd:"):
            analysis = evaluate_composition(
                scalar_system("odd", 1.0), scalar_system("even", -2.0),
                FULL_SHARE, weights, UNIT_WEIGHTS,
            )
        np.testing.assert_array_equal(analysis.Q, [[1.0]])
        assert len(analysis.report.notes) == 1
        assert analysis.report.notes[0].startswith("odd:")
        assert analysis.direct.notes == ()

    @pytest.mark.parametrize(
        "n_range, k_range",
        [((1, 3), (0, 2)), ((1, 6), (0, 3)), ((1, 6), (0, 0))],
        ids=["n-up-to-3", "n-up-to-6", "K-identity"],
    )
    def test_report_equals_public_gates(self, n_range, k_range):
        # the pipeline runs the checks' kernels; each field must be exactly
        # what the validating public function returns on the same arrays
        rng = np.random.default_rng(404)
        tol = 1e-8
        for _ in range(20):
            sys1, sys2, pattern, w1, w2 = sample_instance(rng, n_range, (1, 2), k_range)
            analysis = evaluate_composition(sys1, sys2, pattern, w1, w2, tol)
            report = analysis.report
            comp = analysis.composite
            a_s, b_s, kmat = comp.A_stacked, comp.B_stacked, comp.coupling
            p_s, p_c = analysis.P_stacked, analysis.direct.P
            assert report.exact == check_exact_condition(p_s, kmat, p_c, tol)
            assert report.necessary == check_necessary_condition(p_s, kmat, tol)
            assert report.sufficient == check_sufficient_condition(
                a_s, b_s, kmat, analysis.Q, analysis.R, p_s, tol
            )
            assert report.gains == compare_gains(analysis.direct.F, analysis.F_composed, tol)
            for x, field in (
                (p_s @ kmat, report.rect_residual_stacked),
                (kmat @ p_c, report.rect_residual_composite),
            ):
                public = rectangular_riccati_residual(
                    a_s, b_s, kmat, analysis.Q, analysis.R, x
                )[1]
                assert field == public

    def test_gap_work_counts(self, monkeypatch):
        # Composite order 42 with PD weights: the designs compute no
        # determinant, the PBH eigenvalues are skipped for the PD Q, the
        # direct cost is x0' P_c x0, and the Lyapunov solves read their
        # Hurwitz gate off the sign.  What is left of the nonsymmetric
        # eigenvalue calls is one closed-loop certificate per design.
        rng = np.random.default_rng(42)
        sys1, sys2, pattern, w1, w2 = sample_instance(rng, (24, 24), (2, 2), (6, 6))
        counts = {"slogdet": 0, "eigvals": 0, "solve_lyapunov": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(np.linalg, "slogdet")
        counting(np.linalg, "eigvals")
        counting(sim, "solve_lyapunov")
        analysis = evaluate_composition(
            sys1, sys2, pattern, w1, w2, x0=np.ones(42)
        )
        assert analysis.composite.n == 42
        assert analysis.report.gap.stable_composed
        assert counts["slogdet"] == 0
        assert counts["solve_lyapunov"] == 1
        assert counts["eigvals"] <= 3


class TestCounterexampleSearch:
    def test_scalar_search_finds_counterexamples(self):
        config = SearchConfig(
            n_range=(1, 1), m_range=(1, 1), k_range=(1, 1),
            trials=100, seed=0, deviation_threshold=1e-2,
        )
        result = counterexample_search(config)
        assert result.trials == 100
        assert len(result.found) > 0
        for inst in result.found:
            assert inst.deviation > 1e-2
            assert not inst.report.exact.equivalent
            assert inst.pattern.k_shared == 1

    def test_deterministic_replay(self):
        config = SearchConfig(trials=60, seed=1234)
        first = counterexample_search(config)
        second = counterexample_search(config)
        assert len(first.found) == len(second.found)
        for a, b in zip(first.found, second.found):
            assert a.trial == b.trial
            assert a.deviation == b.deviation  # bit-for-bit
            np.testing.assert_array_equal(a.system1.A, b.system1.A)
            np.testing.assert_array_equal(a.weights2.Q, b.weights2.Q)
            assert a.pattern.pairs == b.pattern.pairs

    def test_zero_trials(self):
        result = counterexample_search(SearchConfig(trials=0, seed=5))
        assert result.found == () and result.trials == 0

    def test_unreachable_threshold(self):
        config = SearchConfig(trials=30, seed=2, deviation_threshold=math.inf)
        assert counterexample_search(config).found == ()

    def test_found_instances_replay_outside_search(self):
        config = SearchConfig(
            n_range=(1, 2), m_range=(1, 2), k_range=(0, 2), trials=40, seed=9,
        )
        result = counterexample_search(config)
        assert result.found  # seed 9 produces at least one
        inst = result.found[0]
        replay = evaluate_composition(
            inst.system1, inst.system2, inst.pattern,
            inst.weights1, inst.weights2,
        )
        assert replay.report.exact.deviation == pytest.approx(
            inst.deviation, rel=1e-12
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(n_range=(3, 1))
        with pytest.raises(ValueError):
            SearchConfig(trials=-1)
        with pytest.raises(ValueError, match="NaN"):
            SearchConfig(deviation_threshold=math.nan)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_range": (3, 1)},
            {"n_range": (0, 1)},
            {"trials": -1},
            {"deviation_threshold": math.nan},
            {"trials": 2.5},
            {"trials": True},
            {"k_range": (0, "a")},
            {"n_range": (1.5, 2.5)},
            {"seed": -1},
            {"n_range": (1, 2, 3)},
            {"n_range": 5},
            {"deviation_threshold": "x"},
            {"deviation_threshold": None},
            {"deviation_threshold": True},
        ],
    )
    def test_config_errors_are_invalid_argument_errors(self, kwargs):
        with pytest.raises(InvalidArgumentError):
            SearchConfig(**kwargs)

    def test_one_stacked_sign_call_per_care_shape(self, monkeypatch):
        # 50 trials make 150 CAREs of order <= 6, all on the sign path: each
        # shape (n, m) is one stacked solve and one stacked sign iteration,
        # and no CARE is solved alone
        groups, signs = [], []
        stack_solve, sign = lqr._solve_care_stack, riccati._sign_newton

        def solving(a, b, q, r):
            groups.append(b.shape)
            return stack_solve(a, b, q, r)

        def signing(z):
            signs.append(len(z))
            return sign(z)

        def alone(*args):
            raise AssertionError("a search CARE was solved alone")

        monkeypatch.setattr(lqr, "_solve_care_stack", solving)
        monkeypatch.setattr(riccati, "_sign_newton", signing)
        monkeypatch.setattr(lqr, "_solve_care", alone)
        monkeypatch.setattr(riccati, "_solve_care", alone)
        result = counterexample_search(SearchConfig(trials=50, seed=7))
        shapes = [shape[1:] for shape in groups]
        assert len(shapes) == len(set(shapes))
        assert sum(shape[0] for shape in groups) == 150
        assert len(signs) == len(groups) and sum(signs) == 150
        assert result.trials == 50 and result.found

    def test_one_stacked_eigvalsh_per_weight_order_and_per_s(self, monkeypatch):
        # a 50-trial search gates its 200 weights with one eigvalsh per
        # weight order, then tests its necessary conditions with one eigvalsh
        # per stacked order s
        config = SearchConfig(trials=50, seed=7)
        rng = np.random.default_rng(config.seed)
        instances = [
            sample_instance(rng, config.n_range, config.m_range, config.k_range)
            for _ in range(config.trials)
        ]
        orders = {n for sys1, sys2, *_ in instances for n in (sys1.n, sys2.n, sys1.m, sys2.m)}
        stacked = {sys1.n + sys2.n for sys1, sys2, *_ in instances}
        calls, eigvalsh = [], np.linalg.eigvalsh

        def counting(x):
            calls.append(x.shape)
            return eigvalsh(x)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        result = counterexample_search(config)
        assert result.skipped == 0
        gates, necessary = calls[:len(orders)], calls[len(orders):]
        assert sorted(shape[1] for shape in gates) == sorted(orders)
        assert sum(shape[0] for shape in gates) == 4 * config.trials
        assert sorted(shape[1] for shape in necessary) == sorted(stacked)
        assert sum(shape[0] for shape in necessary) == config.trials

    def test_member_errors_stay_with_their_trials(self, monkeypatch):
        # the checks of a chunk run stacked, but a staircase that raises for
        # one trial skips that trial alone, and the rest keep their reports
        config = SearchConfig(trials=40, seed=2, deviation_threshold=-math.inf)
        whole = counterexample_search(config)
        assert whole.skipped == 0 and len(whole.found) == config.trials
        target = whole.found[5]
        b_stacked = block_diag(target.system1.B, target.system2.B)
        staircase = lqr._staircase

        def failing(a, b):
            if b.shape == b_stacked.shape and np.array_equal(b, b_stacked):
                raise NumericalFailureError("SVD failed: injected")
            return staircase(a, b)

        monkeypatch.setattr(lqr, "_staircase", failing)
        result = counterexample_search(config)
        assert result.skipped == 1
        rest = [inst for inst in whole.found if inst.trial != 5]
        assert [inst.trial for inst in result.found] == [inst.trial for inst in rest]
        for got, want in zip(result.found, rest):
            assert repr(got.report) == repr(want.report)

    def test_earliest_inconsistency_is_raised(self, monkeypatch):
        # two trials whose sufficient check contradicts their exact test:
        # the search raises the earlier trial's error
        config = SearchConfig(trials=40, seed=2, deviation_threshold=-math.inf)
        differing = [
            inst for inst in counterexample_search(config).found
            if not inst.report.exact.equivalent
        ]
        early, late = differing[3], differing[-1]
        assert f"{early.deviation:.6e}" != f"{late.deviation:.6e}"
        targets = [block_diag(inst.system1.B, inst.system2.B) for inst in (late, early)]
        sufficient = lqr._sufficient_check

        def contradicting(a_kk, b_s, *args):
            if any(b_s.shape == t.shape and np.array_equal(b_s, t) for t in targets):
                return lqr.SufficientCheck(True, *[RankTest(True, 1, 1, 1.0)] * 2)
            return sufficient(a_kk, b_s, *args)

        monkeypatch.setattr(lqr, "_sufficient_check", contradicting)
        with pytest.raises(InconsistencyError, match=f"deviation {early.deviation:.6e} "):
            counterexample_search(config)

    def test_chunks_keep_the_random_stream(self, monkeypatch):
        # trials drawn chunk by chunk are the trials drawn one at a time
        config = SearchConfig(trials=7, seed=3)
        whole = counterexample_search(config)
        monkeypatch.setattr(lqr, "_SEARCH_CHUNK", 2)
        chunked = counterexample_search(config)
        assert len(whole.found) >= 2
        assert [f.trial for f in chunked.found] == [f.trial for f in whole.found]
        for a, b in zip(chunked.found, whole.found):
            assert a.deviation == b.deviation
            assert a.report.rect_residual_composite == b.report.rect_residual_composite

    def test_failed_trial_is_skipped(self, monkeypatch):
        # the search checks its trials' designs through _analyse, in order,
        # and reads each member's analysis or error
        evaluate = lqr._analyse

        def failing_every_third(designs, *args):
            return [
                NotStabilizableError("no stabilizing solution") if i % 3 == 0 else analysis
                for i, analysis in enumerate(evaluate(designs, *args))
            ]

        monkeypatch.setattr(lqr, "_analyse", failing_every_third)
        result = counterexample_search(SearchConfig(trials=9, seed=4))
        assert result.trials == 9 and result.skipped == 3
        assert all(inst.trial % 3 for inst in result.found)

    def test_inconsistency_propagates(self, monkeypatch):
        def inconsistent(designs, *args):
            return [InconsistencyError("verdicts disagree")] * len(designs)

        monkeypatch.setattr(lqr, "_analyse", inconsistent)
        with pytest.raises(InconsistencyError):
            counterexample_search(SearchConfig(trials=3, seed=4))


def reference_instance(rng, n_range, m_range, k_range):
    """The arrays and pairs of ``sample_instance``, drawn and shifted one
    matrix at a time, as a loop over the random stream."""
    n1, n2 = (int(rng.integers(n_range[0], n_range[1] + 1)) for _ in range(2))
    m1, m2 = (int(rng.integers(m_range[0], m_range[1] + 1)) for _ in range(2))
    systems = [sample_system(rng, n, m) for n, m in ((n1, m1), (n2, m2))]
    weights = [sample_weights(rng, n, m) for n, m in ((n1, m1), (n2, m2))]
    hi = min(k_range[1], n1, n2)
    k = int(rng.integers(min(k_range[0], hi), hi + 1))
    first = rng.choice(n1, size=k, replace=False).tolist()
    second = rng.choice(n2, size=k, replace=False).tolist()
    return [*systems[0], *systems[1], *weights[0], *weights[1]], tuple(zip(first, second))


class TestSearchParity:
    """``counterexample_search`` runs each stage of a chunk on the batch
    axis: the draws' shifts and weight gates, the CAREs and the checks.
    Each stacked call must compute a trial as it computes that trial alone."""

    RANGES = ((1, 5), (1, 3), (0, 3))

    def test_every_trial_reports_as_alone(self, monkeypatch):
        # chunks of 37 put trials on both sides of two chunk boundaries
        monkeypatch.setattr(lqr, "_SEARCH_CHUNK", 37)
        n_range, m_range, k_range = self.RANGES
        config = SearchConfig(
            n_range=n_range, m_range=m_range, k_range=k_range,
            trials=100, seed=11, deviation_threshold=-math.inf,
        )
        result = counterexample_search(config)
        assert result.skipped == 0 and len(result.found) == config.trials
        rng = np.random.default_rng(config.seed)
        for inst in result.found:
            sys1, sys2, pattern, w1, w2 = sample_instance(rng, *self.RANGES)
            for got, want in ((inst.system1.A, sys1.A), (inst.system2.B, sys2.B),
                              (inst.weights1.Q, w1.Q), (inst.weights2.R, w2.R)):
                np.testing.assert_array_equal(got, want)
            alone = evaluate_composition(sys1, sys2, pattern, w1, w2).report
            assert repr(inst.report) == repr(alone), inst.trial

    def test_sample_instance_is_the_chunk_of_one(self):
        # the chunk's stacked shifts and gates give each trial the arrays
        # that one trial at a time gives, and use the same random stream
        chunk_rng, alone_rng, loop_rng = (np.random.default_rng(5) for _ in range(3))
        chunk = lqr._sample_chunk(chunk_rng, 60, *self.RANGES)
        def arrays(sys1, sys2, pattern, w1, w2):
            return [sys1.A, sys1.B, sys2.A, sys2.B, w1.Q, w1.R, w2.Q, w2.R]

        for instance in chunk:
            alone = sample_instance(alone_rng, *self.RANGES)
            loop, pairs = reference_instance(loop_rng, *self.RANGES)
            for got, want, reference in zip(arrays(*instance), arrays(*alone), loop):
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(got, reference)
            assert instance[2] == alone[2] and instance[2].pairs == pairs
            assert instance[3].q_pd and instance[4].q_pd
            assert (alone[3].q_pd, alone[4].q_pd) == (True, True)
        assert chunk_rng.bit_generator.state == alone_rng.bit_generator.state
        assert chunk_rng.bit_generator.state == loop_rng.bit_generator.state


BAD_TOLERANCES = [math.inf, math.nan, 0.0, -1e-8]


class TestCheckTolerance:
    """A check tolerance must be positive and finite: with ``inf`` every
    deviation passes, and the counterexample would read compositional."""

    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    def test_evaluate_composition(self, tol):
        with pytest.raises(InvalidArgumentError, match="positive and finite"):
            counterexample_analysis(tol=tol)

    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    def test_counterexample_search(self, tol):
        with pytest.raises(InvalidArgumentError, match="positive and finite"):
            counterexample_search(SearchConfig(trials=0), tol)

    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    def test_check_gates(self, tol):
        p, k = np.diag([0.3, 0.2]), np.array([[1.0], [1.0]])
        gates = [
            lambda: check_exact_condition(p, k, [[0.25]], tol),
            lambda: check_necessary_condition(p, k, tol),
            lambda: check_sufficient_condition(
                np.diag([-1.0, -2.0]), np.eye(2), k, [[2.0]], np.eye(2), p, tol
            ),
            lambda: compare_gains([[1.0]], [[1.0]], tol),
        ]
        for gate in gates:
            with pytest.raises(InvalidArgumentError, match="positive and finite"):
                gate()

    def test_is_a_value_error(self):
        with pytest.raises(ValueError):
            counterexample_analysis(tol=math.inf)
