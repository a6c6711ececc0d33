import math

import numpy as np
import pytest

from rsmlqr.errors import InvalidArgumentError, InvalidMatrixError, ShapeError
from rsmlqr.lqr import evaluate_composition, lqr_subsystem, sample_instance
from rsmlqr.riccati import RiccatiSolution
from rsmlqr.rsm import (
    CompositionPattern,
    CostWeights,
    LinearSystem,
    compose_open_loop,
)
from rsmlqr.sim import (
    Trajectory,
    closed_loop_cost,
    optimality_gap,
    quadrature_cost,
    simulate,
)

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)
SQRT13 = math.sqrt(13.0)


class TestSimulate:
    def test_scalar_exponential(self):
        traj = simulate([[-1.0]], [1.0], horizon=1.0, step=1e-3)
        assert traj.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-10)
        assert not traj.diverged

    def test_zero_initial_state_stays_zero(self):
        traj = simulate([[-1.0]], [0.0], horizon=1.0, step=1e-2)
        np.testing.assert_array_equal(traj.states, np.zeros_like(traj.states))

    def test_rotation_returns_after_full_turn(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        traj = simulate(a, [1.0, 0.0], horizon=2.0 * math.pi, step=1e-3)
        np.testing.assert_allclose(traj.states[-1], [1.0, 0.0], atol=1e-8)
        assert traj.times[-1] == pytest.approx(2.0 * math.pi, abs=1e-12)

    def test_uniform_grid_lands_on_horizon(self):
        traj = simulate([[-1.0]], [1.0], horizon=1.0, step=0.3)
        # step snaps to horizon / round(horizon / step)
        steps = np.diff(traj.times)
        np.testing.assert_allclose(steps, steps[0], rtol=1e-12)
        assert traj.times[-1] == pytest.approx(1.0, abs=1e-15)

    def test_fourth_order_convergence(self):
        a = np.array([[-1.0, 1.0], [0.0, -2.0]])
        x0 = np.array([1.0, 1.0])
        horizon = 2.0
        evals, vecs = np.linalg.eig(a)
        exact = (vecs @ (np.exp(evals * horizon) * np.linalg.solve(vecs, x0))).real

        def global_error(step):
            traj = simulate(a, x0, horizon, step)
            return np.abs(traj.states[-1] - exact).max()

        e1 = global_error(0.02)
        e2 = global_error(0.01)
        ratio = e1 / e2
        assert 10.0 <= ratio <= 20.0  # fourth order: halving the step ~ 16x

    def test_matches_four_stage_rk4(self):
        # the step matrix reorders the stage arithmetic, so the two agree to
        # rounding: a few eps per step over 200 steps
        rng = np.random.default_rng(12)
        a = rng.standard_normal((4, 4)) - 3.0 * np.eye(4)
        x, h = rng.standard_normal(4), 0.01
        reference = [x]
        for _ in range(200):
            k1 = a @ x
            k2 = a @ (x + 0.5 * h * k1)
            k3 = a @ (x + 0.5 * h * k2)
            k4 = a @ (x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            reference.append(x)
        traj = simulate(a, reference[0], horizon=2.0, step=h)
        reference = np.array(reference)
        np.testing.assert_allclose(
            traj.states, reference, rtol=0.0, atol=1e-12 * np.abs(reference).max()
        )

    def test_divergence_truncates_with_flag(self):
        traj = simulate([[2.0]], [1.0], horizon=30.0, step=1e-2)
        assert traj.diverged
        assert traj.states.shape[0] < 3002
        assert np.isfinite(traj.states).all()
        assert traj.times.shape[0] == traj.states.shape[0]

    def test_overflow_diverges(self):
        # the first step overflows, and inf * 0 makes it NaN, which no
        # magnitude test exceeds
        with np.errstate(over="ignore", invalid="ignore"):
            traj = simulate(np.diag([1e300, -1.0]), [1.0, 1.0], horizon=1.0, step=0.5)
        assert traj.diverged
        np.testing.assert_array_equal(traj.states, [[1.0, 1.0]])

    def test_overflow_warns_nothing(self):
        # no errstate here: pyproject makes a RuntimeWarning an error
        traj = simulate(np.diag([1e300, -1.0]), [1.0, 1.0], horizon=1.0, step=0.5)
        assert traj.diverged

    @pytest.mark.parametrize(
        "horizon, step",
        [(0.0, 1e-3), (math.inf, 1e-3), (1.0, -1e-3), (1.0, math.nan)],
    )
    def test_bad_scalars_are_invalid_argument_errors(self, horizon, step):
        with pytest.raises(InvalidArgumentError, match="positive and finite"):
            simulate([[-1.0]], [1.0], horizon=horizon, step=step)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            simulate([[-1.0]], [1.0], horizon=0.0, step=1e-3)
        with pytest.raises(ValueError):
            simulate([[-1.0]], [1.0], horizon=1.0, step=-1e-3)
        with pytest.raises(ShapeError):
            simulate([[-1.0]], [1.0, 2.0], horizon=1.0, step=1e-3)


class TestClosedLoopCost:
    def test_scalar_optimal_cost_equals_riccati_value(self):
        # for the optimal gain the cost from x0 is exactly x0' P x0
        p = SQRT2 - 1.0
        result = closed_loop_cost(
            [[-1.0]], [[1.0]], [[-p]], [[1.0]], [[1.0]], [1.0]
        )
        assert result.stable
        assert result.value == pytest.approx(p, abs=1e-12)

    def test_unstable_loop_gets_sentinel(self):
        result = closed_loop_cost(
            [[1.0]], [[1.0]], [[0.0]], [[1.0]], [[1.0]], [1.0]
        )
        assert not result.stable
        assert result.value == math.inf
        assert result.gram is None

    def test_zero_initial_state(self):
        result = closed_loop_cost(
            [[-1.0]], [[1.0]], [[-0.5]], [[1.0]], [[1.0]], [0.0]
        )
        assert result.value == 0.0

    def test_optimal_gain_cost_matches_riccati_randomized(self):
        rng = np.random.default_rng(55)
        for _ in range(30):
            sys1, _, _, w1, _ = sample_instance(rng, (1, 5), (1, 3), (0, 0))
            design = lqr_subsystem(sys1, w1)
            x0 = rng.standard_normal(sys1.n)
            result = closed_loop_cost(sys1.A, sys1.B, design.F, w1.Q, w1.R, x0)
            expected = float(x0 @ design.P @ x0)
            assert result.value == pytest.approx(expected, rel=1e-8, abs=1e-10)

    @pytest.mark.parametrize(
        "q, r",
        [
            (np.eye(3), np.eye(1)),  # Q larger than the state
            (np.eye(1), np.eye(1)),  # Q smaller: would broadcast silently
            (np.eye(2), np.eye(2)),  # R larger than the input
        ],
    )
    def test_weight_shape_guard(self, q, r):
        a = np.diag([-1.0, -2.0])
        b = np.array([[1.0], [0.5]])
        f = np.array([[-0.1, -0.2]])
        with pytest.raises(ShapeError):
            closed_loop_cost(a, b, f, q, r, [1.0, 1.0])

    def test_suboptimal_gain_costs_more(self):
        rng = np.random.default_rng(56)
        for _ in range(20):
            sys1, _, _, w1, _ = sample_instance(rng, (1, 4), (1, 2), (0, 0))
            design = lqr_subsystem(sys1, w1)
            perturbed = design.F + 0.1 * rng.standard_normal(design.F.shape)
            x0 = rng.standard_normal(sys1.n)
            base = closed_loop_cost(sys1.A, sys1.B, design.F, w1.Q, w1.R, x0)
            worse = closed_loop_cost(sys1.A, sys1.B, perturbed, w1.Q, w1.R, x0)
            assert worse.value >= base.value - 1e-10


class TestOptimalityGap:
    def _counterexample(self):
        s1 = LinearSystem("one", [[-1.0]], [[1.0]])
        s2 = LinearSystem("two", [[-2.0]], [[1.0]])
        w = CostWeights([[1.0]], [[1.0]])
        pattern = CompositionPattern(1, 1, ((0, 0),))
        return evaluate_composition(s1, s2, pattern, w, w)

    def test_counterexample_gap_closed_form(self):
        analysis = self._counterexample()
        comp = analysis.composite
        result = optimality_gap(
            comp, analysis.Q, analysis.R, analysis.F_composed,
            analysis.direct.solution, [1.0],
        )
        p1, p2 = SQRT2 - 1.0, SQRT5 - 2.0
        j_direct = (SQRT13 - 3.0) / 2.0
        j_composed = (2.0 + p1 * p1 + p2 * p2) / (2.0 * (3.0 + p1 + p2))
        assert result.J_direct == pytest.approx(j_direct, abs=1e-12)
        assert result.J_composed == pytest.approx(j_composed, abs=1e-12)
        assert result.gap == pytest.approx(j_composed - j_direct, abs=1e-12)
        assert result.gap == pytest.approx(0.0023105, abs=1e-6)

    def test_equivalent_designs_have_zero_gap(self):
        s1 = LinearSystem("one", [[-1.0]], [[1.0]])
        s2 = LinearSystem("two", [[-1.0]], [[1.0]])
        w = CostWeights([[1.0]], [[1.0]])
        pattern = CompositionPattern(1, 1, ((0, 0),))
        analysis = evaluate_composition(s1, s2, pattern, w, w)
        result = optimality_gap(
            analysis.composite, analysis.Q, analysis.R,
            analysis.F_composed, analysis.direct.solution, [1.0],
        )
        assert abs(result.gap) <= 1e-9

    def test_equal_gains_skip_the_lyapunov_solve(self, monkeypatch):
        # the twins' composed gain is the direct gain bit for bit, so the
        # composed loop is the direct loop; a gain one ulp off, or a direct
        # loop not certified stable, takes the solve
        import rsmlqr.sim

        s = LinearSystem("twin", [[-1.0]], [[1.0]])
        w = CostWeights([[1.0]], [[1.0]])
        analysis = evaluate_composition(s, s, CompositionPattern(1, 1, ((0, 0),)), w, w)
        direct, f = analysis.direct.solution, analysis.F_composed
        assert np.array_equal(f, direct.F)
        solves, solve = [], rsmlqr.sim.solve_lyapunov

        def counting(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(rsmlqr.sim, "solve_lyapunov", counting)

        def gap(gain, solution):
            return optimality_gap(
                analysis.composite, analysis.Q, analysis.R, gain, solution, [1.0]
            )

        result = gap(f, direct)
        assert solves == []
        assert result.gap == 0.0 and result.J_composed == result.J_direct
        assert result.stable_composed and result.stable_direct
        nudged = gap(np.nextafter(f, math.inf), direct)
        assert len(solves) == 1
        assert abs(nudged.gap) <= 1e-12 and nudged.stable_composed
        unstable = RiccatiSolution(direct.P, direct.F, direct.residual_norm, 0.5)
        result = gap(f, unstable)
        assert len(solves) == 2
        assert result.stable_composed and result.gap == -math.inf

    def test_zero_initial_state_zero_gap(self):
        analysis = self._counterexample()
        result = optimality_gap(
            analysis.composite, analysis.Q, analysis.R,
            analysis.F_composed, analysis.direct.solution, [0.0],
        )
        assert result.gap == 0.0

    def test_gap_never_negative_randomized(self):
        # the direct design minimizes the composite cost, so composing can
        # only lose
        rng = np.random.default_rng(58)
        for _ in range(60):
            sys1, sys2, pattern, w1, w2 = sample_instance(rng, (1, 3), (1, 2), (0, 2))
            analysis = evaluate_composition(sys1, sys2, pattern, w1, w2)
            for _ in range(3):
                x0 = rng.standard_normal(analysis.composite.n)
                result = optimality_gap(
                    analysis.composite, analysis.Q, analysis.R,
                    analysis.F_composed, analysis.direct.solution, x0,
                )
                if result.stable_composed and result.stable_direct:
                    assert result.gap >= -1e-8 * (1.0 + abs(result.J_direct))

    @pytest.mark.parametrize("seed", range(4))
    def test_direct_cost_matches_scipy_lyapunov(self, seed):
        # J_direct = x0' P_c x0 is the direct loop's Lyapunov cost
        linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(70 + seed)
        sys1, sys2, pattern, w1, w2 = sample_instance(rng, (2, 12), (1, 3), (0, 3))
        analysis = evaluate_composition(sys1, sys2, pattern, w1, w2)
        comp, f = analysis.composite, analysis.direct.F
        x0 = rng.standard_normal(comp.n)
        result = optimality_gap(
            comp, analysis.Q, analysis.R, analysis.F_composed,
            analysis.direct.solution, x0,
        )
        w = analysis.Q + f.T @ analysis.R @ f
        gram = linalg.solve_continuous_lyapunov((comp.A + comp.B @ f).T, -w)
        assert result.stable_direct
        assert result.J_direct == pytest.approx(float(x0 @ gram @ x0), rel=1e-9)

    def test_direct_solution_shape_guard(self):
        analysis = self._counterexample()
        wrong = RiccatiSolution(np.eye(2), np.zeros((2, 2)), 0.0, -1.0)
        with pytest.raises(ShapeError):
            optimality_gap(
                analysis.composite, analysis.Q, analysis.R,
                analysis.F_composed, wrong, [1.0],
            )

    def test_unstable_composed_loop_infinite_gap(self):
        # force a composed gain that destabilizes: positive feedback
        analysis = self._counterexample()
        bad = np.array([[10.0], [10.0]])
        result = optimality_gap(
            analysis.composite, analysis.Q, analysis.R, bad,
            analysis.direct.solution, [1.0],
        )
        assert not result.stable_composed and result.stable_direct
        assert result.gap == math.inf

    def _unstable_direct(self, analysis):
        sol = analysis.direct.solution
        return RiccatiSolution(sol.P, sol.F, sol.residual_norm, 0.5)

    def test_unstable_direct_loop_negative_infinite_gap(self):
        analysis = self._counterexample()
        result = optimality_gap(
            analysis.composite, analysis.Q, analysis.R, analysis.F_composed,
            self._unstable_direct(analysis), [1.0],
        )
        assert result.stable_composed and not result.stable_direct
        assert result.J_direct == math.inf
        assert result.gap == -math.inf

    def test_both_loops_unstable_nan_gap(self):
        analysis = self._counterexample()
        result = optimality_gap(
            analysis.composite, analysis.Q, analysis.R, np.array([[10.0], [10.0]]),
            self._unstable_direct(analysis), [1.0],
        )
        assert not result.stable_composed and not result.stable_direct
        assert math.isnan(result.gap)


class TestQuadratureCost:
    def test_matches_exact_cost_scalar(self):
        p = SQRT2 - 1.0
        a_cl = np.array([[-SQRT2]])
        w = np.array([[1.0 + p * p]])
        traj = simulate(a_cl, [1.0], horizon=30.0, step=1e-3)
        quad = quadrature_cost(traj, w)
        assert quad == pytest.approx(p, rel=1e-6)

    def test_matches_exact_cost_randomized(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            sys1, _, _, w1, _ = sample_instance(rng, (1, 6), (1, 3), (0, 0))
            design = lqr_subsystem(sys1, w1)
            a_cl = sys1.A + sys1.B @ design.F
            x0 = rng.standard_normal(sys1.n)
            exact = closed_loop_cost(sys1.A, sys1.B, design.F, w1.Q, w1.R, x0)
            slowest = abs(np.linalg.eigvals(a_cl).real.max())
            horizon = 40.0 / slowest
            traj = simulate(a_cl, x0, horizon, horizon / 4000.0)
            w_cl = w1.Q + design.F.T @ w1.R @ design.F
            quad = quadrature_cost(traj, w_cl)
            assert quad == pytest.approx(exact.value, rel=1e-4, abs=1e-8)

    @pytest.mark.parametrize("samples", [3, 4, 5, 6, 7, 910, 1001, 769, 770])
    def test_equals_scipy_simpson_exactly(self, samples):
        scipy = pytest.importorskip("scipy")
        import scipy.integrate

        # scipy 1.11 made Cartwright's last-interval correction the default
        # for an even sample count; older releases averaged two trapezoid
        # corrections.
        cartwright = tuple(int(p) for p in scipy.__version__.split(".")[:2]) >= (1, 11)
        if samples % 2 == 0 and not cartwright:
            pytest.skip("scipy < 1.11 uses another even-count rule")
        a_cl = np.array([[-1.0, 0.5], [-0.7, -2.0]])
        w = np.array([[2.0, 0.3], [0.3, 1.0]])
        traj = simulate(a_cl, [1.0, -0.5], horizon=10.0, step=10.0 / (samples - 1))
        assert traj.states.shape[0] == samples
        integrand = np.einsum("ti,ij,tj->t", traj.states, w, traj.states)
        reference = float(scipy.integrate.simpson(integrand, x=traj.times))
        assert quadrature_cost(traj, w) == reference

    def test_times_must_match_samples_and_increase(self):
        states = np.ones((4, 1))
        for times in ([0.0, 1.0, 2.0], [0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0, 3.0]):
            with pytest.raises(ValueError):
                quadrature_cost(Trajectory(np.array(times), states), [[1.0]])

    def test_bad_sample_grid_is_invalid_argument_error(self):
        states = np.ones((4, 1))
        with pytest.raises(InvalidArgumentError, match="increase"):
            quadrature_cost(Trajectory(np.array([0.0, 2.0, 1.0, 3.0]), states), [[1.0]])
        with pytest.raises(InvalidArgumentError, match="three samples"):
            quadrature_cost(Trajectory(np.array([0.0, 1.0]), states[:2]), [[1.0]])

    def test_too_few_samples_rejected(self):
        traj = Trajectory(np.array([0.0, 1.0]), np.ones((2, 1)))
        with pytest.raises(ValueError):
            quadrature_cost(traj, [[1.0]])

    def test_weight_shape_guard(self):
        traj = simulate([[-1.0]], [1.0], horizon=1.0, step=0.1)
        with pytest.raises(ShapeError):
            quadrature_cost(traj, np.eye(2))


def _initial_state_callers():
    """Each public function that takes ``x0``, as ``x0 -> result`` on one
    composite of order 2, the result reduced to an array to compare."""
    s = LinearSystem("one", [[-1.0]], [[1.0]])
    w = CostWeights([[1.0]], [[1.0]])
    analysis = evaluate_composition(s, s, CompositionPattern(1, 1), w, w)
    comp, q, r, f = analysis.composite, analysis.Q, analysis.R, analysis.F_composed
    return {
        "simulate": lambda x0: simulate(comp.A + comp.B @ f, x0, 1.0, 0.1).states,
        "closed_loop_cost": lambda x0: closed_loop_cost(
            comp.A, comp.B, f, q, r, x0
        ).value,
        "optimality_gap": lambda x0: optimality_gap(
            comp, q, r, f, analysis.direct.solution, x0
        ).J_composed,
    }


X0_CALLERS = ("simulate", "closed_loop_cost", "optimality_gap")
BAD_X0 = {
    "string": "abc",
    "strings": ["1.0", "2.0"],
    "complex": [1j, 0.0],
    "none": None,
    "ragged": [[1.0], [2.0, 3.0]],
    "nan": [np.nan, 1.0],
    "inf": [1.0, -np.inf],
}


class TestInitialState:
    """``x0`` goes through the shape contract as a vector: any array shape
    holding ``n`` finite real entries."""

    @pytest.mark.parametrize("caller", X0_CALLERS)
    @pytest.mark.parametrize("bad", BAD_X0.values(), ids=BAD_X0.keys())
    def test_unusable_entries_raise_invalid_matrix(self, caller, bad):
        with pytest.raises(InvalidMatrixError, match="^initial state "):
            _initial_state_callers()[caller](bad)

    @pytest.mark.parametrize("caller", X0_CALLERS)
    @pytest.mark.parametrize("shape", [(2, 1), (1, 2), (1, 2, 1)])
    def test_any_shape_with_n_entries(self, caller, shape):
        call = _initial_state_callers()[caller]
        flat = np.array([1.0, -2.0])
        np.testing.assert_array_equal(call(flat.reshape(shape)), call(flat))

    @pytest.mark.parametrize("caller", X0_CALLERS)
    @pytest.mark.parametrize("x0", [[1.0], [1.0, 2.0, 3.0], np.ones((2, 2))])
    def test_wrong_entry_count(self, caller, x0):
        with pytest.raises(ShapeError, match="^initial state has .* entries, expected"):
            _initial_state_callers()[caller](x0)
