import math
import re

import numpy as np
import pytest

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st
except ImportError:  # the oracle tests fall back to a seeded sample
    st = None

from rsmlqr import riccati
from rsmlqr.errors import (
    NotHurwitzError,
    NotPDError,
    NotStabilizableError,
    NotSymmetricError,
    NumericalFailureError,
    RsmLqrError,
    ShapeError,
)
from rsmlqr.riccati import (
    care_residual,
    rectangular_riccati_residual,
    solve_care,
    solve_lyapunov,
)

# Scalar problems solvable by the quadratic formula.  For xdot = a x + b u
# with weights (q, r), the equation -2pa - q + p^2 b^2 / r = 0 picks the
# positive root.
SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)
SQRT13 = math.sqrt(13.0)


def random_hurwitz(rng, n, shift=0.5):
    a = rng.standard_normal((n, n))
    max_re = float(np.linalg.eigvals(a).real.max())
    return a - (max_re + shift) * np.eye(n)


def random_care_problem(rng, n, m):
    a = random_hurwitz(rng, n)
    b = rng.standard_normal((n, m))
    g = rng.standard_normal((n, n))
    q = g.T @ g + 0.1 * np.eye(n)
    return a, b, q, np.eye(m)


@pytest.fixture
def lyap_calls(monkeypatch):
    """Count the Lyapunov solves made through ``riccati._lyap_core``."""
    calls = []
    core = riccati._lyap_core

    def counting(a_cl, w):
        calls.append(a_cl.shape[0])
        return core(a_cl, w)

    monkeypatch.setattr(riccati, "_lyap_core", counting)
    return calls


class TestSolveCareScalarOracles:
    def test_a_minus_one(self):
        sol = solve_care([[-1.0]], [[1.0]], [[1.0]], [[1.0]])
        assert abs(sol.P[0, 0] - (SQRT2 - 1.0)) <= 1e-10
        assert sol.closed_loop_max_re == pytest.approx(-SQRT2, abs=1e-12)

    def test_a_minus_two(self):
        sol = solve_care([[-2.0]], [[1.0]], [[1.0]], [[1.0]])
        assert abs(sol.P[0, 0] - (SQRT5 - 2.0)) <= 1e-10

    def test_two_input_reduced_system(self):
        sol = solve_care([[-3.0]], [[1.0, 1.0]], [[2.0]], np.eye(2))
        assert abs(sol.P[0, 0] - (SQRT13 - 3.0) / 2.0) <= 1e-10

    def test_unstable_scalar(self):
        # -2pa - q + p^2 = 0 with a = 1, q = 1: p = ... positive root of
        # p^2 - 2p - 1, i.e. 1 + sqrt(2).
        sol = solve_care([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        assert sol.P[0, 0] == pytest.approx(1.0 + SQRT2, abs=1e-10)
        assert sol.closed_loop_max_re < 0.0


class TestSolveCareContracts:
    def test_residual_certificate_matches_oracle(self):
        rng = np.random.default_rng(42)
        a = random_hurwitz(rng, 4)
        b = rng.standard_normal((4, 2))
        q = np.eye(4)
        r = np.eye(2)
        sol = solve_care(a, b, q, r)
        _, res = care_residual(a, b, q, r, sol.P)
        assert res == pytest.approx(sol.residual_norm, rel=1e-6, abs=1e-14)
        scale = 1.0 + np.linalg.norm(sol.P) * np.linalg.norm(a)
        assert res <= 1e-9 * scale

    def test_zero_state_weight_stable_plant(self):
        sol = solve_care(np.diag([-1.0, -2.0]), np.eye(2), np.zeros((2, 2)), np.eye(2))
        np.testing.assert_allclose(sol.P, np.zeros((2, 2)), atol=1e-12)

    def test_solution_symmetric_and_psd(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 4))
            a = random_hurwitz(rng, n)
            b = rng.standard_normal((n, m))
            g = rng.standard_normal((n, n))
            q = g.T @ g + 0.1 * np.eye(n)
            h = rng.standard_normal((m, m))
            r = h.T @ h + 0.1 * np.eye(m)
            sol = solve_care(a, b, q, r)
            np.testing.assert_allclose(sol.P, sol.P.T, atol=1e-12)
            assert np.linalg.eigvalsh(sol.P).min() >= -1e-9
            assert sol.closed_loop_max_re < 0.0

    @pytest.mark.parametrize("c", [0.5, 3.7])
    def test_scaling_homogeneity(self, c):
        rng = np.random.default_rng(11)
        a = random_hurwitz(rng, 3)
        b = rng.standard_normal((3, 2))
        g = rng.standard_normal((3, 3))
        q = g.T @ g + 0.1 * np.eye(3)
        r = np.eye(2)
        base = solve_care(a, b, q, r).P
        scaled = solve_care(a, b, c * q, c * r).P
        np.testing.assert_allclose(scaled, c * base, rtol=1e-9, atol=1e-12)

    def test_larger_problem_residual(self):
        rng = np.random.default_rng(99)
        n, m = 20, 5
        a = random_hurwitz(rng, n)
        b = rng.standard_normal((n, m))
        g = rng.standard_normal((n, n))
        q = g.T @ g + 0.1 * np.eye(n)
        h = rng.standard_normal((m, m))
        r = h.T @ h + 0.1 * np.eye(m)
        sol = solve_care(a, b, q, r)
        scale = 1.0 + np.linalg.norm(sol.P) * np.linalg.norm(a)
        assert sol.residual_norm <= 1e-9 * scale


class TestNewtonPolish:
    # At tol = 1e-14 the sweep threshold 0.01 * tol * scale sits below the
    # round-off the Schur step leaves, so the polish always runs, while the
    # residual contract itself stays a few times above what it reaches.
    @pytest.mark.parametrize("seed", range(6))
    def test_tight_tol_takes_sweeps_and_certifies(self, seed, lyap_calls):
        rng = np.random.default_rng(1300 + seed)
        a, b, q, r = random_care_problem(rng, 5, 2)
        tol = 1e-14
        sol = solve_care(a, b, q, r, tol=tol)
        assert len(lyap_calls) >= 1
        _, res = care_residual(a, b, q, r, sol.P)
        assert res <= tol * (1.0 + np.linalg.norm(sol.P) * np.linalg.norm(a))
        assert res == pytest.approx(sol.residual_norm, rel=1e-6, abs=1e-14)
        np.testing.assert_allclose(sol.P, sol.P.T, atol=1e-12)
        assert np.linalg.eigvalsh(sol.P).min() >= -1e-9
        f = np.linalg.solve(r, b.T @ sol.P)
        assert np.linalg.eigvals(a - b @ f).real.max() < 0.0
        assert sol.closed_loop_max_re < 0.0

    def test_default_tol_agrees_with_polished(self):
        rng = np.random.default_rng(1300)
        a, b, q, r = random_care_problem(rng, 5, 2)
        loose = solve_care(a, b, q, r).P
        tight = solve_care(a, b, q, r, tol=1e-14).P
        np.testing.assert_allclose(tight, loose, rtol=1e-9, atol=1e-12)


class TestLyapunovFailuresTyped:
    # The two ways the sign kernel stops: a singular iterate and no
    # convergence within its step cap.
    @pytest.mark.parametrize(
        "exc",
        [
            np.linalg.LinAlgError("singular iterate"),
            np.linalg.LinAlgError("sign iteration did not converge"),
        ],
    )
    def test_solver_exception_becomes_numerical_failure(self, monkeypatch, exc):
        def broken(z, w=None):
            raise exc

        monkeypatch.setattr(riccati, "_sign_newton", broken)
        with pytest.raises(NumericalFailureError) as info:
            solve_lyapunov(np.diag([-1.0, -2.0]), np.eye(2))
        assert isinstance(info.value, RsmLqrError)
        assert info.value.__cause__ is exc

    def test_polish_failure_is_typed(self, monkeypatch):
        sign = riccati._sign_newton

        def broken(z, w=None):
            # the Hamiltonian sign step runs; only the Lyapunov solves break
            if w is not None:
                raise np.linalg.LinAlgError("forced")
            return sign(z)

        rng = np.random.default_rng(1300)
        a, b, q, r = random_care_problem(rng, 5, 2)
        monkeypatch.setattr(riccati, "_sign_newton", broken)
        with pytest.raises(NumericalFailureError):
            solve_care(a, b, q, r, tol=1e-14)


class TestSignNewton:
    def test_diagonal(self):
        s, w = riccati._sign_newton(np.diag([-2.0, 0.5, 30.0]))
        np.testing.assert_allclose(s, np.diag([-1.0, 1.0, 1.0]), atol=1e-15)
        assert w is None

    def test_singular_iterate(self):
        # eigenvalues +-i: the scaled first step lands on the zero matrix
        with pytest.raises(np.linalg.LinAlgError, match="singular iterate"):
            riccati._sign_newton(np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_singular_input_is_a_singular_iterate(self):
        # the LU breaks down on the first step; its error becomes the
        # kernel's own
        with pytest.raises(np.linalg.LinAlgError, match="singular iterate"):
            riccati._sign_newton(np.diag([0.0, 1.0]))

    def test_norm_scaling_one_lu_per_step(self, monkeypatch):
        # eigenvalues 1e-3 .. 1e3 either side of the axis: the scaled
        # iteration reaches the sign in a handful of steps, one inverse each
        calls = []
        inv = np.linalg.inv

        def counting(m):
            calls.append(m.shape[0])
            return inv(m)

        rng = np.random.default_rng(21)
        v = rng.standard_normal((6, 6))
        d = np.array([-1e3, -1.0, -1e-3, 1e-3, 1.0, 1e3])
        monkeypatch.setattr(np.linalg, "inv", counting)
        monkeypatch.setattr(np.linalg, "slogdet", None)
        s, _ = riccati._sign_newton(v @ np.diag(d) @ inv(v))
        exact = v @ np.diag(np.sign(d)) @ inv(v)
        assert np.linalg.norm(s - exact) <= 1e-9 * np.linalg.norm(exact)
        assert 1 <= len(calls) <= 10

    def test_no_convergence_within_cap(self):
        z = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            riccati._sign_newton(z)

    def test_round_off_floor_stops(self):
        # eigenvectors with condition 1e4: the steps stall near 1e-11,
        # above the 1e-13 test, and the floor rule accepts that iterate
        rng = np.random.default_rng(0)
        q1, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        q2, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        v = q1 @ np.diag(np.logspace(0, -4, 8)) @ q2
        d = np.array([-1.0, -1.5, -2.0, -3.0, 1.0, 1.5, 2.0, 3.0])
        s, _ = riccati._sign_newton(v @ np.diag(d) @ np.linalg.inv(v))
        exact = v @ np.diag(np.sign(d)) @ np.linalg.inv(v)
        assert np.linalg.norm(s - exact) <= 1e-8 * np.linalg.norm(exact)

    def test_empty_system(self):
        assert solve_lyapunov(np.zeros((0, 0)), np.zeros((0, 0))).shape == (0, 0)
        sol = solve_care(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((0, 0)), [[1.0]])
        assert sol.P.shape == (0, 0) and sol.F.shape == (1, 0)


class TestDoubling:
    # Orders from riccati._SDA_MIN_ORDER up take their candidate from the
    # structure-preserving doubling; the sign step is the fallback.
    @pytest.mark.parametrize("n", [16, 20, 45])
    def test_pd_weight_takes_doubling_without_a_2n_inverse(self, n, monkeypatch):
        shapes = []
        inv = np.linalg.inv

        def recording(m):
            shapes.append(m.shape[0])
            return inv(m)

        rng = np.random.default_rng(1600 + n)
        a, b, q, r = random_care_problem(rng, n, 2)
        monkeypatch.setattr(np.linalg, "inv", recording)
        sol = solve_care(a, b, q, r)
        assert sol.method == "doubling"
        assert shapes and 2 * n not in shapes
        _, res = care_residual(a, b, q, r, sol.P)
        assert res <= 1e-9 * (1.0 + np.linalg.norm(sol.P) * np.linalg.norm(a))
        assert sol.closed_loop_max_re < 0.0

    def test_small_order_takes_sign(self):
        rng = np.random.default_rng(1615)
        assert solve_care(*random_care_problem(rng, 15, 2)).method == "sign"

    def test_undetectable_weight_falls_back_to_sign(self):
        # the unstable mode at 1.3 is invisible to Q: doubling converges to
        # the minimal PSD solution P11 = 0, which is not stabilizing, and
        # the sign step finds the stabilizing P11 = 2 * 1.3
        n = 20
        a = np.diag([1.3] + [-1.1] * (n - 1))
        q = np.diag([0.0] + [1.0] * (n - 1))
        assert riccati._sda(a, np.eye(n), q, 1.0)[0, 0] == 0.0
        sol = solve_care(a, np.eye(n), q, np.eye(n))
        assert sol.method == "sign"
        assert sol.P[0, 0] == pytest.approx(2.6, abs=1e-12)
        assert sol.closed_loop_max_re < 0.0

    def test_shift_on_an_eigenvalue_falls_back_to_sign(self):
        # gamma = 1, the power of two nearest the RMS singular value
        # sqrt(65 / 40) of the Hamiltonian, is an eigenvalue of A, so the
        # Cayley transform does not exist
        n = 20
        a = np.diag([1.0] + [-1.0] * (n - 1))
        q = 0.5 * np.eye(n)
        with pytest.raises(np.linalg.LinAlgError, match="singular Cayley"):
            riccati._sda(a, np.eye(n), q, 1.0)
        sol = solve_care(a, np.eye(n), q, np.eye(n))
        assert sol.method == "sign"
        np.testing.assert_allclose(
            np.diag(sol.P), [1.0 + math.sqrt(1.5)] + [math.sqrt(1.5) - 1.0] * (n - 1),
            rtol=1e-12,
        )

    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan")])
    def test_rejects_nonpositive_shift(self, gamma):
        with pytest.raises(ValueError, match="gamma > 0"):
            riccati._sda(-np.eye(2), np.eye(2), np.eye(2), gamma)

    def test_empty(self):
        empty = np.zeros((0, 0))
        assert riccati._sda(empty, empty, empty, 1.0).shape == (0, 0)

    def test_imaginary_axis_stops_at_the_cap(self):
        # eigenvalues +-i: the Cayley transform has |rho| = 1, H doubles
        # each step, and the kernel gives up once it has seen that for
        # _SDA_GROWTH_STEPS steps running
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            riccati._sda(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros((2, 2)), np.eye(2), 1.0)

    def test_uncontrollable_imaginary_axis_mode(self):
        # the rotation block of test_uncontrollable_imaginary_axis_mode
        # inside 20 states: the error is the sign path's, naming the mode
        n = 20
        rng = np.random.default_rng(20)
        a = np.zeros((n, n))
        a[0, 1], a[1, 0] = 1.0, -1.0
        a[2:, 2:] = random_hurwitz(rng, n - 2)
        b = np.zeros((n, 2))
        b[2:] = rng.standard_normal((n - 2, 2))
        with pytest.raises(NotStabilizableError, match="0\\+1j is unreachable"):
            solve_care(a, b, np.eye(n), np.eye(2))

    def test_imaginary_axis_mode_stops_the_doubling_early(self, monkeypatch):
        # the same CARE: ||H|| doubles from the second step on, so the
        # doubling hands over to the sign step after about ten solves
        # rather than at its _SDA_MAX_ITER = 60 cap
        n = 20
        rng = np.random.default_rng(20)
        a = np.zeros((n, n))
        a[0, 1], a[1, 0] = 1.0, -1.0
        a[2:, 2:] = random_hurwitz(rng, n - 2)
        b = np.zeros((n, 2))
        b[2:] = rng.standard_normal((n - 2, 2))
        sda, solve = riccati._sda, np.linalg.solve
        inside, solves, stops = [], [], []

        def counting_solve(*args):
            solves.extend(inside)
            return solve(*args)

        def tracking_sda(*args):
            inside.append(1)
            try:
                return sda(*args)
            except np.linalg.LinAlgError as exc:
                stops.append(str(exc))
                raise
            finally:
                inside.pop()

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        monkeypatch.setattr(riccati, "_sda", tracking_sda)
        with pytest.raises(NotStabilizableError, match="0\\+1j is unreachable"):
            solve_care(a, b, np.eye(n), np.eye(2))
        assert len(stops) == 1 and "did not converge" in stops[0]
        assert 0 < len(solves) <= 10


class TestSolveCareErrors:
    def test_r_not_pd(self):
        with pytest.raises(NotPDError):
            solve_care([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(NotPDError):
            solve_care([[-1.0]], [[1.0]], [[1.0]], [[-1.0]])

    def test_q_not_psd(self):
        from rsmlqr.errors import NotPSDError

        with pytest.raises(NotPSDError):
            solve_care([[-1.0]], [[1.0]], [[-1.0]], [[1.0]])

    def test_unstabilizable_pair(self):
        # second state is unstable and unreachable
        with pytest.raises(NotStabilizableError):
            solve_care(np.eye(2), [[1.0], [0.0]], np.eye(2), [[1.0]])

    def test_uncontrollable_imaginary_axis_mode(self):
        # the rotation block is out of B's reach; its Hamiltonian eigenvalues
        # +-i are defective, so round-off splits them off the axis and the
        # sign iteration converges to a candidate that fails its residual
        a = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        with pytest.raises(NotStabilizableError, match="0\\+1j is unreachable"):
            solve_care(a, [[0.0], [0.0], [1.0]], np.eye(3), [[1.0]])

    def test_sign_failure_with_every_mode_reachable(self):
        # (A, B) is controllable, but Q = 0 leaves A's modes at +-i
        # unobserved, so the Hamiltonian has eigenvalues on the axis: the
        # PBH test finds no unreachable mode and the failure stays typed
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(NotStabilizableError, match="sign iteration failed"):
            solve_care(a, np.eye(2), np.zeros((2, 2)), np.eye(2))

    def test_singular_hamiltonian(self):
        # the first state is a zero eigenvalue that B cannot reach and Q
        # cannot see, so the Hamiltonian itself is singular
        with pytest.raises(NotStabilizableError, match="singular iterate"):
            solve_care(np.diag([0.0, -1.0]), [[0.0], [1.0]], np.diag([0.0, 1.0]), [[1.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            solve_care(np.eye(2), np.ones((3, 1)), np.eye(2), [[1.0]])

    def test_asymmetric_q(self):
        with pytest.raises(NotSymmetricError):
            solve_care(np.eye(2) * -1, np.eye(2), [[1.0, 0.5], [0.0, 1.0]], np.eye(2))


class TestCareResidual:
    def test_known_value(self):
        # with P = I, A = [-1], B = Q = R = [1]: 1 + 1 - 1 + 1 = 2
        res, norm = care_residual([[-1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]])
        np.testing.assert_allclose(res, [[2.0]])
        assert norm == pytest.approx(2.0)

    def test_zero_solution_zero_weight(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 2))
        res, norm = care_residual(a, b, np.zeros((3, 3)), np.eye(2), np.zeros((3, 3)))
        assert norm == 0.0
        assert res.shape == (3, 3)

    def test_scalar_closed_forms_are_roots(self):
        for a, p in [(-1.0, SQRT2 - 1.0), (-2.0, SQRT5 - 2.0)]:
            _, norm = care_residual([[a]], [[1.0]], [[1.0]], [[1.0]], [[p]])
            assert norm <= 1e-12


class TestSolveLyapunov:
    def test_scalar(self):
        # -2x + 2 = 0
        x = solve_lyapunov([[-1.0]], [[2.0]])
        np.testing.assert_allclose(x, [[1.0]], atol=1e-14)

    def test_diagonal(self):
        a = np.diag([-1.0, -2.0])
        w = np.diag([2.0, 8.0])
        x = solve_lyapunov(a, w)
        np.testing.assert_allclose(x, np.diag([1.0, 2.0]), atol=1e-13)

    def test_not_hurwitz_rejected(self):
        with pytest.raises(NotHurwitzError):
            solve_lyapunov([[1.0]], [[1.0]])
        with pytest.raises(NotHurwitzError):
            solve_lyapunov([[0.0, 1.0], [-1.0, 0.0]], np.eye(2))

    @pytest.mark.parametrize(
        "a, max_re",
        [
            # the sign counts one unstable eigenvalue
            (np.diag([-1.0, 0.5, -2.0]), "5.000000e-01"),
            # +-2i stay on the axis under every Newton step, so the
            # iteration stops and the eigenvalues name the failure
            (np.array([[0.0, 2.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 0.0, -3.0]]), "0.000000e+00"),
        ],
        ids=["unstable", "imaginary_axis"],
    )
    def test_hurwitz_gate_names_max_real_part(self, a, max_re, lyap_calls):
        with pytest.raises(NotHurwitzError, match=re.escape(f"max real part {max_re}")):
            solve_lyapunov(a, np.eye(3))
        assert len(lyap_calls) == 1

    def test_asymmetric_w_rejected(self):
        with pytest.raises(NotSymmetricError):
            solve_lyapunov(np.diag([-1.0, -1.0]), [[1.0, 0.5], [0.0, 1.0]])

    @pytest.mark.parametrize("n", [1, 3, 8, 25, 59, 60, 61, 120])
    def test_residual_random(self, n):
        rng = np.random.default_rng(600 + n)
        for _ in range(5):
            a = random_hurwitz(rng, n)
            g = rng.standard_normal((n, n))
            w = g.T @ g
            x = solve_lyapunov(a, w)
            res = np.linalg.norm(a.T @ x + x @ a + w)
            assert res <= 1e-10 * (1.0 + np.linalg.norm(w))
            np.testing.assert_allclose(x, x.T, atol=1e-12)

    def test_beyond_kron_limit(self):
        rng = np.random.default_rng(77)
        n = 65
        a = random_hurwitz(rng, n, shift=1.0)
        g = rng.standard_normal((n, n))
        w = g.T @ g
        x = solve_lyapunov(a, w)
        res = np.linalg.norm(a.T @ x + x @ a + w)
        assert res <= 1e-10 * (1.0 + np.linalg.norm(w))

    @pytest.mark.parametrize(
        "n, c, rotate", [(6, 10.0, False), (4, 5.0, True)]
    )
    def test_residual_non_normal(self, n, c, rotate):
        # Jordan-like A = -I + c * superdiagonal: every eigenvalue is -1 but
        # the solution grows like c^(2(n-1)), far beyond ||W||.  Unrotated,
        # A is triangular with dyadic entries and its Lyapunov scale is 1
        # (both traces are -n), so the sign iteration stays exact; a 1-ulp
        # error in that X would leave a residual near 1e-7.  The rotated
        # variant hides the structure.
        a = -np.eye(n) + c * np.diag(np.ones(n - 1), 1)
        if rotate:
            u, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((n, n)))
            a = u @ a @ u.T
        w = np.eye(n)
        x = solve_lyapunov(a, w)
        assert np.linalg.norm(x) > 1e3 * np.linalg.norm(w)
        res = np.linalg.norm(a.T @ x + x @ a + w)
        assert res <= 1e-10 * (1.0 + np.linalg.norm(w))
        np.testing.assert_allclose(x, x.T, atol=1e-12)

    def test_tight_tol_refines_or_fails_typed(self, lyap_calls):
        # The rotated Jordan-like A of test_residual_non_normal: every
        # eigenvalue is -1 but ||X|| is about 2.7e3, and one solve leaves a
        # relative residual near 5e-11, so tol = 1e-12 forces the
        # refinement pass.
        n, c, tol = 4, 5.0, 1e-12
        u, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((n, n)))
        a = u @ (-np.eye(n) + c * np.diag(np.ones(n - 1), 1)) @ u.T
        w = np.eye(n)
        try:
            x = solve_lyapunov(a, w, tol=tol)
        except NumericalFailureError:
            assert len(lyap_calls) == 3
        else:
            res = np.linalg.norm(a.T @ x + x @ a + w)
            assert res <= tol * (1.0 + np.linalg.norm(w))
        assert len(lyap_calls) >= 2

    def test_unreachable_tol_fails_after_refinement(self, lyap_calls):
        rng = np.random.default_rng(1401)
        a = random_hurwitz(rng, 8)
        g = rng.standard_normal((8, 8))
        with pytest.raises(NumericalFailureError, match="after refinement"):
            solve_lyapunov(a, g.T @ g, tol=0.0)
        assert len(lyap_calls) == 3

    def test_gramian_quadrature_identity(self):
        # x0' X x0 equals the integral of |e^{At} x0|_W^2, evaluated here
        # by dense quadrature as an independent check
        a = np.array([[-1.0, 0.3], [0.0, -2.0]])
        w = np.eye(2)
        x = solve_lyapunov(a, w)
        x0 = np.array([1.0, -1.0])
        evals, vecs = np.linalg.eig(a)
        coef = np.linalg.solve(vecs, x0.astype(complex))
        ts = np.linspace(0.0, 40.0, 40001)
        states = (np.exp(np.outer(ts, evals)) * coef) @ vecs.T
        vals = np.einsum("ti,ij,tj->t", states.real, w, states.real)
        simpson = pytest.importorskip("scipy.integrate").simpson
        quad = simpson(vals, x=ts)
        assert quad == pytest.approx(float(x0 @ x @ x0), rel=1e-6)


class TestRectangularResidual:
    def test_zero_everything(self):
        k = np.array([[1.0], [1.0]])
        res, norm = rectangular_riccati_residual(
            np.diag([-1.0, -2.0]), np.eye(2), k, [[0.0]], np.eye(2),
            np.zeros((2, 1)),
        )
        assert norm == 0.0
        assert res.shape == (1, 1)

    def test_scalar_shared_by_hand(self):
        # stacked A = diag(-1, -2), B = I, R = I, K = [1; 1], composite
        # q = 2; X = [x1; x2] gives residual
        # x1^2 + x2^2 + 2 x1 + 4 x2 - 2 ... with the sign pattern below.
        k = np.array([[1.0], [1.0]])
        x = np.array([[0.3], [0.4]])
        res, _ = rectangular_riccati_residual(
            np.diag([-1.0, -2.0]), np.eye(2), k, [[2.0]], np.eye(2), x
        )
        expected = -(-0.3 - 0.8) - (-0.3 - 0.8) - 2.0 + (0.09 + 0.16)
        np.testing.assert_allclose(res, [[expected]], atol=1e-15)

    def test_shape_guard(self):
        k = np.array([[1.0], [1.0]])
        with pytest.raises(ShapeError):
            rectangular_riccati_residual(
                np.diag([-1.0, -2.0]), np.eye(2), k, [[1.0]], np.eye(2),
                np.zeros((1, 2)),
            )


def oracle_cases(examples=(), **ranges):
    """Draw the keyword arguments of an oracle test from ``ranges``
    (``name=(lo, hi)``; integer bounds draw integers, float bounds floats,
    ``None`` a boolean): by hypothesis when it is installed, otherwise from
    a seeded sample of the same size.  Each dict in ``examples`` is one
    more case, run either way."""
    count = 25
    if st is not None:
        strategies = {
            name: st.booleans() if bounds is None
            else st.integers(*bounds) if isinstance(bounds[0], int)
            else st.floats(*bounds)
            for name, bounds in ranges.items()
        }

        def decorate(test):
            test = given(**strategies)(test)
            for case in examples:
                test = example(**case)(test)
            return settings(max_examples=count, deadline=None, derandomize=True)(test)

        return decorate
    rng = np.random.default_rng(2024)
    draws = [
        tuple(
            bool(rng.integers(2)) if bounds is None
            else int(rng.integers(bounds[0], bounds[1] + 1)) if isinstance(bounds[0], int)
            else float(rng.uniform(*bounds))
            for bounds in ranges.values()
        )
        for _ in range(count)
    ]
    draws += [tuple(case[name] for name in ranges) for case in examples]
    return pytest.mark.parametrize(", ".join(ranges), draws)


@oracle_cases(
    seed=(0, 2**32 - 1), n=(1, 120), m=(1, 4),
    q_exp=(-4.0, 4.0), r_exp=(-4.0, 4.0), unstable=None,
    examples=[
        dict(seed=150, n=150, m=3, q_exp=2.5, r_exp=-1.5, unstable=True),
        dict(seed=200, n=200, m=2, q_exp=-3.0, r_exp=3.0, unstable=False),
    ],
)
def test_care_matches_scipy(seed, n, m, q_exp, r_exp, unstable):
    # Weights scaled by up to 1e4 either way, open loops with their
    # rightmost eigenvalue at -0.5 or +0.5.
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a -= (np.linalg.eigvals(a).real.max() + (-0.5 if unstable else 0.5)) * np.eye(n)
    b = rng.standard_normal((n, m))
    g = rng.standard_normal((n, n))
    q = (g.T @ g + 0.1 * np.eye(n)) * 10.0**q_exp
    h = rng.standard_normal((m, m))
    r = (h.T @ h + 0.1 * np.eye(m)) * 10.0**r_exp
    linalg = pytest.importorskip("scipy.linalg")
    sol = solve_care(a, b, q, r)
    ref = linalg.solve_continuous_are(a, b, q, r)
    assert np.linalg.norm(sol.P - ref) <= 1e-7 * np.linalg.norm(ref)
    _, res = care_residual(a, b, q, r, sol.P)
    assert res <= 1e-9 * (1.0 + np.linalg.norm(sol.P) * np.linalg.norm(a))


@oracle_cases(seed=(0, 2**32 - 1), n=(1, 120), w_exp=(-6.0, 6.0))
def test_lyapunov_matches_scipy(seed, n, w_exp):
    rng = np.random.default_rng(seed)
    a = random_hurwitz(rng, n)
    g = rng.standard_normal((n, n))
    w = g.T @ g * 10.0**w_exp
    linalg = pytest.importorskip("scipy.linalg")
    x = solve_lyapunov(a, w)
    ref = linalg.solve_continuous_lyapunov(a.T, -w)
    assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)
