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
from rsmlqr.matkit import definiteness, is_hurwitz
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


def sign(z):
    """``riccati._sign_newton`` on the stack of one, raising its error."""
    (s,) = riccati._sign_newton(np.asarray(z, dtype=float)[None])
    if isinstance(s, Exception):
        raise s
    return s


def certify(a, b, q, r, g, p, tol, method):
    """``riccati._certified`` on the stack of one."""
    (sol,) = riccati._certified(
        *(np.asarray(x, dtype=float)[None] for x in (a, b, q, r, g, p)), tol, method
    )
    return sol


def lyapunov_certified(p, a_cl):
    """``riccati._lyapunov_certified`` on the stack of one."""
    return riccati._lyapunov_certified(p[None], a_cl[None])[0]


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

    def test_non_finite_step_is_rejected(self, monkeypatch):
        # a NaN Newton step has a NaN residual, which must not pass for an
        # improvement: the unpolished candidate is certified instead
        core, calls = riccati._lyap_core, []

        def nan_first(a_cl, w):
            calls.append(1)
            return np.full_like(w, np.nan) if len(calls) == 1 else core(a_cl, w)

        rng = np.random.default_rng(1300)
        a, b, q, r = random_care_problem(rng, 5, 2)
        monkeypatch.setattr(riccati, "_lyap_core", nan_first)
        sol = solve_care(a, b, q, r, tol=1e-14)
        assert len(calls) == 1
        assert np.isfinite(sol.P).all()
        _, res = care_residual(a, b, q, r, sol.P)
        assert res == sol.residual_norm
        assert res <= 1e-14 * (1.0 + np.linalg.norm(sol.P) * np.linalg.norm(a))

    def test_certificate_solves_with_r_once(self, monkeypatch):
        # the scalar CARE: one solve forms G = B R^{-1} B^T and one is the
        # certified residual's, whose R^{-1} B^T P is the gain as well
        solve, calls = np.linalg.solve, []

        def counting(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", counting)
        sol = solve_care([[-1.0]], [[1.0]], [[1.0]], [[1.0]])
        assert len(calls) == 2
        np.testing.assert_allclose(sol.F, [[1.0 - SQRT2]], rtol=1e-14)

    def test_default_tol_agrees_with_polished(self):
        rng = np.random.default_rng(1300)
        a, b, q, r = random_care_problem(rng, 5, 2)
        loose = solve_care(a, b, q, r).P
        tight = solve_care(a, b, q, r, tol=1e-14).P
        np.testing.assert_allclose(tight, loose, rtol=1e-9, atol=1e-12)


class TestCertificates:
    # The scalar CARE of A = -1, B = Q = R = 1 is p^2 + 2p - 1 = 0, with
    # the stabilizing root -1 + sqrt(2) and the anti-stabilizing -1 - sqrt(2).
    @staticmethod
    def _scalar():
        a, b, q, r = (np.array([[v]]) for v in (-1.0, 1.0, 1.0, 1.0))
        return a, b, q, r, b @ b.T

    def test_anti_stabilizing_root_is_not_psd(self):
        a, b, q, r, g = self._scalar()
        p = np.array([[-1.0 - SQRT2]])
        msg = certify(a, b, q, r, g, p, 1e-9, "sign")
        assert msg.startswith("computed Riccati solution is not positive semidefinite")
        assert "-2.414214e+00" in msg

    def test_unstable_polish_leaves_the_residual_failing(self, monkeypatch):
        # p = -5 has residual 2 * -5 - 1 + 25 = 14 and A - G P = 4, so the
        # first Newton sweep's Lyapunov solve is not Hurwitz and the polish
        # stops with the candidate as it was
        a, b, q, r, g = self._scalar()
        core, raised = riccati._lyap_core, []

        def recording(a_cl, w):
            try:
                return core(a_cl, w)
            except NotHurwitzError as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(riccati, "_lyap_core", recording)
        msg = certify(a, b, q, r, g, np.array([[-5.0]]), 1e-9, "sign")
        assert len(raised) == 1
        assert msg == "Riccati residual 1.400e+01 exceeds 1.0e-09 * 6.000e+00"

    def test_overflowing_candidate_fails_the_residual(self):
        # p = 1e160: the residual and ||P|| overflow to inf, which the
        # residual test rejects (inf <= 1e-9 * inf would pass it)
        a, b, q, r, g = self._scalar()
        msg = certify(a, b, q, r, g, np.array([[1e160]]), 1e-9, "sign")
        assert msg == "Riccati residual inf exceeds 1.0e-09 * inf"


class TestLyapunovFailuresTyped:
    # The ways the Lyapunov doubling stops on a Hurwitz matrix: its one
    # inverse, of the Cayley shift A - gamma I, fails, an iterate is not
    # finite, or E_k has not vanished within the step cap.
    def test_singular_cayley_inverse_becomes_numerical_failure(self, monkeypatch):
        exc = np.linalg.LinAlgError("Singular matrix")

        def broken(m):
            raise exc

        monkeypatch.setattr(np.linalg, "inv", broken)
        with pytest.raises(NumericalFailureError) as info:
            solve_lyapunov(np.diag([-1.0, -2.0]), np.eye(2))
        assert isinstance(info.value, RsmLqrError)
        assert info.value.__cause__ is exc

    @pytest.mark.parametrize("stop", ["non-finite", "step-cap"])
    def test_stopped_doubling_becomes_numerical_failure(self, monkeypatch, stop):
        if stop == "non-finite":
            monkeypatch.setattr(np.linalg, "inv", lambda m: np.full_like(m, np.nan))
        else:
            # E_1 = diag(-1/3, 0) has not vanished after the one step allowed
            monkeypatch.setattr(riccati, "_SDA_MAX_ITER", 1)
        with pytest.raises(NumericalFailureError, match="stopped on a Hurwitz matrix") as info:
            solve_lyapunov(np.diag([-1.0, -2.0]), np.eye(2))
        assert isinstance(info.value, RsmLqrError)

    def test_polish_failure_is_typed(self, monkeypatch):
        inv = np.linalg.inv

        def broken(m):
            # the Hamiltonian sign steps invert 10 x 10 matrices and run;
            # only the Lyapunov solves' 5 x 5 Cayley inverse breaks
            if m.shape[0] == 5:
                raise np.linalg.LinAlgError("forced")
            return inv(m)

        rng = np.random.default_rng(1300)
        a, b, q, r = random_care_problem(rng, 5, 2)
        monkeypatch.setattr(np.linalg, "inv", broken)
        with pytest.raises(NumericalFailureError):
            solve_care(a, b, q, r, tol=1e-14)


class TestSignNewton:
    def test_diagonal(self):
        s = sign(np.diag([-2.0, 0.5, 30.0]))
        np.testing.assert_allclose(s, np.diag([-1.0, 1.0, 1.0]), atol=1e-15)

    def test_singular_iterate(self):
        # eigenvalues +-i: the scaled first step lands on the zero matrix
        with pytest.raises(np.linalg.LinAlgError, match="singular iterate"):
            sign(np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_non_finite_inverse_is_a_singular_iterate(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "inv", lambda m: np.full_like(m, np.inf))
        with pytest.raises(np.linalg.LinAlgError, match="singular iterate"):
            sign(np.diag([-1.0, 2.0]))

    def test_overflowing_w_fails_without_a_warning(self, lyap_calls):
        # ||W||_F^2 overflows, so the error names W's scale before the
        # doubling starts, where H_0 = 2 gamma A_g^{-T} W A_g^{-1} (gamma =
        # 2^-33) would overflow too; no warning
        with pytest.raises(NumericalFailureError, match="^W is out of range") as info:
            solve_lyapunov(-1e-10 * np.eye(2), 1e300 * np.eye(2))
        assert "max|W| 1.000e+300" in str(info.value)
        assert len(lyap_calls) == 0

    def test_singular_input_is_a_singular_iterate(self):
        # the LU breaks down on the first step; its error becomes the
        # kernel's own
        with pytest.raises(np.linalg.LinAlgError, match="singular iterate"):
            sign(np.diag([0.0, 1.0]))

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
        s = sign(v @ np.diag(d) @ inv(v))
        exact = v @ np.diag(np.sign(d)) @ inv(v)
        assert np.linalg.norm(s - exact) <= 1e-9 * np.linalg.norm(exact)
        assert 1 <= len(calls) <= 10

    def test_no_convergence_within_cap(self):
        z = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            sign(z)

    def test_round_off_floor_stops(self):
        # eigenvectors with condition 1e4: the steps stall near 1e-11,
        # above the 1e-13 test, and the floor rule accepts that iterate
        rng = np.random.default_rng(0)
        q1, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        q2, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        v = q1 @ np.diag(np.logspace(0, -4, 8)) @ q2
        d = np.array([-1.0, -1.5, -2.0, -3.0, 1.0, 1.5, 2.0, 3.0])
        s = sign(v @ np.diag(d) @ np.linalg.inv(v))
        exact = v @ np.diag(np.sign(d)) @ np.linalg.inv(v)
        assert np.linalg.norm(s - exact) <= 1e-8 * np.linalg.norm(exact)

    def test_empty_system(self):
        assert solve_lyapunov(np.zeros((0, 0)), np.zeros((0, 0))).shape == (0, 0)
        sol = solve_care(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((0, 0)), [[1.0]])
        assert sol.P.shape == (0, 0) and sol.F.shape == (1, 0)


class TestDoubling:
    # Orders from riccati._SDA_MIN_ORDER = 9 up take their candidate from the
    # structure-preserving doubling; the sign step is the fallback.  On
    # random CAREs with m = 2 and one BLAS thread the doubling is 4-23%
    # slower at orders 2-8 and 7-25% faster at orders 9-16.
    @pytest.mark.parametrize("n", [16, 20, 45])
    def test_pd_weight_takes_doubling_without_a_2n_inverse(self, n, monkeypatch):
        shapes = []
        inv = np.linalg.inv

        def recording(m):
            shapes.append(m.shape[-1])
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
        n = riccati._SDA_MIN_ORDER - 1
        rng = np.random.default_rng(1600 + n)
        assert solve_care(*random_care_problem(rng, n, 2)).method == "sign"

    def test_undetectable_weight_falls_back_to_sign(self):
        # the unstable mode at 1.3 is invisible to Q: the doubling does not
        # converge (E_k overflows within a few steps), and the sign step
        # finds the stabilizing P11 = 2 * 1.3
        n = 20
        a = np.diag([1.3] + [-1.1] * (n - 1))
        q = np.diag([0.0] + [1.0] * (n - 1))
        with pytest.raises(np.linalg.LinAlgError, match="doubling breakdown"):
            riccati._sda(a, np.eye(n), q, 1.0)
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
        # eigenvalues +-i: the Cayley transform has |rho| = 1, so E_k never
        # vanishes and the kernel stops at _SDA_MAX_ITER
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            riccati._sda(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros((2, 2)), np.eye(2), 1.0)

    @staticmethod
    def _falls_back_to_sign(monkeypatch, **patches):
        """An order-16 CARE that the doubling solves certifies the sign
        candidate once ``patches`` of ``riccati`` make the doubling stop."""
        rng = np.random.default_rng(1616)
        a, b, q, r = random_care_problem(rng, 16, 2)
        assert solve_care(a, b, q, r).method == "doubling"
        for name, value in patches.items():
            monkeypatch.setattr(riccati, name, value)
        sol = solve_care(a, b, q, r)
        assert sol.method == "sign"
        _, res = care_residual(a, b, q, r, sol.P)
        assert res <= 1e-9 * (1.0 + np.linalg.norm(sol.P) * np.linalg.norm(a))
        assert sol.closed_loop_max_re < 0.0

    def test_step_cap(self, monkeypatch):
        sda = riccati._sda
        stops = []

        def recording(*args):
            try:
                return sda(*args)
            except np.linalg.LinAlgError as exc:
                stops.append(str(exc))
                raise

        self._falls_back_to_sign(monkeypatch, _SDA_MAX_ITER=1, _sda=recording)
        assert stops == ["doubling did not converge in 1 steps"]

    # scalars (a, g, q, gamma) that stop the first doubling step
    BREAKDOWNS = {
        # H starts at 4e299, so the first increment's square overflows
        "non-finite": (-1.0, 1e-300, 1e300, 1.0),
        # the Cayley transform gives G = 1 and H = -1 exactly, so I + G H = 0
        "singular": (1.0, 1.0, -1.0, 4.0),
    }

    @pytest.mark.parametrize("case", sorted(BREAKDOWNS))
    def test_breakdown(self, case, monkeypatch):
        a, g, q, gamma = self.BREAKDOWNS[case]
        args = (np.array([[a]]), np.array([[g]]), np.array([[q]]), gamma)
        sda = riccati._sda
        with pytest.raises(np.linalg.LinAlgError, match="doubling breakdown") as info:
            sda(*args)
        # only the singular solve chains numpy's own error
        assert (info.value.__cause__ is not None) == (case == "singular")
        self._falls_back_to_sign(monkeypatch, _sda=lambda *_: sda(*args))

    @pytest.mark.parametrize("n", [9, 20, 37])
    def test_late_g_update_keeps_the_bits(self, n):
        # _sda updates G after the stop test, so its last step forms no G;
        # the reference updates G before that test on every step
        def reference(a, g, q, gamma):
            eye = np.eye(n)
            a_inv = np.linalg.inv(a - gamma * eye)
            w_inv = np.linalg.inv((a - gamma * eye).T + q @ (a_inv @ g))
            e = eye + 2.0 * gamma * w_inv.T
            g_k = (2.0 * gamma) * (w_inv.T @ (a_inv @ g).T)
            h_k = (2.0 * gamma) * (w_inv @ (q @ a_inv))
            g_k, h_k = 0.5 * (g_k + g_k.T), 0.5 * (h_k + h_k.T)
            while True:
                w = np.linalg.inv(eye + g_k @ h_k)
                t_e = w @ e
                step = e.T @ h_k @ t_e
                g_k = g_k + e @ (w @ g_k) @ e.T
                g_k = 0.5 * (g_k + g_k.T)
                e = e @ t_e
                h_k = h_k + 0.5 * (step + step.T)
                if float(np.vdot(e, e)) <= riccati._SIGN_TOL:
                    return h_k

        a, b, q, _ = random_care_problem(np.random.default_rng(2500 + n), n, 2)
        args = (a, b @ b.T, q, 2.0)
        assert riccati._sda(*args).tobytes() == reference(*args).tobytes()

    def test_vanished_e_saves_the_confirming_step(self, monkeypatch):
        # once ||E_k||_F^2 <= _SIGN_TOL every later increment could only
        # confirm the stop: on this order-100 CARE the doubling makes 12
        # inverses (two for the Cayley transform)
        n = 100
        a, b, q, r = random_care_problem(np.random.default_rng(2200), n, 2)
        sda, inv = riccati._sda, np.linalg.inv
        inside, inverses = [], []

        def counting_inv(*args):
            inverses.extend(inside)
            return inv(*args)

        def tracking_sda(*args):
            inside.append(1)
            try:
                return sda(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        monkeypatch.setattr(riccati, "_sda", tracking_sda)
        sol = solve_care(a, b, q, r)
        assert len(inverses) == 12
        assert sol.method == "doubling"
        _, res = care_residual(a, b, q, r, sol.P)
        assert res <= riccati.RTOL * (1.0 + np.linalg.norm(sol.P) * np.linalg.norm(a))

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

    def test_imaginary_axis_mode_runs_the_doubling_to_its_cap(self, monkeypatch):
        # the same CARE: E_k never vanishes, so the doubling hands over to
        # the sign step at its _SDA_MAX_ITER = 60 cap, each step one inverse
        # of I + G H
        n = 20
        rng = np.random.default_rng(20)
        a = np.zeros((n, n))
        a[0, 1], a[1, 0] = 1.0, -1.0
        a[2:, 2:] = random_hurwitz(rng, n - 2)
        b = np.zeros((n, 2))
        b[2:] = rng.standard_normal((n - 2, 2))
        sda, inv = riccati._sda, np.linalg.inv
        inside, inverses, stops = [], [], []

        def counting_inv(*args):
            inverses.extend(inside)
            return inv(*args)

        def tracking_sda(*args):
            inside.append(1)
            try:
                return sda(*args)
            except np.linalg.LinAlgError as exc:
                stops.append(str(exc))
                raise
            finally:
                inside.pop()

        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        monkeypatch.setattr(riccati, "_sda", tracking_sda)
        with pytest.raises(NotStabilizableError, match="0\\+1j is unreachable"):
            solve_care(a, b, np.eye(n), np.eye(2))
        assert stops == [f"doubling did not converge in {riccati._SDA_MAX_ITER} steps"]
        # the Cayley transform takes the first two inverses, the steps the rest
        assert len(inverses) == 2 + riccati._SDA_MAX_ITER


class TestLyapunovCertificate:
    """PSD and Hurwitz are proven by Cholesky factorizations of ``P`` and of
    ``M = -(A_cl^T P + P A_cl)``; the eigenvalue tests decide when either
    fails."""

    @staticmethod
    def _eigen_verdict(p, a_cl):
        return definiteness(p).psd and is_hurwitz(a_cl).hurwitz

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 9, 13, 21, 34, 55, 89, 120])
    def test_agrees_with_the_eigenvalue_tests(self, n):
        rng = np.random.default_rng(2100 + n)
        a, b, q, r = random_care_problem(rng, n, 2)
        sol = solve_care(a, b, q, r)
        p, a_cl = sol.P, a + b @ sol.F
        # the stabilizing solution is proven by the factorizations alone
        assert lyapunov_certified(p, a_cl)
        assert self._eigen_verdict(p, a_cl)
        # candidates just past each boundary, which the eigenvalue tests
        # reject, are never proven: P moved to min eigenvalue -1e-6 (1 +
        # max|P|), below the PSD cut, and the loop moved right to max real
        # part 1e-6; a singular P may be left to the eigenvalue tests
        eye = np.eye(n)
        lam = float(np.linalg.eigvalsh(p)[0])
        below = p - (lam + 1e-6 * (1.0 + np.abs(p).max())) * eye
        right = a_cl + (1e-6 - is_hurwitz(a_cl).max_real_part) * eye
        for cand_p, cand_a in ((below, a_cl), (p, right), (below, right)):
            assert not self._eigen_verdict(cand_p, cand_a)
            assert not lyapunov_certified(cand_p, cand_a)
        singular = p - lam * eye
        if lyapunov_certified(singular, a_cl):
            assert self._eigen_verdict(singular, a_cl)

    def test_singular_q_takes_the_eigenvalue_path(self, monkeypatch):
        # the first mode is stable and carries no cost, so P[0, 0] = 0: the
        # factorization of P fails and the eigenvalue tests certify
        n = 12
        rng = np.random.default_rng(12)
        a = np.diag(-np.arange(1.0, n + 1.0))
        b = rng.standard_normal((n, 2))
        q = np.diag([0.0] + [1.0] * (n - 1))
        calls = []
        for name in ("definiteness", "is_hurwitz"):
            real = getattr(riccati, name)

            def recording(m, *args, _real=real, _name=name):
                calls.append(_name)
                return _real(m, *args)

            monkeypatch.setattr(riccati, name, recording)
        sol = solve_care(a, b, q, np.eye(2))
        assert sol.P[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert sol.method == "doubling"
        assert calls == ["definiteness", "is_hurwitz"]
        # the eigenvalue test's value is kept, not computed again
        assert sol.known_max_re == sol.closed_loop_max_re < 0.0
        assert calls == ["definiteness", "is_hurwitz"]
        assert sol.stabilizing

    def test_failure_messages_are_the_eigenvalue_tests(self):
        # the anti-stabilizing root 1 - sqrt(2) of -2p - 1 + p^2 = 0 solves
        # the scalar CARE exactly but is negative
        one = np.ones((1, 1))
        msg = certify(
            one, one, one, one, one, np.array([[1.0 - SQRT2]]), riccati.RTOL, "sign"
        )
        min_eig = definiteness([[1.0 - SQRT2]]).min_eigenvalue
        assert msg == (
            "computed Riccati solution is not positive semidefinite; "
            f"min eigenvalue {min_eig:.6e}"
        )
        # the undetectable CARE of test_undetectable_weight_falls_back_to_sign:
        # its minimal PSD solution, P11 = 0 and sqrt(2.21) - 1.1 on the
        # stable modes, solves it exactly but leaves the mode at 1.3
        n = 20
        a = np.diag([1.3] + [-1.1] * (n - 1))
        q = np.diag([0.0] + [1.0] * (n - 1))
        eye = np.eye(n)
        p = np.diag([0.0] + [math.sqrt(2.21) - 1.1] * (n - 1))
        msg = certify(a, eye, q, eye, eye, p, riccati.RTOL, "doubling")
        max_re = is_hurwitz(a - p).max_real_part
        assert max_re == pytest.approx(1.3, abs=1e-12)
        assert msg == (
            "computed Riccati solution is not stabilizing; closed-loop "
            f"max real part {max_re:.6e}"
        )

    def test_max_re_is_computed_once_on_first_read(self, monkeypatch):
        rng = np.random.default_rng(48)
        a, b, q, r = random_care_problem(rng, 48, 2)
        calls = []
        real = riccati.is_hurwitz

        def recording(m):
            calls.append(1)
            return real(m)

        monkeypatch.setattr(riccati, "is_hurwitz", recording)
        sol = solve_care(a, b, q, r)
        assert sol.known_max_re is None and not calls
        first = sol.closed_loop_max_re
        assert sol.closed_loop_max_re == first == real(a + b @ sol.F).max_real_part
        assert len(calls) == 1

    def test_hand_built_solution_keeps_its_value(self):
        sol = riccati.RiccatiSolution(np.eye(1), np.zeros((1, 1)), 0.0, 0.5)
        assert sol.closed_loop_max_re == 0.5 and not sol.stabilizing


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

    def test_wrong_stable_dimension(self, monkeypatch):
        # a sign of I counts no stable eigenvalue of the Hamiltonian
        monkeypatch.setattr(riccati, "_sign_newton", lambda z: [np.eye(z.shape[-1])] * len(z))
        with pytest.raises(NotStabilizableError, match="has dimension 0, expected 1"):
            solve_care([[-1.0]], [[1.0]], [[1.0]], [[1.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            solve_care(np.eye(2), np.ones((3, 1)), np.eye(2), [[1.0]])

    def test_no_input_column(self):
        with pytest.raises(ShapeError, match="B must have at least one column"):
            solve_care(-np.eye(2), np.zeros((2, 0)), np.eye(2), np.zeros((0, 0)))

    def test_asymmetric_q(self):
        with pytest.raises(NotSymmetricError):
            solve_care(np.eye(2) * -1, np.eye(2), [[1.0, 0.5], [0.0, 1.0]], np.eye(2))

    # finite entries whose squares overflow leave no scale to read off the
    # Hamiltonian, and the error names each block's largest entry; G =
    # B R^{-1} B^T itself overflows for B = 1e160.  A RuntimeWarning fails
    # the suite, so none escapes on the way.
    @pytest.mark.parametrize(
        "a, b, q, scales",
        [
            ([[-1.0]], [[1.0]], [[1e160]], "1.000e+00, max|G| 1.000e+00, max|Q| 1.000e+160"),
            ([[-1.0]], [[1e160]], [[1.0]], "1.000e+00, max|G| inf, max|Q| 1.000e+00"),
            ([[-1e160]], [[1.0]], [[1.0]], "1.000e+160, max|G| 1.000e+00, max|Q| 1.000e+00"),
            (
                -1e160 * np.eye(10), np.ones((10, 1)), np.eye(10),
                "1.000e+160, max|G| 1.000e+00, max|Q| 1.000e+00",
            ),
        ],
        ids=["Q", "B", "A-sign", "A-doubling"],
    )
    def test_squares_past_the_float_range(self, a, b, q, scales):
        with pytest.raises(NumericalFailureError) as info:
            solve_care(a, b, q, [[1.0]])
        assert str(info.value) == (
            "the Hamiltonian is out of range: its squared Frobenius norm "
            f"overflows (max|A| {scales}); rescale the problem"
        )

    @pytest.mark.parametrize(
        "a, q, p",
        [
            # ||Z||_F / ||Z^{-1}||_F = 1e160 for the Hamiltonian's eigenvalues
            # +-1e80, so the ratio of squares that gives the sign step's
            # scale c overflows; c = 1e80 is read off the norms instead
            (-1e80, 1.0, 5e-81),
            # ||M||_F^2 overflows in the Cholesky certificate's shift, and
            # the eigenvalue tests certify
            (-1.0, 1e154, 1e77),
        ],
        ids=["wide-spectrum", "large-M"],
    )
    def test_certified_near_the_float_range(self, a, q, p):
        sol = solve_care([[a]], [[1.0]], [[q]], [[1.0]])
        assert sol.method == "sign"
        assert sol.P[0, 0] == pytest.approx(p, rel=1e-12)
        assert sol.stabilizing


def same_result(stacked, alone):
    """Whether a stacked member and the same CARE solved alone agree bit for
    bit: ``P``, ``F``, the residual, the method and the eigenvalue test's
    value, or the error's type and message."""
    if isinstance(alone, Exception):
        return type(stacked) is type(alone) and str(stacked) == str(alone)
    return (
        isinstance(stacked, riccati.RiccatiSolution)
        and stacked.P.tobytes() == alone.P.tobytes()
        and stacked.F.tobytes() == alone.F.tobytes()
        and stacked.residual_norm == alone.residual_norm
        and stacked.method == alone.method
        and stacked.known_max_re == alone.known_max_re
    )


def solve_alone(a, b, q, r, tol=riccati.RTOL):
    """``riccati._solve_care`` on one member, or the error it raises."""
    try:
        return riccati._solve_care(a, b, q, r, tol)
    except RsmLqrError as exc:
        return exc


def mixed_stack(rng, n, m, k):
    """``k`` CAREs of order ``n`` with ``m`` inputs, drawn to differ: stable
    and unstable ``A``, scales of ``A``, ``Q`` and ``R`` over several
    decades, and a singular ``Q`` that does not see a decoupled stable first
    state, whose ``P`` is singular and certified by the eigenvalue tests."""
    stacks = []
    for i in range(k):
        a = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-1, 1)
        if i % 2:
            a = a - (float(np.linalg.eigvals(a).real.max()) + 0.5) * np.eye(n)
        g = rng.standard_normal((n, n))
        q = (g.T @ g + 0.1 * np.eye(n)) * 10.0 ** rng.uniform(-2, 2)
        if i % 3 == 0 and n > 1:
            a[0, 1:], a[1:, 0], a[0, 0] = 0.0, 0.0, -1.0 - abs(a[0, 0])
            q[0], q[:, 0] = 0.0, 0.0
        h = rng.standard_normal((m, m))
        r = (h.T @ h + 0.1 * np.eye(m)) * 10.0 ** rng.uniform(-2, 2)
        stacks.append((a, rng.standard_normal((n, m)), 0.5 * (q + q.T), 0.5 * (r + r.T)))
    return [np.stack(x) for x in zip(*stacks)]


class TestStackedSolve:
    """``_solve_care_stack`` solves CAREs of one shape together; each member
    gets exactly what ``_solve_care`` gives it alone.  CI runs this class
    on one BLAS thread as well."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_members_match_their_solves_alone(self, n, m):
        rng = np.random.default_rng(2600 + 10 * n + m)
        stacks = mixed_stack(rng, n, m, 7)
        sols = riccati._solve_care_stack(*stacks)
        assert len(sols) == 7
        for i, sol in enumerate(sols):
            assert same_result(sol, solve_alone(*(x[i] for x in stacks)))
        assert any(isinstance(sol, riccati.RiccatiSolution) for sol in sols)

    def test_doubling_members_match_their_solves_alone(self):
        # from _SDA_MIN_ORDER on the doubling runs member by member and the
        # certificate is stacked; the undetectable member falls back to sign
        rng = np.random.default_rng(2612)
        a, b, q, r = mixed_stack(rng, 12, 2, 4)
        a[0] = np.diag([1.3] + [-1.1] * 11)
        q[0] = np.diag([0.0] + [1.0] * 11)
        sols = riccati._solve_care_stack(a, b, q, r)
        assert sols[0].method == "sign"
        assert {sol.method for sol in sols[1:]} == {"doubling"}
        for i, sol in enumerate(sols):
            assert same_result(sol, solve_alone(a[i], b[i], q[i], r[i]))

    def test_axis_mode_member_beside_certified_doubling_members(self):
        # the order-10 subsystem of CI's axis_mode problem: the rotation at
        # +-i is out of B's reach, so its doubling runs to the step cap and
        # its sign rung names the mode; the members beside it certify
        rng = np.random.default_rng(2613)
        a, b, q, r = mixed_stack(rng, 10, 1, 5)
        a[2] = -np.eye(10)
        a[2, :2, :2] = [[0.0, 1.0], [-1.0, 0.0]]
        b[2], b[2, :2] = 1.0, 0.0
        q[2], r[2] = np.eye(10), 1.0
        sols = riccati._solve_care_stack(a, b, q, r)
        assert isinstance(sols[2], NotStabilizableError) and "0+1j" in str(sols[2])
        others = [sol for i, sol in enumerate(sols) if i != 2]
        assert all(isinstance(sol, riccati.RiccatiSolution) for sol in others)
        assert "doubling" in {sol.method for sol in others}
        for i, sol in enumerate(sols):
            assert same_result(sol, solve_alone(a[i], b[i], q[i], r[i]))

    def test_candidates_climb_the_ladder_as_alone(self):
        # one stack holds candidates that certify (each CARE's solution),
        # candidates that fail their certificate (the anti-stabilizing
        # solution, which solves the equation but is not PSD) and no
        # candidate: each member gets what its stack of one gets
        rng = np.random.default_rng(2614)
        problems = [random_care_problem(rng, 3, 2) for _ in range(5)]
        a, b, q, r = (np.stack(x) for x in zip(*problems))
        solved = [riccati._solve_care(*problem).P for problem in problems]
        anti = [-riccati._solve_care(-pa, pb, pq, pr).P for pa, pb, pq, pr in problems]
        candidates = [solved[0], anti[1], None, solved[3], anti[4]]
        sols = riccati._solve_care_stack(a, b, q, r, candidates=candidates)
        assert [sol.method for sol in sols] == ["composed", "sign", "sign", "composed", "sign"]
        for i, sol in enumerate(sols):
            one = (a[i:i + 1], b[i:i + 1], q[i:i + 1], r[i:i + 1])
            (alone,) = riccati._solve_care_stack(*one, candidates=[candidates[i]])
            assert same_result(sol, alone)
            if sol.method == "composed":
                assert sol.P.tobytes() == candidates[i].tobytes()
            else:
                # a member whose candidate did not certify is the kernels'
                assert same_result(sol, solve_alone(*problems[i]))

    @pytest.mark.parametrize(
        "a, b, q, error, message",
        [
            # the rotation block is out of B's reach: the candidate fails its
            # residual and the PBH test names the mode
            (
                [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]],
                [[0.0], [0.0], [1.0]], np.eye(3), NotStabilizableError,
                "0\\+1j is unreachable",
            ),
            # a singular Hamiltonian: the stacked inverse fails, and the
            # member's own inverse names it
            (np.diag([0.0, -1.0, -2.0]), [[0.0], [1.0], [1.0]], np.diag([0.0, 1.0, 1.0]),
             NotStabilizableError, "singular iterate"),
            # ||A||_F^2 overflows: the range test takes the member off the
            # ladder before the sign rung
            (-1e160 * np.eye(3), np.ones((3, 1)), np.eye(3), NumericalFailureError,
             "the Hamiltonian is out of range"),
        ],
        ids=["axis-mode", "singular-iterate", "out-of-range"],
    )
    def test_failed_member_leaves_the_others_certified(self, a, b, q, error, message):
        rng = np.random.default_rng(2603)
        stacks = mixed_stack(rng, 3, 1, 5)
        for x, member in zip(stacks, (a, b, q, [[1.0]])):
            x[2] = member
        sols = riccati._solve_care_stack(*stacks)
        alone = solve_alone(*(x[2] for x in stacks))
        assert isinstance(alone, error)
        assert re.search(message, str(alone))
        assert same_result(sols[2], alone)
        for i in (0, 1, 3, 4):
            assert isinstance(sols[i], riccati.RiccatiSolution)
            assert same_result(sols[i], solve_alone(*(x[i] for x in stacks)))
        with pytest.raises(error, match=message):
            riccati._solve_care(*(x[2] for x in stacks))

    def test_polished_members_match_their_solves_alone(self, lyap_calls):
        # at tol = 1e-14 the sweep threshold is below the sign candidate's
        # round-off, so every member takes the Newton polish on its slice
        rng = np.random.default_rng(1300)
        problems = [random_care_problem(rng, 5, 2) for _ in range(4)]
        stacks = [np.stack(x) for x in zip(*problems)]
        sols = riccati._solve_care_stack(*stacks, tol=1e-14)
        assert len(lyap_calls) >= 4
        for sol, problem in zip(sols, problems):
            assert same_result(sol, solve_alone(*problem, tol=1e-14))

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_norms_are_each_members_own(self, k):
        # a stacked 1 x 1 product per member (or np.vdot for a stack of one)
        # sums in np.linalg.norm's order, at any stack size
        rng = np.random.default_rng(2700 + k)
        for n in (1, 3, 8, 16, 40):
            x = rng.standard_normal((k, n, n)) * 10.0 ** rng.uniform(-8, 8, (k, 1, 1))
            assert riccati._sq_norms(x) == [float(np.vdot(m, m)) for m in x]
            assert riccati._norms(x) == [float(np.linalg.norm(m)) for m in x]

    def test_sign_members_iterate_as_alone(self):
        # converged, stopped by a singular iterate and stopped at the cap,
        # in one stack: each member's sign or error is its own
        zs = np.stack([
            np.diag([-2.0, 0.5, 30.0]),
            np.diag([0.0, 1.0, 2.0]),
            np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 2.0]]),
            np.array([[-1.0, 5.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, -0.5]]),
        ])
        out = riccati._sign_newton(zs)
        for z, s in zip(zs, out):
            try:
                alone = sign(z)
            except np.linalg.LinAlgError as exc:
                assert type(s) is type(exc) and str(s) == str(exc)
            else:
                assert s.tobytes() == alone.tobytes()
        assert [isinstance(s, np.ndarray) for s in out] == [True, False, False, True]


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

    def test_overflow_reads_as_inf_without_a_warning(self):
        # P^T B R^{-1} B^T P = 1e320 overflows; a RuntimeWarning fails the suite
        res, norm = care_residual([[-1.0]], [[1.0]], [[1.0]], [[1.0]], [[1e160]])
        assert norm == math.inf and res[0, 0] == math.inf


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
            # E_k grows like 3^(2^k) and overflows within a few steps
            (np.diag([-1.0, 0.5, -2.0]), "5.000000e-01"),
            # +-2i map onto the unit circle, so E_k never vanishes and the
            # doubling runs to its step cap
            (np.array([[0.0, 2.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 0.0, -3.0]]), "0.000000e+00"),
            # E_k grows like (1 + 2e-12)^(2^k) and overflows near step 48
            (np.diag([-1.0, 1e-12, -2.0]), "1.000000e-12"),
        ],
        ids=["unstable", "imaginary_axis", "barely_unstable"],
    )
    def test_hurwitz_gate_names_max_real_part(self, a, max_re, lyap_calls):
        with pytest.raises(NotHurwitzError, match=re.escape(f"max real part {max_re}")):
            solve_lyapunov(a, np.eye(3))
        assert len(lyap_calls) == 1

    @pytest.mark.parametrize("n", [60, 120])
    def test_one_inverse_per_solve(self, n, monkeypatch, lyap_calls):
        # the Cayley transform inverts A - gamma I once; every doubling step
        # is three products
        rng = np.random.default_rng(2260 + n)
        a = random_hurwitz(rng, n)
        g = rng.standard_normal((n, n))
        shapes, inv = [], np.linalg.inv

        def counting(m):
            shapes.append(m.shape[0])
            return inv(m)

        monkeypatch.setattr(np.linalg, "inv", counting)
        x = riccati._lyap_core(a, g.T @ g)
        assert shapes == [n] and np.isfinite(x).all()
        solve_lyapunov(a, g.T @ g)
        assert shapes == [n] * len(lyap_calls)

    @pytest.mark.parametrize(
        "a, w, message",
        [
            ([[-1e160]], [[1.0]], "the closed-loop matrix is out of range"),
            ([[-1.0]], [[1e160]], "W is out of range"),
        ],
        ids=["A_cl", "W"],
    )
    def test_squares_past_the_float_range(self, a, w, message):
        # the doubling's shift and the residual's scale are read off squared
        # norms, which overflow here
        with pytest.raises(NumericalFailureError, match=f"^{message}: its squared Frobenius"):
            solve_lyapunov(a, w)

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

    def test_overflow_reads_as_inf_without_a_warning(self):
        # the care_residual case with K = I; a RuntimeWarning fails the suite
        res, norm = rectangular_riccati_residual(
            [[-1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1e160]]
        )
        assert norm == math.inf and res[0, 0] == math.inf

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
    if n >= riccati._SDA_MIN_ORDER:
        assert sol.method == "doubling"
    ref = linalg.solve_continuous_are(a, b, q, r)
    assert np.linalg.norm(sol.P - ref) <= 1e-7 * np.linalg.norm(ref)
    _, res = care_residual(a, b, q, r, sol.P)
    assert res <= 1e-9 * (1.0 + np.linalg.norm(sol.P) * np.linalg.norm(a))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 30, 60, 90, 120])
def test_lyapunov_stiff_spectrum_matches_scipy(n):
    # eigenvalues -1e-3 .. -1e3 with eigenvectors of condition 10: the
    # Cayley transform maps the slowest mode to about 1 - 4e-6, so the
    # doubling takes about 22 steps.  Both solvers agree to about 5e-10.
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(2300 + n)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v = q1 @ np.diag(np.logspace(0, -1, n)) @ q2
    a = v @ np.diag(-np.logspace(-3, 3, n)) @ np.linalg.inv(v)
    g = rng.standard_normal((n, n))
    w = g.T @ g
    x = solve_lyapunov(a, w)
    ref = linalg.solve_continuous_lyapunov(a.T, -w)
    assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)


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
