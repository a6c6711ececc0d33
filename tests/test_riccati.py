import math

import numpy as np
import pytest
import scipy.linalg

try:
    from hypothesis import given, settings
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
        # the solution grows like c^(2(n-1)), far beyond ||W||.  The rotated
        # variant hides the triangular structure from the Schur step.
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
        # At n = 20 one Bartels-Stewart solve leaves a relative residual
        # around 1e-14, so tol = 1e-15 forces the refinement pass.
        rng = np.random.default_rng(1400)
        n, tol = 20, 1e-15
        a = random_hurwitz(rng, n)
        g = rng.standard_normal((n, n))
        w = g.T @ g
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
        from scipy.integrate import simpson

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


def oracle_cases(**ranges):
    """Draw the keyword arguments of an oracle test from ``ranges``
    (``name=(lo, hi)``; integer bounds draw integers, float bounds floats,
    ``None`` a boolean): by hypothesis when it is installed, otherwise from
    a seeded sample of the same size."""
    count = 25
    if st is not None:
        strategies = {
            name: st.booleans() if bounds is None
            else st.integers(*bounds) if isinstance(bounds[0], int)
            else st.floats(*bounds)
            for name, bounds in ranges.items()
        }
        return lambda test: settings(
            max_examples=count, deadline=None, derandomize=True
        )(given(**strategies)(test))
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
    return pytest.mark.parametrize(", ".join(ranges), draws)


@oracle_cases(
    seed=(0, 2**32 - 1), n=(1, 120), m=(1, 4),
    q_exp=(-4.0, 4.0), r_exp=(-4.0, 4.0), unstable=None,
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
    sol = solve_care(a, b, q, r)
    ref = scipy.linalg.solve_continuous_are(a, b, q, r)
    assert np.linalg.norm(sol.P - ref) <= 1e-7 * np.linalg.norm(ref)
    _, res = care_residual(a, b, q, r, sol.P)
    assert res <= 1e-9 * (1.0 + np.linalg.norm(sol.P) * np.linalg.norm(a))


@oracle_cases(seed=(0, 2**32 - 1), n=(1, 120), w_exp=(-6.0, 6.0))
def test_lyapunov_matches_scipy(seed, n, w_exp):
    rng = np.random.default_rng(seed)
    a = random_hurwitz(rng, n)
    g = rng.standard_normal((n, n))
    w = g.T @ g * 10.0**w_exp
    x = solve_lyapunov(a, w)
    ref = scipy.linalg.solve_continuous_lyapunov(a.T, -w)
    assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)
