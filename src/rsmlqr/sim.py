"""Closed-loop simulation and cost evaluation.

Trajectories come from classical fixed-step fourth-order Runge-Kutta.  The
infinite-horizon quadratic cost is evaluated exactly through a Lyapunov
solve (``J = x0^T X x0`` with ``A_cl^T X + X A_cl + W = 0``), whose Hurwitz
gate is read off the matrix sign the solve computes.  The direct design's
cost needs no solve: its certified Riccati solution is its cost matrix.
Quadrature over a simulated trajectory exists as an independent
cross-check, not as the primary route.  The cross-check is the package's
own composite Simpson rule on the sample times; an even sample count gets
Cartwright's correction for the last interval.  Unstable closed loops get
an infinite cost sentinel rather than an exception, so searches can keep
moving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NotHurwitzError
# require_matrix stays importable from here only because perfbench's tracer
# counts calls under this name; the gates coerce through conform.
from .matkit import conform, require_matrix
from .riccati import RiccatiSolution, solve_lyapunov
from .rsm import CompositeSystem

# A state beyond this magnitude means the loop is blowing up; integrating
# further only manufactures overflow.
DIVERGENCE_LIMIT = 1e12


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled state history.  ``diverged`` marks truncation by
    the overflow guard; all stored samples are finite either way."""

    times: np.ndarray
    states: np.ndarray
    diverged: bool = False


@dataclass(frozen=True)
class CostResult:
    """Infinite-horizon cost.  ``value`` is ``inf`` and ``gram`` is None
    when the closed loop is not Hurwitz."""

    value: float
    gram: np.ndarray | None
    stable: bool


@dataclass(frozen=True)
class GapResult:
    J_composed: float
    J_direct: float
    gap: float
    stable_composed: bool
    stable_direct: bool


def simulate(a_cl, x0, horizon: float, step: float) -> Trajectory:
    """Integrate ``xdot = A_cl x`` from ``x0`` over ``[0, horizon]``.

    The step is adjusted to the nearest value that divides the horizon
    evenly, so the grid is uniform and the last sample lands exactly on the
    horizon.  Classical RK4: global error is O(step^4).
    """
    a_arr, x = conform(
        (a_cl, "closed-loop matrix", "n", "n"), (x0, "initial state", "n")
    )
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise InvalidArgumentError(f"horizon must be positive and finite, got {horizon}")
    if not (math.isfinite(step) and step > 0.0):
        raise InvalidArgumentError(f"step must be positive and finite, got {step}")
    n_steps = max(1, round(horizon / step))
    h = horizon / n_steps
    states = np.empty((n_steps + 1, x.shape[0]))
    states[0] = x
    for i in range(1, n_steps + 1):
        k1 = a_arr @ x
        k2 = a_arr @ (x + 0.5 * h * k1)
        k3 = a_arr @ (x + 0.5 * h * k2)
        k4 = a_arr @ (x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if float(np.abs(x).max(initial=0.0)) > DIVERGENCE_LIMIT:
            times = np.arange(i) * h
            return Trajectory(times, states[:i].copy(), diverged=True)
        states[i] = x
    times = np.arange(n_steps + 1) * h
    return Trajectory(times, states, diverged=False)


def closed_loop_cost(a, b, f, q, r, x0) -> CostResult:
    """Exact infinite-horizon cost of ``u = F x`` from ``x0``.

    For Hurwitz ``A + B F`` the integral of ``x^T (Q + F^T R F) x`` equals
    ``x0^T X x0`` with ``X`` the Lyapunov solution, so no integration error
    enters.  A non-Hurwitz loop returns the infinite sentinel.
    """
    a_arr, b_arr, f_arr, q_arr, r_arr, x = conform(
        (a, "A", "n", "n"), (b, "B", "n", "m"), (f, "F", "m", "n"),
        (q, "Q", "n", "n"), (r, "R", "m", "m"), (x0, "initial state", "n"),
    )
    a_cl = a_arr + b_arr @ f_arr
    w = q_arr + f_arr.T @ r_arr @ f_arr
    try:
        gram = solve_lyapunov(a_cl, 0.5 * (w + w.T))
    except NotHurwitzError:
        return CostResult(math.inf, None, False)
    value = float(x @ gram @ x)
    return CostResult(max(value, 0.0), gram, True)


def optimality_gap(
    composite: CompositeSystem, q, r, f_composed, direct: RiccatiSolution, x0
) -> GapResult:
    """Cost of the composed block design minus the cost of the direct
    composite design, from the same initial state.

    ``direct`` is the certified Riccati solution of the composite under the
    weights ``q`` and ``r``.  Its ``P_c`` is the direct loop's cost matrix:
    with ``A_cl = A + B F`` and ``F = -R^{-1} B^T P_c``, the Riccati
    identity gives ``A_cl^T P_c + P_c A_cl + Q + F^T R F = -Res(P_c)``, so
    ``J_direct = x0^T P_c x0`` is exact up to the certified residual, and
    the direct loop is stable by ``direct.closed_loop_max_re < 0``.  Only
    the composed loop takes a Lyapunov solve (``closed_loop_cost``).

    When exactly one loop is stable the gap is ``+/-inf`` (composed
    unstable gives ``+inf``); when neither is, it is NaN.
    """
    _, x = conform(
        (direct.P, "direct Riccati solution", composite.n, composite.n),
        (x0, "initial state", composite.n),
    )
    composed = closed_loop_cost(composite.A, composite.B, f_composed, q, r, x)
    stable_direct = direct.closed_loop_max_re < 0.0
    j_direct = max(float(x @ direct.P @ x), 0.0) if stable_direct else math.inf
    if composed.stable and stable_direct:
        gap = composed.value - j_direct
    elif composed.stable:
        gap = -math.inf
    elif stable_direct:
        gap = math.inf
    else:
        gap = math.nan
    return GapResult(
        J_composed=composed.value,
        J_direct=j_direct,
        gap=gap,
        stable_composed=composed.stable,
        stable_direct=stable_direct,
    )


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson rule for samples ``y`` at increasing times ``x``.

    Panels of two intervals use the rule for unequal spacings, so the
    rounding in ``x`` enters as it does in ``scipy.integrate.simpson``.  An
    even sample count leaves one interval, integrated by Cartwright's
    correction through the last three samples.  Those terms are formed on
    1-element arrays, as scipy forms them, so the result matches scipy >=
    1.11 bit for bit.
    """
    n = y.shape[0]
    stop = n - 2 if n % 2 else n - 3
    h = np.diff(x)
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum, hprod, ratio = h0 + h1, h0 * h1, h0 / h1
    total = np.sum(
        hsum / 6.0 * (
            y[0:stop:2] * (2.0 - 1.0 / ratio)
            + y[1:stop + 1:2] * (hsum * (hsum / hprod))
            + y[2:stop + 2:2] * (2.0 - ratio)
        )
    )
    if n % 2 == 0:
        a, b = h[-2:-1], h[-1:]
        alpha = (2 * b**2 + 3 * a * b) / (6 * (b + a))
        beta = (b**2 + 3.0 * a * b) / (6 * a)
        eta = b**3 / (6 * a * (a + b))
        total = (total + (alpha * y[-1] + beta * y[-2] - eta * y[-3]))[0]
    return float(total)


def quadrature_cost(trajectory: Trajectory, weight) -> float:
    """Simpson quadrature of ``x(t)^T W x(t)`` over a sampled trajectory.

    Cross-check only: it inherits both integration and horizon-truncation
    error, so expect agreement with the exact cost at the 1e-4 level for
    well-resolved, long-enough runs.
    """
    w_arr, states = conform(
        (weight, "weight", "n", "n"), (trajectory.states, "trajectory states", "t", "n")
    )
    times = np.asarray(trajectory.times, dtype=float)
    if states.shape[0] < 3:
        raise InvalidArgumentError("need at least three samples for Simpson quadrature")
    if times.shape != (states.shape[0],) or not (np.diff(times) > 0.0).all():
        raise InvalidArgumentError("trajectory times must increase, one per state sample")
    integrand = np.einsum("ti,ij,tj->t", states, w_arr, states)
    return _simpson(integrand, times)
