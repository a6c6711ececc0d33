"""Continuous-time algebraic Riccati and Lyapunov solvers plus residuals.

Two numpy kernels do the work.  ``_sign_newton`` computes the matrix sign
function by the scaled Newton iteration ``Z <- (Z/c + c Z^{-1})/2``
(Roberts, Int. J. Control 32, 1980; Byers, Linear Algebra Appl. 85, 1987).
The scale is read off the inverse the step forms anyway, so each step is
one LU: the norm scaling ``c = sqrt(||Z||_F / ||Z^{-1}||_F)`` (Kenney &
Laub, SIAM J. Matrix Anal. Appl. 13, 1992) for the Hamiltonian, and
``c = sqrt(tr Z / tr Z^{-1})`` for the Hurwitz matrix of a Lyapunov solve,
where both traces are negative and the scale depends on the eigenvalues
alone.  Scaling stops once the relative step falls to 1e-2.  The iteration
has converged once ``||dZ||_F <= 1e-13 ||Z||_F``, or once a step below 1e-6
relative is no longer half the one before it, which is the round-off floor
of an ill-conditioned sign.  A singular iterate, or no convergence within
``_SIGN_MAX_ITER = 100`` steps, stops it with ``np.linalg.LinAlgError``.
It serves every Lyapunov solve, and the CARE below ``_SDA_MIN_ORDER``.

``_sda`` is the structure-preserving doubling algorithm (Chu, Fan & Lin,
Linear Algebra Appl. 396, 2005).  After a Cayley transform with shift
``gamma > 0`` it iterates on n x n blocks ``E, G, H``, and ``H`` converges
quadratically to ``P``.  Each step is one n x n LU and a few n x n
products, where a sign step inverts the 2n x 2n Hamiltonian, and no
least-squares read-out follows.  It stops by the sign iteration's rule,
read on the increment of ``H``, and gives up once ``||H||`` has grown by
half or more, with an increment that did not shrink, for
``_SDA_GROWTH_STEPS = 8`` steps running: the mark of an eigenvalue on the
imaginary axis.

The Riccati solver first balances the Hamiltonian's off-diagonal blocks
``G`` and ``Q`` by a power of two ``sigma`` (an exact similarity), since
both kernels read a scale off ``||H||``, which unbalanced blocks inflate
past the spectrum.  At orders ``n >= _SDA_MIN_ORDER = 16`` it takes its
candidate from ``_sda``, with ``gamma`` the power of two nearest the RMS
singular value ``||H_bal||_F / sqrt(2n)`` of the balanced Hamiltonian.
Below that order the doubling takes more steps than the scaled sign
iteration, each with more numpy calls, so it would be the slower of the
two.  When the doubling breaks down, or its candidate fails a certificate,
the solver falls back to the sign candidate, and only that one can raise,
so every error type and message is the sign path's.  The fallback is
there for two reasons:

- the doubling converges to the minimal PSD solution, which is not the
  stabilizing one when ``(A, sqrt(Q))`` is not detectable;
- a power-of-two ``gamma`` can be an eigenvalue of ``A``, and then the
  Cayley transform does not exist.

The sign candidate is read off the stable invariant subspace of the
Hamiltonian, the null space of ``S + I``, by least squares.  Either
candidate is then polished with a few Newton sweeps in correction form,
each of which is one Lyapunov solve for the step, and certified by its
residual, its definiteness and a Hurwitz closed loop.  The polish brings
a residual well above round-off back down without changing which
solution is selected.

Every Lyapunov equation, whether from ``solve_lyapunov`` or from a Newton
sweep, is solved by the same iteration on ``A_cl`` carrying ``W`` along
(``W <- (W/c + c Z^{-T} W Z^{-1})/2``, whose limit is ``2 X``).  Its
Hurwitz gate is read off the sign it computes, by the rule the Riccati
solver applies to the Hamiltonian: the stable count ``(n - trace S)/2``
must be ``n``.  The eigenvalues of ``A_cl`` are computed only when that
gate or the iteration fails, to name the largest real part in the error.
``solve_lyapunov`` then verifies the result against its relative residual
tolerance of 1e-10.

Sign conventions.  The Riccati equation solved here is

    0 = -P A - A^T P - Q + P B R^{-1} B^T P

with stabilizing solution P >= 0, and the Lyapunov equation is

    A_cl^T X + X A_cl + W = 0

for Hurwitz ``A_cl``.  The rectangular residual evaluates the
corresponding expression for composite systems built from a 0/1 coupling
matrix K (see the rsm module), with unknown X of shape (n1+n2) x nc:

    0 = -X^T (A_s K) - (A_s K)^T X - Q_c + X^T B_s R_s^{-1} B_s^T X

where the ``_s`` matrices live in stacked coordinates and ``Q_c`` in
composite coordinates.

Each public function here validates its raw arrays with one
``matkit.conform`` call and hands them to a private kernel
(``_care_residual``, ``_solve_care``, ``_rect_residual``) that trusts them;
the package's own pipeline calls the kernels directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NotHurwitzError,
    NotStabilizableError,
    NumericalFailureError,
    RsmLqrError,
    ShapeError,
    SingularMatrixError,
)
# require_matrix stays importable from here only because perfbench's tracer
# counts calls under this name; the gates coerce through conform.
from .matkit import (
    RTOL,
    _lapack,
    _pbh_unreachable,
    _require_symmetric,
    conform,
    definiteness,
    is_hurwitz,
    require_definite,
    require_matrix,
)

_NEWTON_SWEEPS = 5
_SIGN_MAX_ITER = 100
_SIGN_TOL = 1e-13
_SIGN_SCALE_TOL = 1e-2
_SIGN_FLOOR_TOL = 1e-6
_SDA_MIN_ORDER = 16
# The doubling error falls like rho^(2^k) for the Cayley-transformed
# spectral radius rho < 1, so 60 steps resolve any rho with 1 - rho above
# the unit round-off; more cannot converge.
_SDA_MAX_ITER = 60
# At rho = 1 (a Hamiltonian eigenvalue on the imaginary axis) ||H_k||
# doubles each step, and so does its increment.  A convergence with 1 - rho
# near 2^-k looks the same for about k steps, so after this many such steps
# running the doubling leaves the CARE to the sign step; only one with
# 1 - rho below about 2^-8 is left to it while still converging.
_SDA_GROWTH_STEPS = 8


@dataclass(frozen=True)
class RiccatiSolution:
    """Stabilizing Riccati solution with its accuracy certificate and the
    certified gain ``F = -R^{-1} B^T P``, whose closed loop ``A + B F`` has
    largest eigenvalue real part ``closed_loop_max_re < 0``.  ``method``
    names the kernel whose candidate was certified: ``"doubling"`` or
    ``"sign"``."""

    P: np.ndarray
    F: np.ndarray
    residual_norm: float
    closed_loop_max_re: float
    method: str = "sign"


def care_residual(a, b, q, r, p) -> tuple[np.ndarray, float]:
    """Residual ``-P A - A^T P - Q + P B R^{-1} B^T P`` and its Frobenius norm.

    Evaluated exactly as written so it serves as an oracle independent of
    how a candidate ``P`` was produced.
    """
    a_arr, b_arr, q_arr, r_arr, p_arr = conform(
        (a, "A", "n", "n"), (b, "B", "n", "m"), (q, "Q", "n", "n"),
        (r, "R", "m", "m"), (p, "P", "n", "n"),
    )
    return _care_residual(a_arr, b_arr, q_arr, r_arr, p_arr)


def _care_residual(a, b, q, r, p) -> tuple[np.ndarray, float]:
    """The body of ``care_residual`` on trusted arrays."""
    solved = _lapack("solve with R", np.linalg.solve, r, b.T @ p, error=SingularMatrixError)
    res = -p @ a - a.T @ p - q + p @ b @ solved
    return res, float(np.linalg.norm(res))


def _sign_newton(z: np.ndarray, w: np.ndarray | None = None):
    """``(sign(Z), W_inf)`` by the scaled Newton iteration.

    Each step is ``Z <- (Z/c + c Z^{-1})/2`` and, when ``w`` is given,
    ``W <- (W/c + c Z^{-T} W Z^{-1})/2`` with the same ``Z`` and ``c``
    (``W_inf`` is ``None`` otherwise).  The scale is read off the inverse
    the step forms, so each step is one LU, until the relative step falls
    to ``_SIGN_SCALE_TOL``, and is 1 after that:

    - the norm scaling ``c = sqrt(||Z||_F / ||Z^{-1}||_F)``, in general;
    - ``c = sqrt(tr Z / tr Z^{-1})`` when ``w`` is given and the ratio is
      positive, as it is for a Hurwitz ``Z``.  Both traces are sums of
      negative real parts, and ``c^2`` is a weighted mean of the
      ``|lambda|^2`` with weights ``-Re lambda / |lambda|^2``.  Like
      determinantal scaling, it reads the eigenvalues only, where the norm
      scaling of a strongly non-normal ``Z`` also reads its departure from
      normality.

    Converged when ``||dZ||_F <= _SIGN_TOL ||Z||_F``, or when a step below
    ``_SIGN_FLOOR_TOL ||Z||_F`` is not half the one before it.  Raises
    ``np.linalg.LinAlgError`` for a singular iterate (an LU that breaks
    down or an inverse that is not finite) or no convergence within
    ``_SIGN_MAX_ITER`` steps.
    """
    n = z.shape[0]
    if n == 0:
        return z, w
    c = 1.0
    scaling = True
    last2 = float("inf")
    for _ in range(_SIGN_MAX_ITER):
        try:
            z_inv = np.linalg.inv(z)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError("singular iterate") from exc
        inv2 = float(np.vdot(z_inv, z_inv))
        if not np.isfinite(inv2):
            raise np.linalg.LinAlgError("singular iterate")
        if scaling:
            tr_inv = float(np.trace(z_inv)) if w is not None else 0.0
            ratio = float(np.trace(z)) / tr_inv if tr_inv < 0.0 else 0.0
            if ratio > 0.0:
                c = ratio**0.5
            else:
                c = (float(np.vdot(z, z)) / inv2) ** 0.25
        z_next = 0.5 * (z / c + c * z_inv)
        if w is not None:
            w = 0.5 * (w / c + c * (z_inv.T @ w @ z_inv))
        step = z_next - z
        step2 = float(np.vdot(step, step))
        size2 = float(np.vdot(z_next, z_next))
        z = z_next
        if step2 <= _SIGN_TOL**2 * size2 or (
            step2 <= _SIGN_FLOOR_TOL**2 * size2 and 4.0 * step2 > last2
        ):
            return z, w
        if step2 <= _SIGN_SCALE_TOL**2 * size2:
            scaling, c = False, 1.0
        last2 = step2
    raise np.linalg.LinAlgError(
        f"sign iteration did not converge in {_SIGN_MAX_ITER} steps"
    )


def _not_hurwitz(a_cl: np.ndarray, unstable: int | None = None) -> RsmLqrError:
    """The error for a Lyapunov solve whose Hurwitz gate failed: the sign
    counted ``unstable`` eigenvalues with ``Re >= 0`` (``None`` when the
    iteration itself stopped).  ``NotHurwitzError`` naming the largest real
    part when ``A_cl`` is not Hurwitz or the sign says so;
    ``NumericalFailureError`` for a stopped iteration on a Hurwitz
    matrix."""
    hur = is_hurwitz(a_cl)
    if hur.hurwitz and unstable is None:
        return NumericalFailureError(
            "Lyapunov solve failed: the sign iteration stopped on a Hurwitz "
            f"matrix (max real part {hur.max_real_part:.6e})"
        )
    count = "an eigenvalue" if unstable is None else f"{unstable} eigenvalue(s)"
    return NotHurwitzError(
        f"closed-loop matrix has {count} with real part >= 0 "
        f"(max real part {hur.max_real_part:.6e})"
    )


def _lyap_core(a_cl: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Solve A^T X + X A = -W as half the ``W`` that the sign iteration on
    A carries; symmetric result.  The Hurwitz gate is the stable count
    ``(n - trace S)/2 = n``: ``NotHurwitzError`` when the sign counts an
    unstable eigenvalue, or when the iteration stops on a matrix that is
    not Hurwitz; ``NumericalFailureError`` when it stops on one that is."""
    try:
        s, w_inf = _sign_newton(a_cl, w)
    except np.linalg.LinAlgError as exc:
        raise _not_hurwitz(a_cl) from exc
    unstable = round(0.5 * (a_cl.shape[0] + float(np.trace(s))))
    if unstable:
        raise _not_hurwitz(a_cl, unstable)
    x = 0.5 * w_inf
    return 0.5 * (x + x.T)


def solve_lyapunov(a_cl, w, tol: float = 1e-10) -> np.ndarray:
    """Solve ``A_cl^T X + X A_cl + W = 0`` for symmetric ``X``.

    ``A_cl`` must be Hurwitz, since otherwise the solution need not exist
    or be unique: the solve reads that off the sign of ``A_cl`` it computes
    and raises ``NotHurwitzError`` otherwise.  ``W`` must be symmetric.
    The relative residual ``||A_cl^T X + X A_cl + W||_F / (1 + ||W||_F)``
    is verified against ``tol``, with two refinement passes (three solves)
    before giving up.
    """
    a_arr, w_arr = conform(
        (a_cl, "closed-loop matrix", "n", "n"), (w, "W", "n", "n")
    )
    w_sym = _require_symmetric(w_arr, "W")
    x = _lyap_core(a_arr, w_sym)
    scale = 1.0 + float(np.linalg.norm(w_sym))
    for passes in range(3):
        res = a_arr.T @ x + x @ a_arr + w_sym
        rel = float(np.linalg.norm(res)) / scale
        if rel <= tol:
            return x
        if passes < 2:
            x = x + _lyap_core(a_arr, res)
    raise NumericalFailureError(
        f"Lyapunov residual {rel:.3e} exceeds tolerance {tol:.1e} "
        "after refinement"
    )


def _certificate_failure(
    a, b, msg: str, otherwise: type[RsmLqrError] = NumericalFailureError
) -> RsmLqrError:
    """The error for a Riccati candidate that failed a certificate, or for
    a Hamiltonian sign iteration that stopped: ``NotStabilizableError``
    when the PBH test finds an eigenvalue of ``A`` with
    ``Re >= -RTOL (1 + max|A|)`` that ``B`` cannot reach, such as an
    uncontrollable mode on the imaginary axis, which the sign iteration can
    split off the axis by round-off; ``otherwise(msg)`` if it finds
    none."""
    lam = _pbh_unreachable(a, lambda: b)
    if lam is None:
        return otherwise(msg)
    return NotStabilizableError(
        f"(A, B) is not stabilizable: the mode at {lam:.6g} is "
        f"unreachable ({msg})"
    )


def solve_care(a, b, q, r, tol: float = RTOL) -> RiccatiSolution:
    """Stabilizing solution of ``0 = -P A - A^T P - Q + P B R^{-1} B^T P``.

    Method: with ``G = B R^{-1} B^T``, the Hamiltonian

        H = [[ A, -G  ],
             [-Q, -A^T]]

    is first balanced exactly, ``G -> sigma G`` and ``Q -> Q / sigma`` with
    ``sigma`` the power of two nearest ``sqrt(||Q||_F / ||G||_F)``, and the
    balanced solution is ``P / sigma``.  At orders ``n >= 16`` the candidate
    comes from the structure-preserving doubling algorithm (``_sda``), with
    shift ``gamma`` the power of two nearest ``||H_bal||_F / sqrt(2n)``.
    Below that order, or when the doubling breaks down or its candidate
    fails a certificate, the candidate is read off the matrix sign ``S`` of
    the balanced Hamiltonian by the norm-scaled Newton iteration (at most
    ``_SIGN_MAX_ITER = 100`` steps): the stable invariant subspace
    ``[I; P / sigma]`` is the null space of ``S + I``, so ``P / sigma`` is
    the least-squares solution of ``[S12; S22 + I] X = -[S11 + I; S21]``.
    ``method`` on the result names the candidate, ``"doubling"`` or
    ``"sign"``.  Up to five Newton sweeps (one Lyapunov solve each) then
    reduce the residual.  The final residual must
    satisfy ``||res||_F <= tol * (1 + ||P||_F ||A||_F)``, ``P`` must be PSD
    and ``A - B R^{-1} B^T P`` Hurwitz.

    ``Q`` and ``R`` pass the weight gate ``require_definite``, which raises
    ``NotSymmetricError``, ``NotPSDError`` or ``NotPDError``.  Raises
    ``NotStabilizableError`` when a singular iterate or no convergence
    stops the sign iteration, when the stable dimension ``(2n - trace S)/2``
    is not ``n``, when the least-squares system has rank below ``n``, or
    when a candidate fails a certificate and the PBH test finds an
    unreachable eigenvalue of ``A`` with ``Re >= -RTOL (1 + max|A|)``.  A
    stopped sign iteration runs the same PBH test, so its error names the
    unreachable mode when there is one.  Any other certificate failure raises
    ``NumericalFailureError``.  A failed doubling attempt raises nothing of
    its own: every error is the sign path's.
    """
    a_arr, b_arr, q_arr, r_arr = conform(
        (a, "A", "n", "n"), (b, "B", "n", "m"), (q, "Q", "n", "n"),
        (r, "R", "m", "m"),
    )
    if b_arr.shape[1] < 1:
        raise ShapeError("B must have at least one column")
    return _solve_care(
        a_arr, b_arr, require_definite(q_arr, "Q"),
        require_definite(r_arr, "R", pd=True), tol,
    )


def _solve_care(a, b, q, r, tol: float = RTOL) -> RiccatiSolution:
    """The body of ``solve_care`` on trusted arrays: ``Q`` exactly symmetric
    PSD, ``R`` exactly symmetric PD, shapes matching, ``B`` not empty."""
    n = a.shape[0]
    g = b @ np.linalg.solve(r, b.T)
    g = 0.5 * (g + g.T)
    # Both kernels read a scale off ||H||, which an unbalanced pair of
    # off-diagonal blocks inflates far past the spectrum.  With
    # P = sigma P_hat, P_hat solves the CARE of (A, sigma G, Q / sigma);
    # sigma is the power of two nearest sqrt(||Q||_F / ||G||_F), so the
    # balancing is exact.
    q_norm, g_norm = float(np.linalg.norm(q)), float(np.linalg.norm(g))
    sigma = 1.0
    if q_norm > 0.0 and g_norm > 0.0:
        sigma = 2.0 ** round(0.5 * (np.log2(q_norm) - np.log2(g_norm)))
    if n >= _SDA_MIN_ORDER:
        # gamma: the power of two nearest the RMS singular value
        # ||H_bal||_F / sqrt(2n) of the balanced Hamiltonian
        h2 = (
            2.0 * float(np.vdot(a, a))
            + (sigma * g_norm) ** 2
            + (q_norm / sigma) ** 2
        )
        gamma = 2.0 ** round(0.5 * math.log2(h2 / (2 * n))) if h2 > 0.0 else 1.0
        # a breakdown, a stopped polish or a failed certificate falls back
        # to the sign candidate, whose errors are the public ones
        try:
            p = _sda(a, sigma * g, q / sigma, gamma)
            sol = _certified(a, b, q, r, g, sigma * p, tol, "doubling")
        except (np.linalg.LinAlgError, NumericalFailureError):
            sol = None
        if isinstance(sol, RiccatiSolution):
            return sol
    p = _sign_candidate(a, b, sigma * g, q / sigma)
    sol = _certified(a, b, q, r, g, sigma * p, tol, "sign")
    if isinstance(sol, str):
        raise _certificate_failure(a, b, sol)
    return sol


def _sda(a, g, q, gamma: float) -> np.ndarray:
    """A solution of ``0 = -P A - A^T P - Q + P G P``, for symmetric ``G``
    and ``Q``, by the structure-preserving doubling algorithm (Chu, Fan &
    Lin, Linear Algebra Appl. 396, 2005).

    With ``A_g = A - gamma I`` and ``W = A_g^T + Q A_g^{-1} G``, the Cayley
    transform ``E = I + 2 gamma W^{-T}``, ``G = 2 gamma W^{-T} G A_g^{-T}``,
    ``H = 2 gamma W^{-1} Q A_g^{-1}`` starts the doubling steps

        E <- E (I + G H)^{-1} E
        G <- G + E (I + G H)^{-1} G E^T
        H <- H + E^T H (I + G H)^{-1} E

    one n x n solve each.  ``H`` converges quadratically when the
    Hamiltonian has no eigenvalue on the imaginary axis; the stopping rule
    is ``_sign_newton``'s, read on the increment of ``H``.  With one on the
    axis ``||H||`` doubles each step instead, so ``_SDA_GROWTH_STEPS``
    steps running in which it grows by half or more while the increment
    does not shrink stop the doubling.  The limit is
    the minimal PSD solution, which is the stabilizing one only when
    ``(A, sqrt(Q))`` is detectable: the caller certifies it.

    ``gamma`` must be positive (``ValueError`` otherwise): with
    ``gamma < 0`` the steps converge, silently, to a solution that is not
    stabilizing.  Raises ``np.linalg.LinAlgError`` when ``A_g``, ``W`` or
    ``I + G H`` is singular, an iterate is not finite, ``H`` grows as
    above, or there is no convergence within ``_SDA_MAX_ITER`` steps.
    """
    if not gamma > 0.0:
        raise ValueError(f"doubling needs a shift gamma > 0, got {gamma!r}")
    n = a.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    eye = np.eye(n)
    a_g = a - gamma * eye
    try:
        a_inv = np.linalg.inv(a_g)
        w_inv = np.linalg.inv(a_g.T + q @ (a_inv @ g))
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("singular Cayley transform") from exc
    e = eye + 2.0 * gamma * w_inv.T
    g_k = (2.0 * gamma) * (w_inv.T @ (a_inv @ g).T)
    h_k = (2.0 * gamma) * (w_inv @ (q @ a_inv))
    g_k = 0.5 * (g_k + g_k.T)
    h_k = 0.5 * (h_k + h_k.T)
    last2 = last_size2 = float("inf")
    growing = 0
    # iterates that overflow are a breakdown, caught by the finiteness test
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_SDA_MAX_ITER):
            try:
                t = np.linalg.solve(eye + g_k @ h_k, np.concatenate((e, g_k), axis=1))
            except np.linalg.LinAlgError as exc:
                raise np.linalg.LinAlgError("doubling breakdown") from exc
            t_e = t[:, :n]
            step = e.T @ h_k @ t_e
            step = 0.5 * (step + step.T)
            g_k = g_k + e @ t[:, n:] @ e.T
            g_k = 0.5 * (g_k + g_k.T)
            e = e @ t_e
            h_k = h_k + step
            step2 = float(np.vdot(step, step))
            size2 = float(np.vdot(h_k, h_k))
            if not math.isfinite(step2 + size2):
                raise np.linalg.LinAlgError("doubling breakdown")
            if step2 <= _SIGN_TOL**2 * size2 or (
                step2 <= _SIGN_FLOOR_TOL**2 * size2 and 4.0 * step2 > last2
            ):
                return h_k
            growing = growing + 1 if step2 >= last2 and size2 >= 2.25 * last_size2 else 0
            if growing == _SDA_GROWTH_STEPS:
                raise np.linalg.LinAlgError(
                    f"doubling did not converge: ||H|| grew by half or more for "
                    f"{growing} steps running"
                )
            last2, last_size2 = step2, size2
    raise np.linalg.LinAlgError(
        f"doubling did not converge in {_SDA_MAX_ITER} steps"
    )


def _sign_candidate(a, b, g, q) -> np.ndarray:
    """The stabilizing solution of ``0 = -P A - A^T P - Q + P G P``, read
    off the sign ``S`` of ``H = [[A, -G], [-Q, -A^T]]``: the stable
    invariant subspace ``[I; P]`` is the null space of ``S + I``, so ``P``
    is the least-squares solution of ``[S12; S22 + I] X = -[S11 + I; S21]``.
    Raises the public errors of ``solve_care`` for a stopped iteration, a
    stable dimension ``(2n - trace S)/2`` other than ``n``, or a basis of
    rank below ``n``; ``B`` only names an unreachable mode."""
    n = a.shape[0]
    ham = np.empty((2 * n, 2 * n))
    ham[:n, :n] = a
    ham[:n, n:] = -g
    ham[n:, :n] = -q
    ham[n:, n:] = -a.T
    try:
        s = _sign_newton(ham)[0]
    except np.linalg.LinAlgError as exc:
        raise _certificate_failure(
            a, b,
            f"Hamiltonian sign iteration failed ({exc}); (A, B) is likely not "
            "stabilizable or the Hamiltonian spectrum touches the imaginary axis",
            NotStabilizableError,
        ) from exc
    stable = round(n - 0.5 * float(np.trace(s)))
    if stable != n:
        raise NotStabilizableError(
            f"stable invariant subspace has dimension {stable}, expected {n}; "
            "(A, B) is likely not stabilizable or the Hamiltonian spectrum "
            "touches the imaginary axis"
        )
    eye = np.eye(n)
    lhs = s[:, n:].copy()
    lhs[n:] += eye
    rhs = -s[:, :n]
    rhs[:n] -= eye
    p, _, rank, _ = _lapack("least-squares read-out", np.linalg.lstsq, lhs, rhs, rcond=None)
    if rank < n:
        raise NotStabilizableError(
            "stable subspace basis is singular in the state coordinates; "
            "no stabilizing solution exists"
        )
    return 0.5 * (p + p.T)


def _certified(a, b, q, r, g, p, tol: float, method: str) -> RiccatiSolution | str:
    """Polish the candidate ``p`` and certify it: the ``RiccatiSolution``
    when the residual, PSD and Hurwitz certificates pass, else the message
    of the first that failed.  ``g`` is ``B R^{-1} B^T``."""
    res, res_norm = _care_residual(a, b, q, r, p)
    # Newton polish in correction form: with Res(P) the residual above and
    # A_cl = A - G P, the step D solves A_cl^T D + D A_cl = Res(P), so the
    # Lyapunov solve's relative error scales the residual, not P.
    for _ in range(_NEWTON_SWEEPS):
        scale = tol * (1.0 + float(np.linalg.norm(p)) * float(np.linalg.norm(a)))
        if res_norm <= 0.01 * scale:
            break
        try:
            p_next = p + _lyap_core(a - g @ p, -0.5 * (res + res.T))
        except NotHurwitzError:
            break
        res_next, next_norm = _care_residual(a, b, q, r, p_next)
        if next_norm >= res_norm:
            break
        p, res, res_norm = p_next, res_next, next_norm

    scale = 1.0 + float(np.linalg.norm(p)) * float(np.linalg.norm(a))
    if res_norm > tol * scale:
        return f"Riccati residual {res_norm:.3e} exceeds {tol:.1e} * {scale:.3e}"
    d = definiteness(p)
    if not d.psd:
        return (
            "computed Riccati solution is not positive semidefinite; "
            f"min eigenvalue {d.min_eigenvalue:.6e}"
        )
    f = -np.linalg.solve(r, b.T @ p)
    hur = is_hurwitz(a + b @ f)
    if not hur.hurwitz:
        return (
            "computed Riccati solution is not stabilizing; closed-loop "
            f"max real part {hur.max_real_part:.6e}"
        )
    return RiccatiSolution(p, f, res_norm, hur.max_real_part, method)


def rectangular_riccati_residual(a_s, b_s, k, q_c, r_s, x) -> tuple[np.ndarray, float]:
    """Residual of the rectangular composite Riccati equation.

    The unknown ``X`` is (n1+n2) x nc, the residual nc x nc:

        -X^T (A_s K) - (A_s K)^T X - Q_c + X^T B_s R_s^{-1} B_s^T X
    """
    a_arr, b_arr, k_arr, q_arr, r_arr, x_arr = conform(
        (a_s, "stacked state matrix", "s", "s"),
        (b_s, "stacked input matrix", "s", "m"),
        (k, "coupling matrix", "s", "c"),
        (q_c, "composite state weight", "c", "c"),
        (r_s, "stacked input weight", "m", "m"),
        (x, "X", "s", "c"),
    )
    return _rect_residual(a_arr, b_arr, k_arr, q_arr, r_arr, x_arr)


def _rect_residual(a_s, b_s, k, q_c, r_s, x) -> tuple[np.ndarray, float]:
    """The body of ``rectangular_riccati_residual`` on trusted arrays."""
    ak = a_s @ k
    solved = _lapack("solve with R_s", np.linalg.solve, r_s, b_s.T @ x, error=SingularMatrixError)
    res = -x.T @ ak - ak.T @ x - q_c + x.T @ b_s @ solved
    return res, float(np.linalg.norm(res))
