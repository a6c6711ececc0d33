"""Continuous-time algebraic Riccati and Lyapunov solvers plus residuals.

Both solvers rest on one numpy kernel, ``_sign_newton``: the matrix sign
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

The Riccati solver takes the sign ``S`` of the Hamiltonian matrix and reads
``P`` off its stable invariant subspace, the null space of ``S + I``, by
least squares.  It first balances the Hamiltonian's off-diagonal blocks
``G`` and ``Q`` by a power of two (an exact similarity), since the norm
scaling reads ``||H||``, which unbalanced blocks inflate past the
spectrum.  It then polishes the candidate with a few Newton sweeps in
correction form, each of which is one Lyapunov solve for the step.  The
sign step can leave a residual well above round-off on badly scaled
problems; the polish brings it back down without changing which solution
is selected.

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

Each public function here validates its raw arrays and hands them to a
private kernel (``_care_residual``, ``_solve_care``, ``_rect_residual``)
that trusts them; the package's own pipeline calls the kernels directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NotHurwitzError,
    NotStabilizableError,
    NotSymmetricError,
    NumericalFailureError,
    RsmLqrError,
    ShapeError,
    SingularMatrixError,
)
from .matkit import (
    RTOL,
    _cut,
    _is_symmetric,
    _pbh_unreachable,
    definiteness,
    is_hurwitz,
    require_definite,
    require_matrix,
    require_square,
)

_NEWTON_SWEEPS = 5
_SIGN_MAX_ITER = 100
_SIGN_TOL = 1e-13
_SIGN_SCALE_TOL = 1e-2
_SIGN_FLOOR_TOL = 1e-6


@dataclass(frozen=True)
class RiccatiSolution:
    """Stabilizing Riccati solution with its accuracy certificate and the
    certified gain ``F = -R^{-1} B^T P``, whose closed loop ``A + B F`` has
    largest eigenvalue real part ``closed_loop_max_re < 0``."""

    P: np.ndarray
    F: np.ndarray
    residual_norm: float
    closed_loop_max_re: float


def care_residual(a, b, q, r, p) -> tuple[np.ndarray, float]:
    """Residual ``-P A - A^T P - Q + P B R^{-1} B^T P`` and its Frobenius norm.

    Evaluated exactly as written so it serves as an oracle independent of
    how a candidate ``P`` was produced.
    """
    a_arr = require_square(a, "A")
    b_arr = require_matrix(b, "B")
    q_arr = require_square(q, "Q")
    r_arr = require_square(r, "R")
    p_arr = require_square(p, "P")
    n = a_arr.shape[0]
    if b_arr.shape[0] != n or q_arr.shape[0] != n or p_arr.shape[0] != n:
        raise ShapeError("A, B, Q, P must share the state dimension")
    if r_arr.shape[0] != b_arr.shape[1]:
        raise ShapeError(
            f"R is {r_arr.shape[0]}x{r_arr.shape[1]} but B has "
            f"{b_arr.shape[1]} columns"
        )
    return _care_residual(a_arr, b_arr, q_arr, r_arr, p_arr)


def _care_residual(a, b, q, r, p) -> tuple[np.ndarray, float]:
    """The body of ``care_residual`` on trusted arrays."""
    try:
        gain_term = p @ b @ np.linalg.solve(r, b.T @ p)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"R is singular: {exc}") from exc
    res = -p @ a - a.T @ p - q + gain_term
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
    a_arr = require_square(a_cl, "closed-loop matrix")
    w_arr = require_square(w, "W")
    if a_arr.shape != w_arr.shape:
        raise ShapeError(
            f"closed-loop matrix is {a_arr.shape} but W is {w_arr.shape}"
        )
    symmetric, asym = _is_symmetric(w_arr, _cut(w_arr))
    if not symmetric:
        raise NotSymmetricError(
            f"W must be symmetric: max|W - W^T| = {asym:.3e}"
        )
    w_sym = 0.5 * (w_arr + w_arr.T)
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

    Method: the matrix sign ``S`` of the Hamiltonian

        H = [[ A, -B R^{-1} B^T ],
             [-Q,          -A^T ]]

    by the norm-scaled Newton iteration (at most ``_SIGN_MAX_ITER = 100``
    steps), taken after the exact balancing ``G -> sigma G``,
    ``Q -> Q / sigma`` with ``sigma`` the power of two nearest
    ``sqrt(||Q||_F / ||G||_F)``; the stable invariant subspace
    ``[I; P / sigma]`` is the null space of ``S + I``, so ``P / sigma`` is
    the least-squares solution of ``[S12; S22 + I] X = -[S11 + I; S21]``.
    Up to five Newton sweeps (one Lyapunov solve each) then reduce the
    residual.  The final residual must
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
    ``NumericalFailureError``.
    """
    a_arr = require_square(a, "A")
    b_arr = require_matrix(b, "B")
    q_arr = require_square(q, "Q")
    r_arr = require_square(r, "R")
    n = a_arr.shape[0]
    m = b_arr.shape[1]
    if b_arr.shape[0] != n:
        raise ShapeError(f"B has {b_arr.shape[0]} rows, expected {n}")
    if q_arr.shape[0] != n:
        raise ShapeError(f"Q is {q_arr.shape}, expected {(n, n)}")
    if r_arr.shape[0] != m:
        raise ShapeError(f"R is {r_arr.shape}, expected {(m, m)}")
    if m < 1:
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
    # The norm scaling reads ||H||, which an unbalanced pair of off-diagonal
    # blocks inflates far past the spectrum.  With P = sigma P_hat, P_hat
    # solves the CARE of (A, sigma G, Q / sigma); sigma is the power of two
    # nearest sqrt(||Q||_F / ||G||_F), so the balancing is exact.
    q_norm, g_norm = float(np.linalg.norm(q)), float(np.linalg.norm(g))
    sigma = 1.0
    if q_norm > 0.0 and g_norm > 0.0:
        sigma = 2.0 ** round(0.5 * (np.log2(q_norm) - np.log2(g_norm)))
    ham = np.empty((2 * n, 2 * n))
    ham[:n, :n] = a
    ham[:n, n:] = -sigma * g
    ham[n:, :n] = -q / sigma
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
    # The stable subspace [I; P] is the null space of S + I.
    eye = np.eye(n)
    lhs = s[:, n:].copy()
    lhs[n:] += eye
    rhs = -s[:, :n]
    rhs[:n] -= eye
    p, _, rank, _ = np.linalg.lstsq(lhs, rhs, rcond=None)
    if rank < n:
        raise NotStabilizableError(
            "stable subspace basis is singular in the state coordinates; "
            "no stabilizing solution exists"
        )
    p = sigma * (0.5 * (p + p.T))

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
        raise _certificate_failure(
            a, b,
            f"Riccati residual {res_norm:.3e} exceeds {tol:.1e} * {scale:.3e}",
        )
    d = definiteness(p)
    if not d.psd:
        raise _certificate_failure(
            a, b,
            f"computed Riccati solution is not positive semidefinite; "
            f"min eigenvalue {d.min_eigenvalue:.6e}",
        )
    f = -np.linalg.solve(r, b.T @ p)
    hur = is_hurwitz(a + b @ f)
    if not hur.hurwitz:
        raise _certificate_failure(
            a, b,
            f"computed Riccati solution is not stabilizing; closed-loop "
            f"max real part {hur.max_real_part:.6e}",
        )
    return RiccatiSolution(p, f, res_norm, hur.max_real_part)


def rectangular_riccati_residual(a_s, b_s, k, q_c, r_s, x) -> tuple[np.ndarray, float]:
    """Residual of the rectangular composite Riccati equation.

    The unknown ``X`` is (n1+n2) x nc, the residual nc x nc:

        -X^T (A_s K) - (A_s K)^T X - Q_c + X^T B_s R_s^{-1} B_s^T X
    """
    a_arr = require_square(a_s, "stacked state matrix")
    b_arr = require_matrix(b_s, "stacked input matrix")
    k_arr = require_matrix(k, "coupling matrix")
    q_arr = require_square(q_c, "composite state weight")
    r_arr = require_square(r_s, "stacked input weight")
    n_s = a_arr.shape[0]
    if b_arr.shape[0] != n_s or k_arr.shape[0] != n_s:
        raise ShapeError("stacked matrices must share their row dimension")
    if q_arr.shape[0] != k_arr.shape[1]:
        raise ShapeError(
            f"composite weight is {q_arr.shape} but the coupling matrix has "
            f"{k_arr.shape[1]} columns"
        )
    if r_arr.shape[0] != b_arr.shape[1]:
        raise ShapeError(
            f"input weight is {r_arr.shape} but the stacked input matrix has "
            f"{b_arr.shape[1]} columns"
        )
    x_arr = require_matrix(x, "X")
    if x_arr.shape != k_arr.shape:
        raise ShapeError(
            f"X is {x_arr.shape}, expected {k_arr.shape} to match the "
            "coupling matrix"
        )
    return _rect_residual(a_arr, b_arr, k_arr, q_arr, r_arr, x_arr)


def _rect_residual(a_s, b_s, k, q_c, r_s, x) -> tuple[np.ndarray, float]:
    """The body of ``rectangular_riccati_residual`` on trusted arrays."""
    ak = a_s @ k
    try:
        quad = x.T @ b_s @ np.linalg.solve(r_s, b_s.T @ x)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"input weight is singular: {exc}") from exc
    res = -x.T @ ak - ak.T @ x - q_c + quad
    return res, float(np.linalg.norm(res))
