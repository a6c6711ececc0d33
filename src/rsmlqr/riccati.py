"""Continuous-time algebraic Riccati and Lyapunov solvers plus residuals.

The Riccati solver takes the ordered-Schur route on the Hamiltonian matrix
and then polishes the candidate with a few Newton sweeps, each of which is
one Lyapunov solve.  The Schur step is backward stable but can leave a
residual well above round-off on badly scaled problems; the polish brings it
back down without changing which solution is selected.

Every Lyapunov equation, whether from ``solve_lyapunov`` or from a Newton
sweep, is solved at every order by Bartels-Stewart (real Schur form plus
LAPACK ``trsyl``, via ``scipy.linalg.solve_continuous_lyapunov``).
``solve_lyapunov`` then verifies the result against its relative residual
tolerance of 1e-10.

Sign conventions.  The Riccati equation solved here is

    0 = -P A - A^T P - Q + P B R^{-1} B^T P

with stabilizing solution P >= 0, and the Lyapunov equation is

    A_cl^T X + X A_cl + W = 0

for Hurwitz ``A_cl``.  The rectangular and embedded residuals evaluate the
corresponding expressions for composite systems built from a 0/1 coupling
matrix K (see the rsm module):

    rectangular, unknown X of shape (n1+n2) x nc:
        0 = -X^T (A_s K) - (A_s K)^T X - Q_c + X^T B_s R_s^{-1} B_s^T X
    embedded, symmetric unknown X of shape (n1+n2) x (n1+n2):
        0 = -X (A_s K K^T) - (A_s K K^T)^T X - K Q_c K^T
            + X B_s R_s^{-1} B_s^T X

where the ``_s`` matrices live in stacked coordinates and ``Q_c`` in
composite coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    NotHurwitzError,
    NotPDError,
    NotPSDError,
    NotStabilizableError,
    NotSymmetricError,
    NumericalFailureError,
    ShapeError,
    SingularMatrixError,
)
from .matkit import PSD_ATOL, _max_abs, definiteness, is_hurwitz, require_matrix, require_square

_NEWTON_SWEEPS = 5


@dataclass(frozen=True)
class RiccatiSolution:
    """Stabilizing Riccati solution with its accuracy certificate."""

    P: np.ndarray
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
    try:
        gain_term = p_arr @ b_arr @ np.linalg.solve(r_arr, b_arr.T @ p_arr)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"R is singular: {exc}") from exc
    res = -p_arr @ a_arr - a_arr.T @ p_arr - q_arr + gain_term
    return res, float(np.linalg.norm(res))


def _lyap_core(a_cl: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Solve A^T X + X A = -W by Bartels-Stewart; symmetric result."""
    try:
        x = scipy.linalg.solve_continuous_lyapunov(a_cl.T, -w)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise NumericalFailureError(f"Lyapunov solve failed: {exc}") from exc
    return 0.5 * (x + x.T)


def solve_lyapunov(a_cl, w, tol: float = 1e-10) -> np.ndarray:
    """Solve ``A_cl^T X + X A_cl + W = 0`` for symmetric ``X``.

    ``A_cl`` must be Hurwitz (checked, since otherwise the solution need not
    exist or be unique) and ``W`` symmetric.  The relative residual
    ``||A_cl^T X + X A_cl + W||_F / (1 + ||W||_F)`` is verified against
    ``tol``, with one refinement pass before giving up.
    """
    a_arr = require_square(a_cl, "closed-loop matrix")
    w_arr = require_square(w, "W")
    if a_arr.shape != w_arr.shape:
        raise ShapeError(
            f"closed-loop matrix is {a_arr.shape} but W is {w_arr.shape}"
        )
    asym = _max_abs(w_arr - w_arr.T)
    if asym > PSD_ATOL * (1.0 + _max_abs(w_arr)):
        raise NotSymmetricError(
            f"W must be symmetric: max|W - W^T| = {asym:.3e}"
        )
    hur = is_hurwitz(a_arr)
    if not hur.hurwitz:
        raise NotHurwitzError(
            f"closed-loop matrix has an eigenvalue with real part "
            f"{hur.max_real_part:.6e} >= 0"
        )
    w_sym = 0.5 * (w_arr + w_arr.T)
    x = _lyap_core(a_arr, w_sym)
    scale = 1.0 + float(np.linalg.norm(w_sym))
    for _ in range(2):
        res = a_arr.T @ x + x @ a_arr + w_sym
        rel = float(np.linalg.norm(res)) / scale
        if rel <= tol:
            return x
        x = x + _lyap_core(a_arr, res)
    res = a_arr.T @ x + x @ a_arr + w_sym
    rel = float(np.linalg.norm(res)) / scale
    if rel > tol:
        raise NumericalFailureError(
            f"Lyapunov residual {rel:.3e} exceeds tolerance {tol:.1e} "
            "after refinement"
        )
    return x


def solve_care(a, b, q, r, tol: float = 1e-9) -> RiccatiSolution:
    """Stabilizing solution of ``0 = -P A - A^T P - Q + P B R^{-1} B^T P``.

    Method: real ordered Schur decomposition of the Hamiltonian

        H = [[ A, -B R^{-1} B^T ],
             [-Q,          -A^T ]]

    with the left-half-plane spectrum sorted first; the stable invariant
    subspace basis ``[U1; U2]`` gives ``P = U2 U1^{-1}``.  Up to five
    Newton sweeps (one Lyapunov solve each) then reduce the residual.  The
    final residual must satisfy ``||res||_F <= tol * (1 + ||P||_F ||A||_F)``.

    Raises ``NotPSDError``/``NotPDError`` for bad weights,
    ``NotStabilizableError`` when the stable subspace is degenerate, and
    ``NumericalFailureError`` when the residual contract cannot be met.
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
    dq = definiteness(q_arr)
    if not dq.symmetric:
        raise NotSymmetricError("Q must be symmetric")
    if not dq.psd:
        raise NotPSDError(
            f"Q must be positive semidefinite; min eigenvalue {dq.min_eigenvalue:.6e}"
        )
    dr = definiteness(r_arr)
    if not dr.symmetric:
        raise NotSymmetricError("R must be symmetric")
    if not dr.pd:
        raise NotPDError(
            f"R must be positive definite; min eigenvalue {dr.min_eigenvalue:.6e}"
        )
    q_sym = 0.5 * (q_arr + q_arr.T)
    r_sym = 0.5 * (r_arr + r_arr.T)

    g = b_arr @ np.linalg.solve(r_sym, b_arr.T)
    g = 0.5 * (g + g.T)
    ham = np.block([[a_arr, -g], [-q_sym, -a_arr.T]])
    try:
        _, z, sdim = scipy.linalg.schur(ham, output="real", sort="lhp")
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise NumericalFailureError(f"Schur decomposition failed: {exc}") from exc
    if sdim != n:
        raise NotStabilizableError(
            f"stable invariant subspace has dimension {sdim}, expected {n}; "
            "(A, B) is likely not stabilizable or the Hamiltonian spectrum "
            "touches the imaginary axis"
        )
    u1 = z[:n, :n]
    u2 = z[n:, :n]
    try:
        p = np.linalg.solve(u1.T, u2.T).T
    except np.linalg.LinAlgError as exc:
        raise NotStabilizableError(
            "stable subspace basis is singular in the state coordinates; "
            "no stabilizing solution exists"
        ) from exc
    p = 0.5 * (p + p.T)

    def _res_norm(cand: np.ndarray) -> float:
        return care_residual(a_arr, b_arr, q_sym, r_sym, cand)[1]

    res_norm = _res_norm(p)
    # Newton polish: with F = R^{-1} B^T P the next iterate solves
    # (A - B F)^T X + X (A - B F) + Q + F^T R F = 0.
    for _ in range(_NEWTON_SWEEPS):
        scale = tol * (1.0 + float(np.linalg.norm(p)) * float(np.linalg.norm(a_arr)))
        if res_norm <= 0.01 * scale:
            break
        f = np.linalg.solve(r_sym, b_arr.T @ p)
        a_cl = a_arr - b_arr @ f
        if not is_hurwitz(a_cl).hurwitz:
            break
        w = q_sym + f.T @ r_sym @ f
        p_next = _lyap_core(a_cl, 0.5 * (w + w.T))
        next_norm = _res_norm(p_next)
        if next_norm >= res_norm:
            break
        p, res_norm = p_next, next_norm

    scale = 1.0 + float(np.linalg.norm(p)) * float(np.linalg.norm(a_arr))
    if res_norm > tol * scale:
        raise NumericalFailureError(
            f"Riccati residual {res_norm:.3e} exceeds {tol:.1e} * {scale:.3e}"
        )
    d = definiteness(p, max(PSD_ATOL, PSD_ATOL * _max_abs(p)))
    if not d.psd:
        raise NumericalFailureError(
            f"computed Riccati solution is not positive semidefinite; "
            f"min eigenvalue {d.min_eigenvalue:.6e}"
        )
    f = np.linalg.solve(r_sym, b_arr.T @ p)
    hur = is_hurwitz(a_arr - b_arr @ f)
    if not hur.hurwitz:
        raise NumericalFailureError(
            f"computed Riccati solution is not stabilizing; closed-loop "
            f"max real part {hur.max_real_part:.6e}"
        )
    return RiccatiSolution(p, res_norm, hur.max_real_part)


def _shared_shapes(a_s, b_s, k, q_c, r_s):
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
    return a_arr, b_arr, k_arr, q_arr, r_arr


def rectangular_riccati_residual(a_s, b_s, k, q_c, r_s, x) -> tuple[np.ndarray, float]:
    """Residual of the rectangular composite Riccati equation.

    The unknown ``X`` is (n1+n2) x nc, the residual nc x nc:

        -X^T (A_s K) - (A_s K)^T X - Q_c + X^T B_s R_s^{-1} B_s^T X
    """
    a_arr, b_arr, k_arr, q_arr, r_arr = _shared_shapes(a_s, b_s, k, q_c, r_s)
    x_arr = require_matrix(x, "X")
    if x_arr.shape != k_arr.shape:
        raise ShapeError(
            f"X is {x_arr.shape}, expected {k_arr.shape} to match the "
            "coupling matrix"
        )
    ak = a_arr @ k_arr
    try:
        quad = x_arr.T @ b_arr @ np.linalg.solve(r_arr, b_arr.T @ x_arr)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"input weight is singular: {exc}") from exc
    res = -x_arr.T @ ak - ak.T @ x_arr - q_arr + quad
    return res, float(np.linalg.norm(res))


def embedded_riccati_residual(
    a_s, b_s, k, q_c, r_s, x, sym_tol: float = 1e-8
) -> tuple[np.ndarray, float]:
    """Residual of the square embedded composite Riccati equation.

    The unknown ``X`` lives in stacked coordinates, (n1+n2) x (n1+n2), and
    must be symmetric (asymmetric candidates are rejected, since for them
    the two transpose placements of the linear term stop agreeing and the
    equation is no longer well posed):

        -X (A_s K K^T) - (A_s K K^T)^T X - K Q_c K^T + X B_s R_s^{-1} B_s^T X
    """
    a_arr, b_arr, k_arr, q_arr, r_arr = _shared_shapes(a_s, b_s, k, q_c, r_s)
    x_arr = require_square(x, "X")
    if x_arr.shape[0] != a_arr.shape[0]:
        raise ShapeError(
            f"X is {x_arr.shape}, expected {a_arr.shape} to match the "
            "stacked state dimension"
        )
    asym = _max_abs(x_arr - x_arr.T)
    if asym > sym_tol * (1.0 + _max_abs(x_arr)):
        raise NotSymmetricError(
            f"embedded residual requires symmetric X; max|X - X^T| = {asym:.3e}"
        )
    akk = a_arr @ k_arr @ k_arr.T
    try:
        quad = x_arr @ b_arr @ np.linalg.solve(r_arr, b_arr.T @ x_arr)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"input weight is singular: {exc}") from exc
    res = -x_arr @ akk - akk.T @ x_arr - k_arr @ q_arr @ k_arr.T + quad
    return res, float(np.linalg.norm(res))
