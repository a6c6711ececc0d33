"""Dense real-matrix utilities used throughout the package.

Block-diagonal stacking, symmetric eigendecomposition, SVD-based
numerical rank, Hurwitz and definiteness tests, positive-semidefinite
square-root factors, and Kalman-style controllability/observability rank
tests.  Everything works on plain float64 ndarrays, never mutates its
inputs, and keeps no state.

Tolerance conventions
---------------------
Symmetry gates are relative to the largest entry of the matrix;
definiteness gates are absolute on eigenvalues of the symmetrized matrix;
rank decisions default to the usual ``max(shape) * sigma_max * eps`` cut.
Every default can be overridden per call.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    InvalidMatrixError,
    NotPSDError,
    NotSymmetricError,
    NumericalFailureError,
    ShapeError,
)

SYMMETRY_RTOL = 1e-10
PSD_ATOL = 1e-9


def require_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a 2-D float64 array with finite entries."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2:
        raise InvalidMatrixError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.size and not np.isfinite(arr).all():
        raise InvalidMatrixError(f"{name} contains non-finite entries")
    return arr


def require_square(m, name: str = "matrix") -> np.ndarray:
    arr = require_matrix(m, name)
    if arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {arr.shape}")
    return arr


def block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[[a, 0], [0, b]]`` for two 2-D arrays, in their promoted dtype.

    Either block may have zero rows or columns; it then adds only its
    nonzero dimension to the shape.
    """
    out = np.zeros(
        (a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]),
        dtype=np.result_type(a, b),
    )
    out[:a.shape[0], :a.shape[1]] = a
    out[a.shape[0]:, a.shape[1]:] = b
    return out


def _max_abs(arr: np.ndarray) -> float:
    return float(np.abs(arr).max()) if arr.size else 0.0


class SymEig(NamedTuple):
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


class Definiteness(NamedTuple):
    symmetric: bool
    psd: bool
    pd: bool
    min_eigenvalue: float


class Hurwitz(NamedTuple):
    hurwitz: bool
    max_real_part: float


class RankTest(NamedTuple):
    """Outcome of a controllability/observability rank test.

    ``margin`` is the smallest singular value counted into the rank; it is
    0.0 when the rank is zero.
    """

    ok: bool
    rank: int
    required: int
    margin: float


def sym_eig(m, tol: float = SYMMETRY_RTOL) -> SymEig:
    """Eigendecomposition of a symmetric matrix via the self-adjoint path.

    Rejects input whose asymmetry ``max|M - M^T|`` exceeds ``tol * max|M|``,
    then decomposes the symmetrized matrix.  The reconstruction
    ``V diag(w) V^T`` is verified against the symmetrized input to
    ``1e-10 * (1 + ||M||_F)`` before returning.
    """
    arr = require_square(m, "sym_eig input")
    asym = _max_abs(arr - arr.T)
    if asym > tol * _max_abs(arr):
        raise NotSymmetricError(
            f"matrix is not symmetric: max|M - M^T| = {asym:.3e} "
            f"exceeds {tol:.1e} * max|M|"
        )
    sym = 0.5 * (arr + arr.T)
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc
    recon = float(np.linalg.norm(v @ (w[:, None] * v.T) - sym))
    if recon > 1e-10 * (1.0 + float(np.linalg.norm(sym))):
        raise NumericalFailureError(
            f"eigendecomposition reconstruction error {recon:.3e} out of tolerance"
        )
    return SymEig(w, v)


def rank_svd(m, tol: float | None = None) -> int:
    """Numerical rank from singular values.

    Default cut is ``max(shape) * sigma_max * eps``, matching the common
    LAPACK-style convention, so the result is invariant under row/column
    permutations and well behaved under orthogonal transforms.
    """
    arr = require_matrix(m, "rank_svd input")
    if arr.size == 0:
        return 0
    s = _singular_values(arr)
    return _rank_from_svals(s, arr.shape, tol)


def _singular_values(arr: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.svd(arr, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"SVD failed to converge: {exc}") from exc


def _rank_from_svals(s: np.ndarray, shape: tuple[int, int], tol: float | None) -> int:
    if tol is None:
        tol = max(shape) * float(s[0]) * np.finfo(float).eps if s.size else 0.0
    return int(np.count_nonzero(s > tol))


def is_hurwitz(m, margin: float = 0.0) -> Hurwitz:
    """Whether every eigenvalue satisfies ``Re(lambda) < -margin``."""
    arr = require_square(m, "is_hurwitz input")
    if margin < 0.0:
        raise ValueError(f"margin must be nonnegative, got {margin}")
    if arr.shape[0] == 0:
        return Hurwitz(True, float("-inf"))
    try:
        eigs = np.linalg.eigvals(arr)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigenvalue computation failed: {exc}") from exc
    max_re = float(eigs.real.max())
    return Hurwitz(max_re < -margin, max_re)


def definiteness(m, tol: float = PSD_ATOL) -> Definiteness:
    """Symmetry and definiteness classification of a square matrix.

    Symmetric means ``max|M - M^T| <= tol * (1 + max|M|)``.  The eigenvalue
    verdicts apply to the symmetrized matrix: psd requires the minimum
    eigenvalue to be at least ``-tol``, pd requires it to exceed ``+tol``.
    An asymmetric matrix is reported as neither psd nor pd, whatever its
    spectrum.
    """
    arr = require_square(m, "definiteness input")
    asym = _max_abs(arr - arr.T)
    symmetric = asym <= tol * (1.0 + _max_abs(arr))
    if arr.shape[0] == 0:
        return Definiteness(symmetric, symmetric, symmetric, 0.0)
    try:
        w = np.linalg.eigvalsh(0.5 * (arr + arr.T))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigenvalue computation failed: {exc}") from exc
    min_eig = float(w[0])
    return Definiteness(
        symmetric,
        symmetric and min_eig >= -tol,
        symmetric and min_eig > tol,
        min_eig,
    )


def psd_sqrt_factor(m, tol: float = PSD_ATOL) -> np.ndarray:
    """Factor a symmetric PSD matrix as ``M = D^T D`` with ``D`` r-by-n.

    Eigenvalues above ``tol`` are kept, so the row count of ``D`` equals the
    numerical rank of ``M``; an eigenvalue below ``-tol`` raises.  The
    factorization error ``||D^T D - M||_F`` is verified against
    ``1e-9 * (1 + ||M||_F)``.
    """
    arr = require_square(m, "psd_sqrt_factor input")
    w, v = sym_eig(arr)
    if w.size and float(w[0]) < -tol:
        raise NotPSDError(
            f"matrix is not positive semidefinite: eigenvalue {w[0]:.6e} "
            f"is below -{tol:.1e}"
        )
    keep = w > tol
    factor = np.sqrt(w[keep])[:, None] * v[:, keep].T
    sym = 0.5 * (arr + arr.T)
    err = float(np.linalg.norm(factor.T @ factor - sym))
    if err > 1e-9 * (1.0 + float(np.linalg.norm(sym))):
        raise NumericalFailureError(
            f"square-root factor error {err:.3e} out of tolerance"
        )
    return factor


def is_controllable(a, b, tol: float | None = None) -> RankTest:
    """Kalman rank test on the controllability matrix ``[B, AB, ..., A^(n-1)B]``.

    Powers are formed with ``A`` scaled by ``max(1, ||A||)`` so large-norm
    matrices do not overflow or drown the small singular values; scaling
    each block by a positive constant leaves its column space, and hence the
    rank decision, unchanged.
    """
    a_arr = require_square(a, "state matrix")
    b_arr = require_matrix(b, "input matrix")
    n = a_arr.shape[0]
    if b_arr.shape[0] != n:
        raise ShapeError(
            f"input matrix has {b_arr.shape[0]} rows, expected {n} to match "
            "the state dimension"
        )
    scaled = a_arr / max(1.0, float(np.linalg.norm(a_arr)))
    blocks = [b_arr]
    for _ in range(n - 1):
        blocks.append(scaled @ blocks[-1])
    ctrb = np.hstack(blocks) if blocks else b_arr
    if ctrb.size == 0:
        return RankTest(n == 0, 0, n, 0.0)
    s = _singular_values(ctrb)
    rank = _rank_from_svals(s, ctrb.shape, tol)
    margin = float(s[rank - 1]) if rank > 0 else 0.0
    return RankTest(rank == n, rank, n, margin)


def is_observable(a, c, tol: float | None = None) -> RankTest:
    """Observability rank test, evaluated through duality on (A^T, C^T)."""
    a_arr = require_square(a, "state matrix")
    c_arr = require_matrix(c, "output matrix")
    if c_arr.shape[1] != a_arr.shape[0]:
        raise ShapeError(
            f"output matrix has {c_arr.shape[1]} columns, expected "
            f"{a_arr.shape[0]} to match the state dimension"
        )
    return is_controllable(a_arr.T, c_arr.T, tol)
