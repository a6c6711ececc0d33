"""Dense real-matrix utilities used throughout the package.

The shape contract
------------------
Every public gate of the package coerces and checks its array arguments
in one ``conform`` call.  Each argument is a spec ``(value, name, rows,
cols)`` for a matrix or ``(value, name, length)`` for a vector; the value
becomes a float64 array of finite real numbers or raises
``InvalidMatrixError`` naming the argument.  A dimension is an int, or a
symbol (``"n"`` state order, ``"m"`` inputs, ``"s"`` stacked order, ``"c"``
composite order, ...) bound by its first occurrence, so a gate writes its
shape links down once, as the mathematics states them, and every mismatch
raises ``ShapeError`` in one format that names both arguments.
``require_matrix`` is the coercion alone and ``require_square`` the
one-spec contract ``(m, name, "n", "n")``.

Utilities
---------
Block-diagonal stacking, SVD-based numerical rank, Hurwitz and
definiteness tests, the weight gate (``require_definite``, the stack of one
of ``_weight_gate``),
positive-semidefinite square-root factors (the package's one symmetric
eigendecomposition), the PBH test, and controllability/observability rank
tests.  The rank tests never form the n-by-n*m Kalman matrix, whose columns
lose rank in floating point from order 40 or so on: they build an
orthonormal basis of the reachable subspace block by block, Paige's
orthogonal staircase, in O(n^3).
Everything works on plain float64 ndarrays, never mutates its inputs, and
keeps no state.  The definiteness kernel (``_definiteness_stack``) takes a
``(k, n, n)`` stack: its reductions are maxima, which are exact whatever
their order, and the stacked ``eigvalsh`` computes each member as it
computes that member alone, so a member's verdict does not depend on its
stack.

Tolerance conventions
---------------------
Every definiteness decision cuts at ``tol * (1 + max|M|)`` (``_cut``), with
``tol = RTOL`` unless a caller passes another: symmetric is ``max|M - M^T|
<= cut``, PSD is ``lambda_min >= -cut``, PD is ``lambda_min > cut``, a
square-root factor keeps the eigenvalues above the cut, and the PBH test
looks at ``Re(lambda) >= -cut(A)``.  Eigenvalues are computed to about
``eps * ||M||``, so scaling a matrix leaves its verdicts unchanged.  Rank
decisions use the usual ``max(shape) * sigma_max * eps`` cut, except in
the staircase: it scales ``A`` and ``B`` each to unit Frobenius norm and
cuts every step at ``max(n, m) * eps * ||[A, B]||_F`` of the scaled pair,
so its verdicts do not depend on the units of either.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    InvalidMatrixError,
    NotPDError,
    NotPSDError,
    NotSymmetricError,
    NumericalFailureError,
    ShapeError,
)

RTOL = 1e-9
_EPS = float(np.finfo(float).eps)


def _real(value, name: str) -> np.ndarray:
    """``value`` as a float64 array of finite real numbers, of any shape;
    anything else, such as strings, complex numbers or ragged rows, raises
    ``InvalidMatrixError``."""
    try:
        arr = np.asarray(value)
        # most gates receive float64 arrays the package built itself, and a
        # no-op astype would be about a third of the cost of this check
        if arr.dtype != np.float64:
            arr = arr.astype(float, casting="same_kind")
    except (TypeError, ValueError) as exc:
        raise InvalidMatrixError(f"{name} must hold real numbers: {exc}") from None
    if arr.size and not np.isfinite(arr).all():
        raise InvalidMatrixError(f"{name} contains non-finite entries")
    return arr


def require_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a 2-D float64 array of finite real numbers; anything
    else, such as strings, complex numbers, ragged rows or another number
    of dimensions, raises ``InvalidMatrixError``."""
    arr = _real(m, name)
    if arr.ndim != 2:
        raise InvalidMatrixError(f"{name} must be 2-D, got ndim={arr.ndim}")
    return arr


def conform(*specs) -> tuple[np.ndarray, ...]:
    """The shape contract of every gate: coerce each argument and bind the
    dimensions the arguments share.

    Each spec is ``(value, name, rows, cols)`` for a matrix, which
    ``require_matrix`` coerces, or ``(value, name, length)`` for a vector,
    which may arrive in any array shape and is coerced the same way, then
    flattened.  A dimension is an int, which the axis must equal, or a
    symbol such as ``"n"``, which its first occurrence binds and every
    later one must match.  Specs are checked in order, and the first
    disagreement raises ``ShapeError`` naming the argument, its shape, the
    symbol and the argument that bound it.  Returns the coerced arrays in
    spec order.
    """
    bound: dict[str, tuple[int, str]] = {}
    arrays = []
    for value, name, *dims in specs:
        if len(dims) == 2:
            arr, axes = require_matrix(value, name), ("rows", "columns")
        else:
            arr, axes = _real(value, name).reshape(-1), ("entries",)
        for size, dim, axis in zip(arr.shape, dims, axes):
            if isinstance(dim, str):
                want, source = bound.setdefault(dim, (size, name))
            else:
                want, source = dim, None
            if size != want:
                rule = f"{dim} = {want} from {source}" if source else str(want)
                raise ShapeError(
                    f"{name} has {size} {axis}, expected {rule} (shape {arr.shape})"
                )
        arrays.append(arr)
    return tuple(arrays)


def require_square(m, name: str = "matrix") -> np.ndarray:
    """``m`` as a square matrix, by the shape contract."""
    return conform((m, name, "n", "n"))[0]


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


def _cut(arr: np.ndarray, tol: float = RTOL) -> float:
    """The one cut of every definiteness decision, ``tol * (1 + max|M|)``."""
    return tol * (1.0 + _max_abs(arr))


def _t(x: np.ndarray) -> np.ndarray:
    """The transpose of each member of a stack."""
    return x.swapaxes(-1, -2)


def _not_symmetric(name: str, asym: float) -> NotSymmetricError:
    """The package's one ``NotSymmetricError``, naming ``name``."""
    return NotSymmetricError(
        f"{name} must be symmetric; max|M - M^T| = {asym:.3e} exceeds "
        f"{RTOL:.1e} * (1 + max|M|)"
    )


def _require_symmetric(arr: np.ndarray, name: str) -> np.ndarray:
    """``0.5 (M + M^T)`` for a symmetric ``arr``, at the cut ``_cut(arr)``;
    otherwise ``_not_symmetric``'s error, naming ``name``."""
    asym = _max_abs(arr - arr.T)
    if not asym <= _cut(arr):
        raise _not_symmetric(name, asym)
    return 0.5 * (arr + arr.T)


def _indefinite(name: str, min_eig: float, pd: bool = False) -> NotPSDError | NotPDError:
    """The package's one ``NotPSDError``, or ``NotPDError`` with ``pd``."""
    error, kind = (NotPDError, "definite") if pd else (NotPSDError, "semidefinite")
    return error(
        f"{name} must be positive {kind}; min eigenvalue "
        f"{min_eig:.6e}, cut {RTOL:.1e} * (1 + max|M|)"
    )


def _failed(what: str, exc: np.linalg.LinAlgError, error=NumericalFailureError):
    """The ``error`` that reports the ``LinAlgError`` ``exc`` of ``what``,
    caused by it."""
    failure = error(f"{what} failed: {exc}")
    failure.__cause__ = exc
    return failure


def _lapack(what: str, fn, *args, error=NumericalFailureError, **kwargs):
    """``fn(*args, **kwargs)``; a ``LinAlgError`` is raised as ``error`` naming ``what``."""
    try:
        return fn(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise _failed(what, exc, error) from exc


def _each(fn, x: np.ndarray, shape: tuple[int, ...] | None = None):
    """``fn`` (a stacked LAPACK call: ``np.linalg.inv``, ``cholesky`` or
    ``eigvalsh``) on a stack, with each member's ``LinAlgError`` or ``None``.
    The stacked call raises when any member fails; then each member is
    computed alone, which gives the same bits, and a failed member's slice
    of the result is NaN.  ``shape`` is a member's result shape when it is
    not the member's own."""
    try:
        return fn(x), [None] * len(x)
    except np.linalg.LinAlgError:
        pass
    out = np.full((len(x),) + (x.shape[1:] if shape is None else shape), math.nan)
    errors = []
    for i, member in enumerate(x):
        try:
            out[i] = fn(member)
            errors.append(None)
        except np.linalg.LinAlgError as exc:
            errors.append(exc)
    return out, errors


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

    ``margin`` is the smallest singular value counted into the rank over
    all steps of the staircase, on the unit-scaled pair, so at most 1; it
    is 0.0 when the rank is zero.
    """

    ok: bool
    rank: int
    required: int
    margin: float


def _singular_values(arr: np.ndarray) -> np.ndarray:
    return _lapack("SVD", np.linalg.svd, arr, compute_uv=False)


def _rank_from_svals(s: np.ndarray, shape: tuple[int, int]) -> int:
    """Rank from singular values, cut at ``max(shape) * sigma_max * eps``."""
    tol = max(shape) * float(s[0]) * _EPS if s.size else 0.0
    return int(np.count_nonzero(s > tol))


def is_hurwitz(m) -> Hurwitz:
    """Whether every eigenvalue satisfies ``Re(lambda) < 0``."""
    arr = require_square(m, "is_hurwitz input")
    if arr.shape[0] == 0:
        return Hurwitz(True, float("-inf"))
    eigs = _lapack("eigenvalue computation", np.linalg.eigvals, arr)
    max_re = float(eigs.real.max())
    return Hurwitz(max_re < 0.0, max_re)


def definiteness(m, tol: float = RTOL) -> Definiteness:
    """Symmetry and definiteness classification of a square matrix.

    With ``cut = tol * (1 + max|M|)``: symmetric means ``max|M - M^T| <=
    cut``, and the eigenvalue verdicts apply to the symmetrized matrix,
    psd requiring the minimum eigenvalue to be at least ``-cut`` and pd
    requiring it to exceed ``+cut``.  An asymmetric matrix is reported as
    neither psd nor pd, whatever its spectrum.
    """
    return _definiteness(require_square(m, "definiteness input"), tol)


def _definiteness(arr: np.ndarray, tol: float = RTOL) -> Definiteness:
    """The body of ``definiteness`` on a square array already coerced: the
    stack of one of ``_definiteness_stack``."""
    (d,) = _definiteness_stack(arr[None], tol)[2]
    if isinstance(d, NumericalFailureError):
        raise d
    return d


def _definiteness_stack(x: np.ndarray, tol: float = RTOL) -> tuple[np.ndarray, np.ndarray, list]:
    """``definiteness`` of each member of a ``(k, n, n)`` stack, with
    ``0.5 (M + M^T)`` and the asymmetry ``max|M - M^T|`` of each member.
    A member's entry is its ``Definiteness``, ``None`` when it holds a
    non-finite entry, or the ``NumericalFailureError`` of its eigenvalues."""
    k, n = x.shape[:2]
    # a non-finite member's sums and differences may be NaN; it gets no verdict
    with np.errstate(invalid="ignore"):
        finite = np.isfinite(x).all(axis=(1, 2))
        sym = 0.5 * (x + _t(x))
        asym = np.abs(x - _t(x)).max(axis=(1, 2), initial=0.0)
        cut = tol * (1.0 + np.abs(x).max(axis=(1, 2), initial=0.0))
        symmetric, cuts = (asym <= cut).tolist(), cut.tolist()
    out: list = [None] * k
    live = list(range(k)) if finite.all() else np.flatnonzero(finite).tolist()
    if n == 0 or not live:
        for i in live:
            out[i] = Definiteness(symmetric[i], symmetric[i], symmetric[i], 0.0)
        return sym, asym, out
    w, errors = _each(np.linalg.eigvalsh, sym[live] if len(live) < k else sym, (n,))
    for i, min_eig, error in zip(live, w[:, 0].tolist(), errors):
        s, cut = symmetric[i], cuts[i]
        out[i] = (
            _failed("eigenvalue computation", error) if error is not None
            else Definiteness(s, s and min_eig >= -cut, s and min_eig > cut, min_eig)
        )
    return sym, asym, out


def _weight_gate(x: np.ndarray, rules) -> tuple[np.ndarray, list]:
    """The weight gate on a ``(k, n, n)`` stack: ``0.5 (M + M^T)`` of each
    member, and each member's ``Definiteness`` or the error that
    ``require_definite`` raises for it alone.  ``rules[i]`` is ``(name,
    pd)``: the name the member's error gives, and whether it must be PD
    rather than PSD.  The rules are the ones of ``definiteness`` at the cut
    ``RTOL * (1 + max|M|)``: finite entries, then symmetry, then the
    eigenvalue verdict."""
    sym, asym, verdicts = _definiteness_stack(x)
    out = []
    for (name, pd), d, a in zip(rules, verdicts, asym.tolist()):
        if d is None:
            d = InvalidMatrixError(f"{name} contains non-finite entries")
        elif isinstance(d, Definiteness):
            if not d.symmetric:
                d = _not_symmetric(name, a)
            elif not (d.pd if pd else d.psd):
                d = _indefinite(name, d.min_eigenvalue, pd)
        out.append(d)
    return sym, out


def require_definite(m, name: str, pd: bool = False) -> tuple[np.ndarray, Definiteness]:
    """The weight gate: ``0.5 (M + M^T)`` and the ``definiteness`` verdict
    it decided on, once that finds ``m`` symmetric and PSD (PD with
    ``pd``); otherwise ``NotSymmetricError``, ``NotPSDError`` or
    ``NotPDError`` naming ``name``.  It is ``_weight_gate`` on the stack of
    one."""
    arr = require_square(m, name)
    sym, (d,) = _weight_gate(arr[None], [(name, pd)])
    if not isinstance(d, Definiteness):
        raise d
    return sym[0], d


def psd_sqrt_factor(m) -> np.ndarray:
    """Factor a symmetric PSD matrix as ``M = D^T D`` with ``D`` r-by-n.

    ``M`` must pass the symmetry rule ``max|M - M^T| <= cut``, ``cut =
    RTOL * (1 + max|M|)``, and ``eigh`` decomposes its symmetrized form.
    Eigenvalues above the cut are kept, so the row count of ``D`` equals
    the numerical rank of ``M``; an eigenvalue below ``-cut`` raises.  The
    factorization error ``||D^T D - M||_F`` is verified against
    ``sqrt(n) * cut``, the most that the dropped eigenvalues, each within
    the cut, can add up to.
    """
    arr = require_square(m, "psd_sqrt_factor input")
    cut = _cut(arr)
    sym = _require_symmetric(arr, "psd_sqrt_factor input")
    w, v = _lapack("eigendecomposition", np.linalg.eigh, sym)
    if w.size and float(w[0]) < -cut:
        raise _indefinite("psd_sqrt_factor input", float(w[0]))
    keep = w > cut
    factor = np.sqrt(w[keep])[:, None] * v[:, keep].T
    err = float(np.linalg.norm(factor.T @ factor - sym))
    if err > np.sqrt(arr.shape[0]) * cut:
        raise NumericalFailureError(
            f"square-root factor error {err:.3e} out of tolerance"
        )
    return factor


def _pbh_unreachable(a: np.ndarray, make_b) -> complex | None:
    """The first eigenvalue ``lambda`` of ``A`` with ``Re >= -cut(A)`` at
    which ``[lambda I - A, B]`` has rank below ``n``, or ``None``.
    ``make_b()`` returns ``B``; it is called only if such an eigenvalue
    exists."""
    edge = -_cut(a)
    eigs = _lapack("eigenvalue computation", np.linalg.eigvals, a)
    modes = [lam for lam in eigs if lam.real >= edge]
    b = make_b() if modes else None
    n = a.shape[0]
    for lam in modes:
        pencil = np.hstack([lam * np.eye(n) - a, b]).astype(complex)
        if _rank_from_svals(_singular_values(pencil), pencil.shape) < n:
            return lam
    return None


def is_controllable(a, b) -> RankTest:
    """Rank test of ``(A, B)`` by the orthogonal controllability staircase.

    Paige's staircase (IEEE TAC 26, 1981) finds an orthonormal basis of the
    reachable subspace block by block, never forming ``[B, AB, ...,
    A^(n-1)B]``; see ``_staircase``.  ``A`` and ``B`` are each scaled to
    unit Frobenius norm first, which leaves the rank unchanged, so a
    singular value counts when it exceeds ``max(n, m) * eps * ||[A, B]||_F``
    of the scaled pair, whatever the units of either.  ``margin`` is the
    smallest singular value kept over all steps, at most 1 on the scaled
    pair: the nearer it is to the cut, the nearer the weakest reached
    direction came to being dropped.
    """
    a_arr, b_arr = conform(
        (a, "state matrix", "n", "n"), (b, "input matrix", "n", "m")
    )
    return _staircase(a_arr, b_arr)


def is_observable(a, c) -> RankTest:
    """Observability rank test: the controllability staircase of the dual
    pair ``(A^T, C^T)``, with its scale-free cut and margin."""
    a_arr, c_arr = conform(
        (a, "state matrix", "n", "n"), (c, "output matrix", "p", "n")
    )
    return _staircase(a_arr.T, c_arr.T)


def _unit_frobenius(x: np.ndarray) -> tuple[np.ndarray, float]:
    """``x`` scaled to unit Frobenius norm, with its new norm 1.0, or a zero
    ``x`` as it is, with 0.0.  Dividing by ``max|x|`` first keeps the
    norm's squares from overflowing or underflowing."""
    peak = _max_abs(x)
    if peak == 0.0:
        return x, 0.0
    x = x / peak
    return x / np.linalg.norm(x), 1.0


def _staircase(a: np.ndarray, b: np.ndarray) -> RankTest:
    """The rank test of ``is_controllable`` on trusted arrays.

    Each step splits off the numerical range of the current block by an
    SVD (a norm for a single column) and appends it to the basis ``V``; the
    next block is ``A`` times the new columns, orthogonalised against ``V``
    by two passes of classical Gram-Schmidt.  Once fewer dimensions remain
    than the block is wide, the test moves to the orthogonal complement
    ``W`` of ``V`` as Paige's recursion does: the next block is
    ``W^T A V_new`` and the state matrix ``W^T A W``.  The work is O(n^3)
    in all.  The test stops when a block has no singular value above the
    cut or the basis spans the state space.
    """
    n, m = b.shape
    if n == 0 or m == 0:
        return RankTest(n == 0, 0, n, 0.0)
    a, norm_a = _unit_frobenius(a)
    block, norm_b = _unit_frobenius(b)
    if norm_b == 0.0:
        return RankTest(False, 0, n, 0.0)
    # ||[A, B]||_F of the scaled pair: sqrt(2), or 1 for a zero A
    cut = max(n, m) * _EPS * math.hypot(norm_a, norm_b)
    basis = np.empty((n, n))
    width = rank = 0
    margin = np.inf
    while True:
        complement = None
        rows, cols = block.shape
        if cols == 1:
            smallest = float(np.linalg.norm(block))
            kept = int(smallest > cut)
            new = block / smallest if kept else block
        elif width == 0 and cols >= rows and (s := _singular_values(block))[-1] > cut:
            # the block fills the space left: its values settle the test
            kept, smallest, new = rows, float(s[-1]), None
        else:
            # A block at least half as wide as it is tall usually fills its
            # space; its full SVD then also gives the complement to move to.
            full = width == 0 and 2 * cols >= rows
            u, s, _ = _lapack("SVD", np.linalg.svd, block, full_matrices=full)
            kept = int(np.count_nonzero(s > cut))
            smallest = float(s[kept - 1]) if kept else 0.0
            new = u[:, :kept]
            if full:
                complement = u[:, kept:]
        if kept == 0:
            break
        margin = min(margin, smallest)
        rank += kept
        if rank == n:
            break
        basis[:, width:width + kept] = new
        width += kept
        left = a.shape[0] - width
        if left < kept:
            if complement is None:
                complement = np.linalg.qr(basis[:, :width], mode="complete")[0][:, width:]
            block = complement.T @ (a @ new)
            a = complement.T @ a @ complement
            basis = np.empty((left, left))
            width = 0
        else:
            block = a @ new
            v = basis[:, :width]
            block -= v @ (v.T @ block)
            block -= v @ (v.T @ block)
    return RankTest(rank == n, rank, n, margin if rank else 0.0)
