"""Continuous-time algebraic Riccati and Lyapunov solvers plus residuals.

Two numpy kernels do the work.  ``_sda`` is the structure-preserving
doubling algorithm (Chu, Fan & Lin, Linear Algebra Appl. 396, 2005).
After a Cayley transform with shift ``gamma > 0`` it iterates on n x n
blocks ``E, G, H``, and ``H`` converges quadratically to ``P``.  Each step
is one n x n inverse and a few n x n products, where a sign step inverts
the 2n x 2n Hamiltonian, and no least-squares read-out follows.  The
inverse of ``I + G H`` multiplies ``E`` and ``G``: two products cost less
than a 2n-column solve.  Like the Lyapunov doubling below, it has one stop:
once ``E_k`` has vanished, ``||E_k||_F^2 <= 1e-13``, since every later
increment carries ``E_k`` twice and could only confirm it.  A slow
convergence is never mistaken for divergence; an eigenvalue on the
imaginary axis keeps ``E_k`` from vanishing, and the doubling stops at its
step cap.

``_sign_newton`` computes the matrix sign function by the scaled Newton
iteration ``Z <- (Z/c + c Z^{-1})/2`` (Roberts, Int. J. Control 32, 1980;
Byers, Linear Algebra Appl. 85, 1987), with the norm scaling
``c = sqrt(||Z||_F / ||Z^{-1}||_F)`` (Kenney & Laub, SIAM J. Matrix Anal.
Appl. 13, 1992) read off the inverse the step forms anyway, so each step
is one LU.  Scaling stops once the relative step falls to 1e-2.  The
iteration has converged once ``||dZ||_F <= 1e-13 ||Z||_F``, or once a step
below 1e-6 relative is no longer half the one before it, which is the
round-off floor of an ill-conditioned sign.  A singular iterate, or no
convergence within ``_SIGN_MAX_ITER = 100`` steps, stops it with
``np.linalg.LinAlgError``.  It serves the Hamiltonian only: the CARE below
``_SDA_MIN_ORDER``, and the doubling's fallback.

The Riccati solver first balances the Hamiltonian's off-diagonal blocks
``G`` and ``Q`` by a power of two ``sigma`` (an exact similarity), since
both kernels read a scale off ``||H||``, which unbalanced blocks inflate
past the spectrum.  A Hamiltonian whose squared Frobenius norm overflows
has no scale to read and raises ``NumericalFailureError``, as does a
Lyapunov ``A_cl`` or ``W`` whose squared norm overflows.  At orders
``n >= _SDA_MIN_ORDER = 9`` the solver takes its candidate from ``_sda``,
with ``gamma`` the power of two nearest the RMS singular value
``||H_bal||_F / sqrt(2n)`` of the balanced Hamiltonian.  Below that order
the sign candidate is taken: on random CAREs with m = 2 and one BLAS
thread (80 per order, the least of three medians, each CARE solved by both
kernels in turn) the doubling is 4-23% slower at orders 2-8 and 7-25%
faster at orders 9-16.  When the doubling breaks down or stops at its cap,
or its candidate fails a certificate, the solver falls back to the sign
candidate, and only that one can raise, so every error type and message is
the sign path's.  The fallback is there for two reasons:

- when ``(A, sqrt(Q))`` is not detectable the doubling need not converge:
  with an unstable mode that ``Q`` does not see, ``E_k`` overflows within a
  few steps;
- a power-of-two ``gamma`` can be an eigenvalue of ``A``, and then the
  Cayley transform does not exist.

The sign candidate is read off the stable invariant subspace of the
Hamiltonian, the null space of ``S + I``, by least squares.  Either
candidate is then polished with a few Newton sweeps in correction form,
each of which is one Lyapunov solve for the step, and certified by its
residual, its definiteness and a Hurwitz closed loop.  The polish brings
a residual well above round-off back down without changing which
solution is selected.

Definiteness and the closed loop are certified together by the Lyapunov
inequality, with two Cholesky factorizations and no eigenvalue.  With
``A_cl = A + B F`` and ``M = -(A_cl^T P + P A_cl)``, which is
``Q + P G P + Res(P)``, a PD ``P`` and a PD ``M`` make ``A_cl`` Hurwitz.
Each is factored less a shift that bounds its rounding, ``delta_P`` for
the factorization and ``delta_M`` for the factorization and the forming
of ``M`` (about ``n eps ||P||_F ||A_cl||_F``), so success proves both
for the exact matrices, and a PD ``P`` passes the PSD test at any cut.
When either factorization fails, as for the singular ``P`` of a singular
``Q`` or an ``M`` that is not safely definite, the eigenvalue tests
(``definiteness`` of ``P``, ``is_hurwitz`` of ``A_cl``) decide, and every
verdict and message is theirs.  ``RiccatiSolution.closed_loop_max_re`` is
computed from ``A_cl`` on first read and cached, so only a caller that
reads it, such as a rendered report, pays for the eigenvalues.

Every Lyapunov equation, whether from ``solve_lyapunov`` or from a Newton
sweep, is solved by ``_lyap_core``: Smith's doubling after a Cayley
transform (Smith, SIAM J. Appl. Math. 16, 1968), which is the doubling
above with ``G = 0`` (Chu, Fan & Lin, 2005).  Its shift is the power of
two nearest the RMS singular value ``||A_cl||_F / sqrt(n)``, by the
CARE's rule.  It makes one n x n inverse in total, of ``A_cl - gamma I``,
and then three products per step.  Since ``X - H_k = E_k^T X E_k`` holds
exactly, it stops once ``||E_k||_F^2 <= eps``.  ``E_k = C^(2^k)`` vanishes
if and only if ``A_cl`` is Hurwitz, so reaching that stop is the Hurwitz
gate.  The eigenvalues of ``A_cl`` are computed only when the doubling
does not reach it, to tell ``NotHurwitzError`` from
``NumericalFailureError`` and to name the largest real part in the error.
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
composite coordinates; the CARE residual is its ``K = I``, ``X = P`` case.

Stacks.  The Riccati kernels take a leading batch axis: ``_solve_care_stack``
solves ``k`` CAREs of one shape from ``(k, n, n)``, ``(k, n, m)``,
``(k, n, n)`` and ``(k, m, m)`` stacks and returns one result per member,
and ``_solve_care`` is its stack of one, so there is a single code path.
``_sign_newton``, ``_sign_candidate``, ``_certified``,
``_lyapunov_certified``, ``_cholesky_rounding`` and ``_riccati_residual``
work on stacks.  Their heavy steps are stacked ``inv``, ``solve``,
``cholesky`` and ``matmul`` calls, which numpy computes member by member
with the LAPACK and BLAS calls it makes for one matrix, and elementwise
arithmetic, which is exact per entry.  Every reduction stays a member's
own, so a member's ``P``, ``F``, residual and method are bit for bit what
it gets alone, at any BLAS thread count:

- a Frobenius norm is one dot product per member, a stacked 1 x 1
  row-by-column product that numpy forms with the dot product of
  ``np.vdot`` and ``np.linalg.norm`` (``einsum`` or a norm with ``axis=``
  sums in another order and moves last bits);
- the sign step's scale ``c`` is the member's Python float
  ``(z2 / inv2) ** 0.25``, and each member keeps its own scaling and floor
  state; a member that has converged leaves the active set.

``lstsq`` has no stacked form, so the read-out loops over members.  The
Newton polish and the eigenvalue tests, which few members need, run on a
member's own slice, and from ``_SDA_MIN_ORDER`` on the doubling runs
member by member before one stacked certificate.  A stacked ``inv`` or
``cholesky`` fails as a whole when one member fails; it is then retried
member by member, which names the member.  A member that fails gets its
own error object, the one ``_solve_care`` raises for it alone, and the
other members are unaffected.  ``lqr.counterexample_search`` groups its
CAREs by shape this way; every other caller solves a stack of one.

Each public function here validates its raw arrays with one
``matkit.conform`` call and hands them to a private kernel
(``_riccati_residual``, ``_solve_care``) that trusts them; the package's
own pipeline calls the kernels directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

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
# counts calls under this name; the gates coerce through conform.  The
# certificate's eigenvalue fallback calls definiteness and is_hurwitz through
# this module's names, not matkit's kernels: perfbench's tracer wraps
# riccati.definiteness by name, and times the fallback through it.
from .matkit import (
    _EPS,
    RTOL,
    _each,
    _lapack,
    _pbh_unreachable,
    _require_symmetric,
    _t,
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
_SDA_MIN_ORDER = 9
# The error of either doubling (CARE or Lyapunov) falls like rho^(2^k) for
# the Cayley-transformed spectral radius rho < 1, so 60 steps resolve any
# rho with 1 - rho above the unit round-off; more cannot converge.
_SDA_MAX_ITER = 60


@dataclass(frozen=True)
class RiccatiSolution:
    """Stabilizing Riccati solution with its accuracy certificate and the
    certified gain ``F = -R^{-1} B^T P``, whose closed loop
    ``A_cl = A + B F`` is Hurwitz.  ``method`` names the kernel whose
    candidate was certified: ``"doubling"`` or ``"sign"``.

    ``stabilizing`` is the Hurwitz certificate's verdict.
    ``closed_loop_max_re``, the largest real part of an eigenvalue of
    ``A_cl``, is computed from ``A_cl`` on first read and cached, unless
    ``known_max_re`` already holds it: the eigenvalue test's value when
    that test decided the certificate, or a value given by hand, in which
    case ``stabilizing`` is ``known_max_re < 0``."""

    P: np.ndarray
    F: np.ndarray
    residual_norm: float
    known_max_re: float | None = None
    method: str = "sign"
    A_cl: np.ndarray | None = field(default=None, repr=False)

    @property
    def stabilizing(self) -> bool:
        return self.known_max_re is None or self.known_max_re < 0.0

    @cached_property
    def closed_loop_max_re(self) -> float:
        if self.known_max_re is not None:
            return self.known_max_re
        return is_hurwitz(self.A_cl).max_real_part


def care_residual(a, b, q, r, p) -> tuple[np.ndarray, float]:
    """Residual ``-P^T A - A^T P - Q + P^T B R^{-1} B^T P`` and its Frobenius
    norm: the rectangular residual with ``K = I``, ``X = P``.  It is the
    CARE's for a symmetric ``P``; an asymmetric ``P`` is not symmetrized.

    Evaluated exactly as written so it serves as an oracle independent of
    how a candidate ``P`` was produced.
    """
    a_arr, b_arr, q_arr, r_arr, p_arr = conform(
        (a, "A", "n", "n"), (b, "B", "n", "m"), (q, "Q", "n", "n"),
        (r, "R", "m", "m"), (p, "P", "n", "n"),
    )
    res, norms, _ = _riccati_residual(
        a_arr[None], b_arr[None], q_arr[None], r_arr[None], p_arr[None]
    )
    return res[0], norms[0]


def _sq_norms(x: np.ndarray) -> list[float]:
    """``||X_i||_F^2`` of each member as one stacked row-by-column product:
    numpy forms each member's 1 x 1 product with the dot product that
    ``np.vdot`` and ``np.linalg.norm`` use, so a member's value does not
    depend on its stack, which ``einsum`` or a norm with ``axis=`` does not
    promise.  A stack of one calls ``np.vdot`` itself, which gives the same
    bits in half the time of the stacked product."""
    if len(x) == 1:
        return [float(np.vdot(x[0], x[0]))]
    rows = x.reshape(len(x), 1, -1)
    return (rows @ rows.swapaxes(1, 2)).ravel().tolist()


def _norms(x: np.ndarray) -> list[float]:
    """``||X_i||_F`` of each member, exactly ``np.linalg.norm(X_i)``."""
    return [math.sqrt(s) for s in _sq_norms(x)]


def _riccati_residual(ak, b, q, r, x) -> tuple[np.ndarray, list[float], np.ndarray]:
    """``(res, [||res_i||_F], R^{-1} B^T X)`` for
    ``res = -X^T AK - AK^T X - Q + X^T B R^{-1} B^T X`` on stacks of trusted
    arrays, ``AK = A_s K`` or, for the CARE, ``A``.  A residual past the
    float range reads as inf, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        solved = _lapack(
            "solve with R", np.linalg.solve, r, _t(b) @ x, error=SingularMatrixError
        )
        res = -_t(x) @ ak - _t(ak) @ x - q + _t(x) @ b @ solved
        return res, _norms(res), solved


def _sign_newton(z: np.ndarray) -> list[np.ndarray | np.linalg.LinAlgError]:
    """``sign(Z_i)`` of each member of the stack ``z`` by the norm-scaled
    Newton iteration, or the ``np.linalg.LinAlgError`` that stopped it.

    Each step is ``Z <- (Z/c + c Z^{-1})/2`` with the norm scaling
    ``c = sqrt(||Z||_F / ||Z^{-1}||_F)``, read off the inverse the step
    forms, so each step is one LU, until the relative step falls to
    ``_SIGN_SCALE_TOL``; ``c`` is 1 after that.

    A member has converged when ``||dZ||_F <= _SIGN_TOL ||Z||_F``, or when a
    step below ``_SIGN_FLOOR_TOL ||Z||_F`` is not half the one before it, and
    then leaves the stack.  It stops with ``LinAlgError`` for a singular
    iterate (an LU that breaks down or an inverse that is not finite) or no
    convergence within ``_SIGN_MAX_ITER`` steps.  The steps are stacked
    ``inv`` and elementwise arithmetic, and each member's norms and ``c``
    are its own, so a member's iterates are those it takes alone.
    """
    if z.shape[-1] == 0:
        return list(z)
    out: list = [None] * len(z)
    live = list(range(len(z)))  # the members still iterating, in stack order
    c = np.ones((len(z), 1, 1))  # each live member's scale
    scaling, last2 = [True] * len(z), [math.inf] * len(z)
    # an overflow is a singular iterate
    with np.errstate(over="ignore", invalid="ignore"):
        z_sq = _sq_norms(z)
        for _ in range(_SIGN_MAX_ITER):
            z_inv, failed = _each(np.linalg.inv, z)
            keep = []
            for j, (i, inv2, z2) in enumerate(zip(live, _sq_norms(z_inv), z_sq)):
                if failed[j] is not None or not math.isfinite(inv2):
                    out[i] = np.linalg.LinAlgError("singular iterate")
                    out[i].__cause__ = failed[j]
                    continue
                if scaling[i]:
                    scale = (z2 / inv2) ** 0.25
                    if not 0.0 < scale < math.inf:  # c^4 left the float range
                        scale = math.sqrt(math.sqrt(z2) / math.sqrt(inv2))
                    c[j] = scale
                keep.append(j)
            if not keep:
                return out
            if len(keep) < len(live):
                z, z_inv, c, live = z[keep], z_inv[keep], c[keep], [live[j] for j in keep]
            z_next = 0.5 * (z / c + c * z_inv)
            z_sq, keep = _sq_norms(z_next), []
            for j, (i, step2, size2) in enumerate(zip(live, _sq_norms(z_next - z), z_sq)):
                if step2 <= _SIGN_TOL**2 * size2 or (
                    step2 <= _SIGN_FLOOR_TOL**2 * size2 and 4.0 * step2 > last2[i]
                ):
                    out[i] = z_next[j]
                    continue
                if step2 <= _SIGN_SCALE_TOL**2 * size2:
                    scaling[i], c[j] = False, 1.0
                last2[i] = step2
                keep.append(j)
            if not keep:
                return out
            if len(keep) < len(live):
                z_next, c, live = z_next[keep], c[keep], [live[j] for j in keep]
                z_sq = [z_sq[j] for j in keep]
            z = z_next
    for i in live:
        out[i] = np.linalg.LinAlgError(
            f"sign iteration did not converge in {_SIGN_MAX_ITER} steps"
        )
    return out


def _shift(sq_norm: float, n: int) -> float:
    """The doubling's Cayley shift: the power of two nearest the RMS
    singular value ``sqrt(sq_norm / n)`` of an order-``n`` matrix whose
    squared Frobenius norm is ``sq_norm``, or 1 for a zero matrix."""
    return 2.0 ** round(0.5 * math.log2(sq_norm / n)) if sq_norm > 0.0 else 1.0


def _out_of_range(what: str, **blocks: np.ndarray) -> NumericalFailureError:
    """The error for a matrix whose squared Frobenius norm overflows, so
    that no kernel can read a scale off it; names each block's largest
    entry."""
    scales = ", ".join(f"max|{k}| {float(np.abs(x).max()):.3e}" for k, x in blocks.items())
    return NumericalFailureError(
        f"{what} is out of range: its squared Frobenius norm overflows "
        f"({scales}); rescale the problem"
    )


def _not_hurwitz(a_cl: np.ndarray) -> RsmLqrError:
    """The error for a Lyapunov doubling that stopped without ``E_k``
    vanishing, decided by the eigenvalues of ``A_cl``:
    ``NotHurwitzError`` naming how many have ``Re >= 0`` and the largest
    real part, or ``NumericalFailureError`` when ``A_cl`` is Hurwitz."""
    eigs = _lapack("eigenvalue computation", np.linalg.eigvals, a_cl)
    max_re = float(eigs.real.max())
    if max_re < 0.0:
        return NumericalFailureError(
            "Lyapunov solve failed: the doubling stopped on a Hurwitz "
            f"matrix (max real part {max_re:.6e})"
        )
    unstable = int(np.count_nonzero(eigs.real >= 0.0))
    return NotHurwitzError(
        f"closed-loop matrix has {unstable} eigenvalue(s) with real part >= 0 "
        f"(max real part {max_re:.6e})"
    )


def _lyap_core(a_cl: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Solve A^T X + X A = -W by Smith's doubling (``_sda`` with
    ``G = 0``); symmetric result.  With ``A_g = A - gamma I``, ``X`` solves
    ``X = C^T X C + H_0`` for ``C = I + 2 gamma A_g^{-1}`` and
    ``H_0 = 2 gamma A_g^{-T} W A_g^{-1}``; the steps ``H <- H + E^T H E``,
    ``E <- E^2`` from ``E_0 = C`` stop once ``||E_k||_F^2 <= eps``, which
    only a Hurwitz ``A`` reaches.  A singular ``A_g``, an iterate that is
    not finite or ``_SDA_MAX_ITER`` steps raise ``_not_hurwitz(A)``."""
    n = a_cl.shape[0]
    a2 = float(np.vdot(a_cl, a_cl))
    if not math.isfinite(a2):
        raise _out_of_range("the closed-loop matrix", A_cl=a_cl)
    gamma = _shift(a2, n)
    try:
        a_inv = np.linalg.inv(a_cl - gamma * np.eye(n))
    except np.linalg.LinAlgError as exc:  # gamma > 0 is an eigenvalue
        raise _not_hurwitz(a_cl) from exc
    # iterates that overflow stop the doubling, caught by the finiteness tests
    with np.errstate(over="ignore", invalid="ignore"):
        e = (2.0 * gamma) * a_inv
        e[np.diag_indices(n)] += 1.0
        h = (2.0 * gamma) * (a_inv.T @ w @ a_inv)
        for _ in range(_SDA_MAX_ITER):
            e2 = float(np.vdot(e, e))
            if e2 <= _EPS:
                if np.isfinite(h).all():
                    return 0.5 * (h + h.T)
                break
            if not math.isfinite(e2):
                break
            h = h + e.T @ h @ e
            e = e @ e
    raise _not_hurwitz(a_cl)


def solve_lyapunov(a_cl, w, tol: float = 1e-10) -> np.ndarray:
    """Solve ``A_cl^T X + X A_cl + W = 0`` for symmetric ``X``.

    ``A_cl`` must be Hurwitz, since otherwise the solution need not exist
    or be unique: the solve's doubling (``_lyap_core``) reaches its stop
    only when it is, and ``NotHurwitzError`` is raised otherwise.  ``W``
    must be symmetric.
    The relative residual ``||A_cl^T X + X A_cl + W||_F / (1 + ||W||_F)``
    is verified against ``tol``, with two refinement passes (three solves)
    before giving up.  An ``A_cl`` or ``W`` whose squared Frobenius norm
    overflows raises ``NumericalFailureError`` naming its largest entry.
    """
    a_arr, w_arr = conform(
        (a_cl, "closed-loop matrix", "n", "n"), (w, "W", "n", "n")
    )
    w_sym = _require_symmetric(w_arr, "W")
    # a norm whose square overflows reads as inf: for W an error, named
    # before the doubling's H_0 overflows on it, for the residual a failed test
    with np.errstate(over="ignore"):
        scale = 1.0 + float(np.linalg.norm(w_sym))
        if scale == math.inf:
            raise _out_of_range("W", W=w_sym)
        x = _lyap_core(a_arr, w_sym)
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
    balanced solution is ``P / sigma``.  At orders ``n >= 9`` the candidate
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
    and ``A - B R^{-1} B^T P`` Hurwitz: proven by two Cholesky
    factorizations (``_lyapunov_certified``), else decided by the
    eigenvalue tests.

    ``Q`` and ``R`` pass the weight gate ``require_definite``, which raises
    ``NotSymmetricError``, ``NotPSDError`` or ``NotPDError``.  Raises
    ``NotStabilizableError`` when a singular iterate or no convergence
    stops the sign iteration, when the stable dimension ``(2n - trace S)/2``
    is not ``n``, when the least-squares system has rank below ``n``, or
    when a candidate fails a certificate and the PBH test finds an
    unreachable eigenvalue of ``A`` with ``Re >= -RTOL (1 + max|A|)``.  A
    stopped sign iteration runs the same PBH test, so its error names the
    unreachable mode when there is one.  Any other certificate failure raises
    ``NumericalFailureError``, and so does a balanced Hamiltonian whose
    squared Frobenius norm overflows; that error names the largest entry of
    ``A``, ``G`` and ``Q``.  A failed doubling attempt raises nothing of
    its own: every error is the sign path's.
    """
    a_arr, b_arr, q_arr, r_arr = conform(
        (a, "A", "n", "n"), (b, "B", "n", "m"), (q, "Q", "n", "n"),
        (r, "R", "m", "m"),
    )
    if b_arr.shape[1] < 1:
        raise ShapeError("B must have at least one column")
    return _solve_care(
        a_arr, b_arr, require_definite(q_arr, "Q")[0],
        require_definite(r_arr, "R", pd=True)[0], tol,
    )


def _solve_care(a, b, q, r, tol: float = RTOL) -> RiccatiSolution:
    """The body of ``solve_care`` on trusted arrays: ``Q`` exactly symmetric
    PSD, ``R`` exactly symmetric PD, shapes matching, ``B`` not empty.  It
    is ``_solve_care_stack`` on the stack of one, raising its error."""
    (sol,) = _solve_care_stack(a[None], b[None], q[None], r[None], tol)
    if isinstance(sol, RsmLqrError):
        raise sol
    return sol


def _solve_care_stack(a, b, q, r, tol: float = RTOL) -> list[RiccatiSolution | RsmLqrError]:
    """``_solve_care`` on stacks of CAREs of one shape: ``A`` and ``Q`` of
    shape ``(k, n, n)``, ``B`` of shape ``(k, n, m)`` and ``R`` of shape
    ``(k, m, m)``.  Returns each member's solution, or the error that
    ``_solve_care`` raises for it alone, in stack order; a failed member
    leaves the others as they are."""
    k, n = a.shape[:2]
    out: list = [None] * k
    # a G or a norm past the float range reads as inf or NaN and fails the
    # test of h2 below
    with np.errstate(over="ignore", invalid="ignore"):
        g = b @ np.linalg.solve(r, _t(b))
        g = 0.5 * (g + _t(g))
        q_norms, g_norms, a_sq = _norms(q), _norms(g), _sq_norms(a)
    # Both kernels read a scale off ||H||, which an unbalanced pair of
    # off-diagonal blocks inflates far past the spectrum.  With
    # P = sigma P_hat, P_hat solves the CARE of (A, sigma G, Q / sigma);
    # sigma is the power of two nearest sqrt(||Q||_F / ||G||_F), so the
    # balancing is exact.
    sigmas, h2 = [1.0] * k, [0.0] * k
    for i, (q_norm, g_norm) in enumerate(zip(q_norms, g_norms)):
        if 0.0 < q_norm < math.inf and 0.0 < g_norm < math.inf:
            sigmas[i] = 2.0 ** round(0.5 * (np.log2(q_norm) - np.log2(g_norm)))
        g_bal, q_bal = sigmas[i] * g_norm, q_norm / sigmas[i]
        h2[i] = 2.0 * a_sq[i] + g_bal * g_bal + q_bal * q_bal
        if not math.isfinite(h2[i]):
            out[i] = _out_of_range("the Hamiltonian", A=a[i], G=g[i], Q=q[i])
    sigma = np.array(sigmas)[:, None, None]
    live = [i for i in range(k) if out[i] is None]
    if n >= _SDA_MIN_ORDER and live:
        # member by member: a breakdown, a stopped polish or a failed
        # certificate falls back to the sign candidate, whose errors are the
        # public ones
        doubled, cands = [], []
        for i in live:
            s = sigmas[i]
            # gamma: the power of two nearest the RMS singular value
            # ||H_bal||_F / sqrt(2n) of the balanced Hamiltonian
            gamma = _shift(h2[i], 2 * n)
            try:
                cands.append(_sda(a[i], s * g[i], q[i] / s, gamma))
            except np.linalg.LinAlgError:
                continue
            doubled.append(i)
        if doubled:
            sel = _rows(doubled, k)
            sols = _certified(
                a[sel], b[sel], q[sel], r[sel], g[sel],
                sigma[sel] * np.array(cands), tol, "doubling",
            )
            for i, sol in zip(doubled, sols):
                if isinstance(sol, RiccatiSolution):
                    out[i] = sol
        live = [i for i in live if out[i] is None]
    if not live:
        return out
    sel = _rows(live, k)
    cands = _sign_candidate(a[sel], b[sel], sigma[sel] * g[sel], q[sel] / sigma[sel])
    ready, ps = [], []
    for i, cand in zip(live, cands):
        if isinstance(cand, RsmLqrError):
            out[i] = cand
        else:
            ready.append(i)
            ps.append(cand)
    if not ready:
        return out
    sel = _rows(ready, k)
    p = sigma[sel] * np.array(ps)
    for i, sol in zip(ready, _certified(a[sel], b[sel], q[sel], r[sel], g[sel], p, tol, "sign")):
        out[i] = _certificate_failure(a[i], b[i], sol) if isinstance(sol, str) else sol
    return out


def _rows(members: list[int], k: int):
    """An index of ``members`` into a stack of ``k``: the whole stack as a
    view when it is every member, else their rows, copied."""
    return slice(None) if len(members) == k else np.array(members)


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

    one n x n inverse each.  ``E`` vanishes, and ``H`` converges
    quadratically, when the Hamiltonian has no eigenvalue on the imaginary
    axis.  The one stop is ``||E||_F^2 <= _SIGN_TOL``, the rule of
    ``_lyap_core``: every later increment carries ``E`` twice, so it could
    only confirm the stop.  ``G`` is updated after that test, from the old
    ``E``, so the last step forms no ``G`` that nothing reads.  The caller
    certifies the result: when ``(A, sqrt(Q))`` is not detectable the steps
    need not converge at all.

    ``gamma`` must be positive (``ValueError`` otherwise): with
    ``gamma < 0`` the steps converge, silently, to a solution that is not
    stabilizing.  Raises ``np.linalg.LinAlgError`` when ``A_g``, ``W`` or
    ``I + G H`` is singular, ``E`` or ``H`` overflows, or ``E`` has not
    vanished within ``_SDA_MAX_ITER`` steps, as on an eigenvalue on the
    imaginary axis.
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
    # iterates that overflow are a breakdown, caught by the finiteness test
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_SDA_MAX_ITER):
            # one inverse and two products: a 2n-column solve costs more
            # than both products together
            try:
                w = np.linalg.inv(eye + g_k @ h_k)
            except np.linalg.LinAlgError as exc:
                raise np.linalg.LinAlgError("doubling breakdown") from exc
            t_e = w @ e
            step = e.T @ h_k @ t_e
            step = 0.5 * (step + step.T)
            e_next = e @ t_e
            h_k = h_k + step
            e2 = float(np.vdot(e_next, e_next))
            if not math.isfinite(e2 + float(np.vdot(h_k, h_k))):
                raise np.linalg.LinAlgError("doubling breakdown")
            # every later increment carries E_k twice, so once
            # ||E_k||_F^2 <= _SIGN_TOL it could only confirm the stop
            if e2 <= _SIGN_TOL:
                return h_k
            g_k = g_k + e @ (w @ g_k) @ e.T
            g_k = 0.5 * (g_k + g_k.T)
            e = e_next
    raise np.linalg.LinAlgError(
        f"doubling did not converge in {_SDA_MAX_ITER} steps"
    )


def _sign_candidate(a, b, g, q) -> list[np.ndarray | RsmLqrError]:
    """The stabilizing solution of ``0 = -P A - A^T P - Q + P G P`` for each
    member of the stacks, read off the sign ``S`` of
    ``H = [[A, -G], [-Q, -A^T]]``: the stable invariant subspace ``[I; P]``
    is the null space of ``S + I``, so ``P`` is the least-squares solution
    of ``[S12; S22 + I] X = -[S11 + I; S21]``.  The signs are one stacked
    ``_sign_newton``; ``lstsq`` has no stacked form, so the read-out is
    member by member.  A member gets the public error of ``solve_care``
    for a stopped iteration, a stable dimension ``(2n - trace S)/2`` other
    than ``n``, or a basis of rank below ``n``; ``B`` only names an
    unreachable mode."""
    n = a.shape[1]
    ham = np.empty((len(a), 2 * n, 2 * n))
    ham[:, :n, :n] = a
    ham[:, :n, n:] = -g
    ham[:, n:, :n] = -q
    ham[:, n:, n:] = -_t(a)
    out: list = []
    for a_i, b_i, s in zip(a, b, _sign_newton(ham)):
        try:
            out.append(_read_out(a_i, b_i, s))
        except RsmLqrError as exc:
            out.append(exc)
    return out


def _read_out(a, b, s: np.ndarray | np.linalg.LinAlgError) -> np.ndarray:
    """One member's candidate from its sign ``s``, or its error from the
    ``LinAlgError`` that stopped the sign iteration."""
    n = a.shape[0]
    if isinstance(s, np.linalg.LinAlgError):
        raise _certificate_failure(
            a, b,
            f"Hamiltonian sign iteration failed ({s}); (A, B) is likely not "
            "stabilizable or the Hamiltonian spectrum touches the imaginary axis",
            NotStabilizableError,
        ) from s
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


def _certified(a, b, q, r, g, p, tol: float, method: str) -> list[RiccatiSolution | str | RsmLqrError]:
    """Polish each member's candidate ``p`` and certify it: its
    ``RiccatiSolution`` when the residual, PSD and Hurwitz certificates
    pass, else the message of the first that failed, or the error that
    stopped its polish or its eigenvalue tests.  ``g`` is
    ``B R^{-1} B^T``.  The residual and the Cholesky certificate are
    stacked; the polish, which few members need, and the eigenvalue tests
    run on a member's own slice."""
    out: list = [None] * len(p)
    # Norms whose squares overflow read as inf, which the tests reject.
    with np.errstate(over="ignore", invalid="ignore"):
        res, res_norms, solved = _riccati_residual(a, b, q, r, p)
        p, passed = p.copy(), []
        a_norms = _norms(a)
        scales = [1.0 + p_norm * a_norm for p_norm, a_norm in zip(_norms(p), a_norms)]
        for i, scale in enumerate(scales):
            if not res_norms[i] <= 0.01 * (tol * scale):
                try:
                    p[i], res_norms[i], solved[i], scale = _polish(
                        (a[i], b[i], q[i], r[i], g[i]), p[i], res[i], res_norms[i],
                        solved[i], scale, a_norms[i], tol,
                    )
                except RsmLqrError as exc:
                    out[i] = exc
                    continue
            if not res_norms[i] <= tol * scale < math.inf:  # NaN and inf fail too
                out[i] = f"Riccati residual {res_norms[i]:.3e} exceeds {tol:.1e} * {scale:.3e}"
            else:
                passed.append(i)
        if not passed:
            return out
        sel = _rows(passed, len(p))
        p, f = p[sel], -solved[sel]
        a_cl = a[sel] + b[sel] @ f
        proven = _lyapunov_certified(p, a_cl)
    for j, i in enumerate(passed):
        if proven[j]:
            out[i] = RiccatiSolution(p[j], f[j], res_norms[i], None, method, a_cl[j])
            continue
        # a singular P (a singular Q) or an M that is not safely definite
        # (an undetectable pair): the eigenvalue tests decide and name the
        # failure
        try:
            out[i] = _eigen_certified(p[j], f[j], res_norms[i], method, a_cl[j])
        except RsmLqrError as exc:
            out[i] = exc
    return out


def _polish(care, p, res, res_norm: float, solved, scale: float, a_norm: float, tol: float):
    """Newton sweeps on one member whose residual is above ``0.01 tol
    scale``: ``care`` is its ``(A, B, Q, R, G)``, and ``scale`` is
    ``1 + ||P||_F ||A||_F``.  A sweep is kept only while it lowers the
    residual, and the sweeps stop once the residual is below that bound
    again, or after ``_NEWTON_SWEEPS``.  Returns the polished
    ``(P, ||Res(P)||_F, R^{-1} B^T P, scale)``.

    In correction form, with ``Res(P)`` the residual and ``A_cl = A - G P``,
    the step ``D`` solves ``A_cl^T D + D A_cl = Res(P)``, so the Lyapunov
    solve's relative error scales the residual, not ``P``."""
    a, b, q, r, g = care
    for _ in range(_NEWTON_SWEEPS):
        try:
            p_next = p + _lyap_core(a - g @ p, -0.5 * (res + res.T))
        except NotHurwitzError:
            break
        res_next, next_norm, solved_next = _riccati_residual(
            a[None], b[None], q[None], r[None], p_next[None]
        )
        if not next_norm[0] < res_norm:  # a NaN residual fails this test too
            break
        p, res, res_norm, solved = p_next, res_next[0], next_norm[0], solved_next[0]
        scale = 1.0 + float(np.linalg.norm(p)) * a_norm
        if res_norm <= 0.01 * (tol * scale):
            break
    return p, res_norm, solved, scale


def _eigen_certified(p, f, res_norm: float, method: str, a_cl) -> RiccatiSolution | str:
    """One member's certificate by the eigenvalue tests, ``definiteness``
    of ``P`` and ``is_hurwitz`` of ``A_cl``: the solution, or the message
    of the first test that failed."""
    d = definiteness(p)
    if not d.psd:
        return (
            "computed Riccati solution is not positive semidefinite; "
            f"min eigenvalue {d.min_eigenvalue:.6e}"
        )
    hur = is_hurwitz(a_cl)
    if not hur.hurwitz:
        return (
            "computed Riccati solution is not stabilizing; closed-loop "
            f"max real part {hur.max_real_part:.6e}"
        )
    return RiccatiSolution(p, f, res_norm, hur.max_real_part, method, a_cl)


def _cholesky_rounding(x: np.ndarray) -> list[float]:
    """Twice ``(n + 1) eps sum|x_ii|`` of each member, a bound on the
    2-norm of the backward error of a Cholesky factorization of ``x`` that
    completes: ``R^T R = X + E`` with ``|E| <= gamma_(n+1) |R^T| |R|``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002,
    Thm 10.3), and ``|| |R^T| |R| ||_2 <= trace(R^T R)``.  The factor two
    covers the rounding of the shift and of ``gamma``."""
    n = x.shape[-1]
    diagonals = np.abs(x.diagonal(0, -2, -1))
    return [2.0 * (n + 1) * _EPS * float(d.sum()) for d in diagonals]


def _lyapunov_certified(p: np.ndarray, a_cl: np.ndarray) -> list[bool]:
    """Whether two Cholesky factorizations prove each member's symmetric
    ``P`` PD and ``A_cl`` Hurwitz; ``False`` leaves the verdict to the
    eigenvalue tests.

    With ``M = -(A_cl^T P + P A_cl)``, ``P > 0`` and ``M > 0`` make
    ``A_cl`` Hurwitz: an eigenpair ``A_cl v = lambda v`` gives
    ``2 Re(lambda) v^* P v = -v^* M v < 0``.  For the Riccati solution
    ``M = Q + P G P + Res(P)``.  Each factorization is of the matrix less a
    shift that bounds its rounding, so success proves definiteness of the
    exact matrix:

    - ``P - delta_P I`` with ``delta_P`` the Cholesky bound
      ``_cholesky_rounding(P)``;
    - ``M - delta_M I`` with ``delta_M`` that bound for ``M`` plus
      ``2 n eps ||P||_F ||A_cl||_F + eps ||M||_F``, the rounding in forming
      ``M`` from the product ``P A_cl``.

    ``P > 0`` also passes the PSD test at any cut, so this is never more
    lenient than the eigenvalue tests.  The factorizations are stacked, and
    a member's shifts are its own."""
    k, n = p.shape[:2]
    if n == 0:
        return [True] * k
    eye = np.eye(n)
    pa = p @ a_cl
    m = -(pa + _t(pa))
    delta_m = [
        c + _EPS * (2.0 * n * p_norm * a_norm + m_norm)
        for c, p_norm, a_norm, m_norm in zip(
            _cholesky_rounding(m), _norms(p), _norms(a_cl), _norms(m)
        )
    ]
    # a norm whose square overflows leaves no shift, and no proof
    finite = [math.isfinite(d) for d in delta_m]
    delta_m = np.array([d if ok else 0.0 for d, ok in zip(delta_m, finite)])
    delta_p = np.array(_cholesky_rounding(p))
    _, p_failed = _each(np.linalg.cholesky, p - delta_p[:, None, None] * eye)
    _, m_failed = _each(np.linalg.cholesky, m - delta_m[:, None, None] * eye)
    return [
        ok and fp is None and fm is None
        for ok, fp, fm in zip(finite, p_failed, m_failed)
    ]


def rectangular_riccati_residual(a_s, b_s, k, q_c, r_s, x) -> tuple[np.ndarray, float]:
    """Residual of the rectangular composite Riccati equation and its
    Frobenius norm; ``care_residual`` is its ``K = I``, ``X = P`` case.

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
    res, norms, _ = _riccati_residual(
        (a_arr @ k_arr)[None], b_arr[None], q_arr[None], r_arr[None], x_arr[None]
    )
    return res[0], norms[0]
