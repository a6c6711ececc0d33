"""LQR synthesis and the compositionality decision machinery.

Gain convention: controllers are written ``u = F x``, so the optimal gain
is ``F = -R^{-1} B^T P`` and closed loops are ``A + B F``.

Given two weighted subsystems and a sharing pattern, there are two designs
on the composite: the *direct* one, synthesized on the reduced composite
system, and the *composed* one, obtained by pushing the subsystem gains
through the coupling matrix K.  Whether they coincide is decided three
ways:

  exact       P_s K = K P_c, where P_s = blockdiag(P1, P2).  Necessary and
              sufficient, so it is the verdict.
  necessary   P_s K K^T symmetric PSD.  Failure proves the designs differ;
              passing alone proves nothing.
  sufficient  the necessary condition plus controllability of
              (A_s K K^T, B_s), of the rank of the paper's
              (A_s K K^T, B_s R_s^{-1/2}) since R_s^{-1/2} is invertible,
              and observability of (A_s K K^T, D) with D^T D = K Q_c K^T.
              Success proves the designs coincide; failure alone proves
              nothing.

The observability half is computed on the composite pair.  With
``D = F K^T`` and ``F^T F = Q_c``, ``D (A_s K K^T)^j = F A_c^j K^T``, so
the observability matrix of the stacked pair is that of ``(A_c, F)``
times ``K^T``: its rank is that of the c x c pair, at most ``c = s - k``
for ``k`` shared states.  The stacked staircase would count rounding
error along ``ker K^T``, which no output sees, into that rank.  The rank
is still required to reach the stacked order ``s``, so the sufficient
test cannot predict once any state is shared.

Both rank tests run Paige's orthogonal controllability staircase
(``matkit.is_controllable``; observability through the dual pair), which
keeps full rank at the composite orders where the columns of the Kalman
matrix lose it, from about 40 on.  It scales ``A`` and the input matrix
each to unit Frobenius norm and cuts at ``max(n, m) * eps * ||[A, B]||_F``
of the scaled pair, so the verdicts do not depend on the units of ``Q``
and ``R``; each ``RankTest.margin`` is the smallest singular value the
staircase kept, at most 1.

One pipeline designs every instance.  ``_design_chunk`` composes a chunk
of trusted instances and solves their CAREs on a batch axis, and
``_evaluate_chunk`` checks what it designed.  ``design_composition`` and
``evaluate_composition`` run them on a chunk of one, after the boundary
checks (the pattern, then the pairing of each weight, then ``x0``), and
``counterexample_search`` on its chunks of sampled trials.
``lqr_subsystem``, ``lqr_composite``, the ``check_*_condition`` gates and
``compare_gains`` validate their arguments and serve one instance as
library API; the pipeline calls none of them.

The three verdicts must be mutually consistent (sufficient-pass implies
exact, exact implies necessary-pass); a violation raises
``InconsistencyError`` rather than producing a quietly contradictory
report.

The direct design of a compositional instance is certified, not solved.
``X = P_s K`` always solves the rectangular Riccati equation (its residual
is ``K^T Res_s(P_s) K + K^T Q_s K - Q_c = 0``), and ``X = K P`` solves it
if and only if ``P`` solves the composite CARE.  ``K`` has one 1 per row,
so ``K^T K`` is diagonal, 1 at an unshared composite state and 2 at a
shared one, and when ``P_s K = K P`` holds at all it holds for
``P = (K^T K)^{-1} K^T P_s K``: that candidate then solves the composite
CARE.  ``_design_chunk`` forms it and screens it (the rows of ``P_s K``
at each junction agree to ``RTOL``), and a candidate that passes is the
first rung of the composite CARE's candidate ladder in
``riccati._solve_care_stack``: the CARE's own certificate, the residual
after the polish, ``P`` PSD and a Hurwitz closed loop.  That certificate is
the licence.  A stabilizing solution is unique, so a certified candidate is
the composite's solution whether or not ``(A_c, sqrt(Q_c))`` is
detectable, and the direct design takes it with ``method = "composed"``.
A candidate that fails the screen never reaches the certificate, and one
that fails the certificate leaves the CARE to the next rungs, the doubling
and the sign candidates.  The screen decides no verdict: the exact test
still compares ``P_s K`` with ``K P_c`` at ``tol``.  At ``k = 0`` the
candidate is ``blockdiag(P1, P2)`` bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from . import sim
from .errors import (
    DetectabilityWarning,
    InconsistencyError,
    InvalidArgumentError,
    InvalidMatrixError,
    NotHurwitzError,
    NotStabilizableError,
    NumericalFailureError,
    RsmLqrError,
)
# The pipeline calls private kernels on trusted arrays (the rank tests go
# straight to _staircase, the necessary test to _definiteness_stack);
# solve_care, rectangular_riccati_residual, is_controllable, is_observable,
# compose_cost, compose_gains, definiteness and require_matrix stay
# importable from here only because perfbench's tracer wraps them under
# these names.
from .matkit import (
    RTOL,
    Definiteness,
    RankTest,
    _alone,
    _definiteness_stack,
    _pbh_unreachable,
    _staircase,
    _t,
    _weight_gate,
    block_diag,
    conform,
    definiteness,
    is_controllable,
    is_observable,
    psd_sqrt_factor,
    require_definite,
    require_matrix,
)
from .riccati import (
    RiccatiSolution,
    _riccati_residual,
    _solve_care,
    _solve_care_stack,
    rectangular_riccati_residual,
    solve_care,
)
from .rsm import (
    CompositeSystem,
    CompositionPattern,
    CostWeights,
    LinearSystem,
    _compose_cost,
    _integer,
    _require_fits,
    _trusted,
    compose_cost,
    compose_gains,
    compose_open_loop,
)

DEFAULT_TOL = 1e-8


def _is_real(value) -> bool:
    """Whether ``value`` is a real number, not NaN: a number ``math``
    accepts, such as a ``float`` or an ``np.float64``, but not a ``bool``."""
    try:
        return not isinstance(value, bool) and not math.isnan(value)
    except TypeError:
        return False


def _require_tol(tol: float) -> float:
    """``tol`` if it is a positive finite real number, else
    ``InvalidArgumentError``."""
    if not (_is_real(tol) and tol > 0.0 and math.isfinite(tol)):
        raise InvalidArgumentError(f"tolerance must be positive and finite, got {tol!r}")
    return tol


@dataclass(frozen=True)
class LQRDesign:
    """A synthesized controller: Riccati certificate and diagnostics."""

    solution: RiccatiSolution
    notes: tuple[str, ...] = ()

    @property
    def P(self) -> np.ndarray:
        return self.solution.P

    @property
    def F(self) -> np.ndarray:
        return self.solution.F


class DeviationCheck(NamedTuple):
    """Max-abs entrywise deviation between two matrices that should agree,
    with the relative form ``deviation / (1 + max entry magnitude)``."""

    deviation: float
    deviation_rel: float
    equivalent: bool


class NecessaryCheck(NamedTuple):
    symmetric: bool
    psd: bool
    min_eigenvalue: float

    @property
    def passes(self) -> bool:
        return self.symmetric and self.psd


class SufficientCheck(NamedTuple):
    hypothesis_ok: bool
    controllability: RankTest
    observability: RankTest

    @property
    def predicts_compositional(self) -> bool:
        return (
            self.hypothesis_ok
            and self.controllability.ok
            and self.observability.ok
        )


@dataclass(frozen=True)
class CompositionalityReport:
    """Everything the checks produced for one composition instance."""

    exact: DeviationCheck
    necessary: NecessaryCheck
    sufficient: SufficientCheck
    gains: DeviationCheck
    rect_residual_stacked: float
    rect_residual_composite: float
    gap: sim.GapResult | None
    notes: tuple[str, ...]

    @property
    def compositional(self) -> bool:
        return self.exact.equivalent


@dataclass(frozen=True)
class CompositionDesign:
    """Composite model, cost weights, all three designs and the composed gain."""

    composite: CompositeSystem
    Q: np.ndarray
    R: np.ndarray
    design1: LQRDesign
    design2: LQRDesign
    direct: LQRDesign
    F_composed: np.ndarray

    @property
    def notes(self) -> tuple[str, ...]:
        return self.design1.notes + self.design2.notes + self.direct.notes


@dataclass(frozen=True)
class CompositionAnalysis(CompositionDesign):
    """The designs, the stacked Riccati solution, and the report over them."""

    P_stacked: np.ndarray
    report: CompositionalityReport


def _design(a, b, q, r, label: str, q_pd: bool, solution=None) -> LQRDesign:
    """Shared synthesis for arrays the callers have already validated;
    ``q_pd`` is the weight gate's verdict that ``Q`` is PD.  ``solution``
    is the CARE's member of a stacked solve when the caller made one: a
    ``RiccatiSolution``, or the error ``_solve_care`` would have raised,
    which is raised here, after the detectability check, as it would be.

    Detectability: every eigenvalue with ``Re >= -RTOL (1 + max|A|)`` must
    be observable through ``sqrt(Q)``, the PBH test of the dual pair
    ``(A^T, sqrt(Q)^T)``.  A PD ``Q`` makes every mode observable, so the
    PBH eigenvalues are computed only for a singular ``Q``, and ``Q`` is
    factored only when there is such an eigenvalue."""
    notes: tuple[str, ...] = ()
    if not q_pd and _pbh_unreachable(a.T, lambda: psd_sqrt_factor(q).T) is not None:
        msg = (
            f"{label}: (A, sqrt(Q)) is not detectable; the stabilizing "
            "solution, if it exists, may not be the optimum"
        )
        warnings.warn(msg, DetectabilityWarning, stacklevel=3)
        notes = (msg,)
    if solution is None:
        solution = _solve_care(a, b, q, r)
    elif isinstance(solution, RsmLqrError):
        raise solution
    return LQRDesign(solution=solution, notes=notes)


def _require_paired(weights: CostWeights, n: int, m: int, label: str):
    """The pairing rule of a design: ``Q`` is n x n and ``R`` is m x m for
    the system named ``label``, else ``ShapeError``."""
    conform(
        (weights.Q, f"{label}: state weight Q", n, n),
        (weights.R, f"{label}: input weight R", m, m),
    )


def lqr_subsystem(system: LinearSystem, weights: CostWeights) -> LQRDesign:
    """Optimal state feedback for one subsystem."""
    _require_paired(weights, system.n, system.m, system.name)
    return _design(
        system.A, system.B, weights.Q, weights.R, system.name, weights.q_pd
    )


def lqr_composite(composite: CompositeSystem, q, r) -> LQRDesign:
    """Optimal state feedback synthesized directly on the composite; ``q``
    and ``r`` are checked as a ``CostWeights`` pair."""
    weights = CostWeights(*conform(
        (q, "composite state weight", composite.n, composite.n),
        (r, "composite input weight", composite.m, composite.m),
    ))
    return _design(
        composite.A, composite.B, weights.Q, weights.R, "composite", weights.q_pd
    )


def _deviation(lhs: np.ndarray, rhs: np.ndarray, tol: float) -> list[DeviationCheck]:
    """The ``DeviationCheck`` of each member of two stacks; a maximum over a
    member is exact, so a member's check does not depend on its stack."""
    diff = np.abs(lhs - rhs).max(axis=(1, 2), initial=0.0).tolist()
    peaks = np.maximum(
        np.abs(lhs).max(axis=(1, 2), initial=0.0), np.abs(rhs).max(axis=(1, 2), initial=0.0)
    )
    return [
        DeviationCheck(d, d / scale, d <= tol * scale)
        for d, scale in zip(diff, (1.0 + peaks).tolist())
    ]


def check_exact_condition(p_stacked, coupling, p_composite, tol: float = DEFAULT_TOL) -> DeviationCheck:
    """The decisive test: does ``P_s K = K P_c`` hold?

    The deviation is the max-abs entry of ``P_s K - K P_c``; equivalence
    means it stays within ``tol * (1 + max entry magnitude)``.
    """
    p_s, kmat, p_c = conform(
        (p_stacked, "stacked Riccati solution", "s", "s"),
        (coupling, "coupling matrix", "s", "c"),
        (p_composite, "composite Riccati solution", "c", "c"),
    )
    return _exact_check(p_s[None], kmat[None], p_c[None], _require_tol(tol))[0][0]


def _exact_check(p_s, kmat, p_c, tol: float) -> tuple[list[DeviationCheck], np.ndarray]:
    """The body of ``check_exact_condition`` on stacks of ``k`` trusted
    arrays: each member's check, and the products ``P_s K`` and ``K P_c``
    as one stack of ``2k``, which the rectangular residuals reuse."""
    k = len(p_s)
    x = np.empty((2 * k,) + kmat.shape[1:])
    p_k = np.matmul(p_s, kmat, out=x[:k])
    k_p = np.matmul(kmat, p_c, out=x[k:])
    return _deviation(p_k, k_p, tol), x


def check_necessary_condition(p_stacked, coupling, tol: float = DEFAULT_TOL) -> NecessaryCheck:
    """Failure of ``P_s K K^T`` to be symmetric PSD rules equivalence out."""
    p_s, kmat = conform(
        (p_stacked, "stacked Riccati solution", "s", "s"),
        (coupling, "coupling matrix", "s", "c"),
    )
    return _alone(_necessary_check((p_s @ kmat @ kmat.T)[None], _require_tol(tol)))


def _necessary_check(p_kk: np.ndarray, tol: float) -> list[NecessaryCheck | RsmLqrError]:
    """The body of ``check_necessary_condition`` on a stack of ``P_s K K^T``:
    each member's check, or the error ``definiteness`` raises for it."""
    out = []
    for d in _definiteness_stack(p_kk, tol)[2]:
        if d is None:
            d = InvalidMatrixError("definiteness input contains non-finite entries")
        elif isinstance(d, Definiteness):
            d = NecessaryCheck(d.symmetric, d.psd, d.min_eigenvalue)
        out.append(d)
    return out


def check_sufficient_condition(
    a_stacked, b_stacked, coupling, q_composite, r_stacked, p_stacked,
    tol: float = DEFAULT_TOL,
) -> SufficientCheck:
    """Success here proves the two designs coincide.

    Hypotheses checked: ``P_s K K^T`` symmetric PSD (the necessary
    condition), controllability of ``(A_s K K^T, B_s)``, which has the rank
    of the paper's ``(A_s K K^T, B_s R_s^{-1/2})`` because ``R_s^{-1/2}``
    is invertible, and observability of ``(A_s K K^T, D)`` with ``D^T D =
    K Q_c K^T``.  Failure is recorded but proves nothing on its own; the
    caller falls back to the exact test.  ``Q_c`` must be symmetric
    positive semidefinite and ``R_s`` symmetric positive definite, as the
    theorem assumes, by the weight gate ``require_definite``
    (``NotSymmetricError``, ``NotPSDError`` or ``NotPDError`` otherwise).
    """
    a_s, b_s, kmat, q_c, r_s, p_s = conform(
        (a_stacked, "stacked state matrix", "s", "s"),
        (b_stacked, "stacked input matrix", "s", "m"),
        (coupling, "coupling matrix", "s", "c"),
        (q_composite, "composite state weight", "c", "c"),
        (r_stacked, "stacked input weight", "m", "m"),
        (p_stacked, "stacked Riccati solution", "s", "s"),
    )
    q_c, q_def = require_definite(q_c, "composite state weight")
    require_definite(r_s, "stacked input weight", pd=True)
    hypothesis = _alone(_necessary_check((p_s @ kmat @ kmat.T)[None], _require_tol(tol)))
    return _sufficient_check(
        a_s @ kmat @ kmat.T, b_s, kmat.T @ a_s @ kmat, q_c, q_def.pd, hypothesis
    )


def _sufficient_check(
    a_kk, b_s, a_c, q_c, q_pd: bool, hypothesis: NecessaryCheck
) -> SufficientCheck:
    """The body of ``check_sufficient_condition`` on trusted arrays
    ``A_s K K^T``, ``B_s``, ``A_c = K^T A_s K`` and ``Q_c``, reusing the
    necessary check already computed for the same ``P_s`` and ``K``;
    ``q_pd`` is the weight gates' verdict that ``Q_c`` is PD."""
    ctrb = _staircase(a_kk, b_s)
    # the observability matrix of (A_s K K^T, F K^T) is that of (A_c, F)
    # times K^T, so its rank is that of the c x c pair's
    obsv = _staircase(a_c.T, _weight_factor(q_c, q_pd))
    obsv = obsv._replace(ok=obsv.rank == a_kk.shape[0], required=a_kk.shape[0])
    return SufficientCheck(
        hypothesis_ok=hypothesis.passes,
        controllability=ctrb,
        observability=obsv,
    )


def _weight_factor(q_c: np.ndarray, q_pd: bool) -> np.ndarray:
    """``L`` with ``L L^T = Q_c``: the Cholesky factor when the weight gates
    found ``Q_c`` PD, else ``psd_sqrt_factor(Q_c)^T``.  Any two full-rank
    factors differ by an orthogonal mix of their columns, so the staircase
    reads the same rank and margin off either, up to round-off."""
    if q_pd:
        try:
            return np.linalg.cholesky(q_c)
        except np.linalg.LinAlgError:
            pass
    return psd_sqrt_factor(q_c).T


def compare_gains(f_direct, f_composed, tol: float = DEFAULT_TOL) -> DeviationCheck:
    """Entrywise comparison of the direct and composed feedback gains."""
    fd, fc = conform(
        (f_direct, "direct gain", "m", "n"), (f_composed, "composed gain", "m", "n")
    )
    return _deviation(fd[None], fc[None], _require_tol(tol))[0]


def design_composition(
    sys1: LinearSystem,
    sys2: LinearSystem,
    pattern: CompositionPattern,
    weights1: CostWeights,
    weights2: CostWeights,
) -> CompositionDesign:
    """Compose, then synthesize the two subsystem designs and the direct
    one, and push the subsystem gains through the coupling; no check runs.
    It is ``_design_chunk`` on the chunk of one that passed the boundary
    checks (``_boundary``)."""
    return _alone(_design_chunk(_boundary(sys1, sys2, pattern, weights1, weights2)))


def evaluate_composition(
    sys1: LinearSystem,
    sys2: LinearSystem,
    pattern: CompositionPattern,
    weights1: CostWeights,
    weights2: CostWeights,
    tol: float = DEFAULT_TOL,
    x0=None,
) -> CompositionAnalysis:
    """Run the full pipeline: ``design_composition``, then every check.

    With ``x0`` given, the composed-vs-direct cost gap from that initial
    state is attached to the report.  Raises ``InconsistencyError`` when
    the check verdicts contradict each other, since that can only mean a
    broken invariant.
    """
    tol = _require_tol(tol)
    return _alone(_evaluate_chunk(_boundary(sys1, sys2, pattern, weights1, weights2, x0), tol, x0))


def _boundary(sys1, sys2, pattern, weights1, weights2, x0=None) -> list[tuple]:
    """The chunk of one of the arguments of a design entry, once they pass
    its boundary checks: the pattern fits the subsystems, then each weight
    pairs with its subsystem, else ``ShapeError``, then ``x0``, when given,
    holds one finite real per composite state (``ShapeError`` or
    ``InvalidMatrixError``).  All run before any CARE is solved, so a bad
    argument is never reported as a solver error."""
    _require_fits(sys1, sys2, pattern)
    for system, weights in ((sys1, weights1), (sys2, weights2)):
        _require_paired(weights, system.n, system.m, system.name)
    if x0 is not None:
        conform((x0, "initial state", sys1.n + sys2.n - pattern.k_shared))
    return [(sys1, sys2, pattern, weights1, weights2)]


def _design_chunk(instances: list[tuple]) -> list[CompositionDesign | RsmLqrError]:
    """The one design pipeline: for each trusted ``(sys1, sys2, pattern,
    weights1, weights2)``, its ``CompositionDesign`` or the error
    ``design_composition`` raises for it alone, in order.

    Each instance is composed once.  The CAREs are solved in two rounds,
    each one stacked solve (``riccati._solve_care_stack``) per shape
    ``(n, m)``: first the subsystems', then the composite CAREs of the
    instances whose two designs succeeded.  Each composite CARE takes its
    composed candidate, or ``None`` when the candidate fails the screen
    (``_composed_candidates``, stacked per shape ``(s, m, c)``), as the
    first rung of its ladder, so a compositional instance is settled inside
    the composite round's stacked solve and reaches no CARE kernel.  The
    direct design trusts the composite weights, and ``Q_c`` as
    PD when both ``Q``s are.  Every stacked LAPACK and BLAS call computes
    each member as it computes one matrix, and every reduction (norms,
    maxima, the sign step's scale) is taken per member, so an instance
    gets bit for bit the designs it gets in a chunk of one.  A member that
    fails gets its own error and leaves the rest of its stack as it is; an
    instance's error is the first of design 1, design 2 and the direct
    design, in that order."""
    composed, cares = [], []
    for sys1, sys2, pattern, w1, w2 in instances:
        composite = compose_open_loop(sys1, sys2, pattern)
        composed.append((composite, *_compose_cost(w1, w2, composite.coupling)))
        cares += [(sys1.A, sys1.B, w1.Q, w1.R), (sys2.A, sys2.B, w2.Q, w2.R)]
    solutions = _solve_by_shape(cares)
    out: list = []
    for (sys1, sys2, _, w1, w2), sol1, sol2 in zip(instances, solutions[::2], solutions[1::2]):
        try:
            out.append((
                _design(sys1.A, sys1.B, w1.Q, w1.R, sys1.name, w1.q_pd, sol1),
                _design(sys2.A, sys2.B, w2.Q, w2.R, sys2.name, w2.q_pd, sol2),
            ))
        except RsmLqrError as exc:
            out.append(exc)
    pending = [i for i, o in enumerate(out) if isinstance(o, tuple)]
    members = [composed[i][:3] + out[i] for i in pending]
    candidates = _by_key(
        members,
        lambda member: member[0].B_stacked.shape + (member[0].n,),
        lambda group: _composed_candidates([members[j] for j in group]),
    )
    direct = _solve_by_shape([(c.A, c.B, q_c, r_c) for c, q_c, r_c, *_ in members], candidates)
    for i, sol in zip(pending, direct):
        composite, q_c, r_c, q_pd = composed[i]
        design1, design2 = out[i]
        try:
            out[i] = CompositionDesign(
                composite=composite,
                Q=q_c,
                R=r_c,
                design1=design1,
                design2=design2,
                direct=_design(composite.A, composite.B, q_c, r_c, "composite", q_pd, sol),
                F_composed=block_diag(design1.F, design2.F) @ composite.coupling,
            )
        except RsmLqrError as exc:
            out[i] = exc
    return out


def _evaluate_chunk(instances: list[tuple], tol: float, x0=None) -> list[CompositionAnalysis | RsmLqrError]:
    """``_design_chunk``, then every check (``_analyse``) on the instances it
    designed: each instance's analysis, or the error ``evaluate_composition``
    raises for it alone, in order."""
    out = _design_chunk(instances)
    designed = [i for i, o in enumerate(out) if isinstance(o, CompositionDesign)]
    # PD weights give a PD Q_c, as _compose_cost records for the direct design
    q_pds = [instances[i][3].q_pd and instances[i][4].q_pd for i in designed]
    for i, analysis in zip(designed, _analyse([out[i] for i in designed], q_pds, tol, x0)):
        out[i] = analysis
    return out


def _composed_candidates(group: list[tuple]) -> list[np.ndarray | None]:
    """For each ``(composite, Q_c, R_c, design1, design2)`` of one shape
    ``(s, m, c)``, the composed candidate for its composite CARE, or
    ``None`` when it fails the screen.

    With ``X = P_s K``, the candidate is ``P = (K^T K)^{-1} K^T X``,
    symmetrized; ``K^T K`` is diagonal with entries 1 and 2.  The screen
    asks ``max|X - K P| <= RTOL (1 + max|X|)``: the stacked rows of ``X``
    at each junction agree.  Only a member that passes reaches the
    certificate, the composed rung of ``riccati._solve_care_stack``, so a
    member that fails the screen is never polished.  The products are
    stacked and each member's maxima are its own, so a member gets bit for
    bit the candidate it gets alone."""
    kmat = _stack([member[0].coupling for member in group])
    x = _stack([block_diag(d1.P, d2.P) for *_, d1, d2 in group]) @ kmat
    p = (_t(kmat) @ x) / kmat.sum(axis=1)[:, :, None]
    p = 0.5 * (p + _t(p))
    misfit = np.abs(x - kmat @ p).max(axis=(1, 2), initial=0.0).tolist()
    peaks = np.abs(x).max(axis=(1, 2), initial=0.0).tolist()
    return [
        p_i if d <= RTOL * (1.0 + peak) else None for p_i, d, peak in zip(p, misfit, peaks)
    ]


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays as one stack: a view of a lone array, else a copy."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def _analyse(
    designs: list[CompositionDesign], q_pds: list[bool], tol: float, x0=None
) -> list[CompositionAnalysis | RsmLqrError]:
    """Every check of ``evaluate_composition`` on each design: its analysis,
    or the error ``evaluate_composition`` raises for it alone.  ``q_pds[i]``
    is the weight gates' verdict that design ``i``'s ``Q_c`` is PD; with
    ``x0`` each report carries the cost gap from ``x0``.

    The designs are grouped by shape ``(s, m, c)``, and each group makes one
    stacked call for the exact test (``P_s K`` against ``K P_c``), one for
    the gains and one for both rectangular residuals; the necessary test's
    eigenvalues are one stacked call per ``s``.  Every reduction is taken
    per member (maxima, and norms by ``_sq_norms``) and the staircases run
    per member, so each design gets bit for bit the analysis it gets alone."""
    rows = _by_key(
        designs,
        lambda d: d.composite.B_stacked.shape + (d.composite.n,),
        lambda members: _shape_group([designs[i] for i in members], tol),
    )
    necessary = _by_key(
        rows,
        lambda row: row[-1].shape[0],
        lambda members: _necessary_check(_stack([rows[i][-1] for i in members]), tol),
    )
    out: list = []
    for design, q_pd, (p_stacked, exact, gains, rect, a_kk, _), hypothesis in zip(
        designs, q_pds, rows, necessary
    ):
        if not isinstance(hypothesis, NecessaryCheck):
            out.append(hypothesis)
            continue
        try:
            sufficient = _sufficient_check(
                a_kk, design.composite.B_stacked, design.composite.A, design.Q, q_pd, hypothesis
            )
            out.append(_conclude(
                design, p_stacked, exact, hypothesis, sufficient, gains, rect, x0
            ))
        except RsmLqrError as exc:
            out.append(exc)
    return out


def _shape_group(group: list[CompositionDesign], tol: float) -> list[tuple]:
    """One stacked call each for the exact test (``P_s K`` against ``K P_c``),
    the gains and both rectangular residuals of designs of one shape, with
    ``A_s K K^T`` and ``P_s K K^T``: each member's row for ``_analyse``.
    Its stacks, the doubled ones of the residuals too, are freed when it
    returns, before the staircases run."""
    k = len(group)
    kmat = _stack([d.composite.coupling for d in group])
    p_s = _stack([block_diag(d.design1.P, d.design2.P) for d in group])
    exact, x = _exact_check(p_s, kmat, _stack([d.direct.P for d in group]), tol)
    gains = _deviation(
        _stack([d.direct.F for d in group]), _stack([d.F_composed for d in group]), tol
    )
    a_k = _stack([d.composite.A_stacked for d in group]) @ kmat
    # the rectangular residuals of X = P_s K and X = K P_c in one call
    twice = [
        np.concatenate([y, y])
        for y in (a_k, _stack([d.composite.B_stacked for d in group]),
                  _stack([d.Q for d in group]), _stack([d.R for d in group]))
    ]
    norms = _riccati_residual(*twice, x)[1]
    kt = _t(kmat)
    return list(zip(
        p_s, exact, gains, zip(norms[:k], norms[k:]), a_k @ kt, x[:k] @ kt
    ))


def _conclude(design, p_stacked, exact, necessary, sufficient, gains, rect, x0) -> CompositionAnalysis:
    """One design's analysis from its checks: the gap from ``x0`` when it
    is given, then the guards that raise ``InconsistencyError`` when the
    verdicts contradict each other."""
    gap = None
    if x0 is not None:
        gap = sim.optimality_gap(
            design.composite, design.Q, design.R, design.F_composed,
            design.direct.solution, x0,
        )

    if sufficient.predicts_compositional and not exact.equivalent:
        raise InconsistencyError(
            "sufficient condition predicts equivalent designs but the exact "
            f"test measured deviation {exact.deviation:.6e} "
            f"(relative {exact.deviation_rel:.6e})"
        )
    if exact.equivalent and not necessary.passes:
        raise InconsistencyError(
            "exact test passed but the necessary condition failed "
            f"(symmetric={necessary.symmetric}, psd={necessary.psd}, "
            f"min eigenvalue {necessary.min_eigenvalue:.6e})"
        )

    report = CompositionalityReport(
        exact=exact,
        necessary=necessary,
        sufficient=sufficient,
        gains=gains,
        rect_residual_stacked=rect[0],
        rect_residual_composite=rect[1],
        gap=gap,
        notes=design.notes,
    )
    return CompositionAnalysis(**vars(design), P_stacked=p_stacked, report=report)


# The least value at which each sampler range may start: a subsystem has a
# state and an input, and it may share no state.
_RANGE_FLOORS = {"n_range": 1, "m_range": 1, "k_range": 0}


def _require_range(value, name: str) -> tuple[int, int]:
    """``value`` as the integer pair ``(lo, hi)`` of the sampler range
    ``name``, with ``_RANGE_FLOORS[name] <= lo <= hi``; else
    ``InvalidArgumentError`` naming the range."""
    try:
        lo, hi = value
    except (TypeError, ValueError):
        raise InvalidArgumentError(f"{name} must be a pair (lo, hi)") from None
    lo = _integer(lo, f"{name}[0]", InvalidArgumentError)
    hi = _integer(hi, f"{name}[1]", InvalidArgumentError)
    if lo > hi:
        raise InvalidArgumentError(f"{name} has lo > hi: ({lo}, {hi})")
    if lo < _RANGE_FLOORS[name]:
        raise InvalidArgumentError(
            f"{name} must start at {_RANGE_FLOORS[name]} or more, got ({lo}, {hi})"
        )
    return lo, hi


@dataclass(frozen=True)
class SearchConfig:
    """Random search over composition instances for non-compositional ones."""

    n_range: tuple[int, int] = (1, 3)
    m_range: tuple[int, int] = (1, 2)
    k_range: tuple[int, int] = (0, 2)
    trials: int = 100
    seed: int = 0
    deviation_threshold: float = 1e-2

    def __post_init__(self):
        for name in _RANGE_FLOORS:
            object.__setattr__(self, name, _require_range(getattr(self, name), name))
        for name in ("trials", "seed"):
            value = _integer(getattr(self, name), name, InvalidArgumentError)
            if value < 0:
                raise InvalidArgumentError(f"{name} must be nonnegative, got {value}")
            object.__setattr__(self, name, value)
        threshold = self.deviation_threshold
        if not _is_real(threshold):
            raise InvalidArgumentError(
                f"deviation_threshold must be a real number, not NaN, got {threshold!r}"
            )


@dataclass(frozen=True)
class FoundInstance:
    trial: int
    system1: LinearSystem
    system2: LinearSystem
    pattern: CompositionPattern
    weights1: CostWeights
    weights2: CostWeights
    deviation: float
    report: CompositionalityReport


@dataclass(frozen=True)
class SearchResult:
    found: tuple[FoundInstance, ...]
    trials: int
    skipped: int


def sample_instance(
    rng: np.random.Generator,
    n_range: tuple[int, int] = SearchConfig.n_range,
    m_range: tuple[int, int] = SearchConfig.m_range,
    k_range: tuple[int, int] = SearchConfig.k_range,
):
    """Draw one random composition instance; ranges default to SearchConfig's.

    Stability is forced by shifting sampled state matrices left of
    ``Re = -0.5``; weights are Gram matrices plus ``0.1 I`` so they are
    safely definite.  Input entries are drawn from ``uniform(-1, 1)``.
    Returns ``(sys1, sys2, pattern, weights1, weights2)``.  It is the chunk
    of one of the search's sampler.  The ranges follow ``SearchConfig``'s
    rules, else ``InvalidArgumentError`` names the range.
    """
    ranges = (
        _require_range(value, name)
        for value, name in zip((n_range, m_range, k_range), _RANGE_FLOORS)
    )
    return _sample_chunk(rng, 1, *ranges)[0]


def _sample_chunk(rng: np.random.Generator, count: int, n_range, m_range, k_range) -> list[tuple]:
    """``count`` instances of ``sample_instance``, drawn one trial after
    another in its random order: the sizes, ``A1``, ``B1``, ``A2``, ``B2``,
    the Gram factors of ``Q1``, ``R1``, ``Q2`` and ``R2``, the number of
    shared states and the two index choices.  The stability shift, which
    draws nothing, takes one stacked ``eigvals`` per subsystem order, and
    the weights pass one stacked weight gate (``matkit._weight_gate``) per
    order.  A stacked call computes each member as it computes that member
    alone, so an instance does not depend on ``count``.  The ranges have
    passed ``_require_range``, so every system has a state and an input;
    the gated weights, and the systems once their stacks are finite, are
    built without their gates running again."""
    drawn, inputs, grams, patterns = [], [], [], []
    for _ in range(count):
        n1, n2, m1, m2 = (
            int(rng.integers(lo, hi + 1)) for lo, hi in (n_range, n_range, m_range, m_range)
        )
        for n, m in ((n1, m1), (n2, m2)):
            drawn.append(rng.uniform(-2.0, 2.0, size=(n, n)))
            inputs.append(rng.uniform(-1.0, 1.0, size=(n, m)))
        grams += [rng.standard_normal((d, d)) for d in (n1, m1, n2, m2)]
        hi = min(k_range[1], n1, n2)
        lo = min(k_range[0], hi)
        k = int(rng.integers(lo, hi + 1))
        first = rng.choice(n1, size=k, replace=False).tolist()
        second = rng.choice(n2, size=k, replace=False).tolist()
        patterns.append((n1, n2, tuple(zip(first, second))))

    def gate(members):
        # the Gram factors alternate between a Q's and an R's
        g = np.array([grams[i] for i in members])
        return zip(*_weight_gate(
            _t(g) @ g + 0.1 * np.eye(g.shape[1]), [_WEIGHT_RULES[i % 2] for i in members]
        ))

    states = _by_key(
        drawn, _order, lambda members: _shifted(np.array([drawn[i] for i in members]))
    )
    weights = _by_key(grams, _order, gate)
    trusted = np.isfinite(np.concatenate([x.ravel() for x in states + inputs])).all()
    system = partial(_trusted, LinearSystem) if trusted else LinearSystem
    out = []
    for t, (n1, n2, pairs) in enumerate(patterns):
        sys1 = system(name="sub1", A=states[2 * t], B=inputs[2 * t])
        sys2 = system(name="sub2", A=states[2 * t + 1], B=inputs[2 * t + 1])
        gated = weights[4 * t:4 * t + 4]
        for _, verdict in gated:
            if not isinstance(verdict, Definiteness):
                raise verdict
        w1, w2 = (
            _trusted(CostWeights, Q=q, R=r, q_pd=q_verdict.pd)
            for (q, q_verdict), (r, _) in (gated[:2], gated[2:])
        )
        out.append((sys1, sys2, CompositionPattern(n1, n2, pairs), w1, w2))
    return out


def _order(x: np.ndarray) -> int:
    """The order of a square matrix, the key its stack is grouped by."""
    return x.shape[0]


# the weight gate's rules for a Q and an R: the name an error gives, and PD
_WEIGHT_RULES = (("state weight Q", False), ("input weight R", True))


def _by_key(items: list, key, fn) -> list:
    """``fn(members)`` on the indices ``members`` of each group of ``items``
    that share ``key(item)``, a group in the order of its first member; its
    results, one per member, in the order of ``items``."""
    groups: dict = {}
    for i, item in enumerate(items):
        groups.setdefault(key(item), []).append(i)
    out: list = [None] * len(items)
    for members in groups.values():
        for i, result in zip(members, fn(members)):
            out[i] = result
    return out


def _shifted(a: np.ndarray) -> np.ndarray:
    """The stack ``a`` with each member whose spectrum reaches past
    ``Re = -0.5`` shifted left to it, in place."""
    max_re = np.linalg.eigvals(a).real.max(axis=1)
    moved = max_re > -0.5
    a[moved] -= (max_re[moved] + 0.5)[:, None, None] * np.eye(a.shape[1])
    return a


# Trials drawn, composed and solved together by counterexample_search: large
# enough that each CARE shape group is a long stack, small enough that a
# search of any length holds a bounded number of instances.
_SEARCH_CHUNK = 500

# The errors on which the search skips a sampled trial: a solver
# precondition that the sampler makes rare.
_SKIPPED = (NotStabilizableError, NumericalFailureError, NotHurwitzError)


def counterexample_search(config: SearchConfig, tol: float = DEFAULT_TOL) -> SearchResult:
    """Deterministic seeded search for non-compositional instances.

    Instances whose deviation exceeds ``config.deviation_threshold`` are
    collected with their full reports.  Solver preconditions that fail on a
    sampled instance (which the sampler makes rare) skip that trial; an
    ``InconsistencyError`` is never swallowed.

    Trials run in chunks of ``_SEARCH_CHUNK``, which bounds the memory a
    long search holds, and every stage of a chunk runs on a leading batch
    axis.  A chunk is drawn one trial after another (``_sample_chunk``), so
    the random stream does not depend on the chunk size; the stability
    shifts and the weight gates are stacked per order.  The chunk is then
    designed and checked by ``_evaluate_chunk``, the pipeline that
    ``evaluate_composition`` runs on a chunk of one, so each trial gets bit
    for bit the report ``evaluate_composition`` gives it alone.  The trials
    are then read in order: a trial is skipped on its error if that is a
    solver precondition (``_SKIPPED``), and any other error, such as an
    ``InconsistencyError``, is raised for the earliest trial that has one.
    """
    tol = _require_tol(tol)
    rng = np.random.default_rng(config.seed)
    found: list[FoundInstance] = []
    skipped = 0
    for start in range(0, config.trials, _SEARCH_CHUNK):
        instances = _sample_chunk(
            rng, min(_SEARCH_CHUNK, config.trials - start),
            config.n_range, config.m_range, config.k_range,
        )
        outcomes = _evaluate_chunk(instances, tol)
        for offset, ((sys1, sys2, pattern, w1, w2), outcome) in enumerate(zip(instances, outcomes)):
            if isinstance(outcome, _SKIPPED):
                skipped += 1
                continue
            if isinstance(outcome, RsmLqrError):
                raise outcome
            deviation = outcome.report.exact.deviation
            if deviation > config.deviation_threshold and math.isfinite(deviation):
                found.append(
                    FoundInstance(
                        trial=start + offset,
                        system1=sys1,
                        system2=sys2,
                        pattern=pattern,
                        weights1=w1,
                        weights2=w2,
                        deviation=deviation,
                        report=outcome.report,
                    )
                )
    return SearchResult(tuple(found), config.trials, skipped)


def _solve_by_shape(cares: list[tuple], candidates: list | None = None) -> list[RiccatiSolution | RsmLqrError]:
    """Each ``(A, B, Q, R)`` CARE's solution or error, in order, with one
    stacked solve per shape ``(n, m)``; ``candidates``, when given, holds
    each CARE's composed candidate or ``None``, the first rung of its
    ladder."""
    return _by_key(
        cares,
        lambda care: care[1].shape,
        lambda members: _solve_care_stack(
            *(np.array([cares[i][j] for i in members]) for j in range(4)),
            candidates=None if candidates is None else [candidates[i] for i in members],
        ),
    )
