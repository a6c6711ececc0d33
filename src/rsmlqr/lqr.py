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
              (A_s K K^T, B_s R_s^{-1/2}) and observability of
              (A_s K K^T, D) with D^T D = K Q_c K^T.  Success proves the
              designs coincide; failure alone proves nothing.

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

The three verdicts must be mutually consistent (sufficient-pass implies
exact, exact implies necessary-pass); a violation raises
``InconsistencyError`` rather than producing a quietly contradictory
report.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import sim
from .errors import (
    DetectabilityWarning,
    InconsistencyError,
    InvalidArgumentError,
    NotHurwitzError,
    NotStabilizableError,
    NumericalFailureError,
)
# The pipeline calls private kernels on trusted arrays (the rank tests go
# straight to _staircase); solve_care, rectangular_riccati_residual,
# is_controllable, is_observable, compose_cost and require_matrix stay
# importable from here only because perfbench's tracer wraps them under
# these names.
from .matkit import (
    RankTest,
    _pbh_unreachable,
    _staircase,
    block_diag,
    conform,
    definiteness,
    is_controllable,
    is_observable,
    psd_sqrt_factor,
    require_definite,
    require_matrix,
    sym_eig,
)
from .riccati import (
    RiccatiSolution,
    _rect_residual,
    _solve_care,
    rectangular_riccati_residual,
    solve_care,
)
from .rsm import (
    CompositeSystem,
    CompositionPattern,
    CostWeights,
    LinearSystem,
    _compose_cost,
    _coupling,
    compose_cost,
    compose_gains,
    compose_open_loop,
)

DEFAULT_TOL = 1e-8


def _require_tol(tol: float) -> float:
    """``tol`` if it is positive and finite, else ``InvalidArgumentError``."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidArgumentError(f"tolerance must be positive and finite, got {tol}")
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


def _design(a, b, q, r, label: str, q_pd: bool) -> LQRDesign:
    """Shared synthesis for arrays the callers have already validated;
    ``q_pd`` is the weight gate's verdict that ``Q`` is PD.

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
    return LQRDesign(solution=_solve_care(a, b, q, r), notes=notes)


def lqr_subsystem(system: LinearSystem, weights: CostWeights) -> LQRDesign:
    """Optimal state feedback for one subsystem."""
    conform(
        (weights.Q, f"{system.name}: state weight Q", system.n, system.n),
        (weights.R, f"{system.name}: input weight R", system.m, system.m),
    )
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


def _deviation(lhs: np.ndarray, rhs: np.ndarray, tol: float) -> DeviationCheck:
    diff = float(np.abs(lhs - rhs).max(initial=0.0))
    scale = 1.0 + max(
        float(np.abs(lhs).max(initial=0.0)), float(np.abs(rhs).max(initial=0.0))
    )
    return DeviationCheck(diff, diff / scale, diff <= tol * scale)


def check_exact_condition(p_stacked, coupling, p_composite, tol: float = DEFAULT_TOL) -> DeviationCheck:
    """The decisive test: does ``P_s K = K P_c`` hold?

    The deviation is the max-abs entry of ``P_s K - K P_c``; equivalence
    means it stays within ``tol * (1 + max entry magnitude)``.
    """
    p_s, kmat, p_c = conform(
        (p_stacked, "stacked Riccati solution", "s", "s"),
        (_coupling(coupling), "coupling matrix", "s", "c"),
        (p_composite, "composite Riccati solution", "c", "c"),
    )
    return _exact_check(p_s, kmat, p_c, _require_tol(tol))


def _exact_check(p_s, kmat, p_c, tol: float) -> DeviationCheck:
    """The body of ``check_exact_condition`` on trusted arrays."""
    return _deviation(p_s @ kmat, kmat @ p_c, tol)


def check_necessary_condition(p_stacked, coupling, tol: float = DEFAULT_TOL) -> NecessaryCheck:
    """Failure of ``P_s K K^T`` to be symmetric PSD rules equivalence out."""
    p_s, kmat = conform(
        (p_stacked, "stacked Riccati solution", "s", "s"),
        (_coupling(coupling), "coupling matrix", "s", "c"),
    )
    return _necessary_check(p_s, kmat, _require_tol(tol))


def _necessary_check(p_s, kmat, tol: float) -> NecessaryCheck:
    """The body of ``check_necessary_condition`` on trusted arrays."""
    d = definiteness(p_s @ kmat @ kmat.T, tol)
    return NecessaryCheck(d.symmetric, d.psd, d.min_eigenvalue)


def check_sufficient_condition(
    a_stacked, b_stacked, coupling, q_composite, r_stacked, p_stacked,
    tol: float = DEFAULT_TOL,
) -> SufficientCheck:
    """Success here proves the two designs coincide.

    Hypotheses checked: ``P_s K K^T`` symmetric PSD (the necessary
    condition), controllability of
    ``(A_s K K^T, B_s Sigma Lambda^{-1/2})`` where ``R_s = Sigma Lambda
    Sigma^T``, and observability of ``(A_s K K^T, D)`` with
    ``D^T D = K Q_c K^T``.  Failure is recorded but proves nothing on its
    own; the caller falls back to the exact test.  ``Q_c`` must be
    symmetric positive semidefinite and ``R_s`` symmetric positive definite
    by the weight gate ``require_definite`` (``NotSymmetricError``,
    ``NotPSDError`` or ``NotPDError`` otherwise).
    """
    a_s, b_s, kmat, q_c, r_s, p_s = conform(
        (a_stacked, "stacked state matrix", "s", "s"),
        (b_stacked, "stacked input matrix", "s", "m"),
        (_coupling(coupling), "coupling matrix", "s", "c"),
        (q_composite, "composite state weight", "c", "c"),
        (r_stacked, "stacked input weight", "m", "m"),
        (p_stacked, "stacked Riccati solution", "s", "s"),
    )
    q_c = require_definite(q_c, "composite state weight")
    r_s = require_definite(r_s, "stacked input weight", pd=True)
    hypothesis = _necessary_check(p_s, kmat, _require_tol(tol))
    return _sufficient_check(a_s, b_s, kmat, q_c, r_s, hypothesis)


def _sufficient_check(a_s, b_s, kmat, q_c, r_s, hypothesis: NecessaryCheck) -> SufficientCheck:
    """The body of ``check_sufficient_condition`` on trusted arrays, with
    ``R_s`` symmetric PD, reusing the necessary check already computed for
    the same ``P_s`` and ``K``."""
    akk = a_s @ kmat @ kmat.T
    lam, sigma = sym_eig(r_s)
    b_whitened = b_s @ (sigma / np.sqrt(lam)[None, :])
    ctrb = _staircase(akk, b_whitened)
    # the observability matrix of (A_s K K^T, F K^T) is that of (A_c, F)
    # times K^T, so its rank is that of the c x c pair's
    obsv = _staircase((kmat.T @ a_s @ kmat).T, psd_sqrt_factor(q_c).T)
    obsv = obsv._replace(ok=obsv.rank == a_s.shape[0], required=a_s.shape[0])
    return SufficientCheck(
        hypothesis_ok=hypothesis.passes,
        controllability=ctrb,
        observability=obsv,
    )


def compare_gains(f_direct, f_composed, tol: float = DEFAULT_TOL) -> DeviationCheck:
    """Entrywise comparison of the direct and composed feedback gains."""
    fd, fc = conform(
        (f_direct, "direct gain", "m", "n"), (f_composed, "composed gain", "m", "n")
    )
    return _deviation(fd, fc, _require_tol(tol))


def design_composition(
    sys1: LinearSystem,
    sys2: LinearSystem,
    pattern: CompositionPattern,
    weights1: CostWeights,
    weights2: CostWeights,
) -> CompositionDesign:
    """Compose, then synthesize the two subsystem designs and the direct
    one, and push the subsystem gains through the coupling; no check runs.
    The direct design trusts the composite weights and their gate's PD
    verdict."""
    composite = compose_open_loop(sys1, sys2, pattern)
    q_c, r_c, q_pd = _compose_cost(weights1, weights2, composite.coupling.K)
    design1 = lqr_subsystem(sys1, weights1)
    design2 = lqr_subsystem(sys2, weights2)
    direct = _design(composite.A, composite.B, q_c, r_c, "composite", q_pd)
    return CompositionDesign(
        composite=composite,
        Q=q_c,
        R=r_c,
        design1=design1,
        design2=design2,
        direct=direct,
        F_composed=compose_gains(design1.F, design2.F, composite.coupling),
    )


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
    design = design_composition(sys1, sys2, pattern, weights1, weights2)
    composite, q_c, r_c = design.composite, design.Q, design.R
    direct, f_composed = design.direct, design.F_composed
    a_s, b_s = composite.A_stacked, composite.B_stacked
    p_stacked = block_diag(design.design1.P, design.design2.P)
    kmat = composite.coupling.K

    exact = _exact_check(p_stacked, kmat, direct.P, tol)
    necessary = _necessary_check(p_stacked, kmat, tol)
    sufficient = _sufficient_check(a_s, b_s, kmat, q_c, r_c, necessary)
    gains = _deviation(direct.F, f_composed, tol)
    rect_stacked = _rect_residual(a_s, b_s, kmat, q_c, r_c, p_stacked @ kmat)[1]
    rect_composite = _rect_residual(a_s, b_s, kmat, q_c, r_c, kmat @ direct.P)[1]

    gap = None
    if x0 is not None:
        gap = sim.optimality_gap(
            composite, q_c, r_c, f_composed, direct.solution, x0
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
        rect_residual_stacked=rect_stacked,
        rect_residual_composite=rect_composite,
        gap=gap,
        notes=design.notes,
    )
    return CompositionAnalysis(**vars(design), P_stacked=p_stacked, report=report)


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
        for name in ("n_range", "m_range", "k_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise InvalidArgumentError(f"{name} has lo > hi: ({lo}, {hi})")
        if self.n_range[0] < 1 or self.m_range[0] < 1 or self.k_range[0] < 0:
            raise InvalidArgumentError("dimension ranges out of bounds")
        if self.trials < 0:
            raise InvalidArgumentError(f"trials must be nonnegative, got {self.trials}")
        if math.isnan(self.deviation_threshold):
            raise InvalidArgumentError("deviation_threshold must not be NaN")


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


def _sample_system(rng: np.random.Generator, name: str, n: int, m: int) -> LinearSystem:
    a = rng.uniform(-2.0, 2.0, size=(n, n))
    max_re = float(np.linalg.eigvals(a).real.max())
    if max_re > -0.5:
        a = a - (max_re + 0.5) * np.eye(n)
    while True:
        b = rng.uniform(-1.0, 1.0, size=(n, m))
        if float(np.abs(b).max(initial=0.0)) == 0.0 or (np.abs(b).max(axis=0) < 1e-12).any():
            continue
        return LinearSystem(name, a, b)


def _sample_weights(rng: np.random.Generator, n: int, m: int) -> CostWeights:
    g = rng.standard_normal((n, n))
    h = rng.standard_normal((m, m))
    return CostWeights(g.T @ g + 0.1 * np.eye(n), h.T @ h + 0.1 * np.eye(m))


def sample_instance(
    rng: np.random.Generator,
    n_range: tuple[int, int] = (1, 3),
    m_range: tuple[int, int] = (1, 2),
    k_range: tuple[int, int] = (0, 2),
):
    """Draw one random composition instance.

    Stability is forced by shifting sampled state matrices left of
    ``Re = -0.5``; weights are Gram matrices plus ``0.1 I`` so they are
    safely definite.  Input columns are resampled if one comes out zero.
    Returns ``(sys1, sys2, pattern, weights1, weights2)``.
    """
    n1 = int(rng.integers(n_range[0], n_range[1] + 1))
    n2 = int(rng.integers(n_range[0], n_range[1] + 1))
    m1 = int(rng.integers(m_range[0], m_range[1] + 1))
    m2 = int(rng.integers(m_range[0], m_range[1] + 1))
    sys1 = _sample_system(rng, "sub1", n1, m1)
    sys2 = _sample_system(rng, "sub2", n2, m2)
    w1 = _sample_weights(rng, n1, m1)
    w2 = _sample_weights(rng, n2, m2)
    hi = min(k_range[1], n1, n2)
    lo = min(k_range[0], hi)
    k = int(rng.integers(lo, hi + 1))
    first = rng.choice(n1, size=k, replace=False)
    second = rng.choice(n2, size=k, replace=False)
    pattern = CompositionPattern(
        n1, n2, tuple((int(j), int(kk)) for j, kk in zip(first, second))
    )
    return sys1, sys2, pattern, w1, w2


def counterexample_search(config: SearchConfig, tol: float = DEFAULT_TOL) -> SearchResult:
    """Deterministic seeded search for non-compositional instances.

    Instances whose deviation exceeds ``config.deviation_threshold`` are
    collected with their full reports.  Solver preconditions that fail on a
    sampled instance (which the sampler makes rare) skip that trial; an
    ``InconsistencyError`` is never swallowed.
    """
    tol = _require_tol(tol)
    rng = np.random.default_rng(config.seed)
    found: list[FoundInstance] = []
    skipped = 0
    for trial in range(config.trials):
        sys1, sys2, pattern, w1, w2 = sample_instance(
            rng, config.n_range, config.m_range, config.k_range
        )
        try:
            analysis = evaluate_composition(sys1, sys2, pattern, w1, w2, tol)
        except (NotStabilizableError, NumericalFailureError, NotHurwitzError):
            skipped += 1
            continue
        deviation = analysis.report.exact.deviation
        if deviation > config.deviation_threshold and math.isfinite(deviation):
            found.append(
                FoundInstance(
                    trial=trial,
                    system1=sys1,
                    system2=sys2,
                    pattern=pattern,
                    weights1=w1,
                    weights2=w2,
                    deviation=deviation,
                    report=analysis.report,
                )
            )
    return SearchResult(tuple(found), config.trials, skipped)
