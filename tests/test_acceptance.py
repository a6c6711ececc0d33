"""Acceptance gate for the package.

Twelve criteria cover the composition calculus, the Riccati synthesis
path, the compositionality checks, and the cost machinery.  Each test
prints one ``[Ann] PASS/FAIL`` line on the real stdout so the verdicts
stay visible under pytest output capture, then asserts.
"""
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import rsmlqr
from rsmlqr.cli import main, parse_problem, problem_document, render_json
from rsmlqr.errors import (
    InconsistencyError,
    NotHurwitzError,
    NotStabilizableError,
    NumericalFailureError,
)
from rsmlqr.lqr import (
    check_exact_condition,
    check_necessary_condition,
    check_sufficient_condition,
    evaluate_composition,
    lqr_composite,
    lqr_subsystem,
    sample_instance,
)
from rsmlqr.matkit import is_hurwitz
from rsmlqr.riccati import solve_care, solve_lyapunov
from rsmlqr.rsm import (
    CompositionPattern,
    LinearSystem,
    build_composition_matrix,
    closed_loop_matrix,
    compose_cost,
    compose_gains,
    compose_open_loop,
)
from rsmlqr.sim import quadrature_cost, simulate

from numpy_oracles import block_diag

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

# pinned budgets and tolerances, one per criterion
COUPLING_BUDGET_S = 1e-3
SCALAR_CARE_ATOL = 1e-10
SCALAR_CARE_BUDGET_S = 10e-3
DEVIATION_TARGET = 0.11144
DEVIATION_ATOL = 1e-4
TWIN_DEVIATION_MAX = 1e-9
SUITE_TARGET = 1000
SUITE_MAX_ATTEMPTS = 1500
SUITE_BUDGET_S = 60.0
RECT_RESIDUAL_COEFF = 1e-8
STABILITY_TRIALS = 1000
CLOSURE_COEFF = 1e-12
SOUNDNESS_REL = 1e-6
GAP_TARGET = 0.0023105
GAP_ATOL = 1e-6
GAP_FLOOR = -1e-8
GAP_DRAWS = 10
QUADRATURE_TRIALS = 100
QUADRATURE_REL = 1e-4
SEARCH_SEED = 7
SEARCH_TRIALS = 200

_SUITE_SEED = 31415
_STABILITY_SEED = 27182
_QUADRATURE_SEED = 16180


@dataclass(frozen=True)
class AuditRecord:
    system1: LinearSystem
    system2: LinearSystem
    pattern: CompositionPattern
    weights1: object
    weights2: object
    shared: int
    deviation: float
    deviation_rel: float
    equivalent: bool
    necessary_passes: bool
    predicts: bool
    rect_ratio_stacked: float
    rect_ratio_composite: float
    closure_ratio: float
    gap_min: float
    composed_stable: bool


@dataclass(frozen=True)
class AuditSuite:
    records: tuple
    attempts: int
    skipped: int
    elapsed: float


def _recheck_without_invariants(sys1, sys2, pattern, w1, w2):
    """Recompute the three verdicts directly from the check primitives.

    Used when the pipeline raises its contradiction guard, so that the
    offending instance can still be classified and reported.
    """
    composite = compose_open_loop(sys1, sys2, pattern)
    q_c, _ = compose_cost(w1, w2, composite.coupling)
    d1 = lqr_subsystem(sys1, w1)
    d2 = lqr_subsystem(sys2, w2)
    direct = lqr_composite(composite, q_c, block_diag(w1.R, w2.R))
    p_stacked = block_diag(d1.P, d2.P)
    kmat = composite.coupling
    r_stacked = block_diag(w1.R, w2.R)
    exact = check_exact_condition(p_stacked, kmat, direct.P)
    necessary = check_necessary_condition(p_stacked, kmat)
    sufficient = check_sufficient_condition(
        composite.A_stacked, composite.B_stacked, kmat, q_c, r_stacked,
        p_stacked,
    )
    return exact, necessary, sufficient


@pytest.fixture(scope="session")
def audit_suite() -> AuditSuite:
    """One thousand successful random instances with everything the audit
    criteria need measured on each."""
    rng = np.random.default_rng(_SUITE_SEED)
    records = []
    attempts = 0
    skipped = 0
    start = time.perf_counter()
    while len(records) < SUITE_TARGET and attempts < SUITE_MAX_ATTEMPTS:
        attempts += 1
        sys1, sys2, pattern, w1, w2 = sample_instance(rng, (1, 5), (1, 3), (0, 2))
        try:
            analysis = evaluate_composition(sys1, sys2, pattern, w1, w2)
        except (NotStabilizableError, NumericalFailureError, NotHurwitzError):
            skipped += 1
            continue
        except InconsistencyError:
            # keep the contradiction visible to the soundness criterion
            exact, necessary, sufficient = _recheck_without_invariants(
                sys1, sys2, pattern, w1, w2
            )
            records.append(AuditRecord(
                system1=sys1, system2=sys2, pattern=pattern,
                weights1=w1, weights2=w2, shared=pattern.k_shared,
                deviation=exact.deviation, deviation_rel=exact.deviation_rel,
                equivalent=exact.equivalent,
                necessary_passes=necessary.passes,
                predicts=sufficient.predicts_compositional,
                rect_ratio_stacked=np.inf, rect_ratio_composite=np.inf,
                closure_ratio=np.inf, gap_min=-np.inf, composed_stable=False,
            ))
            continue

        composite = analysis.composite
        report = analysis.report
        kmat = composite.coupling
        b_s_sq = float(np.linalg.norm(composite.B_stacked)) ** 2
        x_stacked = analysis.P_stacked @ kmat
        x_composite = kmat @ analysis.direct.P
        denom_stacked = 1.0 + float(np.linalg.norm(x_stacked)) ** 2 * b_s_sq
        denom_composite = 1.0 + float(np.linalg.norm(x_composite)) ** 2 * b_s_sq

        f_block = block_diag(analysis.design1.F, analysis.design2.F)
        lhs = closed_loop_matrix(composite, analysis.F_composed)
        rhs = kmat.T @ (composite.A_stacked + composite.B_stacked @ f_block) @ kmat
        closure_ratio = float(
            np.linalg.norm(lhs - rhs) / (1.0 + np.linalg.norm(rhs))
        )

        # cost Gramians, one Lyapunov solve per controller, reused for
        # every initial state draw
        w_direct = analysis.Q + analysis.direct.F.T @ analysis.R @ analysis.direct.F
        a_cl_direct = closed_loop_matrix(composite, analysis.direct.F)
        x_direct = solve_lyapunov(a_cl_direct, (w_direct + w_direct.T) / 2)
        w_composed = analysis.Q + analysis.F_composed.T @ analysis.R @ analysis.F_composed
        a_cl_composed = lhs
        try:
            x_composed = solve_lyapunov(a_cl_composed, (w_composed + w_composed.T) / 2)
        except NotHurwitzError:
            x_composed = None
        if x_composed is None:
            gap_min = np.inf
        else:
            diff = x_composed - x_direct
            gap_min = min(
                float(x0 @ diff @ x0)
                for x0 in rng.standard_normal((GAP_DRAWS, composite.n))
            )

        records.append(AuditRecord(
            system1=sys1, system2=sys2, pattern=pattern,
            weights1=w1, weights2=w2, shared=pattern.k_shared,
            deviation=report.exact.deviation,
            deviation_rel=report.exact.deviation_rel,
            equivalent=report.exact.equivalent,
            necessary_passes=report.necessary.passes,
            predicts=report.sufficient.predicts_compositional,
            rect_ratio_stacked=report.rect_residual_stacked / denom_stacked,
            rect_ratio_composite=report.rect_residual_composite / denom_composite,
            closure_ratio=closure_ratio,
            gap_min=gap_min,
            composed_stable=x_composed is not None,
        ))
    elapsed = time.perf_counter() - start
    return AuditSuite(
        records=tuple(records), attempts=attempts, skipped=skipped,
        elapsed=elapsed,
    )


class TestCompositionOracles:
    def test_a01_coupling_matrix_golden(self, announce):
        pattern = CompositionPattern(2, 2, ((1, 0),))
        expected = np.array(
            [[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=float
        )
        coupling = build_composition_matrix(pattern)
        exact = np.array_equal(coupling, expected)
        for _ in range(3):
            build_composition_matrix(pattern)
        best = min(
            _timed(lambda: build_composition_matrix(pattern)) for _ in range(5)
        )
        ok = exact and best < COUPLING_BUDGET_S
        announce(
            "A01", ok,
            f"coupling matrix for one shared state matches the 4x3 "
            f"duplication pattern exactly, built in {best * 1e6:.1f} us",
        )

    def test_a02_scalar_riccati_oracles(self, announce):
        cases = [
            (np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]]),
             np.array([[1.0]]), np.sqrt(2.0) - 1.0),
            (np.array([[-2.0]]), np.array([[1.0]]), np.array([[1.0]]),
             np.array([[1.0]]), np.sqrt(5.0) - 2.0),
            (np.array([[-3.0]]), np.array([[1.0, 1.0]]), np.array([[2.0]]),
             np.eye(2), (np.sqrt(13.0) - 3.0) / 2.0),
        ]
        worst = 0.0
        for a, b, q, r, root in cases:
            p = solve_care(a, b, q, r).P[0, 0]
            worst = max(worst, abs(p - root))

        def run_all():
            for a, b, q, r, _ in cases:
                solve_care(a, b, q, r)

        run_all()
        best = min(_timed(run_all) for _ in range(5))
        ok = worst <= SCALAR_CARE_ATOL and best < SCALAR_CARE_BUDGET_S
        announce(
            "A02", ok,
            f"three scalar Riccati solutions match quadratic-formula roots "
            f"within {worst:.2e} (limit {SCALAR_CARE_ATOL:g}), "
            f"solved in {best * 1e3:.2f} ms",
        )

    def test_a03_counterexample_deviation(self, announce, capsys):
        problem = parse_problem(str(PROBLEMS / "counterexample.json"))
        analysis = evaluate_composition(
            problem.system1, problem.system2, problem.pattern,
            problem.weights1, problem.weights2,
        )
        deviation = analysis.report.exact.deviation
        code = main(["check", str(PROBLEMS / "counterexample.json")])
        capsys.readouterr()
        ok = abs(deviation - DEVIATION_TARGET) <= DEVIATION_ATOL and code == 3
        announce(
            "A03", ok,
            f"mismatched-rate pair deviates by {deviation:.6f} "
            f"(target {DEVIATION_TARGET} +/- {DEVIATION_ATOL:g}) "
            f"and check exits {code}",
        )

    def test_a04_twin_composition_equivalent(self, announce, capsys):
        problem = parse_problem(str(PROBLEMS / "symmetric_pair.json"))
        analysis = evaluate_composition(
            problem.system1, problem.system2, problem.pattern,
            problem.weights1, problem.weights2,
        )
        deviation = analysis.report.exact.deviation
        code = main(["check", str(PROBLEMS / "symmetric_pair.json")])
        capsys.readouterr()
        ok = deviation <= TWIN_DEVIATION_MAX and code == 0
        announce(
            "A04", ok,
            f"identical twins deviate by {deviation:.2e} "
            f"(limit {TWIN_DEVIATION_MAX:g}) and check exits {code}",
        )


class TestRandomizedAudits:
    def test_a05_rectangular_riccati_audit(self, announce, audit_suite):
        finite = [r for r in audit_suite.records if np.isfinite(r.rect_ratio_stacked)]
        worst = max(
            max(r.rect_ratio_stacked, r.rect_ratio_composite) for r in finite
        )
        ok = (
            len(audit_suite.records) >= SUITE_TARGET
            and len(finite) == len(audit_suite.records)
            and worst <= RECT_RESIDUAL_COEFF
            and audit_suite.elapsed < SUITE_BUDGET_S
        )
        announce(
            "A05", ok,
            f"both candidate solutions satisfy the rectangular composite "
            f"Riccati equation on {len(finite)}/{len(audit_suite.records)} "
            f"instances, worst scaled residual {worst:.2e} "
            f"(limit {RECT_RESIDUAL_COEFF:g}), suite built in "
            f"{audit_suite.elapsed:.1f} s",
        )

    def test_a06_symmetric_stability_closure(self, announce):
        rng = np.random.default_rng(_STABILITY_SEED)
        failures = 0
        worst_real = -np.inf
        for _ in range(STABILITY_TRIALS):
            n1 = int(rng.integers(1, 5))
            n2 = int(rng.integers(1, 5))
            k = int(rng.integers(0, min(2, n1, n2) + 1))
            systems = []
            gains = []
            for n in (n1, n2):
                a = rng.uniform(-2.0, 2.0, (n, n))
                b = rng.uniform(-1.0, 1.0, (n, n))
                while abs(np.linalg.det(b)) < 1e-3:
                    b = rng.uniform(-1.0, 1.0, (n, n))
                g = rng.uniform(-1.0, 1.0, (n, n))
                target = -(g @ g.T + 0.05 * np.eye(n))
                systems.append(LinearSystem(f"s{len(systems)}", a, b))
                gains.append(np.linalg.solve(b, target - a))
            first = rng.choice(n1, size=k, replace=False)
            second = rng.choice(n2, size=k, replace=False)
            pattern = CompositionPattern(
                n1, n2, tuple((int(i), int(j)) for i, j in zip(first, second))
            )
            composite = compose_open_loop(systems[0], systems[1], pattern)
            f_comp = compose_gains(gains[0], gains[1], composite.coupling)
            verdict = is_hurwitz(closed_loop_matrix(composite, f_comp))
            worst_real = max(worst_real, verdict.max_real_part)
            if not verdict.hurwitz:
                failures += 1
        ok = failures == 0
        announce(
            "A06", ok,
            f"symmetric stable subsystem loops compose to a stable composite "
            f"loop in {STABILITY_TRIALS - failures}/{STABILITY_TRIALS} trials, "
            f"worst closed-loop real part {worst_real:.3e}",
        )

    def test_a07_closed_loop_factorization(self, announce, audit_suite):
        finite = [r for r in audit_suite.records if np.isfinite(r.closure_ratio)]
        worst = max(r.closure_ratio for r in finite)
        ok = len(finite) == len(audit_suite.records) and worst <= CLOSURE_COEFF
        announce(
            "A07", ok,
            f"composite closed loop equals the coupling-conjugated stacked "
            f"closed loop on {len(finite)} instances, worst scaled mismatch "
            f"{worst:.2e} (limit {CLOSURE_COEFF:g})",
        )

    def test_a08_necessary_condition_audit(self, announce, audit_suite):
        equivalent = [r for r in audit_suite.records if r.equivalent]
        violations = [r for r in equivalent if not r.necessary_passes]
        ok = len(equivalent) > 0 and not violations
        announce(
            "A08", ok,
            f"projected stacked solution stayed symmetric PSD on all "
            f"{len(equivalent)} equivalent instances "
            f"({len(violations)} violations)",
        )

    def test_a09_sufficient_condition_soundness(self, announce, audit_suite, tmp_path):
        predictions = [r for r in audit_suite.records if r.predicts]
        violations = [
            r for r in predictions if r.deviation_rel > SOUNDNESS_REL
        ]
        emitted = []
        for i, rec in enumerate(violations):
            doc = problem_document(
                rec.system1, rec.weights1, rec.system2, rec.weights2,
                rec.pattern,
            )
            path = tmp_path / f"soundness_violation_{i:03d}.json"
            path.write_text(render_json(doc), encoding="utf-8")
            emitted.append(str(path))
        detail = (
            f"every one of {len(predictions)} sufficient-condition "
            f"predictions had relative deviation <= {SOUNDNESS_REL:g}"
        )
        if emitted:
            detail = (
                f"{len(emitted)} predictions exceeded relative deviation "
                f"{SOUNDNESS_REL:g}; reproducers written to "
                + ", ".join(emitted)
            )
        ok = len(predictions) > 0 and not violations
        announce("A09", ok, detail)

    def test_a10_optimality_gap(self, announce, audit_suite):
        problem = parse_problem(str(PROBLEMS / "counterexample.json"))
        analysis = evaluate_composition(
            problem.system1, problem.system2, problem.pattern,
            problem.weights1, problem.weights2, x0=np.array([1.0]),
        )
        gap = analysis.report.gap.gap
        oracle_ok = abs(gap - GAP_TARGET) <= GAP_ATOL

        stable = [r for r in audit_suite.records if r.composed_stable]
        unstable = len(audit_suite.records) - len(stable)
        suite_min = min(r.gap_min for r in stable)
        ok = oracle_ok and suite_min >= GAP_FLOOR
        announce(
            "A10", ok,
            f"mismatched-rate pair pays {gap:.7f} extra cost from unit state "
            f"(target {GAP_TARGET} +/- {GAP_ATOL:g}); composed cost never "
            f"beats direct cost over {len(stable)} stable instances x "
            f"{GAP_DRAWS} states (min gap {suite_min:.2e}, "
            f"{unstable} composed loops unstable)",
        )

    def test_a11_cost_quadrature_cross_check(self, announce):
        rng = np.random.default_rng(_QUADRATURE_SEED)
        worst = 0.0
        for _ in range(QUADRATURE_TRIALS):
            n = int(rng.integers(1, 7))
            g = rng.uniform(-1.0, 1.0, (n, n))
            shift = max(np.linalg.eigvals(g).real.max(), 0.0) + 0.3
            a = g - shift * np.eye(n)
            margin = -float(np.linalg.eigvals(a).real.max())
            h = rng.uniform(-1.0, 1.0, (n, n))
            w = h.T @ h + 0.1 * np.eye(n)
            x0 = rng.standard_normal(n)
            j_exact = float(x0 @ solve_lyapunov(a, w) @ x0)
            horizon = 7.0 / margin
            trajectory = simulate(a, x0, horizon, horizon / 4000)
            j_quad = quadrature_cost(trajectory, w)
            worst = max(worst, abs(j_quad - j_exact) / j_exact)
        ok = worst <= QUADRATURE_REL
        announce(
            "A11", ok,
            f"trajectory quadrature matches the Lyapunov cost within relative "
            f"{worst:.2e} on {QUADRATURE_TRIALS} stable instances "
            f"(limit {QUADRATURE_REL:g})",
        )


class TestDeterminism:
    def test_a12_search_byte_determinism(self, announce, tmp_path):
        dirs = [tmp_path / "run_a", tmp_path / "run_b"]
        # The subprocess runs from tmp_path, so point it at the package
        # under test by absolute path rather than relying on an install.
        src_dir = str(Path(rsmlqr.__file__).resolve().parent.parent)
        paths = [src_dir, os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        outputs = []
        for out_dir in dirs:
            proc = subprocess.run(
                [
                    sys.executable, "-m", "rsmlqr", "search",
                    "--seed", str(SEARCH_SEED),
                    "--trials", str(SEARCH_TRIALS),
                    "--out", str(out_dir),
                ],
                capture_output=True, cwd=str(tmp_path), env=env,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(proc.stdout)
        names_a = sorted(p.name for p in dirs[0].glob("*.json"))
        names_b = sorted(p.name for p in dirs[1].glob("*.json"))
        files_equal = names_a == names_b and all(
            (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
            for name in names_a
        )
        found = json.loads(outputs[0])["found_count"]
        ok = outputs[0] == outputs[1] and files_equal and found > 0
        announce(
            "A12", ok,
            f"two search runs with the same seed produced byte-identical "
            f"output ({len(outputs[0])} bytes, {found} instances, "
            f"{len(names_a)} problem files)",
        )


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
