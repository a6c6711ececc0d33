"""Command-line front end: compose, lqr, check, simulate, search.

Problem files are JSON:

    {
      "subsystems": [
        {"name": "left",  "A": [[...]], "B": [[...]], "Q": [[...]], "R": [[...]]},
        {"name": "right", "A": [[...]], "B": [[...]], "Q": [[...]], "R": [[...]]}
      ],
      "pattern": {"pairs": [[j, k], ...]}
    }

where ``pairs`` identifies state ``j`` of the first subsystem with state
``k`` of the second (zero-based).  Validation happens before any numerics
and reports the JSON path of the first violated constraint.  The parser
checks only the JSON shape of ``pairs``; ``CompositionPattern`` owns every
pattern rule (each pair two integers, each index in range and shared at
most once), and its ``PatternError`` path is reported with the
``$.pattern.`` prefix.  ``CostWeights`` owns the weight rules, and its
errors are reported with the subsystem's path, such as ``$.subsystems[1]:``.

All machine output is byte-deterministic for a fixed input, tolerance, and
package version: floats are printed with 17 significant digits (enough to
round-trip a double exactly), dictionaries render in fixed order, and
wall-clock timings only appear when explicitly requested with --timings.

Exit codes: 0 compositional, 3 not compositional, 2 inconclusive (only
one-sided checks were requested and none decided), 1 error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import PatternError, RsmLqrError, SchemaError
from .lqr import (
    DEFAULT_TOL,
    CompositionAnalysis,
    LQRDesign,
    SearchConfig,
    _require_tol,
    counterexample_search,
    design_composition,
    evaluate_composition,
)
from .rsm import (
    CompositeSystem,
    CompositionPattern,
    CostWeights,
    LinearSystem,
    closed_loop_matrix,
    compose_cost,
    compose_open_loop,
)
from .sim import closed_loop_cost, quadrature_cost, simulate

_TOL_ENV_VAR = "RSMLQR_TOL"

_EXIT_OK = 0
_EXIT_ERROR = 1
_EXIT_INCONCLUSIVE = 2
_EXIT_NOT_COMPOSITIONAL = 3

_CHECK_NAMES = ("exact", "necessary", "sufficient")


# ---------------------------------------------------------------------------
# deterministic JSON rendering

def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        return "null"
    return format(x, ".17g")


def _is_scalar(value) -> bool:
    return value is None or isinstance(
        value, (bool, int, float, str, np.integer, np.floating)
    )


def _render(value, indent: int) -> str:
    pad = "  " * indent
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            return "[]"
        if all(_is_scalar(item) for item in items):
            return "[" + ", ".join(_render(item, 0) for item in items) + "]"
        inner = ",\n".join(
            pad + "  " + _render(item, indent + 1) for item in items
        )
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(key))}: {_render(val, indent + 1)}"
            for key, val in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot render value of type {type(value).__name__}")


def render_json(doc) -> str:
    """Render a report document deterministically, trailing newline included."""
    return _render(doc, 0) + "\n"


# ---------------------------------------------------------------------------
# problem files

@dataclass(frozen=True)
class ProblemFile:
    system1: LinearSystem
    weights1: CostWeights
    system2: LinearSystem
    weights2: CostWeights
    pattern: CompositionPattern
    digest: str


def _schema_fail(path: str, message: str):
    raise SchemaError(f"{path}: {message}")


def _require_key(obj: dict, key: str, path: str):
    if key not in obj:
        _schema_fail(path, f"missing required key {key!r}")
    return obj[key]


def _as_object(node, path: str) -> dict:
    if not isinstance(node, dict):
        _schema_fail(path, f"expected an object, got {type(node).__name__}")
    return node


def _as_number(node, path: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float, _HugeInt)):
        _schema_fail(path, f"expected a number, got {type(node).__name__}")
    try:
        value = float(node)
    except OverflowError:
        _schema_fail(path, "integer is too large for a double")
    if not math.isfinite(value):
        _schema_fail(path, "numbers must be finite")
    return value


def _as_matrix(node, path: str) -> np.ndarray:
    if not isinstance(node, list) or not node:
        _schema_fail(path, "expected a non-empty array of rows")
    width = None
    rows = []
    for i, row in enumerate(node):
        if not isinstance(row, list) or not row:
            _schema_fail(f"{path}[{i}]", "expected a non-empty array of numbers")
        if width is None:
            width = len(row)
        elif len(row) != width:
            _schema_fail(
                f"{path}[{i}]",
                f"row has {len(row)} entries, expected {width} (ragged matrix)",
            )
        rows.append([_as_number(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)])
    return np.array(rows, dtype=float)


def _parse_subsystem(node, path: str) -> tuple[str, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    obj = _as_object(node, path)
    name = _require_key(obj, "name", path)
    if not isinstance(name, str) or not name:
        _schema_fail(f"{path}.name", "expected a non-empty string")
    a = _as_matrix(_require_key(obj, "A", path), f"{path}.A")
    b = _as_matrix(_require_key(obj, "B", path), f"{path}.B")
    q = _as_matrix(_require_key(obj, "Q", path), f"{path}.Q")
    r = _as_matrix(_require_key(obj, "R", path), f"{path}.R")
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        _schema_fail(f"{path}.A", f"must be square, got {a.shape[0]}x{a.shape[1]}")
    if b.shape[0] != n:
        _schema_fail(f"{path}.B", f"must have {n} rows to match A, got {b.shape[0]}")
    if q.shape != (n, n):
        _schema_fail(
            f"{path}.Q", f"must be {n}x{n} to match A, got {q.shape[0]}x{q.shape[1]}"
        )
    m = b.shape[1]
    if r.shape != (m, m):
        _schema_fail(
            f"{path}.R",
            f"must be {m}x{m} to match the input count, got {r.shape[0]}x{r.shape[1]}",
        )
    return name, a, b, q, r


def _parse_pattern(node, path: str, n1: int, n2: int) -> CompositionPattern:
    obj = _as_object(node, path)
    raw_pairs = _require_key(obj, "pairs", path)
    if not isinstance(raw_pairs, list):
        _schema_fail(f"{path}.pairs", "expected an array of [j, k] pairs")
    try:
        return CompositionPattern(n1, n2, tuple(raw_pairs))
    except PatternError as exc:
        raise SchemaError(f"{path}.{exc}") from exc


def _parse_weights(q: np.ndarray, r: np.ndarray, path: str) -> CostWeights:
    try:
        return CostWeights(q, r)
    except RsmLqrError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _reject_constant(token: str):
    raise SchemaError(f"$: non-finite JSON constant {token!r} is not allowed")


class _HugeInt:
    """An integer literal with more digits than ``int()`` converts.  Like an
    int too large for a double, it raises ``OverflowError`` on conversion,
    which the schema checks and ``CompositionPattern`` report at its JSON
    path; the interpreter's digit limit stays as it is."""

    def __index__(self):
        raise OverflowError("integer literal beyond the digit limit")

    __float__ = __index__


def _parse_int(token: str):
    try:
        return int(token)
    except ValueError:
        return _HugeInt()


def parse_problem(path) -> ProblemFile:
    """Load and validate a problem file.

    Structure and dimensional consistency are checked first with exact JSON
    paths; only then are the domain objects constructed, which enforces the
    semantic requirements (stability is not required, but weights must be
    definite and the pattern injective).
    """
    raw = Path(path).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(
            raw.decode("utf-8"), parse_constant=_reject_constant, parse_int=_parse_int
        )
    except UnicodeDecodeError as exc:
        raise SchemaError(f"$: file is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"$: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    root = _as_object(doc, "$")
    subsystems = _require_key(root, "subsystems", "$")
    if not isinstance(subsystems, list) or len(subsystems) != 2:
        _schema_fail("$.subsystems", "expected an array of exactly two subsystems")
    name1, a1, b1, q1, r1 = _parse_subsystem(subsystems[0], "$.subsystems[0]")
    name2, a2, b2, q2, r2 = _parse_subsystem(subsystems[1], "$.subsystems[1]")
    pattern = _parse_pattern(
        _require_key(root, "pattern", "$"), "$.pattern", a1.shape[0], a2.shape[0]
    )
    return ProblemFile(
        system1=LinearSystem(name1, a1, b1),
        weights1=_parse_weights(q1, r1, "$.subsystems[0]"),
        system2=LinearSystem(name2, a2, b2),
        weights2=_parse_weights(q2, r2, "$.subsystems[1]"),
        pattern=pattern,
        digest=digest,
    )


def problem_document(
    sys1: LinearSystem,
    weights1: CostWeights,
    sys2: LinearSystem,
    weights2: CostWeights,
    pattern: CompositionPattern,
) -> dict:
    return {
        "subsystems": [
            {
                "name": system.name,
                "A": system.A,
                "B": system.B,
                "Q": weights.Q,
                "R": weights.R,
            }
            for system, weights in ((sys1, weights1), (sys2, weights2))
        ],
        "pattern": {"pairs": [[j, k] for j, k in pattern.pairs]},
    }


def serialize_problem(problem: ProblemFile) -> str:
    """Problem file back to canonical text; parsing it again reproduces the
    same systems, weights, and pattern exactly (floats round-trip)."""
    return render_json(
        problem_document(
            problem.system1,
            problem.weights1,
            problem.system2,
            problem.weights2,
            problem.pattern,
        )
    )


# ---------------------------------------------------------------------------
# report assembly

def _composite_doc(composite: CompositeSystem, q: np.ndarray, r: np.ndarray) -> dict:
    dims = composite.dims
    return {
        "dims": {
            "n1": dims.n1,
            "n2": dims.n2,
            "shared": dims.shared,
            "m1": dims.m1,
            "m2": dims.m2,
            "n": composite.n,
            "m": composite.m,
        },
        "K": composite.coupling.K,
        "A": composite.A,
        "B": composite.B,
        "Q": q,
        "R": r,
    }


def _direct_doc(direct: LQRDesign) -> dict:
    return {
        "P": direct.P,
        "F": direct.F,
        "residual_norm": direct.solution.residual_norm,
        "closed_loop_max_re": direct.solution.closed_loop_max_re,
    }


def _checks_doc(analysis: CompositionAnalysis) -> dict:
    report = analysis.report
    return {
        "exact": report.exact._asdict(),
        "necessary": {
            "symmetric": report.necessary.symmetric,
            "psd": report.necessary.psd,
            "min_eigenvalue": report.necessary.min_eigenvalue,
            "passes": report.necessary.passes,
        },
        "sufficient": {
            "hypothesis_ok": report.sufficient.hypothesis_ok,
            "controllable": report.sufficient.controllability.ok,
            "controllability_rank": report.sufficient.controllability.rank,
            "controllability_margin": report.sufficient.controllability.margin,
            "observable": report.sufficient.observability.ok,
            "observability_rank": report.sufficient.observability.rank,
            "observability_margin": report.sufficient.observability.margin,
            "predicts_compositional": report.sufficient.predicts_compositional,
        },
        "gains": report.gains._asdict(),
        "rectangular_riccati_residuals": {
            "stacked_solution": report.rect_residual_stacked,
            "composite_solution": report.rect_residual_composite,
        },
    }


def _gap_doc(analysis: CompositionAnalysis, x0: np.ndarray | None) -> dict | None:
    gap = analysis.report.gap
    if gap is None:
        return None
    return {
        "J_composed": gap.J_composed,
        "J_direct": gap.J_direct,
        "gap": gap.gap,
        "stable_composed": gap.stable_composed,
        "stable_direct": gap.stable_direct,
        "x0": list(x0) if x0 is not None else None,
    }


def build_report(
    problem: ProblemFile,
    analysis: CompositionAnalysis,
    tol: float,
    checks_requested: tuple[str, ...],
    x0: np.ndarray | None,
    verdict: str,
    exit_code: int,
    timings_ms: dict | None = None,
) -> dict:
    report = {
        "input_digest": problem.digest,
        "composite": _composite_doc(analysis.composite, analysis.Q, analysis.R),
        "lqr_direct": _direct_doc(analysis.direct),
        "lqr_composed": {
            "P1": analysis.design1.P,
            "F1": analysis.design1.F,
            "residual_norm1": analysis.design1.solution.residual_norm,
            "P2": analysis.design2.P,
            "F2": analysis.design2.F,
            "residual_norm2": analysis.design2.solution.residual_norm,
            "F": analysis.F_composed,
        },
        "checks": _checks_doc(analysis),
        "gap": _gap_doc(analysis, x0),
        "meta": {
            "tool": "rsmlqr",
            "version": __version__,
            "tolerance": tol,
            "checks_requested": list(checks_requested),
            "verdict": verdict,
            "exit_code": exit_code,
            "notes": list(analysis.report.notes),
        },
    }
    if timings_ms is not None:
        report["meta"]["timings_ms"] = timings_ms
    return report


def _verdict(analysis: CompositionAnalysis, requested: tuple[str, ...]) -> tuple[str, int]:
    report = analysis.report
    if "exact" in requested:
        if report.exact.equivalent:
            return "compositional", _EXIT_OK
        return "not-compositional", _EXIT_NOT_COMPOSITIONAL
    if "necessary" in requested and not report.necessary.passes:
        return "not-compositional", _EXIT_NOT_COMPOSITIONAL
    if "sufficient" in requested and report.sufficient.predicts_compositional:
        return "compositional", _EXIT_OK
    return "inconclusive", _EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# subcommands

def _resolve_tol(args) -> float:
    tol = args.tol
    if tol is None:
        raw = os.environ.get(_TOL_ENV_VAR)
        if raw is None:
            return DEFAULT_TOL
        try:
            tol = float(raw)
        except ValueError:
            raise SchemaError(
                f"environment variable {_TOL_ENV_VAR}={raw!r} is not a number"
            ) from None
    return _require_tol(tol)


def _parse_x0(text: str | None, n: int) -> np.ndarray:
    if text is None:
        return np.ones(n)
    try:
        values = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise SchemaError(f"--x0 must be a comma-separated list of numbers, got {text!r}") from None
    arr = np.asarray(values, dtype=float)
    if arr.shape[0] != n:
        raise SchemaError(f"--x0 has {arr.shape[0]} entries, expected {n}")
    if not np.isfinite(arr).all():
        raise SchemaError("--x0 entries must be finite")
    return arr


def _write_text(path: str, text: str):
    Path(path).write_text(text, encoding="utf-8")


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        _write_text(out, text)


def cmd_compose(args) -> int:
    problem = parse_problem(args.problem)
    composite = compose_open_loop(problem.system1, problem.system2, problem.pattern)
    q_c, r_c = compose_cost(problem.weights1, problem.weights2, composite.coupling)
    doc = {"input_digest": problem.digest, **_composite_doc(composite, q_c, r_c)}
    _emit(render_json(doc), args.out)
    return _EXIT_OK


def _designs(args):
    """The designs ``lqr`` and ``simulate`` print; no check runs."""
    problem = parse_problem(args.problem)
    return problem, design_composition(
        problem.system1, problem.system2, problem.pattern,
        problem.weights1, problem.weights2,
    )


def cmd_lqr(args) -> int:
    problem, designs = _designs(args)
    doc = {
        "input_digest": problem.digest,
        "direct": _direct_doc(designs.direct),
        "subsystems": [
            {
                "name": system.name,
                "P": design.P,
                "F": design.F,
                "residual_norm": design.solution.residual_norm,
            }
            for system, design in (
                (problem.system1, designs.design1),
                (problem.system2, designs.design2),
            )
        ],
        "F_composed": designs.F_composed,
        "notes": list(designs.notes),
    }
    _emit(render_json(doc), args.out)
    return _EXIT_OK


def _parse_checks(text: str) -> tuple[str, ...]:
    names = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    if not names:
        raise SchemaError("--checks must name at least one check")
    for name in names:
        if name not in _CHECK_NAMES:
            raise SchemaError(
                f"unknown check {name!r}; valid names: {', '.join(_CHECK_NAMES)}"
            )
    return names


def cmd_check(args) -> int:
    t0 = time.perf_counter()
    problem = parse_problem(args.problem)
    tol = _resolve_tol(args)
    requested = _parse_checks(args.checks)
    want_gap = args.gap or args.x0 is not None
    t1 = time.perf_counter()
    x0 = None
    if want_gap:
        n_composite = (
            problem.pattern.n1 + problem.pattern.n2 - problem.pattern.k_shared
        )
        x0 = _parse_x0(args.x0, n_composite)
    analysis = evaluate_composition(
        problem.system1, problem.system2, problem.pattern,
        problem.weights1, problem.weights2, tol, x0=x0,
    )
    t2 = time.perf_counter()
    verdict, code = _verdict(analysis, requested)

    report = analysis.report
    lines = [
        f"exact: deviation {report.exact.deviation:.9e} "
        f"(relative {report.exact.deviation_rel:.3e}) -> "
        + ("equivalent" if report.exact.equivalent else "not equivalent"),
        f"necessary: {'pass' if report.necessary.passes else 'FAIL'} "
        f"(symmetric={report.necessary.symmetric}, psd={report.necessary.psd}, "
        f"min_eig={report.necessary.min_eigenvalue:.3e})",
        "sufficient: "
        + (
            "predicts compositional"
            if report.sufficient.predicts_compositional
            else "no prediction"
        )
        + f" (hypothesis={report.sufficient.hypothesis_ok}, "
        f"controllable={report.sufficient.controllability.ok}, "
        f"observable={report.sufficient.observability.ok})",
        f"gains: deviation {report.gains.deviation:.9e}",
    ]
    if report.gap is not None:
        lines.append(
            f"gap: J_composed {_fmt_float(report.gap.J_composed)} "
            f"J_direct {_fmt_float(report.gap.J_direct)} "
            f"gap {_fmt_float(report.gap.gap)}"
        )
    for note in report.notes:
        lines.append(f"note: {note}")
    lines.append(f"verdict: {verdict}")
    sys.stdout.write("\n".join(lines) + "\n")

    if args.report is not None:
        timings = None
        if args.timings:
            timings = {
                "parse": (t1 - t0) * 1e3,
                "analysis": (t2 - t1) * 1e3,
            }
        doc = build_report(
            problem, analysis, tol, requested, x0, verdict, code, timings
        )
        _write_text(args.report, render_json(doc))
    return code


def cmd_simulate(args) -> int:
    _, designs = _designs(args)
    composite = designs.composite
    if args.controller == "direct":
        gain = designs.direct.F
    else:
        gain = designs.F_composed
    x0 = _parse_x0(args.x0, composite.n)
    a_cl = closed_loop_matrix(composite, gain)
    trajectory = simulate(a_cl, x0, args.horizon, args.step)
    w_cl = designs.Q + gain.T @ designs.R @ gain

    header = "t," + ",".join(f"x{i}" for i in range(composite.n))
    rows = [header]
    for t, state in zip(trajectory.times, trajectory.states):
        rows.append(
            _fmt_float(float(t)) + "," + ",".join(_fmt_float(v) for v in state)
        )
    csv_text = "\n".join(rows) + "\n"

    _emit(csv_text, args.out)
    if args.out is not None:
        exact = closed_loop_cost(
            composite.A, composite.B, gain, designs.Q, designs.R, x0
        )
        quad = (
            quadrature_cost(trajectory, 0.5 * (w_cl + w_cl.T))
            if trajectory.states.shape[0] >= 3
            else math.nan
        )
        summary = [
            f"controller: {args.controller}",
            f"samples: {trajectory.states.shape[0]}",
            f"diverged: {str(trajectory.diverged).lower()}",
            f"cost_exact: {_fmt_float(exact.value)}",
            f"cost_quadrature: {_fmt_float(quad)}",
        ]
        sys.stdout.write("\n".join(summary) + "\n")
    return _EXIT_OK


def cmd_search(args) -> int:
    tol = _resolve_tol(args)
    config = SearchConfig(
        n_range=(args.n_min, args.n_max),
        m_range=(args.m_min, args.m_max),
        k_range=(args.k_min, args.k_max),
        trials=args.trials,
        seed=args.seed,
        deviation_threshold=args.threshold,
    )
    result = counterexample_search(config, tol)
    problems = [
        problem_document(
            inst.system1, inst.weights1, inst.system2, inst.weights2, inst.pattern
        )
        for inst in result.found
    ]
    found_docs = [
        {
            "trial": inst.trial,
            "deviation": inst.deviation,
            "shared": inst.pattern.k_shared,
            "problem": problem,
        }
        for inst, problem in zip(result.found, problems)
    ]
    doc = {
        "seed": config.seed,
        "trials": result.trials,
        "skipped": result.skipped,
        "threshold": config.deviation_threshold,
        "found_count": len(result.found),
        "found": found_docs,
    }
    sys.stdout.write(render_json(doc))
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, problem in enumerate(problems):
            (out_dir / f"counterexample_{i:03d}.json").write_text(
                render_json(problem), encoding="utf-8"
            )
    return _EXIT_OK


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """Usage errors exit with code 1; codes 2 and 3 carry check verdicts."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _add_tol(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--tol",
        type=float,
        default=None,
        help=f"relative tolerance for the checks (default {DEFAULT_TOL:g}, "
        f"or the {_TOL_ENV_VAR} environment variable when set)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rsmlqr",
        description="Compose linear systems along shared states and decide "
        "whether LQR design commutes with the composition.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_compose = sub.add_parser(
        "compose", help="build the composite system and cost from a problem file"
    )
    p_compose.add_argument("problem", help="problem JSON file")
    p_compose.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p_compose.set_defaults(func=cmd_compose)

    p_lqr = sub.add_parser(
        "lqr", help="synthesize the subsystem, composed, and direct controllers"
    )
    p_lqr.add_argument("problem", help="problem JSON file")
    p_lqr.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p_lqr.set_defaults(func=cmd_lqr)

    p_check = sub.add_parser(
        "check", help="decide compositionality (exit 0 yes, 3 no, 2 inconclusive)"
    )
    p_check.add_argument("problem", help="problem JSON file")
    _add_tol(p_check)
    p_check.add_argument(
        "--checks",
        default="exact,necessary,sufficient",
        help="comma-separated subset of: exact, necessary, sufficient "
        "(default runs all three; without 'exact' the verdict may be "
        "inconclusive)",
    )
    p_check.add_argument(
        "--gap",
        action="store_true",
        help="also compute the composed-vs-direct cost gap (x0 defaults to ones)",
    )
    p_check.add_argument(
        "--x0", default=None, help="initial state for the gap, comma-separated"
    )
    p_check.add_argument(
        "--report", default=None, help="write the full JSON report to this file"
    )
    p_check.add_argument(
        "--timings",
        action="store_true",
        help="include wall-clock timings in the report (breaks byte-for-byte "
        "reproducibility)",
    )
    p_check.set_defaults(func=cmd_check)

    p_sim = sub.add_parser("simulate", help="integrate a closed loop and export CSV")
    p_sim.add_argument("problem", help="problem JSON file")
    p_sim.add_argument(
        "--controller",
        choices=("direct", "composed"),
        default="composed",
        help="which gain closes the loop (default composed)",
    )
    p_sim.add_argument("--horizon", type=float, default=10.0, help="final time (default 10)")
    p_sim.add_argument("--step", type=float, default=1e-3, help="integration step (default 1e-3)")
    p_sim.add_argument("--x0", default=None, help="initial state, comma-separated (default ones)")
    p_sim.add_argument(
        "--out", default=None,
        help="write the trajectory CSV here and print a summary instead",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_search = sub.add_parser(
        "search", help="random search for instances where composition is not optimal"
    )
    _add_tol(p_search)
    p_search.add_argument("--trials", type=int, default=100, help="instances to sample (default 100)")
    p_search.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p_search.add_argument(
        "--threshold", type=float, default=1e-2,
        help="deviation above which an instance is collected (default 0.01)",
    )
    p_search.add_argument("--n-min", type=int, default=1, help="min subsystem order (default 1)")
    p_search.add_argument("--n-max", type=int, default=3, help="max subsystem order (default 3)")
    p_search.add_argument("--m-min", type=int, default=1, help="min input count (default 1)")
    p_search.add_argument("--m-max", type=int, default=2, help="max input count (default 2)")
    p_search.add_argument("--k-min", type=int, default=0, help="min shared states (default 0)")
    p_search.add_argument("--k-max", type=int, default=2, help="max shared states (default 2)")
    p_search.add_argument(
        "--out", default=None, help="directory for the found problem files"
    )
    p_search.set_defaults(func=cmd_search)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return _EXIT_ERROR
    try:
        return args.func(args)
    except RsmLqrError as exc:
        print(f"rsmlqr: error: {exc}", file=sys.stderr)
        return _EXIT_ERROR
    except OSError as exc:
        print(f"rsmlqr: error: {exc}", file=sys.stderr)
        return _EXIT_ERROR
    except ValueError as exc:
        print(f"rsmlqr: error: {exc}", file=sys.stderr)
        return _EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
