"""Benchmark of the rsmlqr package: three workloads, one command.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Every workload is a closed loop with one client in one process: the next
operation starts when the previous one has returned.  BLAS threads are left
at the library default, which provenance records.

    check-cli     ``python -m rsmlqr check PROBLEM --gap --report FILE`` as a
                  cold subprocess, cycling through the four bundled problems
                  in an order drawn from the seed.  Mostly import and CLI
                  cost; the numerics take milliseconds.
    search-small  ``rsmlqr.cli.main(["search", ...])`` in process with
                  stdout captured, cycling through search seeds drawn from
                  the seed.  Instances have n <= 3, so Python overhead and
                  rendering dominate.
    scale-gap     ``evaluate_composition(..., x0=ones)`` in process on
                  instances this file generates (never the package's own
                  sampler): shared-state pairs at composite orders 14-175
                  and no-sharing (K = I) pairs at orders 20-80, on both
                  sides of the solver's KRON_LIMIT = 60.  The numerical
                  kernels dominate.

Operations run in whole cycles (one pass over the workload's inputs), as
many as fit in ``--seconds``, so every run covers its mix evenly.  Each
operation's output is checked; an operation that raises, exits with an
unexpected code or fails a check counts as failed and its time is dropped.

With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it carries
the per-layer metrics.  A traced run runs every operation twice, untraced
and then traced, so ``trace_overhead_frac`` compares equal inputs.  The
table above the last line lists every metric with its unit and sample
count; ``perfbench/spread.py`` tabulates the spread over several runs.
Run files and traces go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import ORDER_SPLIT, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBLEMS = ROOT / "problems"
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 60.0
# No operation starts after this many seconds, so a run ends within 180 s.
HARD_LIMIT_S = 140.0

EXPECTED_EXIT = {
    "counterexample": 3,
    "coupled_2x2": 3,
    "symmetric_pair": 0,
    "independent_pair": 0,
}

SEARCH_TRIALS = 50
SEARCH_SEEDS = 8

SHARED_ORDERS = (8, 16, 32, 48, 100)
IDENTITY_ORDERS = (10, 20, 30, 40)
INPUTS = 2
MIX_SETS = 6

# The tail percentile is fixed per workload so that runs with a few more or
# fewer samples stay comparable; the table states how many samples lay
# beyond it.  On check-cli and search-small it is the highest percentile
# with at least ten samples beyond it in a 35-second run on a 2-CPU
# machine.  A scale-gap pass holds nine orders whose times are far apart,
# so a percentile near a boundary between two orders jumps between them as
# the number of passes changes; p72 sits mid-way through the seventh
# slowest order for any number of passes and keeps ten samples beyond it
# from five passes on.
TAIL_PCT = {"check-cli": 70, "search-small": 90, "scale-gap": 72}

# Workload-specific names of the end-to-end metrics, printed beside the
# generic ones.
ALIASES = {
    "check-cli": {"op_p50_s": "check_p50_s", "op_tail_s": "check_tail_s"},
    "search-small": {"inst_per_s": "search_inst_per_s"},
    "scale-gap": {
        "op_p50_s": "eval_p50_s",
        "op_tail_s": "eval_tail_s",
        "inst_per_s": "scale_inst_per_s",
    },
}


class CheckFailed(Exception):
    """An operation's output failed a correctness check."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def timed(tracer: Tracer | None, fn):
    """Wall time of ``fn()`` and its result; traced when a tracer is given."""
    if tracer is None:
        t0 = time.perf_counter()
        result = fn()
        return time.perf_counter() - t0, result
    with tracer.installed():
        t0 = time.perf_counter()
        with tracer.span("op"):
            result = fn()
        return time.perf_counter() - t0, result


# ---------------------------------------------------------------------------
# workloads


class CheckCli:
    """Cold ``rsmlqr check`` calls on the bundled problems."""

    in_process = False

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.tmp = OUT / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.env = child_env()
        self.compositional = 0
        self.predicted = 0
        digest = hashlib.sha256()
        for name in EXPECTED_EXIT:
            digest.update((PROBLEMS / f"{name}.json").read_bytes())
        self.digest = digest.hexdigest()

    def cycle(self) -> list[str]:
        names = list(EXPECTED_EXIT)
        self.rng.shuffle(names)
        return names

    def warm_up(self, traced: bool):
        self.op("counterexample", Tracer() if traced else None)

    def op(self, name: str, tracer: Tracer | None) -> tuple[float, int]:
        report = self.tmp / "report.json"
        spans = self.tmp / "spans.json"
        report.unlink(missing_ok=True)
        args = ["check", str(PROBLEMS / f"{name}.json"), "--gap", "--report", str(report)]
        if tracer is None:
            cmd = [sys.executable, "-m", "rsmlqr", *args]
        else:
            cmd = [sys.executable, str(HERE / "trace_child.py"), str(spans), *args]
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
        wall = time.perf_counter() - t0
        code = proc.returncode
        if code != EXPECTED_EXIT[name]:
            raise CheckFailed(
                f"{name}: exit code {code}, expected {EXPECTED_EXIT[name]}: "
                f"{proc.stderr.strip()[-200:]}"
            )
        try:
            doc = json.loads(report.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise CheckFailed(f"{name}: report does not parse: {exc}") from None
        if doc["meta"]["exit_code"] != code:
            raise CheckFailed(
                f"{name}: report says exit code {doc['meta']['exit_code']}, "
                f"process exited {code}"
            )
        if tracer is not None:
            tracer.merge(json.loads(spans.read_text(encoding="utf-8")))
        elif code == 0:
            self.compositional += 1
            self.predicted += bool(doc["checks"]["sufficient"]["predicts_compositional"])
        return wall, 1

    def info(self) -> dict:
        return {"sufficient_power": _ratio(self.predicted, self.compositional)}


class SearchSmall:
    """In-process ``search`` calls, each repeated seed giving identical bytes."""

    in_process = True

    def __init__(self, seed: int):
        import numpy as np

        rng = np.random.default_rng(seed)
        self.seeds = [int(s) for s in rng.integers(0, 2**31, SEARCH_SEEDS)]
        self.reference: dict[int, str] = {}
        self.trials = 0
        self.skipped = 0
        self.digest = hashlib.sha256(
            json.dumps([self.seeds, SEARCH_TRIALS]).encode()
        ).hexdigest()

    def cycle(self) -> list[int]:
        return self.seeds

    def warm_up(self, traced: bool):
        self._search(self.seeds[0], 5, Tracer() if traced else None)

    def _search(self, seed: int, trials: int, tracer: Tracer | None):
        import rsmlqr.cli

        buf = io.StringIO()
        argv = ["search", "--seed", str(seed), "--trials", str(trials)]
        with contextlib.redirect_stdout(buf):
            wall, code = timed(tracer, lambda: rsmlqr.cli.main(argv))
        return wall, code, buf.getvalue()

    def op(self, seed: int, tracer: Tracer | None) -> tuple[float, int]:
        wall, code, out = self._search(seed, SEARCH_TRIALS, tracer)
        if code != 0:
            raise CheckFailed(f"search --seed {seed}: exit code {code}")
        ref = self.reference.get(seed)
        if ref is None:
            self._validate(seed, out)
            self.reference[seed] = out
        elif out != ref:
            raise CheckFailed(f"search --seed {seed}: stdout differs from the first repeat")
        return wall, SEARCH_TRIALS

    def _validate(self, seed: int, out: str):
        try:
            doc = json.loads(out)
        except ValueError as exc:
            raise CheckFailed(f"search --seed {seed}: stdout does not parse: {exc}") from None
        if doc["trials"] != SEARCH_TRIALS or doc["found_count"] != len(doc["found"]):
            raise CheckFailed(f"search --seed {seed}: trial or found counts disagree")
        for inst in doc["found"]:
            dev = inst["deviation"]
            if not (isinstance(dev, (int, float)) and dev > doc["threshold"]):
                raise CheckFailed(
                    f"search --seed {seed}: trial {inst['trial']} has deviation "
                    f"{dev}, not above the threshold {doc['threshold']}"
                )
        self.trials += doc["trials"]
        self.skipped += doc["skipped"]

    def info(self) -> dict:
        return {"search_skip_frac": _ratio(self.skipped, self.trials)}


class ScaleGap:
    """In-process ``evaluate_composition`` with the gap at composite orders 14-175."""

    in_process = True

    def __init__(self, seed: int):
        import numpy as np

        rng = np.random.default_rng(seed)
        digest = hashlib.sha256()
        self.sets = []
        for _ in range(MIX_SETS):
            mix = [self._pair(rng, n, n // 4, digest) for n in SHARED_ORDERS]
            mix += [self._pair(rng, n, 0, digest) for n in IDENTITY_ORDERS]
            self.sets.append(mix)
        self.digest = digest.hexdigest()
        self.passes = 0
        self.identity = 0
        self.predicted = 0

    @staticmethod
    def _system(rng, name: str, n: int, digest):
        import numpy as np
        from rsmlqr import CostWeights, LinearSystem

        a = rng.standard_normal((n, n)) / math.sqrt(n)
        a -= (np.linalg.eigvals(a).real.max() + 0.5) * np.eye(n)
        b = rng.uniform(-1.0, 1.0, (n, INPUTS))
        g = rng.standard_normal((n, n))
        h = rng.standard_normal((INPUTS, INPUTS))
        q = g.T @ g / n + 0.1 * np.eye(n)
        r = h.T @ h / INPUTS + 0.1 * np.eye(INPUTS)
        for arr in (a, b, q, r):
            digest.update(arr.tobytes())
        return LinearSystem(name, a, b), CostWeights(q, r)

    def _pair(self, rng, n: int, shared: int, digest):
        from rsmlqr import CompositionPattern

        sys1, w1 = self._system(rng, "left", n, digest)
        sys2, w2 = self._system(rng, "right", n, digest)
        pairs = tuple(
            zip(
                (int(j) for j in rng.choice(n, shared, replace=False)),
                (int(k) for k in rng.choice(n, shared, replace=False)),
            )
        )
        digest.update(json.dumps(pairs).encode())
        return sys1, sys2, CompositionPattern(n, n, pairs), w1, w2

    def cycle(self) -> list:
        mix = self.sets[self.passes % MIX_SETS]
        self.passes += 1
        return mix

    def warm_up(self, traced: bool):
        tracer = Tracer() if traced else None
        self._evaluate(self.sets[0][0], tracer)
        self._evaluate(self.sets[0][len(SHARED_ORDERS)], tracer)

    @staticmethod
    def _evaluate(inst, tracer: Tracer | None):
        import numpy as np
        import rsmlqr.lqr

        sys1, sys2, pattern, w1, w2 = inst
        x0 = np.ones(sys1.n + sys2.n - pattern.k_shared)
        return timed(
            tracer,
            lambda: rsmlqr.lqr.evaluate_composition(sys1, sys2, pattern, w1, w2, x0=x0),
        )

    def op(self, inst, tracer: Tracer | None) -> tuple[float, int]:
        wall, analysis = self._evaluate(inst, tracer)
        pattern = inst[2]
        report = analysis.report
        label = f"order {analysis.composite.n} ({pattern.k_shared} shared)"
        if not pattern.pairs and not report.compositional:
            raise CheckFailed(f"{label}: K = I pair is not exact-compositional")
        gap = report.gap
        if not gap.gap >= -1e-8 * (1.0 + gap.J_direct):
            raise CheckFailed(f"{label}: gap {gap.gap} below -1e-8 (1 + J_direct)")
        if not (gap.stable_direct and analysis.direct.solution.closed_loop_max_re < 0.0):
            raise CheckFailed(f"{label}: direct closed loop is not Hurwitz")
        if not pattern.pairs and tracer is None:
            self.identity += 1
            self.predicted += bool(report.sufficient.predicts_compositional)
        return wall, 1

    def info(self) -> dict:
        return {"sufficient_power": _ratio(self.predicted, self.identity)}


WORKLOADS = {"check-cli": CheckCli, "search-small": SearchSmall, "scale-gap": ScaleGap}


# ---------------------------------------------------------------------------
# measurement


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def measure_setup() -> tuple[list[float], list[float]]:
    """Wall time of a fresh interpreter importing rsmlqr.cli, and the import
    time the interpreter measures itself; one untimed warm-up first."""
    code = (
        "import time; t = time.perf_counter(); import rsmlqr.cli; "
        "print(repr(time.perf_counter() - t))"
    )
    walls, imports = [], []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"importing rsmlqr.cli failed: {proc.stderr.strip()[-300:]}")
        if i:
            walls.append(wall)
            imports.append(float(proc.stdout))
    return walls, imports


class Tally:
    """Operation times and failures of one run."""

    def __init__(self):
        self.walls: list[float] = []
        self.instances = 0
        self.traced_walls: list[float] = []
        self.paired_walls: list[float] = []
        self.traced_instances = 0
        self.attempted = 0
        self.failures: list[str] = []

    def attempt(self, fn, *args):
        """Run one operation; a failed check or an exception counts as failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except CheckFailed as exc:
            self.failures.append(str(exc))
        except Exception as exc:  # an operation that raised is a failed operation
            self.failures.append("".join(traceback.format_exception_only(exc)).strip())
        return None


def drive(work, seconds: float, tracer: Tracer | None) -> Tally:
    tally = Tally()
    for traced in (False, True) if tracer else (False,):
        tally.attempt(work.warm_up, traced)
    start = time.perf_counter()
    cycles = 0
    # Start another whole cycle only if it should end within the run length.
    while cycles == 0 or (
        (elapsed := time.perf_counter() - start) * (cycles + 1) / cycles <= seconds
        and elapsed < HARD_LIMIT_S
    ):
        for item in work.cycle():
            plain = tally.attempt(work.op, item, None)
            if tracer is None:
                if plain is not None:
                    tally.walls.append(plain[0])
                    tally.instances += plain[1]
                continue
            traced = tally.attempt(work.op, item, tracer)
            if plain is not None and traced is not None:
                tally.paired_walls.append(plain[0])
                tally.traced_walls.append(traced[0])
                tally.traced_instances += traced[1]
        cycles += 1
    return tally


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(name: str, tally: Tally, setup_walls: list[float], peak_rss_mb: float):
    """Metric values and sample counts, plus notes for the table."""
    walls = tally.walls
    tail_pct = TAIL_PCT[name]
    tail = percentile(walls, tail_pct)
    beyond = sum(1 for w in walls if w > tail)
    metrics = {
        "setup_s": (statistics.median(setup_walls), len(setup_walls)),
        "op_p50_s": (statistics.median(walls), len(walls)),
        "op_tail_s": (tail, len(walls)),
        "inst_per_s": (tally.instances / sum(walls), tally.instances),
        "peak_rss_mb": (peak_rss_mb, 1),
    }
    notes = {
        "setup_s": f"median of {len(setup_walls)} fresh imports of rsmlqr.cli",
        "op_tail_s": f"p{tail_pct}, {beyond} samples beyond"
        + ("" if beyond >= 10 else " (fewer than 10: under-sampled)"),
        "inst_per_s": "instances / total operation wall time",
    }
    return metrics, notes


def per_layer(tally: Tally, tracer: Tracer, import_times: list[float], info: dict):
    n = tally.traced_instances
    selfs = tracer.self_times()
    spans = tracer.span_counts()

    def self_s(name: str):
        return selfs.get(name, 0.0) / n, n

    def calls(name: str):
        return spans.get(name, 0) / n, n

    compositional = [predicts for comp, predicts in tracer.outcomes if comp]
    metrics = {
        "trace_overhead_frac": (sum(tally.traced_walls) / sum(tally.paired_walls) - 1.0,
                                len(tally.traced_walls)),
        "cli.import_s": (statistics.median(import_times), len(import_times)),
        "cli.parse_problem_s": self_s("cli.parse_problem"),
        "cli.render_s": self_s("cli.render"),
        "lqr.sample_s": self_s("lqr.sample"),
        "lqr.evaluate_self_s": self_s("lqr.evaluate"),
        "lqr.design_self_s": self_s("lqr.design"),
        "lqr.checks_s": self_s("lqr.checks"),
        "lqr.search_skip_frac": (info.get("search_skip_frac", 0.0), n),
        "lqr.sufficient_power": (_ratio(sum(compositional), len(compositional)),
                                 len(compositional)),
        "rsm.compose_s": self_s("rsm.compose"),
        "matkit.require_calls_per_inst": (tracer.counts.get("matkit.require_matrix", 0) / n, n),
        "matkit.definiteness_calls_per_inst": calls("matkit.definiteness"),
        "matkit.definiteness_s": self_s("matkit.definiteness"),
        "matkit.rank_test_s": self_s("matkit.rank_test"),
        "sim.closed_loop_cost_s": self_s("sim.closed_loop_cost"),
    }
    for b in ("le60", "gt60"):
        solves = spans.get(f"riccati.solve_care.{b}", 0)
        residuals = tracer.child_counts(f"riccati.care_residual.{b}", "riccati.solve_care.")
        metrics.update({
            f"riccati.solve_care_s.{b}": self_s(f"riccati.solve_care.{b}"),
            f"riccati.solve_care_calls.{b}": calls(f"riccati.solve_care.{b}"),
            f"riccati.newton_sweeps.{b}": ((residuals - solves) / n, n),
            f"riccati.solve_lyapunov_s.{b}": self_s(f"riccati.solve_lyapunov.{b}"),
            f"riccati.solve_lyapunov_calls.{b}": calls(f"riccati.solve_lyapunov.{b}"),
            f"riccati.rect_residual_s.{b}": self_s(f"riccati.rect_residual.{b}"),
        })
    notes = {
        "trace_overhead_frac": "traced / untraced wall over the same inputs, minus 1",
        "cli.import_s": "median in-interpreter import of rsmlqr.cli",
        "cli.parse_problem_s": "self time per instance, as for every *_s below",
        "riccati.solve_care_s.le60": f"matrix order <= {ORDER_SPLIT}; .gt60 above it",
    }
    return metrics, notes


# ---------------------------------------------------------------------------
# provenance


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _blas() -> dict:
    """BLAS build info and the thread count each loaded OpenBLAS reports."""
    import ctypes

    import numpy as np

    build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    loaded = []
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        maps = ""
    for path in sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}):
        threads = None
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
        loaded.append({"library": Path(path).name, "threads": threads})
    env = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return {
        "name": build.get("name"),
        "version": build.get("version"),
        "loaded": loaded,
        "thread_setting": env if any(env.values()) else "library default",
    }


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "rsmlqr").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args, work, loadavg_start) -> dict:
    import numpy as np
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "derived_seeds": getattr(work, "seeds", None),
        "input_digest": work.digest,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "cpu_count": os.cpu_count(),
        "loadavg_start": loadavg_start,
        "loadavg_end": _loadavg(),
        "git_commit": _git_commit(),
        "src_digest": _src_digest(),
    }


# ---------------------------------------------------------------------------
# entry point


def print_table(workload: str, rows: list[tuple]):
    aliases = ALIASES.get(workload, {})
    print(f"{'metric':<36} {'value':>14} {'unit':<6} {'samples':>8}  note")
    for name, value, unit, samples, note in rows:
        label = f"{name} ({aliases[name]})" if name in aliases else name
        print(f"{label:<36} {value:>14.6g} {unit:<6} {samples:>8}  {note}")


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be nonnegative")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rsmlqr" / "__init__.py").is_file() or not PROBLEMS.is_dir():
        print(f"perfbench: no rsmlqr checkout at {ROOT} (need src/rsmlqr and problems/)",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    loadavg_start = _loadavg()

    setup_walls, import_times = measure_setup()
    sys.path.insert(0, str(SRC))
    import rsmlqr.cli

    if not Path(rsmlqr.cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported rsmlqr from {rsmlqr.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    work = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    tally = drive(work, args.seconds, tracer)
    usage = resource.RUSAGE_SELF if work.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    info = work.info()

    ok = len(tally.walls if tracer is None else tally.traced_walls) > 0
    if not ok:
        metrics, notes = {}, {}
    elif tracer is None:
        metrics, notes = end_to_end(args.workload, tally, setup_walls, peak_rss_mb)
    else:
        metrics, notes = per_layer(tally, tracer, import_times, info)
    listed = spec["per_layer" if tracer else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if ok and set(metrics) != set(units):
        raise RuntimeError(f"metrics and BENCHMARK.json disagree: {sorted(set(metrics) ^ set(units))}")

    rows = [(k, v, units[k], n, notes.get(k, "")) for k, (v, n) in metrics.items()]
    failed = len(tally.failures)
    rows.append(("failed_frac", _ratio(failed, tally.attempted), "frac", tally.attempted,
                 "operations that raised, exited wrongly or failed a check"))
    if tracer is None:
        for key, value in info.items():
            rows.append((key, value, "frac", 1, "deterministic for the inputs"))
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print_table(args.workload, rows)
    for msg in tally.failures[:10]:
        print(f"FAILED: {msg}")
    prov = provenance(args, work, loadavg_start)
    print("provenance: " + json.dumps(prov))

    record = {
        "provenance": prov,
        "attempted": tally.attempted,
        "failed": failed,
        "failures": tally.failures[:50],
        "metrics": {k: {"value": v, "unit": units[k], "samples": n} for k, (v, n) in metrics.items()},
        "info": info,
        "samples": {"walls": tally.walls, "traced": tally.traced_walls,
                    "paired": tally.paired_walls, "setup": setup_walls, "imports": import_times},
    }
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (runs / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracer is not None:
        traces = OUT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        (traces / f"{stem}.json").write_text(json.dumps(tracer.export()), encoding="utf-8")

    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
