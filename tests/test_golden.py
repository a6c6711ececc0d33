"""The CLI's output documents against recorded references.

``tests/golden/`` holds, for each bundled problem, the stdout of
``rsmlqr compose`` and ``rsmlqr lqr`` and the file written by
``rsmlqr check --gap --report``, plus the stdout of
``rsmlqr search --seed 7 --trials 200``.  It also holds the report of
``tests/data/chains_20.json``, whose composite order 37 is the only one
here at or above the switch order of the CARE's doubling kernel.  Key
order, integers, booleans, strings and nulls must match exactly.  Floats
must agree to 1e-12 relative, with a 1e-13 absolute floor for
roundoff-level entries such as residual norms (at most about 1.4e-14 in
these files), so the comparison holds on another BLAS.  An integral double
renders without a fraction and parses back as an int, so a number on
either side that is not an int on both is compared as a float.

When an output change is intended, regenerate the files with the commands
above and explain every changed value.
"""

import json
import math
from pathlib import Path

import pytest

from rsmlqr.cli import main

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ("counterexample", "coupled_2x2", "independent_pair", "symmetric_pair")
GOLDEN = Path(__file__).resolve().parent / "golden"
REPORTS = {problem: ROOT / "problems" / f"{problem}.json" for problem in PROBLEMS}
REPORTS["chains_20"] = ROOT / "tests" / "data" / "chains_20.json"


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def assert_matches(got, want, path="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict), f"{path}: expected an object, got {got!r}"
        assert list(got) == list(want), f"{path}: keys {list(got)} != {list(want)}"
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list), f"{path}: expected an array, got {got!r}"
        assert len(got) == len(want), f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    elif _is_number(want) and _is_number(got) and float in (type(got), type(want)):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-13), (
            f"{path}: {got!r} != {want!r}"
        )
    else:
        assert type(got) is type(want) and got == want, f"{path}: {got!r} != {want!r}"


@pytest.fixture(autouse=True)
def _default_tolerance(monkeypatch):
    monkeypatch.delenv("RSMLQR_TOL", raising=False)


@pytest.mark.parametrize("problem", PROBLEMS)
@pytest.mark.parametrize("command", ("compose", "lqr"))
def test_stdout_document(problem, command, capsys):
    assert main([command, str(ROOT / "problems" / f"{problem}.json")]) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads((GOLDEN / f"{problem}.{command}.json").read_text())
    assert_matches(got, want)


@pytest.mark.parametrize("problem", REPORTS)
def test_check_report(problem, tmp_path, capsys):
    report = tmp_path / "report.json"
    argv = ["check", str(REPORTS[problem]), "--gap"]
    main(argv + ["--report", str(report)])
    capsys.readouterr()
    got = json.loads(report.read_text())
    want = json.loads((GOLDEN / f"{problem}.check_report.json").read_text())
    assert_matches(got, want)


def test_search_stdout(capsys):
    assert main(["search", "--seed", "7", "--trials", "200"]) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads((GOLDEN / "search_seed7_trials200.json").read_text())
    assert_matches(got, want)


def test_comparison_tolerates_roundoff_only():
    assert_matches({"a": [1, 0.5, 1e-15]}, {"a": [1.0000000000000002, 0.5, 3e-15]})
    for got, want in (
        ({"b": 1, "a": 2}, {"a": 2, "b": 1}),
        ([0.5], [0.5 + 1e-9]),
        ([True], [1]),
        ([None], [0.0]),
        ([2], [3]),
    ):
        with pytest.raises(AssertionError):
            assert_matches(got, want)
