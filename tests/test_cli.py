"""Command-line behavior: modes, determinism, and the error-code taxonomy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jetsym
from jetsym import engine, report, structure
from jetsym.cli import main
from jetsym.expr import Y
from jetsym.report import RunConfig, emit_report, run_pipeline


def run_json(tmp_path, args, name="out.json"):
    path = tmp_path / name
    code = main(args + ["--json", str(path)])
    payload = json.loads(path.read_text(encoding="utf-8")) if path.exists() else None
    return code, payload


def run_json_subprocess(tmp_path, args, timeout):
    """run_json in a fresh interpreter that is killed after ``timeout`` seconds."""
    path = tmp_path / "out.json"
    env = dict(os.environ)
    src = str(Path(jetsym.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "jetsym", *args, "--json", str(path)],
        env=env, capture_output=True, timeout=timeout,
    )
    return proc.returncode, json.loads(path.read_text(encoding="utf-8"))


class TestModes:
    def test_solve_mode(self, tmp_path):
        code, data = run_json(
            tmp_path, ["--eq", "u_t = u_2", "--mode", "solve", "--lambda", "none"]
        )
        assert code == 0
        assert data["basis"]["elements"] == ["1", "y", "u", "u_1", "u_2", "u_3"]
        assert data["basis"]["dims"] == [3, 4, 5, 6]
        assert data["criterion"] is None

    def test_structure_mode(self, tmp_path):
        code, data = run_json(
            tmp_path,
            ["--eq", "u_t = u_2", "--mode", "structure", "--lambda", "none",
             "--order", "1", "--ydeg", "1", "--jetdeg", "1"],
        )
        assert code == 0
        blocks = data["blocks"]
        assert blocks["count"] == 3
        assert [b["size"] for b in blocks["items"]] == [2, 1, 1]
        assert data["shift_matrix"][0][1] == "1"

    def test_criterion_mode_heat(self, tmp_path):
        code, data = run_json(tmp_path, ["--eq", "u_t = u_2", "--mode", "criterion"])
        assert code == 0
        assert data["criterion"]["exists"] is True
        assert data["criterion"]["witness"] == "y"

    def test_criterion_mode_decay(self, tmp_path):
        code, data = run_json(
            tmp_path, ["--eq", "u_t = u_2 - u", "--mode", "criterion"]
        )
        assert code == 0
        assert data["criterion"]["witness"] == "exp(y)"
        assert data["criterion"]["witness_weights"] == {"y": "1"}
        assert data["lambda_scan"]["candidates"] == ["-1", "0", "1"]

    def test_check_mode(self, capsys):
        code = main(["--eq", "u_t = u_2", "--check", "u_1", "--check", "y*u_1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "check u_1: symmetry: true" in out
        assert "check y*u_1: symmetry: false" in out

    def test_explicit_lambda_list(self, tmp_path):
        code, data = run_json(
            tmp_path,
            ["--eq", "u_t = u_2 - u", "--lambda", "0,1,-1", "--mode", "solve"],
        )
        assert code == 0
        assert data["resolved_weights"] == ["-1", "0", "1"]
        assert "exp(y)" in data["basis"]["elements"]

    def test_human_output(self, capsys):
        code = main(["--eq", "u_t = u_2", "--mode", "solve", "--lambda", "none"])
        assert code == 0
        out = capsys.readouterr().out
        assert "basis (6 elements):" in out
        assert "bound order-1 cap (q=1): 4 <= 5  pass" in out


class TestWeightScanOnce:
    @pytest.mark.parametrize("lam", ["auto", "none"])
    def test_one_scan_per_y_criterion_run(self, tmp_path, monkeypatch, lam):
        # --lambda auto hands its scan to the direct criterion; with --lambda
        # none the direct criterion is the only one to scan
        calls = []
        original = engine.lambda_candidates

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(engine, "lambda_candidates", counting)
        monkeypatch.setattr(structure, "lambda_candidates", counting)
        code, data = run_json(
            tmp_path, ["--eq", "u_t = u_2", "--mode", "criterion", "--lambda", lam]
        )
        assert code == 0
        assert data["criterion"]["witness"] == "y"
        assert len(calls) == 1


class TestRootSearchOnce:
    def test_one_search_per_factor_of_the_last_pivot(self, tmp_path, monkeypatch):
        # all 15 scan pivots are constants times lambda^k*(lambda^2 - c); only
        # the last one is searched, and its squarefree factors are
        # lambda^3 - c*lambda and lambda
        calls = []
        original = engine.rational_roots

        def counting(p):
            calls.append(p)
            return original(p)

        monkeypatch.setattr(engine, "rational_roots", counting)
        code, data = run_json(
            tmp_path, ["--eq", "u_t = u_2 - 720720/2399627*u", "--mode", "criterion"]
        )
        assert code == 5
        assert data["error"]["factors"] == ["lambda^2 - 720720/2399627"]
        assert [str(p) for p in calls] == ["lambda^3 - 720720/2399627*lambda", "lambda"]


class TestOneAssembly:
    @pytest.mark.parametrize(
        "args",
        [
            ["--eq", "u_t = u_2 - u", "--mode", "criterion", "--lambda", "auto"],
            ["--eq", "u_t = u_2", "--mode", "criterion", "--lambda", "none"],
            ["--eq", "u_t = u_2", "--mode", "solve", "--ydeg", "0"],
            ["--eq", "u_t = u_2", "--mode", "structure", "--target", "u"],
        ],
    )
    def test_one_determining_system_per_run(self, tmp_path, monkeypatch, args):
        # the weight scan, the solve and both direct-criterion shapes read
        # their systems off the one symbolic assembly, of the y-free
        # generators only: every y power is a Jordan chain of that system
        calls = []
        original = engine.determining_system

        def counting(*a, **k):
            calls.append(a)
            return original(*a, **k)

        monkeypatch.setattr(engine, "determining_system", counting)
        monkeypatch.setattr(structure, "determining_system", counting, raising=False)
        code, _ = run_json(tmp_path, args)
        assert code == 0
        assert len(calls) == 1
        (ansatz, _eq), = calls
        assert ansatz.generators
        assert not any(g.depends_on(Y) for g in ansatz.generators)


class TestOneEnumeration:
    @pytest.mark.parametrize("lam", ["auto", "none", "1,-1"])
    def test_one_build_at_the_run_caps(self, tmp_path, monkeypatch, lam):
        # the solved ansatz is the assembled one with the resolved weights
        calls = []
        original = report.build_ansatz

        def counting(*a):
            calls.append(a[:3])
            return original(*a)

        monkeypatch.setattr(report, "build_ansatz", counting)
        code, data = run_json(
            tmp_path,
            ["--eq", "u_t = u_2 - u", "--order", "3", "--ydeg", "2", "--jetdeg", "2",
             "--lambda", lam],
        )
        assert code == 0
        assert calls.count((3, 2, 2)) == 1
        ansatz = data["basis"]["ansatz"]
        assert (ansatz["y_degree"], ansatz["weights"]) == (2, data["resolved_weights"])


class TestDeclaredAnsatzCriterion:
    """Inside a run the direct criterion searches the declared weights and
    y cap only, so it agrees with the decomposition of the same space."""

    @pytest.mark.parametrize(
        "extra, exists, witness",
        [
            (["--eq", "u_t = u_2", "--ydeg", "0"], False, None),
            (["--eq", "u_t = u_2 - u", "--lambda", "none"], False, None),
            (["--eq", "u_t = u_2 - 4*u", "--lambda", "1"], False, None),
            (["--eq", "u_t = u_2 - 4*u", "--lambda", "1,-2"], True, "exp(-2*y)"),
        ],
    )
    def test_verdict_within_declared_ansatz(self, tmp_path, extra, exists, witness):
        from jetsym.expr import Y
        from jetsym.parser import parse_expression

        code, data = run_json(tmp_path, extra + ["--mode", "criterion"])
        assert code == 0
        verdict = data["criterion"]
        assert verdict["exists"] is exists
        assert verdict["witness"] == witness
        basis = [parse_expression(e) for e in data["basis"]["elements"]]
        assert exists == any(e.depends_on(Y) for e in basis)
        if not exists:
            statement = verdict["certificate"]["statement"]
            assert "declared ansatz" in statement
            assert "over the rationals" not in statement
            ydeg = data["config"]["y_degree"]
            weights = ", ".join(data["resolved_weights"])
            assert f"y_degree={ydeg}, weights {weights}" in statement


class TestDeterminism:
    def test_byte_identical_json(self, tmp_path):
        for eq, mode in [
            ("u_t = u_2", "criterion"),
            ("u_t = u_2 - u", "criterion"),
            ("u_t = u_3 + u*u_1", "criterion"),
        ]:
            args = ["--eq", eq, "--mode", mode, "--ydeg", "1"]
            p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
            assert main(args + ["--json", str(p1)]) == main(args + ["--json", str(p2)])
            assert p1.read_bytes() == p2.read_bytes()

    def test_emit_report_stable(self):
        cfg = RunConfig(equation="u_t = u_2", mode="solve", lambda_mode="none")
        a = emit_report(run_pipeline(cfg), "json")
        b = emit_report(run_pipeline(cfg), "json")
        assert a == b

    def test_timing_field_optional(self):
        cfg = RunConfig(equation="u_t = u_2", mode="solve", lambda_mode="none")
        assert b"timing_ms" not in emit_report(run_pipeline(cfg), "json")
        cfg2 = RunConfig(
            equation="u_t = u_2", mode="solve", lambda_mode="none", include_timing=True
        )
        assert b"timing_ms" in emit_report(run_pipeline(cfg2), "json")

    def test_report_expressions_reparse_canonically(self, tmp_path):
        from jetsym.parser import parse_expression

        code, data = run_json(
            tmp_path, ["--eq", "u_t = u_2 - u", "--mode", "criterion"]
        )
        assert code == 0
        strings = list(data["basis"]["elements"])
        strings.append(data["equation"]["rhs"])
        strings.append(data["criterion"]["witness"])
        for block in data["blocks"]["items"]:
            strings.extend(block["elements"])
        for text in strings:
            e = parse_expression(text)
            assert e.render() == text


class TestErrorCodes:
    def test_syntax_error(self, tmp_path):
        code, data = run_json(tmp_path, ["--eq", "u_t = u_2 +"])
        assert code == 2
        assert data["error"]["kind"] == "syntax"
        assert data["error"]["position"] == 11

    def test_scope_error_y(self, tmp_path):
        code, data = run_json(tmp_path, ["--eq", "u_t = y*u_2"])
        assert code == 3
        assert data["error"]["kind"] == "scope"

    def test_scope_error_low_order(self, tmp_path):
        code, data = run_json(tmp_path, ["--eq", "u_t = u_1"])
        assert code == 3

    def test_scope_error_order_above_nine(self, tmp_path):
        # u_10 would render in the basis but cannot be parsed back
        code, data = run_json(
            tmp_path,
            ["--eq", "u_t = u_2", "--order", "10", "--jetdeg", "1", "--ydeg", "0"],
        )
        assert code == 3
        assert data["error"]["kind"] == "scope"
        assert "u_9" in data["error"]["message"]

    @pytest.mark.parametrize(
        "extra",
        [["--order", "-1"], ["--ydeg", "-1"], ["--target", "u_1"], ["--target", "u_100"]],
    )
    def test_scope_error_bad_cap_or_target(self, tmp_path, extra):
        code, data = run_json(tmp_path, ["--eq", "u_t = u_2"] + extra)
        assert code == 3
        assert data["error"]["kind"] == "scope"

    @pytest.mark.parametrize("mode", ["structure", "criterion"])
    def test_scope_error_target_t(self, tmp_path, mode):
        # the ansatz holds no t, so a t-verdict would certify nothing
        code, data = run_json(
            tmp_path, ["--eq", "u_t = u_2", "--mode", mode, "--target", "t"]
        )
        assert code == 3
        assert data["error"]["kind"] == "scope"
        assert "holds no t" in data["error"]["message"]

    @pytest.mark.parametrize(
        "char, words",
        [("u^100000000", "exponent"), ("(u + u_1 + u_2 + u_3 + u_4 + y)^40", "terms")],
    )
    def test_scope_error_power_too_large(self, tmp_path, char, words):
        # refused before expanding: the first would take 10^8 products
        code, data = run_json(tmp_path, ["--eq", "u_t = u_2", "--check", char])
        assert code == 3
        assert data["error"]["kind"] == "scope"
        assert words in data["error"]["message"]

    def test_scope_error_huge_scan_coefficient(self, tmp_path):
        # pivot 10^20 - lambda^2: refused instead of trial-dividing up to 10^10
        code, data = run_json(
            tmp_path, ["--eq", "u_t = u_2 - 100000000000000000000*u", "--mode", "criterion"]
        )
        assert code == 3
        assert data["error"]["kind"] == "scope"
        assert "21-digit" in data["error"]["message"]

    def test_large_scan_coefficient_below_bound(self, tmp_path):
        code, data = run_json(
            tmp_path, ["--eq", "u_t = u_2 - 1000000*u", "--mode", "criterion"]
        )
        assert code == 0
        assert data["lambda_scan"]["candidates"] == ["-1000", "0", "1000"]

    def test_check_mode_without_characteristics_is_usage_error(self, tmp_path):
        code, data = run_json(tmp_path, ["--eq", "u_t = u_2", "--mode", "check"])
        assert code == 1
        assert data["error"]["kind"] == "error"

    def test_closure_violation(self, tmp_path):
        code, data = run_json(
            tmp_path,
            ["--eq", "u_t = u_2 + u^2", "--target", "u", "--mode", "structure",
             "--lambda", "none"],
        )
        assert code == 4
        assert data["error"]["kind"] == "closure"

    def test_unresolved_spectrum(self, tmp_path):
        code, data = run_json(
            tmp_path, ["--eq", "u_t = u_2 + u", "--mode", "criterion"]
        )
        assert code == 5
        assert data["error"]["kind"] == "spectrum"
        assert data["error"]["factors"] == ["lambda^2 + 1"]

    @pytest.mark.parametrize("weights", ["none", "1"])
    def test_declared_weights_report_unresolved_factors(self, tmp_path, weights):
        # the verdict is relative to the declared weights, so the factor the
        # scan cannot resolve is a note, not an undecided run
        code, data = run_json(
            tmp_path, ["--eq", "u_t = u_2 + u", "--mode", "criterion", "--lambda", weights]
        )
        assert code == 0
        assert data["criterion"]["exists"] is False
        assert any("lambda^2 + 1" in note for note in data["notes"])

    def test_scope_error_too_many_root_candidates(self, tmp_path):
        # both coefficients are below 10^12, but their divisors give 737280
        # candidate roots; the search is refused instead of run
        code, data = run_json_subprocess(
            tmp_path,
            ["--eq", "u_t = u_2 - 435656388001/1816214400*u", "--mode", "criterion"],
            timeout=30,
        )
        assert code == 3
        assert data["error"]["kind"] == "scope"
        assert "737280 candidate roots" in data["error"]["message"]

    def test_scope_error_ansatz_too_large(self, tmp_path):
        # C(9+1+6, 6) * 10 = 80080 generators: refused before any is built,
        # where enumerating and assembling them would run for minutes
        code, data = run_json_subprocess(
            tmp_path,
            ["--eq", "u_t = u_2", "--mode", "solve", "--order", "9", "--jetdeg", "6",
             "--ydeg", "9", "--lambda", "none"],
            timeout=20,
        )
        assert code == 3
        assert data["error"]["kind"] == "scope"
        assert "80080 generators" in data["error"]["message"]

    @pytest.mark.parametrize(
        "args, words",
        [
            (["--eq", "u_t = u_2 - " + "7" * 5000 + "*u", "--mode", "solve",
              "--lambda", "none"], "5000-digit numeral"),
            (["--eq", "u_t = u_2", "--check", "(" + "7" * 3000 + ")^2*u^2"],
             "19931-bit numerator"),
        ],
    )
    def test_scope_error_numeral_too_large(self, tmp_path, args, words):
        # Python converts at most 4300 digits between int and str: the first
        # numeral could not be read, the squared coefficient not rendered
        code, data = run_json_subprocess(tmp_path, args, timeout=30)
        assert code == 3
        assert data["error"]["kind"] == "scope"
        assert words in data["error"]["message"]

    def test_bad_lambda_list(self, tmp_path):
        code, data = run_json(tmp_path, ["--eq", "u_t = u_2", "--lambda", "0,x"])
        assert code == 2

    def test_exponent_lambda_refused_at_once(self, tmp_path):
        # read as a numeral, 1e10000000 is a 10-million-digit integer
        code, data = run_json_subprocess(
            tmp_path, ["--eq", "u_t = u_2", "--lambda", "1e10000000"], timeout=10
        )
        assert code == 2
        assert data["error"]["kind"] == "syntax"
        assert "1e10000000" in data["error"]["message"]

    def test_exponent_lambda_writes_error_payload(self, tmp_path):
        # read as a numeral, 1e5000 could not be rendered back to 5001 digits
        code, data = run_json(
            tmp_path, ["--eq", "u_t = u_2", "--lambda", "1e5000", "--mode", "solve"]
        )
        assert code == 2
        assert data["error"]["exit_code"] == 2

    def test_lambda_list_with_fraction(self, tmp_path):
        code, data = run_json(tmp_path, ["--eq", "u_t = u_2", "--lambda", "1, -1/2"])
        assert code == 0
        assert data["config"]["lambda_weights"] == ["1", "-1/2"]

    @pytest.mark.parametrize("lam", ["-1/2", "-1/2,0"])
    def test_negative_lambda_list(self, tmp_path, lam):
        # a value that starts with a minus sign is the weight list, as in
        # --lambda=-1/2, not an option
        code, data = run_json(tmp_path, ["--eq", "u_t = u_2", "--lambda", lam])
        assert code == 0
        assert data["resolved_weights"] == ["-1/2", "0"]

    def test_option_after_lambda_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--eq", "u_t = u_2", "--lambda", "--mode", "solve"])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err

    def test_lambda_numeral_above_cap(self, tmp_path):
        code, data = run_json(tmp_path, ["--eq", "u_t = u_2", "--lambda", "7" * 4001])
        assert code == 3
        assert "4001-digit numeral" in data["error"]["message"]

    def test_errors_not_written_as_reports(self, tmp_path):
        path = tmp_path / "err.json"
        code = main(["--eq", "u_t = u_2 +", "--json", str(path)])
        assert code == 2
        data = json.loads(path.read_text(encoding="utf-8"))
        assert set(data) == {"schema", "error"}
        assert data["error"]["exit_code"] == 2
