"""Frozen golden reports: the CLI's JSON output must stay byte-identical.

Each fixture in ``tests/golden/`` holds the exact bytes ``jetsym --json``
wrote for one command line, including the exit code's error payload for
the failing runs.  A refactor that changes any answer, ordering or
normalization shows up here as a byte difference.  For a few of those
command lines, the ``.txt`` fixture holds the text report the same run
writes to stdout without ``--json``.
"""

from pathlib import Path

import pytest

from jetsym.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

# fixture name -> (argv without --json, expected exit code)
CASES = {
    "criterion_heat": (["--eq", "u_t = u_2", "--mode", "criterion"], 0),
    "criterion_decay": (["--eq", "u_t = u_2 - u", "--mode", "criterion"], 0),
    "criterion_kdv_ydeg1": (
        ["--eq", "u_t = u_3 + u*u_1", "--mode", "criterion", "--ydeg", "1"],
        0,
    ),
    "structure_heat_target_u": (
        ["--eq", "u_t = u_2", "--mode", "structure", "--target", "u"],
        0,
    ),
    "structure_burgers_potential": (
        ["--eq", "u_t = u_2 + u_1^2", "--mode", "structure", "--order", "3"],
        0,
    ),
    "criterion_explicit_weights": (
        ["--eq", "u_t = u_2 - 4*u", "--mode", "criterion", "--lambda", "1,2,-2"],
        0,
    ),
    "solve_heat_no_weights": (
        ["--eq", "u_t = u_2", "--mode", "solve", "--lambda", "none"],
        0,
    ),
    "check_heat": (
        ["--eq", "u_t = u_2", "--check", "u_1", "--check", "u_1^2"],
        0,
    ),
    "check_burgers_potential": (
        ["--eq", "u_t = u_2 + u_1^2", "--check", "exp(-u)", "--check", "y*exp(-u)",
         "--check", "exp(y)*u", "--check", "(u + u_1 + u_2 + u_3 + y)^4"],
        0,
    ),
    "check_rational": (
        ["--eq", "u_t = 2/3*u_2 - 1/4*u_1^2", "--check", "3/5*exp(1/2*y)*u_1",
         "--check", "(1/2*u + 2/3*u_1 - y)^3", "--check", "u_1", "--check", "exp(3/8*u)"],
        0,
    ),
    "criterion_unresolved_declared_weights": (
        ["--eq", "u_t = u_2 + u", "--mode", "criterion", "--lambda", "none"],
        0,
    ),
    "error_syntax": (["--eq", "u_t = u_2 +"], 2),
    "error_scope": (["--eq", "u_t = y*u_2"], 3),
    "error_closure": (
        ["--eq", "u_t = u_2 + u^2", "--target", "u", "--mode", "structure",
         "--lambda", "none"],
        4,
    ),
    "error_spectrum": (["--eq", "u_t = u_2 + u", "--mode", "criterion"], 5),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_matches_golden(name, tmp_path):
    argv, expected_code = CASES[name]
    out = tmp_path / f"{name}.json"
    assert main(argv + ["--json", str(out)]) == expected_code
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.json").read_bytes()


TEXT_CASES = ("check_heat", "criterion_heat", "structure_heat_target_u")


@pytest.mark.parametrize("name", TEXT_CASES)
def test_text_report_matches_golden(name, capsys):
    argv, expected_code = CASES[name]
    assert main(argv) == expected_code
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN_DIR / f"{name}.txt").read_bytes()
