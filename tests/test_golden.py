"""Frozen golden reports: the CLI's JSON output must stay byte-identical.

Each fixture in ``tests/golden/`` holds the exact bytes ``jetsym --json``
wrote for one command line, including the exit code's error payload for
the failing runs.  A refactor that changes any answer, ordering or
normalization shows up here as a byte difference.  For a few of those
command lines, the ``.txt`` fixture holds the text report the same run
writes to stdout without ``--json``.  Every successful run writes its text
report as a rendering of its JSON document, which the last test checks
for each command line.
"""

import json
from pathlib import Path

import pytest

from jetsym.cli import main
from jetsym.report import human_text

GOLDEN_DIR = Path(__file__).parent / "golden"

# fixture name -> (argv without --json, expected exit code)
CASES = {
    "criterion_heat": (["--eq", "u_t = u_2", "--mode", "criterion"], 0),
    "criterion_decay": (["--eq", "u_t = u_2 - u", "--mode", "criterion"], 0),
    # D_G = 4: candidates -1/2, 0, 1/2, and the chains at fractional weights
    "criterion_rational_decay": (["--eq", "u_t = u_2 - 1/4*u", "--mode", "criterion"], 0),
    # a chain of length 2 at the nonzero weight 1: exp(y), exp(y)*y
    "criterion_double_weight": (
        ["--eq", "u_t = u_2 - 2*u_1 + u", "--mode", "criterion", "--order", "2",
         "--jetdeg", "1", "--ydeg", "3"],
        0,
    ),
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
    # a defect of 1305 terms, then leading negative signs, a bare negative
    # constant and a fractional negative weight; "--check=" lets a
    # characteristic start with "-"
    "check_large_power": (
        ["--eq", "u_t = u_3 + u*u_1", "--check", "(u + u_1 + u_2 + u_3 + y)^6",
         "--check=-exp(-u)", "--check=-1", "--check=-3/2*exp(-1/2*y)*u_1"],
        0,
    ),
    # powers of u next to exp(-u) and exp(y/2): d/du's power and exponential
    # parts, and the D_y terms of exp(-u), land on different keys
    "check_exp_power": (
        ["--eq", "u_t = u_2", "--check", "exp(1/2*y)*(u + u_1 + u_2 + exp(-u)*u_3)^5",
         "--check", "u*exp(-u)*u_3"],
        0,
    ),
    # exp(y)*exp(-y) and exp(u)*exp(-u) cancel to the constant exponential
    # part, where products of exponential-free terms land too
    "check_weight_cancellation": (
        ["--eq", "u_t = u_2 + u_1^2",
         "--check", "(exp(y) - 2*exp(-y) + u)^3*(exp(-u)*u_1 + exp(u))^2",
         "--check", "(exp(y) - exp(-y))*(exp(y) + exp(-y))"],
        0,
    ),
    # 990 of the 1001 columns are eliminated by unit_core; the residual
    # factor comes from the core it leaves
    "solve_order6_linear": (
        ["--eq", "u_t = u_6 + 4*u_4 + 5*u_2 + 2*u", "--mode", "solve", "--order", "9",
         "--jetdeg", "4", "--ydeg", "0"],
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
    # D > 1: the scan's integer core and rank_modulo on the system times 15
    "error_spectrum_rational": (
        ["--eq", "u_t = u_2 - 1/3*u + 2/5*u_1", "--mode", "criterion", "--order", "9",
         "--jetdeg", "3", "--ydeg", "5"],
        5,
    ),
    # rank_modulo meets a zero divisor in the core and splits the residual;
    # the parts of one rank come back as one factor
    "error_spectrum_split": (
        ["--eq", "u_t = u_5 + 6*u_1 + 5*u_3", "--mode", "criterion", "--order", "3",
         "--jetdeg", "2", "--ydeg", "0"],
        5,
    ),
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


@pytest.mark.parametrize("name", sorted(n for n, (_, code) in CASES.items() if code == 0))
def test_text_report_renders_the_json_document(name, tmp_path, capsys):
    argv, _ = CASES[name]
    out = tmp_path / f"{name}.json"
    assert main(argv + ["--json", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert capsys.readouterr().out == human_text(doc)
