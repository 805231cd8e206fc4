"""Command-line front end.

Exit codes: 0 success, 2 syntax error, 3 scope error, 4 closure
violation, 5 unresolved spectrum, 1 anything else.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .errors import (
    ClosureViolationError,
    JetsymError,
    ParseError,
    UnresolvedSpectrumError,
)
from .parser import parse_expression
from .report import RunConfig, emit_report, error_to_dict, run_pipeline

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_SYNTAX = 2
EXIT_SCOPE = 3
EXIT_CLOSURE = 4
EXIT_SPECTRUM = 5


def exit_code_for(err: Exception) -> int:
    if isinstance(err, ParseError):
        return EXIT_SYNTAX
    if isinstance(err, UnresolvedSpectrumError):
        return EXIT_SPECTRUM
    if isinstance(err, ClosureViolationError):
        return EXIT_CLOSURE
    if isinstance(err, JetsymError) and err.kind == "scope":
        return EXIT_SCOPE
    return EXIT_OTHER


def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="jetsym",
        description=(
            "Exact symmetry analysis of scalar evolution equations u_t = G(u, u_1, ..., u_d): "
            "solve determining equations, decompose the shift action, and decide whether "
            "symmetries depending on a selected variable exist."
        ),
    )
    p.add_argument("--eq", required=True, help="equation text, e.g. 'u_t = u_2'")
    p.add_argument("--order", type=int, default=3, help="order cap for characteristics")
    p.add_argument("--ydeg", type=int, default=3, help="maximal power of y in the ansatz")
    p.add_argument(
        "--jetdeg", type=int, default=2, help="maximal total degree in jet coordinates"
    )
    p.add_argument(
        "--lambda",
        dest="lam",
        default="auto",
        help="exponential weights: 'auto', 'none', or a comma list like '0,1,-1'",
    )
    p.add_argument(
        "--mode",
        choices=("solve", "structure", "criterion", "check"),
        default="solve",
        help="how far to run the pipeline",
    )
    p.add_argument("--target", default="y", help="selected variable (t, y or u)")
    p.add_argument(
        "--check",
        action="append",
        default=[],
        metavar="EXPR",
        help="characteristic to verify (mode=check); repeatable",
    )
    p.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the JSON report to PATH ('-' for stdout instead of the text report)",
    )
    p.add_argument(
        "--timing", action="store_true", help="include wall-clock timing in the report"
    )
    return p


def _weight(text: str) -> Fraction:
    """One --lambda entry, a rational constant read under the parser's numeral caps."""
    try:
        e = parse_expression(text)
        if any(m.powers or m.expvec for m in e.terms):
            raise ParseError("not a rational constant")
    except ParseError as exc:
        raise ParseError(f"bad --lambda entry {text.strip()!r}: {exc}") from exc
    return e.terms[0].coeff if e.terms else Fraction(0)


def config_from_args(args) -> RunConfig:
    lam = args.lam.strip()
    if lam == "auto":
        lambda_mode, weights = "auto", ()
    elif lam == "none":
        lambda_mode, weights = "none", ()
    else:
        weights = tuple(_weight(part) for part in lam.split(",") if part.strip())
        lambda_mode = "explicit"
    mode = args.mode
    if args.check and mode != "check":
        mode = "check"
    return RunConfig(
        equation=args.eq,
        mode=mode,
        order_cap=args.order,
        y_degree=args.ydeg,
        jet_degree=args.jetdeg,
        lambda_mode=lambda_mode,
        lambda_weights=weights,
        target=args.target,
        checks=tuple(args.check),
        include_timing=args.timing,
    )


def _write_json(path: str, payload: bytes):
    if path == "-":
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as fh:
            fh.write(payload)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a --lambda value such as -1/2 as an option: join it on
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--lambda" and re.match(r"-[^A-Za-z-]", argv[i]):
            argv[i - 1 : i + 1] = ["--lambda=" + argv[i]]
    args = build_arg_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        report = run_pipeline(cfg)
    except JetsymError as err:
        code = exit_code_for(err)
        print(f"jetsym: error: {err}", file=sys.stderr)
        if args.json:
            payload = (
                json.dumps(error_to_dict(err, code), indent=2) + "\n"
            ).encode("utf-8")
            try:
                _write_json(args.json, payload)
            except OSError as io_err:
                print(f"jetsym: error: {io_err}", file=sys.stderr)
                return EXIT_OTHER
        return code
    try:
        if args.json:
            _write_json(args.json, emit_report(report, "json"))
            if args.json != "-":
                sys.stdout.write(emit_report(report, "human").decode("utf-8"))
        else:
            sys.stdout.write(emit_report(report, "human").decode("utf-8"))
    except OSError as io_err:
        print(f"jetsym: error: {io_err}", file=sys.stderr)
        return EXIT_OTHER
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
