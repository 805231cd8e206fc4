"""Command-line front end.

A run builds one document, the report of :func:`report.report_to_dict` or
the error payload of :func:`report.error_to_dict`.  ``--json`` writes it
as JSON; a successful run also writes its text report, a rendering of the
same document, to stdout unless the JSON goes there.  An unwritable
``--json`` path exits 1 and writes no text report.

Exit codes: 0 success, 2 syntax error, 3 scope error, 4 closure
violation, 5 unresolved spectrum, 1 anything else.
"""

from __future__ import annotations

import argparse
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
from .report import (
    RunConfig,
    error_to_dict,
    human_text,
    render,
    report_to_dict,
    run_pipeline,
)

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
    p.add_argument("--jetdeg", type=int, default=2, help="maximal total degree in jet coordinates")
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
    p.add_argument("--timing", action="store_true", help="include wall-clock timing in the report")
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
    if lam in ("auto", "none"):
        lambda_mode, weights = lam, ()
    else:
        weights = tuple(_weight(part) for part in lam.split(","))
        lambda_mode = "explicit"
    return RunConfig(
        equation=args.eq,
        mode="check" if args.check else args.mode,
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
    # argparse reads a value such as -1/2 or -exp(-u) as an option: join it on to
    # --lambda, --check or an abbreviation (no other option starts with --l or --c)
    for i, opt in reversed(list(enumerate(argv[:-1]))):
        prefix = len(opt) > 2 and ("--lambda".startswith(opt) or "--check".startswith(opt))
        if prefix and re.match(r"-[^-]", argv[i + 1]):
            argv[i : i + 2] = [opt + "=" + argv[i + 1]]
    args = build_arg_parser().parse_args(argv)
    # one document per run, the report or the error; every output renders it
    try:
        doc, code = report_to_dict(run_pipeline(config_from_args(args))), EXIT_OK
    except JetsymError as err:
        code = exit_code_for(err)
        print(f"jetsym: error: {err}", file=sys.stderr)
        doc = error_to_dict(err, code)
    try:
        if args.json:
            _write_json(args.json, render(doc, "json"))
        if code == EXIT_OK and args.json != "-":
            sys.stdout.write(human_text(doc))
    except OSError as io_err:
        print(f"jetsym: error: {io_err}", file=sys.stderr)
        return EXIT_OTHER
    return code


if __name__ == "__main__":
    sys.exit(main())
