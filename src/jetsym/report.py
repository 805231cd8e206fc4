"""Pipeline orchestration and deterministic report rendering.

A run parses the equation, assembles one y-free symbolic determining system,
resolves the exponential weights from it, solves it at those weights,
optionally decomposes the shift action and decides the dependence
criterion, and packages everything into a :class:`Report`.
:func:`report_to_dict` is the one place that turns those pipeline objects
into strings: it builds the run's report document, whose JSON rendering is
byte-stable for a fixed configuration, and :func:`human_text` lays out the
same document's strings as the text report.  All rationals are serialized
as strings to avoid any precision loss.
"""

from __future__ import annotations

import json
import time

from . import engine, structure
from .engine import EvolutionEquation, _Record, build_ansatz, symmetry_defect
from .errors import (
    EmptyAnsatzError,
    InternalInconsistencyError,
    JetsymError,
    ScopeError,
    UnresolvedSpectrumError,
)
from .expr import Coord, T, Y, coord_by_name
from .linalg import ZERO, _frac
from .parser import parse_characteristic, parse_equation

SCHEMA_VERSION = 1

MODES = ("solve", "structure", "criterion", "check")


class RunConfig(_Record):
    """Everything one run needs; immutable so reruns are reproducible."""

    equation: str
    mode: str = "solve"
    order_cap: int = 3
    y_degree: int = 3
    jet_degree: int = 2
    lambda_mode: str = "auto"  # "auto", "none", or "explicit"
    lambda_weights: tuple = ()  # used when lambda_mode == "explicit"
    target: str = "y"
    checks: tuple = ()
    include_timing: bool = False

    def target_coord(self) -> Coord:
        c = coord_by_name(self.target)
        if c is None or not c.is_zero_jet:
            raise ScopeError(f"target must be one of t, y, u; got {self.target!r}")
        return c

    def validate(self):
        if self.mode not in MODES:
            raise JetsymError(f"unknown mode {self.mode!r}")
        if min(self.order_cap, self.y_degree, self.jet_degree) < 0:
            raise EmptyAnsatzError("caps must be non-negative")
        if self.order_cap > 9:
            # rendered characteristics must re-parse, and the grammar stops at u_9
            raise ScopeError(
                f"order cap {self.order_cap} exceeds 9: jet coordinates end at u_9"
            )
        if self.mode == "check" and not self.checks:
            raise JetsymError("check mode requires at least one characteristic")
        if self.target_coord() == T and self.mode in ("structure", "criterion"):
            # characteristics are enumerated without t, so a t-verdict
            # would hold for every equation and certify nothing
            raise ScopeError(
                "target t is not supported in structure and criterion modes: the "
                "ansatz holds no t, so 'no t-dependent symmetry within the ansatz' "
                "would be vacuous"
            )


class Report(_Record):
    """Structured pipeline output; :func:`report_to_dict` renders it."""

    __setattr__ = object.__setattr__  # the pipeline fills a report in

    config: RunConfig
    equation: EvolutionEquation
    resolved_weights: tuple | None = None
    lambda_scan: engine.LambdaScan | None = None
    basis: engine.SymmetryBasis | None = None
    bounds: tuple | None = None
    action: structure.ShiftAction | None = None
    decomposition: structure.BlockDecomposition | None = None
    verdict: structure.CriterionVerdict | None = None
    checks: list | None = None
    notes: list = []  # copied per report
    elapsed_ms: int | None = None


def run_pipeline(cfg: RunConfig) -> Report:
    """Execute the configured run; raises the documented error types."""
    cfg.validate()
    started = time.monotonic()
    eq = parse_equation(cfg.equation)
    report = Report(config=cfg, equation=eq)
    target = cfg.target_coord()
    if cfg.mode == "check":
        report.checks = []
        for text in cfg.checks:
            eta = parse_characteristic(text)
            defect = symmetry_defect(eta, eq)
            report.checks.append(
                {
                    "characteristic": eta.render(),
                    "symmetry": defect.is_zero(),
                    "defect": defect.render(),
                }
            )
        _stamp(report, started)
        return report

    # the one enumeration and the one assembly of the run, of its jet
    # monomials; every kernel is read off it as Jordan chains
    caps = build_ansatz(cfg.order_cap, cfg.y_degree, cfg.jet_degree)
    system = engine.determining_system(caps, eq)
    scan = None
    if cfg.lambda_mode == "none":
        weights = (ZERO,)
    elif cfg.lambda_mode == "explicit":
        weights = tuple(sorted({_frac(w) for w in cfg.lambda_weights} | {ZERO}))
    elif cfg.lambda_mode == "auto":
        scan = engine.lambda_candidates(caps, eq, system)
        weights = tuple(sorted(set(scan.candidates) | {ZERO}))
    else:
        raise JetsymError(f"unknown lambda mode {cfg.lambda_mode!r}")
    report.lambda_scan = scan
    report.resolved_weights = weights

    ansatz = caps.replace(weights=weights)  # sorted, distinct and never empty
    basis = engine.solve_symmetries(ansatz, eq, system)
    report.basis = basis
    report.bounds = engine.check_dimension_bounds(basis)
    if scan is not None and scan.residual_factors:
        report.notes.append(
            "exponential-weight scan left rational-root-free factors: "
            + ", ".join(str(f) for f in scan.residual_factors)
        )

    if cfg.mode in ("structure", "criterion") and basis.elements:
        action = structure.shift_matrices(basis, (target,))
        report.action = action
        report.decomposition = structure.decompose_shift_action(action)

    if cfg.mode == "criterion":
        if basis.elements:
            full = structure.dependence_criterion(
                basis, (target,), target, decomposition=report.decomposition
            )
        else:
            full = structure.CriterionVerdict(
                target,
                False,
                "decomposition",
                certificate={"kind": "ansatz-exhaustive", "statement": "empty basis"},
            )
        verdict = full
        if target == Y:
            direct = structure.dependence_criterion_direct(
                eq, cfg.order_cap, cfg.jet_degree, target, scan=scan, basis=basis
            )
            if direct.exists != full.exists:
                raise InternalInconsistencyError(
                    "direct and decomposition criteria disagree: "
                    f"direct={direct.exists}, decomposition={full.exists}"
                )
            verdict = direct
            if direct.lambda_scan is not None:
                report.lambda_scan = direct.lambda_scan
        report.verdict = verdict
        residuals = (
            report.lambda_scan.residual_factors if report.lambda_scan else ()
        )
        # the weight scan speaks about y-exponentials, so only a y-verdict
        # can be contradicted by its unresolved factors, and only when the
        # run claims every weight; with declared weights the verdict is
        # relative to them and the factors are reported
        if target == Y and not verdict.exists and residuals:
            factors = ", ".join(str(f) for f in residuals)
            if cfg.lambda_mode == "auto":
                raise UnresolvedSpectrumError(
                    "the criterion is undecided over the rationals: the weight "
                    "scan has non-rational candidate factors " + factors,
                    factors=residuals,
                )
            report.notes.append(
                "the verdict is relative to the declared weights; the "
                "exponential-weight scan left rational-root-free factors: " + factors
            )
    _stamp(report, started)
    return report


def _stamp(report: Report, started: float):
    if report.config.include_timing:
        report.elapsed_ms = int((time.monotonic() - started) * 1000)


# ---------------------------------------------------------------------------
# rendering


def _weights_dict(selected, weights) -> dict:
    return {c.name: str(w) for c, w in zip(selected, weights)}


def report_to_dict(report: Report) -> dict:
    cfg = report.config
    out = {
        "schema": SCHEMA_VERSION,
        "config": {
            "equation": cfg.equation,
            "mode": cfg.mode,
            "order_cap": cfg.order_cap,
            "y_degree": cfg.y_degree,
            "jet_degree": cfg.jet_degree,
            "lambda_mode": cfg.lambda_mode,
            "lambda_weights": [str(w) for w in cfg.lambda_weights],
            "target": cfg.target,
        },
        "equation": {"rhs": report.equation.rhs.render(), "order": report.equation.order},
        "resolved_weights": (
            [str(w) for w in report.resolved_weights]
            if report.resolved_weights is not None
            else None
        ),
        "lambda_scan": report.lambda_scan.describe() if report.lambda_scan else None,
        "basis": None,
        "bounds": None,
        "shift_matrix": None,
        "blocks": None,
        "criterion": None,
        "checks": report.checks,
        "notes": list(report.notes),
    }
    if report.basis is not None:
        out["basis"] = {
            "elements": [e.render() for e in report.basis.elements],
            "dims": list(report.basis.dims),
            "ansatz": report.basis.ansatz.describe(),
        }
    if report.bounds is not None:
        out["bounds"] = [
            {
                "label": b.label,
                "q": b.q,
                "value": b.value,
                "bound": b.bound,
                "passed": b.passed,
            }
            for b in report.bounds
        ]
    if report.action is not None:
        m = report.action.matrices[0]
        out["shift_matrix"] = [[str(x) for x in m.row(i)] for i in range(m.rows)]
    if report.decomposition is not None:
        decomp = report.decomposition
        out["blocks"] = {
            "count": decomp.block_count,
            "total_size": sum(b.size for b in decomp.blocks),
            "items": [
                {
                    "eigenvalues": _weights_dict(decomp.selected.coords, b.eigenvalues),
                    "size": b.size,
                    "degree_caps": {
                        c.name: k for c, k in zip(decomp.selected.coords, b.degrees)
                    },
                    "elements": [el.reconstruct().render() for el in b.elements],
                }
                for b in decomp.blocks
            ],
        }
    if report.verdict is not None:
        v = report.verdict
        out["criterion"] = {
            "target": v.target.name,
            "exists": v.exists,
            "method": v.method,
            "witness": v.witness_expression.render() if v.witness_expression else None,
            "witness_weights": (
                _weights_dict(v.witness.selected, v.witness.lambdas)
                if v.witness
                else None
            ),
            "certificate": v.certificate,
        }
    if report.elapsed_ms is not None:
        out["timing_ms"] = report.elapsed_ms
    return out


def error_to_dict(err: JetsymError, exit_code: int) -> dict:
    payload = {
        "kind": err.kind,
        "exit_code": exit_code,
        "message": str(err),
    }
    if getattr(err, "position", None) is not None:
        payload["position"] = err.position
    expected = getattr(err, "expected", ())
    if expected:
        payload["expected"] = list(expected)
    factors = getattr(err, "factors", ())
    if factors:
        payload["factors"] = [str(f) for f in factors]
    return {"schema": SCHEMA_VERSION, "error": payload}


def human_text(doc: dict) -> str:
    """The text report: the strings of a :func:`report_to_dict` document, laid out."""
    cfg, eq = doc["config"], doc["equation"]
    lines = [
        f"equation: u_t = {eq['rhs']} (order {eq['order']})",
        f"mode: {cfg['mode']}   caps: order<={cfg['order_cap']} y^<={cfg['y_degree']} "
        f"jets^<={cfg['jet_degree']}   lambda: {cfg['lambda_mode']}",
    ]
    if doc["checks"] is not None:
        for entry in doc["checks"]:
            lines.append(
                f"check {entry['characteristic']}: symmetry: "
                f"{'true' if entry['symmetry'] else 'false'}"
                + ("" if entry["symmetry"] else f"  (defect: {entry['defect']})")
            )
        return "\n".join(lines) + "\n"
    scan = doc["lambda_scan"]
    if scan is not None:
        lines.append(
            "exponential weight candidates: " + (", ".join(scan["candidates"]) or "none")
        )
        lines.extend(f"  unresolved factor: {f}" for f in scan["residual_factors"])
    basis = doc["basis"]
    if basis is not None:
        lines.append(f"basis ({len(basis['elements'])} elements):")
        lines.extend(f"  {e}" for e in basis["elements"])
        lines.append("dimension by order:")
        lines.append("  q     : " + "  ".join(str(q) for q in range(len(basis["dims"]))))
        lines.append("  dim   : " + "  ".join(str(v) for v in basis["dims"]))
    for b in doc["bounds"] or ():
        status = "pass" if b["passed"] else "FAIL"
        lines.append(f"bound {b['label']} (q={b['q']}): {b['value']} <= {b['bound']}  {status}")
    if doc["blocks"] is not None:
        lines.append(f"blocks: {doc['blocks']['count']}")
        for b in doc["blocks"]["items"]:
            eig = ", ".join(f"{c}={w}" for c, w in b["eigenvalues"].items())
            lines.append(f"  [{eig}] size {b['size']}: {'; '.join(b['elements'])}")
    v = doc["criterion"]
    if v is not None:
        if v["exists"]:
            lines.append(
                f"criterion: {v['target']}-dependent symmetry EXISTS; "
                f"witness {v['witness']} ({v['method']})"
            )
        else:
            lines.append(f"criterion: no {v['target']}-dependent symmetry within the ansatz")
    lines.extend(f"note: {note}" for note in doc["notes"])
    if "timing_ms" in doc:
        lines.append(f"elapsed: {doc['timing_ms']} ms")
    return "\n".join(lines) + "\n"


def render(doc: dict, fmt: str = "json") -> bytes:
    """Render a report document; JSON output is byte-stable for a fixed config."""
    if fmt == "json":
        return (json.dumps(doc, indent=2) + "\n").encode("utf-8")
    if fmt == "human":
        return human_text(doc).encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}")


def emit_report(report: Report, fmt: str = "json") -> bytes:
    """Render a report object; see :func:`render`."""
    return render(report_to_dict(report), fmt)
