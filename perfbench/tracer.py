"""Per-layer tracing from outside the program.

The tracer replaces each layer's public functions with wrappers that
record a span (name, start, end, parent) and counts.  A function is
replaced in every ``jetsym.*`` namespace that binds it: ``engine`` and
``structure`` use ``from .linalg import nullspace``-style imports, so
patching ``jetsym.linalg`` alone would miss their calls.  Nothing in the
program changes; ``uninstall`` puts every original back, so untimed and
timed batches can alternate in one process.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# metric prefix -> the functions (module, qualified name) it covers.  A
# call nested directly inside a span of the same prefix (parse_characteristic
# calling parse_expression, apply inside apply) is folded into that span.
LAYER_FUNCTIONS = {
    "cli.main": [("jetsym.cli", "main")],
    "report.run_pipeline": [("jetsym.report", "run_pipeline")],
    "report.emit_report": [("jetsym.report", "emit_report")],
    "parser.parse": [
        ("jetsym.parser", "parse_equation"),
        ("jetsym.parser", "parse_characteristic"),
        ("jetsym.parser", "parse_expression"),
    ],
    "engine.determining_system": [("jetsym.engine", "determining_system")],
    "engine.solve_symmetries": [("jetsym.engine", "solve_symmetries")],
    "engine.lambda_candidates": [("jetsym.engine", "lambda_candidates")],
    "engine.symmetry_defect": [("jetsym.engine", "symmetry_defect")],
    "expr.frechet": [("jetsym.expr", "ExpPolyExpr.frechet")],
    "expr.apply": [
        ("jetsym.expr", "LinearDiffOp.apply"),
        ("jetsym.expr", "LinearDiffOp.apply_shifted"),
    ],
    "linalg.nullspace": [("jetsym.linalg", "nullspace")],
    "linalg.rref": [("jetsym.linalg", "rref")],
    "linalg.solve": [("jetsym.linalg", "solve")],
    "linalg.in_span": [("jetsym.linalg", "in_span")],
    "linalg.char_poly": [("jetsym.linalg", "char_poly")],
    "linalg.generalized_eigenspace": [("jetsym.linalg", "generalized_eigenspace")],
    "linalg.jordan_chains": [("jetsym.linalg", "jordan_chains")],
    "linalg.poly_matrix_pivots": [("jetsym.linalg", "poly_matrix_pivots")],
    "linalg.rational_roots": [("jetsym.linalg", "rational_roots")],
    "linalg.rank_modulo": [("jetsym.linalg", "rank_modulo")],
    "structure.shift_matrices": [("jetsym.structure", "shift_matrices")],
    "structure.decompose_shift_action": [("jetsym.structure", "decompose_shift_action")],
    "structure.dependence_criterion": [("jetsym.structure", "dependence_criterion")],
    "structure.dependence_criterion_direct": [
        ("jetsym.structure", "dependence_criterion_direct")
    ],
    "structure.reduce_to_special": [("jetsym.structure", "reduce_to_special")],
}

# Counts recorded next to the spans; hooks below fill them in.
EXTRA_COUNTS = (
    "linalg.nullspace.cells",
    "linalg.poly_matrix_pivots.cells",
    "engine.system.rows",
    "engine.system.cols",
    "engine.system.nnz",
    "engine.scan.pivots",
    "engine.scan.distinct_pivots",
    "engine.scan.roots_tried",
    "engine.scan.roots_verified",
)

NAME, START, END, PARENT = range(4)


class Tracer:
    """Spans kept in memory with parent links, plus counters."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = Counter()
        self._stack = []
        self._scan_roots = set()
        self._restore = []
        self._hooks = {
            "linalg.nullspace": self._count_nullspace,
            "linalg.poly_matrix_pivots": self._count_poly_pivots,
            "linalg.rational_roots": self._count_scan_roots,
            "engine.determining_system": self._count_system,
            "engine.lambda_candidates": self._count_scan,
        }

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every function in LAYER_FUNCTIONS; jetsym must be imported."""
        packages = [
            m for name, m in sys.modules.items()
            if name == "jetsym" or name.startswith("jetsym.")
        ]
        for layer, targets in LAYER_FUNCTIONS.items():
            for module_name, qualname in targets:
                module = importlib.import_module(module_name)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, self._wrap(layer, original))
                    continue
                original = getattr(module, qualname)
                wrapper = self._wrap(layer, original)
                for ns in packages:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, layer, fn):
        spans, stack = self.spans, self._stack
        hook = self._hooks.get(layer)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][NAME] == layer:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [layer, clock(), None, stack[-1] if stack else None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            self.counts[layer + ".calls"] += 1
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    # -- analysis roots -------------------------------------------------

    def open_root(self, label: str) -> int:
        """Start the root span of one analysis; its index identifies the request."""
        index = len(self.spans)
        self.spans.append([f"analysis:{label}", time.perf_counter(), None, None])
        self._stack.append(index)
        return index

    def close_root(self, index: int):
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    # -- count hooks ----------------------------------------------------

    def _count_nullspace(self, args, result):
        m = args[0]
        self.counts["linalg.nullspace.cells"] += m.rows * m.cols

    def _count_poly_pivots(self, args, result):
        rows = args[0]
        self.counts["linalg.poly_matrix_pivots.cells"] += len(rows) * (
            len(rows[0]) if rows else 0
        )

    def _count_scan_roots(self, args, result):
        if any(self.spans[i][NAME] == "engine.lambda_candidates" for i in self._stack):
            self._scan_roots.update(root for root, _ in result[0])

    def _count_system(self, args, result):
        c = self.counts
        c["engine.system.rows"] += len(result.rows)
        c["engine.system.cols"] += len(result.generators)
        if result.symbolic:
            c["engine.system.nnz"] += sum(
                1 for row in result.rows for p in row if not p.is_zero()
            )
        else:
            c["engine.system.nnz"] += sum(1 for row in result.rows for x in row if x != 0)

    def _count_scan(self, args, result):
        c = self.counts
        c["engine.scan.pivots"] += len(result.pivots)
        c["engine.scan.distinct_pivots"] += len(set(result.pivots))
        c["engine.scan.roots_tried"] += len(self._scan_roots)
        c["engine.scan.roots_verified"] += len(result.candidates)
        self._scan_roots.clear()

    # -- results --------------------------------------------------------

    def self_times(self) -> dict:
        """Seconds per layer: span time minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                child[span[PARENT]] += span[END] - span[START]
        out = {layer: 0.0 for layer in LAYER_FUNCTIONS}
        for i, span in enumerate(self.spans):
            if span[NAME] in out:
                out[span[NAME]] += span[END] - span[START] - child[i]
        return out

    def layer_metrics(self) -> dict:
        """Per-layer self seconds and counts, keyed by metric name."""
        metrics = {}
        for layer, seconds in self.self_times().items():
            metrics[f"{layer}.s"] = seconds
            metrics[f"{layer}.calls"] = self.counts[f"{layer}.calls"]
        for name in EXTRA_COUNTS:
            metrics[name] = self.counts[name]
        return metrics

    def dump(self) -> dict:
        """Spans in a JSON-ready form, times relative to the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        return {
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [s[NAME], s[START] - t0, s[END] - t0, s[PARENT]] for s in self.spans
            ],
            "counts": dict(self.counts),
        }
