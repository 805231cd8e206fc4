"""jetsym benchmark: run one workload, check every output, print metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload criterion-goldens --seed 0 --seconds 40 --trace 0

Each analysis goes through the public entry point
``jetsym.cli.main(argv + ["--json", <file>])`` in this process, one at a
time.  The analyses are run round-robin, in a fixed order, until the
next one would end after ``--seconds``.  With ``--trace 0`` the run
reports the end-to-end metrics of BENCHMARK.json, with times scaled by a
speed probe (see PROBE_REF_S); with ``--trace 1`` it
alternates untraced and traced repeats and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  README.md explains
the workloads, the metrics and the choice of estimators.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shlex
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

# Fresh interpreters that import jetsym.cli: one before each pass over the
# items, so the samples spread over the run, and at least SETUP_SAMPLES.
SETUP_SAMPLES = 15
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import jetsym.cli; print(time.perf_counter() - t)"
)


# On a shared host, other tenants slow this process down by up to 2x, in
# episodes of seconds to minutes.  A fixed exact-arithmetic probe that never
# touches jetsym runs before every analysis, and reported times are scaled
# by PROBE_REF_S / (median probe time of the run): they are seconds on a
# machine where the probe takes PROBE_REF_S, about its uncontended time on
# a 2-core Xeon (Sapphire Rapids) VM.  README.md shows the effect.
PROBE_REF_S = 0.04


def probe() -> float:
    """Seconds for a fixed Fraction elimination and dict accumulation."""
    started = time.perf_counter()
    n = 20
    m = [[Fraction((i * 7 + j * 13) % 17 - 8, 1 + (i * j) % 5) for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    acc = {}
    for i in range(50):
        for j in range(50):
            key = (i + j, (i * j) % 7)
            acc[key] = acc.get(key, 0) + Fraction(i - j, 1 + i + j)
    return time.perf_counter() - started


def import_cli():
    sys.path.insert(0, str(SRC))
    import jetsym.cli

    return jetsym.cli


def setup_sample() -> float:
    """Seconds a fresh process takes to import jetsym.cli."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(done.stdout)


def decisive(code: int, payload: dict) -> dict:
    """The fields of a report that carry its verdict."""
    out = {"exit": code}
    if "error" in payload:
        err = payload["error"]
        out["kind"] = err["kind"]
        out["factors"] = err.get("factors", [])
        return out
    scan = payload.get("lambda_scan")
    if scan is not None:
        out["candidates"] = scan["candidates"]
        out["residual_factors"] = scan["residual_factors"]
    crit = payload.get("criterion")
    if crit is not None:
        out["exists"] = crit["exists"]
        out["method"] = crit["method"]
        out["witness"] = crit["witness"]
        out["witness_weights"] = crit["witness_weights"]
        out["certificate_kind"] = (crit["certificate"] or {}).get("kind")
    if payload.get("checks") is not None:
        out["symmetry"] = [c["symmetry"] for c in payload["checks"]]
    return out


def golden_key(item) -> str:
    return shlex.join(item.argv)


class Batch:
    """Runs a workload's items through jetsym.cli.main and checks each output."""

    def __init__(self, cli, items, golden: dict):
        self.cli = cli
        self.items = items
        self.golden = golden
        self.report = OUT / f"report-{os.getpid()}.json"
        self.times = {item.name: [] for item in items}
        self.attempted = 0
        self.failed = 0

    def run_item(self, item, tracer=None):
        """Time one analysis; returns (seconds, exit code, JSON bytes or None)."""
        self.report.unlink(missing_ok=True)
        argv = list(item.argv) + ["--json", str(self.report)]
        sink = io.StringIO()
        root = tracer.open_root(item.name) if tracer else None
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
        except Exception:
            code = None
            traceback.print_exc()
        seconds = time.perf_counter() - started
        if tracer:
            tracer.close_root(root)
        data = self.report.read_bytes() if self.report.exists() else None
        return seconds, code, data

    def check(self, item, code, data) -> bool:
        if code is None or data is None:
            print(f"FAIL {item.name}: no report (exit {code})", file=sys.stderr)
            return False
        got = decisive(code, json.loads(data))
        wrong = {k: got.get(k) for k, v in item.expect.items() if k not in got or got[k] != v}
        if wrong:
            print(f"FAIL {item.name}: got {wrong}, expected {item.expect}", file=sys.stderr)
            return False
        digest = self.golden.get(golden_key(item))
        if digest is not None and hashlib.sha256(data).hexdigest() != digest:
            print(f"FAIL {item.name}: JSON differs from the stored digest", file=sys.stderr)
            return False
        return True

    def run(self, item, tracer=None):
        """Run and check one analysis; untraced times are kept per item."""
        seconds, code, data = self.run_item(item, tracer)
        self.attempted += 1
        if not self.check(item, code, data):
            self.failed += 1
        if tracer is None:
            self.times[item.name].append(seconds)

    def repeat(self, tracer=None) -> float:
        """Run every item once, in order; returns the repeat's wall seconds."""
        started = time.perf_counter()
        for item in self.items:
            self.run(item, tracer)
        return time.perf_counter() - started


def until(seconds: float, step):
    """Call step() until the next call would end after `seconds`; at least once."""
    started = time.perf_counter()
    while True:
        last = step()
        if time.perf_counter() - started + last > seconds:
            return


def round_robin(batch: Batch, seconds: float, setups: list, probes: list):
    """Cycle through the items until the next one would end after `seconds`.

    Each item's previous time predicts its next; every item runs at least
    once.  A setup sample is taken before each pass, a probe before each item.
    """
    started = time.perf_counter()
    while True:
        setups.append(setup_sample())
        for item in batch.items:
            previous = batch.times[item.name]
            if previous and time.perf_counter() - started + previous[-1] > seconds:
                return
            probes.append(probe())
            batch.run(item)


def end_to_end(batch: Batch, seconds: float) -> dict:
    setups, probes = [], []
    round_robin(batch, seconds, setups, probes)
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample())
    scale = PROBE_REF_S / statistics.median(probes)
    medians = {}
    for name, ts in batch.times.items():
        medians[name] = statistics.median(ts)
        print(
            f"item {name}: {len(ts)} repeats, median {medians[name]:.4f} s, "
            "all " + " ".join(f"{t:.4f}" for t in ts)
        )
    print(f"setup: {len(setups)} imports, median {statistics.median(setups):.4f} s")
    print(
        f"probe: {len(probes)} samples, median {statistics.median(probes):.4f} s, "
        f"scale {scale:.4f}; unscaled batch {sum(medians.values()):.4f} s"
    )
    return {
        "wall_s": sum(medians.values()) * scale,
        "slowest_item_s": max(medians.values()) * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups) * scale,
    }


def per_layer(batch: Batch, seconds: float, trace_path: Path) -> dict:
    plain, traced = [], []

    def round_trip():
        plain.append(batch.repeat())
        tracer = Tracer()
        tracer.install()
        try:
            wall = batch.repeat(tracer)
        finally:
            tracer.uninstall()
        traced.append((wall, tracer))
        return plain[-1] + wall

    until(seconds, round_trip)
    counts = {repr(sorted(t.counts.items())) for _, t in traced}
    if len(counts) != 1:
        print("warning: layer counts differ between traced repeats", file=sys.stderr)
    _, tracer = min(traced, key=lambda wt: wt[0])
    trace_path.write_text(json.dumps(tracer.dump()) + "\n", encoding="utf-8")
    print(f"trace: {len(traced)} traced repeats, spans written to {trace_path}")
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_frac"] = statistics.median(
        t / p for (t, _), p in zip(traced, plain)
    ) - 1
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description="jetsym benchmark")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "jetsym" / "cli.py").is_file():
        print(f"error: no jetsym sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    batch = Batch(import_cli(), workloads.generate(args.workload, args.seed), golden)
    if args.trace:
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        values = per_layer(batch, args.seconds, trace_path)
    else:
        values = end_to_end(batch, args.seconds)
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]} {m['unit']}")
    print(f"failed_frac = {batch.failed / batch.attempted} ({batch.failed}/{batch.attempted})")
    result = {
        "correct": batch.failed == 0,
        "attempted": batch.attempted,
        "failed": batch.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
