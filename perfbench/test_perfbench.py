"""Tests of the benchmark itself: generator claims, tracer, and a smoke run.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402
from jetsym import linalg  # noqa: E402
from jetsym.engine import symmetry_defect  # noqa: E402
from jetsym.expr import Y  # noqa: E402
from jetsym.parser import parse_characteristic, parse_equation  # noqa: E402
from jetsym.structure import dependence_criterion_direct  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _defect(eq_text, char_text):
    return symmetry_defect(parse_characteristic(char_text), parse_equation(eq_text))


@pytest.mark.parametrize(
    "eq, char", [(eq, k) for eq, ks in workloads.SYMMETRIES.items() for k in ks]
)
def test_listed_symmetries_have_zero_defect(eq, char):
    assert _defect(eq, char).is_zero()


@pytest.mark.parametrize(
    "eq, char", [(eq, n) for eq, ns in workloads.NON_SYMMETRIES.items() for n in ns]
)
def test_listed_non_symmetries_have_nonzero_defect(eq, char):
    assert not _defect(eq, char).is_zero()


@pytest.mark.parametrize("c", workloads.C_POOL)
def test_decay_instances_have_witness_exp_cy(c):
    eq = parse_equation(f"u_t = u_2 - {c * c}*u")
    verdict = dependence_criterion_direct(eq, 3, 2, Y)
    assert verdict.exists
    assert verdict.witness_expression.render() == f"exp({c}*y)"
    assert verdict.lambda_scan.candidates == (-c, Fraction(0), c)


def test_seeded_decay_items_expect_their_rate():
    seen = set()
    for seed in range(1, 40):
        item = workloads.criterion_goldens(seed)[1]
        c = Fraction(item.expect["witness_weights"]["y"])
        assert c in workloads.C_POOL
        assert item.argv[1] == f"u_t = u_2 - {c * c}*u"
        seen.add(c)
    assert seen == set(workloads.C_POOL)


def test_default_seed_is_acceptance_8():
    argvs = [item.argv for item in workloads.criterion_goldens(workloads.DEFAULT_SEED)]
    assert argvs == [
        ("--eq", "u_t = u_2", "--mode", "criterion"),
        ("--eq", "u_t = u_2 - u", "--mode", "criterion"),
        ("--eq", "u_t = u_3 + u*u_1", "--mode", "criterion", "--ydeg", "1"),
        ("--eq", "u_t = u_2 + u", "--mode", "criterion"),
        ("--eq", "u_t = u_2 + u^2", "--target", "u", "--mode", "structure",
         "--lambda", "none"),
    ]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_items(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)


def test_check_items_follow_linearity():
    for item in workloads.check_batch(11):
        checks = [a for i, a in enumerate(item.argv) if item.argv[i - 1] == "--check"]
        eq = item.argv[1]
        assert len(checks) == len(item.expect["symmetry"])
        for text, flag in zip(checks, item.expect["symmetry"]):
            assert _defect(eq, text).is_zero() == flag


def test_tracer_patches_every_namespace_and_restores():
    import jetsym.engine
    import jetsym.structure

    original = linalg.nullspace
    t = tracer.Tracer()
    t.install()
    try:
        assert jetsym.engine.nullspace is linalg.nullspace is not original
        assert jetsym.structure.rref is linalg.rref
        root = t.open_root("probe")
        linalg.nullspace(linalg.RatMatrix([[1, 2], [2, 4]]))
        t.close_root(root)
    finally:
        t.uninstall()
    assert linalg.nullspace is original and jetsym.engine.nullspace is original
    assert t.counts["linalg.nullspace.calls"] == 1
    assert t.counts["linalg.rref.calls"] == 1
    assert t.counts["linalg.nullspace.cells"] == 4
    names = [s[tracer.NAME] for s in t.spans]
    assert names == ["analysis:probe", "linalg.nullspace", "linalg.rref"]
    spans = t.spans
    selfs = t.self_times()
    whole = spans[1][tracer.END] - spans[1][tracer.START]
    child = spans[2][tracer.END] - spans[2][tracer.START]
    assert selfs["linalg.nullspace"] == pytest.approx(whole - child)
    assert selfs["linalg.rref"] == pytest.approx(child)


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py"] + args,
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize(
    "workload, trace",
    [(w, 0) for w in sorted(workloads.WORKLOADS)] + [("check-batch", 1)],
)
def test_smoke_run(workload, trace):
    done = _run(
        ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        ROOT,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = _run(
        ["--workload", "check-batch", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path
    )
    assert done.returncode != 0
    assert done.stdout == ""
