"""Acceptance suite: one test per exit criterion, each printing a verdict line.

All comparisons are exact (rational arithmetic, no tolerances).  Run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from jetsym.cli import main
from jetsym.engine import (
    build_ansatz,
    check_dimension_bounds,
    is_symmetry,
    lambda_candidates,
    lie_bracket,
    solve_symmetries,
)
from jetsym.errors import ClosureViolationError, InternalInconsistencyError
from jetsym.expr import (
    ExpPolyElement,
    ExpPolyExpr,
    U,
    Y,
    jet,
    monomial_coordinates,
)
from jetsym.linalg import RatMatrix, char_poly, in_span
from jetsym.parser import parse_equation, parse_expression
from jetsym.structure import (
    apply_shift,
    decompose_shift_action,
    dependence_criterion,
    dependence_criterion_direct,
    reduce_to_special,
    shift_matrices,
)

F = Fraction
E = parse_expression

HEAT = parse_equation("u_t = u_2")
DECAY = parse_equation("u_t = u_2 - u")
GROWTH = parse_equation("u_t = u_2 + u")
KDV = parse_equation("u_t = u_3 + u*u_1")
BURGERS = parse_equation("u_t = u_2 + u*u_1")


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS  {text}")


def test_acceptance_1_heat_first_order_solve():
    basis = solve_symmetries(build_ansatz(1, 1, 1, weights=(0,)), HEAT)
    assert [e.render() for e in basis.elements] == ["1", "y", "u", "u_1"]
    assert basis.dims[1] == 4
    checks = check_dimension_bounds(basis)
    order1 = next(c for c in checks if c.q == 1)
    assert (order1.value, order1.bound, order1.passed) == (4, 5, True)
    report(1, "heat basis {1, y, u, u_1}, v(1)=4 <= d+3=5")


def test_acceptance_2_exponential_weight_scan():
    scan = lambda_candidates(build_ansatz(0, 0, 0), DECAY)
    assert scan.candidates == (F(-1), F(1))
    found = {}
    for w in scan.candidates:
        basis = solve_symmetries(build_ansatz(0, 0, 0, weights=(w,)), DECAY)
        assert len(basis.elements) == 1
        assert is_symmetry(basis.elements[0], DECAY)
        found[w] = basis.elements[0].render()
    assert found == {F(1): "exp(y)", F(-1): "exp(-y)"}
    report(2, "weight candidates {-1, 1}; exp(y) and exp(-y) verified symmetries")


def test_acceptance_3_criterion_verdicts():
    # heat: linear-in-y witness with a nonzero linear coefficient
    heat_verdict = dependence_criterion_direct(HEAT, 3, 2)
    assert heat_verdict.exists
    assert heat_verdict.witness.lambdas == (F(0),)
    assert not heat_verdict.witness.coefficient((1,)).is_zero()
    # decay: exponential witness at weight one
    decay_verdict = dependence_criterion_direct(DECAY, 3, 2)
    assert decay_verdict.exists
    assert decay_verdict.witness.lambdas == (F(1),)
    # KdV at the stated caps: no y-dependent symmetry, ansatz-relative;
    # confirmed against the exhaustively solved determining system
    kdv_verdict = dependence_criterion_direct(KDV, 3, 2)
    assert not kdv_verdict.exists
    assert kdv_verdict.certificate["kind"] == "ansatz-exhaustive"
    kdv_basis = solve_symmetries(build_ansatz(3, 1, 2, weights=(0,)), KDV)
    assert kdv_basis.elements
    assert all(not e.depends_on(Y) for e in kdv_basis.elements)
    assert all(w == 0 for w in kdv_verdict.lambda_scan.candidates)
    report(3, "heat: linear witness; u_2 - u: weight-1 witness; KdV: not exists")


def test_acceptance_4_biconditional_property():
    equations = [HEAT, DECAY, GROWTH, KDV, BURGERS, parse_equation("u_t = u_2 + u^2")]
    agreements = 0
    for eq in equations:
        scan = lambda_candidates(build_ansatz(3, 0, 2), eq)
        weights = tuple(sorted(set(scan.candidates) | {F(0)}))
        basis = solve_symmetries(build_ansatz(3, 2, 2, weights=weights), eq)
        if not basis.elements:
            continue
        for target in (Y, U):
            try:
                action = shift_matrices(basis, (target,))
            except ClosureViolationError:
                continue
            decomposition = decompose_shift_action(action)
            full = dependence_criterion(basis, (target,), target, decomposition=decomposition)
            direct_dependence = any(e.depends_on(target) for e in basis.elements)
            assert full.exists == direct_dependence
            if target == Y:
                direct = dependence_criterion_direct(eq, 3, 2, target)
                assert direct.exists == full.exists
            agreements += 1
    assert agreements >= 8
    report(4, f"criterion biconditional held on {agreements}/{agreements} cases")


def test_acceptance_5_structure_round_trip():
    basis = solve_symmetries(build_ansatz(1, 1, 1, weights=(0,)), HEAT)
    decomposition = decompose_shift_action(shift_matrices(basis, (Y,)))
    sizes = [b.size for b in decomposition.blocks]
    assert sizes == [2, 1, 1]
    assert decomposition.block_count == 3
    assert sum(sizes) == 4
    eye = RatMatrix.identity(4)
    assert decomposition.from_block_coords @ decomposition.to_block_coords == eye
    assert decomposition.to_block_coords @ decomposition.from_block_coords == eye
    for block in decomposition.blocks:
        assert block.eigenvalues == (F(0),)
        for el in block.elements:
            expr = el.reconstruct()
            assert is_symmetry(expr, HEAT)
            q = max(expr.order(), 0)
            assert max(m.power(Y) for m in expr.terms) <= basis.dims[q] - 1
    report(5, "heat blocks sizes (2,1,1), rho=3, change of basis invertible")


def _synthetic_corpus():
    rng = random.Random(1009)
    weight_pool = [F(0), F(1), F(-1), F(2), F(-2)]
    coeff_pool = [E("1"), E("u_1"), E("u_2"), E("u_1 + u_2"), E("2*u_1^2")]
    corpus = []
    for _ in range(12):
        lam = rng.choice(weight_pool)
        k = rng.randint(1, 4)
        corpus.append(
            ExpPolyElement((Y,), (lam,), {(j,): rng.choice(coeff_pool) for j in range(k)})
        )
    for _ in range(8):
        lam = (rng.choice(weight_pool), rng.choice(weight_pool))
        k1, k2 = rng.randint(1, 3), rng.randint(1, 3)
        corpus.append(
            ExpPolyElement(
                (Y, U),
                lam,
                {(a, b): rng.choice(coeff_pool) for a in range(k1) for b in range(k2)},
            )
        )
    corpus.append(ExpPolyElement((Y, U), (F(0), F(0)), {(1, 1): E("1"), (0, 2): E("1")}))
    corpus.append(ExpPolyElement((Y,), (F(0),), {(0,): E("u_1"), (2,): E("u_2")}))
    return corpus


def test_acceptance_6_reduction_suite():
    corpus = _synthetic_corpus()
    assert len(corpus) >= 20
    inconsistencies = 0
    reductions = 0
    for element in corpus:
        expr = element.reconstruct()
        for target in element.selected:
            try:
                special = reduce_to_special(element, target)
            except InternalInconsistencyError:
                inconsistencies += 1
                continue
            for j, _ in special.table:
                assert all(js <= eps for js, eps in zip(j, special.epsilons))
            if expr.depends_on(target):
                assert special.is_witness_for(target)
            closure = []
            for exps in itertools.product(*(range(k) for k in element.degrees)):
                lowered = expr
                for c, lam, a in zip(element.selected, element.lambdas, exps):
                    lowered = apply_shift(lowered, c, lam, a)
                if not lowered.is_zero():
                    closure.append(lowered)
            _, vectors = monomial_coordinates(closure + [special.expression()])
            assert in_span(vectors[:-1], vectors[-1])
            reductions += 1
    assert inconsistencies == 0
    report(6, f"{reductions} reductions, degrees within caps, zero inconsistencies")


def _random_expr(rng):
    terms = ExpPolyExpr.zero()
    for _ in range(rng.randint(1, 4)):
        coeff = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
        powers = {}
        for c in (Y, U, jet(1), jet(2)):
            p = rng.choice([0, 0, 0, 1, 2])
            if p:
                powers[c] = p
        expvec = {}
        w = rng.choice([0, 0, 0, -1, 1])
        if w:
            expvec[Y] = F(w)
        if rng.random() < 0.15:
            expvec[U] = F(rng.choice([-1, 1]))
        terms = terms + ExpPolyExpr.monomial(coeff, powers, expvec)
    return terms


def test_acceptance_7_algebra_identities():
    rng = random.Random(2027)
    cases = 0
    for _ in range(200):
        a, b = _random_expr(rng), _random_expr(rng)
        assert (a * b).total_derive_y() == a.total_derive_y() * b + a * b.total_derive_y()
        cases += 1
    for _ in range(200):
        e = _random_expr(rng)
        l = rng.randint(0, 3)
        commutator = e.total_derive_y().partial_derive(jet(l)) - e.partial_derive(
            jet(l)
        ).total_derive_y()
        if l == 0:
            assert commutator.is_zero()
        else:
            assert commutator == e.partial_derive(jet(l - 1))
        cases += 1
    for _ in range(200):
        n = rng.choice((2, 3))
        m = RatMatrix(
            [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)]
        )
        assert char_poly(m).eval_matrix(m).is_zero()
        cases += 1
    heat_basis = solve_symmetries(build_ansatz(1, 1, 1, weights=(0,)), HEAT)
    for a, b in itertools.product(heat_basis.elements, repeat=2):
        assert is_symmetry(lie_bracket(a, b), HEAT)
        cases += 1
    assert cases >= 200 * 3
    report(7, f"{cases} randomized identity checks (Leibniz, commutator, CH, brackets)")


def test_acceptance_8_cli_golden_and_error_codes(tmp_path):
    golden_args = [
        ["--eq", "u_t = u_2", "--mode", "criterion"],
        ["--eq", "u_t = u_2 - u", "--mode", "criterion"],
        ["--eq", "u_t = u_3 + u*u_1", "--mode", "criterion", "--ydeg", "1"],
    ]
    payloads = []
    for i, args in enumerate(golden_args):
        started = time.monotonic()
        p1 = tmp_path / f"run{i}a.json"
        p2 = tmp_path / f"run{i}b.json"
        assert main(args + ["--json", str(p1)]) == 0
        assert main(args + ["--json", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
        assert time.monotonic() - started < 10.0  # two runs, each well under 5s
        payloads.append(json.loads(p1.read_text(encoding="utf-8")))
    assert payloads[0]["criterion"] == {
        "target": "y",
        "exists": True,
        "method": "direct-linear",
        "witness": "y",
        "witness_weights": {"y": "0"},
        "certificate": None,
    }
    assert payloads[1]["criterion"]["witness"] == "exp(y)"
    assert payloads[1]["lambda_scan"]["candidates"] == ["-1", "0", "1"]
    assert payloads[2]["criterion"]["exists"] is False
    assert payloads[2]["criterion"]["certificate"]["kind"] == "ansatz-exhaustive"

    err = tmp_path / "err.json"

    def error_kind(args):
        code = main(args + ["--json", str(err)])
        return code, json.loads(err.read_text(encoding="utf-8"))["error"]

    code, payload = error_kind(["--eq", "u_t = u_2 +"])
    assert (code, payload["kind"]) == (2, "syntax")
    code, payload = error_kind(["--eq", "u_t = y*u_2"])
    assert (code, payload["kind"]) == (3, "scope")
    code, payload = error_kind(
        ["--eq", "u_t = u_2 + u^2", "--target", "u", "--mode", "structure",
         "--lambda", "none"]
    )
    assert (code, payload["kind"]) == (4, "closure")
    code, payload = error_kind(["--eq", "u_t = u_2 + u", "--mode", "criterion"])
    assert (code, payload["kind"]) == (5, "spectrum")
    assert payload["factors"] == ["lambda^2 + 1"]
    report(8, "golden JSON byte-identical; exit codes 2/3/4/5 all exercised")
