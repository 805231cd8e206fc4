"""Shift-action decomposition, special-form reduction, and the dependence criterion."""

import itertools
import random
from fractions import Fraction

import pytest

from jetsym.engine import build_ansatz, is_symmetry, solve_symmetries
from jetsym.errors import (
    ClosureViolationError,
    InternalInconsistencyError,
    JetsymError,
)
from jetsym.expr import (
    ExpPolyElement,
    ExpPolyExpr,
    U,
    Y,
    canonical_exp_poly,
    jet,
    monomial_coordinates,
)
from jetsym.linalg import (
    RatMatrix,
    char_poly,
    generalized_eigenspace,
    in_span,
    jordan_chains,
    rational_roots,
)
from jetsym.parser import parse_equation, parse_expression
from jetsym.structure import (
    SelectedVariables,
    ShiftAction,
    _restricted_matrix,
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
LINEAR_DECAY = parse_equation("u_t = u_2 - u")
LINEAR_GROWTH = parse_equation("u_t = u_2 + u")
KDV = parse_equation("u_t = u_3 + u*u_1")
BURGERS = parse_equation("u_t = u_2 + u*u_1")


def heat_basis():
    return solve_symmetries(build_ansatz(1, 1, 1, weights=(0,)), HEAT)


class TestSelectedVariables:
    def test_rejects_jets(self):
        with pytest.raises(ValueError):
            SelectedVariables((jet(1),))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            SelectedVariables((Y, Y))


class TestShiftMatrices:
    def test_heat_nilpotent(self):
        action = shift_matrices(heat_basis(), (Y,))
        m = action.matrices[0]
        # y maps to 1 and everything else dies
        expected = RatMatrix(
            [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        )
        assert m == expected
        assert (m @ m).is_zero()

    def test_exponential_diagonal(self):
        action = shift_matrices([E("exp(y)"), E("exp(-y)")], (Y,))
        assert action.matrices[0] == RatMatrix([[1, 0], [0, -1]])

    def test_closure_violation(self):
        with pytest.raises(ClosureViolationError) as info:
            shift_matrices([E("u"), E("y*u_1")], (Y,))
        assert info.value.coord == Y

    def test_columns_reproduce_derivatives(self):
        basis = solve_symmetries(build_ansatz(3, 3, 2, weights=(0,)), HEAT)
        action = shift_matrices(basis, (Y,))
        m = action.matrices[0]
        for j, e in enumerate(basis.elements):
            derived = e.partial_derive(Y)
            rebuilt = ExpPolyExpr.zero()
            for i, src in enumerate(basis.elements):
                if m[i, j]:
                    rebuilt = rebuilt + src.scale(m[i, j])
            assert rebuilt == derived

    def test_commutation_two_variables(self):
        # spans closed under both y- and u-shifts
        cases = [
            [E("1"), E("y"), E("u"), E("y*u")],
            [E("exp(y)"), E("exp(y)*u"), E("exp(y)*u^2")],
            [E("exp(y)*exp(2*u)"), E("exp(-y)*exp(2*u)")],
            [E("1"), E("y"), E("y^2"), E("u"), E("y*u"), E("u^2")],
        ]
        for elements in cases:
            action = shift_matrices(elements, (Y, U))
            a, b = action.matrices
            assert a @ b == b @ a


class TestDecomposition:
    def test_heat_blocks(self):
        decomp = decompose_shift_action(shift_matrices(heat_basis(), (Y,)))
        assert decomp.block_count == 3
        assert [b.size for b in decomp.blocks] == [2, 1, 1]
        assert sum(b.size for b in decomp.blocks) == 4
        chain = decomp.blocks[0]
        assert [el.reconstruct().render() for el in chain.elements] == ["1", "y"]
        assert chain.degrees == (2,)

    def test_exponential_blocks(self):
        action = shift_matrices([E("exp(y)"), E("exp(-y)")], (Y,))
        decomp = decompose_shift_action(action)
        assert [b.eigenvalues for b in decomp.blocks] == [(F(-1),), (F(1),)]
        assert all(b.size == 1 and b.degrees == (1,) for b in decomp.blocks)

    def test_change_of_basis_roundtrip(self):
        for eq, weights in ((HEAT, (0,)), (LINEAR_DECAY, (0, 1, -1))):
            basis = solve_symmetries(build_ansatz(3, 3, 2, weights=weights), eq)
            decomp = decompose_shift_action(shift_matrices(basis, (Y,)))
            n = len(basis.elements)
            eye = RatMatrix.identity(n)
            assert decomp.from_block_coords @ decomp.to_block_coords == eye
            assert decomp.to_block_coords @ decomp.from_block_coords == eye
            assert sum(b.size for b in decomp.blocks) == n

    def test_decomposed_elements_stay_symmetries(self):
        basis = solve_symmetries(build_ansatz(3, 3, 2, weights=(0, 1, -1)), LINEAR_DECAY)
        decomp = decompose_shift_action(shift_matrices(basis, (Y,)))
        for block in decomp.blocks:
            for el in block.elements:
                expr = el.reconstruct()
                assert is_symmetry(expr, LINEAR_DECAY)
                assert el.lambdas == block.eigenvalues

    def test_polynomial_degree_bound(self):
        # weight-zero bases: polynomial y-degree stays below the dimension
        for eq in (HEAT, KDV, BURGERS):
            basis = solve_symmetries(build_ansatz(3, 3, 2, weights=(0,)), eq)
            if not basis.elements:
                continue
            decomp = decompose_shift_action(shift_matrices(basis, (Y,)))
            for block in decomp.blocks:
                for el in block.elements:
                    expr = el.reconstruct()
                    q = max(expr.order(), 0)
                    assert max(m.power(Y) for m in expr.terms) <= basis.dims[q] - 1

    def test_two_variable_refinement(self):
        elements = [E("exp(y)*exp(2*u)"), E("exp(-y)*exp(2*u)"), E("1"), E("u")]
        decomp = decompose_shift_action(shift_matrices(elements, (Y, U)))
        eigs = [b.eigenvalues for b in decomp.blocks]
        assert (F(-1), F(2)) in eigs and (F(1), F(2)) in eigs
        zero_blocks = [b for b in decomp.blocks if b.eigenvalues == (F(0), F(0))]
        assert sum(b.size for b in zero_blocks) == 2

    def test_contradictory_raw_action_refused(self):
        # d/dy kills u and u_1, so this rotation cannot be their shift action;
        # only hand-built matrix data reaches it, and it is refused as a bug
        fake = ShiftAction(
            elements=(E("u"), E("u_1")),
            selected=SelectedVariables((Y,)),
            matrices=(RatMatrix([[0, 1], [-1, 0]]),),
        )
        with pytest.raises(JetsymError) as info:
            decompose_shift_action(fake)
        assert info.value.kind == "internal"

    def test_determinism(self):
        runs = []
        for _ in range(2):
            basis = solve_symmetries(
                build_ansatz(3, 3, 2, weights=(0, 1, -1)), LINEAR_DECAY
            )
            decomp = decompose_shift_action(shift_matrices(basis, (Y,)))
            runs.append(
                [
                    (b.eigenvalues, b.size, [el.reconstruct().render() for el in b.elements])
                    for b in decomp.blocks
                ]
            )
        assert runs[0] == runs[1]


def reference_spaces(action):
    """Joint generalized eigenspaces by coordinate-wise spectral refinement.

    Independent of the monomial weights: per coordinate, the rational roots
    of a characteristic polynomial, then one generalized eigenspace per root
    inside each space found so far.
    """
    n = len(action.elements)
    identity = [tuple(F(int(i == j)) for i in range(n)) for j in range(n)]
    spaces = [((), identity)]
    for matrix in action.matrices:
        refined = []
        for eigs, cols in spaces:
            restricted = _restricted_matrix(matrix, cols)
            roots, residual = rational_roots(char_poly(restricted))
            assert residual.degree < 1
            sub = RatMatrix.from_columns(cols)
            for lam, _ in roots:
                local = generalized_eigenspace(restricted, lam)
                refined.append((eigs + (lam,), [sub.apply(v) for v in local]))
        spaces = refined
    return sorted(spaces, key=lambda ec: ec[0])


def reference_blocks(action):
    """(eigenvalues, size, vectors, rendered elements) per chain block."""
    blocks = []
    for eigs, cols in reference_spaces(action):
        sub = RatMatrix.from_columns(cols)
        restricted = _restricted_matrix(action.matrices[0], cols)
        for chain in jordan_chains(restricted, eigs[0]):
            vecs = [sub.apply(v) for v in reversed(chain)]
            rendered = []
            for v in vecs:
                e = ExpPolyExpr.zero()
                for coeff, src in zip(v, action.elements):
                    e = e + src.scale(coeff)
                rendered.append(e.render())
            blocks.append((eigs, len(vecs), vecs, rendered))
    return sorted(blocks, key=lambda b: (b[0], -b[1]))


class TestWeightClasses:
    """The weight-class decomposition against the spectral reference."""

    @pytest.mark.parametrize(
        "eq, weights, target",
        [
            (HEAT, (0,), Y),
            (LINEAR_DECAY, (-1, 0, 1), Y),
            (parse_equation("u_t = u_2 - 4*u"), (-2, 0, 1, 2), Y),
            (parse_equation("u_t = u_2 + u_1^2"), (0,), Y),
            (HEAT, (0,), U),
        ],
    )
    def test_single_coordinate_matches_reference(self, eq, weights, target):
        basis = solve_symmetries(build_ansatz(3, 3, 2, weights=weights), eq)
        action = shift_matrices(basis, (target,))
        got = [
            (b.eigenvalues, b.size, list(b.vectors),
             [el.reconstruct().render() for el in b.elements])
            for b in decompose_shift_action(action).blocks
        ]
        assert got == reference_blocks(action)

    @pytest.mark.parametrize(
        "elements",
        [
            ["1", "y", "u", "y*u"],
            ["exp(y)", "exp(y)*u", "exp(y)*u^2"],
            ["exp(y)*exp(2*u)", "exp(-y)*exp(2*u)", "1", "u"],
            ["1", "y", "y^2", "u", "y*u", "u^2"],
            ["exp(y) + exp(2*u)", "exp(y)", "y*exp(-u)*u_1", "exp(-u)*u_1"],
        ],
    )
    def test_two_coordinates_match_reference_classes(self, elements):
        action = shift_matrices([E(t) for t in elements], (Y, U))
        dims = {}
        for b in decompose_shift_action(action).blocks:
            dims[b.eigenvalues] = dims.get(b.eigenvalues, 0) + b.size
        assert sorted(dims.items()) == [
            (eigs, len(cols)) for eigs, cols in reference_spaces(action)
        ]


class TestApplyShift:
    def test_kills_low_degree_at_nonzero_weight(self):
        e = E("exp(2*y)*u + exp(2*y)*y*u_1")
        assert apply_shift(e, Y, 2, 1) == E("exp(2*y)*u_1")

    def test_plain_derivative(self):
        e = E("u + y*u + y^2*u_1")
        assert apply_shift(e, Y, 0, 1) == E("u + 2*y*u_1")

    def test_zero_times(self):
        e = E("u + y*u")
        assert apply_shift(e, Y, 0, 0) == e


def synthetic_elements():
    """Corpus of exponential-polynomial elements for the reduction suite.

    Mixed weights in {0, +-1, +-2}, degrees up to 4, one or two selected
    coordinates; coefficient tables are dense rectangles (with a few
    handpicked sparse shapes that exercise the fallback search).
    """
    rng = random.Random(97)
    weight_pool = [F(0), F(1), F(-1), F(2), F(-2)]
    coeff_pool = [E("1"), E("u_1"), E("u_2"), E("u_1 + u_2"), E("2*u_1^2"), E("u_1*u_2")]
    corpus = []
    # one selected coordinate
    for _ in range(12):
        lam = rng.choice(weight_pool)
        k = rng.randint(1, 4)
        table = {(j,): rng.choice(coeff_pool) for j in range(k)}
        corpus.append(ExpPolyElement((Y,), (lam,), table))
    # two selected coordinates
    for _ in range(8):
        lam = (rng.choice(weight_pool), rng.choice(weight_pool))
        k1, k2 = rng.randint(1, 3), rng.randint(1, 3)
        table = {
            (j1, j2): rng.choice(coeff_pool)
            for j1 in range(k1)
            for j2 in range(k2)
        }
        corpus.append(ExpPolyElement((Y, U), lam, table))
    # sparse shapes that defeat the greedy exponents but not the search
    corpus.append(
        ExpPolyElement((Y, U), (F(0), F(0)), {(1, 1): E("1"), (0, 2): E("1")})
    )
    corpus.append(
        ExpPolyElement((Y,), (F(0),), {(0,): E("u_1"), (2,): E("u_2")})
    )
    corpus.append(
        ExpPolyElement((Y, U), (F(2), F(0)), {(1, 0): E("u_1"), (0, 1): E("u_2"), (1, 1): E("1")})
    )
    return corpus


def shift_closure_span(element: ExpPolyElement):
    """Span of all lowered copies of the element, as coordinate vectors."""
    exprs = []
    ranges = [range(k) for k in element.degrees]
    base = element.reconstruct()
    for exps in itertools.product(*ranges):
        e = base
        for c, lam, a in zip(element.selected, element.lambdas, exps):
            e = apply_shift(e, c, lam, a)
        if not e.is_zero():
            exprs.append(e)
    return exprs


class TestReduceToSpecial:
    def test_nonzero_weight_single_step(self):
        el = canonical_exp_poly(E("exp(2*y)*u + exp(2*y)*y*u_1"), (Y,))
        sp = reduce_to_special(el, Y)
        assert sp.lambdas == (F(2),)
        assert sp.epsilons == (0,)
        assert sp.coefficient((0,)) == E("u_1")

    def test_zero_weight_one_derivative(self):
        el = canonical_exp_poly(E("u + y*u + y^2*u_1"), (Y,))
        sp = reduce_to_special(el, Y)
        assert sp.epsilons == (1,)
        assert sp.coefficient((0,)) == E("u")
        assert sp.coefficient((1,)) == E("2*u_1")

    def test_independent_element_unchanged(self):
        el = canonical_exp_poly(E("u_1"), (Y,))
        sp = reduce_to_special(el, Y)
        assert sp.expression() == E("u_1")
        assert not sp.is_witness_for(Y)

    def test_reduction_suite(self):
        corpus = synthetic_elements()
        assert len(corpus) >= 20
        inconsistencies = 0
        for element in corpus:
            expr = element.reconstruct()
            for target in element.selected:
                try:
                    sp = reduce_to_special(element, target)
                except InternalInconsistencyError:
                    inconsistencies += 1
                    continue
                # degree caps
                for j, _ in sp.table:
                    for js, eps in zip(j, sp.epsilons):
                        assert js <= eps
                # witness whenever the input depends on the target
                if expr.depends_on(target):
                    assert sp.is_witness_for(target)
                # span membership in the shift closure of the input
                closure = shift_closure_span(element)
                _, vectors = monomial_coordinates(closure + [sp.expression()])
                assert in_span(vectors[:-1], vectors[-1])
        assert inconsistencies == 0


class TestCriterion:
    def test_heat_full(self):
        verdict = dependence_criterion(heat_basis(), (Y,), Y)
        assert verdict.exists
        assert verdict.witness_expression == E("y")
        assert verdict.witness.is_witness_for(Y)

    def test_restricted_basis_no_dependence(self):
        verdict = dependence_criterion([E("u"), E("u_1")], (Y,), Y)
        assert not verdict.exists
        assert verdict.certificate["kind"] == "ansatz-exhaustive"

    def test_exponential_witness(self):
        verdict = dependence_criterion([E("exp(y)"), E("exp(-y)")], (Y,), Y)
        assert verdict.exists
        assert verdict.witness.lambdas[0] != 0

    def test_direct_heat_linear_shape(self):
        verdict = dependence_criterion_direct(HEAT, 0, 1)
        assert verdict.exists
        assert verdict.method == "direct-linear"
        assert verdict.witness_expression == E("y")

    def test_direct_decay_exponential_shape(self):
        verdict = dependence_criterion_direct(LINEAR_DECAY, 0, 0)
        assert verdict.exists
        assert verdict.method == "direct-exponential"
        assert verdict.witness.lambdas == (F(1),)

    def test_direct_assembles_only_the_y_free_system(self, monkeypatch):
        # shape (b) is a chain of length 2 of the y-free system at weight 0
        import jetsym.structure

        calls = []
        original = jetsym.structure.determining_system

        def recording(ansatz, eq):
            calls.append(ansatz.generators)
            return original(ansatz, eq)

        monkeypatch.setattr(jetsym.structure, "determining_system", recording)
        verdict = dependence_criterion_direct(HEAT, 2, 2)
        assert verdict.method == "direct-linear" and verdict.witness_expression == E("y")
        (gens,) = calls
        assert gens and not any(g.depends_on(Y) for g in gens)

    def test_direct_kdv_not_exists(self):
        verdict = dependence_criterion_direct(KDV, 3, 2)
        assert not verdict.exists
        assert verdict.certificate["kind"] == "ansatz-exhaustive"

    def test_biconditional_battery(self):
        equations = [HEAT, LINEAR_DECAY, LINEAR_GROWTH, KDV, BURGERS,
                     parse_equation("u_t = u_2 + u^2")]
        checked = 0
        for eq in equations:
            from jetsym.engine import lambda_candidates

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
                decomp = decompose_shift_action(action)
                full = dependence_criterion(basis, (target,), target, decomposition=decomp)
                want = any(e.depends_on(target) for e in basis.elements)
                assert full.exists == want
                if target == Y:
                    direct = dependence_criterion_direct(eq, 3, 2, target)
                    assert direct.exists == full.exists
                checked += 1
        assert checked >= 8

    def test_witness_is_symmetry_and_in_span(self):
        basis = solve_symmetries(build_ansatz(3, 3, 2, weights=(0, 1, -1)), LINEAR_DECAY)
        verdict = dependence_criterion(basis, (Y,), Y)
        assert verdict.exists
        assert is_symmetry(verdict.witness_expression, LINEAR_DECAY)
        _, vectors = monomial_coordinates(
            list(basis.elements) + [verdict.witness_expression]
        )
        assert in_span(vectors[:-1], vectors[-1])
