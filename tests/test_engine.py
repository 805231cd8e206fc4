"""Determining systems: worked examples, soundness, and the brute-force oracle."""

import itertools
import random
import sys
import threading
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from jetsym import engine
from jetsym.cli import main
from jetsym.engine import (
    EvolutionEquation,
    build_ansatz,
    characteristic,
    check_dimension_bounds,
    determining_system,
    is_symmetry,
    kernel_at,
    lambda_candidates,
    lie_bracket,
    solve_symmetries,
    symmetry_defect,
)
from jetsym.errors import EmptyAnsatzError, ScopeError
from jetsym.expr import U, Y, ExpPolyExpr, Monomial, combine, jet, monomial_coordinates
from jetsym.linalg import (
    Elimination,
    RatMatrix,
    UniPoly,
    in_span,
    nullspace,
    poly_matrix_pivots,
    rank_modulo,
    rational_roots,
    rref,
    solve as lin_solve,
    unit_core,
)
from jetsym.parser import parse_equation, parse_expression

F = Fraction
E = parse_expression

HEAT = parse_equation("u_t = u_2")
LINEAR_DECAY = parse_equation("u_t = u_2 - u")
LINEAR_GROWTH = parse_equation("u_t = u_2 + u")
KDV = parse_equation("u_t = u_3 + u*u_1")
BURGERS = parse_equation("u_t = u_2 + u*u_1")


class TestEvolutionEquation:
    def test_order_comes_from_rhs(self):
        assert HEAT.order == 2 and KDV.order == 3

    def test_rejects_y(self):
        with pytest.raises(ScopeError):
            EvolutionEquation(E("y*u_2"))

    def test_rejects_low_order(self):
        with pytest.raises(ScopeError):
            EvolutionEquation(E("u_1 + u"))


class TestDefect:
    def test_equation_is_its_own_symmetry(self):
        for eq in (HEAT, LINEAR_DECAY, KDV, BURGERS):
            assert symmetry_defect(eq.rhs, eq).is_zero()

    def test_y_on_heat(self):
        assert symmetry_defect(E("y"), HEAT).is_zero()

    def test_y_u1_on_heat(self):
        assert symmetry_defect(E("y*u_1"), HEAT) == E("-2*u_2")

    def test_is_symmetry_examples(self):
        assert is_symmetry(E("u_1"), HEAT)
        assert is_symmetry(E("exp(y)"), LINEAR_DECAY)
        assert not is_symmetry(E("y*u_1"), HEAT)


def reference_partial(e, c):
    """d/dc term by term from ``Monomial``'s own fields: the power rule, then
    the exponential rule."""
    out = []
    for m in e.terms:
        p, w = m.power(c), m.weight(c)
        if p:
            out.append(Monomial(m.coeff * p, {**dict(m.powers), c: p - 1}, dict(m.expvec)))
        if w:
            out.append(Monomial(m.coeff * w, dict(m.powers), dict(m.expvec)))
    return ExpPolyExpr(out)


def reference_defect(eta, rhs):
    """eta'[G] - G_*[eta] from term-by-term partial derivatives and products
    alone, on the unscaled ``Fraction`` expressions: eta's linearization
    contracted with D_y^j G, minus G's linearization contracted with D_y^j
    eta, with D_y = d/dy + sum_l u_(l+1) d/du_l written out."""

    def derivatives(e, n):
        out = [e]
        for _ in range(n):
            e = out[-1]
            out.append(sum(
                (ExpPolyExpr.coordinate(jet(l + 1)) * reference_partial(e, jet(l)) for l in range(e.order() + 1)),
                reference_partial(e, Y),
            ))
        return out

    def contracted(a, b):
        linearization = [reference_partial(a, jet(l)) for l in range(a.order() + 1)]
        ders = derivatives(b, len(linearization) - 1)
        return sum((c * d for c, d in zip(linearization, ders)), ExpPolyExpr.zero())

    return contracted(eta, rhs) - contracted(rhs, eta)


def only_fractions(e):
    return all(type(m.coeff) is Fraction for m in e.terms)


SMALL_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def rational_equations(draw):
    """u_t = a*u_2 + (rational combination of u, u_1, u_1^2, u*u_1), a != 0."""
    rhs = ExpPolyExpr.monomial(draw(SMALL_RATIONALS.filter(bool)), {jet(2): 1})
    for powers in ({U: 1}, {jet(1): 1}, {jet(1): 2}, {U: 1, jet(1): 1}):
        rhs = rhs + ExpPolyExpr.monomial(draw(SMALL_RATIONALS), powers)
    return EvolutionEquation(rhs)


@st.composite
def rational_characteristics(draw):
    """Sums of rational monomials in y, u, u_1, u_2 with fractional
    exponential weights on y and u."""
    weights = st.sampled_from([F(0), F(0), F(1, 2), F(-2, 3), F(3)])
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        powers = {c: draw(st.integers(0, 2)) for c in (Y, U, jet(1), jet(2))}
        expvec = {Y: draw(weights), U: draw(weights)}
        terms.append(ExpPolyExpr.monomial(draw(SMALL_RATIONALS), powers, expvec))
    return sum(terms, ExpPolyExpr.zero())


# atoms of the characteristics with high powers: products of up to three
# reach u^130, and u_9 takes the chain up to u_11
PACKED_ATOMS = (
    "u^64", "u_1^64", "u^2", "u_1", "u_3", "u_9", "y", "y^3",
    "exp(-u)", "exp(2/3*u)", "exp(1/2*y)",
)


@st.composite
def high_power_characteristics(draw):
    """Sums of rational multiples of products of PACKED_ATOMS."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        atoms = draw(st.lists(st.sampled_from(PACKED_ATOMS), min_size=1, max_size=3))
        terms.append(E("*".join(atoms)).scale(draw(SMALL_RATIONALS.filter(bool))))
    return sum(terms, ExpPolyExpr.zero())


INTEGER_NUMERATORS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


class TestIntegerNumerators:
    """Defects and assembly run on int numerators and divide once; they must
    equal the Fraction computation and hand back only Fraction coefficients."""

    @INTEGER_NUMERATORS
    @given(rational_characteristics(), rational_equations())
    def test_defect_equals_the_fraction_reference(self, eta, eq):
        defect = symmetry_defect(eta, eq)
        assert defect == reference_defect(eta, eq.rhs)
        assert only_fractions(defect)

    @INTEGER_NUMERATORS
    @given(high_power_characteristics(), rational_equations())
    # d/du of u*exp(-u) is (1 - u)*exp(-u): its power and exponential parts
    # cancel if they land on one key
    @example(E("u*exp(-u)*u_3"), HEAT)
    @example(E("u*exp(-u)*u_3"), BURGERS)
    def test_high_powers_and_exponentials(self, eta, eq):
        defect = symmetry_defect(eta, eq)
        assert defect == reference_defect(eta, eq.rhs)
        assert only_fractions(defect)

    @INTEGER_NUMERATORS
    @given(rational_characteristics(), rational_equations(), SMALL_RATIONALS, SMALL_RATIONALS)
    def test_defect_is_one_sorted_sum(self, eta, eq, p, q):
        defect = symmetry_defect(eta, eq)
        assert defect == reference_defect(eta, eq.rhs)
        assert only_fractions(defect) and all(m.coeff for m in defect.terms)
        keys = [m.key for m in defect.terms]
        assert keys == sorted(set(keys))
        # p*G + q*u_1 is a symmetry of every autonomous equation: its pairs
        # cancel to an exact zero, and adding it leaves a defect unchanged
        symmetric = eq.rhs.scale(p) + E("u_1").scale(q)
        assert symmetry_defect(symmetric, eq).is_zero()
        assert symmetry_defect(eta + symmetric, eq) == symmetry_defect(eta, eq)

    @INTEGER_NUMERATORS
    @given(rational_equations(), st.sampled_from([F(0), F(1, 2), F(-5, 3), F(2)]))
    def test_assembly_equals_the_fraction_reference(self, eq, w):
        system = y_multiples_system(build_ansatz(2, 1, 2), eq)
        assert all(type(c) is Fraction for row in system.rows for p in row for c in p.coeffs)
        # column j read back as an expression is exp(-w*y) times the defect
        # of exp(w*y) * generator j
        exp_w, exp_minus_w = ExpPolyExpr.exponential(Y, w), ExpPolyExpr.exponential(Y, -w)
        for j, g in enumerate(system.generators):
            column = sum(
                (
                    ExpPolyExpr.monomial(row[j].eval(w), dict(powers), dict(expvec))
                    for row, (powers, expvec) in zip(system.rows, system.row_shapes)
                ),
                ExpPolyExpr.zero(),
            )
            assert column == exp_minus_w * reference_defect(exp_w * g, eq.rhs)


    def test_rational_generators_share_one_denominator(self):
        # the pipeline's generators are monic; these have denominators 3, 1,
        # 7 and 2 over D_G = 15, so each column is scaled up to 15 * 42; any
        # generators will do, with y powers and exponentials in u too
        eq = parse_equation("u_t = u_2 - 1/3*u + 2/5*u_1")
        gens = tuple(E(t) for t in ("2/3*u_1", "5*u*u_1", "-1/7", "3/2*u", "u_2", "y^2*u_1",
                                    "exp(-u)*u_2", "u*exp(-1/2*u)*u_3"))
        ansatz = build_ansatz(2, 0, 2).replace(generators=gens)
        system = determining_system(ansatz, eq)
        assert system._denominator == 630
        for w in (F(0), F(1, 2)):
            exp_w, exp_minus_w = ExpPolyExpr.exponential(Y, w), ExpPolyExpr.exponential(Y, -w)
            for j, g in enumerate(gens):
                column = sum(
                    (
                        ExpPolyExpr.monomial(row[j].eval(w), dict(powers), dict(expvec))
                        for row, (powers, expvec) in zip(system.rows, system.row_shapes)
                    ),
                    ExpPolyExpr.zero(),
                )
                assert column == exp_minus_w * reference_defect(exp_w * g, eq.rhs)
            reference = reference_system(ansatz.replace(weights=(w,)), eq)
            assert kernel_at(system, w, 0) == nullspace(reference)


class TestLieBracket:
    def test_translations_commute(self):
        assert lie_bracket(E("u_1"), E("u_2")).is_zero()

    def test_antisymmetry_diagonal(self):
        eta = E("u*u_1 + y")
        assert lie_bracket(eta, eta).is_zero()

    def test_constant_against_transport(self):
        assert lie_bracket(E("1"), E("u*u_1")) == E("u_1")

    def test_antisymmetry_random(self):
        rng = random.Random(61)
        pool = [E("u_1"), E("u*u_1"), E("y*u"), E("u_2 + u^2"), E("exp(y)*u")]
        for a, b in itertools.combinations(pool, 2):
            assert lie_bracket(a, b) == -lie_bracket(b, a)


class TestBuildAnsatz:
    def test_affine_enumeration(self):
        a = build_ansatz(0, 1, 1, weights=(0,))
        assert [g.render() for g in a.generators] == ["1", "u"]
        assert [g.render() for g in y_multiples(a)] == ["1", "y", "u", "y*u"]

    def test_first_order_enumeration(self):
        a = build_ansatz(1, 0, 1, weights=(0,))
        assert [g.render() for g in a.generators] == ["1", "u", "u_1"]

    def test_pure_exponential(self):
        a = build_ansatz(0, 0, 0, weights=(2,))
        assert [g.render() for g in weighted_generators(a)] == ["exp(2*y)"]

    @pytest.mark.parametrize("q", range(5))
    @pytest.mark.parametrize("jetdeg", range(4))
    def test_generators_are_the_jet_monomials(self, q, jetdeg):
        # every monic jet monomial of order <= q and degree <= jetdeg, once,
        # at every y-degree: a y power is a column index, never a generator
        count = comb(q + 1 + jetdeg, jetdeg)
        for ydeg in range(4):
            for weights in ((0,), (1, F(-1, 2), 0)):
                a = build_ansatz(q, ydeg, jetdeg, weights=weights)
                gens = a.generators
                assert len(gens) == len(set(gens)) == count
                for g in gens:
                    (m,) = g.terms
                    assert m.coeff == 1 and not m.expvec and not g.depends_on(Y)
                    assert g.order() <= q and m.key[0] <= jetdeg
                assert a.describe()["size"] == count * (ydeg + 1) * len(weights)

    def test_empty_weights_rejected(self):
        with pytest.raises(EmptyAnsatzError):
            build_ansatz(1, 1, 1, weights=())

    def test_negative_caps_rejected(self):
        with pytest.raises(EmptyAnsatzError):
            build_ansatz(-1, 0, 0)


class TestDeterminingSystem:
    def test_translation_only_no_constraints(self):
        a = build_ansatz(1, 0, 1)
        gens = [g.render() for g in a.generators]
        assert gens == ["1", "u", "u_1"]
        s_0 = determining_system(a, HEAT)._expansion(F(0))[1][0]
        col = a.generators.index(E("u_1"))
        assert col not in s_0

    def test_single_constraint_from_y_u1(self):
        system = y_multiples_system(build_ansatz(1, 1, 1), HEAT)
        col = system.generators.index(E("y*u_1"))
        entries = [row[col].eval(0) for row in system.rows]
        nonzero = [x for x in entries if x != 0]
        assert nonzero == [F(-2)]
        labels = row_labels(system)
        row = next(i for i, x in enumerate(entries) if x != 0)
        assert labels[row] == "u_2"
        scale, expansion = system._expansion(F(0))
        assert [(i, F(x, scale)) for i, x in expansion[0][col]] == [(row, F(-2))]

    def test_symbolic_constant_entry(self):
        a = build_ansatz(0, 0, 0)
        system = determining_system(a, LINEAR_DECAY)
        assert system.symbolic
        assert len(system.rows) == 1
        # defect of exp(w*y) is (1 - w^2) exp(w*y); the kernel is unaffected
        assert system.rows[0][0] == UniPoly([1, 0, -1])

    def test_taylor_expansion(self):
        a = build_ansatz(0, 0, 0)
        system = determining_system(a, LINEAR_DECAY)
        # 1 - w^2 vanishes at w = 1, so S(1) has no entry and a kernel
        assert system._expansion(F(1))[1][0] == {}
        assert kernel_at(system, 1, 0) == [(F(1),)]
        # 1 - w^2 = -3 - 4*(w - 2) - (w - 2)^2
        assert system._expansion(F(2)) == (1, [{0: [(0, -3)]}, {0: [(0, -4)]}, {0: [(0, -1)]}])
        assert kernel_at(system, 2, 0) == []


def row_labels(system):
    """Readable name of the monomial each row of ``system`` annihilates."""
    return [
        ExpPolyExpr.monomial(F(1), dict(powers), dict(expvec)).render()
        for powers, expvec in system.row_shapes
    ]


def y_multiples(ansatz):
    """Every y^a * m of the ansatz's jet monomials m, a <= its y-degree, the
    y power innermost, multiplied out: the columns of :func:`kernel_at`."""
    powers = [ExpPolyExpr.monomial(F(1), {Y: a}) for a in range(ansatz.y_degree + 1)]
    return tuple(m * p for m in ansatz.generators for p in powers)


def y_multiples_system(ansatz, eq):
    """The determining system of the products y^a * m themselves."""
    return determining_system(ansatz.replace(generators=y_multiples(ansatz)), eq)


def weighted_generators(ansatz):
    """Every exp(w*y) * y^a * m of the ansatz, weights outermost."""
    return [ExpPolyExpr.exponential(Y, w) * g for w in ansatz.weights for g in y_multiples(ansatz)]


def reference_system(ansatz, eq):
    """Reference fixed-weight assembly, straight from the defects: one row per
    monomial shape of the defects, one column per weighted generator."""
    gens = weighted_generators(ansatz)
    _, columns = monomial_coordinates([symmetry_defect(g, eq) for g in gens])
    return RatMatrix(list(zip(*columns)), cols=len(gens))


def dense_taylor(system, w, p=0):
    """Reference S^(p)(w)/p!, dense: each cell of ``system.rows`` evaluated
    by Horner on C(k, p) * c_k, the coefficients of its p-th derivative
    over p!."""
    return [
        [
            horner([comb(k, p) * c for k, c in enumerate(cell.coeffs)][p:], w)
            for cell in row
        ]
        for row in system.rows
    ]


def horner(coeffs, w):
    x = F(0)
    for c in reversed(coeffs):
        x = x * w + c
    return x


def reference_dims(ansatz, matrix):
    """dims[q] from one rref of the whole matrix with columns sorted by order."""
    orders = [g.order() for g in weighted_generators(ansatz)]
    by_order = sorted(range(len(orders)), key=orders.__getitem__)
    _, pivots = rref(
        RatMatrix([[matrix[i, j] for j in by_order] for i in range(matrix.rows)], cols=len(orders))
    )
    dims = []
    for q in range(ansatz.q_max + 1):
        count = sum(1 for o in orders if o <= q)
        dims.append(count - sum(1 for p in pivots if p < count))
    return tuple(dims)


SUBSTITUTION_EQUATIONS = [
    HEAT, LINEAR_DECAY, KDV, parse_equation("u_t = u_2 + u_1^2"),
    parse_equation("u_t = u_2 - 1/3*u + 2/5*u_1"),
    # exp(y) is a symmetry and exp(-y) is not, so a sign slip in w shows
    parse_equation("u_t = u_2 + u_1 - 2*u"),
]
SUBSTITUTION_WEIGHTS = [F(0), F(1), F(-1, 2), F(2)]


class TestSubstitutionMatchesFixedAssembly:
    """Every fixed-weight system is read off the symbolic one; the identity
    D_y^j(exp(w*y)*h) = exp(w*y)*(D_y + w)^j h makes that exact."""

    @pytest.mark.parametrize("ydeg", [0, 1, 2])
    @pytest.mark.parametrize("eq", SUBSTITUTION_EQUATIONS, ids=repr)
    def test_kernel_of_substitution(self, eq, ydeg):
        system = y_multiples_system(build_ansatz(3, ydeg, 2), eq)
        for w in SUBSTITUTION_WEIGHTS:
            reference = reference_system(build_ansatz(3, ydeg, 2, weights=(w,)), eq)
            assert kernel_at(system, w, 0) == nullspace(reference)

    @pytest.mark.parametrize("ydeg", [0, 1, 2])
    @pytest.mark.parametrize("eq", SUBSTITUTION_EQUATIONS, ids=repr)
    def test_taylor_matches_dense_horner(self, eq, ydeg):
        system = y_multiples_system(build_ansatz(3, ydeg, 2), eq)
        n = len(system.generators)
        count = max(len(cell.coeffs) for row in system.rows for cell in row)
        for w in SUBSTITUTION_WEIGHTS:
            scale, expansion = system._expansion(w)
            assert len(expansion) == count
            for p, s_p in enumerate(expansion + [{}]):
                dense = [[F(0)] * n for _ in system.rows]
                for col, cells in s_p.items():
                    assert 0 <= col < n and cells
                    assert [i for i, _ in cells] == sorted({i for i, _ in cells})
                    for i, x in cells:
                        assert x and isinstance(x, int)
                        dense[i][col] = F(x, scale)
                assert dense == dense_taylor(system, w, p)

    @pytest.mark.parametrize("ydeg", [0, 1, 2])
    @pytest.mark.parametrize("eq", SUBSTITUTION_EQUATIONS, ids=repr)
    def test_solve_matches_one_fixed_kernel(self, eq, ydeg):
        # the basis is the per-weight kernels concatenated; the reference takes
        # one kernel of the whole fixed-weight system over all weights, and
        # its dims from one rref of that system with columns sorted by order
        ansatz = build_ansatz(3, ydeg, 2, weights=SUBSTITUTION_WEIGHTS)
        reference = reference_system(ansatz, eq)
        expected = [combine(v, weighted_generators(ansatz)) for v in nullspace(reference)]
        basis = solve_symmetries(ansatz, eq)
        assert list(basis.elements) == expected
        assert basis.dims == reference_dims(ansatz, reference)


def chain_equations():
    """u_2 + a*u_1 + b*u, maybe plus a nonlinear term, with rational weights
    r1, r2 where exp(r*y) is a symmetry of the linear part: kernels there
    have the longest chains."""
    roots = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    extra = st.sampled_from(["", " + u_1^2", " + u*u_1", " + u_1^3"])
    return st.tuples(roots, roots, extra)


class TestChainKernel:
    """The kernel at any y-degree is read off the y-free system as Jordan
    chains of S(lambda); the reference assembles every y^a column at the
    weight from the defects."""

    @pytest.mark.parametrize("ydeg", [0, 1, 2, 3])
    @pytest.mark.parametrize("eq", SUBSTITUTION_EQUATIONS, ids=repr)
    def test_chain_kernel_is_the_full_kernel(self, eq, ydeg):
        system = determining_system(build_ansatz(3, 0, 2), eq)
        for w in SUBSTITUTION_WEIGHTS:
            reference = reference_system(build_ansatz(3, ydeg, 2, weights=(w,)), eq)
            assert kernel_at(system, w, ydeg) == nullspace(reference)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        chain_equations(),
        st.integers(min_value=0, max_value=3),
        st.sampled_from(["r1", "r2", "0", "other"]),
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
    )
    def test_chain_kernel_on_random_equations(self, roots_extra, ydeg, which, other):
        r1, r2, extra = roots_extra
        eq = parse_equation(f"u_t = u_2 + {-(r1 + r2)}*u_1 + {r1 * r2}*u{extra}")
        w = {"r1": r1, "r2": r2, "0": F(0), "other": other}[which]
        system = determining_system(build_ansatz(2, 0, 2), eq)
        reference = reference_system(build_ansatz(2, ydeg, 2, weights=(w,)), eq)
        assert kernel_at(system, w, ydeg) == nullspace(reference)

    @pytest.mark.parametrize("ydeg", [0, 1, 2, 3])
    def test_double_weight_has_one_chain_of_length_two(self, ydeg):
        # the defect of exp(w*y) for u_2 - 2*u_1 + u is -(w - 1)^2 exp(w*y):
        # exp(y) and y*exp(y) are a chain of length 2, and no chain is longer
        eq = parse_equation("u_t = u_2 - 2*u_1 + u")
        system = determining_system(build_ansatz(0, 0, 1), eq)
        gens = y_multiples(build_ansatz(0, ydeg, 1))
        elements = [combine(v, gens).render() for v in kernel_at(system, 1, ydeg)]
        assert elements == ["1", "y"][: ydeg + 1]


class TestCharacteristic:
    """A kernel vector over the columns ``m*(y_degree+1) + a`` is read back as
    an expression without building y^a * m, exp(w*y) included; the reference
    combines the multiplied-out products and multiplies by exp(w*y)."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(0, 2), st.integers(0, 3), st.integers(0, 2), st.booleans(),
        st.sampled_from((F(0), F(1), F(-1, 2), F(2, 3))), st.data(),
    )
    def test_equals_combine_of_the_y_multiples(self, q, ydeg, jetdeg, sums, w, data):
        ansatz = build_ansatz(q, ydeg, jetdeg)
        if sums:  # rational, several terms, and sharing monomials
            gens = tuple(g.scale(F(2, 3)) + E("u_1^2 - 1/5") for g in ansatz.generators)
            ansatz = ansatz.replace(generators=gens)
        n = len(ansatz.generators) * (ydeg + 1)
        entries = st.one_of(st.just(F(0)), SMALL_RATIONALS)
        vec = data.draw(st.lists(entries, min_size=n, max_size=n))
        element = characteristic(vec, ansatz.generators, ydeg, w)
        assert element == ExpPolyExpr.exponential(Y, w) * combine(vec, y_multiples(ansatz))
        assert only_fractions(element)


ORDER_EQUATIONS = [HEAT, parse_equation("u_t = u_2 - 2*u_1 + u"), SUBSTITUTION_EQUATIONS[-1]]
ORDER_WEIGHTS = [F(0), F(1), F(-1, 2)]


class TestWeightState:
    """``S_0`` is eliminated once per system and weight; every chain level
    and every later call reuses that record."""

    @pytest.mark.parametrize("eq", ORDER_EQUATIONS, ids=repr)
    def test_call_order_does_not_matter(self, eq):
        expected = {
            (w, ydeg): nullspace(reference_system(build_ansatz(2, ydeg, 2, weights=(w,)), eq))
            for w in ORDER_WEIGHTS
            for ydeg in (0, 1, 3)
        }
        fresh = {
            key: kernel_at(determining_system(build_ansatz(2, 0, 2), eq), *key) for key in expected
        }
        assert fresh == expected
        shared = determining_system(build_ansatz(2, 0, 2), eq)
        for order in ((3, 0, 1), (0, 1, 3), (1, 3, 0)):
            for w in ORDER_WEIGHTS:
                for ydeg in order:
                    assert kernel_at(shared, w, ydeg) == expected[w, ydeg]

    def test_rows_empty_at_the_weight_constrain_the_chains(self):
        # the one entry -(w - 1)^2 of S vanishes at 1 with its derivative:
        # the row is empty in S_0 and S_1, and only S_2 stops the chain at
        # length 2, so y^2*exp(y) is no symmetry
        system = determining_system(build_ansatz(0, 0, 0), parse_equation("u_t = u_2 - 2*u_1 + u"))
        assert system._expansion(F(1))[1][:2] == [{}, {}]
        assert len(kernel_at(system, 1, 2)) == 2

    def test_heat_criterion_eliminates_s0_once(self, monkeypatch, tmp_path):
        calls = []

        def counted(rows):
            calls.append(len(rows))
            return Elimination(rows)

        monkeypatch.setattr(engine, "Elimination", counted)
        argv = ["--eq", "u_t = u_2", "--mode", "criterion", "--json", str(tmp_path / "out.json")]
        assert main(argv) == 0
        assert len(calls) == 1

    def test_threads_share_one_system(self):
        eq = ORDER_EQUATIONS[1]
        keys = [(w, ydeg) for w in ORDER_WEIGHTS for ydeg in (3, 0, 1, 2)]
        expected = {key: kernel_at(determining_system(build_ansatz(2, 0, 2), eq), *key) for key in keys}
        shared = determining_system(build_ansatz(2, 0, 2), eq)
        start = threading.Barrier(4)
        results = [None] * 4

        def work(t):
            start.wait()
            order = keys[t:] + keys[:t]
            results[t] = {key: kernel_at(shared, *key) for key in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 4


class TestSolveSymmetries:
    def test_heat_affine_first_order(self):
        basis = solve_symmetries(build_ansatz(1, 1, 1, weights=(0,)), HEAT)
        assert [e.render() for e in basis.elements] == ["1", "y", "u", "u_1"]
        assert basis.dims == (3, 4)

    def test_exponential_pair(self):
        basis = solve_symmetries(build_ansatz(0, 0, 0, weights=(1, -1)), LINEAR_DECAY)
        assert sorted(e.render() for e in basis.elements) == ["exp(-y)", "exp(y)"]
        for e in basis.elements:
            assert is_symmetry(e, LINEAR_DECAY)

    def test_every_element_is_a_symmetry(self):
        for eq in (HEAT, LINEAR_DECAY, LINEAR_GROWTH, KDV, BURGERS):
            basis = solve_symmetries(build_ansatz(3, 2, 2, weights=(0,)), eq)
            assert basis.elements, eq
            for e in basis.elements:
                assert is_symmetry(e, eq)

    def test_dims_non_decreasing(self):
        for eq in (HEAT, KDV, BURGERS):
            basis = solve_symmetries(build_ansatz(3, 2, 2, weights=(0,)), eq)
            assert all(a <= b for a, b in zip(basis.dims, basis.dims[1:]))

    def test_completeness_against_brute_force_probe(self):
        """Independent oracle: defect evaluation over a probe grid of
        coefficient vectors must agree with nullspace membership."""
        configs = [
            (HEAT, build_ansatz(1, 1, 1, weights=(0,))),
            (KDV, build_ansatz(1, 0, 2, weights=(0,))),
            (BURGERS, build_ansatz(2, 0, 1, weights=(0,))),
        ]
        for eq, ansatz in configs:
            basis = solve_symmetries(ansatz, eq)
            gens = list(y_multiples(ansatz))
            k = len(gens)
            kernel_vectors = []
            for e in basis.elements:
                # express the solved element back in generator coordinates
                _, vv = monomial_coordinates(gens + [e])
                x = lin_solve(RatMatrix.from_columns(vv[:-1]), vv[-1])
                assert x is not None
                kernel_vectors.append(x)
            probe = [-1, 0, 1]
            count = 0
            for coeffs in itertools.product(probe, repeat=k):
                if all(c == 0 for c in coeffs):
                    continue
                candidate = ExpPolyExpr.zero()
                for c, g in zip(coeffs, gens):
                    if c:
                        candidate = candidate + g.scale(c)
                brute = symmetry_defect(candidate, eq).is_zero()
                linear = in_span(kernel_vectors, [F(c) for c in coeffs])
                assert brute == linear
                count += 1
            assert count >= 8


class TestLambdaCandidates:
    def test_decay_pair(self):
        scan = lambda_candidates(build_ansatz(0, 0, 0), LINEAR_DECAY)
        assert scan.candidates == (F(-1), F(1))
        assert scan.residual_factors == ()

    def test_heat_zero_only(self):
        scan = lambda_candidates(build_ansatz(0, 0, 0), HEAT)
        assert scan.candidates == (F(0),)

    def test_growth_residual_reported(self):
        scan = lambda_candidates(build_ansatz(0, 0, 0), LINEAR_GROWTH)
        assert scan.candidates == ()
        assert [str(f) for f in scan.residual_factors] == ["lambda^2 + 1"]

    @pytest.mark.parametrize(
        "text",
        ["u_t = u_3 + u*u_1", "u_t = u_2 + u*u_1", "u_t = u_2 + u^2", "u_t = u_2 + u_1^2"],
    )
    def test_generic_nullity_is_zero(self, text):
        # clearing denominators in a kernel vector K(w) over Q(w), the top
        # power of w in its defect has coefficient -G_{u_d} * K_top, which is
        # never zero; so no weight-independent solution exists
        scan = lambda_candidates(build_ansatz(2, 0, 2), parse_equation(text))
        assert scan.generic_nullity == 0

    def test_kernels_kept_per_candidate(self, monkeypatch):
        # the scan leaves the kernel at each candidate on the system, where
        # kernel_at reads it back without eliminating again
        ansatz = build_ansatz(2, 0, 2)
        system = determining_system(ansatz, LINEAR_DECAY)
        scan = lambda_candidates(ansatz, LINEAR_DECAY, system)
        assert scan.candidates and set(scan.candidates) <= set(system._weight_states)
        fixed = {
            w: solve_symmetries(build_ansatz(2, 0, 2, weights=(w,)), LINEAR_DECAY).elements
            for w in scan.candidates
        }
        monkeypatch.setattr(engine, "Elimination", None)  # no weight is eliminated again
        for w in scan.candidates:
            kernel = kernel_at(system, w, 0)
            exp_w = ExpPolyExpr.exponential(Y, w)
            assert [exp_w * combine(v, ansatz.generators) for v in kernel] == list(fixed[w])

    def test_consistency_with_fixed_solves(self):
        for eq in (HEAT, LINEAR_DECAY, LINEAR_GROWTH, KDV):
            scan = lambda_candidates(build_ansatz(2, 0, 2), eq)
            for w in [F(-2), F(-1), F(0), F(1), F(2), F(1, 2)]:
                basis = solve_symmetries(build_ansatz(2, 0, 2, weights=(w,)), eq)
                if w in scan.candidates:
                    assert basis.elements
                else:
                    assert not basis.elements

    @pytest.mark.parametrize(
        "text", ["u_t = u_2 - 1/3*u + 2/5*u_1", "u_t = u_2 + u", "u_t = u_3 + u*u_1"]
    )
    def test_scan_leaves_the_cells_unchanged(self, text):
        # unit_core reads the system's own cell lists, and its core shares
        # the lists it never touched with the system
        ansatz, eq = build_ansatz(3, 0, 3), parse_equation(text)
        system = determining_system(ansatz, eq)
        before = [[(j, list(p)) for j, p in cells] for cells in system._cells]
        lambda_candidates(ansatz, eq, system)
        assert [[(j, list(p)) for j, p in cells] for cells in system._cells] == before
        assert system._cells == determining_system(ansatz, eq)._cells

    def test_pivots_are_the_cores(self):
        ansatz = build_ansatz(3, 0, 2)
        system = determining_system(ansatz, LINEAR_GROWTH)
        units, core = unit_core(system._cells, len(system.generators))
        scan = lambda_candidates(ansatz, LINEAR_GROWTH, system)
        assert scan.pivots == tuple(poly_matrix_pivots(core))
        assert len(scan.pivots) == len(core[0]) == len(system.generators) - units

    def test_all_unit_system_has_an_empty_core(self):
        # the defect of exp(w*y) under KdV is -(w^3 + u*w + u_1) exp(w*y): the
        # constant at u_1 eliminates the one column, so no weight is a candidate
        scan = lambda_candidates(build_ansatz(0, 0, 0), KDV)
        assert (scan.candidates, scan.pivots, scan.generic_nullity) == ((), (), 0)

    def test_each_irrational_root_in_one_residual_factor(self):
        # the last pivot carries (lambda^2 + 1)^2 (lambda^2 + 2): its radical's
        # residual has a uniform core rank, so it is one factor, and the
        # repeated lambda^2 + 1 is not listed on its own as well
        eq = parse_equation("u_t = u_6 + 4*u_4 + 5*u_2 + 2*u")
        scan = lambda_candidates(build_ansatz(3, 0, 2), eq)
        last = scan.pivots[-1]
        assert last.divmod(UniPoly([1, 0, 1]) * UniPoly([1, 0, 1]))[1].is_zero()
        assert scan.candidates == (0,)
        assert scan.residual_factors == (UniPoly([2, 0, 3, 0, 1]),)


def is_constant(p):
    """Whether ``p`` has degree at most 0, the zero polynomial included."""
    return len(p.coeffs) <= 1


def squarefree_factors(p):
    """The distinct radicals of ``p``, ``gcd(p, p')``, the gcd of that and its
    derivative, and so on: monic, squarefree and nonconstant."""
    out, work = [], p.monic()
    while work.degree >= 1:
        g = work.gcd(work.derivative())
        radical = work.divmod(g)[0].monic()
        if radical not in out:
            out.append(radical)
        work = g
    return out


def reference_lambda_scan(system):
    """The per-pivot loop on the whole system's integer cells, the system
    times its denominator: one root search per pivot, and the squarefree
    factors of each pivot's rational-root-free residual as residual
    candidates; returns the verified candidates and residual factors, one
    per rank below full: the lcm of the parts of that rank across pivots."""
    ncols = len(system.generators)
    rows = [[dict(cells).get(j, []) for j in range(ncols)] for cells in system._cells]
    root_cands, residual_cands = set(), []
    for p in poly_matrix_pivots(rows):
        if is_constant(p):
            continue
        roots, residual = rational_roots(p)
        root_cands.update(r for r, _ in roots)
        if residual.degree >= 1:
            residual_cands.extend(f for f in squarefree_factors(residual) if f not in residual_cands)
    candidates = tuple(
        w for w in sorted(root_cands)
        if nullspace(RatMatrix(dense_taylor(system, w), cols=ncols))
    )
    by_rank = {}
    for f in residual_cands:
        for factor, rank_mod in rank_modulo(rows, f):
            if rank_mod < ncols:
                g = by_rank.get(rank_mod, UniPoly.one())
                by_rank[rank_mod] = (g * factor).divmod(g.gcd(factor))[0].monic()
    return candidates, tuple(sorted(by_rank.values(), key=UniPoly.sort_key))


SCAN_COEFFICIENTS = st.sampled_from((0, 0, 1, -1, 2, -3, F(1, 2), F(-2, 3)))


@st.composite
def scan_equations(draw):
    """u_t = u_d + a combination of the lower jets, d = 2 or 3, and half the
    time of u*u_1, u_1^2 and u^2 as well."""
    d = draw(st.sampled_from((2, 3)))
    rhs = ExpPolyExpr.monomial(F(1), {jet(d): 1})
    terms = [{jet(k) if k else U: 1} for k in range(d)]
    if draw(st.booleans()):
        terms += [{U: 1, jet(1): 1}, {jet(1): 2}, {U: 2}]
    for powers in terms:
        rhs = rhs + ExpPolyExpr.monomial(F(draw(SCAN_COEFFICIENTS)), powers)
    return EvolutionEquation(rhs)


class TestScanMatchesPerPivotSearch:
    @pytest.mark.parametrize(
        "text, caps",
        [
            ("u_t = u_2 - 1/3*u + 2/5*u_1", (3, 0, 3)),
            ("u_t = u_2", (4, 0, 3)),
            ("u_t = u_2 + u", (3, 0, 2)),
            ("u_t = u_2 - 720720/2399627*u", (3, 0, 2)),
            ("u_t = u_3 + u", (3, 0, 2)),
            ("u_t = u_4 + 3*u_2 + 2*u", (3, 0, 2)),
            ("u_t = u_2 - 4*u_1 - 9*u", (3, 0, 3)),
            # two non-rational parts of one rank, split apart on the whole
            # system (the first) or on the core (the second): one factor
            ("u_t = u_6 + 4*u_4 + 5*u_2 + 2*u", (3, 0, 2)),
            ("u_t = u_5 + 6*u_1 + 5*u_3", (3, 0, 2)),
        ],
    )
    def test_same_candidates_and_residuals(self, text, caps):
        ansatz, eq = build_ansatz(*caps), parse_equation(text)
        system = determining_system(ansatz, eq)
        scan = lambda_candidates(ansatz, eq, system)
        assert (scan.candidates, scan.residual_factors) == reference_lambda_scan(system)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(scan_equations())
    def test_random_equations(self, eq):
        # seeded random linear and nonlinear equations
        ansatz = build_ansatz(3, 0, 2)
        system = determining_system(ansatz, eq)
        scan = lambda_candidates(ansatz, eq, system)
        assert (scan.candidates, scan.residual_factors) == reference_lambda_scan(system)
        assert scan.generic_nullity == 0


class TestBounds:
    def test_heat_bounds(self):
        basis = solve_symmetries(build_ansatz(1, 1, 1, weights=(0,)), HEAT)
        checks = check_dimension_bounds(basis)
        order1 = [c for c in checks if c.q == 1][0]
        assert order1.value == 4 and order1.bound == 5 and order1.passed

    def test_growth_bound_all_orders(self):
        basis = solve_symmetries(build_ansatz(3, 3, 2, weights=(0,)), HEAT)
        checks = check_dimension_bounds(basis)
        assert checks and all(c.passed for c in checks)

    def test_empty_basis_vacuous(self):
        eq = parse_equation("u_t = u_2 + u_1^2")
        basis = solve_symmetries(build_ansatz(0, 1, 0, weights=(0,)), eq)
        checks = check_dimension_bounds(basis)
        assert all(c.passed for c in checks)


class TestBracketClosure:
    def test_heat_basis_brackets_are_symmetries(self):
        basis = solve_symmetries(build_ansatz(1, 1, 1, weights=(0,)), HEAT)
        for a, b in itertools.product(basis.elements, repeat=2):
            br = lie_bracket(a, b)
            assert is_symmetry(br, HEAT)

    def test_kdv_basis_brackets(self):
        basis = solve_symmetries(build_ansatz(3, 1, 2, weights=(0,)), KDV)
        for a, b in itertools.combinations(basis.elements, 2):
            assert is_symmetry(lie_bracket(a, b), KDV)
