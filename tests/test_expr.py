"""Expression algebra: canonical form, calculus rules, exponential-polynomial reading."""

import copy
import functools
import pickle
import random
from fractions import Fraction

import pytest

from hypothesis import given, settings, strategies as st

from jetsym.errors import MixedTypeError
from jetsym.expr import (
    KIND_JET,
    T,
    U,
    Y,
    ExpPolyExpr,
    LinearDiffOp,
    Monomial,
    all_jet_monomials,
    canonical_exp_poly,
    jet,
    monomial_coordinates,
)
from jetsym.parser import parse_characteristic, parse_expression

F = Fraction
E = parse_expression


def random_expr(rng, allow_exp_u=False):
    terms = ExpPolyExpr.zero()
    for _ in range(rng.randint(1, 4)):
        coeff = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
        powers = {}
        for c in (Y, U, jet(1), jet(2)):
            p = rng.choice([0, 0, 0, 1, 1, 2])
            if p:
                powers[c] = p
        expvec = {}
        w = rng.choice([0, 0, 0, -1, 1, 2])
        if w:
            expvec[Y] = F(w)
        if allow_exp_u and rng.random() < 0.2:
            expvec[U] = F(rng.choice([-1, 1]))
        terms = terms + ExpPolyExpr.monomial(coeff, powers, expvec)
    return terms


class TestRing:
    def test_add_zero(self):
        e = E("u + y")
        assert e + ExpPolyExpr.zero() == e

    def test_exp_cancellation(self):
        prod = E("exp(y)") * E("exp(-y)")
        assert prod == ExpPolyExpr.one()

    def test_difference_of_squares(self):
        assert E("(u + y)") * E("(u - y)") == E("u^2 - y^2")

    def test_no_duplicate_shapes_random(self):
        rng = random.Random(31)
        for _ in range(80):
            a, b = random_expr(rng), random_expr(rng)
            for result in (a + b, a * b, a - b):
                shapes = [m.shape for m in result.terms]
                assert len(shapes) == len(set(shapes))
                assert all(m.coeff != 0 for m in result.terms)

    def test_weight_on_jet_rejected(self):
        with pytest.raises(ValueError):
            ExpPolyExpr.monomial(1, {}, {jet(1): F(1)})

    @pytest.mark.parametrize("base", [ExpPolyExpr.zero(), E("u"), E("u + 1")])
    def test_negative_exponent_refused(self, base):
        with pytest.raises(ValueError, match="negative exponent"):
            base ** -1


class TestPartialDerive:
    def test_power_rule(self):
        assert E("y^2*u").partial_derive(Y) == E("2*y*u")

    def test_exponential_rule(self):
        assert E("exp(2*y)*u_1").partial_derive(Y) == E("2*exp(2*y)*u_1")

    def test_exp_in_dependent_variable(self):
        e = ExpPolyExpr.exponential(U, F(3))
        assert e.partial_derive(U) == e.scale(3)


class TestTotalDerive:
    def test_u_to_u1(self):
        assert E("u").total_derive_y() == E("u_1")

    def test_product_with_y(self):
        assert E("y*u_1").total_derive_y() == E("u_1 + y*u_2")

    def test_square(self):
        assert E("u^2").total_derive_y() == E("2*u*u_1")

    def test_exp_u_chain_rule(self):
        e = ExpPolyExpr.exponential(U, F(2))
        expect = ExpPolyExpr.coordinate(jet(1)) * e.scale(2)
        assert e.total_derive_y() == expect

    def test_leibniz_random(self):
        rng = random.Random(37)
        for _ in range(120):
            a = random_expr(rng, allow_exp_u=True)
            b = random_expr(rng, allow_exp_u=True)
            lhs = (a * b).total_derive_y()
            rhs = a.total_derive_y() * b + a * b.total_derive_y()
            assert lhs == rhs

    def test_commutator_identity_random(self):
        rng = random.Random(41)
        for _ in range(120):
            e = random_expr(rng, allow_exp_u=True)
            for l in (0, 1, 2, 3):
                c = jet(l)
                lhs = e.total_derive_y().partial_derive(c) - e.partial_derive(
                    c
                ).total_derive_y()
                if l == 0:
                    assert lhs.is_zero()
                else:
                    assert lhs == e.partial_derive(jet(l - 1))

    def test_order_growth_bound(self):
        rng = random.Random(43)
        for _ in range(60):
            e = random_expr(rng, allow_exp_u=True)
            assert e.total_derive_y().order() <= e.order() + 1


class TestOrder:
    def test_third_order(self):
        assert E("u_3 + u").order() == 3

    def test_jet_free(self):
        assert E("y^2").order() == -1

    def test_product(self):
        assert E("u*u_1").order() == 1

    def test_exp_u_counts_as_order_zero(self):
        assert ExpPolyExpr.exponential(U, F(1)).order() == 0


class TestFrechet:
    def test_second_derivative_operator(self):
        op = E("u_2").frechet()
        theta = E("y*u")
        assert op.apply(theta) == theta.total_derive_y().total_derive_y()

    def test_product_coefficients(self):
        op = E("u*u_1").frechet()
        assert op.coefficients == (E("u_1"), E("u"))

    def test_jet_free_gives_zero_operator(self):
        assert E("y").frechet().is_zero()

    def test_linearity_random(self):
        rng = random.Random(47)
        for _ in range(60):
            e1, e2 = random_expr(rng), random_expr(rng)
            theta = random_expr(rng)
            a = F(rng.randint(-3, 3))
            lhs = (e1.scale(a) + e2).frechet().apply(theta)
            rhs = e1.frechet().apply(theta).scale(a) + e2.frechet().apply(theta)
            assert lhs == rhs


class TestCanonicalExpPoly:
    def test_direct_reading(self):
        e = E("exp(2*y)*u + exp(2*y)*y*u_1")
        el = canonical_exp_poly(e, (Y,))
        assert el.lambdas == (F(2),)
        assert el.coefficient((0,)) == E("u")
        assert el.coefficient((1,)) == E("u_1")
        assert el.degrees == (2,)

    def test_weight_free(self):
        el = canonical_exp_poly(E("u_1"), (Y,))
        assert el.lambdas == (F(0),)
        assert el.coefficient((0,)) == E("u_1")

    def test_mixed_weights_rejected(self):
        with pytest.raises(MixedTypeError):
            canonical_exp_poly(E("exp(y)*u + u"), (Y,))

    def test_round_trip_random(self):
        rng = random.Random(53)
        done = 0
        for _ in range(200):
            e = random_expr(rng, allow_exp_u=True)
            for selected in ((Y,), (Y, U)):
                try:
                    el = canonical_exp_poly(e, selected)
                except MixedTypeError:
                    continue
                assert el.reconstruct() == e
                done += 1
        assert done >= 60

    def test_coefficients_free_of_selected(self):
        el = canonical_exp_poly(E("y*u^2 + u^2"), (Y, U))
        for _, coeff in el.table:
            assert not coeff.depends_on(Y)
            assert not coeff.depends_on(U)


class TestDependsOn:
    def test_power_dependence(self):
        assert E("y*u_1").depends_on(Y)

    def test_exponential_dependence(self):
        assert E("exp(3*y)*u").depends_on(Y)

    def test_no_dependence(self):
        assert not E("u_2").depends_on(Y)


class TestHelpers:
    def test_jet_monomial_enumeration(self):
        mono = all_jet_monomials(1, 1)
        assert [m.render() for m in mono] == ["1", "u", "u_1"]
        mono2 = all_jet_monomials(1, 2)
        assert [m.render() for m in mono2] == ["1", "u", "u_1", "u^2", "u*u_1", "u_1^2"]

    def test_monomial_coordinates_roundtrip(self):
        exprs = [E("u + y"), E("2*u"), E("y - u_1")]
        shapes, vectors = monomial_coordinates(exprs)
        assert len(shapes) == 3
        for e, v in zip(exprs, vectors):
            rebuilt = ExpPolyExpr.zero()
            for coeff, shape in zip(v, shapes):
                if coeff:
                    rebuilt = rebuilt + ExpPolyExpr.monomial(
                        coeff, dict(shape[0]), dict(shape[1])
                    )
            assert rebuilt == e

    def test_coordinate_ordering(self):
        assert T < Y < U < jet(1) < jet(2)

    def test_term_order(self):
        # jet degree first, then powers by coordinate: y*u_1 precedes u_1
        e = parse_characteristic("u_1 + y*u_1 + u*y + y^2")
        assert e.render() == "y^2 + y*u + y*u_1 + u_1"


class TestCoordinates:
    ALL = (T, Y) + tuple(jet(l) for l in range(10))

    def test_one_object_per_coordinate(self):
        for l in range(10):
            assert jet(l) is jet(l)
        assert jet(0) is U

    def test_sorted_like_kind_and_index(self):
        shuffled = list(self.ALL)
        random.Random(59).shuffle(shuffled)
        assert sorted(shuffled) == sorted(shuffled, key=lambda c: (c.kind, c.index))

    def test_copies_are_the_same_object(self):
        for c in self.ALL:
            assert copy.copy(c) is c
            assert copy.deepcopy(c) is c
            assert pickle.loads(pickle.dumps(c)) is c

    def test_expressions_survive_pickle(self):
        e = E("3*exp(-1/2*y)*y*u_1^2 - exp(u)*u + 1")
        assert pickle.loads(pickle.dumps(e)) == e
        assert copy.deepcopy(e).render() == e.render()


# -- reference calculus ------------------------------------------------------
# The bodies below are the accumulate-and-re-merge versions the library used
# before sums were built with one merge; the property tests require the
# library to agree with them exactly.


def reference_product(a, b):
    out = []
    for x in a.terms:
        for z in b.terms:
            powers = dict(x.powers)
            for c, p in z.powers:
                powers[c] = powers.get(c, 0) + p
            expvec = dict(x.expvec)
            for c, w in z.expvec:
                expvec[c] = expvec.get(c, F(0)) + w
            out.append(Monomial(x.coeff * z.coeff, powers, expvec))
    return ExpPolyExpr(out)


def reference_power(base, k):
    """The reference for ``base^k``: k reference products."""
    return functools.reduce(reference_product, [base] * k, ExpPolyExpr.one())


def reference_partial(e, c):
    out = []
    for m in e.terms:
        p = m.power(c)
        if p:
            powers = dict(m.powers)
            powers[c] = p - 1
            out.append(Monomial(m.coeff * p, powers, dict(m.expvec)))
        w = m.weight(c)
        if w:
            out.append(Monomial(m.coeff * w, dict(m.powers), dict(m.expvec)))
    return ExpPolyExpr(out)


def reference_total_derive_y(e):
    out = reference_partial(e, Y)
    orders = sorted(
        {c.index for m in e.terms for c, _ in m.powers + m.expvec if c.kind == KIND_JET}
    )
    for l in orders:
        contrib = reference_product(
            reference_partial(e, jet(l)), ExpPolyExpr.coordinate(jet(l + 1))
        )
        out = out + contrib
    return out


def reference_apply(op, theta):
    out = ExpPolyExpr.zero()
    current = theta
    for a in op.coefficients:
        if not a.is_zero():
            out = out + reference_product(a, current)
        current = reference_total_derive_y(current)
    return out


def reference_apply_shifted(op, theta, shift):
    out = ExpPolyExpr.zero()
    current = theta
    for a in op.coefficients:
        if not a.is_zero():
            out = out + reference_product(a, current)
        current = reference_total_derive_y(current) + reference_product(shift, current)
    return out


RATIONALS = st.sampled_from([F(-2), F(-1), F(-1, 2), F(1, 3), F(1), F(2)])


@st.composite
def monomials(draw):
    powers = {c: draw(st.integers(0, 2)) for c in (Y, U, jet(1), jet(2), jet(3))}
    # 1 and -1, 1/2 and -1/2 cancel, so products reach the empty exponential part
    weights = st.sampled_from([F(0), F(0), F(-1), F(1), F(1, 2), F(-1, 2), F(2)])
    expvec = {c: draw(weights) for c in (Y, U)}
    return Monomial(draw(RATIONALS), powers, expvec)


@st.composite
def expressions(draw, max_terms=4):
    # repeated shapes occur often, so merging and cancellation are exercised
    return ExpPolyExpr(draw(st.lists(monomials(), max_size=max_terms)))


operators = st.lists(expressions(max_terms=2), max_size=4).map(LinearDiffOp)

CALCULUS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def reference_order_key(m):
    """The term order written out: jet degree, then powers, then weights.

    Coordinates are compared as (kind, index), independently of how the
    library encodes them.
    """
    def pairs(entries):
        return tuple(sorted(((c.kind, c.index), v) for c, v in entries))

    return (
        sum(p for c, p in m.powers if c.kind == KIND_JET),
        pairs(m.powers),
        pairs(m.expvec),
    )


def assert_canonical(e):
    shapes = [m.shape for m in e.terms]
    assert len(shapes) == len(set(shapes))
    assert all(m.coeff != 0 for m in e.terms)
    for m in e.terms:
        for entries in (m.powers, m.expvec):
            assert list(entries) == sorted(entries, key=lambda cv: (cv[0].kind, cv[0].index))
    assert list(e.terms) == sorted(e.terms, key=reference_order_key)


class TestAgainstReferenceCalculus:
    @CALCULUS
    @given(expressions(), expressions())
    def test_product_and_sum(self, a, b):
        product = a * b
        assert product == reference_product(a, b)
        assert_canonical(product)
        assert_canonical(a + b)
        assert (a + b) - b == a
        assert (a - a).is_zero()
        assert_canonical(a.scale(F(-3, 2)))

    @CALCULUS
    @given(expressions(), st.sampled_from([Y, U, jet(1), jet(3), T]))
    def test_partial_derive(self, e, c):
        assert e.partial_derive(c) == reference_partial(e, c)

    @CALCULUS
    @given(expressions())
    def test_total_derive_y(self, e):
        d = e.total_derive_y()
        assert d == reference_total_derive_y(e)
        assert_canonical(d)

    @CALCULUS
    @given(operators, expressions(max_terms=3))
    def test_apply(self, op, theta):
        assert op.apply(theta) == reference_apply(op, theta)

    @CALCULUS
    @given(operators, expressions(max_terms=3), RATIONALS.map(ExpPolyExpr.constant))
    def test_apply_shifted(self, op, theta, shift):
        assert op.apply_shifted(theta, shift) == reference_apply_shifted(op, theta, shift)

    @CALCULUS
    @given(operators, expressions(max_terms=3), RATIONALS)
    def test_shift_identity(self, op, h, w):
        # D_y^j (exp(w y) h) = exp(w y) (D_y + w)^j h, the identity behind the
        # symbolic determining system
        exp_wy = ExpPolyExpr.exponential(Y, w)
        lhs = exp_wy * op.apply_shifted(h, ExpPolyExpr.constant(w))
        assert lhs == op.apply(exp_wy * h)


def monomial_sum(*powers):
    """The sum of the monomials of the given powers, built without a product."""
    return ExpPolyExpr([Monomial(1, p, {}) for p in powers])


class TestFieldWidths:
    """Products and powers whose result powers land at 2^w - 1 and 2^w for
    small w: a packed field too narrow for a result carries into the next
    coordinate's field, so the result would differ from the reference."""

    @pytest.mark.parametrize(
        "a, b",
        [
            (({U: 3},), ({U: 4},)),
            (({U: 4},), ({U: 4},)),
            (({U: 31},), ({U: 1},)),
            (({Y: 7, U: 15},), ({Y: 1, U: 17, jet(1): 1},)),
            (({U: 7}, {jet(1): 3}), ({U: 8}, {jet(1): 5})),
        ],
    )
    def test_product(self, a, b):
        a, b = monomial_sum(*a), monomial_sum(*b)
        assert a * b == reference_product(a, b)
        assert E(f"({a.render()})*({b.render()})") == reference_product(a, b)

    @pytest.mark.parametrize(
        "base, k",
        [
            (monomial_sum({U: 7}, {jet(1): 1}), 5),
            (ExpPolyExpr.monomial(1, {U: 7}, {Y: -1}), 9),
            (monomial_sum({U: 8}, {Y: 1}), 8),
            (monomial_sum({Y: 3}, {U: 4, jet(1): 1}), 16),
            (monomial_sum({U: 2}, {jet(1): 2}), 2),
        ],
    )
    def test_power(self, base, k):
        expected = reference_power(base, k)
        assert base**k == expected
        assert E(f"({base.render()})^{k}") == expected


def reference_render(e):
    """The text form written out term by term with ``Fraction`` comparisons
    and ``str``: sign, then magnitude unless it is 1 before a body."""
    if e.is_zero():
        return "0"
    out = []
    for i, m in enumerate(e.terms):
        factors = []
        for c, w in m.expvec:
            if w == 1:
                factors.append(f"exp({c.name})")
            elif w == -1:
                factors.append(f"exp(-{c.name})")
            else:
                factors.append(f"exp({w}*{c.name})")
        factors += [c.name if p == 1 else f"{c.name}^{p}" for c, p in m.powers]
        body = "*".join(factors)
        mag = abs(m.coeff)
        text = str(mag) if not body else body if mag == 1 else f"{mag}*{body}"
        if i == 0:
            out.append("-" + text if m.coeff < 0 else text)
        else:
            out.append((" - " if m.coeff < 0 else " + ") + text)
    return "".join(out)


@st.composite
def rendered_monomials(draw):
    # all powers and weights may be zero, which gives a bare constant
    powers = {c: draw(st.sampled_from([0, 0, 1, 2])) for c in (Y, U, jet(1), jet(3))}
    weights = st.sampled_from([F(0), F(0), F(1), F(-1), F(1, 2), F(-3, 2), F(4)])
    expvec = {c: draw(weights) for c in (Y, U)}
    coeff = draw(st.sampled_from([F(-3), F(-1), F(-1, 2), F(1), F(2, 3), F(7)]))
    return Monomial(coeff, powers, expvec)


class TestRender:
    @CALCULUS
    @given(st.lists(rendered_monomials(), max_size=5).map(ExpPolyExpr))
    def test_matches_the_reference_formatter(self, e):
        assert e.render() == reference_render(e)

    @pytest.mark.parametrize(
        "text",
        [
            "0",
            "1",
            "-1",
            "-3/2",
            "-exp(-u)",
            "exp(u) - 1",
            "-u_1 + 1/2*u",
            "-3/2*exp(-1/2*y)*u_1 + exp(y) - 2*exp(4*u)*y^2",
            "u_1 - u - 7/3",
        ],
    )
    def test_leading_and_inner_signs(self, text):
        e = E(text)
        assert e.render() == reference_render(e)
        assert E(e.render()) == e
