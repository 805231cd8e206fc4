"""Grammar coverage, error positions, and render/parse round trips."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jetsym.errors import ParseError, ScopeError
from jetsym.expr import ExpPolyExpr, U, Y, coord_by_name, jet
from jetsym.parser import (
    MAX_COEFFICIENT_BITS,
    MAX_EXPONENT,
    MAX_NUMERAL_DIGITS,
    MAX_POWER_TERMS,
    parse_characteristic,
    parse_equation,
    parse_expression,
)

F = Fraction


class TestEquations:
    def test_heat(self):
        eq = parse_equation("u_t = u_2")
        assert eq.order == 2
        assert eq.rhs == parse_expression("u_2")

    def test_with_linear_term(self):
        eq = parse_equation("u_t = u_2 - u")
        assert eq.order == 2

    def test_kdv(self):
        eq = parse_equation("u_t = u_3 + u*u_1")
        assert eq.order == 3

    def test_whitespace_ignored(self):
        assert parse_equation("u_t=u_2").rhs == parse_equation(" u_t  =  u_2 ").rhs

    def test_y_rejected(self):
        with pytest.raises(ScopeError):
            parse_equation("u_t = y*u_2")

    def test_t_rejected(self):
        with pytest.raises(ScopeError):
            parse_equation("u_t = t*u_2")

    def test_low_order_rejected(self):
        with pytest.raises(ScopeError):
            parse_equation("u_t = u_1")

    def test_exponential_rhs_rejected(self):
        with pytest.raises(ScopeError):
            parse_equation("u_t = exp(u)*u_2")

    def test_missing_lhs(self):
        with pytest.raises(ParseError):
            parse_equation("u = u_2")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as info:
            parse_equation("u_t = u_2 )")
        assert info.value.position == 10

    def test_dangling_operator(self):
        with pytest.raises(ParseError) as info:
            parse_equation("u_t = u_2 +")
        assert info.value.position == 11
        assert info.value.expected


class TestExpressions:
    def test_rational_literal(self):
        assert parse_expression("3/2") == ExpPolyExpr.constant(F(3, 2))

    def test_precedence(self):
        assert parse_expression("u + 2*u_1^2") == parse_expression("u + 2*(u_1*u_1)")

    def test_unary_minus(self):
        assert parse_expression("-u") == -parse_expression("u")
        assert parse_expression("3 - -u") == parse_expression("3 + u")

    def test_power_of_sum(self):
        assert parse_expression("(u + y)^2") == parse_expression("u^2 + 2*y*u + y^2")

    def test_exp_weight_forms(self):
        assert parse_expression("exp(y)") == ExpPolyExpr.exponential(Y, F(1))
        assert parse_expression("exp(-y)") == ExpPolyExpr.exponential(Y, F(-1))
        assert parse_expression("exp(1/2*y)") == ExpPolyExpr.exponential(Y, F(1, 2))
        assert parse_expression("exp(2*u)") == ExpPolyExpr.exponential(U, F(2))

    def test_exp_argument_must_be_linear(self):
        with pytest.raises(ParseError):
            parse_expression("exp(y^2)")
        with pytest.raises(ParseError):
            parse_expression("exp(u_1)")
        with pytest.raises(ParseError):
            parse_expression("exp(1)")

    @pytest.mark.parametrize("text", ["exp(0*y)", "exp(y - y)", "exp(0)", "exp(0*u)"])
    def test_exp_of_zero_is_one(self, text):
        # zero is the zero multiple of y, and exp(0) = 1
        assert parse_expression(text) == ExpPolyExpr.one()
        assert parse_expression(f"3*{text}*u_1") == parse_expression("3*u_1")

    def test_jet_order_range(self):
        assert parse_expression("u_9").order() == 9
        with pytest.raises(ParseError):
            parse_expression("u_12")
        with pytest.raises(ParseError):
            parse_expression("u_0")
        # int() would refuse the 5000 digits: the name is refused by its text
        for text in ("u_63", "u_64", "u_100", "u_" + "1" * 5000):
            with pytest.raises(ParseError, match="jet order out of range"):
                parse_expression(text)

    def test_unknown_name(self):
        with pytest.raises(ParseError) as info:
            parse_expression("u + w")
        assert info.value.position == 4

    @pytest.mark.parametrize("text", ["u_01", "u_002"])
    def test_coordinate_names_are_exact(self, text):
        # the name of u_1 is "u_1" alone: no leading zeros
        with pytest.raises(ParseError, match="unknown name"):
            parse_expression(text)
        assert coord_by_name(text) is None

    @pytest.mark.parametrize("text", ["u_\u00b2", "\u00b2*u", "u_\u0663", "\u0663*u_2", "\u00e9*u"])
    def test_digits_and_names_are_ascii(self, text):
        # superscript and Arabic-Indic digits and non-ASCII letters are no
        # token; int() would read the "\u0663" of u_\u0663 as 3
        with pytest.raises(ParseError, match="unexpected character"):
            parse_expression(text)

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_expression("1/0")

    def test_characteristic_rejects_t(self):
        with pytest.raises(ScopeError):
            parse_characteristic("t*u_1")
        assert parse_characteristic("y*u_1").depends_on(Y)


ROUND_TRIP_CORPUS = [
    "0",
    "1",
    "-1",
    "3/2",
    "u",
    "y",
    "u_1",
    "u_3 + u*u_1",
    "-u + u_2",
    "y*u_1 + u^2",
    "exp(y)",
    "exp(-y)*u_1",
    "exp(2*y)*y^2*u_1",
    "3*exp(1/2*y)*u - 2*y",
    "exp(-2*u)*u_1^2",
    "u^2*u_2 - 1/3*u_1",
    "y^3 + y^2 + y + 1",
]


class TestRoundTrip:
    @pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
    def test_render_reparses_identically(self, text):
        e = parse_expression(text)
        assert parse_expression(e.render()) == e

    def test_render_is_canonical(self):
        a = parse_expression("u_2 - u")
        b = parse_expression("-u + u_2")
        assert a == b
        assert a.render() == b.render()

    def test_documented_render_style(self):
        text = "3*exp(2*y)*y^2*u_1"
        assert parse_expression(text).render() == text


class TestPowerCaps:
    def test_largest_power_in_use_is_admitted(self):
        # the benchmark's heaviest characteristic: C(6+6-1, 6) = 462 terms
        e = parse_expression("(u + u_1 + u_2 + u_3 + u_4 + y)^6")
        assert len(e.terms) == 462

    def test_caps_are_inclusive(self):
        assert parse_expression(f"y^{MAX_EXPONENT}") == ExpPolyExpr.monomial(
            1, {Y: MAX_EXPONENT}
        )
        # a two-term base reaches k + 1 terms; C(2+k-1, k) = k + 1
        assert len(parse_expression(f"(u + y)^{MAX_EXPONENT}").terms) == MAX_EXPONENT + 1

    @pytest.mark.parametrize(
        "text",
        [f"u^{MAX_EXPONENT + 1}", "(u + u_1 + u_2 + u_3)^40", "exp(y)^100000000"],
    )
    def test_refused_before_expansion(self, text):
        with pytest.raises(ScopeError):
            parse_expression(text)

    def test_term_bound_uses_the_base_size(self):
        # a ten-term base to the 7th may reach C(10+7-1, 7) = 11440 terms
        assert MAX_POWER_TERMS < 11440
        with pytest.raises(ScopeError):
            parse_expression("(1 + u + u_1 + u_2 + u_3 + u_4 + u_5 + u_6 + u_7 + y)^7")

    def test_product_refused_before_multiplying(self):
        # each factor is C(11+5-1, 5) = 3003 terms, under the power cap; their
        # product may reach 3003^2 terms and is refused before it is formed
        base = "(u + u_1 + u_2 + u_3 + u_4 + u_5 + u_6 + u_7 + u_8 + u_9 + y)"
        with pytest.raises(ScopeError, match="factors of 3003 and 3003 terms may expand to 9018009 terms"):
            parse_expression(f"{base}^5*{base}^5")
        assert len(parse_expression(f"{base}^5").terms) == 3003
        assert len(parse_expression(f"2*{base}^5*exp(y)").terms) == 3003

    def test_product_cap_is_inclusive(self):
        # 100 * 50 = MAX_POWER_TERMS terms are admitted, one factor term more is not
        assert MAX_POWER_TERMS == 100 * 50
        a = " + ".join(f"u^{i}*u_2^{j}" for i in range(10) for j in range(10))
        b = " + ".join(f"u_1^{i}" for i in range(50))
        assert len(parse_expression(f"({a})*({b})").terms) == 5000
        with pytest.raises(ScopeError, match="factors of 100 and 51 terms"):
            parse_expression(f"({a})*({b} + u_3)")


POSITIVE_RATIONALS = st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9)
SIGNED_RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)
# (text, powers, exponential weights) of the base terms
SHAPES = [
    ("1", {}, {}),
    ("u", {U: 1}, {}),
    ("u^2", {U: 2}, {}),
    ("u^3", {U: 3}, {}),
    ("y", {Y: 1}, {}),
    ("y*u_1", {Y: 1, jet(1): 1}, {}),
    ("exp(y)", {}, {Y: 1}),
    ("exp(-y)", {}, {Y: -1}),
    ("exp(-1/2*y)*u_1", {jet(1): 1}, {Y: F(-1, 2)}),
    ("exp(u)", {}, {U: 1}),
    ("exp(-2*u)*u", {U: 1}, {U: -2}),
]


def repeated_product(base, k):
    """The reference for ``base^k``: k multiplications by the base."""
    out = ExpPolyExpr.one()
    for _ in range(k):
        out = out * base
    return out


class TestPowerOnIntegerNumerators:
    """A power is expanded in one multinomial pass on the base's int numerators
    and divided once; it must equal repeated multiplication and hold only
    Fraction coefficients."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(POSITIVE_RATIONALS, POSITIVE_RATIONALS, st.integers(0, 6))
    def test_rational_base(self, a, c, k):
        parsed = parse_expression(
            f"({a.numerator}/{a.denominator}*u + {c.numerator}/{c.denominator}*u_1 + y)^{k}"
        )
        base = (
            ExpPolyExpr.monomial(a, {U: 1})
            + ExpPolyExpr.monomial(c, {jet(1): 1})
            + ExpPolyExpr.coordinate(Y)
        )
        assert parsed == repeated_product(base, k)
        assert all(type(m.coeff) is F for m in parsed.terms)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.tuples(SIGNED_RATIONALS, st.sampled_from(SHAPES)), max_size=6),
        st.integers(0, 5),
    )
    def test_matches_repeated_multiplication(self, summands, k):
        # shapes repeat and overlap (u, u^2, u^3; exp(y) against exp(-y)), so
        # distinct multisets meet on one key and may cancel there
        text = " + ".join(f"{c.numerator}/{c.denominator}*{s[0]}" for c, s in summands)
        base = sum(
            (ExpPolyExpr.monomial(c, powers, weights) for c, (_, powers, weights) in summands),
            ExpPolyExpr.zero(),
        )
        parsed = parse_expression(f"({text or '0'})^{k}")
        assert parsed == repeated_product(base, k)
        assert all(type(m.coeff) is F for m in parsed.terms)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("(0)^0", "1"),
            ("(u - u)^0", "1"),
            ("(0)^3", "0"),
            ("(y - y)^2", "0"),
            ("(3/2)^0", "1"),
            ("(-3/2)^3", "-27/8"),
            ("(2 - 1/2)^2", "9/4"),
        ],
    )
    def test_constant_and_zero_bases(self, text, expected):
        assert parse_expression(text).render() == expected

    def test_like_keys_merge_and_cancel(self):
        # u^4 comes from {u, u^3} (2*1*(-2)) and from {u^2, u^2} (2^2): 0
        assert parse_expression("(u + 2*u^2 - 2*u^3)^2") == parse_expression(
            "u^2 + 4*u^3 - 8*u^5 + 4*u^6"
        )
        # exp(y)*exp(-y) meets the constant key: 2*1*(-2) + 2^2 = 0
        assert parse_expression("(exp(y) - 2*exp(-y) + 2)^2").render() == (
            "4*exp(-2*y) - 8*exp(-y) + 4*exp(y) + exp(2*y)"
        )

    def test_wide_base_to_the_first(self):
        # one level per positive multiplicity: a 1600-term base to the
        # power 1 recurses once, not once per term
        text = " + ".join(f"u^{a}*u_1^{b}" for a in range(40) for b in range(40))
        start = time.perf_counter()
        parsed = parse_expression(f"({text})^1")
        assert time.perf_counter() - start < 10
        assert parsed == parse_expression(text)
        assert len(parsed.terms) == 1600

    def test_ninety_term_square(self):
        pairs = [(a, b) for a in range(9) for b in range(10)]
        text = " + ".join(f"{2 * a - 2 * b + 1}/{a + b + 1}*u^{a}*u_1^{b}" for a, b in pairs)
        base = parse_expression(text)
        assert len(base.terms) == 90
        start = time.perf_counter()
        parsed = parse_expression(f"({text})^2")
        assert time.perf_counter() - start < 10
        assert parsed == repeated_product(base, 2)


class TestNumeralCaps:
    def test_caps_are_inclusive_and_render(self):
        nines = "9" * MAX_NUMERAL_DIGITS
        assert parse_expression(f"{nines}/{nines}*u").terms[0].coeff == 1
        assert parse_expression(f"{nines}*u").render() == f"{nines}*u"
        # the bit cap is that of the largest admitted numeral, and the
        # largest admitted coefficient is within Python's default
        # 4300-digit limit on int/str conversion
        assert MAX_COEFFICIENT_BITS == (10**MAX_NUMERAL_DIGITS - 1).bit_length()
        assert len(str(2**MAX_COEFFICIENT_BITS - 1)) <= 4300

    @pytest.mark.parametrize("where", ["{}*u", "1/{}*u", "exp({}*y)"])
    def test_long_numeral_refused_by_its_text(self, where):
        with pytest.raises(ScopeError, match=f"{MAX_NUMERAL_DIGITS + 1}-digit numeral"):
            parse_expression(where.format("1" * (MAX_NUMERAL_DIGITS + 1)))

    @pytest.mark.parametrize(
        "text",
        ["((2^64)^64)^4*u", "{0}*{0}*u", "1/{0}*1/{0}*u", "exp({0}*{0}*y)",
         # the base is refused before 64 products of a 100-numeral product
         "(" + "*".join(["{0}"] * 100) + ")^64"],
        ids=["nested-power", "product", "denominators", "exp-weight", "power-base"],
    )
    def test_large_coefficient_refused_by_its_bits(self, text):
        half = str(2 ** (MAX_COEFFICIENT_BITS // 2 + 1))
        with pytest.raises(ScopeError, match="-bit numerator or denominator"):
            parse_expression(text.format(half))

    def test_equation_coefficient_refused(self):
        half = str(2 ** (MAX_COEFFICIENT_BITS // 2 + 1))
        with pytest.raises(ScopeError, match="above the cap"):
            parse_equation(f"u_t = u_2 - {half}*{half}*u")
