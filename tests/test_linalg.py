"""Exact linear algebra: worked examples and randomized invariants."""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from jetsym.engine import build_ansatz, determining_system
from jetsym.errors import NonSquareError, NotEigenvalueError, ScopeError, ZeroPolynomialError
from jetsym.linalg import (
    RatMatrix,
    UniPoly,
    _inverse_mod,
    _NeedsSplit,
    _decimal_digits,
    _graded,
    _graded_cross,
    _graded_div,
    _int_exact_div,
    _poly_exact_div,
    char_poly,
    generalized_eigenspace,
    in_span,
    jordan_chains,
    nullspace,
    poly_matrix_pivots,
    rank,
    rank_modulo,
    rational_roots,
    rref,
    solve,
    solve_columns,
    squarefree_factors,
)
from jetsym.parser import parse_equation

F = Fraction


def M(rows):
    return RatMatrix(rows)


def dense_rref(m):
    """Reference: textbook dense Gauss-Jordan, first nonzero row as pivot."""
    data = m.tolists()
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if data[i][c] != 0), None)
        if pr is None:
            continue
        data[r], data[pr] = data[pr], data[r]
        inv = 1 / data[r][c]
        data[r] = [x * inv for x in data[r]]
        for i in range(nrows):
            if i != r and data[i][c] != 0:
                f = data[i][c]
                data[i] = [a - f * b for a, b in zip(data[i], data[r])]
        pivots.append(c)
        r += 1
    return RatMatrix(data, cols=ncols), tuple(pivots)


def dense_solve(m, b):
    """Reference: one solution of ``m x = b`` from the dense form, or None."""
    aug = RatMatrix([list(m.row(i)) + [b[i]] for i in range(m.rows)], cols=m.cols + 1)
    red, pivots = dense_rref(aug)
    if m.cols in pivots:
        return None
    x = [F(0)] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r, m.cols]
    return tuple(x)


def dense_poly_matrix_pivots(rows):
    """Reference: dense Bareiss elimination, every cell updated at every step."""
    mat = [list(r) for r in rows]
    if not mat:
        return []
    nrows, ncols = len(mat), len(mat[0])
    pivots = []
    prev = UniPoly.one()
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        cands = [
            (mat[i][c].sort_key(), i) for i in range(r, nrows) if not mat[i][c].is_zero()
        ]
        if not cands:
            continue
        _, pr = min(cands)
        mat[r], mat[pr] = mat[pr], mat[r]
        pivot = mat[r][c]
        pivots.append(pivot)
        for i in range(r + 1, nrows):
            factor = mat[i][c]
            crossed = [
                pivot * mat[i][j] - factor * mat[r][j] for j in range(ncols)
            ]
            try:
                mat[i] = [_poly_exact_div(x, prev) for x in crossed]
            except ArithmeticError:
                mat[i] = crossed
        prev = pivot
        r += 1
    return pivots


def dense_rank_modulo(rows, modulus):
    """Reference: dense Gauss-Jordan modulo ``modulus``, first nonzero row pivots."""
    modulus = modulus.monic()
    mat = [[e.divmod(modulus)[1] for e in row] for row in rows]
    try:
        nrows = len(mat)
        ncols = len(mat[0]) if mat else 0
        r = 0
        for c in range(ncols):
            if r == nrows:
                break
            pr = next((i for i in range(r, nrows) if not mat[i][c].is_zero()), None)
            if pr is None:
                continue
            mat[r], mat[pr] = mat[pr], mat[r]
            inv = _inverse_mod(mat[r][c], modulus)
            mat[r] = [(inv * e).divmod(modulus)[1] for e in mat[r]]
            for i in range(nrows):
                if i != r and not mat[i][c].is_zero():
                    f = mat[i][c]
                    mat[i] = [
                        (a - f * b).divmod(modulus)[1]
                        for a, b in zip(mat[i], mat[r])
                    ]
            r += 1
        return [(modulus, r)]
    except _NeedsSplit as split:
        g = split.factor
        other = _poly_exact_div(modulus, g).monic()
        out = dense_rank_modulo(rows, g)
        if other.degree > 0:
            out.extend(dense_rank_modulo(rows, other))
        return out


ENTRY = st.one_of(
    st.just(F(0)), st.builds(F, st.integers(-3, 3), st.integers(1, 3))
)


@st.composite
def matrices(draw):
    """Small matrices with forced zero rows and columns; 0 x n shapes included."""
    nrows = draw(st.integers(0, 5))
    ncols = draw(st.integers(0, 5))
    dead_rows = draw(st.sets(st.integers(0, 4), max_size=2))
    dead_cols = draw(st.sets(st.integers(0, 4), max_size=2))
    return RatMatrix(
        [
            [
                F(0) if i in dead_rows or j in dead_cols else draw(ENTRY)
                for j in range(ncols)
            ]
            for i in range(nrows)
        ],
        cols=ncols,
    )


@st.composite
def systems(draw):
    m = draw(matrices())
    rhs = draw(st.lists(st.lists(ENTRY, min_size=m.rows, max_size=m.rows), max_size=4))
    return m, [tuple(b) for b in rhs]


# A small pool of entries, so that pivot candidates often tie on sort_key
# and the row-position tie break decides.
POLY_POOL = tuple(
    UniPoly(c)
    for c in (
        [1], [-1], [2], [0, 1], [1, 1], [-1, 1], [0, 2], [-1, 0, 1], [1, 0, 1], [0, 0, 1]
    )
)
POLY_ENTRY = st.one_of(
    st.sampled_from((UniPoly.zero(),) + POLY_POOL),
    st.builds(UniPoly, st.lists(st.integers(-2, 2), max_size=3)),
)
# Rational coefficients, so that poly_matrix_pivots scales by a common
# denominator D > 1; the scaled pool entries keep sort_key ties frequent.
RATIONAL_POLY_ENTRY = st.one_of(
    st.just(UniPoly.zero()),
    st.builds(
        UniPoly.scale, st.sampled_from(POLY_POOL), st.sampled_from((F(1, 2), F(2, 3), F(-3, 5)))
    ),
    st.builds(
        UniPoly,
        st.lists(st.builds(F, st.integers(-3, 3), st.sampled_from((1, 2, 3, 5, 7))), max_size=3),
    ),
)
# Entries times lambda^s, integer and rational, so that the elimination
# strips shifts, cancels low terms (raising the shift) and divides by
# shifted pivots.
SHIFTED_POLY_ENTRY = st.builds(
    lambda p, s: UniPoly([0] * s + list(p.coeffs)),
    st.one_of(POLY_ENTRY, RATIONAL_POLY_ENTRY),
    st.integers(0, 4),
)
# split, irreducible, linear, three linear factors, a square, irrational roots
MODULI = tuple(
    UniPoly(c)
    for c in ([-1, 0, 1], [1, 0, 1], [0, 1], [0, -1, 0, 1], [1, -2, 1], [-2, 0, 1])
)


@st.composite
def poly_matrices(draw, entry=POLY_ENTRY):
    """UniPoly matrices of every shape up to 6 x 6, with forced zero rows and columns."""
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(0, 6))
    dead_rows = draw(st.sets(st.integers(0, 5), max_size=2))
    dead_cols = draw(st.sets(st.integers(0, 5), max_size=2))
    return [
        [
            UniPoly.zero() if i in dead_rows or j in dead_cols else draw(entry)
            for j in range(ncols)
        ]
        for i in range(nrows)
    ]


@st.composite
def graded_poly_matrices(draw):
    """Matrices of monomials ``c * lambda**(r_i - c_j)``: every minor is a monomial."""
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(0, 6))
    row_degrees = draw(st.lists(st.integers(3, 6), min_size=nrows, max_size=nrows))
    col_degrees = draw(st.lists(st.integers(0, 3), min_size=ncols, max_size=ncols))
    coeff = st.sampled_from((0, 0, 1, -1, 2, F(-3, 2)))
    return [[UniPoly([0] * (r - c) + [draw(coeff)]) for c in col_degrees] for r in row_degrees]


def _is_monomial(p):
    return sum(1 for c in p.coeffs if c) == 1


PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


class TestSparseAgainstDense:
    @PROPERTY
    @given(matrices())
    def test_rref_matches_dense(self, m):
        red, pivots = rref(m)
        ref_red, ref_pivots = dense_rref(m)
        assert (red, pivots) == (ref_red, ref_pivots)
        assert (red.rows, red.cols) == (m.rows, m.cols)

    @PROPERTY
    @given(systems())
    def test_solve_columns_stops_at_first_inconsistent(self, system):
        m, rhs = system
        expected = []
        for b in rhs:
            x = dense_solve(m, b)
            if x is None:
                break
            expected.append(x)
        assert solve_columns(m, rhs) == expected


def dense_rows(nrows, ncols):
    return st.lists(
        st.lists(ENTRY, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows
    )


class TestSparseRepresentation:
    """The sparse rows read, compare and hash as the dense matrix would."""

    @PROPERTY
    @given(matrices())
    def test_rref_hashes_as_dense(self, m):
        red, ref = rref(m)[0], dense_rref(m)[0]
        assert red == ref
        assert hash(red) == hash(ref)

    @PROPERTY
    @given(matrices(), st.randoms(use_true_random=False))
    def test_sparse_and_dense_constructors_agree(self, m, rnd):
        dense = m.tolists()
        rows = []
        for row in dense:
            cells = [(j, x) for j, x in enumerate(row) if x]
            rnd.shuffle(cells)  # the order the entries were stored in is no part of it
            rows.append(dict(cells))
        sparse = RatMatrix._from_sparse(rows, m.cols)
        built = RatMatrix(dense, cols=m.cols)
        assert sparse == built == m
        assert hash(sparse) == hash(built) == hash(m)
        assert sparse.tolists() == dense
        assert [sparse.row(i) for i in range(m.rows)] == [tuple(r) for r in dense]
        assert [sparse.column(j) for j in range(m.cols)] == [
            tuple(r[j] for r in dense) for j in range(m.cols)
        ]
        assert all(sparse[i, j] == dense[i][j] for i in range(m.rows) for j in range(m.cols))

    def test_constructor_converts_and_drops_zeros(self):
        m = RatMatrix([[0, "1/2", F(0)], [2, 0, -3]])
        assert m._rows == ({1: F(1, 2)}, {0: F(2), 2: F(-3)})
        assert all(type(x) is F for row in m._rows for x in row.values())
        assert m[1, -1] == -3
        with pytest.raises(IndexError):
            m[0, 3]
        with pytest.raises(ValueError):
            RatMatrix([[1, 2], [3]])

    @PROPERTY
    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
    def test_arithmetic_matches_dense(self, n, k, p, data):
        a = data.draw(dense_rows(n, k))
        a2 = data.draw(dense_rows(n, k))
        b = data.draw(dense_rows(k, p))
        v = data.draw(st.lists(ENTRY, min_size=k, max_size=k))
        c = data.draw(ENTRY)
        ma, mb = RatMatrix(a, cols=k), RatMatrix(b, cols=p)
        product = [[sum((a[i][t] * b[t][j] for t in range(k)), F(0)) for j in range(p)]
                   for i in range(n)]
        assert ma @ mb == RatMatrix(product, cols=p)
        assert ma + RatMatrix(a2, cols=k) == RatMatrix(
            [[x + y for x, y in zip(r, r2)] for r, r2 in zip(a, a2)], cols=k
        )
        assert ma.scale(c) == RatMatrix([[c * x for x in r] for r in a], cols=k)
        assert ma.apply(v) == tuple(sum((x * y for x, y in zip(r, v)), F(0)) for r in a)
        assert ma.is_zero() == all(x == 0 for r in a for x in r)


class TestPolySparseAgainstDense:
    @PROPERTY
    @given(poly_matrices())
    def test_pivots_match_dense(self, rows):
        assert poly_matrix_pivots(rows) == dense_poly_matrix_pivots(rows)

    @PROPERTY
    @given(poly_matrices(), st.sampled_from(MODULI))
    def test_rank_modulo_matches_dense(self, rows, modulus):
        assert rank_modulo(rows, modulus) == dense_rank_modulo(rows, modulus)

    def test_tie_breaks_follow_row_swaps(self):
        # step 1 swaps rows 0 and 2; rows 1 and 0 then tie at column 1 and
        # the dense order, [2, 1, 0], makes row 1 the pivot
        z, one, lam = UniPoly.zero(), UniPoly.one(), UniPoly([0, 1])
        rows = [[z, lam, one], [z, lam, z], [lam, z, z]]
        pivots = poly_matrix_pivots(rows)
        assert pivots == dense_poly_matrix_pivots(rows)
        assert pivots == [lam, lam * lam, lam * lam]

    @PROPERTY
    @given(poly_matrices(RATIONAL_POLY_ENTRY))
    def test_pivots_match_dense_rational_coefficients(self, rows):
        assert poly_matrix_pivots(rows) == dense_poly_matrix_pivots(rows)

    @PROPERTY
    @given(poly_matrices(SHIFTED_POLY_ENTRY))
    def test_pivots_match_dense_shifted_entries(self, rows):
        assert poly_matrix_pivots(rows) == dense_poly_matrix_pivots(rows)

    @PROPERTY
    @given(graded_poly_matrices())
    def test_pivots_match_dense_graded_entries(self, rows):
        pivots = poly_matrix_pivots(rows)
        assert pivots == dense_poly_matrix_pivots(rows)
        assert all(_is_monomial(p) for p in pivots)

    def test_rational_scan_pivots_match_dense(self):
        # coefficients -1/3 and 2/5: the integer elimination scales by D = 15
        ansatz = build_ansatz(3, 0, 3)
        eq = parse_equation("u_t = u_2 - 1/3*u + 2/5*u_1")
        rows = determining_system(ansatz, eq).rows
        assert {c.denominator for row in rows for p in row for c in p.coeffs} >= {3, 5}
        pivots = poly_matrix_pivots(rows)
        assert pivots == dense_poly_matrix_pivots(rows)
        assert any(c.denominator > 1 for p in pivots for c in p.coeffs)

    def test_heat_scan_pivots_match_dense(self):
        ansatz = build_ansatz(4, 0, 3)
        rows = determining_system(ansatz, parse_equation("u_t = u_2")).rows
        pivots = poly_matrix_pivots(rows)
        assert len(pivots) == 56
        assert pivots == dense_poly_matrix_pivots(rows)


class TestScanGrading:
    """The weight scan's speed rests on quasi-homogeneity: heat and KdV are
    invariant under ``y -> a*y`` with the weight scaled by ``1/a``, so every
    entry of their y-free systems, and every minor, is a monomial in the
    weight."""

    @pytest.mark.parametrize(
        "equation, caps", [("u_t = u_2", (4, 0, 3)), ("u_t = u_3 + u*u_1", (3, 0, 3))]
    )
    def test_graded_systems_have_monomial_entries_and_pivots(self, equation, caps):
        rows = determining_system(build_ansatz(*caps), parse_equation(equation)).rows
        assert all(_is_monomial(x) for row in rows for x in row if not x.is_zero())
        pivots = poly_matrix_pivots(rows)
        assert pivots and all(_is_monomial(p) for p in pivots)

    def test_ungraded_system_has_a_polynomial_pivot(self):
        rows = determining_system(build_ansatz(3, 0, 3), parse_equation("u_t = u_2 + u")).rows
        assert not all(_is_monomial(p) for p in poly_matrix_pivots(rows))


class TestRref:
    def test_identity(self):
        red, pivots = rref(M([[1, 0], [0, 1]]))
        assert red == RatMatrix.identity(2)
        assert pivots == (0, 1)

    def test_rank_one(self):
        red, pivots = rref(M([[1, 1], [1, 1]]))
        assert red == M([[1, 1], [0, 0]])
        assert pivots == (0,)

    def test_shifted_pivot(self):
        red, pivots = rref(M([[0, 1], [0, 0]]))
        assert red == M([[0, 1], [0, 0]])
        assert pivots == (1,)

    def test_idempotent_on_random(self):
        rng = random.Random(7)
        for _ in range(60):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = M(
                [
                    [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
                    for _ in range(rows)
                ]
            )
            red, pivots = rref(m)
            red2, pivots2 = rref(red)
            assert red2 == red
            assert pivots2 == pivots
            assert list(pivots) == sorted(pivots)


class TestNullspace:
    def test_identity_is_injective(self):
        assert nullspace(RatMatrix.identity(2)) == []

    def test_rank_one(self):
        basis = nullspace(M([[1, 1], [1, 1]]))
        assert len(basis) == 1
        # normalization: first nonzero entry is one
        assert basis[0] == (F(1), F(-1))

    def test_zero_matrix(self):
        basis = nullspace(RatMatrix.zero(2, 3))
        assert len(basis) == 3

    def test_exactness_and_rank_nullity(self):
        rng = random.Random(11)
        for _ in range(60):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 5)
            m = M(
                [[F(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
            )
            basis = nullspace(m)
            for v in basis:
                assert all(x == 0 for x in m.apply(v))
                first = next(x for x in v if x != 0)
                assert first == 1
            assert rank(m) + len(basis) == cols


class TestCharPoly:
    def test_nilpotent_block(self):
        assert char_poly(M([[0, 1], [0, 0]])) == UniPoly([0, 0, 1])

    def test_diag_plus_minus(self):
        assert char_poly(M([[1, 0], [0, -1]])) == UniPoly([-1, 0, 1])

    def test_one_by_one(self):
        assert char_poly(M([[5]])) == UniPoly([-5, 1])

    def test_non_square(self):
        with pytest.raises(NonSquareError):
            char_poly(M([[1, 2, 3], [4, 5, 6]]))

    def test_cayley_hamilton_random(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.choice((2, 3))
            m = M(
                [
                    [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
                    for _ in range(n)
                ]
            )
            assert char_poly(m).eval_matrix(m).is_zero()


class TestRationalRoots:
    def test_two_simple_roots(self):
        roots, residual = rational_roots(UniPoly([-1, 0, 1]))
        assert roots == [(F(-1), 1), (F(1), 1)]
        assert residual == UniPoly.one()

    def test_double_zero(self):
        roots, residual = rational_roots(UniPoly([0, 0, 1]))
        assert roots == [(F(0), 2)]
        assert residual == UniPoly.one()

    def test_no_rational_roots(self):
        roots, residual = rational_roots(UniPoly([1, 0, 1]))
        assert roots == []
        assert residual == UniPoly([1, 0, 1])

    def test_fractional_root(self):
        # (2x - 1)(x + 3) = 2x^2 + 5x - 3
        roots, residual = rational_roots(UniPoly([-3, 5, 2]))
        assert roots == [(F(-3), 1), (F(1, 2), 1)]
        assert residual == UniPoly.one()

    def test_zero_polynomial(self):
        with pytest.raises(ZeroPolynomialError):
            rational_roots(UniPoly.zero())

    def test_huge_coefficient_is_out_of_scope(self):
        with pytest.raises(ScopeError, match="13-digit"):
            rational_roots(UniPoly([-(10**12 + 1), 1]))
        with pytest.raises(ScopeError, match="21-digit"):
            rational_roots(UniPoly([10**20, 0, 1]))
        with pytest.raises(ScopeError, match="21-digit"):  # integer form 10^20 x - 1
            rational_roots(UniPoly([F(-1, 10**20), 1]))

    def test_refusal_message_past_the_str_limit(self):
        # the integer form 10^5000 x^2 - 1 has 5001 digits, above the 4300
        # that int/str conversion allows
        with pytest.raises(ScopeError, match=r"degree-2 .* 5001-digit \(16610-bit\)"):
            rational_roots(UniPoly([-1, 0, F(1, 10**5000)]))

    @pytest.mark.parametrize("n", [1, 9, 10, 99, 10**12, 10**12 + 1, 10**4299, 10**4300 - 1])
    def test_decimal_digits(self, n):
        assert _decimal_digits(n) == len(str(n)) == _decimal_digits(-n)

    def test_bound_applies_to_the_primitive_form(self):
        # 10^12 itself is searched; 10^20 * (x - 1) is primitive x - 1
        assert rational_roots(UniPoly([-(10**12), 1]))[0] == [(F(10**12), 1)]
        assert rational_roots(UniPoly([-(10**20), 10**20]))[0] == [(F(1), 1)]


class TestGeneralizedEigenspace:
    def test_nilpotent_full(self):
        basis = generalized_eigenspace(M([[0, 1], [0, 0]]), 0)
        assert len(basis) == 2

    def test_simple_eigenvalue(self):
        basis = generalized_eigenspace(M([[1, 0], [0, -1]]), 1)
        assert basis == [(F(1), F(0))]

    def test_non_eigenvalue(self):
        assert generalized_eigenspace(M([[1, 0], [0, -1]]), 7) == []

    def test_dimension_sum_vs_splitting(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.choice((2, 3))
            m = M([[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
            roots, residual = rational_roots(char_poly(m))
            total = sum(len(generalized_eigenspace(m, lam)) for lam, _ in roots)
            assert total <= n
            assert (total == n) == residual.is_constant()
            for lam, mult in roots:
                assert len(generalized_eigenspace(m, lam)) == mult


class TestJordanChains:
    def test_single_chain(self):
        chains = jordan_chains(M([[0, 1], [0, 0]]), 0)
        assert len(chains) == 1
        assert len(chains[0]) == 2

    def test_two_trivial_chains(self):
        chains = jordan_chains(RatMatrix.zero(2, 2), 0)
        assert [len(c) for c in chains] == [1, 1]

    def test_shifted_eigenvalue(self):
        chains = jordan_chains(M([[1, 1], [0, 1]]), 1)
        assert [len(c) for c in chains] == [2]

    def test_not_eigenvalue(self):
        with pytest.raises(NotEigenvalueError):
            jordan_chains(M([[1, 0], [0, 1]]), 2)

    def test_chain_relations_random(self):
        rng = random.Random(19)
        for _ in range(30):
            n = rng.choice((2, 3, 4))
            # build an upper-triangular matrix with a repeated eigenvalue
            lam = F(rng.randint(-2, 2))
            rows = [[lam if i == j else F(0) for j in range(n)] for i in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = F(rng.randint(-1, 1))
            m = M(rows)
            chains = jordan_chains(m, lam)
            shifted = m - RatMatrix.identity(n).scale(lam)
            flat = []
            for chain in chains:
                for upper, lower in zip(chain, chain[1:]):
                    assert shifted.apply(upper) == lower
                assert all(x == 0 for x in shifted.apply(chain[-1]))
                flat.extend(chain)
            assert len(flat) == len(generalized_eigenspace(m, lam))
            assert rank(RatMatrix.from_columns(flat)) == len(flat)
            lengths = [len(c) for c in chains]
            assert lengths == sorted(lengths, reverse=True)


class TestIntExactDiv:
    def test_exact_quotients(self):
        assert _int_exact_div([-1, 0, 1], [-1, 1]) == [1, 1]  # (x^2 - 1) / (x - 1)
        assert _int_exact_div([0, 6, 4], [0, 2]) == [3, 2]
        assert _int_exact_div([6, -9], [3]) == [2, -3]

    def test_coefficient_remainder_raises(self):
        # 3x / 2x: the leading coefficient leaves remainder 1 over Z
        with pytest.raises(ArithmeticError):
            _int_exact_div([0, 3], [0, 2])
        with pytest.raises(ArithmeticError):
            _int_exact_div([4, 5], [2])

    def test_low_degree_remainder_raises(self):
        # (x^2 + 1) / x has integer quotient x but leaves remainder 1
        with pytest.raises(ArithmeticError):
            _int_exact_div([1, 0, 1], [0, 1])
        with pytest.raises(ArithmeticError):
            _int_exact_div([1], [1, 1])


class TestGradedEntries:
    """Entries ``(s, p)``: lambda**s times an integer list with ``p[0] != 0``."""

    def test_strip_moves_low_zeros_into_the_shift(self):
        assert _graded(1, [0, 0, 3, -1, 0]) == (3, [3, -1])
        assert _graded(2, [5]) == (2, [5])
        assert _graded(0, [0, 0]) is None

    def test_cross_aligns_shifts_and_strips_cancellations(self):
        one, lam = (0, [1]), (1, [1])
        # 1*(1 + lam) - 1*1 = lam: the constant terms cancel
        assert _graded_cross(one, (0, [1, 1]), one, one) == (1, [1])
        # lam*lam - 2*(lam + lam^2) = -2*lam - lam^2
        assert _graded_cross(lam, lam, (0, [2]), (1, [1, 1])) == (1, [-2, -1])
        assert _graded_cross((2, [3]), (1, [2]), (1, [6]), (2, [1])) is None
        assert _graded_cross(lam, None, one, (0, [2, 0, 1])) == (0, [-2, 0, -1])

    def test_exact_division_subtracts_shifts(self):
        assert _graded_div((3, [6]), (1, [-2])) == (2, [-3])
        assert _graded_div((1, [-1, 0, 1]), (0, [-1, 1])) == (1, [1, 1])

    def test_inexact_division_raises(self):
        # lambda / lambda^2: the shift would go negative
        with pytest.raises(ArithmeticError):
            _graded_div((1, [1]), (2, [1]))
        # 3*lambda^2 / (2*lambda): a monomial coefficient remainder over Z
        with pytest.raises(ArithmeticError):
            _graded_div((2, [3]), (1, [2]))
        with pytest.raises(ArithmeticError):
            _graded_div((0, [1, 0, 1]), (0, [1, 1]))


class TestPolyMatrixPivots:
    def test_one_by_one(self):
        p = UniPoly([-1, 0, 1])
        assert poly_matrix_pivots([[p]]) == [p]

    def test_diagonal(self):
        one = UniPoly.one()
        lam = UniPoly([0, 1])
        assert poly_matrix_pivots([[one, UniPoly.zero()], [UniPoly.zero(), lam]]) == [
            one,
            lam,
        ]

    def test_rank_drop_candidates(self):
        lam = UniPoly([0, 1])
        pivots = poly_matrix_pivots([[lam, lam], [lam, lam]])
        assert len(pivots) == 1  # generic rank one
        roots = set()
        for p in pivots:
            roots.update(r for r, _ in rational_roots(p)[0])
        assert Fraction(0) in roots

    def test_lowest_degree_pivot_preference(self):
        lam = UniPoly([0, 1])
        one = UniPoly.one()
        pivots = poly_matrix_pivots([[lam, one], [one, lam]])
        # the degree-0 entry is chosen first even though it sits in row 1
        assert pivots[0] == one

    def test_drop_set_containment_random(self):
        rng = random.Random(23)
        for _ in range(25):
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 3)
            mat = [
                [
                    UniPoly([F(rng.randint(-2, 2)) for _ in range(rng.randint(1, 3))])
                    for _ in range(cols)
                ]
                for _ in range(rows)
            ]
            pivots = poly_matrix_pivots(mat)
            generic = len(pivots)
            cand = set()
            for p in pivots:
                cand.update(r for r, _ in rational_roots(p)[0])
            for val in [F(-2), F(-1), F(0), F(1), F(2)]:
                fixed = RatMatrix([[e.eval(val) for e in row] for row in mat])
                if rank(fixed) < generic:
                    assert val in cand


class TestRankModulo:
    def test_irreducible_modulus_rank_drop(self):
        mod = UniPoly([1, 0, 1])  # no rational roots
        entry = UniPoly([1, 0, 1])
        out = rank_modulo([[entry]], mod)
        assert out == [(mod.monic(), 0)]

    def test_full_rank_modulo(self):
        mod = UniPoly([1, 0, 1])
        out = rank_modulo([[UniPoly([2, 1])]], mod)
        assert out == [(mod.monic(), 1)]

    def test_splitting_modulus(self):
        # modulus (x^2 - 1) splits when the entry shares only one factor
        mod = UniPoly([-1, 0, 1])
        entry = UniPoly([-1, 1])  # x - 1
        out = dict((str(f), r) for f, r in rank_modulo([[entry]], mod))
        assert out["lambda - 1"] == 0
        assert out["lambda + 1"] == 1


class TestUniPolyBasics:
    def test_divmod_exact(self):
        p = UniPoly([-1, 0, 1])
        q, r = p.divmod(UniPoly([1, 1]))
        assert q == UniPoly([-1, 1])
        assert r.is_zero()

    def test_gcd(self):
        a = UniPoly([-1, 0, 1])  # (x-1)(x+1)
        b = UniPoly([1, 2, 1])  # (x+1)^2
        assert a.gcd(b) == UniPoly([1, 1])

    def test_squarefree_factors(self):
        p = UniPoly([1, 2, 1]) * UniPoly([1, 0, 1])
        factors = squarefree_factors(p)
        assert UniPoly([1, 1]) in factors

    @PROPERTY
    @given(
        st.one_of(POLY_ENTRY, RATIONAL_POLY_ENTRY, SHIFTED_POLY_ENTRY),
        st.sampled_from((0, 1, F(-1, 2), F(3, 7))),
        st.data(),
    )
    def test_taylor_is_scaled_derivatives(self, p, x, data):
        count = data.draw(st.integers(1, p.degree + 2))
        expansion = p.taylor(x, count)
        assert len(expansion) == count
        for k, c in enumerate(expansion):
            assert isinstance(c, Fraction) and c == p.eval(x) / factorial(k)
            p = p.derivative()

    def test_str(self):
        assert str(UniPoly([1, 0, 1])) == "lambda^2 + 1"
        assert str(UniPoly([-1, 0, 1])) == "lambda^2 - 1"
        assert str(UniPoly.zero()) == "0"


class TestSolveHelpers:
    def test_solve_consistent(self):
        m = M([[1, 1], [0, 1]])
        x = solve(m, (F(3), F(1)))
        assert m.apply(x) == (F(3), F(1))

    def test_solve_inconsistent(self):
        assert solve(M([[1, 1], [1, 1]]), (F(0), F(1))) is None

    def test_in_span(self):
        cols = [(F(1), F(0)), (F(0), F(1))]
        assert in_span(cols, (F(5), F(-2)))
        assert not in_span([(F(1), F(1))], (F(1), F(0)))
