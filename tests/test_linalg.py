"""Exact linear algebra: worked examples and randomized invariants."""

import heapq
import random
from fractions import Fraction
from math import factorial, gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from jetsym.engine import build_ansatz, determining_system
from jetsym.errors import NonSquareError, NotEigenvalueError, ScopeError, ZeroPolynomialError
from jetsym.linalg import (
    Elimination,
    RatMatrix,
    UniPoly,
    _inverse_mod,
    _kernel_basis,
    _NeedsSplit,
    _decimal_digits,
    _int_cross,
    _int_exact_div,
    _int_mul,
    _int_taylor,
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
    unit_core,
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
            mat[i] = [_poly_exact_div(x, prev) for x in crossed]
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
# Rational coefficients, cleared row by row before the integer
# elimination; the scaled pool entries keep sort_key ties frequent.
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
# meets low zero coefficients, low terms that cancel, and pivots without a
# constant term to divide by.
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


@st.composite
def sparse_poly_rows(draw, entry):
    """``{column: UniPoly}`` rows of matrices up to 8 x 8, each row holding a
    random subset of the columns, with the column count."""
    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    rows = []
    for _ in range(nrows):
        cols = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)) if ncols else ()
        rows.append({j: p for j in sorted(cols) if (p := draw(entry)).coeffs})
    return rows, ncols


def int_row(row):
    """A ``{column: entry}`` row with each ``UniPoly`` entry as the integer
    coefficient list of its multiple by the lcm of the row's denominators;
    an integer list is kept as it is."""
    polys = {j: p for j, p in row.items() if isinstance(p, UniPoly)}
    scale = lcm(*(c.denominator for p in polys.values() for c in p.coeffs))
    return {**row, **{j: [int(c * scale) for c in p.coeffs] for j, p in polys.items()}}


def integer_matrix(rows):
    """Dense ``UniPoly`` rows, each times the lcm of its denominators (a
    constant row factor), and the same rows as integer coefficient lists,
    the form :func:`poly_matrix_pivots` and :func:`rank_modulo` read."""
    scaled = [[p.scale(lcm(*(c.denominator for q in row for c in q.coeffs))) for p in row] for row in rows]
    return scaled, [[[int(c) for c in p.coeffs] for p in row] for row in scaled]


def dense_cells(system):
    """The determining system's cells as dense rows of integer coefficient lists."""
    n = len(system.generators)
    return [[dict(cells).get(j, []) for j in range(n)] for cells in system._cells]


def is_constant(p):
    """Whether ``p`` has degree at most 0, the zero polynomial included."""
    return len(p.coeffs) <= 1


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


def carried_kernel(m, columns):
    """Kernel of ``[m | columns]`` read off one carry: the ``alpha`` in the
    kernel of what is left on the rows without a pivot, each with the
    back substitution on the pivot rows, then the kernel of ``m``."""
    e = Elimination(m._rows)
    carried = e.carry([{i: x for i, x in enumerate(b) if x} for b in columns])
    left = [row for i, row in carried.items() if row and i not in e.pivot_rows]
    out = []
    for alpha in nullspace(RatMatrix._from_sparse(left, len(columns))):
        x = [F(0)] * m.cols
        for i, pc in zip(e.pivot_rows, e.pivots):
            x[pc] = -sum((c * alpha[k] for k, c in carried.get(i, {}).items()), F(0))
        out.append(tuple(x) + alpha)
    kernel = _kernel_basis(e.reduced, e.pivots, m.cols)
    return out + [v + (F(0),) * len(columns) for v in kernel]


def augmented(m, columns):
    return RatMatrix(
        [list(m.row(i)) + [b[i] for b in columns] for i in range(m.rows)],
        cols=m.cols + len(columns),
    )


class TestRecordedElimination:
    """Columns carried through the record of one elimination read as the
    rref of the matrix with those columns appended."""

    @PROPERTY
    @given(systems())
    def test_carry_matches_augmented_rref(self, system):
        m, rhs = system
        e = Elimination(m._rows)
        assert (e.pivots, _kernel_basis(e.reduced, e.pivots, m.cols)) == (rref(m)[1], nullspace(m))
        carried = e.carry([{i: x for i, x in enumerate(b) if x} for b in rhs])
        for k, b in enumerate(rhs):
            red, pivots = dense_rref(augmented(m, [b]))
            left = any(k in row for i, row in carried.items() if i not in e.pivot_rows)
            assert left == (m.cols in pivots)
            if not left:
                for r, i in enumerate(e.pivot_rows):
                    assert carried.get(i, {}).get(k, F(0)) == red[r, m.cols]

    @PROPERTY
    @given(systems())
    def test_carried_kernel_is_the_augmented_kernel(self, system):
        m, rhs = system
        whole = augmented(m, rhs)
        kernel = carried_kernel(m, rhs)
        assert len(kernel) == len(nullspace(whole))
        assert rank(RatMatrix(kernel, cols=whole.cols)) == len(kernel)
        for v in kernel:
            assert all(x == 0 for x in whole.apply(v))

    def test_rows_empty_in_the_record_constrain_alpha(self):
        # row 1 of m is empty, so the elimination never sees it; a carried
        # column held there alone is not in the span of m's columns, and a
        # column held there and on a pivot row only in combination
        m = M([[1, 0], [0, 0], [0, 0]])
        e = Elimination(m._rows)
        assert e.pivot_rows == {0: 0}
        assert e.carry([{1: F(1)}]) == {1: {0: F(1)}}
        columns = [(F(0), F(1), F(0)), (F(2), F(-1), F(0))]
        kernel = carried_kernel(m, columns)
        assert len(kernel) == len(nullspace(augmented(m, columns))) == 2
        assert (F(-2), F(0), F(1), F(1)) in kernel


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
        scaled, ints = integer_matrix(rows)
        assert scaled == rows
        assert poly_matrix_pivots(ints) == dense_poly_matrix_pivots(rows)

    @PROPERTY
    @given(poly_matrices(st.one_of(POLY_ENTRY, RATIONAL_POLY_ENTRY)), st.sampled_from(MODULI))
    def test_rank_modulo_matches_dense(self, rows, modulus):
        # the splits depend on the pivot order; the parts of one rank do not
        scaled, ints = integer_matrix(rows)
        by_rank = {}
        for f, r in dense_rank_modulo(scaled, modulus):
            by_rank[r] = by_rank.get(r, UniPoly.one()) * f
        assert rank_modulo(ints, modulus) == [(by_rank[r], r) for r in sorted(by_rank)]

    @PROPERTY
    @given(
        poly_matrices(st.one_of(POLY_ENTRY, RATIONAL_POLY_ENTRY)),
        st.sampled_from(MODULI),
        st.randoms(use_true_random=False),
    )
    def test_rank_modulo_ignores_row_order(self, rows, modulus, rnd):
        ints = integer_matrix(rows)[1]
        shuffled = list(ints)
        rnd.shuffle(shuffled)
        assert rank_modulo(shuffled, modulus) == rank_modulo(ints, modulus)

    def test_rows_are_left_unmodified(self):
        lam, one = [0, 1], [1]
        rows = [[lam, one], [one, lam], [lam, lam]]
        before = [[list(x) for x in row] for row in rows]
        poly_matrix_pivots(rows)
        rank_modulo(rows, UniPoly([-1, 0, 1]))
        assert rows == before

    def test_tie_breaks_follow_row_swaps(self):
        # step 1 swaps rows 0 and 2; rows 1 and 0 then tie at column 1 and
        # the dense order, [2, 1, 0], makes row 1 the pivot
        z, one, lam = UniPoly.zero(), UniPoly.one(), UniPoly([0, 1])
        rows = [[z, lam, one], [z, lam, z], [lam, z, z]]
        pivots = poly_matrix_pivots(integer_matrix(rows)[1])
        assert pivots == dense_poly_matrix_pivots(rows)
        assert pivots == [lam, lam * lam, lam * lam]

    @PROPERTY
    @given(poly_matrices(SHIFTED_POLY_ENTRY))
    def test_pivots_match_dense_shifted_entries(self, rows):
        scaled, ints = integer_matrix(rows)
        assert poly_matrix_pivots(ints) == dense_poly_matrix_pivots(scaled)

    @PROPERTY
    @given(graded_poly_matrices())
    def test_pivots_match_dense_monomial_entries(self, rows):
        scaled, ints = integer_matrix(rows)
        pivots = poly_matrix_pivots(ints)
        assert pivots == dense_poly_matrix_pivots(scaled)
        assert all(_is_monomial(p) for p in pivots)

    def test_heat_scan_pivots_match_dense(self):
        ansatz = build_ansatz(4, 0, 3)
        rows = dense_cells(determining_system(ansatz, parse_equation("u_t = u_2")))
        pivots = poly_matrix_pivots(rows)
        assert len(pivots) == 56
        assert pivots == dense_poly_matrix_pivots([[UniPoly(x) for x in row] for row in rows])


SAMPLE_WEIGHTS = (F(0), F(1), F(-1), F(2), F(1, 2), F(-2, 3), F(3))


class TestUnitCore:
    """Eliminating the constant entries, units of Q[lambda], keeps the rank
    at every weight: ``units + rank(core(w)) == rank(M(w))``."""

    @staticmethod
    def check_core(rows, ncols):
        # unit_core reads integer coefficient lists: a row of UniPoly entries
        # is scaled by the lcm of its denominators, a constant row factor
        rows = [int_row(row) for row in rows]
        units, core = unit_core([list(row.items()) for row in rows], ncols)
        assert all(len(row) == ncols - units for row in core)
        assert not any(len(p) == 1 for row in core for p in row)
        assert all(any(row) for row in core)
        for w in SAMPLE_WEIGHTS:
            whole = RatMatrix(
                [[UniPoly(row[j]).eval(w) if j in row else F(0) for j in range(ncols)] for row in rows],
                cols=ncols,
            )
            reduced = RatMatrix([[UniPoly(p).eval(w) for p in row] for row in core], cols=ncols - units)
            assert units + rank(reduced) == rank(whole)
        return units, core

    @PROPERTY
    @given(sparse_poly_rows(POLY_ENTRY))
    def test_integer_entries(self, matrix):
        self.check_core(*matrix)

    @PROPERTY
    @given(sparse_poly_rows(st.one_of(RATIONAL_POLY_ENTRY, SHIFTED_POLY_ENTRY)))
    def test_rational_and_shifted_entries(self, matrix):
        self.check_core(*matrix)

    def test_least_markowitz_cost_then_row_and_column(self):
        one, lam = [1], [0, 1]
        # every unit of [[1, 1], [lam, 1]] costs 1: (0, 0) goes first and
        # leaves 1 - lam, where (0, 1) would leave lam - 1
        assert unit_core([[(0, one), (1, one)], [(0, lam), (1, one)]], 2) == (1, [[[1, -1]]])
        # (1, 1) costs 1 and goes before (0, 0) and (0, 1), which cost 2
        assert unit_core([[(0, one), (1, one), (2, lam)], [(0, lam), (1, one)]], 3) == (
            1, [[[1, -1], lam]]
        )

    def test_no_unit_leaves_the_matrix(self):
        lam = [0, 1]
        assert unit_core([[(0, lam)], [], [(1, [0, 0, 1])]], 3) == (
            0, [[lam, [], []], [[], [0, 0, 1], []]]
        )

    def test_cells_are_left_unmodified(self):
        # a step on the unit -2 negates its row, then rescales and crosses
        # the other rows: new lists, never the caller's
        rows = [[(0, [-2]), (1, [0, 1])], [(0, [0, 1]), (1, [3, 1])], [(1, [1, 1]), (2, [0, 0, 1])]]
        before = [[(j, list(p)) for j, p in row] for row in rows]
        unit_core(rows, 3)
        assert rows == before

    def test_scan_systems_shrink_to_small_cores(self):
        for text, caps, shape in [
            ("u_t = u_2", (4, 0, 3), (7, 6)),
            ("u_t = u_2 + u", (3, 0, 3), (6, 5)),
            ("u_t = u_3 + u*u_1", (3, 0, 3), (11, 2)),
        ]:
            system = determining_system(build_ansatz(*caps), parse_equation(text))
            rows = [dict(cells) for cells in system._cells]
            units, core = self.check_core(rows, len(system.generators))
            assert (len(core), len(core[0])) == shape
            assert units + shape[1] == len(system.generators)


def heap_unit_core(rows, ncols):
    """:func:`unit_core` as it was with a heap of every constant entry by
    ``(cost, row, column)``, stale items skipped when popped: the reference
    order of the pivots."""
    mat, col_rows = {}, {j: set() for j in range(ncols)}
    for i, row in enumerate(rows):
        mat[i] = {j: p for j, p in row if p}
        for j in mat[i]:
            col_rows[j].add(i)

    def cost(i, j):
        return (len(mat[i]) - 1) * (len(col_rows[j]) - 1)

    heap = [(cost(i, j), i, j) for i, row in mat.items() for j, p in row.items() if len(p) == 1]
    heapq.heapify(heap)
    while heap:
        k, r, c = heapq.heappop(heap)
        x = mat[r].get(c) if r in mat else None
        if x is None or len(x) != 1 or k != cost(r, c):
            continue
        prow = mat.pop(r)
        a = prow.pop(c)[0]
        if a < 0:
            a = -a
            prow = {j: [-v for v in p] for j, p in prow.items()}
        pivot, scaled = [a], a != 1 and prow
        hit_rows = col_rows.pop(c) - {r}
        for j in prow:
            col_rows[j].discard(r)
        for i in hit_rows:
            row = mat[i]
            f = row.pop(c)
            if scaled:
                for j, x in row.items():
                    if j not in prow:
                        row[j] = [a * v for v in x]
            for j, y in prow.items():
                v = _int_cross(pivot, row.get(j, []), f, y)
                if v:
                    row[j] = v
                    col_rows[j].add(i)
                else:
                    del row[j]
                    col_rows[j].discard(i)
            if scaled and (g := gcd(*(v for p in row.values() for v in p))) > 1:
                for j, p in row.items():
                    row[j] = [v // g for v in p]
        for i in hit_rows:
            for j, p in mat[i].items():
                if len(p) == 1:
                    heapq.heappush(heap, (cost(i, j), i, j))
        for j in prow:
            for i in col_rows[j]:
                if len(mat[i][j]) == 1 and i not in hit_rows:
                    heapq.heappush(heap, (cost(i, j), i, j))
    cols = sorted(col_rows)
    core = [[row.get(j, []) for j in cols] for row in mat.values() if row]
    return ncols - len(col_rows), core


# the units unit_core pivots on, polynomial entries, and zero cells
INT_LIST_ENTRY = st.one_of(
    st.sampled_from(([1], [-1], [2], [-2], [-3])),
    st.lists(st.integers(-3, 3), min_size=2, max_size=4).filter(lambda p: p[-1]),
    st.just([]),
)


@st.composite
def int_list_rows(draw):
    """Rows of ``(column, integer list)`` cells, the form determining systems
    keep, over up to 8 columns; rows and columns may be empty."""
    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    rows = []
    for _ in range(nrows):
        cols = sorted(draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))) if ncols else []
        rows.append([(j, draw(INT_LIST_ENTRY)) for j in cols])
    return rows, ncols


def nonzero_columns(core):
    keep = [k for k in range(len(core[0])) if any(row[k] for row in core)] if core else []
    return [[row[k] for k in keep] for row in core]


class TestUnitCoreAgainstHeap:
    """The cost-0 steps off a worklist and the least-cost scan give the
    heap's ``(units, core)``.  The one freedom: when a row holds several
    units alone in their columns, the order of the cost-0 steps picks which
    of those columns is eliminated, and the others are left all zero.  So
    the cores agree entry for entry once all-zero columns are dropped, and
    have the same width; without an all-zero column they are equal."""

    @staticmethod
    def check(rows, ncols):
        units, core = unit_core(rows, ncols)
        ref_units, ref_core = heap_unit_core(rows, ncols)
        assert units == ref_units
        assert [len(row) for row in core] == [len(row) for row in ref_core]
        assert nonzero_columns(core) == nonzero_columns(ref_core)

    @PROPERTY
    @given(int_list_rows())
    # row 2's units at columns 0 and 3 are alone in their columns: the heap
    # eliminates column 0 and leaves column 3 all zero
    @example(([[], [(1, [2, 0, 1]), (4, [2, 0, 1])], [(0, [1]), (1, [5, -2, 1]), (3, [1])]], 5))
    def test_random_sparse_matrices(self, matrix):
        self.check(*matrix)

    @pytest.mark.parametrize(
        "text, caps",
        [
            ("u_t = u_3 + u*u_1", (9, 0, 4)),
            ("u_t = u_3", (9, 0, 4)),
            ("u_t = u_2 + u*u_1", (9, 0, 4)),
            ("u_t = u_6 + 4*u_4 + 5*u_2 + 2*u", (9, 0, 3)),
        ],
    )
    def test_determining_systems(self, text, caps):
        # full column rank leaves no all-zero column: the cores are equal
        system = determining_system(build_ansatz(*caps), parse_equation(text))
        ncols = len(system.generators)
        assert unit_core(system._cells, ncols) == heap_unit_core(system._cells, ncols)


class TestScanGrading:
    """Heat and KdV are quasi-homogeneous: invariant under ``y -> a*y`` with
    the weight scaled by ``1/a``, so every entry of their y-free systems, and
    every minor, is a monomial in the weight.  The scan does not rely on it:
    its speed rests on the small core :func:`unit_core` leaves."""

    @pytest.mark.parametrize(
        "equation, caps", [("u_t = u_2", (4, 0, 3)), ("u_t = u_3 + u*u_1", (3, 0, 3))]
    )
    def test_quasi_homogeneous_systems_have_monomial_entries_and_pivots(self, equation, caps):
        system = determining_system(build_ansatz(*caps), parse_equation(equation))
        assert all(_is_monomial(x) for row in system.rows for x in row if not x.is_zero())
        pivots = poly_matrix_pivots(dense_cells(system))
        assert pivots and all(_is_monomial(p) for p in pivots)

    def test_ungraded_system_has_a_polynomial_pivot(self):
        system = determining_system(build_ansatz(3, 0, 3), parse_equation("u_t = u_2 + u"))
        assert not all(_is_monomial(p) for p in poly_matrix_pivots(dense_cells(system)))


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
            assert (total == n) == is_constant(residual)
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

    def test_cross_cancels_and_trims(self):
        # 2*(1 + x) - 1*(2 + 2x) = 0: full cancellation is the empty list
        assert _int_cross([2], [1, 1], [1], [2, 2]) == []
        # x*(1 + x) - 1*(x^2) = x: the cancelled top coefficient is trimmed
        assert _int_cross([0, 1], [1, 1], [1], [0, 0, 1]) == [0, 1]
        # a zero entry on either side
        assert _int_cross([3], [], [1], [2, 0, 1]) == [-2, 0, -1]
        assert _int_cross([3], [1, 2], [1], []) == [3, 6]
        # a crossed entry that cancels to zero is still divided by the last pivot
        assert _int_exact_div([], [2, 1]) == []


# Integer coefficient lists in the weight scan's form: ascending, no trailing zero.
INT_COEFFS = st.lists(st.integers(-5, 5), max_size=4).map(
    lambda c: c[: max((i + 1 for i, x in enumerate(c) if x), default=0)]
)


class TestIntCoefficientLists:
    """The helpers :func:`poly_matrix_pivots` and :func:`unit_core` run on."""

    @PROPERTY
    @given(INT_COEFFS, INT_COEFFS, INT_COEFFS, INT_COEFFS)
    def test_cross_matches_polynomial_arithmetic(self, a, x, f, y):
        expected = UniPoly(a) * UniPoly(x) - UniPoly(f) * UniPoly(y)
        assert UniPoly(_int_cross(a, x, f, y)) == expected
        assert _int_mul(a, x) == [int(c) for c in (UniPoly(a) * UniPoly(x)).coeffs]

    @PROPERTY
    @given(INT_COEFFS, INT_COEFFS.filter(bool))
    def test_exact_division_inverts_multiplication(self, q, den):
        assert _int_exact_div(_int_mul(q, den), den) == q

    def test_division_by_pivot_without_constant_term(self):
        # 6*lam^3 / (-2*lam) = -3*lam^2: low zero coefficients on both sides
        assert _int_exact_div([0, 0, 0, 6], [0, -2]) == [0, 0, -3]
        # (lam^3 - lam) / (lam - 1) = lam + lam^2
        assert _int_exact_div([0, -1, 0, 1], [-1, 1]) == [0, 1, 1]

    def test_inexact_division_of_low_degree_entries_raises(self):
        # lam / lam^2: no polynomial quotient
        with pytest.raises(ArithmeticError):
            _int_exact_div([0, 1], [0, 0, 1])
        # 3*lam^2 / (2*lam): a coefficient remainder over Z
        with pytest.raises(ArithmeticError):
            _int_exact_div([0, 0, 3], [0, 2])
        # (1 + lam^2) / (1 + lam): a polynomial remainder
        with pytest.raises(ArithmeticError):
            _int_exact_div([1, 0, 1], [1, 1])


class TestPolyMatrixPivots:
    def test_one_by_one(self):
        assert poly_matrix_pivots([[[-1, 0, 1]]]) == [UniPoly([-1, 0, 1])]

    def test_diagonal(self):
        assert poly_matrix_pivots([[[1], []], [[], [0, 1]]]) == [UniPoly.one(), UniPoly([0, 1])]

    def test_rank_drop_candidates(self):
        lam = [0, 1]
        pivots = poly_matrix_pivots([[lam, lam], [lam, lam]])
        assert len(pivots) == 1  # generic rank one
        roots = set()
        for p in pivots:
            roots.update(r for r, _ in rational_roots(p)[0])
        assert Fraction(0) in roots

    def test_lowest_degree_pivot_preference(self):
        lam, one = [0, 1], [1]
        pivots = poly_matrix_pivots([[lam, one], [one, lam]])
        # the degree-0 entry is chosen first even though it sits in row 1
        assert pivots[0] == UniPoly.one()

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
            pivots = poly_matrix_pivots(integer_matrix(mat)[1])
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
        out = rank_modulo([[[1, 0, 1]]], mod)
        assert out == [(mod.monic(), 0)]

    def test_full_rank_modulo(self):
        mod = UniPoly([1, 0, 1])
        out = rank_modulo([[[2, 1]]], mod)
        assert out == [(mod.monic(), 1)]

    def test_splitting_modulus(self):
        # modulus (x^2 - 1) splits when the entry shares only one factor
        mod = UniPoly([-1, 0, 1])
        entry = [-1, 1]  # x - 1
        out = dict((str(f), r) for f, r in rank_modulo([[entry]], mod))
        assert out["lambda - 1"] == 0
        assert out["lambda + 1"] == 1

    def test_constant_modulus_has_no_factors(self):
        assert rank_modulo([[[1, 1]]], UniPoly([3])) == []

    def test_zero_product_splits(self):
        # row 0 pivots column 0; row 1 holds no column 1, where the update
        # (lambda - 1)*(lambda + 1) is zero modulo lambda^2 - 1
        mod = UniPoly([-1, 0, 1])
        rows = [[[1], [1, 1], [], []], [[-1, 1], [], [1], [1]]]
        assert rank_modulo(rows, mod) == [(mod, 2)]

    def test_split_core_is_one_factor_in_any_row_order(self):
        # the scan's core of u_5 + 6*u_1 + 5*u_3 at (3,2,0): the elimination
        # splits lambda^4 + 5*lambda^2 + 6, and both parts have rank 4
        eq = parse_equation("u_t = u_5 + 6*u_1 + 5*u_3")
        system = determining_system(build_ansatz(3, 0, 2), eq)
        core = unit_core(system._cells, len(system.generators))[1]
        residual = UniPoly([6, 0, 5, 0, 1])
        rnd = random.Random(0)
        for _ in range(10):
            assert rank_modulo(core, residual) == [(residual, 4)]
            rnd.shuffle(core)


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

    @PROPERTY
    @given(
        st.one_of(POLY_ENTRY, RATIONAL_POLY_ENTRY, SHIFTED_POLY_ENTRY),
        st.sampled_from((F(0), F(1), F(-1, 2), F(3, 7))),
        st.integers(0, 2),
    )
    def test_taylor_is_scaled_derivatives(self, p, x, slack):
        # the integer expansion of D * p at x = a/b, scaled by b**n
        scale = lcm(*(c.denominator for c in p.coeffs))
        n = max(p.degree, 0) + slack
        expansion = _int_taylor([int(c * scale) for c in p.coeffs], x.numerator, x.denominator, n)
        assert len(expansion) == len(p.coeffs)
        for k, c in enumerate(expansion):
            assert isinstance(c, int) and c == scale * x.denominator**n * p.eval(x) / factorial(k)
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
