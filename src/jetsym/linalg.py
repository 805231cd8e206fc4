"""Exact rational linear algebra and univariate polynomials.

Everything here works over arbitrary-precision rationals
(:class:`fractions.Fraction`), or over Python integers inside the
polynomial elimination; there is no floating point anywhere.
Matrices are immutable, operations are pure, and every basis returned
follows a fixed normalization rule (first nonzero entry equals one) so
downstream output is deterministic.

A :class:`RatMatrix` holds only sparse rows, ``{column: entry}`` dicts of
its nonzero entries, from construction through elimination to the kernel.
The one exact rational elimination, :class:`Elimination`, records its row
operations, so later columns are carried through them without eliminating
again; kernels, ranks, solves, span tests and Jordan chain tops are each
read off one elimination.

Over polynomials in the weight unknown, :func:`unit_core` eliminates the
constant entries, units of Q[lambda], and the weight scan's Bareiss
elimination and :func:`rank_modulo` run on the small core it leaves.
:func:`unit_core`, :func:`poly_matrix_pivots` and :func:`rank_modulo`
read every entry as a list of integer coefficients, ascending by degree,
``[]`` for zero: the determining system's own form, read as it is kept.
Every division in the Bareiss elimination is an exact ``divmod`` long
division over Z, and one that leaves a remainder raises as the bug it would be.
Those two are fraction-free eliminations over Z[lambda], whose integer
minors a field elimination cannot give; :func:`rank_modulo` is a field
elimination, the one :class:`Elimination` run on residues modulo a factor.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .errors import (
    NonSquareError,
    NotEigenvalueError,
    ScopeError,
    ZeroPolynomialError,
)

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class RatMatrix:
    """Immutable matrix with exact rational entries, held as sparse rows.

    Row ``i`` is a ``{column: entry}`` dict of its nonzero entries; zero
    entries are not stored.  The constructor takes dense rows and converts
    each entry once; :meth:`_from_sparse` adopts rows of nonzero
    ``Fraction``s that this package built itself.  Indexing, ``row``,
    ``column``, ``tolists``, equality and hashing read as the dense matrix
    would.
    """

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows: Iterable[Iterable], cols: int = None):
        dense = [tuple(map(_frac, row)) for row in rows]
        self.rows = len(dense)
        self.cols = len(dense[0]) if dense else (cols or 0)
        if any(len(r) != self.cols for r in dense):
            raise ValueError("ragged matrix rows")
        self._rows = tuple({j: x for j, x in enumerate(r) if x} for r in dense)

    @classmethod
    def _from_sparse(cls, rows: Sequence[dict], cols: int) -> "RatMatrix":
        """Adopt ``{column: entry}`` rows of nonzero ``Fraction``s, unchecked."""
        m = object.__new__(cls)
        m._rows = tuple(rows)
        m.rows = len(m._rows)
        m.cols = cols
        return m

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls._from_sparse([{i: ONE} for i in range(n)], n)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RatMatrix":
        return cls._from_sparse([{} for _ in range(rows)], cols)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Fraction]]) -> "RatMatrix":
        if not columns:
            return cls([])
        n = len(columns[0])
        return cls([[col[i] for col in columns] for i in range(n)])

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        row = self._rows[i]
        if not -self.cols <= j < self.cols:
            raise IndexError("matrix column index out of range")
        return row.get(j % self.cols, ZERO)

    def row(self, i: int) -> tuple:
        get = self._rows[i].get
        return tuple(get(j, ZERO) for j in range(self.cols))

    def tolists(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def _key(self) -> tuple:
        # a matrix without rows has no row length, so its width is not compared
        return (self.rows, self.cols if self.rows else 0)

    def __eq__(self, other):
        return (
            isinstance(other, RatMatrix)
            and self._key() == other._key()
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self._key(), tuple(frozenset(r.items()) for r in self._rows)))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.tolists())
        return f"RatMatrix[{body}]"

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        out = []
        for ra, rb in zip(self._rows, other._rows):
            row = dict(ra)
            for j, x in rb.items():
                v = row.get(j, ZERO) + x
                if v:
                    row[j] = v
                else:
                    del row[j]
            out.append(row)
        return RatMatrix._from_sparse(out, self.cols)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self + other.scale(-ONE)

    def scale(self, c) -> "RatMatrix":
        c = _frac(c)
        if not c:
            return RatMatrix.zero(self.rows, self.cols)
        return RatMatrix._from_sparse(
            [{j: c * x for j, x in r.items()} for r in self._rows], self.cols
        )

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = []
        for ra in self._rows:
            row = {}
            for k, a in ra.items():
                for j, b in other._rows[k].items():
                    row[j] = row.get(j, ZERO) + a * b
            out.append({j: x for j, x in row.items() if x})
        return RatMatrix._from_sparse(out, other.cols)

    def apply(self, vec: Sequence[Fraction]) -> tuple:
        """Matrix-vector product."""
        if len(vec) != self.cols:
            raise ValueError("shape mismatch")
        return tuple(sum((x * vec[j] for j, x in r.items()), ZERO) for r in self._rows)

    def is_zero(self) -> bool:
        return not any(self._rows)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def trace(self) -> Fraction:
        if not self.is_square():
            raise NonSquareError("trace of non-square matrix")
        return sum((r.get(i, ZERO) for i, r in enumerate(self._rows)), ZERO)


class Elimination:
    """Recorded sparse Gauss-Jordan elimination of ``{column: entry}`` rows
    of nonzero entries of any exact field, copied in: ``int`` or ``Fraction``,
    computed as ``Fraction``s, or the residues of :func:`rank_modulo`.

    Columns are taken in ascending order, each pivoting on the shortest
    pending row holding it (less fill-in; the reduced form is unique, so the
    choice cannot change it).  A column -> row-set index over pending and
    reduced rows lets a step touch only the rows holding its column.
    ``pivots`` are the pivot columns, ``reduced`` their rows, and
    ``pivot_rows`` maps each pivot row's input position to its column.
    Each step is recorded as ``(pivot row, scale, {row: factor})``
    for :meth:`carry`: factor once, then solve for each new right-hand side
    (Davis, *Direct Methods for Sparse Linear Systems*, ch. 2-3).
    """

    __slots__ = ("pivots", "reduced", "pivot_rows", "_steps")

    def __init__(self, rows: Sequence[dict]):
        work = {i: dict(row) for i, row in enumerate(rows) if row}
        index = {}
        for i, row in work.items():
            for j in row:
                index.setdefault(j, set()).add(i)
        pending, self.pivot_rows, self._steps = set(work), {}, []
        for c in sorted(index):
            hits = [i for i in index[c] if i in pending]
            if not hits:
                continue
            p = min(hits, key=lambda i: (len(work[i]), i))
            pending.remove(p)
            inv = ONE / work[p][c]
            prow = work[p] = {j: x * inv for j, x in work[p].items()}
            updates = {i: work[i][c] for i in index[c] if i != p}
            for i, f in updates.items():
                row = work[i]
                for j, x in prow.items():
                    if v := row.get(j, ZERO) - f * x:
                        row[j] = v
                        index[j].add(i)
                    else:
                        del row[j]
                        index[j].discard(i)
            self._steps.append((p, inv, updates))
            self.pivot_rows[p] = c
        self.pivots = tuple(self.pivot_rows.values())
        self.reduced = tuple(work[p] for p in self.pivot_rows)

    def carry(self, columns: Sequence[dict]) -> dict:
        """``{row: {k: entry}}``: the ``{row: entry}`` columns ``k`` after the
        recorded steps.  On a pivot row that is the rref of the input with
        the column appended, if the column is in the span of the input's;
        on any other row, empty in the input or not, what is left over.
        """
        vals = {}
        for k, col in enumerate(columns):
            for i, x in col.items():
                vals.setdefault(i, {})[k] = x
        for p, inv, updates in self._steps:
            if not (vp := vals.get(p)):
                continue
            vp = vals[p] = {k: x * inv for k, x in vp.items()}
            for i, f in updates.items():
                vi = vals.setdefault(i, {})
                for k, x in vp.items():
                    if v := vi.get(k, ZERO) - f * x:
                        vi[k] = v
                    else:
                        del vi[k]
        return vals


def rref(m: RatMatrix) -> tuple:
    """Reduced row echelon form.

    Returns ``(R, pivots)`` where pivots is the strictly increasing tuple
    of pivot column indices.  ``R`` holds the reduced rows of one
    :class:`Elimination` as they are, then empty rows up to ``m.rows``.
    """
    e = Elimination(m._rows)
    reduced = list(e.reduced) + [{} for _ in range(m.rows - len(e.reduced))]
    return RatMatrix._from_sparse(reduced, m.cols), e.pivots


def rank(m: RatMatrix) -> int:
    return len(rref(m)[1])


def nullspace(m: RatMatrix) -> list:
    """Basis of the right kernel of ``m``.

    Each basis vector is normalized so its first nonzero entry is 1; the
    list is ordered by ascending free column, which makes the result a
    canonical representative suitable for golden tests.
    """
    red, pivots = rref(m)
    return _kernel_basis(red._rows, pivots, m.cols)


def _kernel_basis(reduced: Sequence[dict], pivots: Sequence[int], cols: int) -> list:
    """One kernel vector per free column, each reduced-row entry read once."""
    pivset = set(pivots)
    vectors = {c: [ZERO] * cols for c in range(cols) if c not in pivset}
    for c, v in vectors.items():
        v[c] = ONE
    for row, pc in zip(reduced, pivots):
        for j, x in row.items():
            if j != pc:
                vectors[j][pc] = -x
    return [normalize_vector(tuple(v)) for v in vectors.values()]


def normalize_vector(v: Sequence[Fraction]) -> tuple:
    """Scale so the first nonzero entry is 1 (zero vectors unchanged)."""
    lead = next((x for x in v if x != 0), None)
    if lead is None or lead == 1:
        return tuple(v)
    inv = ONE / lead
    return tuple(x * inv for x in v)


def solve_columns(m: RatMatrix, rhs: Sequence[Sequence[Fraction]]) -> list:
    """Solutions of ``m x = b`` for the leading consistent columns ``b`` of ``rhs``.

    One :class:`Elimination` of ``m`` carries every right-hand side; the
    first inconsistent one is the first left over on a row without a pivot,
    and the list stops before it.  Free unknowns are set to zero.
    """
    e = Elimination(m._rows)
    carried = e.carry([{i: x for i, x in enumerate(map(_frac, b)) if x} for b in rhs])
    left = (k for i, row in carried.items() if i not in e.pivot_rows for k in row)
    solutions = [[ZERO] * m.cols for _ in range(min(left, default=len(rhs)))]
    for i, pc in e.pivot_rows.items():
        for k, x in carried.get(i, {}).items():
            if k < len(solutions):
                solutions[k][pc] = x
    return [tuple(x) for x in solutions]


def solve(m: RatMatrix, b: Sequence[Fraction]):
    """One solution of ``m x = b``, or ``None`` if inconsistent."""
    return next(iter(solve_columns(m, [b])), None)


def in_span(columns: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> bool:
    """Whether ``v`` lies in the span of the given column vectors."""
    m = RatMatrix([[col[i] for col in columns] for i in range(len(v))], cols=len(columns))
    return bool(solve_columns(m, [v]))


# ---------------------------------------------------------------------------
# univariate polynomials over the rationals


class UniPoly:
    """Dense univariate polynomial, coefficients ascending by degree.

    The constructor converts each coefficient once; :meth:`_from_fractions`
    adopts ``Fraction`` coefficients that this package computed itself.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _from_fractions(cls, coeffs: Iterable) -> "UniPoly":
        """Adopt ``Fraction`` coefficients unchecked, dropping trailing zeros."""
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        p = object.__new__(cls)
        p.coeffs = tuple(cs)
        return p

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls._from_fractions(())

    @classmethod
    def one(cls) -> "UniPoly":
        return cls._from_fractions((ONE,))

    @classmethod
    def constant(cls, c) -> "UniPoly":
        return cls._from_fractions((_frac(c),))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ZeroPolynomialError("leading coefficient of zero polynomial")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly._from_fractions(
            (self.coeff(k) + other.coeff(k) for k in range(n))
        )

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly._from_fractions(
            (self.coeff(k) - other.coeff(k) for k in range(n))
        )

    def __neg__(self) -> "UniPoly":
        return UniPoly._from_fractions((-c for c in self.coeffs))

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero() or other.is_zero():
            return UniPoly.zero()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly._from_fractions(out)

    def scale(self, c) -> "UniPoly":
        c = _frac(c)
        return UniPoly._from_fractions((c * a for a in self.coeffs))

    def eval(self, x) -> Fraction:
        x = _frac(x)
        if not x:
            return self.coeffs[0] if self.coeffs else ZERO
        out = ZERO
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def eval_matrix(self, m: RatMatrix) -> RatMatrix:
        """Horner evaluation at a square matrix."""
        if not m.is_square():
            raise NonSquareError("polynomial evaluation at non-square matrix")
        out = RatMatrix.zero(m.rows, m.cols)
        eye = RatMatrix.identity(m.rows)
        for c in reversed(self.coeffs):
            out = (out @ m) + eye.scale(c)
        return out

    def divmod(self, other: "UniPoly") -> tuple:
        if other.is_zero():
            raise ZeroPolynomialError("division by zero polynomial")
        q = [ZERO] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = list(self.coeffs)
        d, lead = other.degree, other.leading()
        while len(rem) - 1 >= d and any(c != 0 for c in rem):
            k = len(rem) - 1
            if rem[-1] == 0:
                rem.pop()
                continue
            f = rem[-1] / lead
            q[k - d] = f
            for i, c in enumerate(other.coeffs):
                rem[k - d + i] -= f * c
            rem.pop()
        return UniPoly._from_fractions(q), UniPoly._from_fractions(rem)

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        inv = ONE / self.leading()
        return UniPoly._from_fractions((c * inv for c in self.coeffs))

    def derivative(self) -> "UniPoly":
        return UniPoly._from_fractions(
            (k * c for k, c in enumerate(self.coeffs) if k > 0)
        )

    def gcd(self, other: "UniPoly") -> "UniPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic() if not a.is_zero() else a

    def sort_key(self) -> tuple:
        return (self.degree, self.coeffs)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if c == 0:
                continue
            if k == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}lambda" + (f"^{k}" if k > 1 else "")
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts)

    def __repr__(self):
        return f"UniPoly({self})"


def char_poly(m: RatMatrix) -> UniPoly:
    """Monic characteristic polynomial via the Faddeev-LeVerrier recurrence."""
    if not m.is_square():
        raise NonSquareError("characteristic polynomial of non-square matrix")
    n = m.rows
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    aux = RatMatrix.zero(n, n)
    eye = RatMatrix.identity(n)
    for k in range(1, n + 1):
        aux = (m @ aux) + eye.scale(coeffs[n - k + 1])
        coeffs[n - k] = -(m @ aux).trace() / k
    return UniPoly._from_fractions(coeffs)


def _divisors(n: int) -> list:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _decimal_digits(n: int) -> int:
    """Number of decimal digits of ``n != 0``, from its bit length.

    ``(bits - 1) * 30103 // 100000 + 1`` is within one of the count below
    10^8 bits; exact comparisons with powers of ten settle it, where
    ``len(str(n))`` raises above 4300 digits.
    """
    n = abs(n)
    digits = (n.bit_length() - 1) * 30103 // 100000 + 1
    while 10**digits <= n:
        digits += 1
    while digits > 1 and 10 ** (digits - 1) > n:
        digits -= 1
    return digits


# Each candidate costs one exact evaluation and its share of one sort:
# about 30 us at the degrees the weight scan produces (2-core Xeon VM), so
# one search at the bound takes about 0.3 s.
MAX_ROOT_CANDIDATES = 10_000


def rational_roots(p: UniPoly) -> tuple:
    """All rational roots with multiplicities, plus the rational-root-free residual.

    The root 0 comes off first, as one slice at the first nonzero
    coefficient; the rest uses the primitive integer form and divisor
    enumeration of its leading and trailing coefficients, so the search is
    complete for rational roots.  The residual is returned monic, and is 1
    when every root is rational.  A leading or trailing coefficient above
    ``10**12``, or more than ``MAX_ROOT_CANDIDATES`` candidates ``+-p/q``,
    raises ``ScopeError`` instead of a search that would not finish.
    """
    if p.is_zero():
        raise ZeroPolynomialError("root search on zero polynomial")
    # powers of the variable come off first
    zmult = next(k for k, c in enumerate(p.coeffs) if c)
    work = UniPoly._from_fractions(p.coeffs[zmult:])
    roots = [(ZERO, zmult)] if zmult else []
    if work.degree >= 1:
        den_lcm = math.lcm(*(c.denominator for c in work.coeffs))
        ints = [int(c * den_lcm) for c in work.coeffs]
        g = math.gcd(*ints)
        lead, trail = ints[-1] // g, ints[0] // g
        big = max(abs(lead), abs(trail))
        # the messages name the degree, not the polynomial: str() of a
        # coefficient above 4300 digits raises
        if big > 10**12:  # trial division below it takes at most 10^6 steps
            raise ScopeError(
                f"rational root search on a degree-{p.degree} polynomial: its "
                f"integer form has a {_decimal_digits(big)}-digit "
                f"({big.bit_length()}-bit) leading or trailing coefficient, "
                "above the 10^12 bound of divisor enumeration"
            )
        nums, dens = _divisors(trail), _divisors(lead)
        count = 2 * len(nums) * len(dens)
        if count > MAX_ROOT_CANDIDATES:
            raise ScopeError(
                f"rational root search on a degree-{p.degree} polynomial: its "
                f"integer form has {count} candidate roots +-p/q, above the "
                f"bound of {MAX_ROOT_CANDIDATES}"
            )
        cands = set()
        for pnum in nums:
            for qden in dens:
                cands.add(Fraction(pnum, qden))
                cands.add(Fraction(-pnum, qden))
        for cand in sorted(cands):
            mult = 0
            while work.degree >= 1 and work.eval(cand) == 0:
                work = work.divmod(UniPoly._from_fractions((-cand, ONE)))[0]
                mult += 1
            if mult:
                roots.append((cand, mult))
    roots.sort(key=lambda rm: rm[0])
    return roots, work.monic()  # a nonzero constant's is 1


def generalized_eigenspace(m: RatMatrix, lam) -> list:
    """Basis of the kernel of the n-th power of ``m - lam*I``."""
    if not m.is_square():
        raise NonSquareError("generalized eigenspace of non-square matrix")
    lam = _frac(lam)
    n = m.rows
    shifted = m - RatMatrix.identity(n).scale(lam)
    power = RatMatrix.identity(n)
    for _ in range(n):
        power = power @ shifted
    return nullspace(power)


def jordan_chains(m: RatMatrix, lam) -> list:
    """Jordan chains of ``m`` at the rational eigenvalue ``lam``.

    Each chain is a list ``[v_k, ..., v_1]`` (top first) satisfying
    ``(m - lam*I) v_j = v_{j-1}`` and ``(m - lam*I) v_1 = 0``.  Chains
    partition the generalized eigenspace and are sorted by descending
    length; block sizes are exactly the chain lengths.
    """
    if not m.is_square():
        raise NonSquareError("jordan chains of non-square matrix")
    lam = _frac(lam)
    n = m.rows
    shifted = m - RatMatrix.identity(n).scale(lam)
    kernels = [[]]
    power = RatMatrix.identity(n)
    while True:
        power = power @ shifted
        ker = nullspace(power)
        if len(ker) == len(kernels[-1]):
            break
        kernels.append(ker)
        if len(ker) == n:
            break
    if len(kernels) == 1:
        raise NotEigenvalueError(f"{lam} is not an eigenvalue")
    depth = len(kernels) - 1
    chains = []
    carried = []
    for j in range(depth, 0, -1):
        # tops: ker_j vectors independent of everything before them
        spanning = kernels[j - 1] + carried + kernels[j]
        _, pivots = rref(RatMatrix.from_columns(spanning))
        offset = len(spanning) - len(kernels[j])
        tops = [spanning[p] for p in pivots if p >= offset]
        for top in tops:
            chain = [tuple(top)]
            for _ in range(j - 1):
                chain.append(shifted.apply(chain[-1]))
            chains.append(chain)
        carried = [shifted.apply(v) for v in carried] + [
            shifted.apply(t) for t in tops
        ]
    chains.sort(key=len, reverse=True)  # stable: construction order breaks ties
    out = []
    for chain in chains:
        lead = next((x for x in chain[0] if x != 0), ONE)
        inv = ONE / lead
        out.append([tuple(x * inv for x in v) for v in chain])
    return out


# ---------------------------------------------------------------------------
# polynomial matrices: fraction-free elimination and modular rank


def _poly_exact_div(num: UniPoly, den: UniPoly) -> UniPoly:
    q, r = num.divmod(den)
    if not r.is_zero():
        raise ArithmeticError("inexact polynomial division")
    return q


# The weight scan holds a polynomial as its integer coefficients, ascending
# by degree, without trailing zeros: ``[]`` is zero.


def _int_taylor(coeffs: list, a: int, b: int, n: int) -> list:
    """``b**n`` times the Taylor coefficients at ``a/b`` of ``coeffs``, of degree
    at most ``n``: Horner's rule for ``sum_k c_k b**(n-k) (a + b t)^k``, which
    is ``b**n`` times the polynomial at ``a/b + t``, on integer lists."""
    acc = []
    for k in range(len(coeffs) - 1, -1, -1):
        acc = [a * x + b * y for x, y in zip(acc + [0], [0] + acc)]
        acc[0] += coeffs[k] * b ** (n - k)
    return acc


def _int_mul(a: list, b: list) -> list:
    """Product of two integer coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _int_cross(a: list, x: list, f: list, y: list) -> list:
    """``a*x - f*y`` of integer coefficient lists, trailing zeros trimmed."""
    out, fy = _int_mul(a, x), _int_mul(f, y)
    out += [0] * (len(fy) - len(out))
    for i, c in enumerate(fy):
        out[i] -= c
    while out and not out[-1]:
        out.pop()
    return out


def _int_exact_div(num: list, den: list) -> list:
    """Quotient of integer coefficient lists that ``den`` divides exactly over Z.

    Long division with ``divmod`` on the leading coefficient; a nonzero
    coefficient remainder or a nonzero low-degree remainder raises
    ``ArithmeticError``.
    """
    d, lead = len(den) - 1, den[-1]
    rem = list(num)
    q = [0] * max(len(rem) - d, 0)
    for k in range(len(q) - 1, -1, -1):
        f, m = divmod(rem[k + d], lead)
        if m:
            raise ArithmeticError("inexact polynomial division")
        if f:
            q[k] = f
            for i in range(d):
                rem[k + i] -= f * den[i]
    if any(rem[:d]):
        raise ArithmeticError("inexact polynomial division")
    return q


def poly_matrix_pivots(rows: Sequence[Sequence[list]]) -> list:
    """Pivot polynomials of a division-free (Bareiss) elimination.

    Pivots are selected by lowest degree, ties broken by coefficient
    tuple then row position, which keeps the run deterministic and the
    degrees small.  Every parameter value at which the rank drops below
    the generic rank is a root of at least one returned pivot (the last
    pivot is, up to sign, a maximal non-vanishing minor).

    ``rows`` are dense rows of integer coefficient lists, left unmodified,
    and the pivots are returned as ``UniPoly``.  Every entry is an integer
    minor, so each division is exact over Z (Sylvester's identity); one
    that leaves a remainder raises ``ArithmeticError`` as the bug it would be.
    """
    mat = [list(row) for row in rows]
    ncols = len(rows[0]) if rows else 0
    pivots, prev = [], [1]
    for c in range(ncols):
        r = len(pivots)
        if r == len(mat):
            break
        hits = [(len(mat[i][c]), mat[i][c], i) for i in range(r, len(mat)) if mat[i][c]]
        if not hits:
            continue
        pr = min(hits)[2]
        mat[r], mat[pr] = mat[pr], mat[r]
        prow = mat[r][c:]
        pivot = prow[0]
        # the columns left of c are zero below row r
        for row in mat[r + 1 :]:
            f = row[c]
            row[c:] = [
                _int_exact_div(_int_cross(pivot, x, f, y), prev) if x or y else []
                for x, y in zip(row[c:], prow)
            ]
        pivots.append(pivot)
        prev = pivot
    return [UniPoly(p) for p in pivots]


def unit_core(rows: Sequence[Sequence[tuple]], ncols: int) -> tuple:
    """Eliminate the nonzero constant entries of a polynomial matrix.

    ``rows`` hold ``(column, integer list)`` pairs, a determining system's
    cells as it keeps them, left unmodified.  A nonzero constant is a unit of
    Q[lambda], so a Schur complement step on it lowers the rank by one at every
    value of lambda, and modulo every polynomial.  Returns ``(units, core)``:
    the step count and the dense rows of integer lists left, over the
    remaining columns in ascending order, zero rows dropped; so ``units +
    rank(core(w)) == rank(M(w))``.

    A step replaces each row ``x`` holding the pivot column by ``a*x -
    f*pivot_row``, ``a > 0`` the pivot (the pivot row is negated if need be)
    and ``f`` the row's entry at its column, and divides the row by the gcd
    of its coefficients; a constant row factor changes no rank.  A column
    -> row-set index is kept, so a step touches only the rows holding its
    column and the columns of its row.  Steps of Markowitz cost
    ``(r-1)*(c-1) == 0``, ``r`` and ``c`` the entry counts of the pivot's row
    and column, come first, off a worklist: they do no arithmetic and they
    commute, up to which all-zero columns are left (full column rank leaves
    none).  Then one scan takes the least ``(cost, row, column)``.
    """
    mat, col_rows = {}, {j: set() for j in range(ncols)}
    for i, row in enumerate(rows):
        mat[i] = {j: p for j, p in row if p}
        for j in mat[i]:
            col_rows[j].add(i)

    def cost(i, j):
        return (len(mat[i]) - 1) * (len(col_rows[j]) - 1)

    # a listed entry keeps cost 0 until its row or its column is deleted, as
    # neither a row nor a column of one entry gains another
    free = [(i, j) for i, row in mat.items() for j, p in row.items() if len(p) == 1 and not cost(i, j)]
    while True:
        if free:
            r, c = free.pop()
            if c not in mat.get(r, ()):
                continue
        elif units := [(cost(i, j), i, j) for i, row in mat.items() for j, p in row.items() if len(p) == 1]:
            _, r, c = min(units)
        else:
            break
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
            if scaled and (g := math.gcd(*(v for p in row.values() for v in p))) > 1:
                for j, p in row.items():
                    row[j] = [v // g for v in p]
        free += [(i, j) for i in hit_rows if len(mat[i]) == 1 for j, p in mat[i].items() if len(p) == 1]
        free += [(i, j) for j in prow if len(col_rows[j]) == 1 for i in col_rows[j] if len(mat[i][j]) == 1]
    cols = sorted(col_rows)
    core = [[row.get(j, []) for j in cols] for row in mat.values() if row]
    return ncols - len(col_rows), core


class _NeedsSplit(Exception):
    def __init__(self, factor: UniPoly):
        self.factor = factor


def _inverse_mod(a: UniPoly, modulus: UniPoly) -> UniPoly:
    """Inverse of ``a`` modulo ``modulus``; raises _NeedsSplit on zero divisors."""
    r0, r1 = modulus, a.divmod(modulus)[1]
    s0, s1 = UniPoly.zero(), UniPoly.one()
    while not r1.is_zero():
        q, r2 = r0.divmod(r1)
        r0, r1 = r1, r2
        s0, s1 = s1, s0 - q * s1
    if r0.degree > 0:
        raise _NeedsSplit(r0.monic())
    inv_lead = UniPoly.constant(ONE / r0.coeffs[0])
    return (s0 * inv_lead).divmod(modulus)[1]


class _Residue:
    """A class of Q[lambda] modulo a monic ``modulus``, as an :class:`Elimination`
    entry: ``*``, ``-``, ``ZERO - x``, ``ONE / x`` and truthiness.  An inverse,
    or a zero product of nonzero residues, that meets a zero divisor raises
    ``_NeedsSplit`` with a proper factor of the modulus.
    """

    __slots__ = ("poly", "modulus")

    def __init__(self, poly: UniPoly, modulus: UniPoly):
        self.poly = poly.divmod(modulus)[1] if len(poly.coeffs) >= len(modulus.coeffs) else poly
        self.modulus = modulus

    def __bool__(self):
        return bool(self.poly.coeffs)

    def __mul__(self, other: "_Residue") -> "_Residue":
        out = _Residue(self.poly * other.poly, self.modulus)
        if not out:  # so a zero left by a product is never deleted from a row
            raise _NeedsSplit(self.poly.gcd(self.modulus))
        return out

    def __sub__(self, other: "_Residue") -> "_Residue":
        return _Residue(self.poly - other.poly, self.modulus)

    def __rsub__(self, zero) -> "_Residue":
        return _Residue(-self.poly, self.modulus)

    def __rtruediv__(self, one) -> "_Residue":
        return _Residue(_inverse_mod(self.poly, self.modulus), self.modulus)


def rank_modulo(rows: Sequence[Sequence[list]], modulus: UniPoly) -> list:
    """Ranks of a polynomial matrix over the quotient rings by factors of ``modulus``.

    The rank modulo a factor is the pivot count of one :class:`Elimination`
    of the dense integer-list ``rows`` as residues.  A zero divisor met on
    the way splits the modulus (dynamic evaluation, Della Dora, Dicrescenzo
    & Duval 1985), and each part is ranked again.  The rank at an
    irreducible factor is intrinsic, so the parts of one rank multiply to
    one factor: returns ``(factor, rank)`` pairs in ascending rank, of
    pairwise coprime monic factors whose product is ``modulus.monic()``, and
    ``[]`` for a constant modulus.  Neither row order nor the splits met
    change the answer.
    """
    modulus = modulus.monic()
    if modulus.degree < 1:
        return []
    residues = (
        {j: _Residue(UniPoly._from_fractions(map(Fraction, e)), modulus) for j, e in enumerate(row) if e}
        for row in rows
    )
    try:
        rank = len(Elimination([{j: x for j, x in row.items() if x} for row in residues]).pivots)
    except _NeedsSplit as split:
        g, parts = split.factor, {}
        for f, r in rank_modulo(rows, g) + rank_modulo(rows, _poly_exact_div(modulus, g)):
            parts[r] = parts[r] * f if r in parts else f
        return [(parts[r], r) for r in sorted(parts)]
    return [(modulus, rank)]
