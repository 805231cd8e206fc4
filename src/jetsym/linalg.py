"""Exact rational linear algebra and univariate polynomials.

Everything here works over arbitrary-precision rationals
(:class:`fractions.Fraction`), or over Python integers inside the
polynomial elimination; there is no floating point anywhere.
Matrices are immutable, operations are pure, and every basis returned
follows a fixed normalization rule (first nonzero entry equals one) so
downstream output is deterministic.

A :class:`RatMatrix` holds only sparse rows, ``{column: entry}`` dicts of
its nonzero entries, from construction through elimination to the kernel.
The one exact rational elimination is the sparse :func:`rref`, which copies
those rows in and returns the reduced rows as they are; kernels, ranks,
solves, span tests and Jordan chain tops are each read off one call.

Over polynomials in the weight unknown, :func:`poly_matrix_pivots` is a
sparse fraction-free (Bareiss) elimination over Z on ``{column: entry}``
row dicts.  The matrix is first multiplied by ``D``, the lcm of all
coefficient denominators, and each entry is held as ``(s, p)``: the weight
to the power ``s`` times a list ``p`` of integer coefficients with a
nonzero constant term.  Every division is an exact ``divmod`` long
division over Z that subtracts the shifts, and pivot ``k`` is divided by
``D**k`` on return.  On a quasi-homogeneous equation such as heat or KdV
the system is graded in the weight, every minor is a monomial, and so
every entry has one coefficient and each operation is one ``int``
operation.  The entries compared at step ``k`` are all ``D**k`` times the
same minors of the input, so with ``D > 0`` their (degree, coefficients)
order is unchanged.  A row without the pivot column is not rescaled at
that step; it is brought up to date by one exact division when it next
holds a pivot column.  Pivot rule and row swaps are those of the dense
rational elimination, so the pivot list is the same, and an inexact
division raises as the bug it would be.
:func:`rank_modulo` eliminates over the same kind of row dicts, with
rational polynomial entries, and reduces only the rows below each pivot,
since the rows above never pivot again.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

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

    def column(self, j: int) -> tuple:
        return tuple(r.get(j, ZERO) for r in self._rows)

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


def rref(m: RatMatrix) -> tuple:
    """Reduced row echelon form.

    Returns ``(R, pivots)`` where pivots is the strictly increasing tuple
    of pivot column indices.  The sparse rows of ``m`` are copied in and
    each step touches only rows containing the pivot column; ``R`` holds
    the reduced rows as they are, then empty rows up to ``m.rows``.  The
    reduced form is unique, so pivoting on the shortest row (less fill-in)
    cannot change it.
    """
    pending = [dict(row) for row in m._rows if row]
    reduced, pivots = [], []
    for c in range(m.cols):
        hits = [k for k, row in enumerate(pending) if c in row]
        if not hits:
            continue
        prow = pending.pop(min(hits, key=lambda k: len(pending[k])))
        inv = ONE / prow[c]
        prow = {j: x * inv for j, x in prow.items()}
        for row in pending + reduced:
            f = row.get(c)
            if f is None:
                continue
            for j, x in prow.items():
                v = row.get(j, ZERO) - f * x
                if v:
                    row[j] = v
                else:
                    del row[j]
        reduced.append(prow)
        pivots.append(c)
    reduced += [{} for _ in range(m.rows - len(reduced))]
    return RatMatrix._from_sparse(reduced, m.cols), tuple(pivots)


def rank(m: RatMatrix) -> int:
    return len(rref(m)[1])


def nullspace(m: RatMatrix) -> list:
    """Basis of the right kernel of ``m``.

    Each basis vector is normalized so its first nonzero entry is 1; the
    list is ordered by ascending free column, which makes the result a
    canonical representative suitable for golden tests.  A reduced row
    holds only its pivot and free columns, so each of its entries is read
    once, into the vector of its free column.
    """
    red, pivots = rref(m)
    pivset = set(pivots)
    vectors = {c: [ZERO] * m.cols for c in range(m.cols) if c not in pivset}
    for c, v in vectors.items():
        v[c] = ONE
    for row, pc in zip(red._rows, pivots):
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

    One elimination of ``[m | rhs]``, built from the sparse rows of ``m``;
    the first inconsistent right-hand side is the first pivot past
    ``m.cols``, and the list stops before it.  Free unknowns are set to zero.
    """
    n = m.cols
    aug = []
    for i, row in enumerate(m._rows):
        row = dict(row)
        for k, b in enumerate(rhs):
            x = _frac(b[i])
            if x:
                row[n + k] = x
        aug.append(row)
    red, pivots = rref(RatMatrix._from_sparse(aug, n + len(rhs)))
    stop = next((pc for pc in pivots if pc >= n), n + len(rhs))
    solutions = [[ZERO] * n for _ in range(n, stop)]
    for row, pc in zip(red._rows, pivots):
        if pc >= n:
            break
        for j, x in row.items():
            if n <= j < stop:
                solutions[j - n][pc] = x
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

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs: Iterable = (), var: str = "lambda"):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self.var = var

    @classmethod
    def _from_fractions(cls, coeffs: Iterable, var: str = "lambda") -> "UniPoly":
        """Adopt ``Fraction`` coefficients unchecked, dropping trailing zeros."""
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        p = object.__new__(cls)
        p.coeffs = tuple(cs)
        p.var = var
        return p

    @classmethod
    def zero(cls, var: str = "lambda") -> "UniPoly":
        return cls._from_fractions((), var)

    @classmethod
    def one(cls, var: str = "lambda") -> "UniPoly":
        return cls._from_fractions((ONE,), var)

    @classmethod
    def constant(cls, c, var: str = "lambda") -> "UniPoly":
        return cls._from_fractions((_frac(c),), var)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

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
            (self.coeff(k) + other.coeff(k) for k in range(n)), self.var
        )

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly._from_fractions(
            (self.coeff(k) - other.coeff(k) for k in range(n)), self.var
        )

    def __neg__(self) -> "UniPoly":
        return UniPoly._from_fractions((-c for c in self.coeffs), self.var)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(self.var)
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly._from_fractions(out, self.var)

    def scale(self, c) -> "UniPoly":
        c = _frac(c)
        return UniPoly._from_fractions((c * a for a in self.coeffs), self.var)

    def eval(self, x) -> Fraction:
        x = _frac(x)
        if not x:
            return self.coeffs[0] if self.coeffs else ZERO
        out = ZERO
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def taylor(self, x, count: int) -> tuple:
        """The Taylor coefficients p^(k)(x)/k! at x for k < count.

        Each is the remainder of one synthetic division by ``(t - x)``,
        whose quotient the next one divides.
        """
        x = _frac(x)
        cs = list(self.coeffs)
        if not x:
            return tuple(cs[:count]) + (ZERO,) * (count - len(cs))
        out = []
        for _ in range(count):
            acc = ZERO
            for k in range(len(cs) - 1, -1, -1):
                acc = cs[k] = acc * x + cs[k]
            out.append(cs.pop(0) if cs else ZERO)
        return tuple(out)

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
        return UniPoly._from_fractions(q, self.var), UniPoly._from_fractions(rem, self.var)

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        inv = ONE / self.leading()
        return UniPoly._from_fractions((c * inv for c in self.coeffs), self.var)

    def derivative(self) -> "UniPoly":
        return UniPoly._from_fractions(
            (k * c for k, c in enumerate(self.coeffs) if k > 0), self.var
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
                term = f"{mag}{self.var}" + (f"^{k}" if k > 1 else "")
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

    Uses the primitive integer form and divisor enumeration of the leading
    and trailing coefficients, so the search is complete for rational roots.
    The residual is returned monic.  A leading or trailing coefficient
    above ``10**12``, or more than ``MAX_ROOT_CANDIDATES`` candidates
    ``+-p/q``, raises ``ScopeError`` instead of a search that would not
    finish.
    """
    if p.is_zero():
        raise ZeroPolynomialError("root search on zero polynomial")
    roots = []
    work = p
    # powers of the variable come off first
    zmult = 0
    while not work.is_zero() and work.coeff(0) == 0 and work.degree > 0:
        work = UniPoly._from_fractions(work.coeffs[1:], p.var)
        zmult += 1
    if zmult:
        roots.append((ZERO, zmult))
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
                work = work.divmod(UniPoly._from_fractions((-cand, ONE), p.var))[0]
                mult += 1
            if mult:
                roots.append((cand, mult))
    roots.sort(key=lambda rm: rm[0])
    residual = work.monic() if not work.is_zero() else UniPoly.one(p.var)
    if residual.degree < 1:
        residual = UniPoly.one(p.var)
    return roots, residual


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
# sparse matrices over UniPoly: fraction-free elimination and modular rank


def _poly_exact_div(num: UniPoly, den: UniPoly) -> UniPoly:
    q, r = num.divmod(den)
    if not r.is_zero():
        raise ArithmeticError("inexact polynomial division")
    return q


def _int_mul(a: list, b: list) -> list:
    """Product of two integer coefficient lists, ascending by degree."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
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


# Nonzero Bareiss entries of poly_matrix_pivots are ``(s, p)``: lambda**s
# times the integer coefficients ``p``, ascending by degree, ``p[0] != 0``.


def _graded(s: int, p: list):
    """``(s, p)`` with ``p`` trimmed in place and its low zeros moved into ``s``;
    None for zero."""
    while p and not p[-1]:
        p.pop()
    if not p:
        return None
    k = 0
    while not p[k]:
        k += 1
    return (s + k, p[k:]) if k else (s, p)


def _graded_mul(a: tuple, b: tuple) -> tuple:
    (sa, pa), (sb, pb) = a, b
    if len(pa) == 1 and len(pb) == 1:
        return sa + sb, [pa[0] * pb[0]]
    return sa + sb, _int_mul(pa, pb)


def _graded_div(num: tuple, den: tuple) -> tuple:
    """Quotient of entries that ``den`` divides exactly, else ``ArithmeticError``."""
    (sn, pn), (sd, pd) = num, den
    if sn < sd:
        raise ArithmeticError("inexact polynomial division")
    if len(pn) == 1 and len(pd) == 1:
        q, m = divmod(pn[0], pd[0])
        if m:
            raise ArithmeticError("inexact polynomial division")
        return sn - sd, [q]
    return sn - sd, _int_exact_div(pn, pd)


def _graded_cross(pivot: tuple, x, f: tuple, y):
    """``pivot*x - f*y`` with ``x`` or ``y`` None for a zero entry; None for zero."""
    if y is None:
        return _graded_mul(pivot, x)
    sb, pb = _graded_mul(f, y)
    if x is None:
        return sb, [-c for c in pb]
    sa, pa = _graded_mul(pivot, x)
    if sa == sb and len(pa) == 1 and len(pb) == 1:
        c = pa[0] - pb[0]
        return (sa, [c]) if c else None
    s = min(sa, sb)
    out = [0] * (max(sa + len(pa), sb + len(pb)) - s)
    for i, c in enumerate(pa, sa - s):
        out[i] = c
    for i, c in enumerate(pb, sb - s):
        out[i] -= c
    return _graded(s, out)


def poly_matrix_pivots(rows: Sequence[Sequence[UniPoly]]) -> list:
    """Pivot polynomials of a division-free (Bareiss) elimination.

    Pivots are selected by lowest degree, ties broken by coefficient
    tuple then row position, which keeps the run deterministic and the
    degrees small.  Every parameter value at which the rank drops below
    the generic rank is a root of at least one returned pivot (the last
    pivot is, up to sign, a maximal non-vanishing minor).

    The elimination runs over Z: the matrix is scaled by ``D``, the lcm of
    all coefficient denominators, and every nonzero entry is held as
    ``(s, p)``, ``lambda**s`` times the integer coefficient list ``p``
    (ascending by degree, ``p[0] != 0``).  Products add the shifts, exact
    quotients subtract them, and a difference is aligned to the smaller
    shift and stripped of the low terms that cancelled.  On a
    quasi-homogeneous equation (heat, KdV) the system is graded, so every
    minor, and with it every entry, is a monomial ``c*lambda**s``: ``p`` has
    one coefficient and each operation is one ``int`` operation.

    Each entry compared at step ``k`` (1-based) is a ``k``-minor of
    ``D*M``, that is ``D**k`` times the same minor of ``M``; as ``D > 0`` the
    order of the padded coefficient lists ``[0]*s + p`` (length first), and
    with it every pivot choice and row swap, is that of ``M``.  Pivot ``k``
    is returned divided by ``D**k``.

    Rows are ``{column: entry}`` dicts and each step touches only the rows
    holding the pivot column.  A Bareiss step merely multiplies every other
    row by ``pivot/prev``; those factors telescope, so such a row is left
    alone and brought up to date with one division when it next holds a
    pivot column.  The result is exactly that of the dense elimination: the
    same entries, the same pivot rule and the same row swaps.  Every entry
    is an integer minor, so each division is exact over Z (Sylvester's
    identity); one that leaves a remainder raises ``ArithmeticError`` as
    the bug it would be.
    """
    scale = math.lcm(*(c.denominator for row in rows for x in row for c in x.coeffs))
    mat = [
        {
            j: _graded(0, [c.numerator * (scale // c.denominator) for c in x.coeffs])
            for j, x in enumerate(row)
            if x.coeffs
        }
        for row in rows
    ]
    ncols = len(rows[0]) if rows else 0
    order = list(range(len(mat)))  # position -> row, swapped as in the dense form
    step = [0] * len(mat)  # the step each row's entries are current at
    prevs = [(0, [1])]  # prevs[k]: the pivot of step k, with prevs[0] = 1
    r = 0
    for c in range(ncols):
        if r == len(mat):
            break
        hits = [k for k in range(r, len(mat)) if c in mat[order[k]]]
        if not hits:
            continue
        prev = prevs[r]
        for k in hits:
            i = order[k]
            if step[i] != r:
                old = prevs[step[i]]
                mat[i] = {
                    j: _graded_div(_graded_mul(x, prev), old) for j, x in mat[i].items()
                }
                step[i] = r

        def key(k):
            s, p = mat[order[k]][c]
            return s + len(p), [0] * s + p, k

        pr = min(hits, key=key)
        hit_rows = [order[k] for k in hits if k != pr]
        order[r], order[pr] = order[pr], order[r]
        prow = mat[order[r]]
        pivot = prow[c]
        for i in hit_rows:
            row = mat[i]
            f = row[c]
            crossed = {}
            for j in row.keys() | prow.keys():
                v = _graded_cross(pivot, row.get(j), f, prow.get(j))
                if v is not None:
                    crossed[j] = _graded_div(v, prev)
            mat[i] = crossed
            step[i] = r + 1
        prevs.append(pivot)
        r += 1
    return [
        UniPoly._from_fractions([ZERO] * s + [Fraction(x, scale**k) for x in p])
        for k, (s, p) in enumerate(prevs[1:], 1)
    ]


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


def rank_modulo(rows: Sequence[Sequence[UniPoly]], modulus: UniPoly) -> list:
    """Ranks of a polynomial matrix over the quotient rings by ``modulus``.

    If a zero divisor turns up during elimination the modulus is split by
    the discovered factor and both halves are processed, so the result is
    a list of ``(factor, rank)`` pairs whose factors multiply to a
    divisor-closed refinement of ``modulus``.  Rows are ``{column: residue}``
    dicts holding only nonzero residues; the pivot is the first row, in
    current order, that is nonzero at the column, as in the dense
    Gauss-Jordan form, and only the rows below it are reduced: the rows
    above never pivot again, so the ranks and splits found are the same.
    """
    modulus = modulus.monic()
    zero = UniPoly.zero()
    residues = ({j: e.divmod(modulus)[1] for j, e in enumerate(row) if e.coeffs} for row in rows)
    mat = [{j: x for j, x in row.items() if x.coeffs} for row in residues]
    ncols = len(rows[0]) if rows else 0
    try:
        r = 0
        for c in range(ncols):
            if r == len(mat):
                break
            pr = next((i for i in range(r, len(mat)) if c in mat[i]), None)
            if pr is None:
                continue
            mat[r], mat[pr] = mat[pr], mat[r]
            inv = _inverse_mod(mat[r][c], modulus)
            # a unit times a nonzero residue is nonzero: no entry drops out
            prow = mat[r] = {j: (inv * e).divmod(modulus)[1] for j, e in mat[r].items()}
            for row in mat[r + 1 :]:
                f = row.get(c)
                if f is None:
                    continue
                for j, b in prow.items():
                    v = (row.get(j, zero) - f * b).divmod(modulus)[1]
                    if v.is_zero():
                        row.pop(j, None)
                    else:
                        row[j] = v
            r += 1
        return [(modulus, r)]
    except _NeedsSplit as split:
        g = split.factor
        other = _poly_exact_div(modulus, g).monic()
        out = rank_modulo(rows, g)
        if other.degree > 0:
            out.extend(rank_modulo(rows, other))
        return out


def squarefree_factors(p: UniPoly) -> list:
    """Distinct squarefree factors of ``p`` (monic, nonconstant)."""
    if p.degree < 1:
        return []
    work = p.monic()
    out = []
    while work.degree >= 1:
        g = work.gcd(work.derivative())
        sqfree = _poly_exact_div(work, g).monic() if g.degree >= 1 else work
        if sqfree.degree >= 1 and sqfree not in out:
            out.append(sqfree)
        if g.degree < 1:
            break
        work = g
    return out
