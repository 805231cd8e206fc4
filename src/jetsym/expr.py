"""Exponential-polynomial expressions over jet coordinates.

The coefficient ring is the rationals.  An expression is a canonical sum
of monomials; each monomial carries

* a nonzero rational coefficient,
* integer powers of coordinates (independent variables, the dependent
  variable, jet coordinates ``u_l`` for the l-th y-derivative),
* exponential factors ``exp(w * z)`` with rational weight ``w``, allowed
  only on 0-jet coordinates (``t``, ``y``, ``u``), never on ``u_l`` with
  ``l >= 1``.

This ring is closed under partial derivatives and the total y-derivative,
which is exactly what the symmetry machinery needs.  All values are
immutable and all operations are pure.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import MixedTypeError
from .linalg import ONE, ZERO, _frac

KIND_INDEP = 0
KIND_JET = 1
KIND_PARAM = 2


class Coord:
    """A coordinate of the jet space (plus one internal spectral parameter).

    ``kind`` is one of independent variable, jet (``u_l`` with ``l >= 0``,
    where ``u_0`` is the dependent variable itself), or the internal
    parameter used by symbolic eigenvalue scans.  Coordinates are totally
    ordered: independents first, then jets by order, then the parameter.
    """

    __slots__ = ("kind", "index")

    def __init__(self, kind: int, index: int):
        self.kind = kind
        self.index = index

    def __eq__(self, other):
        return (
            isinstance(other, Coord)
            and self.kind == other.kind
            and self.index == other.index
        )

    def __hash__(self):
        return hash((self.kind, self.index))

    def __lt__(self, other: "Coord"):
        return self.key() < other.key()

    def key(self) -> tuple:
        return (self.kind, self.index)

    @property
    def is_zero_jet(self) -> bool:
        """True for coordinates of the 0-jet manifold (t, y, u)."""
        return self.kind == KIND_INDEP or (self.kind == KIND_JET and self.index == 0)

    @property
    def jet_order(self):
        return self.index if self.kind == KIND_JET else None

    @property
    def name(self) -> str:
        if self.kind == KIND_INDEP:
            return ("t", "y")[self.index]
        if self.kind == KIND_JET:
            return "u" if self.index == 0 else f"u_{self.index}"
        return "lambda"

    def __repr__(self):
        return f"Coord({self.name})"


T = Coord(KIND_INDEP, 0)
Y = Coord(KIND_INDEP, 1)
U = Coord(KIND_JET, 0)
PARAM = Coord(KIND_PARAM, 0)


def jet(l: int) -> Coord:
    """Jet coordinate for the l-th y-derivative of u (l = 0 gives u)."""
    if l < 0:
        raise ValueError("jet order must be non-negative")
    return Coord(KIND_JET, l)


def coord_by_name(name: str):
    if name == "t":
        return T
    if name == "y":
        return Y
    if name == "u":
        return U
    if name.startswith("u_"):
        suffix = name[2:]
        if suffix.isdigit() and int(suffix) >= 1:
            return jet(int(suffix))
    return None


class Monomial:
    """One canonical term: coeff * prod(exp(w*z)) * prod(coord^power)."""

    __slots__ = ("coeff", "powers", "expvec")

    def __init__(self, coeff, powers: Mapping, expvec: Mapping):
        self.coeff = _frac(coeff)
        self.powers = tuple(
            sorted(((c, int(p)) for c, p in powers.items() if p != 0), key=lambda cp: cp[0].key())
        )
        ev = []
        for c, w in expvec.items():
            w = _frac(w)
            if w == 0:
                continue
            if not c.is_zero_jet:
                raise ValueError(f"exponential weight on non-0-jet coordinate {c.name}")
            ev.append((c, w))
        self.expvec = tuple(sorted(ev, key=lambda cw: cw[0].key()))
        for _, p in self.powers:
            if p < 0:
                raise ValueError("negative power")

    @property
    def shape(self) -> tuple:
        """Hashable identity without the coefficient."""
        return (self.powers, self.expvec)

    def __eq__(self, other):
        return (
            isinstance(other, Monomial)
            and self.coeff == other.coeff
            and self.powers == other.powers
            and self.expvec == other.expvec
        )

    def __hash__(self):
        return hash((self.coeff, self.powers, self.expvec))

    def power(self, c: Coord) -> int:
        for cc, p in self.powers:
            if cc == c:
                return p
        return 0

    def weight(self, c: Coord) -> Fraction:
        for cc, w in self.expvec:
            if cc == c:
                return w
        return ZERO

    def jet_degree(self) -> int:
        return sum(p for c, p in self.powers if c.kind == KIND_JET)

    def sort_key(self) -> tuple:
        return (
            self.jet_degree(),
            tuple((c.key(), p) for c, p in self.powers),
            tuple((c.key(), w) for c, w in self.expvec),
        )

    def __repr__(self):
        return f"Monomial({self.coeff}, {self.shape})"


def _mono(coeff: Fraction, powers: tuple, expvec: tuple) -> Monomial:
    """Monomial from a Fraction coefficient and an already canonical shape."""
    m = object.__new__(Monomial)
    m.coeff = coeff
    m.powers = powers
    m.expvec = expvec
    return m


def _bump(pairs: tuple, c: Coord, delta) -> tuple:
    """Canonical power (or weight) tuple with the entry of ``c`` raised by ``delta``."""
    k = c.key()
    for i, (cc, p) in enumerate(pairs):
        kk = cc.key()
        if kk == k:
            rest = pairs[i + 1 :]
            return pairs[:i] + (((c, p + delta),) + rest if p + delta else rest)
        if kk > k:
            return pairs[:i] + ((c, delta),) + pairs[i:]
    return pairs + ((c, delta),)


def _partial_terms(m: Monomial, c: Coord):
    """Terms of d m / d c: the power rule, then the exponential rule."""
    p = m.power(c)
    if p:
        yield _mono(m.coeff * p, _bump(m.powers, c, -1), m.expvec)
    w = m.weight(c)
    if w:
        yield _mono(m.coeff * w, m.powers, m.expvec)


class ExpPolyExpr:
    """Canonical sum of :class:`Monomial`; the empty sum is zero."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Monomial] = ()):
        acc = {}
        for m in terms:
            key = m.shape
            prev = acc.get(key)
            acc[key] = m if prev is None else _mono(prev.coeff + m.coeff, *key)
        merged = [m for m in acc.values() if m.coeff]
        self.terms = tuple(sorted(merged, key=Monomial.sort_key))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "ExpPolyExpr":
        return cls()

    @classmethod
    def constant(cls, c) -> "ExpPolyExpr":
        c = _frac(c)
        return cls([Monomial(c, {}, {})]) if c else cls()

    @classmethod
    def one(cls) -> "ExpPolyExpr":
        return cls.constant(1)

    @classmethod
    def coordinate(cls, c: Coord) -> "ExpPolyExpr":
        return cls([Monomial(ONE, {c: 1}, {})])

    @classmethod
    def exponential(cls, c: Coord, weight) -> "ExpPolyExpr":
        return cls([Monomial(ONE, {}, {c: weight})])

    @classmethod
    def monomial(cls, coeff, powers: Mapping = (), expvec: Mapping = ()) -> "ExpPolyExpr":
        return cls([Monomial(coeff, dict(powers), dict(expvec))])

    # -- ring structure -----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, ExpPolyExpr) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __add__(self, other: "ExpPolyExpr") -> "ExpPolyExpr":
        return ExpPolyExpr(self.terms + other.terms)

    def __sub__(self, other: "ExpPolyExpr") -> "ExpPolyExpr":
        return self + (-other)

    def __neg__(self) -> "ExpPolyExpr":
        return self.scale(-1)

    def scale(self, c) -> "ExpPolyExpr":
        c = _frac(c)
        if c == 0:
            return ExpPolyExpr()
        return ExpPolyExpr(_mono(c * m.coeff, m.powers, m.expvec) for m in self.terms)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out = []
        for a in self.terms:
            for b in other.terms:
                powers, expvec = a.powers, a.expvec
                for c, p in b.powers:
                    powers = _bump(powers, c, p)
                for c, w in b.expvec:
                    expvec = _bump(expvec, c, w)
                out.append(_mono(a.coeff * b.coeff, powers, expvec))
        return ExpPolyExpr(out)

    __rmul__ = __mul__

    # -- calculus -----------------------------------------------------

    def partial_derive(self, c: Coord) -> "ExpPolyExpr":
        """Partial derivative treating every coordinate as independent.

        Both the power rule and the exponential rule apply:
        d/dz (exp(w z) z^k M) = w exp(w z) z^k M + k exp(w z) z^(k-1) M.
        """
        return ExpPolyExpr(t for m in self.terms for t in _partial_terms(m, c))

    def total_derive_y(self) -> "ExpPolyExpr":
        """Total y-derivative: D_y = d/dy + sum_l u_(l+1) d/d u_(l), merged once."""
        out = []
        for m in self.terms:
            out.extend(_partial_terms(m, Y))
            for c in dict.fromkeys(c for c, _ in m.powers + m.expvec if c.kind == KIND_JET):
                up = jet(c.index + 1)
                out.extend(
                    _mono(d.coeff, _bump(d.powers, up, 1), d.expvec)
                    for d in _partial_terms(m, c)
                )
        return ExpPolyExpr(out)

    def order(self) -> int:
        """Highest jet order present; -1 for jet-free expressions.

        Dependence through an exponential weight on u counts as order 0.
        """
        return max(
            (c.index for m in self.terms for c, _ in m.powers + m.expvec if c.kind == KIND_JET),
            default=-1,
        )

    def depends_on(self, c: Coord) -> bool:
        """True iff ``c`` occurs with nonzero power or exponential weight."""
        return any(m.power(c) or m.weight(c) for m in self.terms)

    def max_degree(self, c: Coord) -> int:
        return max((m.power(c) for m in self.terms), default=0)

    def frechet(self) -> "LinearDiffOp":
        """Linearization: the operator sum_j (d self / d u_(j)) D_y^j."""
        return LinearDiffOp([self.partial_derive(jet(l)) for l in range(self.order() + 1)])

    # -- rendering ----------------------------------------------------

    def render(self) -> str:
        """Deterministic text form, e.g. ``3*exp(2*y)*y^2*u_1``."""
        if not self.terms:
            return "0"
        chunks = []
        for m in self.terms:
            body = _render_body(m)
            coeff = m.coeff
            if not chunks:
                sign = "-" if coeff < 0 else ""
            else:
                sign = " - " if coeff < 0 else " + "
            mag = abs(coeff)
            if body:
                text = body if mag == 1 else f"{mag}*{body}"
            else:
                text = str(mag)
            chunks.append(sign + text)
        return "".join(chunks)

    def __repr__(self):
        return f"ExpPolyExpr({self.render()})"


def _render_body(m: Monomial) -> str:
    parts = []
    for c, w in m.expvec:
        if w == 1:
            parts.append(f"exp({c.name})")
        elif w == -1:
            parts.append(f"exp(-{c.name})")
        else:
            parts.append(f"exp({w}*{c.name})")
    for c, p in m.powers:
        parts.append(c.name if p == 1 else f"{c.name}^{p}")
    return "*".join(parts)


class LinearDiffOp:
    """Linear differential operator sum_j a_j D_y^j with expression coefficients."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Sequence[ExpPolyExpr]):
        coeffs = list(coefficients)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.coefficients = tuple(coeffs)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def apply(self, theta: ExpPolyExpr) -> ExpPolyExpr:
        return self.apply_shifted(theta, ExpPolyExpr.zero())

    def apply_shifted(self, theta: ExpPolyExpr, shift: ExpPolyExpr) -> ExpPolyExpr:
        """Apply with D_y replaced by (D_y + shift), shift a constant expression."""
        terms = []
        current = theta
        for j, a in enumerate(self.coefficients):
            if j:
                current = current.total_derive_y() + shift * current
            terms.extend((a * current).terms)
        return ExpPolyExpr(terms)

    def __eq__(self, other):
        return isinstance(other, LinearDiffOp) and self.coefficients == other.coefficients

    def __repr__(self):
        body = ", ".join(a.render() for a in self.coefficients)
        return f"LinearDiffOp([{body}])"


class ExpPolyElement:
    """An expression in single-exponential polynomial form for selected coordinates.

    Holds one exponential weight per selected coordinate, the per-coordinate
    polynomial degrees (as ``k`` = degree + 1), and the table of coefficient
    expressions indexed by the exponent tuple.  Coefficients never involve
    the selected coordinates, neither through powers nor through weights.
    """

    __slots__ = ("selected", "lambdas", "degrees", "table")

    def __init__(self, selected, lambdas, table):
        self.selected = tuple(selected)
        self.lambdas = tuple(_frac(w) for w in lambdas)
        items = []
        for j, coeff_expr in sorted(table.items() if isinstance(table, dict) else table):
            j = tuple(int(x) for x in j)
            if coeff_expr.is_zero():
                continue
            for c in self.selected:
                if coeff_expr.depends_on(c):
                    raise ValueError(
                        f"coefficient table entry depends on selected coordinate {c.name}"
                    )
            items.append((j, coeff_expr))
        if not items:
            raise ValueError("zero expression has no exponential-polynomial form")
        self.table = tuple(items)
        g = len(self.selected)
        degs = [0] * g
        for j, _ in self.table:
            for s in range(g):
                degs[s] = max(degs[s], j[s])
        self.degrees = tuple(d + 1 for d in degs)

    def coefficient(self, j: tuple) -> ExpPolyExpr:
        for jj, e in self.table:
            if jj == tuple(j):
                return e
        return ExpPolyExpr.zero()

    def reconstruct(self) -> ExpPolyExpr:
        weights = dict(zip(self.selected, self.lambdas))
        return ExpPolyExpr(
            Monomial(
                m.coeff,
                {**dict(m.powers), **dict(zip(self.selected, j))},
                {**dict(m.expvec), **weights},
            )
            for j, coeff_expr in self.table
            for m in coeff_expr.terms
        )

    def __eq__(self, other):
        return (
            isinstance(other, ExpPolyElement)
            and self.selected == other.selected
            and self.lambdas == other.lambdas
            and self.table == other.table
        )

    def __repr__(self):
        return f"{type(self).__name__}({self.reconstruct().render()})"


def canonical_exp_poly(e: ExpPolyExpr, selected: Sequence[Coord]) -> ExpPolyElement:
    """Read an expression as exp(sum w_s z_s) times a polynomial in the z_s.

    Fails with :class:`MixedTypeError` when monomials carry different
    exponential weights on the selected coordinates, since then no single
    weight tuple exists.  Reconstruction of the result multiplies back to
    the input exactly.
    """
    selected = tuple(selected)
    if e.is_zero():
        raise ValueError("zero expression has no exponential-polynomial form")
    weights = None
    table = {}
    for m in e.terms:
        w = tuple(m.weight(c) for c in selected)
        if weights is None:
            weights = w
        elif weights != w:
            raise MixedTypeError(
                "mixed exponential weights on selected coordinates: "
                f"{weights} vs {w}"
            )
        j = tuple(m.power(c) for c in selected)
        powers = {c: p for c, p in m.powers if c not in selected}
        expvec = {c: wv for c, wv in m.expvec if c not in selected}
        table.setdefault(j, []).append(Monomial(m.coeff, powers, expvec))
    return ExpPolyElement(
        selected, weights, {j: ExpPolyExpr(ms) for j, ms in table.items()}
    )


def combine(coeffs: Sequence, exprs: Sequence[ExpPolyExpr]) -> ExpPolyExpr:
    """The linear combination sum c_i * e_i, merged once."""
    return ExpPolyExpr(t for c, e in zip(coeffs, exprs) if c for t in e.scale(c).terms)


def monomial_coordinates(exprs: Sequence[ExpPolyExpr]) -> tuple:
    """Common monomial-shape basis and coordinate vectors for expressions.

    Returns ``(shapes, vectors)`` where shapes is the sorted tuple of all
    monomial shapes occurring in any input and vectors[i][k] is the
    coefficient of shapes[k] in exprs[i].
    """
    shape_set = {}
    for e in exprs:
        for m in e.terms:
            shape_set.setdefault(m.shape, m.sort_key())
    shapes = tuple(sorted(shape_set, key=shape_set.get))
    index = {s: i for i, s in enumerate(shapes)}
    vectors = []
    for e in exprs:
        v = [ZERO] * len(shapes)
        for m in e.terms:
            v[index[m.shape]] = m.coeff
        vectors.append(tuple(v))
    return shapes, vectors


def all_jet_monomials(q_max: int, total_degree: int) -> list:
    """All jet monomials u^b0 u_1^b1 ... with order <= q_max, total degree <= cap.

    Ordered by total degree, then by exponent vector with lower jets first;
    the constant monomial comes first.
    """
    out = []
    orders = list(range(q_max + 1))
    for deg in range(total_degree + 1):
        combos = set()
        for combo in itertools.combinations_with_replacement(orders, deg):
            combos.add(combo)
        keyed = []
        for combo in combos:
            bvec = [0] * (q_max + 1)
            for l in combo:
                bvec[l] += 1
            keyed.append(tuple(bvec))
        for bvec in sorted(keyed, key=lambda b: tuple(-x for x in b)):
            powers = {jet(l): b for l, b in enumerate(bvec) if b}
            out.append(ExpPolyExpr.monomial(ONE, powers, {}))
    return out
