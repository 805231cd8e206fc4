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

Representation: a coordinate is the integer ``kind * 64 + index``, and a
monomial is the tuple ``(key, coeff)`` with the shape key
``(jet_degree, powers, expvec)`` of sparse ``(coord, value)`` pairs sorted
by coordinate, so terms hash and compare as plain tuples of integers.  The
key merges like terms and is the term order: every operation emits
``(key, coeff)`` pairs, then merges them once and sorts once.  The pairs
stay sparse because a dense exponent vector would sort ``u_1`` before
``y*u_1`` and change the rendered term order.

Coefficients are cleared of their denominators where the arithmetic is
heavy.  The kernel (``_merged``, the ``_*_pairs`` generators, ``frechet``,
``contract``, ``apply_shifted``) uses only ``*``, ``+`` and truthiness on
coefficients, so it runs unchanged on ``int`` numerators: the symmetry
defect and the assembly in ``engine`` and the power expansion in
``parser`` take ``(d, d*e)`` from :func:`_cleared`, work on the ``int``
coefficients of ``d*e``, and divide the result once with
:func:`_divided`.  An exponential weight stays a ``Fraction`` and
multiplies into such coefficients exactly.  The boundary rule: every
expression that this module's constructors, ``parser`` or ``engine``
return holds only ``Fraction`` coefficients, since an ``int`` divided by
an ``int`` downstream would give a float.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .errors import MixedTypeError
from .linalg import ONE, ZERO, _frac

KIND_INDEP = 0
KIND_JET = 1
KIND_PARAM = 2
_SPAN = 64  # codes per kind; jet orders stay below it

_BY_KEY = {}  # (kind, index) -> the one Coord
_NAMES = {}  # Coord -> its rendered name


class Coord(int):
    """A coordinate of the jet space (plus one internal spectral parameter).

    ``kind`` is one of independent variable, jet (``u_l`` with ``l >= 0``,
    where ``u_0`` is the dependent variable itself), or the internal
    parameter used by symbolic eigenvalue scans.  Each coordinate exists
    once and is the integer ``kind * 64 + index``, so coordinates hash,
    compare and sort as integers, in the order of ``(kind, index)``:
    independents first, then jets by order, then the parameter.
    """

    __slots__ = ()

    def __new__(cls, kind: int, index: int):
        c = _BY_KEY.get((kind, index))
        if c is None:
            raise ValueError(f"no coordinate of kind {kind} and index {index}")
        return c

    def __reduce__(self):
        return Coord, (self.kind, self.index)

    def __bool__(self):
        return True  # t has code 0 but is a coordinate, not a false value

    @property
    def kind(self) -> int:
        return self // _SPAN

    @property
    def index(self) -> int:
        return self % _SPAN

    @property
    def is_zero_jet(self) -> bool:
        """True for coordinates of the 0-jet manifold (t, y, u)."""
        return self <= U  # t and y have the codes below u

    @property
    def name(self) -> str:
        return _NAMES[self]

    def __repr__(self):
        return f"Coord({self.name})"


def _make(kind: int, index: int, name: str) -> Coord:
    c = _BY_KEY[kind, index] = int.__new__(Coord, kind * _SPAN + index)
    _NAMES[c] = name
    return c


T = _make(KIND_INDEP, 0, "t")
Y = _make(KIND_INDEP, 1, "y")
_JETS = tuple(_make(KIND_JET, l, f"u_{l}" if l else "u") for l in range(_SPAN))
U = _JETS[0]
PARAM = _make(KIND_PARAM, 0, "lambda")
_NEXT_JET = dict(zip(_JETS, _JETS[1:]))  # u_l -> u_(l+1)


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
        if suffix.isdigit() and 1 <= int(suffix) < _SPAN:
            return jet(int(suffix))
    return None


class Monomial(tuple):
    """One canonical term: coeff * prod(exp(w*z)) * prod(coord^power).

    The pair ``(key, coeff)``, with ``key = (jet_degree, powers, expvec)``
    the shape key described in the module docstring; monomials hash and
    compare as tuples.
    """

    __slots__ = ()

    def __new__(cls, coeff, powers: Mapping, expvec: Mapping):
        coeff = _frac(coeff)
        pw = tuple(sorted((c, int(p)) for c, p in powers.items() if p != 0))
        ev = []
        for c, w in expvec.items():
            w = _frac(w)
            if w == 0:
                continue
            if not c.is_zero_jet:
                raise ValueError(f"exponential weight on non-0-jet coordinate {c.name}")
            ev.append((c, w))
        if any(p < 0 for _, p in pw):
            raise ValueError("negative power")
        jet_degree = sum(p for c, p in pw if U <= c < PARAM)
        return tuple.__new__(cls, ((jet_degree, pw, tuple(sorted(ev))), coeff))

    key = property(itemgetter(0))
    coeff = property(itemgetter(1))
    powers = property(lambda m: m[0][1])
    expvec = property(lambda m: m[0][2])
    shape = property(lambda m: m[0][1:], doc="Hashable identity without the coefficient.")

    def __reduce__(self):
        return Monomial, (self.coeff, dict(self.powers), dict(self.expvec))

    def power(self, c: Coord) -> int:
        return dict(self.powers).get(c, 0)

    def weight(self, c: Coord) -> Fraction:
        return dict(self.expvec).get(c, ZERO)

    def __repr__(self):
        return f"Monomial({self.coeff}, {self.shape})"


_new_monomial = tuple.__new__


def _merged(pairs: Iterable) -> "ExpPolyExpr":
    """The sum of ``(key, coeff)`` pairs: like keys merged once, then sorted once."""
    acc = {}
    get = acc.get
    for key, c in pairs:
        prev = get(key)
        acc[key] = c if prev is None else prev + c
    e = object.__new__(ExpPolyExpr)
    e.terms = tuple(_new_monomial(Monomial, kc) for kc in sorted(acc.items()) if kc[1])
    return e


def _cleared(e: "ExpPolyExpr") -> tuple:
    """``(d, d*e)`` with ``d`` the lcm of e's denominators; ``d*e`` has ``int``
    coefficients and is for the kernel's use only."""
    d = lcm(*(c.denominator for _, c in e.terms))
    out = object.__new__(ExpPolyExpr)
    out.terms = tuple(
        _new_monomial(Monomial, (k, c.numerator * (d // c.denominator))) for k, c in e.terms
    )
    return d, out


def _divided(e: "ExpPolyExpr", d: int) -> "ExpPolyExpr":
    """``e / d`` with ``Fraction`` coefficients: the way back from :func:`_cleared`."""
    out = object.__new__(ExpPolyExpr)
    out.terms = tuple(_new_monomial(Monomial, (k, Fraction(c, d))) for k, c in e.terms)
    return out


def _bump(pairs: tuple, c: Coord, delta) -> tuple:
    """Canonical power (or weight) pairs with the entry of ``c`` raised by ``delta``."""
    for i, (cc, p) in enumerate(pairs):
        if cc == c:
            rest = pairs[i + 1 :]
            return pairs[:i] + (((c, p + delta),) + rest if p + delta else rest)
        if cc > c:
            return pairs[:i] + ((c, delta),) + pairs[i:]
    return pairs + ((c, delta),)


def _add_pairs(x: tuple, y: tuple) -> tuple:
    """Entrywise sum of two canonical sparse pair tuples, zeros dropped."""
    if not y:
        return x
    if not x:
        return y
    if len(y) == 1:
        c, v = y[0]
        return _bump(x, c, v)
    acc = dict(x)
    for c, v in y:
        v += acc.get(c, 0)
        if v:
            acc[c] = v
        else:
            del acc[c]
    return tuple(sorted(acc.items()))


def _lower(pairs: tuple, i: int, up=None) -> tuple:
    """Pairs with the power at position ``i`` lowered by one and, when given,
    the power of ``up`` (the next coordinate after it) raised by one."""
    c, p = pairs[i]
    rest = pairs[i + 1 :]
    if up is not None:
        if rest and rest[0][0] == up:
            rest = ((up, rest[0][1] + 1),) + rest[1:]
        else:
            rest = ((up, 1),) + rest
    return pairs[:i] + ((c, p - 1),) + rest if p > 1 else pairs[:i] + rest


def _product_pairs(xs: tuple, ys: tuple):
    """``(key, coeff)`` pairs of the product of two term tuples, unmerged."""
    for (xd, xp, xe), xc in xs:
        for (yd, yp, ye), yc in ys:
            yield (xd + yd, _add_pairs(xp, yp), _add_pairs(xe, ye)), xc * yc


def _partial_pairs(terms: tuple, c: Coord):
    """Pairs of d/dc: the power rule, then the exponential rule."""
    drop = 1 if U <= c < PARAM else 0
    for key, coeff in terms:
        jd, powers, expvec = key
        for i, (cc, p) in enumerate(powers):
            if cc == c:
                yield (jd - drop, _lower(powers, i), expvec), coeff * p
                break
        for cc, w in expvec:
            if cc == c:
                yield key, coeff * w
                break


def _total_derive_y_pairs(terms: tuple):
    """Pairs of D_y = d/dy + sum_l u_(l+1) d/d u_l, unmerged."""
    for key, coeff in terms:
        jd, powers, expvec = key
        for i, (c, p) in enumerate(powers):
            if c == Y:
                yield (jd, _lower(powers, i), expvec), coeff * p
            elif U <= c < PARAM:
                yield (jd, _lower(powers, i, _NEXT_JET[c]), expvec), coeff * p
        for c, w in expvec:
            if c == Y:
                yield key, coeff * w
            elif c == U:
                yield (jd + 1, _bump(powers, _JETS[1], 1), expvec), coeff * w


class ExpPolyExpr:
    """Canonical sum of :class:`Monomial`; the empty sum is zero."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Monomial] = ()):
        self.terms = _merged(terms).terms

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
        return _merged(self.terms + other.terms)

    def __sub__(self, other: "ExpPolyExpr") -> "ExpPolyExpr":
        return _merged(itertools.chain(self.terms, ((k, -c) for k, c in other.terms)))

    def __neg__(self) -> "ExpPolyExpr":
        return self.scale(-1)

    def scale(self, c) -> "ExpPolyExpr":
        """c times self; a nonzero factor keeps every key, so nothing is merged."""
        c = _frac(c)
        e = object.__new__(ExpPolyExpr)
        e.terms = tuple(_new_monomial(Monomial, (k, c * a)) for k, a in self.terms) if c else ()
        return e

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return _merged(_product_pairs(self.terms, other.terms))

    __rmul__ = __mul__

    # -- calculus -----------------------------------------------------

    def partial_derive(self, c: Coord) -> "ExpPolyExpr":
        """Partial derivative treating every coordinate as independent.

        Both the power rule and the exponential rule apply:
        d/dz (exp(w z) z^k M) = w exp(w z) z^k M + k exp(w z) z^(k-1) M.
        """
        return _merged(_partial_pairs(self.terms, c))

    def total_derive_y(self) -> "ExpPolyExpr":
        """Total y-derivative: D_y = d/dy + sum_l u_(l+1) d/d u_(l), merged once."""
        return _merged(_total_derive_y_pairs(self.terms))

    def order(self) -> int:
        """Highest jet order present; -1 for jet-free expressions.

        Dependence through an exponential weight on u counts as order 0.
        """
        return max(
            (c.index for m in self.terms for c, _ in m.powers + m.expvec if U <= c < PARAM),
            default=-1,
        )

    def depends_on(self, c: Coord) -> bool:
        """True iff ``c`` occurs with nonzero power or exponential weight."""
        return any(m.power(c) or m.weight(c) for m in self.terms)

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
        derivatives = [theta]
        for _ in range(self.order):
            terms = derivatives[-1].terms
            pairs = _total_derive_y_pairs(terms)
            if shift.terms:
                pairs = itertools.chain(pairs, _product_pairs(shift.terms, terms))
            derivatives.append(_merged(pairs))
        return self.contract(derivatives)

    def contract(self, derivatives: Sequence[ExpPolyExpr]) -> ExpPolyExpr:
        """sum_j a_j * derivatives[j], merged once.

        With ``derivatives[j] = D_y^j theta`` this is the operator applied to
        theta, so callers that apply many operators to one theta compute its
        derivatives once.
        """
        if len(derivatives) < len(self.coefficients):
            raise ValueError("contract needs D_y^j theta for j up to the operator order")
        return _merged(
            pair
            for a, d in zip(self.coefficients, derivatives)
            for pair in _product_pairs(a.terms, d.terms)
        )

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
        self.degrees = tuple(
            max(j[s] for j, _ in self.table) + 1 for s in range(len(self.selected))
        )

    def coefficient(self, j: tuple) -> ExpPolyExpr:
        return dict(self.table).get(tuple(j), ExpPolyExpr.zero())

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
    return _merged(
        (key, c * a) for c, e in zip(map(_frac, coeffs), exprs) if c for key, a in e.terms
    )


def monomial_coordinates(exprs: Sequence[ExpPolyExpr]) -> tuple:
    """Common monomial-shape basis and coordinate vectors for expressions.

    Returns ``(shapes, vectors)`` where shapes is the sorted tuple of all
    monomial shapes occurring in any input and vectors[i][k] is the
    coefficient of shapes[k] in exprs[i].
    """
    keys = sorted({key for e in exprs for key, _ in e.terms})
    index = {key: i for i, key in enumerate(keys)}
    vectors = []
    for e in exprs:
        v = [ZERO] * len(keys)
        for key, c in e.terms:
            v[index[key]] = c
        vectors.append(tuple(v))
    return tuple(key[1:] for key in keys), vectors


def all_jet_monomials(q_max: int, total_degree: int) -> list:
    """All jet monomials u^b0 u_1^b1 ... with order <= q_max, total degree <= cap.

    Ordered by total degree, then by exponent vector with lower jets first;
    the constant monomial comes first.
    """
    # combinations in lexicographic order are exponent vectors in
    # descending order: more weight on lower jets first
    return [
        ExpPolyExpr.monomial(ONE, {jet(l): combo.count(l) for l in combo})
        for deg in range(total_degree + 1)
        for combo in itertools.combinations_with_replacement(range(q_max + 1), deg)
    ]
