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
key merges like terms and is the term order: an operation adds its pairs
into one dict and sorts only its result, once.  The pairs stay sparse
because a dense exponent vector would sort ``u_1`` before ``y*u_1``,
changing the order.  Inside the kernel, and only there, a term's powers
are packed into one ``int`` of fixed-width fields (:class:`_Codec`, whose
``chain`` is the one ``D_y`` chain): products, powers, partial and total
derivatives are integer additions on it, with the exponential parts
summed by :func:`_weight_sum`, and only the nonzero results are unpacked
into shape keys and sorted.

Coefficients are cleared of their denominators where the arithmetic is
heavy.  The kernel (``_accumulate``, ``_merged`` and :class:`_Codec`)
uses only ``*``, ``**``, ``+`` and truthiness on coefficients, so it runs
unchanged on ``int`` numerators: a product, a power ``b^k`` (one key
product per multiset of k base terms, summed in one dict) and the
symmetry defect take ``(d, d*e)`` from :func:`_cleared`, work on the
``int`` coefficients of ``d*e``, and divide the result once with
:func:`_divided`; the assembly in ``engine`` keeps its integer cells over
one denominator for the whole system.
An exponential weight stays a ``Fraction`` and multiplies into such
coefficients exactly.  The boundary rule: every expression that this
module's constructors, ``parser`` or ``engine`` return holds only
``Fraction`` coefficients, since an ``int`` divided by an ``int``
downstream would give a float.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, lcm
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .errors import MixedTypeError
from .linalg import ONE, ZERO, _frac

KIND_INDEP = 0
KIND_JET = 1
_SPAN = 64  # codes per kind; jet orders stay below it

_BY_KEY = {}  # (kind, index) -> the one Coord
_NAMES = {}  # Coord -> its rendered name


class Coord(int):
    """A coordinate of the jet space.

    ``kind`` is independent variable or jet (``u_l`` with ``l >= 0``,
    where ``u_0`` is the dependent variable itself).  Each coordinate exists
    once and is the integer ``kind * 64 + index``, so coordinates hash,
    compare and sort as integers, in the order of ``(kind, index)``:
    independents first, then jets by order.
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
_BY_NAME = {name: c for c, name in _NAMES.items()}


def jet(l: int) -> Coord:
    """Jet coordinate for the l-th y-derivative of u (l = 0 gives u)."""
    if l < 0:
        raise ValueError("jet order must be non-negative")
    return Coord(KIND_JET, l)


def coord_by_name(name: str):
    """The coordinate rendered exactly as ``name``, or None."""
    return _BY_NAME.get(name)


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
        jet_degree = sum(p for c, p in pw if c >= U)
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
_ONE_KEY = (0, (), ())  # the shape key of a constant


def _accumulate(acc: dict, pairs: Iterable) -> dict:
    """Add ``(key, coeff)`` pairs into ``acc``, merging like keys; cancelled keys keep a 0."""
    get = acc.get
    for key, c in pairs:
        prev = get(key)
        acc[key] = c if prev is None else prev + c
    return acc


def _expr(pairs: Iterable) -> "ExpPolyExpr":
    """The expression of sorted, merged, nonzero ``(key, coeff)`` pairs."""
    e = object.__new__(ExpPolyExpr)
    e.terms = tuple(_new_monomial(Monomial, kc) for kc in pairs)
    return e


def _merged(pairs: Iterable) -> "ExpPolyExpr":
    """The sum of ``(key, coeff)`` pairs: like keys merged once, then sorted once."""
    return _expr(kc for kc in sorted(_accumulate({}, pairs).items()) if kc[1])


def _cleared(e: "ExpPolyExpr") -> tuple:
    """``(d, d*e)`` with ``d`` the lcm of e's denominators; ``d*e`` has ``int``
    coefficients and is for the kernel's use only."""
    d = lcm(*(c.denominator for _, c in e.terms))
    out = object.__new__(ExpPolyExpr)
    out.terms = tuple(
        _new_monomial(Monomial, (k, c.numerator * (d // c.denominator))) for k, c in e.terms
    )
    return d, out


def _divided(pairs: Iterable, d: int) -> "ExpPolyExpr":
    """The sorted nonzero ``(key, coeff)`` pairs divided by ``d``, as an expression
    with ``Fraction`` coefficients: the way back from :func:`_cleared`."""
    return _expr((k, Fraction(c, d)) for k, c in pairs)


def _weight_sum(x: tuple, y: tuple) -> tuple:
    """The canonical sum of two exponential parts, cancelled weights dropped."""
    if not y:
        return x
    if not x:
        return y
    acc = dict(x)
    for c, v in y:
        v += acc.get(c, 0)
        if v:
            acc[c] = v
        else:
            del acc[c]
    return tuple(sorted(acc.items()))


def _largest_power(terms) -> int:
    """The largest power in a sequence of terms, 0 for none."""
    return max((p for (_, powers, _), _ in terms for _, p in powers), default=0)


_FIELDS = (T, Y) + _JETS  # field f of a packed key holds the power of _FIELDS[f]
_FIELD = {c: f for f, c in enumerate(_FIELDS)}
_CODECS = {}  # field width -> its one _Codec


def _codec(bound: int) -> "_Codec":
    """The codec whose fields hold every power up to ``bound``: as many bits
    as ``bound`` has, plus a guard bit."""
    width = bound.bit_length() + 1
    return _CODECS.get(width) or _CODECS.setdefault(width, _Codec(width))


class _Codec:
    """The packed kernel: a term's powers as one ``int`` key of W-bit fields.

    Field f, bits ``f*W`` up to ``(f+1)*W``, holds the power of
    ``_FIELDS[f]`` (t, y, u, u_1, ...).  A product of terms adds their keys,
    ``d/dz`` subtracts the unit of z's field and a ``D_y`` step moves a unit
    from a jet's field to the next one's (from y's, it only subtracts).
    Neither derivative changes a term's exponential part, so terms are
    grouped by it, ``{expvec: [(key, coeff)]}``, and only powers are packed;
    a product sums two groups' exponential parts once, with
    :func:`_weight_sum`.  This is the only code that adds two terms' powers.
    """

    __slots__ = ("width", "mask", "units", "steps")

    def __init__(self, width: int):
        self.width, self.mask = width, (1 << width) - 1
        self.units = units = tuple(1 << (width * f) for f in range(len(_FIELDS) + 1))
        # D_y moves a unit from field f to field f + 1, and from y (field 1) away
        self.steps = (0, -units[1]) + tuple(units[f + 1] - units[f] for f in range(2, len(_FIELDS)))

    def groups(self, terms) -> dict:
        """``{expvec: [(packed key, coeff)]}`` of terms."""
        units, out = self.units, {}
        for (_, pw, ev), a in terms:
            out.setdefault(ev, []).append((sum(p * units[_FIELD[c]] for c, p in pw), a))
        return out

    def chain(self, terms: list, expvec: tuple, n: int, shift=0) -> list:
        """``(D_y + shift)^j`` of packed terms with exponential part ``expvec``
        for j = 0..n, ``shift`` a constant; each step is merged once into
        nonzero pairs, unsorted.  ``exp(w*y)`` adds w to the shift and
        ``exp(mu*u)`` contributes ``mu * u_1``."""
        weights = dict(expvec)
        wy, wu = weights.get(Y, 0) + shift, weights.get(U, 0)
        width, mask, steps, u_1 = self.width, self.mask, self.steps, self.units[_FIELD[_JETS[1]]]
        chain = [terms]
        for _ in range(n):
            acc = {}
            get = acc.get
            for k, c in chain[-1]:
                r, f = k >> width, 1  # t, field 0, is a constant under D_y
                while r:
                    p = r & mask
                    if p:
                        key = k + steps[f]
                        acc[key] = get(key, 0) + c * p
                    r >>= width
                    f += 1
                if wy:
                    acc[k] = get(k, 0) + c * wy
                if wu:
                    key = k + u_1
                    acc[key] = get(key, 0) + c * wu
            chain.append([kc for kc in acc.items() if kc[1]])
        return chain

    def partial(self, terms: list, expvec: tuple, c: Coord) -> list:
        """``d/dc`` of packed terms with exponential part ``expvec``, unmerged:
        the power rule, then the exponential rule."""
        f = _FIELD[c]
        shift, mask, unit, w = self.width * f, self.mask, self.units[f], dict(expvec).get(c)
        out = [(k - unit, a * p) for k, a in terms if (p := k >> shift & mask)]
        return out + [(k, a * w) for k, a in terms] if w else out

    @staticmethod
    def contract(acc: dict, coefficients, derivatives) -> dict:
        """Add ``sum_j coefficients[j] * derivatives[j]`` of packed pairs into
        ``acc``, the dict of their exponential parts' sum; cancelled keys keep a 0."""
        get = acc.get
        for a, d in zip(coefficients, derivatives):
            for ka, ca in a:
                for kd, cd in d:
                    key = ka + kd
                    acc[key] = get(key, 0) + ca * cd
        return acc

    @staticmethod
    def product(out: dict, xs: dict, ys: dict) -> dict:
        """Add the product of two grouped term sets ``{expvec: [(key, coeff)]}``
        into ``out``, ``{expvec: {key: coeff}}``; cancelled keys keep a 0."""
        for xe, x in xs.items():
            for ye, y in ys.items():
                _Codec.contract(out.setdefault(_weight_sum(xe, ye), {}), (x,), (y,))
        return out

    @staticmethod
    def power(xs: dict, k: int) -> dict:
        """``{expvec: {key: coeff}}`` of ``(sum of the grouped terms xs)^k`` in one
        pass over the multisets of k terms: each gives their product times the
        multinomial ``k!/(k_1!...k_n!)``; cancelled keys keep a 0."""
        terms = [(ev, key, c) for ev, pairs in xs.items() for key, c in pairs]
        n, out = len(terms), {} if k else {(): {0: 1}}
        raised = [  # raised[j][m - 1]: the m-th power of term j
            [(ev and tuple((z, m * w) for z, w in ev), m * key, c**m) for m in range(1, k + 1)]
            for ev, key, c in terms
        ]

        def grow(start, r, ev, key, coeff):
            # each term taken has a positive multiplicity, so the depth is at most k
            for j in range(start, n):
                for m in range(1 if j + 1 < n else r, r + 1):
                    mev, mkey, a = raised[j][m - 1]
                    if m < r:
                        grow(j + 1, r - m, _weight_sum(ev, mev), key + mkey, coeff * comb(r, m) * a)
                    else:
                        acc = out.setdefault(_weight_sum(ev, mev), {})
                        acc[key + mkey] = acc.get(key + mkey, 0) + coeff * a

        if k:
            grow(0, k, (), 0, 1)
        return out

    def unpacked(self, groups: dict) -> list:
        """The ``(key, value)`` pairs of ``{expvec: {packed key: value}}`` with a
        true value, as canonical shape keys, sorted."""
        width, mask = self.width, self.mask
        out = []
        for ev, acc in groups.items():
            for k, c in acc.items():
                if c:
                    powers, jd, f = [], 0, 0
                    while k:
                        p = k & mask
                        if p:
                            powers.append((_FIELDS[f], p))
                            if f > 1:
                                jd += p
                        k >>= width
                        f += 1
                    out.append(((jd, tuple(powers), ev), c))
        out.sort()
        return out


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
        return _expr(((_ONE_KEY, c),) if c else ())

    @classmethod
    def one(cls) -> "ExpPolyExpr":
        return cls.constant(1)

    @classmethod
    def coordinate(cls, c: Coord) -> "ExpPolyExpr":
        return _expr((((1 if c >= U else 0, ((c, 1),), ()), ONE),))

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
        for a, b in ((self, other), (other, self)):
            if len(b.terms) == 1 and b.terms[0][0] == _ONE_KEY:  # times a constant
                return a.scale(b.terms[0][1])
        # on int numerators: (d*self)*(e*other), divided by d*e once
        (d, x), (e, y) = _cleared(self), _cleared(other)
        codec = _codec(_largest_power(x.terms) + _largest_power(y.terms))
        return _divided(codec.unpacked(codec.product({}, codec.groups(x.terms), codec.groups(y.terms))), d * e)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ExpPolyExpr":
        """self to the power k >= 0, expanded on ``int`` numerators: ``(d*self)^k``,
        divided by ``d^k`` once."""
        if k < 0:
            raise ValueError(f"negative exponent {k}")
        d, scaled = _cleared(self)
        codec = _codec(k * _largest_power(self.terms))
        return _divided(codec.unpacked(codec.power(codec.groups(scaled.terms), k)), d**k)

    # -- calculus -----------------------------------------------------

    def partial_derive(self, c: Coord) -> "ExpPolyExpr":
        """Partial derivative treating every coordinate as independent.

        Both the power rule and the exponential rule apply:
        d/dz (exp(w z) z^k M) = w exp(w z) z^k M + k exp(w z) z^(k-1) M.
        """
        codec = _codec(_largest_power(self.terms))
        return _expr(codec.unpacked({
            ev: _accumulate({}, codec.partial(terms, ev, c)) for ev, terms in codec.groups(self.terms).items()
        }))

    def total_derive_y(self) -> "ExpPolyExpr":
        """Total y-derivative: D_y = d/dy + sum_l u_(l+1) d/d u_(l), merged once."""
        codec = _codec(_largest_power(self.terms) + 1)
        return _expr(codec.unpacked({
            ev: dict(codec.chain(terms, ev, 1)[1]) for ev, terms in codec.groups(self.terms).items()
        }))

    def order(self) -> int:
        """Highest jet order present; -1 for jet-free expressions.

        Dependence through an exponential weight on u counts as order 0.
        """
        # a term's last power and last weight are on its highest coordinates
        top = max((c for (_, pw, ev), _ in self.terms for c, _ in pw[-1:] + ev[-1:]), default=-1)
        return top - U if top >= U else -1

    def depends_on(self, c: Coord) -> bool:
        """True iff ``c`` occurs with nonzero power or exponential weight."""
        return any(cc == c for (_, pw, ev), _ in self.terms for cc, _ in pw + ev)

    def frechet(self) -> "LinearDiffOp":
        """Linearization: the operator sum_j (d self / d u_(j)) D_y^j."""
        return LinearDiffOp([self.partial_derive(jet(l)) for l in range(self.order() + 1)])

    # -- rendering ----------------------------------------------------

    def render(self) -> str:
        """Deterministic text form, e.g. ``3*exp(2*y)*y^2*u_1``."""
        if not self.terms:
            return "0"
        chunks = []
        for key, coeff in self.terms:
            n, d = abs(coeff.numerator), coeff.denominator
            mag, body = str(n) if d == 1 else f"{n}/{d}", _render_body(key)
            text = (body if n == d else f"{mag}*{body}") if body else mag
            chunks.append((" - " if coeff.numerator < 0 else " + ") + text)
        text = "".join(chunks)
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def __repr__(self):
        return f"ExpPolyExpr({self.render()})"


def _render_body(key: tuple) -> str:
    """The factors of a shape key, e.g. ``exp(-1/2*y)*y^2*u_1``."""
    parts = []
    for c, w in key[2]:
        n, d = w.numerator, w.denominator
        scale = f"{n}/{d}*" if d != 1 else "" if n == 1 else "-" if n == -1 else f"{n}*"
        parts.append(f"exp({scale}{_NAMES[c]})")
    for c, p in key[1]:
        parts.append(_NAMES[c] if p == 1 else f"{_NAMES[c]}^{p}")
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
        if any(key != _ONE_KEY for key, _ in shift.terms):
            raise ValueError(f"the shift {shift.render()} is not a constant")
        largest = max((_largest_power(a.terms) for a in self.coefficients), default=0)
        codec = _codec(_largest_power(theta.terms) + self.order + largest)
        coefficients = [codec.groups(a.terms) for a in self.coefficients]
        out = {}
        for ev, terms in codec.groups(theta.terms).items():
            chain = codec.chain(terms, ev, self.order, shift.terms[0][1] if shift.terms else 0)
            for a, level in zip(coefficients, chain):
                codec.product(out, a, {ev: level})
        return _expr(codec.unpacked(out))

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
    return ExpPolyElement(selected, weights, {j: ExpPolyExpr(ms) for j, ms in table.items()})


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
