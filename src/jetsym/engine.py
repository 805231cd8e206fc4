"""Determining equations for scalar evolution equations and their solution.

Given ``u_t = G(u, u_1, ..., u_d)`` and a finite ansatz space of candidate
characteristics exp(w*y) * y^a * m, this module assembles the linear
determining system (the defect of a generic combination must vanish
identically in jet and y monomials) and solves it exactly.  Only the
y-free system ``S`` over the jet monomials m is assembled, once, with the
exponential weight w kept as a polynomial unknown, ``(D_y + w)^j``
expanded by binomials and the cells kept as integer lists over one
denominator.  ``S(w)`` has full column rank at generic w (the top power of
w in the defect of a kernel vector is ``-G_{u_d}`` times its top
coefficient), so once its constant entries, units of Q[w], are
eliminated, the last pivot of the core left, a maximal minor, locates
every candidate weight, and its radical ``P / gcd(P, P')`` is root-searched
once; every kernel at a fixed w is read off the Taylor expansion of S
there.  Since G is y-free, the y^a columns add nothing new:
differentiating L(exp(w*y) m) = exp(w*y) L_w(m) in w gives the cell of
row block y^b and column y^a * m as C(a, b) * S^(a-b)(w), so the kernel
at w is the set of Jordan chains of S(lambda) at w, of length at most the
y-degree plus one (:func:`kernel_at`), read off one recorded elimination
of ``S(w)`` per weight that every chain level and every caller reuses.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from math import comb, factorial, lcm

from .errors import EmptyAnsatzError, ScopeError
from .expr import (
    T,
    Y,
    ExpPolyExpr,
    _cleared,
    _codec,
    _divided,
    _expr,
    _largest_power,
    all_jet_monomials,
    jet,
)
from .linalg import (
    ZERO,
    Elimination,
    RatMatrix,
    UniPoly,
    _frac,
    _int_taylor,
    _kernel_basis,
    _poly_exact_div,
    normalize_vector,
    nullspace,
    poly_matrix_pivots,
    rank_modulo,
    rational_roots,
    rref,
    unit_core,
)


class _Record:
    """A plain record: its fields are the names annotated in its class body, taken
    in order by position or keyword; a class attribute of a field's name is its
    default, a list copied per record.  Assigning raises ``AttributeError``."""

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = tuple(cls.__annotations__)
        fields = dict(zip(names, args))
        for name in names[len(args) :]:
            if name in kwargs:
                fields[name] = kwargs.pop(name)
            elif hasattr(cls, name):
                default = getattr(cls, name)
                fields[name] = default.copy() if type(default) is list else default
            else:
                raise TypeError(f"{cls.__name__}() missing field {name!r}")
        if kwargs or len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}")
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")


class EvolutionEquation:
    """Right-hand side of ``u_t = G(u, u_1, ..., u_d)`` with its order d.

    The defects run on ``D_G * G``, with ``D_G`` the lcm of G's coefficient
    denominators, so that their arithmetic is on ``int``s.  The equation
    keeps ``D_G``, the total y-derivatives of ``D_G * G`` and, in
    ``_shifted_frechet[e]``, the part of ``lambda^e`` of the linearization
    ``sum_j a_j (D_y + lambda)^j`` of ``-D_G * G``: ``sum_i C(i+e, i) a_(i+e)
    D_y^i``, each computed once and packed once per field width
    (:meth:`_packing`); ``rhs`` is G.
    """

    __slots__ = ("rhs", "order", "_denominator", "_shifted_frechet", "_scaled_derivatives", "_packings")

    def __init__(self, rhs: ExpPolyExpr):
        if any(m.expvec for m in rhs.terms):  # the packed defects rely on it
            raise ScopeError("exponential right-hand sides are not supported")
        for c in (T, Y):
            if rhs.depends_on(c):
                raise ScopeError(
                    f"evolution right-hand side must not depend on {c.name}"
                )
        d = rhs.order()
        if d < 2:
            raise ScopeError(f"evolution order must be at least 2, got {d}")
        self.rhs = rhs
        self.order = d
        self._denominator, scaled = _cleared(rhs)
        a = [c.terms for c in _cleared(-rhs)[1].frechet().coefficients]
        self._shifted_frechet = tuple(
            [[(k, comb(i + e, i) * c) for k, c in a[i + e]] for i in range(d + 1 - e)] for e in range(d + 1)
        )
        self._scaled_derivatives = (scaled,)
        self._packings = {}  # codec -> (derivatives, shifted linearization), packed

    def _scaled_rhs_derivatives(self, n: int) -> tuple:
        """D_y^j (D_G * G) for j = 0..n, on ints, each computed once per equation."""
        ders = self._scaled_derivatives
        if len(ders) <= n:
            # extend a copy and publish it whole, so concurrent callers
            # never see a partly built tuple
            grown = list(ders)
            while len(grown) <= n:
                grown.append(grown[-1].total_derive_y())
            self._scaled_derivatives = ders = tuple(grown)
        return ders[: n + 1]

    def _packing(self, etas, n: int) -> tuple:
        """``(codec, ders, frechet)`` for the defects of ``etas``, all of order
        at most n.  The codec's fields hold the largest power in ``etas``, plus
        the largest in ``D_y^l (D_G * G)`` for l <= n, plus the chain length d;
        ``ders`` holds those derivatives and ``frechet`` the
        ``_shifted_frechet``, both packed once per codec."""
        ders = self._scaled_rhs_derivatives(max(n, 0))
        largest = max(_largest_power(g.terms) for g in ders)
        codec = _codec(max((_largest_power(e.terms) for e in etas), default=0) + largest + self.order)
        packed = self._packings.get(codec)
        if packed is None or len(packed[0]) < len(ders):
            packed = self._packings[codec] = (
                [codec.groups(g.terms).get((), []) for g in ders],  # G has no exponentials
                [[codec.groups(a).get((), []) for a in ops] for ops in self._shifted_frechet],
            )
        return (codec,) + packed

    def __eq__(self, other):
        return isinstance(other, EvolutionEquation) and self.rhs == other.rhs

    def __repr__(self):
        return f"EvolutionEquation(u_t = {self.rhs.render()})"


def symmetry_defect(eta: ExpPolyExpr, eq: EvolutionEquation) -> ExpPolyExpr:
    """Linearization defect eta'[G] - G_*[eta]; zero exactly when eta is a
    symmetry characteristic.

    Both terms are bilinear in (eta, G), so the defect is computed on
    ``D_eta * eta`` and ``D_G * G``, both with ``int`` coefficients, and
    divided by ``D_eta * D_G`` once.
    """
    packing = eq._packing((eta,), eta.order())
    d, groups = _defect_pairs(eta, eq, packing)[:2]  # the chains are freed before the sort
    return _divided(packing[0].unpacked(groups), d)


def _defect_pairs(eta: ExpPolyExpr, eq: EvolutionEquation, packing: tuple) -> tuple:
    """``(d, groups, chains)`` on the codec of ``packing``, per exponential
    part of eta: in ``groups``, ``d`` times the defect as an unsorted ``{key:
    int}`` dict (cancelled keys keep a zero) of the products ``d eta/d u_l *
    D_y^l G`` and ``(-d G/d u_j) * D_y^j eta``, and in ``chains`` the
    ``D_y^j (d * eta)``, j <= order, all packed."""
    codec, ders, frechet = packing
    d, scaled = _cleared(eta)
    n = scaled.order()
    groups, chains = {}, {}
    for ev, terms in codec.groups(scaled.terms).items():
        acc = codec.contract({}, ders, [codec.partial(terms, ev, jet(l)) for l in range(n + 1)])
        chains[ev] = chain = codec.chain(terms, ev, eq.order)
        groups[ev] = codec.contract(acc, frechet[0], chain)
    return d * eq._denominator, groups, chains


def is_symmetry(eta: ExpPolyExpr, eq: EvolutionEquation) -> bool:
    return symmetry_defect(eta, eq).is_zero()


def lie_bracket(eta1: ExpPolyExpr, eta2: ExpPolyExpr) -> ExpPolyExpr:
    """Bracket of characteristics (convention: linearize the second on the first)."""
    return eta2.frechet().apply(eta1) - eta1.frechet().apply(eta2)


# Generators y^a * m, C(q_max + 1 + jet_degree, jet_degree) * (y_degree + 1),
# above which build_ansatz refuses the caps; only the monomials m are built,
# assembled and eliminated, and each y power adds one chain level.  At 1,716
# generators (order 9, jet degree 3, y-degree 5) the KdV solve takes 0.35 s
# end to end with --lambda none and 0.4 s with the weight scan, and the heat,
# potential Burgers and KdV criterion runs take 0.23 to 0.37 s (2-core VM).
MAX_ANSATZ_GENERATORS = 2000


class AnsatzSpace(_Record):
    """Finite space of candidate characteristics exp(w*y) * y^a * m.

    ``generators`` are the jet monomials m alone, a <= ``y_degree`` and
    ``weights`` are the sorted w; the products are ordered weights outermost
    and the y power innermost, y^a * m at column ``m*(y_degree+1) + a``.
    """

    generators: tuple
    q_max: int
    y_degree: int
    jet_degree: int
    weights: tuple

    def replace(self, **fields) -> AnsatzSpace:
        """This ansatz with the given fields changed, e.g. other ``weights``."""
        return AnsatzSpace(**{**vars(self), **fields})

    def describe(self) -> dict:
        return {
            "q_max": self.q_max,
            "y_degree": self.y_degree,
            "jet_degree": self.jet_degree,
            "weights": [str(w) for w in self.weights],
            "size": len(self.generators) * (self.y_degree + 1) * len(self.weights),
        }


def build_ansatz(
    q_max: int, y_degree: int, jet_degree: int, weights: Sequence = (0,)
) -> AnsatzSpace:
    """The jet monomials m(u, ..., u_{q_max}) within the caps, with the y-degree.

    Enumeration order: by total degree, lower jets first; with the y power
    innermost inside ascending weights, it is part of the deterministic
    output contract.  Caps with more than ``MAX_ANSATZ_GENERATORS``
    generators y^a * m raise ``ScopeError`` before any monomial is built.
    """
    if min(q_max, y_degree, jet_degree) < 0:
        raise EmptyAnsatzError("ansatz caps must be non-negative")
    weight_list = tuple(sorted(_frac(w) for w in set(weights)))
    if not weight_list:
        raise EmptyAnsatzError("no exponential weights given")
    size = comb(q_max + 1 + jet_degree, jet_degree) * (y_degree + 1)
    if size > MAX_ANSATZ_GENERATORS:
        raise ScopeError(
            f"the ansatz (q_max={q_max}, jet_degree={jet_degree}, y_degree={y_degree}) "
            f"has {size} generators, above the cap of {MAX_ANSATZ_GENERATORS}"
        )
    gens = tuple(all_jet_monomials(q_max, jet_degree))
    return AnsatzSpace(gens, q_max, y_degree, jet_degree, weight_list)


def characteristic(vec: Sequence, monomials: Sequence, y_degree: int, w=ZERO) -> ExpPolyExpr:
    """``sum vec[m*(y_degree+1) + a] * exp(w*y) * y^a * m`` over the columns of
    :func:`kernel_at`, merged once; y^a's packed key adds to those of m's terms."""
    step = y_degree + 1
    used = [(col % step, _frac(c), monomials[col // step].terms) for col, c in enumerate(vec) if c]
    codec = _codec(y_degree + max((_largest_power(terms) for _, _, terms in used), default=0))
    ((y, _),) = codec.groups(ExpPolyExpr.coordinate(Y).terms)[()]
    expvec = ((Y, _frac(w)),) if w else ()
    out = {}
    for a, c, terms in used:
        codec.product(out, {expvec: [(a * y, c)]}, codec.groups(terms))
    return _expr(codec.unpacked(out))


class DeterminingSystem(_Record):
    """Linear constraints on the coefficients of exp(w*y) * g over generators g.

    One row per jet/y monomial occurring in any generator defect; the
    entry in column l is that monomial's coefficient in the defect of
    exp(w*y) times generator l, with the common exp factor divided out, a
    polynomial in the weight w.  A cell holds the integer coefficients of
    the system's one denominator times it, ascending by degree; ``rows``
    divides, the scan and :func:`kernel_at` read integers.
    """

    generators: tuple
    row_shapes: tuple
    _cells: tuple  # per row, (column, int list) of its nonzeros, columns ascending
    _denominator: int
    # every system keeps the weight as an unknown; perfbench/tracer.py reads this
    symbolic = True

    @cached_property
    def _weight_states(self) -> dict:  # weight -> _WeightState, each published once complete
        return {}

    @cached_property
    def rows(self) -> tuple:
        """Dense rows of ``UniPoly`` entries, built on first read; the pipeline
        reads only the cells.  Equal cells share one immutable ``UniPoly``, and
        every empty cell the zero."""
        zero, d, n = UniPoly.zero(), self._denominator, len(self.generators)
        distinct = {tuple(p) for cells in self._cells for _, p in cells}  # each divided once
        polys = {c: UniPoly._from_fractions([Fraction(x, d) for x in c]) for c in distinct}
        rows = [{j: polys[tuple(p)] for j, p in cells} for cells in self._cells]
        return tuple(tuple(row.get(j, zero) for j in range(n)) for row in rows)

    def _expansion(self, w: Fraction) -> tuple:
        """``(scale, s)``: ``s`` holds ``scale`` times each ``S_p``, p <= n, the top cell
        degree, as ``int``s; ``scale`` is the denominator times ``b**n`` at ``w = a/b``."""
        a, b = w.numerator, w.denominator
        n = max((len(coeffs) for cells in self._cells for _, coeffs in cells), default=1) - 1
        out = [{} for _ in range(n + 1)]
        for i, cells in enumerate(self._cells):
            for j, coeffs in cells:
                for s_p, x in zip(out, _int_taylor(coeffs, a, b, n) if a else coeffs):
                    if x:
                        s_p.setdefault(j, []).append((i, x))
        return self._denominator * b**n, out


def determining_system(ansatz: AnsatzSpace, eq: EvolutionEquation) -> DeterminingSystem:
    """Assemble the constraint matrix of the ansatz's generators, weight unknown.

    For y-free G, ``D_y^j (exp(w y) h) = exp(w y) (D_y + w)^j h``: the defect
    of exp(w*y) g, exp factor removed, is ``g'[G]`` plus ``w^e`` times
    ``_shifted_frechet[e]`` applied to g, one accumulator per power e over
    the one chain ``D_y^i g``, each read unsorted.  Column g is over ``d *
    D_G``, ``d`` the lcm of g's denominators, scaled up to the lcm of these
    (``D_G`` for monic generators).  The system has one packing: every row
    key stays packed until all columns are in, and is unpacked and sorted
    once.  Any generators will do; a run assembles its jet monomials, and
    :func:`kernel_at` reads every y-degree off it.
    """
    gens, by_key = ansatz.generators, {}
    denominator = eq._denominator * lcm(*(c.denominator for g in gens for _, c in g.terms))
    packing = eq._packing(gens, max((g.order() for g in gens), default=-1))  # one codec
    codec, frechet = packing[0], packing[2]
    for col, g in enumerate(gens):
        d, groups, chains = _defect_pairs(g, eq, packing)
        up = denominator // d
        for ev, acc in groups.items():
            cells = {key: [c * up] for key, c in acc.items() if c}
            for e, ops in enumerate(frechet[1:], 1):
                for key, c in codec.contract({}, ops, chains[ev]).items():
                    if c:
                        cell = cells.setdefault(key, [])
                        cell += [0] * (e - len(cell)) + [c * up]
            rows = by_key.setdefault(ev, {})
            for key, cell in cells.items():
                rows.setdefault(key, []).append((col, cell))
    # one unpacking and sort of the row keys; columns ascend within a row,
    # as the cells were found column by column
    keyed = codec.unpacked(by_key)
    cells = tuple(tuple(columns) for _, columns in keyed)
    return DeterminingSystem(gens, tuple(key[1:] for key, _ in keyed), cells, denominator)


class _WeightState:
    """What :func:`kernel_at` keeps of ``S(lambda)`` at one weight w, up to
    a constant factor: the ``S_p``, p >= 1, that can be nonzero, the
    :class:`Elimination` of ``S_0``, its kernel, and in ``levels[j]`` a
    basis of the Jordan chains of length at most j + 1, each a ``{(a,
    column): x_a}`` dict.  ``levels`` grows only by whole tuples, so a
    concurrent reader never sees part of a level.
    """

    __slots__ = ("taylor", "record", "kernel", "levels")

    def __init__(self, system: DeterminingSystem, w):
        s_0, *self.taylor = system._expansion(w)[1]
        s0 = [{} for _ in system._cells]
        for m, cells in s_0.items():
            for i, x in cells:
                s0[i][m] = x
        self.record = record = Elimination(s0)
        self.kernel = tuple(_kernel_basis(record.reduced, record.pivots, len(system.generators)))
        self.levels = (tuple({(0, m): x for m, x in enumerate(v) if x} for v in self.kernel),)

    def longer(self, chains: tuple) -> tuple:
        """The chains one longer than ``chains``, plus the eigenvectors.

        A chain less its ``x_0`` is ``sum_k alpha_k chains[k]``, and ``S_0 x_0
        = -sum_k alpha_k r_k``, ``r_k`` pushing ``chains[k]`` through ``S_1 ..
        S_j``.  Carried through the record, the ``r_k`` left on the rows
        without a pivot (rows empty in ``S_0`` too) have the allowed
        ``alpha`` as kernel; the pivot rows give ``x_0``, free columns zero.
        """
        pushed = []
        for chain in chains:
            r = {}
            for (a, m), c in chain.items():
                if a < len(self.taylor):
                    for i, e in self.taylor[a].get(m, ()):
                        r[i] = r.get(i, ZERO) + e * c
            pushed.append({i: x for i, x in r.items() if x})
        carried = self.record.carry(pushed)
        on_pivots = [(pc, carried.pop(i)) for i, pc in self.record.pivot_rows.items() if i in carried]
        grown = []
        for alpha in nullspace(RatMatrix._from_sparse(list(carried.values()), len(chains))):
            chain = {(0, pc): -sum((c * alpha[k] for k, c in row.items()), ZERO) for pc, row in on_pivots}
            for a_k, old in zip(alpha, chains):
                for (a, m), x in old.items() if a_k else ():
                    chain[a + 1, m] = chain.get((a + 1, m), ZERO) + a_k * x
            grown.append({key: x for key, x in chain.items() if x})
        return tuple(grown) + self.levels[0]


def kernel_at(system: DeterminingSystem, w, y_degree: int) -> list:
    """Kernel at the weight w of the generators y^a * m, a <= y_degree.

    ``system`` is the y-free system ``S`` over the jet monomials m.  The
    result is ``nullspace`` of the system the products would assemble at
    w, over the columns ``m*(y_degree+1) + a`` that :func:`characteristic`
    reads.  Row block y^b of that system has ``C(a, b) * S^(a-b)(w)`` in
    column y^a * m, so with ``S_p = S^(p)(w)/p!`` and ``x_a`` the y^a block
    times ``a!``, a kernel vector is a Jordan chain of ``S(lambda)`` at w:
    ``sum_p S_p x_(b+p) = 0`` for every b.  ``S_0`` is eliminated once per
    system and weight (:class:`_WeightState`, kept on the system): level 0,
    the answer at y-degree 0, is its kernel, each longer level carries
    only its few new columns through that record, and a repeated call is a
    lookup.  Above level 0 one ``rref`` of the chain vectors, columns
    reversed, gives ``nullspace``'s basis: the vector of each free column
    has its last nonzero entry there and 0 at every other free column.
    """
    w = _frac(w)
    states = system._weight_states
    state = states.get(w) or states.setdefault(w, _WeightState(system, w))
    if not y_degree:
        return list(state.kernel)
    levels = state.levels
    if len(levels) <= y_degree:
        grown = list(levels)
        while len(grown) <= y_degree:
            grown.append(state.longer(grown[-1]))
        state.levels = levels = tuple(grown)
    step = y_degree + 1
    top = len(system.generators) * step - 1
    flipped = [
        {top - (m * step + a): x / factorial(a) for (a, m), x in c.items()} for c in levels[y_degree]
    ]
    red, pivots = rref(RatMatrix._from_sparse(flipped, top + 1))
    return [
        normalize_vector([row.get(top - c, ZERO) for c in range(top + 1)])
        for row in reversed(red._rows[: len(pivots)])
    ]


class SymmetryBasis(_Record):
    """Solved symmetry space: elements :func:`characteristic` at each weight, and dimensions."""

    equation: EvolutionEquation
    ansatz: AnsatzSpace
    elements: tuple
    dims: tuple  # dims[q] = dimension of the order-<=q subspace, q = 0..q_max
    system: DeterminingSystem  # the y-free system, weight unknown, the basis was read off

    def __len__(self):
        return len(self.elements)


def solve_symmetries(
    ansatz: AnsatzSpace,
    eq: EvolutionEquation,
    system: DeterminingSystem | None = None,
) -> SymmetryBasis:
    """Exact basis of symmetry characteristics inside the ansatz space.

    No monomial is shared between weights, so the kernel is the
    concatenation, in weight order, of exp(w*y) times ``kernel_at(system,
    w, y_degree)``.  ``dims`` is read off those kernels: with ``k`` kernel
    vectors at a weight, the order-<=q part has dimension ``k - rank`` of
    the kernel's coordinates on the generators of order above q, one
    ``rref`` of the ``k x n`` transposed kernel per weight; y^a * m has the
    order of m.  ``system`` is the y-free system of the ansatz's jet
    monomials, ``determining_system(ansatz, eq)``, when the caller has
    already assembled it; it is assembled here only when none is given.
    """
    if system is None:
        system = determining_system(ansatz, eq)
    gens, y_degree = ansatz.generators, ansatz.y_degree
    # a kernel vector lies in the order-<=q subspace when its coordinates on
    # the higher-order generators vanish; with K^T's columns taken by
    # descending order those generators are a leading block of n - count_q
    # columns, whose rank is the number of pivots inside it
    gen_orders = [g.order() for g in gens for _ in range(y_degree + 1)]
    n = len(gen_orders)
    by_order = sorted(range(n), key=gen_orders.__getitem__, reverse=True)  # stable
    counts = [sum(1 for o in gen_orders if o <= q) for q in range(ansatz.q_max + 1)]
    elements, dims = [], [0] * len(counts)
    for w in ansatz.weights:
        kernel = kernel_at(system, w, y_degree)
        if not kernel:
            continue  # full column rank: no order-<=q block has a kernel either
        elements.extend(characteristic(vec, gens, y_degree, w) for vec in kernel)
        kernel_t = [{c: v[j] for c, j in enumerate(by_order) if v[j]} for v in kernel]
        _, pivots = rref(RatMatrix._from_sparse(kernel_t, n))
        for q, count in enumerate(counts):
            dims[q] += len(kernel) - sum(1 for p in pivots if p < n - count)
    return SymmetryBasis(eq, ansatz, tuple(elements), tuple(dims), system)


class LambdaScan(_Record):
    """Result of the symbolic exponential-weight search."""

    candidates: tuple  # rational weights with a nonzero solution space
    residual_factors: tuple  # verified rational-root-free factors (UniPoly)
    generic_nullity: int  # kernel dimension at generic weight
    pivots: tuple  # Bareiss pivots of the unit_core core of S, not of S

    def describe(self) -> dict:
        return {
            "candidates": [str(c) for c in self.candidates],
            "residual_factors": [str(f) for f in self.residual_factors],
            "generic_nullity": self.generic_nullity,
        }


def lambda_candidates(
    ansatz: AnsatzSpace,
    eq: EvolutionEquation,
    system: DeterminingSystem | None = None,
) -> LambdaScan:
    """Rational exponential weights at which the determining system gains solutions.

    The constant entries of ``S(lambda)``, units, are eliminated first
    (:func:`unit_core`): at every w, and modulo every factor, the rank of S
    is the unit count plus that of the small core left.  ``S(w)`` has full
    column rank at generic w (see the module docstring), so the last pivot
    of the core's fraction-free elimination, a maximal minor, vanishes
    wherever the rank drops.  Its radical ``P / gcd(P, P')``, which has
    each of its roots once, is root-searched once, and every rational root
    is verified on the whole system by the kernel ``kernel_at(system, w,
    0)``, kept on the system.  One :func:`rank_modulo` splits the radical's
    rational-root-free residual into coprime parts of uniform core rank, the
    parts of each rank are multiplied, and those where the rank drops are
    reported, never silently dropped.  The scan runs on the y-free system of
    the ansatz's jet monomials: a weight with a chain has an eigenvector, so
    the y powers add no weight.  ``system`` is that system when the caller
    has already assembled it.  The weights the ansatz declares play no part.
    """
    if system is None:
        system = determining_system(ansatz, eq)
    units, core = unit_core(system._cells, len(system.generators))
    ncols = len(system.generators) - units  # the core's columns
    pivots = poly_matrix_pivots(core)
    last = pivots[-1] if pivots else UniPoly.one()  # the empty core's determinant
    radical = _poly_exact_div(last, last.gcd(last.derivative())).monic()
    roots, residual = rational_roots(radical)
    by_rank = {}  # the rank at a root is intrinsic: one factor per rank
    for f, rank in rank_modulo(core, residual) if residual.degree >= 1 else []:
        by_rank[rank] = by_rank.get(rank, UniPoly.one()) * f
    return LambdaScan(
        candidates=tuple(w for w, _ in roots if kernel_at(system, w, 0)),
        residual_factors=tuple(
            sorted((f for rank, f in by_rank.items() if rank < ncols), key=UniPoly.sort_key)
        ),
        generic_nullity=ncols - len(pivots),
        pivots=tuple(pivots),
    )


class BoundCheck(_Record):
    """One dimension-bound verdict for the report."""

    label: str
    q: int
    value: int
    bound: int
    passed: bool


def check_dimension_bounds(basis: SymmetryBasis) -> tuple:
    """Check the dimension series against the evolution-equation bounds.

    The computed dimensions are lower bounds for the true ones, so any
    violation here indicates an implementation bug rather than an
    interesting equation.
    """
    d = basis.equation.order
    dims = basis.dims
    out = []
    if len(dims) > 1:
        v1 = dims[1]
        out.append(BoundCheck("order-1 cap", 1, v1, d + 3, v1 <= d + 3))
        for q in range(2, len(dims)):
            bound = v1 + q - 1
            out.append(BoundCheck("growth cap", q, dims[q], bound, dims[q] <= bound))
    return tuple(out)
