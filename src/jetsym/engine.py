"""Determining equations for scalar evolution equations and their solution.

Given ``u_t = G(u, u_1, ..., u_d)`` and a finite ansatz space of candidate
characteristics exp(w*y) * y^a * m, this module assembles the linear
determining system (the defect of a generic combination must vanish
identically in jet and y monomials) and solves it exactly.  Only the
y-free system ``S`` over the jet monomials m is assembled, once, with the
exponential weight w kept as a polynomial unknown.  ``S(w)`` has full
column rank at generic w (the top power of w in the defect of a kernel
vector is ``-G_{u_d}`` times its top coefficient), so the last pivot of
its elimination, a maximal minor, locates every candidate weight; every
kernel at a fixed w is read off the Taylor expansion of S there.  Since
G is y-free, the y^a columns add nothing new: differentiating
L(exp(w*y) m) = exp(w*y) L_w(m) in w gives the cell of row block y^b and
column y^a * m as C(a, b) * S^(a-b)(w), so the kernel at w is the set of
Jordan chains of S(lambda) at w, of length at most the y-degree plus one
(:func:`kernel_at`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from math import comb, factorial
from typing import Optional, Sequence

from .errors import EmptyAnsatzError, ScopeError
from .expr import (
    PARAM,
    T,
    Y,
    ExpPolyExpr,
    _cleared,
    _divided,
    all_jet_monomials,
    combine,
)
from .linalg import (
    ONE,
    ZERO,
    RatMatrix,
    UniPoly,
    _frac,
    normalize_vector,
    nullspace,
    poly_matrix_pivots,
    rank_modulo,
    rational_roots,
    rref,
    squarefree_factors,
)


class EvolutionEquation:
    """Right-hand side of ``u_t = G(u, u_1, ..., u_d)`` with its order d.

    The defects run on ``D_G * G``, with ``D_G`` the lcm of G's coefficient
    denominators, so that their arithmetic is on ``int``s.  The equation
    keeps ``D_G``, the linearization of ``D_G * G`` and its total
    y-derivatives, each computed once; ``rhs`` is G itself.
    """

    __slots__ = ("rhs", "order", "_denominator", "_scaled_frechet", "_scaled_derivatives")

    def __init__(self, rhs: ExpPolyExpr):
        for c in (T, Y, PARAM):
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
        self._scaled_frechet = scaled.frechet()
        self._scaled_derivatives = (scaled,)

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
    return _shifted_defect(eta, eq, ExpPolyExpr.zero())


def _shifted_defect(eta: ExpPolyExpr, eq: EvolutionEquation, shift: ExpPolyExpr) -> ExpPolyExpr:
    """The defect with D_y replaced by D_y + shift in G_*[eta], on int numerators."""
    d, scaled = _cleared(eta)
    op = scaled.frechet()
    linearized = op.contract(eq._scaled_rhs_derivatives(op.order))
    defect = linearized - eq._scaled_frechet.apply_shifted(scaled, shift)
    return _divided(defect, d * eq._denominator)


def is_symmetry(eta: ExpPolyExpr, eq: EvolutionEquation) -> bool:
    return symmetry_defect(eta, eq).is_zero()


def lie_bracket(eta1: ExpPolyExpr, eta2: ExpPolyExpr) -> ExpPolyExpr:
    """Bracket of characteristics (convention: linearize the second on the first)."""
    return eta2.frechet().apply(eta1) - eta1.frechet().apply(eta2)


# Generators C(q_max + 1 + jet_degree, jet_degree) * (y_degree + 1) above
# which build_ansatz refuses the caps.  Only the y-free ones are assembled
# and each y power adds one elimination of that system.  At 1,716
# generators (order 9, jet degree 3, y-degree 5) the KdV solve takes 0.6 to
# 0.7 s end to end with --lambda none and 2.3 to 2.6 s with the weight scan,
# and the heat, potential Burgers and KdV criterion runs take 0.6 to 2.9 s.
# The KdV runs spend most of it in the scan's growing integer minors,
# potential Burgers in the Jordan chain levels (2-core Xeon VM).
MAX_ANSATZ_GENERATORS = 2000


@dataclass(frozen=True)
class AnsatzSpace:
    """Finite space of candidate characteristics exp(w*y) * g.

    ``generators`` are the weight-free monomials g = y^a * (jet monomial)
    and ``weights`` the sorted exponential weights w; the space is spanned
    by every product, weights outermost.
    """

    generators: tuple
    q_max: int
    y_degree: int
    jet_degree: int
    weights: tuple

    def with_y_degree(self, y_degree: int) -> "AnsatzSpace":
        """The ansatz of the same jet monomials and weights, up to y^y_degree."""
        monomials = self.generators[:: self.y_degree + 1]
        return replace(self, generators=_y_multiples(monomials, y_degree), y_degree=y_degree)

    def describe(self) -> dict:
        return {
            "q_max": self.q_max,
            "y_degree": self.y_degree,
            "jet_degree": self.jet_degree,
            "weights": [str(w) for w in self.weights],
            "size": len(self.generators) * len(self.weights),
        }


def build_ansatz(
    q_max: int, y_degree: int, jet_degree: int, weights: Sequence = (0,)
) -> AnsatzSpace:
    """Enumerate generators y^a m(u, ..., u_{q_max}) within the caps.

    Enumeration order: jet monomials by total degree (lower jets first),
    then the y power; this order, inside ascending weights, is part of the
    deterministic output contract.  Caps with more than
    ``MAX_ANSATZ_GENERATORS`` generators raise ``ScopeError`` before any
    is built.
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
    gens = _y_multiples(all_jet_monomials(q_max, jet_degree), y_degree)
    return AnsatzSpace(gens, q_max, y_degree, jet_degree, weight_list)


def _y_multiples(monomials: Sequence, y_degree: int) -> tuple:
    """y^a * m for each jet monomial m and a = 0..y_degree, the y power innermost."""
    if not y_degree:
        return tuple(monomials)
    powers = [ExpPolyExpr.monomial(ONE, {Y: a}) for a in range(y_degree + 1)]
    return tuple(m * p for m in monomials for p in powers)


@dataclass(frozen=True)
class DeterminingSystem:
    """Linear constraints on the coefficients of exp(w*y) * g over generators g.

    One row per jet/y monomial occurring in any generator defect; the
    entry in column l is that monomial's coefficient in the defect of
    exp(w*y) times generator l, with the common exp factor divided out.
    Entries are ``UniPoly`` polynomials in the weight w; ``taylor``
    expands them at a fixed weight, ``S(w)`` itself being the first term.
    """

    generators: tuple
    row_shapes: tuple
    rows: tuple  # tuples of UniPoly entries
    # every system keeps the weight as an unknown; perfbench/tracer.py reads this
    symbolic = True

    def row_labels(self) -> list:
        """Readable name of the monomial each row annihilates."""
        return [
            ExpPolyExpr.monomial(ONE, dict(powers), dict(expvec)).render()
            for powers, expvec in self.row_shapes
        ]

    @cached_property
    def _cells(self) -> tuple:
        """Per row, the ``(column, entry)`` pairs of its nonzero entries."""
        return tuple(tuple((j, p) for j, p in enumerate(row) if p.coeffs) for row in self.rows)

    def taylor(self, w, count: int) -> list:
        """S_p = S^(p)(w)/p! for p < count, each as ``{column: [(row, entry), ...]}``.

        Only the nonzero cells are expanded, and only nonzero entries kept.
        """
        out = [{} for _ in range(count)]
        for i, cells in enumerate(self._cells):
            for j, p in cells:
                for s_p, x in zip(out, p.taylor(w, count)):
                    if x:
                        s_p.setdefault(j, []).append((i, x))
        return out


def _weighted_defect(gen: ExpPolyExpr, eq: EvolutionEquation) -> ExpPolyExpr:
    """Defect of exp(w*y)*gen with the common exp factor removed.

    For y-independent G the identity
    D_y^j (exp(w y) h) = exp(w y) (D_y + w)^j h
    turns the defect into exp(w y) times a polynomial in w; the parameter
    coordinate carries the powers of w.
    """
    return _shifted_defect(gen, eq, _PARAM_SHIFT)


_PARAM_SHIFT = _cleared(ExpPolyExpr.coordinate(PARAM))[1]  # int coefficient, like the kernel's


def determining_system(ansatz: AnsatzSpace, eq: EvolutionEquation) -> DeterminingSystem:
    """Assemble the constraint matrix of the ansatz's generators, weight unknown.

    Any generators will do; a run assembles only its y-free ones, and
    :func:`kernel_at` reads the kernel of every y-degree off that system.
    """
    defects = [_weighted_defect(g, eq) for g in ansatz.generators]
    # strip the parameter power (PARAM has the largest code, so it is the
    # last power) out of each shape key; within one defect every
    # (key, power) pair occurs once
    cells = {}
    for col, d in enumerate(defects):
        for key, coeff in d.terms:
            jd, powers, expvec = key
            if powers and powers[-1][0] == PARAM:
                deg, key = powers[-1][1], (jd, powers[:-1], expvec)
            else:
                deg = 0
            cells.setdefault((key, col), {})[deg] = coeff
    keys = sorted({key for key, _ in cells})
    index = {key: i for i, key in enumerate(keys)}
    zero = UniPoly.zero()  # immutable, so every empty cell shares it
    rows = [[zero] * len(defects) for _ in keys]
    for (key, col), cell in cells.items():
        rows[index[key]][col] = UniPoly._from_fractions(
            [cell.get(k, ZERO) for k in range(max(cell) + 1)]
        )
    shapes = tuple(key[1:] for key in keys)
    return DeterminingSystem(ansatz.generators, shapes, tuple(map(tuple, rows)))


def kernel_at(system: DeterminingSystem, w, y_degree: int) -> list:
    """Kernel at the weight w of the generators y^a * m, a <= y_degree.

    ``system`` is the y-free system ``S`` over the jet monomials m.  The
    result is ``nullspace`` of the system those generators would assemble
    at w, over the columns ``m*(y_degree+1) + a`` of :func:`build_ansatz`'s
    order.  Row block y^b of that system has ``C(a, b) * S^(a-b)(w)`` in
    column y^a * m, so with ``S_p = S^(p)(w)/p!`` and ``x_a`` the y^a block
    times ``a!``, a kernel vector is a Jordan chain of ``S(lambda)`` at w:
    ``sum_p S_p x_(b+p) = 0`` for every b.  Dropping ``x_0`` from a chain
    leaves a chain one shorter, so the chains of level j are one
    ``nullspace`` of ``[S_0 | r_j]``, where ``r_j`` pushes each chain of
    level j-1 through ``S_1 .. S_j``.  Level 0 is ``nullspace(S_0)``, the
    whole answer at y-degree 0.  Above it one ``rref`` of the chain
    vectors, with the columns reversed, gives ``nullspace``'s basis: the
    vector of each free column has its last nonzero entry there and 0 at
    every other free column.
    """
    n, step = len(system.generators), y_degree + 1
    taylor = system.taylor(_frac(w), step)
    s0 = [{} for _ in system.rows]
    for m, cells in taylor[0].items():
        for i, x in cells:
            s0[i][m] = x
    kernel = nullspace(RatMatrix._from_sparse([r for r in s0 if r], n))
    if not y_degree:
        return kernel
    # a chain is one sparse vector over the columns m*step + a, holding x_a
    chains = [{m * step: x for m, x in enumerate(v) if x} for v in kernel]
    for j in range(1, step):
        if not chains:
            return []  # no eigenvector, so no chain of any length
        rows = [dict(r) for r in s0]
        for k, chain in enumerate(chains, n):
            pushed = {}
            for col, c in chain.items():
                m, a = divmod(col, step)
                for i, e in taylor[a + 1].get(m, ()):
                    pushed[i] = pushed.get(i, ZERO) + e * c
            for i, c in pushed.items():
                if c:
                    rows[i][k] = c
        grown = []
        for v in nullspace(RatMatrix._from_sparse(rows, n + len(chains))):
            chain = {m * step: x for m, x in enumerate(v[:n]) if x}
            for alpha, old in zip(v[n:], chains):
                if alpha:
                    for col, x in old.items():
                        chain[col + 1] = chain.get(col + 1, ZERO) + alpha * x
            grown.append({col: x for col, x in chain.items() if x})
        chains = grown
    top = n * step - 1
    flipped = [{top - col: x / factorial(col % step) for col, x in c.items()} for c in chains]
    red, pivots = rref(RatMatrix._from_sparse(flipped, top + 1))
    return [
        normalize_vector([row.get(top - c, ZERO) for c in range(top + 1)])
        for row in reversed(red._rows[: len(pivots)])
    ]


@dataclass(frozen=True)
class SymmetryBasis:
    """Solved symmetry space: basis elements and the dimension series."""

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
    system: Optional[DeterminingSystem] = None,
) -> SymmetryBasis:
    """Exact basis of symmetry characteristics inside the ansatz space.

    No monomial is shared between weights, so the kernel is the
    concatenation, in weight order, of exp(w*y) times ``kernel_at(system,
    w, y_degree)``.  ``dims`` is read off those kernels: with ``k`` kernel
    vectors at a weight, the order-<=q part has dimension ``k - rank`` of
    the kernel's coordinates on the generators of order above q, one
    ``rref`` of the ``k x n`` transposed kernel per weight.  ``system`` is
    the y-free system of the ansatz's jet monomials,
    ``determining_system(ansatz.with_y_degree(0), eq)``, when the caller
    has already assembled it; it is assembled here only when none is given.
    """
    if system is None:
        system = determining_system(ansatz.with_y_degree(0), eq)
    gens = ansatz.generators
    n = len(gens)
    # a kernel vector lies in the order-<=q subspace when its coordinates on
    # the higher-order generators vanish; with K^T's columns taken by
    # descending order those generators are a leading block of n - count_q
    # columns, whose rank is the number of pivots inside it
    gen_orders = [g.order() for g in gens]
    by_order = sorted(range(n), key=gen_orders.__getitem__, reverse=True)  # stable
    counts = [sum(1 for o in gen_orders if o <= q) for q in range(ansatz.q_max + 1)]
    elements, dims = [], [0] * len(counts)
    for w in ansatz.weights:
        kernel = kernel_at(system, w, ansatz.y_degree)
        if not kernel:
            continue  # full column rank: no order-<=q block has a kernel either
        exp_w = ExpPolyExpr.exponential(Y, w)
        elements.extend(exp_w * combine(vec, gens) for vec in kernel)
        kernel_t = [{c: v[j] for c, j in enumerate(by_order) if v[j]} for v in kernel]
        _, pivots = rref(RatMatrix._from_sparse(kernel_t, n))
        for q, count in enumerate(counts):
            dims[q] += len(kernel) - sum(1 for p in pivots if p < n - count)
    return SymmetryBasis(eq, ansatz, tuple(elements), tuple(dims), system)


@dataclass(frozen=True)
class LambdaScan:
    """Result of the symbolic exponential-weight search."""

    candidates: tuple  # rational weights with a nonzero solution space
    residual_factors: tuple  # verified rational-root-free factors (UniPoly)
    generic_nullity: int  # kernel dimension at generic weight
    pivots: tuple
    kernels: tuple  # kernel basis at each candidate, over the y-free generators

    def describe(self) -> dict:
        return {
            "candidates": [str(c) for c in self.candidates],
            "residual_factors": [str(f) for f in self.residual_factors],
            "generic_nullity": self.generic_nullity,
        }


def lambda_candidates(
    ansatz: AnsatzSpace,
    eq: EvolutionEquation,
    system: Optional[DeterminingSystem] = None,
) -> LambdaScan:
    """Rational exponential weights at which the determining system gains solutions.

    ``S(w)`` has full column rank at generic w (see the module docstring),
    so the last pivot of a fraction-free elimination, a maximal minor,
    vanishes wherever the rank drops.  Each of its squarefree factors is
    root-searched once, and every rational root is verified by the kernel
    ``kernel_at(system, w, 0)``, which is kept on the scan.  The
    rational-root-free parts of those factors are verified against the
    matrix rank in the corresponding quotient ring and reported, never
    silently dropped.  The scan runs on the y-free system of the ansatz's
    jet monomials: a weight with a chain has an eigenvector, so the y
    powers add no weight.  ``system`` is that system when the caller has
    already assembled it.  The weights the ansatz declares play no part.
    """
    if system is None:
        system = determining_system(ansatz.with_y_degree(0), eq)
    ncols = len(system.generators)
    pivots = poly_matrix_pivots(system.rows)
    root_cands, residual_cands = set(), set()
    for f in squarefree_factors(pivots[-1]):
        roots, residual = rational_roots(f)
        root_cands.update(r for r, _ in roots)
        if residual.degree >= 1:
            residual_cands.add(residual)
    candidates, kernels = [], []
    for w in sorted(root_cands):
        kernel = kernel_at(system, w, 0)
        if kernel:
            candidates.append(w)
            kernels.append(tuple(kernel))
    verified_residuals = {
        factor
        for f in residual_cands
        for factor, rank_mod in rank_modulo(system.rows, f)
        if rank_mod < ncols
    }
    return LambdaScan(
        candidates=tuple(candidates),
        residual_factors=tuple(sorted(verified_residuals, key=UniPoly.sort_key)),
        generic_nullity=ncols - len(pivots),
        pivots=tuple(pivots),
        kernels=tuple(kernels),
    )


@dataclass(frozen=True)
class BoundCheck:
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
