"""Determining equations for scalar evolution equations and their solution.

Given ``u_t = G(u, u_1, ..., u_d)`` and a finite ansatz space of candidate
characteristics, this module assembles the linear determining system (the
defect of a generic combination must vanish identically in jet and y
monomials) and solves it exactly.  The system is assembled once, with the
exponential weight kept as a polynomial unknown: its pivot polynomials
locate the candidate weights, and the system at any fixed weight is a
substitution into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import EmptyAnsatzError, ScopeError
from .expr import (
    PARAM,
    T,
    Y,
    ExpPolyExpr,
    all_jet_monomials,
    combine,
)
from .linalg import (
    ONE,
    ZERO,
    RatMatrix,
    UniPoly,
    _frac,
    nullspace,
    poly_matrix_pivots,
    rank_modulo,
    rational_roots,
    rref,
    squarefree_factors,
)


class EvolutionEquation:
    """Right-hand side of ``u_t = G(u, u_1, ..., u_d)`` with its order d."""

    __slots__ = ("rhs", "order", "_frechet", "_derivatives")

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
        self._frechet = rhs.frechet()
        self._derivatives = (rhs,)

    def rhs_derivatives(self, n: int) -> tuple:
        """D_y^j G for j = 0..n, each computed once per equation."""
        ders = self._derivatives
        if len(ders) <= n:
            # extend a copy and publish it whole, so concurrent callers
            # never see a partly built tuple
            grown = list(ders)
            while len(grown) <= n:
                grown.append(grown[-1].total_derive_y())
            self._derivatives = ders = tuple(grown)
        return ders[: n + 1]

    def __eq__(self, other):
        return isinstance(other, EvolutionEquation) and self.rhs == other.rhs

    def __repr__(self):
        return f"EvolutionEquation(u_t = {self.rhs.render()})"


def symmetry_defect(eta: ExpPolyExpr, eq: EvolutionEquation) -> ExpPolyExpr:
    """Linearization defect; zero exactly when eta is a symmetry characteristic."""
    return _linearized_on_rhs(eta, eq) - eq._frechet.apply(eta)


def _linearized_on_rhs(eta: ExpPolyExpr, eq: EvolutionEquation) -> ExpPolyExpr:
    """D_G(eta) = eta'[G], contracted with the equation's cached D_y^j G."""
    op = eta.frechet()
    return op.contract(eq.rhs_derivatives(op.order))


def is_symmetry(eta: ExpPolyExpr, eq: EvolutionEquation) -> bool:
    return symmetry_defect(eta, eq).is_zero()


def lie_bracket(eta1: ExpPolyExpr, eta2: ExpPolyExpr) -> ExpPolyExpr:
    """Bracket of characteristics (convention: linearize the second on the first)."""
    return eta2.frechet().apply(eta1) - eta1.frechet().apply(eta2)


@dataclass(frozen=True)
class AnsatzSpace:
    """Finite space of candidate characteristics.

    Generators are monomials exp(w*y) * y^a * (jet monomial); in symbolic
    mode the exponential weight is left as a formal parameter and the
    generators listed here are the weight-free parts.
    """

    generators: tuple
    q_max: int
    y_degree: int
    jet_degree: int
    weights: tuple
    symbolic: bool = False

    def describe(self) -> dict:
        return {
            "q_max": self.q_max,
            "y_degree": self.y_degree,
            "jet_degree": self.jet_degree,
            "weights": "symbolic" if self.symbolic else [str(w) for w in self.weights],
            "size": len(self.generators),
        }


def build_ansatz(
    q_max: int,
    y_degree: int,
    jet_degree: int,
    weights: Sequence = (0,),
    symbolic: bool = False,
) -> AnsatzSpace:
    """Enumerate generators exp(w*y) y^a m(u, ..., u_{q_max}) within the caps.

    Enumeration order: weights ascending, then jet monomials by total
    degree (lower jets first), then the y power; this order is part of the
    deterministic output contract.
    """
    if min(q_max, y_degree, jet_degree) < 0:
        raise EmptyAnsatzError("ansatz caps must be non-negative")
    weight_list = (ZERO,) if symbolic else tuple(sorted(_frac(w) for w in set(weights)))
    if not weight_list:
        raise EmptyAnsatzError("no exponential weights given")
    jets = all_jet_monomials(q_max, jet_degree)
    gens = [
        ExpPolyExpr.exponential(Y, w) * jm * ExpPolyExpr.monomial(ONE, {Y: a})
        for w in weight_list
        for jm in jets
        for a in range(y_degree + 1)
    ]
    if not gens:
        raise EmptyAnsatzError("ansatz caps produce no generators")
    return AnsatzSpace(
        generators=tuple(gens),
        q_max=q_max,
        y_degree=y_degree,
        jet_degree=jet_degree,
        weights=() if symbolic else tuple(weight_list),
        symbolic=symbolic,
    )


@dataclass(frozen=True)
class DeterminingSystem:
    """Linear constraints on ansatz coefficients.

    One row per jet/y monomial occurring in any generator defect; the
    entry in column l is that monomial's coefficient in the defect of
    generator l.  Symbolic entries are polynomials in the exponential
    weight (the common exp factor is divided out first); ``substitute``
    fixes the weight and gives rational entries.
    """

    generators: tuple
    row_shapes: tuple
    rows: tuple
    symbolic: bool

    @property
    def matrix(self) -> RatMatrix:
        if self.symbolic:
            raise ValueError("symbolic system has polynomial entries")
        return RatMatrix(self.rows, cols=len(self.generators))

    def row_labels(self) -> list:
        """Readable name of the monomial each row annihilates."""
        return [
            ExpPolyExpr.monomial(ONE, dict(powers), dict(expvec)).render()
            for powers, expvec in self.row_shapes
        ]

    def poly_rows(self) -> list:
        if not self.symbolic:
            raise ValueError("fixed-weight system has rational entries")
        return [list(r) for r in self.rows]

    def substitute(self, w) -> "DeterminingSystem":
        """Specialize a symbolic system at a fixed exponential weight."""
        w = _frac(w)
        rows = tuple(tuple(p.eval(w) if p.coeffs else ZERO for p in row) for row in self.rows)
        return DeterminingSystem(self.generators, self.row_shapes, rows, False)

    def restrict(self, generators) -> "DeterminingSystem":
        """The columns of the given generators, in that order, without zero rows.

        A generator's defect does not depend on the other generators, so
        this is the system the smaller ansatz would assemble.
        """
        generators = tuple(generators)
        if generators == self.generators:
            return self
        index = {g: j for j, g in enumerate(self.generators)}
        cols = [index[g] for g in generators]
        kept = [(s, tuple(r[j] for j in cols)) for s, r in zip(self.row_shapes, self.rows)]
        kept = [(s, r) for s, r in kept if any(p.coeffs for p in r)]
        shapes = tuple(s for s, _ in kept)
        return DeterminingSystem(generators, shapes, tuple(r for _, r in kept), self.symbolic)


def _symbolic_defect(gen: ExpPolyExpr, eq: EvolutionEquation) -> ExpPolyExpr:
    """Defect of exp(w*y)*gen with the common exp factor removed.

    For y-independent G the identity
    D_y^j (exp(w y) h) = exp(w y) (D_y + w)^j h
    turns the defect into exp(w y) times a polynomial in w; the parameter
    coordinate carries the powers of w.
    """
    shift = ExpPolyExpr.coordinate(PARAM)
    return _linearized_on_rhs(gen, eq) - eq._frechet.apply_shifted(gen, shift)


def determining_system(ansatz: AnsatzSpace, eq: EvolutionEquation) -> DeterminingSystem:
    """Assemble the symbolic constraint matrix of a symbolic ansatz.

    This is the only assembly: the system of the same caps at a fixed
    weight w is ``substitute(w)`` of it, and a smaller ansatz's system is a
    ``restrict`` of it.
    """
    if not ansatz.symbolic:
        raise ValueError("determining_system needs a symbolic ansatz; see substitute")
    defects = [_symbolic_defect(g, eq) for g in ansatz.generators]
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
        rows[index[key]][col] = UniPoly([cell.get(k, ZERO) for k in range(max(cell) + 1)])
    shapes = tuple(key[1:] for key in keys)
    return DeterminingSystem(ansatz.generators, shapes, tuple(map(tuple, rows)), True)


@dataclass(frozen=True)
class SymmetryBasis:
    """Solved symmetry space: basis elements and the dimension series."""

    equation: EvolutionEquation
    ansatz: AnsatzSpace
    elements: tuple
    dims: tuple  # dims[q] = dimension of the order-<=q subspace, q = 0..q_max
    system: DeterminingSystem  # the symbolic system the basis was read off

    def __len__(self):
        return len(self.elements)


def solve_symmetries(
    ansatz: AnsatzSpace,
    eq: EvolutionEquation,
    system: Optional[DeterminingSystem] = None,
) -> SymmetryBasis:
    """Exact basis of symmetry characteristics inside the ansatz space.

    Columns group by weight and no monomial is shared between weights, so
    the kernel is the concatenation, in weight order, of the kernels of
    ``system.substitute(w)``.  ``system`` is the symbolic system of the
    same caps (or of larger ones) when the caller has already assembled
    it; it is assembled here only when none is given.
    """
    if ansatz.symbolic:
        raise ValueError("solve_symmetries requires fixed exponential weights")
    free = build_ansatz(ansatz.q_max, ansatz.y_degree, ansatz.jet_degree, symbolic=True)
    if system is None:
        system = determining_system(free, eq)
    system = system.restrict(free.generators)
    n = len(free.generators)
    # with columns taken by ascending order, the order-<=q generators are a
    # leading block whose rank is the number of pivots inside it
    gen_orders = [g.order() for g in free.generators]
    by_order = sorted(range(n), key=gen_orders.__getitem__)
    counts = [sum(1 for o in gen_orders if o <= q) for q in range(ansatz.q_max + 1)]
    elements, dims = [], [0] * len(counts)
    for i, w in enumerate(ansatz.weights):
        fixed = [row for row in system.substitute(w).rows if any(row)]
        kernel = nullspace(RatMatrix(fixed, cols=n))
        if not kernel:
            continue  # full column rank: no order-<=q block has a kernel either
        gens = ansatz.generators[i * n : (i + 1) * n]
        elements.extend(combine(vec, gens) for vec in kernel)
        _, pivots = rref(RatMatrix([[row[j] for j in by_order] for row in fixed], cols=n))
        for q, count in enumerate(counts):
            dims[q] += count - sum(1 for p in pivots if p < count)
    return SymmetryBasis(eq, ansatz, tuple(elements), tuple(dims), system)


@dataclass(frozen=True)
class LambdaScan:
    """Result of the symbolic exponential-weight search."""

    candidates: tuple  # rational weights with a nonzero solution space
    residual_factors: tuple  # verified rational-root-free factors (UniPoly)
    generic_nullity: int  # kernel dimension at generic weight
    pivots: tuple
    kernels: tuple  # kernel basis at each candidate, over the scanned generators

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

    Pivot polynomials of a fraction-free elimination provide a complete
    candidate set; every rational root is then verified by the kernel of
    the substituted system, and that kernel is kept on the scan.
    Rational-root-free pivot factors are verified against the matrix rank
    in the corresponding quotient ring and reported, never silently
    dropped.  ``system`` is a symbolic system containing the ansatz's
    generators when the caller has already assembled one; its columns for
    this ansatz are the ansatz's own system.
    """
    if not ansatz.symbolic:
        raise ValueError("lambda_candidates requires a symbolic ansatz")
    if system is None:
        system = determining_system(ansatz, eq)
    system = system.restrict(ansatz.generators)
    rows = system.poly_rows()
    ncols = len(ansatz.generators)
    pivots = poly_matrix_pivots(rows)
    root_cands = set()
    residual_cands = []
    for p in pivots:
        if p.is_constant():
            continue
        roots, residual = rational_roots(p)
        root_cands.update(r for r, _ in roots)
        if residual.degree >= 1:
            for f in squarefree_factors(residual):
                if f not in residual_cands:
                    residual_cands.append(f)
    candidates, kernels = [], []
    for w in sorted(root_cands):
        kernel = nullspace(system.substitute(w).matrix)
        if kernel:
            candidates.append(w)
            kernels.append(tuple(kernel))
    verified_residuals = []
    for f in residual_cands:
        for factor, rank_mod in rank_modulo(rows, f):
            if rank_mod < ncols and factor not in verified_residuals:
                verified_residuals.append(factor)
    verified_residuals.sort(key=UniPoly.sort_key)
    return LambdaScan(
        candidates=tuple(candidates),
        residual_factors=tuple(verified_residuals),
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
