"""Determining equations for scalar evolution equations and their solution.

Given ``u_t = G(u, u_1, ..., u_d)`` and a finite ansatz space of candidate
characteristics, this module assembles the linear determining system (the
defect of a generic combination must vanish identically in jet and y
monomials) and solves it exactly.  A symbolic mode keeps the exponential
weight as a polynomial unknown so candidate weights can be located by
rank analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import EmptyAnsatzError, ScopeError
from .expr import (
    PARAM,
    T,
    Y,
    ExpPolyExpr,
    Monomial,
    all_jet_monomials,
    monomial_coordinates,
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

    __slots__ = ("rhs", "order", "_frechet")

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

    def __eq__(self, other):
        return isinstance(other, EvolutionEquation) and self.rhs == other.rhs

    def __repr__(self):
        return f"EvolutionEquation(u_t = {self.rhs.render()})"


def symmetry_defect(eta: ExpPolyExpr, eq: EvolutionEquation) -> ExpPolyExpr:
    """Linearization defect; zero exactly when eta is a symmetry characteristic."""
    return eta.frechet().apply(eq.rhs) - eq._frechet.apply(eta)


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
    weight_list = (ONE,) if symbolic else tuple(sorted(_frac(w) for w in set(weights)))
    if not weight_list:
        raise EmptyAnsatzError("no exponential weights given")
    jets = all_jet_monomials(q_max, jet_degree)
    gens = []
    for w in weight_list:
        exp_part = (
            ExpPolyExpr.one()
            if symbolic or w == 0
            else ExpPolyExpr.exponential(Y, w)
        )
        for jm in jets:
            for a in range(y_degree + 1):
                y_part = (
                    ExpPolyExpr.one()
                    if a == 0
                    else ExpPolyExpr.monomial(ONE, {Y: a}, {})
                )
                gens.append(exp_part * jm * y_part)
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
    generator l.  In symbolic mode entries are polynomials in the
    exponential weight (the common exp factor is divided out first).
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
        labels = []
        for powers, expvec in self.row_shapes:
            mono = ExpPolyExpr.monomial(ONE, dict(powers), dict(expvec))
            labels.append(mono.render())
        return labels

    def poly_rows(self) -> list:
        if not self.symbolic:
            raise ValueError("fixed-weight system has rational entries")
        return [list(r) for r in self.rows]

    def substitute(self, w) -> "DeterminingSystem":
        """Specialize a symbolic system at a fixed exponential weight."""
        w = _frac(w)
        rows = tuple(tuple(p.eval(w) for p in row) for row in self.rows)
        return DeterminingSystem(self.generators, self.row_shapes, rows, False)


def _symbolic_defect(gen: ExpPolyExpr, eq: EvolutionEquation) -> ExpPolyExpr:
    """Defect of exp(w*y)*gen with the common exp factor removed.

    For y-independent G the identity
    D_y^j (exp(w y) h) = exp(w y) (D_y + w)^j h
    turns the defect into exp(w y) times a polynomial in w; the parameter
    coordinate carries the powers of w.
    """
    shift = ExpPolyExpr.coordinate(PARAM)
    return gen.frechet().apply(eq.rhs) - eq._frechet.apply_shifted(gen, shift)


def determining_system(ansatz: AnsatzSpace, eq: EvolutionEquation) -> DeterminingSystem:
    """Assemble the constraint matrix for the given ansatz and equation."""
    defects = [
        _symbolic_defect(g, eq) if ansatz.symbolic else symmetry_defect(g, eq)
        for g in ansatz.generators
    ]
    if not ansatz.symbolic:
        shapes, columns = monomial_coordinates(defects)
        return DeterminingSystem(ansatz.generators, shapes, tuple(zip(*columns)), False)
    # symbolic: strip parameter powers out of each monomial shape
    shape_keys = {}
    entries = []
    for col, d in enumerate(defects):
        for m in d.terms:
            deg = m.power(PARAM)
            powers = {c: p for c, p in m.powers if c != PARAM}
            base = (
                tuple(sorted(((c, p) for c, p in powers.items()), key=lambda cp: cp[0].key())),
                m.expvec,
            )
            probe = Monomial(ONE, powers, dict(m.expvec))
            shape_keys.setdefault(base, probe.sort_key())
            entries.append((base, col, deg, m.coeff))
    shapes = tuple(sorted(shape_keys, key=shape_keys.get))
    index = {s: i for i, s in enumerate(shapes)}
    ncols = len(defects)
    accum = [[dict() for _ in range(ncols)] for _ in shapes]
    for base, col, deg, coeff in entries:
        cell = accum[index[base]][col]
        cell[deg] = cell.get(deg, ZERO) + coeff
    rows = []
    for r in accum:
        row = []
        for cell in r:
            if cell:
                top = max(cell)
                row.append(UniPoly([cell.get(k, ZERO) for k in range(top + 1)]))
            else:
                row.append(UniPoly.zero())
        rows.append(tuple(row))
    return DeterminingSystem(ansatz.generators, shapes, tuple(rows), True)


@dataclass(frozen=True)
class SymmetryBasis:
    """Solved symmetry space: basis elements and the dimension series."""

    equation: EvolutionEquation
    ansatz: AnsatzSpace
    elements: tuple
    dims: tuple  # dims[q] = dimension of the order-<=q subspace, q = 0..q_max

    def __len__(self):
        return len(self.elements)


def solve_symmetries(ansatz: AnsatzSpace, eq: EvolutionEquation) -> SymmetryBasis:
    """Exact basis of symmetry characteristics inside the ansatz space."""
    if ansatz.symbolic:
        raise ValueError("solve_symmetries requires fixed exponential weights")
    system = determining_system(ansatz, eq)
    kernel = nullspace(system.matrix)
    elements = [
        ExpPolyExpr(t for c, g in zip(vec, ansatz.generators) if c for t in g.scale(c).terms)
        for vec in kernel
    ]
    # with columns taken by ascending order, the order-<=q generators are a
    # leading block whose rank is the number of pivots inside it
    gen_orders = [g.order() for g in ansatz.generators]
    by_order = sorted(range(len(gen_orders)), key=gen_orders.__getitem__)
    _, pivots = rref(
        RatMatrix([[row[j] for j in by_order] for row in system.rows], cols=len(by_order))
    )
    dims = []
    for q in range(ansatz.q_max + 1):
        count = sum(1 for o in gen_orders if o <= q)
        dims.append(count - sum(1 for p in pivots if p < count))
    return SymmetryBasis(eq, ansatz, tuple(elements), tuple(dims))


@dataclass(frozen=True)
class LambdaScan:
    """Result of the symbolic exponential-weight search."""

    candidates: tuple  # rational weights with a nonzero solution space
    residual_factors: tuple  # verified rational-root-free factors (UniPoly)
    generic_nullity: int  # kernel dimension at generic weight
    pivots: tuple

    def describe(self) -> dict:
        return {
            "candidates": [str(c) for c in self.candidates],
            "residual_factors": [str(f) for f in self.residual_factors],
            "generic_nullity": self.generic_nullity,
        }


def lambda_candidates(ansatz: AnsatzSpace, eq: EvolutionEquation) -> LambdaScan:
    """Rational exponential weights at which the determining system gains solutions.

    Pivot polynomials of a fraction-free elimination provide a complete
    candidate set; every rational root is then verified by a fixed-weight
    solve.  Rational-root-free pivot factors are verified against the
    matrix rank in the corresponding quotient ring and reported, never
    silently dropped.
    """
    if not ansatz.symbolic:
        raise ValueError("lambda_candidates requires a symbolic ansatz")
    system = determining_system(ansatz, eq)
    rows = system.poly_rows()
    ncols = len(ansatz.generators)
    pivots = poly_matrix_pivots(rows)
    generic_rank = len(pivots)
    generic_nullity = ncols - generic_rank
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
    candidates = []
    for w in sorted(root_cands):
        fixed = system.substitute(w)
        if len(nullspace(fixed.matrix)) > 0:
            candidates.append(w)
    verified_residuals = []
    for f in residual_cands:
        for factor, rank_mod in rank_modulo(rows, f):
            if rank_mod < ncols and factor not in verified_residuals:
                verified_residuals.append(factor)
    verified_residuals.sort(key=UniPoly.sort_key)
    return LambdaScan(
        candidates=tuple(candidates),
        residual_factors=tuple(verified_residuals),
        generic_nullity=generic_nullity,
        pivots=tuple(pivots),
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
