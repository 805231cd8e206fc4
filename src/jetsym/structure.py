"""Shift-action structure of finite symmetry spaces and the dependence criterion.

A finite-dimensional space of characteristics that is closed under the
partial derivatives with respect to selected 0-jet coordinates carries
one commuting matrix per coordinate.  Their joint spectrum needs no
characteristic polynomial: it is the set of exponential weight tuples on
the selected coordinates that occur in the monomials, and each joint
generalized eigenspace is the part of the span inside one weight class.
Splitting every weight class into chains rewrites the basis in
exponential-polynomial form: each element is exp(sum w_s z_s) times a
polynomial in the selected coordinates whose coefficients do not involve
them.  Repeatedly applying the lowering operators d/dz_s - w_s then
produces elements whose polynomial degree in every selected coordinate is
at most 1 (at most 0 where the weight is nonzero); existence of such an
element that still involves a chosen coordinate decides whether the space
contains anything depending on that coordinate at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

from .engine import (
    EvolutionEquation,
    LambdaScan,
    SymmetryBasis,
    build_ansatz,
    characteristic,
    determining_system,
    is_symmetry,
    kernel_at,
    lambda_candidates,
)
from .errors import ClosureViolationError, InternalInconsistencyError
from .expr import (
    Coord,
    ExpPolyElement,
    ExpPolyExpr,
    Y,
    canonical_exp_poly,
    combine,
    monomial_coordinates,
)
from .linalg import (
    ONE,
    ZERO,
    RatMatrix,
    _frac,
    in_span,
    jordan_chains,
    nullspace,
    rref,  # unused here; perfbench/test_perfbench.py asserts this module binds it
    solve_columns,
)


@dataclass(frozen=True)
class SelectedVariables:
    """Ordered distinct 0-jet coordinates whose shifts act on the space."""

    coords: tuple

    def __post_init__(self):
        coords = tuple(self.coords)
        if not coords:
            raise ValueError("at least one selected coordinate required")
        if len(set(coords)) != len(coords):
            raise ValueError("selected coordinates must be distinct")
        for c in coords:
            if not c.is_zero_jet:
                raise ValueError(f"{c.name} is not a 0-jet coordinate")
        object.__setattr__(self, "coords", coords)

    def __len__(self):
        return len(self.coords)


@dataclass(frozen=True)
class ShiftAction:
    """Matrices of the selected partial derivatives on a basis of expressions."""

    elements: tuple
    selected: SelectedVariables
    matrices: tuple


def _element_list(basis) -> tuple:
    if isinstance(basis, SymmetryBasis):
        return basis.elements
    return tuple(basis)


def shift_matrices(basis, selected) -> ShiftAction:
    """Express each selected partial derivative of the basis in the basis.

    Column j of the matrix for coordinate z holds the coordinates of the
    derivative of element j.  If some derivative leaves the span the
    closure hypothesis fails for this space and a
    :class:`ClosureViolationError` names the offending element.
    """
    if not isinstance(selected, SelectedVariables):
        selected = SelectedVariables(tuple(selected))
    elements = _element_list(basis)
    if not elements:
        raise ValueError("empty basis has no shift action")
    derived = [
        [e.partial_derive(c) for e in elements] for c in selected.coords
    ]
    everything = list(elements) + [d for row in derived for d in row]
    _, vectors = monomial_coordinates(everything)
    n = len(elements)
    # one elimination of the basis carries every derivative
    cols = solve_columns(RatMatrix.from_columns(vectors[:n]), vectors[n:])
    if len(cols) < len(vectors) - n:
        s, j = divmod(len(cols), n)
        c = selected.coords[s]
        raise ClosureViolationError(
            f"derivative of basis element {j} with respect to {c.name} leaves the basis span",
            element=elements[j],
            coord=c,
        )
    matrices = [RatMatrix.from_columns(cols[s : s + n]) for s in range(0, len(cols), n)]
    for a in range(len(matrices)):
        for b in range(a + 1, len(matrices)):
            if matrices[a] @ matrices[b] != matrices[b] @ matrices[a]:
                raise InternalInconsistencyError(
                    "shift matrices fail to commute; partial derivatives always "
                    "commute, so the coordinatization is broken"
                )
    return ShiftAction(elements=elements, selected=selected, matrices=tuple(matrices))


@dataclass(frozen=True)
class Block:
    """One chain block: joint eigenvalue tuple plus its basis elements."""

    eigenvalues: tuple
    size: int
    degrees: tuple  # per selected coordinate: 1 + max polynomial degree in the block
    vectors: tuple  # coordinates in the original basis, eigen-end first
    elements: tuple  # ExpPolyElement, parallel to vectors


@dataclass(frozen=True)
class BlockDecomposition:
    """New basis grouped into blocks, with both change-of-basis matrices."""

    selected: SelectedVariables
    blocks: tuple
    source_elements: tuple
    to_block_coords: RatMatrix  # old coordinates -> block-basis coordinates
    from_block_coords: RatMatrix  # block-basis coordinates -> old coordinates

    @property
    def block_count(self) -> int:
        return len(self.blocks)


def _restricted_matrix(matrix: RatMatrix, basis_cols: Sequence) -> RatMatrix:
    """Matrix of the action on an invariant subspace, in the given basis."""
    images = [matrix.apply(v) for v in basis_cols]
    cols = solve_columns(RatMatrix.from_columns(basis_cols), images)
    if len(cols) < len(basis_cols):
        raise InternalInconsistencyError("subspace is not invariant")
    return RatMatrix.from_columns(cols)


def decompose_shift_action(action: ShiftAction) -> BlockDecomposition:
    """Split the space into chain blocks of the commuting shift matrices.

    Every element is a sum of monomials exp(sum w_s z_s) * (polynomial),
    and each d/dz_s preserves the weight tuple of a monomial, acting on
    that weight class as w_s plus a nilpotent part.  So the spectrum is
    the set of weight tuples occurring on the selected coordinates, and the
    joint generalized eigenspace for a tuple is the part of the span free
    of monomials of every other tuple: one kernel per weight class, in
    ascending tuple order.  Each class then splits into chains of the first
    coordinate's nilpotent part.  Every resulting basis element is a single
    exponential times a polynomial in the selected coordinates.
    """
    elements = action.elements
    n = len(elements)
    selected = action.selected
    if n == 0:
        raise ValueError("empty action")
    identity = [tuple(ONE if i == j else ZERO for i in range(n)) for j in range(n)]
    weight_of = {
        m.shape: tuple(m.weight(c) for c in selected.coords)
        for e in elements
        for m in e.terms
    }
    shapes, vectors = monomial_coordinates(elements)
    by_shape = RatMatrix.from_columns(vectors)  # one row per monomial shape
    blocks = []
    for eigs in sorted(set(weight_of.values())):
        others = [by_shape.row(k) for k, sh in enumerate(shapes) if weight_of[sh] != eigs]
        cols = nullspace(RatMatrix(others, cols=n))
        restricted = _restricted_matrix(action.matrices[0], cols)
        sub = RatMatrix.from_columns(cols)
        chains = jordan_chains(restricted, eigs[0])
        for chain in chains:
            # chains arrive top first; store eigen-end first so degrees ascend
            vecs = [sub.apply(v) for v in reversed(chain)]
            els = tuple(canonical_exp_poly(combine(v, elements), selected.coords) for v in vecs)
            degs = tuple(
                max(el.degrees[s] for el in els) for s in range(len(selected.coords))
            )
            blocks.append(
                Block(
                    eigenvalues=eigs,
                    size=len(vecs),
                    degrees=degs,
                    vectors=tuple(tuple(v) for v in vecs),
                    elements=els,
                )
            )
    blocks.sort(key=lambda b: (b.eigenvalues, -b.size))  # stable within ties
    all_vecs = [v for b in blocks for v in b.vectors]
    from_block = RatMatrix.from_columns(all_vecs)
    inverse_cols = solve_columns(from_block, identity)
    if len(inverse_cols) != n:
        raise InternalInconsistencyError("block basis does not span the space")
    return BlockDecomposition(
        selected=selected,
        blocks=tuple(blocks),
        source_elements=elements,
        to_block_coords=RatMatrix.from_columns(inverse_cols),
        from_block_coords=from_block,
    )


def apply_shift(e: ExpPolyExpr, coord: Coord, lam, times: int) -> ExpPolyExpr:
    """Apply (d/d coord - lam) the given number of times."""
    if times < 0:
        raise ValueError("shift count must be non-negative")
    lam = _frac(lam)
    out = e
    for _ in range(times):
        out = out.partial_derive(coord) - out.scale(lam)
    return out


class SpecialFormElement(ExpPolyElement):
    """Exponential-polynomial element with degree at most epsilon_s everywhere.

    epsilon_s is 0 for coordinates with nonzero exponential weight and 1
    for weight zero, so the polynomial part is at most linear and only in
    weight-free coordinates.
    """

    __slots__ = ("epsilons",)

    def __init__(self, element: ExpPolyElement):
        super().__init__(element.selected, element.lambdas, element.table)
        self.epsilons = tuple(0 if w != 0 else 1 for w in self.lambdas)
        for j, _ in self.table:
            for js, eps in zip(j, self.epsilons):
                if js > eps:
                    raise ValueError("degrees exceed the special-form caps")

    expression = ExpPolyElement.reconstruct

    def is_witness_for(self, target: Coord) -> bool:
        """Nonzero weight on the target, or a nonzero linear coefficient."""
        s = self.selected.index(target)
        if self.lambdas[s] != 0:
            return True
        return any(j[s] == 1 for j, _ in self.table)


def reduce_to_special(elem: ExpPolyElement, target: Coord) -> SpecialFormElement:
    """Lower an exponential-polynomial element to the special form.

    The scan fixes the maximal target degree first, then greedily the
    maximal degrees of the remaining coordinates among the surviving
    terms; lowering by that many applications of each (d/dz_s - w_s)
    keeps the distinguished corner term alive.  (Exponents are clamped at
    zero for coordinates the element does not reach.)  If the greedy
    exponents fail the degree caps, a bounded exhaustive search over all
    exponent tuples finds a valid one; if the input depends on the target
    the output is additionally required to witness that dependence, and
    total failure raises :class:`InternalInconsistencyError` because the
    decomposition guarantees a witness exists.
    """
    selected = elem.selected
    g = len(selected)
    idx = selected.index(target)
    order = [idx] + [s for s in range(g) if s != idx]
    eps = tuple(0 if w != 0 else 1 for w in elem.lambdas)
    support = [j for j, _ in elem.table]
    r = [0] * g
    pool = support
    for s in order:
        r[s] = max(j[s] for j in pool)
        pool = [j for j in pool if j[s] == r[s]]
    exponents = tuple(max(r[s] - eps[s], 0) for s in range(g))
    expr = elem.reconstruct()
    dependent = expr.depends_on(target)

    def attempt(exps):
        out = expr
        for s in range(g):
            out = apply_shift(out, selected[s], elem.lambdas[s], exps[s])
        if out.is_zero():
            return None
        candidate = canonical_exp_poly(out, selected)
        try:
            special = SpecialFormElement(candidate)
        except ValueError:
            return None
        if dependent and not special.is_witness_for(target):
            return None
        return special

    result = attempt(exponents)
    if result is not None:
        return result
    for exps in product(*(range(k) for k in elem.degrees)):
        result = attempt(exps)
        if result is not None:
            return result
    raise InternalInconsistencyError(
        "no exponent tuple yields a valid special form; the block structure "
        "guarantees one, so this input cannot come from a decomposed basis"
    )


@dataclass(frozen=True)
class CriterionVerdict:
    """Answer to: does the space contain elements depending on the target?"""

    target: Coord
    exists: bool
    method: str
    witness: Optional[SpecialFormElement] = None
    witness_expression: Optional[ExpPolyExpr] = None
    certificate: Optional[dict] = None
    lambda_scan: Optional[LambdaScan] = None


def dependence_criterion(
    basis,
    selected,
    target: Coord,
    decomposition: Optional[BlockDecomposition] = None,
) -> CriterionVerdict:
    """Decide target-dependence from the block decomposition.

    Existence holds exactly when some decomposed element depends on the
    target coordinate; the first such element (in canonical block order)
    is lowered to special form and returned as the witness.  The witness
    is re-verified to stay inside the original span and, when the basis
    carries its equation, to still be a symmetry.
    """
    if not isinstance(selected, SelectedVariables):
        selected = SelectedVariables(tuple(selected))
    if target not in selected.coords:
        raise ValueError("target must be one of the selected coordinates")
    if decomposition is None:
        action = shift_matrices(basis, selected)
        decomposition = decompose_shift_action(action)
    elements = _element_list(basis)
    for block in decomposition.blocks:
        for el in block.elements:
            if not el.reconstruct().depends_on(target):
                continue
            witness = reduce_to_special(el, target)
            wexpr = witness.expression()
            _verify_witness(wexpr, elements, basis)
            return CriterionVerdict(target, True, "decomposition", witness, wexpr)
    certificate = {
        "kind": "ansatz-exhaustive",
        "basis_size": len(elements),
        "statement": (
            f"no element of the computed space depends on {target.name}; "
            "exhaustive within the declared ansatz"
        ),
    }
    if isinstance(basis, SymmetryBasis):
        certificate["ansatz"] = basis.ansatz.describe()
    return CriterionVerdict(target, False, "decomposition", certificate=certificate)


def _verify_witness(wexpr: ExpPolyExpr, elements, basis):
    _, vectors = monomial_coordinates(list(elements) + [wexpr])
    if not in_span(vectors[:-1], vectors[-1]):
        raise InternalInconsistencyError("witness left the basis span")
    if isinstance(basis, SymmetryBasis) and not is_symmetry(wexpr, basis.equation):
        raise InternalInconsistencyError("witness is not a symmetry")


def _preferred_weights(weights) -> list:
    """Nonzero candidates, positive before negative, small magnitude first."""
    return sorted((w for w in weights if w != 0), key=lambda w: (abs(w), w < 0))


def dependence_criterion_direct(
    eq: EvolutionEquation,
    q_max: int,
    jet_degree: int,
    target: Coord = Y,
    scan: Optional[LambdaScan] = None,
    basis: Optional[SymmetryBasis] = None,
) -> CriterionVerdict:
    """Decide y-dependence by searching the two special shapes directly.

    Shape (a): exp(w*y) K with y-free K and w nonzero, read off the kernel
    the weight scan verified at w.  Shape (b): K0 + y*K1 with y-free K's
    and K1 nonzero, from the weight-0, y-degree-<=1 columns.  A y-dependent
    symmetry exists in an ansatz closed under d/dy exactly when one of the
    shapes is realizable in it.

    ``scan`` (of the y-free generators of the caps) and ``basis`` (the
    solved space of a run) hand over what the caller already has.  With a
    basis the search covers its declared ansatz: its nonzero weights, and
    shape (b) only at y-degree >= 1, read off its y-free system at weight
    0.  Without one it covers every rational weight and y-degree 1, and
    assembles the y-free system, weight unknown, here.  Shape (b) is a
    Jordan chain of length 2 of that system at weight 0.  The certificate
    claims the rationals only when no nonzero candidate of the scan was
    left out.
    """
    if target != Y:
        raise ValueError("the direct criterion is implemented for the y coordinate")
    if basis is None:
        ansatz = build_ansatz(q_max, 0, jet_degree)
        system = determining_system(ansatz, eq)
    else:
        ansatz, system = basis.ansatz, basis.system
    if scan is None:
        scan = lambda_candidates(ansatz, eq, system)
    if basis is None:
        weights, y_degree = scan.candidates, 1
    else:
        weights, y_degree = basis.ansatz.weights, basis.ansatz.y_degree
    # The scan's generic nullity is always 0 (see the engine module), so its
    # candidates are every weight with a y-free kernel.
    witness, method = None, "direct-exponential"
    for w in _preferred_weights(weights):
        if w in scan.candidates:
            kernel = kernel_at(system, w, 0)  # in a run, the scan left it on the system
            witness = characteristic(kernel[0], system.generators, 0, w)
            break
    if witness is None and y_degree >= 1:
        elements = (characteristic(v, system.generators, 1) for v in kernel_at(system, ZERO, 1))
        witness = next((e for e in elements if e.depends_on(target)), None)
        method = "direct-linear"
    if witness is not None:
        special = SpecialFormElement(canonical_exp_poly(witness, (target,)))
        return CriterionVerdict(target, True, method, special, witness, lambda_scan=scan)
    within = f"the ansatz (q_max={q_max}, jet_degree={jet_degree}) over the rationals"
    if y_degree < 1 or not set(scan.candidates) <= {ZERO, *weights}:
        within = (
            f"the declared ansatz (q_max={q_max}, jet_degree={jet_degree}, "
            f"y_degree={y_degree}, weights {', '.join(str(w) for w in weights)})"
        )
    certificate = {
        "kind": "ansatz-exhaustive",
        "statement": f"no exponential-shape or linear-shape symmetry exists within {within}",
    }
    return CriterionVerdict(target, False, "direct", certificate=certificate, lambda_scan=scan)
