"""jetsym: exact symmetry analysis of scalar evolution equations.

Computes finite-dimensional spaces of generalized-symmetry
characteristics inside declared ansatz spaces, decomposes them under the
shift action of selected variables into exponential-polynomial blocks,
and decides whether symmetries genuinely depending on a selected
variable exist.  All arithmetic is exact over the rationals.
"""

from .engine import (
    AnsatzSpace,
    BoundCheck,
    DeterminingSystem,
    EvolutionEquation,
    LambdaScan,
    SymmetryBasis,
    build_ansatz,
    check_dimension_bounds,
    determining_system,
    is_symmetry,
    lambda_candidates,
    lie_bracket,
    solve_symmetries,
    symmetry_defect,
)
from .errors import (
    ClosureViolationError,
    EmptyAnsatzError,
    InternalInconsistencyError,
    JetsymError,
    MixedTypeError,
    NonSquareError,
    NotEigenvalueError,
    ParseError,
    ScopeError,
    UnresolvedSpectrumError,
    ZeroPolynomialError,
)
from .expr import (
    Coord,
    ExpPolyElement,
    ExpPolyExpr,
    LinearDiffOp,
    Monomial,
    T,
    U,
    Y,
    canonical_exp_poly,
    coord_by_name,
    jet,
)
from .linalg import (
    RatMatrix,
    Rational,
    UniPoly,
    char_poly,
    generalized_eigenspace,
    jordan_chains,
    nullspace,
    poly_matrix_pivots,
    rational_roots,
    rref,
)
from .parser import parse_characteristic, parse_equation, parse_expression
from .report import Report, RunConfig, emit_report, run_pipeline
from .structure import (
    Block,
    BlockDecomposition,
    CriterionVerdict,
    SelectedVariables,
    ShiftAction,
    SpecialFormElement,
    apply_shift,
    decompose_shift_action,
    dependence_criterion,
    dependence_criterion_direct,
    reduce_to_special,
    shift_matrices,
)

__version__ = "0.1.0"
