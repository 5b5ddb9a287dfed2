"""actlab: algebraic curvature tensors and commuting Jacobi operators.

A numpy-backed library for curvature tensors on finite-dimensional inner
product spaces: exact rational and floating-point arithmetic, Jacobi
operators, a decision procedure for commutation on orthogonal pairs, and
the constructive classification of commutation-closed tensors.
"""

from .classify import (
    Classification,
    OssermanReport,
    StructureReport,
    classify,
    find_commuting_partner,
    osserman_check,
    recover_complex_structure,
    structure_report,
)
from .errors import (
    ActError,
    BianchiViolation,
    ClassificationInconsistency,
    ConflictingEntry,
    DegenerateInput,
    FormatError,
    IncompatibleTensors,
    InvalidComplexStructure,
    InvalidDimension,
    InvalidOperator,
    InvalidPolynomial,
    InvalidShape,
    NotRankOne,
    PreconditionFailed,
    StructureViolation,
    UnsupportedDimension,
)
from .jacobi import (
    BlockStructureReport,
    block_structure,
    jacobi,
    jacobi_polarized,
    jacobi_rank,
    ricci,
    w_space,
)
from .scalars import (
    FLOAT,
    RATIONAL,
    ScalarMode,
    eig_selfadjoint,
    float_mode,
    max_abs,
    orthocomplement_basis,
    random_rational_unit_vector,
    random_unit_vector,
    rank_with_mode,
)
from .tensors import (
    ComplexStructure,
    CurvatureTensor,
    ValidationReport,
    apply,
    combine,
    conjugate_structure,
    from_form,
    from_metric_components,
    r0,
    r_theta,
    random_act,
    random_signed_permutation,
    rotate,
    standard_complex_structure,
    validate,
)
from .tsankov import (
    BilinearMatrixPoly,
    BiQuadraticMatrixPoly,
    TsankovVerdict,
    Witness,
    commutator,
    commutator_poly,
    divisible_by_pairing,
    full_commutation_test,
    tsankov_test,
)
from .io import load_tensor, save_tensor
from . import cli  # loaded with the package: bench/tracing.py wraps functions in actlab.cli

__version__ = "0.1.0"
