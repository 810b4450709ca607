"""Exact-arithmetic toolkit for Novikov and left-symmetric structures on
finite-dimensional Lie algebras over the rationals.

The library constructs such structures (half-bracket, classical r-matrices,
extension lifts, cohomological reduction), verifies them (all axioms checked
by exact equality on basis tuples), and refutes their existence with
independently re-checkable elimination certificates.
"""

from .certificate import (
    Certificate,
    DEFAULT_EFFORT,
    EXISTS,
    NOT_EXISTS,
    UNDETERMINED,
    algebra_hash,
    build_system,
    decide_novikov,
    verify_certificate,
)
from .extensions import (
    ExtensionData,
    LiftData,
    assemble,
    iso_lift,
    jordan_lift,
    lift_product,
    novikov_ideal_quotient,
    scheuneman_lift,
    semidirect_lift,
    two_gen_lift,
    two_step_solvable_from,
)
from .fixtures import fixture, product_fixture
from .lie import (
    LieAlgebra,
    StructureTensor,
    quotient,
    validate_lie,
)
from .linalg import (
    Matrix,
    Q,
    Subspace,
    jordan_block,
    nilpotent_regular_basis,
)
from .products import (
    half_bracket_product,
    is_compatible,
    is_complete,
    is_left_symmetric,
    is_novikov,
)
from .reduction import (
    Decomposition,
    ModuleAction,
    fitting_decompose,
    induced_nilpotent_extension,
    prop57_construct,
    reduction_lift,
)
from .rmatrix import (
    RMatrix,
    basis_rmatrix,
    check_cybe,
    check_novbed,
    deformed_bracket,
    induced_product,
)

__version__ = "0.1.0"
