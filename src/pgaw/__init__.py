"""Exact operator algebra of the subspace lattice of F_q^(h+k).

Builds the poset of subspaces relative to a fixed k-dimensional reference
subspace, the raising/lowering/diagonal operators living on it, and the
abstract irreducible modules of the algebra they generate, then verifies
every defining identity — including the generalized Askey-Wilson pair for
the adjacency-style operators A, A* — with exact zero residuals.
"""

from .rings import (
    QuadRing,
    QuadScalar,
    RatFunc,
    SymbolicRing,
    RingMismatchError,
    gaussian_binomial,
    ratfunc_reduce,
)
from .geometry import Subspace, GeometryIndex, build_geometry, enumerate_subspaces
from .operators import SparseOperator, OperatorSet, build_geometry_operators
from .modules import (
    ModuleType,
    NMDE,
    AbstractModule,
    build_abstract_module,
    enumerate_types,
    type_to_nmde,
    nmde_to_type,
    conversion_case,
)
from .verify import (
    REGISTRY,
    VerificationReport,
    run_geometry_suite,
    run_module_suite,
    verify_counts,
    verify_y_invariance,
)
from .decompose import compute_multiplicities, bookkeeping_check

__version__ = "0.1.0"

__all__ = [
    "QuadRing",
    "QuadScalar",
    "RatFunc",
    "SymbolicRing",
    "RingMismatchError",
    "gaussian_binomial",
    "ratfunc_reduce",
    "Subspace",
    "GeometryIndex",
    "build_geometry",
    "enumerate_subspaces",
    "SparseOperator",
    "OperatorSet",
    "build_geometry_operators",
    "ModuleType",
    "NMDE",
    "AbstractModule",
    "build_abstract_module",
    "enumerate_types",
    "type_to_nmde",
    "nmde_to_type",
    "conversion_case",
    "REGISTRY",
    "VerificationReport",
    "run_geometry_suite",
    "run_module_suite",
    "verify_counts",
    "verify_y_invariance",
    "compute_multiplicities",
    "bookkeeping_check",
    "__version__",
]
