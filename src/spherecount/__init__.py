"""Certified counting of real zero rays of homogeneous polynomial systems.

The engine refines a projected cube grid on the unit sphere, certifies
candidate zeros with an alpha-theory point test, groups certified points
into components, and halts once components are provably separated and all
other grid points are provably zero-free.  Both exact host arithmetic and
an emulated reduced-precision mode are supported.
"""

from .alpha import (
    PointData,
    RefineResult,
    SingularJacobianError,
    TheoryConstants,
    compute_M,
    newton_refine,
    newton_step,
    point_data,
    sigma_min,
    theory_constants,
)
from .engine import (
    CountResult,
    InternalConsistencyError,
    IterationReport,
    ProximityGraph,
    build_graph,
    connected_components,
    count_roots,
    estimate_kappa,
    initial_level,
)
from .polysys import (
    Monomial,
    Polynomial,
    PolynomialSystem,
    SystemFormatError,
    evaluate,
    jacobian,
    parse_system,
    system_to_document,
    weyl_norm,
)
from .rounding import (
    EXACT,
    ExactArithmetic,
    PrecisionContext,
    RoundedArithmetic,
    make_arithmetic,
    required_precision,
    round_value,
)
from .sphere import (
    CubeGridSpec,
    GridTooLargeError,
    exp_map,
    project,
    tangent_basis,
)

__all__ = [
    "CountResult",
    "CubeGridSpec",
    "EXACT",
    "ExactArithmetic",
    "GridTooLargeError",
    "InternalConsistencyError",
    "IterationReport",
    "Monomial",
    "PointData",
    "Polynomial",
    "PolynomialSystem",
    "PrecisionContext",
    "ProximityGraph",
    "RefineResult",
    "RoundedArithmetic",
    "SingularJacobianError",
    "SystemFormatError",
    "TheoryConstants",
    "build_graph",
    "compute_M",
    "connected_components",
    "count_roots",
    "estimate_kappa",
    "evaluate",
    "exp_map",
    "initial_level",
    "jacobian",
    "make_arithmetic",
    "newton_refine",
    "newton_step",
    "parse_system",
    "point_data",
    "project",
    "required_precision",
    "round_value",
    "sigma_min",
    "system_to_document",
    "tangent_basis",
    "theory_constants",
    "weyl_norm",
]

__version__ = "0.1.0"
