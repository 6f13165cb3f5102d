"""Certified counting of real zero rays of homogeneous polynomial systems.

The engine refines a projected cube grid on the unit sphere, certifies
candidate zeros with an alpha-theory point test, groups certified points
into components, and halts once components are provably separated and all
other grid points are provably zero-free.  Both exact host arithmetic and
an emulated reduced-precision mode are supported.
"""

from .alpha import (
    RefineResult,
    TheoryConstants,
    newton_refine,
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
    evaluate_level,
    initial_level,
)
from .polysys import (
    Monomial,
    Polynomial,
    PolynomialSystem,
    SystemFormatError,
    parse_system,
    system_to_document,
    weyl_norm,
)
from .rounding import (
    EXACT,
    Arithmetic,
    make_arithmetic,
    required_precision,
    round_value,
)
from .sphere import CubeGridSpec, GridTooLargeError

__all__ = [
    "Arithmetic",
    "CountResult",
    "CubeGridSpec",
    "EXACT",
    "GridTooLargeError",
    "InternalConsistencyError",
    "IterationReport",
    "Monomial",
    "Polynomial",
    "PolynomialSystem",
    "ProximityGraph",
    "RefineResult",
    "SystemFormatError",
    "TheoryConstants",
    "build_graph",
    "connected_components",
    "count_roots",
    "estimate_kappa",
    "evaluate_level",
    "initial_level",
    "make_arithmetic",
    "newton_refine",
    "parse_system",
    "required_precision",
    "round_value",
    "system_to_document",
    "theory_constants",
    "weyl_norm",
]

__version__ = "0.1.0"
