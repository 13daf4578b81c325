"""Exact chain complexes on perfect quadratic-form cones."""

from .cone import Face, PerfectCone, pad, reduce, spanning_subset
from .complexes import (
    ChainComplexQ,
    ComplexTriple,
    build_inflation_complex,
    build_matroid_complexes,
    build_perfect_complex,
    build_registry,
    build_voronoi_complex,
    exact_triple,
    format_complex,
    parse_complex,
)
from .homology import (
    BettiReport,
    LesResult,
    betti,
    les_solve,
    satake_weight0_column,
    top_weight_table,
    verify_complex,
)
from .matroid import (
    SimpleGraph,
    graphic_cone,
    inflate,
    tu_cone,
)
from .quadform import (
    MinimalVectorSet,
    QuadraticForm,
    cone_of_form,
    is_perfect,
    load_form_catalog,
    minimal_vectors,
    principal_form,
    voronoi_neighbor,
)
from .symmetry import (
    Orbit,
    OrbitRegistry,
    equivalent,
    is_alternating,
)

__version__ = "0.1.0"

__all__ = [
    "BettiReport",
    "ChainComplexQ",
    "ComplexTriple",
    "Face",
    "LesResult",
    "MinimalVectorSet",
    "Orbit",
    "OrbitRegistry",
    "PerfectCone",
    "QuadraticForm",
    "SimpleGraph",
    "betti",
    "build_inflation_complex",
    "build_matroid_complexes",
    "build_perfect_complex",
    "build_registry",
    "build_voronoi_complex",
    "cone_of_form",
    "equivalent",
    "exact_triple",
    "format_complex",
    "graphic_cone",
    "inflate",
    "is_alternating",
    "is_perfect",
    "les_solve",
    "load_form_catalog",
    "minimal_vectors",
    "pad",
    "parse_complex",
    "principal_form",
    "reduce",
    "satake_weight0_column",
    "spanning_subset",
    "top_weight_table",
    "tu_cone",
    "verify_complex",
    "voronoi_neighbor",
]
