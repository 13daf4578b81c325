"""Exact chain complexes on perfect quadratic-form cones."""

from .cone import Face, PerfectCone, pad, reduce
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
from .matroid import inflate, is_matroidal
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
from .symmetry import Orbit, OrbitRegistry, equivalent

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
    "inflate",
    "is_matroidal",
    "is_perfect",
    "les_solve",
    "load_form_catalog",
    "minimal_vectors",
    "pad",
    "parse_complex",
    "principal_form",
    "reduce",
    "satake_weight0_column",
    "top_weight_table",
    "verify_complex",
    "voronoi_neighbor",
]
