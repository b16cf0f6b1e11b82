"""Exact-arithmetic toolkit for Auslander-Reiten quivers of bound quiver
algebras: knitting, cut detection, tilted-algebra certification, and
tilted quotient construction."""

from .algebra import AlgebraPresentation, build_basis, parse_presentation
from .cuts import (
    certify_tilted,
    convexity_checks,
    enumerate_cuts,
    hom_tau_test,
    is_cut,
    is_slice_section,
    iter_cuts,
    quotient_by_cut,
    tilting_crosscheck,
)
from .knitting import (
    ARQuiver,
    knit,
    nonzero_path_exists,
    path_classify,
    rad_power_depth,
)
from .modules import (
    Module,
    ModuleMap,
    almost_split_sequence,
    annihilator,
    canonical_modules,
    decompose,
    end_algebra_analysis,
    ext1_dim,
    hom_basis,
    injective_module,
    is_isomorphic,
    min_presentation,
    pdim_le_1,
    projective_cover,
    projective_module,
    simple_module,
    sincere_faithful,
    translate,
)

__all__ = [
    "AlgebraPresentation",
    "ARQuiver",
    "Module",
    "ModuleMap",
    "almost_split_sequence",
    "annihilator",
    "build_basis",
    "canonical_modules",
    "certify_tilted",
    "convexity_checks",
    "decompose",
    "end_algebra_analysis",
    "enumerate_cuts",
    "ext1_dim",
    "hom_basis",
    "hom_tau_test",
    "injective_module",
    "is_cut",
    "is_isomorphic",
    "is_slice_section",
    "iter_cuts",
    "knit",
    "min_presentation",
    "nonzero_path_exists",
    "parse_presentation",
    "path_classify",
    "pdim_le_1",
    "projective_cover",
    "projective_module",
    "quotient_by_cut",
    "rad_power_depth",
    "simple_module",
    "sincere_faithful",
    "tilting_crosscheck",
    "translate",
]

__version__ = "0.1.0"
