"""torictop: exact invariants of moment-angle complexes and quasitoric manifolds.

Everything is computed with exact arithmetic (arbitrary-precision integers,
finite fields, rationals); there is no floating point in this package.

Importing the package loads no submodule: each name below is imported from
its submodule on first use, so a CLI call pays only for what it runs.  A
submodule name (``torictop.homology``, ``torictop.linalg``, ...) is always
the submodule; the function ``homology`` lives at ``torictop.homology.homology``.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "complexes": (
        "FVector", "HVector", "PolytopeDual", "SimplicialComplex", "dehn_sommerville_report",
        "f_vector", "full_subcomplex", "h_vector", "h_vector_of", "join", "polygon_boundary",
        "polygon_polytope", "simplex_boundary", "simplex_polytope", "validate_complex",
    ),
    "errors": ("CapExceededError", "ConsistencyError", "InputError"),
    "fixtures": (),
    "homology": (
        "GradedHomology", "IntegerMatrix", "SNFResult", "chain_homology", "reduced_homology",
        "smith_normal_form",
    ),
    "linalg": (),
    "momentangle": ("WedgeSplitting", "WedgeSummand", "moment_angle_homology", "wedge_splitting"),
    "projection": (
        "CubeCensus", "NontrivialityVerdict", "ProjectionReport", "SummandCertificate",
        "TrivialityCertificate", "cube_census", "p_local_note", "projection_reports",
        "squaring_kernel", "steenrod_hit_search", "suspension_triviality_check",
        "two_simplices_check",
    ),
    "quasitoric": (
        "CharacteristicMatrix", "CohomologyPresentation", "cohomology_ring", "generalized_bott",
        "power_map_scalars", "validate_characteristic",
    ),
    "splitting": (
        "EvenBettiData", "SplitSummand", "eigen_scalar", "is_primitive_root", "primitive_root",
        "split", "sphere_wedge_decomposition", "vanishing_range_check",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(__all__))
