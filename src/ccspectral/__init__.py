"""Spectra and Cheeger bounds for 2D Carnot-Caratheodory structures.

The package computes low eigenvalues of geometric sub-Laplacians on
rectangular (optionally periodic) charts, estimates Cheeger constants from
above via candidate cuts and from below via divergence certificates, checks
the lambda >= h^2/4 inequality and Courant's nodal bound, reproduces the
Grushin-cylinder mode table (digits from Chebyshev collocation, each root
confirmed by shooting), and evaluates homogeneous-group constants for the
Heisenberg groups.

``import ccspectral`` loads no submodule: each public name, and each
submodule (``ccspectral.eigensolver``), is imported on first access, so a
caller pays for scipy only when it uses a layer that needs it.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines: the package's one list of them
# (the submodules keep no __all__ of their own)
_EXPORTS = {
    "carnot": ("CarnotSpec", "HeisenbergPoint", "d_infty", "dilate", "h_identity",
               "h_inv", "h_mul", "h_norm", "hausdorff_constant_heisenberg",
               "heisenberg_spec", "homogeneous_dimension", "unit_ball_volume",
               "unit_ball_volumes"),
    "cheeger": ("CoareaReport", "Cut", "FlowCertificate", "InequalityReport",
                "candidate_cuts_grushin", "coarea_check", "cut_from_level_set",
                "dirichlet_cheeger_upper", "horizontal_perimeter", "mfmc_certify",
                "region_volume", "upper_bound", "verify_inequality"),
    "cli": ("RunConfig", "main"),
    "discretization": ("AssembledForms", "BCSegment", "BoundarySpec", "Grid2D",
                       "assemble", "build_grid"),
    "eigensolver": ("Eigenpairs", "MinMaxReport", "check_minmax", "solve_smallest"),
    "expressions": ("Expression", "ExpressionError", "compile_expression"),
    "geometry": ("CCStructure", "Chart2D", "ConvergenceError", "SampleError",
                 "builtin_euclidean", "builtin_grushin_cylinder", "constant_coefficient",
                 "divergence", "field_components"),
    "grushin": ("ModeEntry", "ModeProblem", "ModeTable", "build_table",
                "complete_below", "cross_validate", "find_eigenvalues", "shoot"),
    "nodal": ("CourantEntry", "CourantReport", "NodalDecomposition", "check_courant",
              "nodal_domains"),
    "pgm": ("field_to_gray", "labels_to_gray", "write_pgm"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it on the package
        return importlib.import_module(f".{name}", __name__)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not cached here, so the package always hands out what the module holds now
    return getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
