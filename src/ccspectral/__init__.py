"""Spectra and Cheeger bounds for 2D Carnot-Caratheodory structures.

The package computes low eigenvalues of geometric sub-Laplacians on
rectangular (optionally periodic) charts, estimates Cheeger constants from
above via candidate cuts and from below via divergence certificates, checks
the lambda >= h^2/4 inequality and Courant's nodal bound, reproduces the
Grushin-cylinder mode table by shooting, and evaluates homogeneous-group
constants for the Heisenberg groups.
"""

from .carnot import (CarnotSpec, HeisenbergPoint, d_infty, dilate,
                     h_identity, h_inv, h_mul, h_norm,
                     hausdorff_constant_heisenberg, heisenberg_spec,
                     homogeneous_dimension, unit_ball_volume)
from .cheeger import (CoareaReport, Cut, FlowCertificate, InequalityReport,
                      candidate_cuts_grushin, coarea_check,
                      cut_from_level_set, dirichlet_cheeger_upper,
                      horizontal_perimeter, mfmc_certify, region_volume,
                      superlevel_cuts, sweep_level_sets, verify_inequality,
                      write_cuts_csv, write_cut_segments_csv)
from .cli import RunConfig, main
from .discretization import (AssembledForms, BCSegment, BoundarySpec, Grid2D,
                             assemble, build_grid, rayleigh_quotient,
                             write_matrix_market)
from .eigensolver import (ConvergenceError, Eigenpairs, MinMaxReport,
                          check_minmax, solve_smallest)
from .expressions import Expression, ExpressionError, compile_expression
from .geometry import (CCStructure, Chart2D, GridFunction, HorizontalField,
                       builtin_euclidean, builtin_grushin_cylinder,
                       chart_gradient, constant_coefficient, divergence,
                       horizontal_gradient, sub_laplacian_apply)
from .grushin import (CrossValidationReport, ModeProblem, ModeTable,
                      build_table, cross_validate, find_eigenvalues,
                      mode_zero_crossings, shoot, write_table_csv)
from .nodal import (CourantReport, NodalDecomposition, check_courant,
                    nodal_domains, write_labels_pgm)
from .pgm import field_to_gray, labels_to_gray, write_pgm

__version__ = "0.1.0"

__all__ = [
    "AssembledForms", "BCSegment", "BoundarySpec", "CCStructure",
    "CarnotSpec", "Chart2D", "CoareaReport", "ConvergenceError",
    "CourantReport", "CrossValidationReport", "Cut", "Eigenpairs",
    "Expression", "ExpressionError", "FlowCertificate", "Grid2D",
    "GridFunction", "HeisenbergPoint", "HorizontalField", "InequalityReport",
    "MinMaxReport", "ModeProblem", "ModeTable", "NodalDecomposition",
    "RunConfig", "assemble", "build_grid",
    "build_table", "builtin_euclidean", "builtin_grushin_cylinder",
    "candidate_cuts_grushin", "chart_gradient", "check_courant",
    "check_minmax", "coarea_check", "compile_expression",
    "constant_coefficient", "cross_validate", "cut_from_level_set",
    "d_infty", "dilate", "dirichlet_cheeger_upper", "divergence",
    "field_to_gray", "find_eigenvalues", "h_identity", "h_inv", "h_mul",
    "h_norm", "hausdorff_constant_heisenberg", "heisenberg_spec",
    "homogeneous_dimension", "horizontal_gradient", "horizontal_perimeter",
    "labels_to_gray", "main", "mfmc_certify", "mode_zero_crossings",
    "nodal_domains", "rayleigh_quotient", "region_volume", "shoot",
    "solve_smallest", "sub_laplacian_apply", "superlevel_cuts",
    "sweep_level_sets", "unit_ball_volume", "verify_inequality", "write_cut_segments_csv",
    "write_cuts_csv", "write_labels_pgm", "write_matrix_market", "write_pgm",
    "write_table_csv",
]
