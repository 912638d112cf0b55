"""Exact enumeration and verification toolkit for nonattacking pawn placements.

Counts binary matrices avoiding short forbidden words (the pawn problem M,
its one-diagonal relaxation U and fully-isolated restriction L) through
several independent routes, brute force, transfer matrices, closed
formulas, black/white shape products and a square-tiling bijection, and
cross-validates them against each other.
"""

from .closedforms import (FIB_PRODUCT_CONSTANT, LinearRecurrence,
                          QuadraticValue, ShapeFormulaM, closed_form_L,
                          closed_form_M, estimate_c, fib_product,
                          fib_product_growth_ratio, fibonacci,
                          fit_linear_recurrence, golden_ratio_gap,
                          k_fibonacci, l3_root_closed_form, shape_formula_M,
                          upper_bound_U, upper_bound_U_k)
from .decomposition import ShapeGraph, count_independent_sets, split_by_color
from .errors import (GuardExceeded, IllegalMatrix, InvalidK, InvalidTiling,
                     MatrixFormatError, NoFitFound, NonConverged,
                     NonIntegerResult, PawncountError)
from .oracle import (L_SET, M_SET, U_SET, BinaryMatrix, BoardDims,
                     ForbiddenPatternSet, count_by_enumeration,
                     enumerate_legal, find_violation, matrix_avoids, uk_set)
from .tiling import (Tiling, count_tilings, enumerate_tilings, render_ascii,
                     theta_forward, theta_inverse, tiling_from_json,
                     tiling_to_json)
from .transfer import (build_transfer, count_sequence, count_via_transfer,
                       dominant_eigenvalue, spectrum_small)
from .verify import CheckResult, VerificationReport, run_verification

__version__ = "0.1.0"
