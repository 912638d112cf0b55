"""Exact enumeration and verification toolkit for nonattacking pawn placements.

Counts binary matrices avoiding short forbidden words (the pawn problem M,
its one-diagonal relaxation U and fully-isolated restriction L) through
several independent routes, brute force, transfer matrices, closed
formulas, black/white shape products and a square-tiling bijection, and
cross-validates them against each other.

The exports below resolve lazily (PEP 562): ``from pawncount import X``
imports only the submodule that defines X, so a closed-form, enumeration
or bijection call never loads numpy.  Only the sweeps, the dense matrix
and its spectrum, and power iteration past 2^12 states need it.  The
value types are named tuples.  None is a dataclass: importing
``dataclasses`` (with the ``inspect`` it pulls in) takes longer than
importing the whole package.
"""

from importlib import import_module

_EXPORTS = {
    "closedforms": (
        "FIB_PRODUCT_CONSTANT", "LinearRecurrence", "closed_form_L",
        "closed_form_M", "colour_class_M", "estimate_c", "fib_product",
        "fib_product_growth_ratio", "fibonacci", "fit_linear_recurrence",
        "golden_ratio_gap", "l3_root_closed_form", "shape_formula_M",
        "upper_bound_U", "upper_bound_U_k"),
    "decomposition": ("ShapeGraph", "count_independent_sets", "split_by_color"),
    "errors": (
        "GuardExceeded", "IllegalMatrix", "InvalidK", "InvalidTiling",
        "MatrixFormatError", "NoFitFound", "NonConverged", "NonIntegerResult",
        "PawncountError"),
    "oracle": (
        "L_SET", "M_SET", "U_SET", "BinaryMatrix", "BoardDims",
        "ForbiddenPatternSet", "count_by_enumeration", "enumerate_legal",
        "find_violation", "uk_set"),
    "tiling": (
        "Tiling", "count_tilings", "render_ascii", "theta_forward",
        "theta_inverse", "tiling_from_json", "tiling_sequence",
        "tiling_to_json"),
    "frontier": ("isolated_sequence",),
    "power": ("dominant_eigenvalue",),
    "transfer": (
        "build_transfer", "count_sequence", "count_via_transfer",
        "spectrum_small"),
    "verify": ("CheckResult", "VerificationReport", "run_verification"),
}

#: Exported name -> the submodule that defines it.
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
