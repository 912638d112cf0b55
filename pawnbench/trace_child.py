"""Traced stand-in for ``python -m pawncount``: same argv, same output.

Usage: python -X importtime pawnbench/trace_child.py SPANS_OUT -- ARGV...

It imports the package, wraps the public functions of each layer, runs
``pawncount.cli.main(ARGV)`` and, when main returns or raises, writes the
recorded spans to SPANS_OUT as JSON.  Nothing inside the package changes:
the wrappers are rebound in every ``pawncount.*`` namespace (and in module
level tuples such as ``verify.CHECKS``) that holds the original function
object, because ``cli``, ``verify``, ``closedforms`` and ``decomposition``
bind functions with ``from .x import y``.

A span is ``[name, start, end, parent, attrs]``: ``parent`` is the index of
the enclosing span or -1, and ``attrs`` holds work counts computed from the
call's arguments and return value, so they repeat exactly.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

SPANS: list[list] = []
_STACK: list[int] = []
_FORWARD: set = set()


def digits(value: int) -> int:
    """Decimal digits of a nonnegative int without ``str`` (which would hit
    the int-to-str limit the program itself is subject to)."""
    if value < 10:
        return 1
    d = int(value.bit_length() * 0.30102999566398120) + 1
    return d - 1 if value < 10 ** (d - 1) else d


def _transfer_attrs(a, result, n_key):
    m, n = a["m"], a[n_key]
    built = n >= 1 or n_key == "n_max"
    steps = max(n - 1, 0)
    last = result[-1] if isinstance(result, list) else result
    return {"states": (1 << m) if built else 0, "steps": steps,
            "zeta_adds": m * (1 << (m - 1)) * steps, "digits": digits(last),
            "setup": n <= 2}


def _enumeration_attrs(a, result):
    return {"candidates": 1 << (a["m"] * a["n"]), "legal": result}


def _shape_attrs(a, result):
    return {"cells": a["shape"].vertex_count}


def _forward_attrs(a, result):
    _FORWARD.add(result)
    return None


def _inverse_attrs(a, result):
    return {"roundtrip": a["tiling"] in _FORWARD}


def _span(name, fn, attrs=None):
    signature = inspect.signature(fn) if attrs else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        record = [name, 0.0, 0.0, _STACK[-1] if _STACK else -1, None]
        _STACK.append(len(SPANS))
        SPANS.append(record)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            _STACK.pop()
        if attrs is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            record[4] = attrs(bound.arguments, result)
        return result
    return wrapper


def _stream(fn):
    """Wrap a function that returns an iterator: one record per stream,
    holding the time spent inside ``next`` and the items produced."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        iterator = iter(fn(*args, **kwargs))
        bound = signature.bind(*args, **kwargs)
        record = ["oracle.enumerate", 0.0, 0.0, _STACK[-1] if _STACK else -1,
                  {"candidates": 1 << (bound.arguments["m"]
                                       * bound.arguments["n"]),
                   "legal": 0, "busy": time.perf_counter() - start}]
        SPANS.append(record)

        def generate():
            attrs = record[4]
            while True:
                t0 = time.perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    attrs["busy"] += time.perf_counter() - t0
                    return
                attrs["busy"] += time.perf_counter() - t0
                attrs["legal"] += 1
                yield item
        return generate()
    return wrapper


CLOSED_FORMS = ("upper_bound_U", "upper_bound_U_k", "closed_form_M",
                "closed_form_L", "l3_root_closed_form", "shape_formula_M",
                "corrected_five_row_shapes", "fit_linear_recurrence",
                "estimate_c", "fib_product_growth_ratio", "golden_ratio_gap")


def _targets():
    """(module, function name, span name, attrs) for every wrapped function."""
    out = [
        ("cli", "main", "cli.main", None),
        ("transfer", "count_via_transfer", "transfer.count",
         lambda a, r: _transfer_attrs(a, r, "n")),
        ("transfer", "count_sequence", "transfer.count",
         lambda a, r: _transfer_attrs(a, r, "n_max")),
        ("transfer", "dominant_eigenvalue", "transfer.eigen", None),
        ("transfer", "spectrum_small", "transfer.spectrum", None),
        ("transfer", "build_transfer", "transfer.build", None),
        ("oracle", "count_by_enumeration", "oracle.count", _enumeration_attrs),
        ("decomposition", "count_independent_sets", "decomposition",
         _shape_attrs),
        ("tiling", "count_tilings", "tiling.count", None),
        ("tiling", "theta_forward", "tiling.theta", _forward_attrs),
        ("tiling", "theta_inverse", "tiling.theta", _inverse_attrs),
    ]
    out += [("closedforms", name, "closedforms", None) for name in CLOSED_FORMS]
    return out


def _rebind(old, new) -> None:
    def swap(value):
        if value is old:
            return new
        if isinstance(value, tuple):
            items = tuple(swap(v) for v in value)
            if any(a is not b for a, b in zip(items, value)):
                return items
        return value

    for name, module in list(sys.modules.items()):
        if name != "pawncount" and not name.startswith("pawncount."):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)
            elif isinstance(value, tuple):
                swapped = swap(value)
                if swapped is not value:
                    setattr(module, attr, swapped)


def install():
    """Wrap every target; returns the wrapped ``cli.main``."""
    import importlib

    import pawncount.cli
    import pawncount.verify as verify

    for module_name, fn_name, span_name, attrs in _targets():
        module = importlib.import_module(f"pawncount.{module_name}")
        fn = getattr(module, fn_name)
        _rebind(fn, _span(span_name, fn, attrs))
    enumerate_legal = importlib.import_module("pawncount.oracle").enumerate_legal
    _rebind(enumerate_legal, _stream(enumerate_legal))
    for _, fn in verify.CHECKS:
        _rebind(fn, _span(f"verify.{fn.__name__.removeprefix('check_')}", fn))
    return pawncount.cli.main


def main() -> int:
    out_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_child.py SPANS_OUT -- ARGV...")
    cli_main = install()
    try:
        return cli_main(argv)
    finally:
        with open(out_path, "w") as f:
            json.dump(SPANS, f)


if __name__ == "__main__":
    sys.exit(main())
