"""Per-layer metrics from the spans and import times of one traced pass.

Busy time of a layer is the summed duration of its outermost spans (a span
of the layer nested inside another span of the same layer is not counted
twice); self time is busy time minus the time of directly nested spans.
Counts come from the span attributes, which the traced child computes from
call arguments and return values.
"""

from __future__ import annotations

import re

# The 12 checks of the verification battery, by function name minus check_.
CHECKS = ("transfer_reference", "three_way_agreement",
          "closed_form_small_heights", "upper_bound", "sandwich",
          "perfect_square", "shape_formulas", "tilings", "eigenvalues",
          "asymptotics", "isolated_height3", "growth_rates")

# name -> (unit, better); the order is the order of the printed metrics.
METRICS = {
    "import.total_s": ("s", "lower"),
    "import.numpy_s": ("s", "lower"),
    "import.mpmath_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.calls": ("count", "lower"),
    "transfer.count_s": ("s", "lower"),
    "transfer.calls": ("count", "lower"),
    "transfer.states": ("count", "lower"),
    "transfer.steps": ("count", "lower"),
    "transfer.zeta_adds": ("count", "lower"),
    "transfer.adds_per_s": ("1/s", "higher"),
    "transfer.result_digits": ("count", "lower"),
    "transfer.setup_states": ("count", "lower"),
    "transfer.setup_s": ("s", "lower"),
    "transfer.eigen_s": ("s", "lower"),
    "transfer.spectrum_s": ("s", "lower"),
    "transfer.build_s": ("s", "lower"),
    "oracle.count_s": ("s", "lower"),
    "oracle.enumerate_s": ("s", "lower"),
    "oracle.candidates": ("count", "lower"),
    "oracle.candidates_per_s": ("1/s", "higher"),
    "oracle.legal_frac": ("frac", "higher"),
    "closedforms.s": ("s", "lower"),
    "closedforms.calls": ("count", "lower"),
    "decomposition.s": ("s", "lower"),
    "decomposition.cells": ("count", "lower"),
    "tiling.count_s": ("s", "lower"),
    "tiling.theta_s": ("s", "lower"),
    "tiling.roundtrips": ("count", "lower"),
    **{f"verify.{name}_s": ("s", "lower") for name in CHECKS},
    "trace.overhead_frac": ("frac", "lower"),
}

# Counts that must repeat exactly between traced runs of one seed.
EXACT = ("cli.calls", "transfer.calls", "transfer.states", "transfer.steps",
         "transfer.zeta_adds", "transfer.result_digits",
         "transfer.setup_states", "oracle.candidates", "oracle.legal_frac",
         "closedforms.calls", "decomposition.cells", "tiling.roundtrips")

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def split_importtime(stderr: str) -> tuple[list[tuple[int, str, float]], str]:
    """(depth, module, cumulative seconds) rows of ``-X importtime`` output,
    and the rest of stderr (the program's own messages)."""
    rows, rest = [], []
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            depth = (len(match.group(3)) - 1) // 2
            rows.append((depth, match.group(4), int(match.group(2)) / 1e6))
        elif not line.startswith("import time: self [us]"):
            rest.append(line)
    return rows, "\n".join(rest)


def _busy(spans, names) -> float:
    """Summed duration of the outermost spans whose name is in ``names``."""
    total = 0.0
    for span in spans:
        if span[0] not in names:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += span[2] - span[1]
    return total


def _attr_sum(spans, name, key) -> int:
    return sum(s[4][key] for s in spans if s[0] == name and s[4])


def call_metrics(spans: list, imports: list) -> dict:
    """Per-layer numbers of one traced CLI call."""
    out = dict.fromkeys(METRICS, 0)
    out["import.total_s"] = sum(c for depth, _, c in imports if depth == 0)
    for _, module, cumulative in imports:
        if module in ("numpy", "mpmath"):
            out[f"import.{module}_s"] += cumulative

    children = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0 and span[0] != "oracle.enumerate":
            children[span[3]] += span[2] - span[1]
    for i, span in enumerate(spans):
        if span[0] == "cli.main":
            out["cli.self_s"] += span[2] - span[1] - children[i]
            out["cli.calls"] += 1

    counts = [s for s in spans if s[0] == "transfer.count" and s[4]]
    out["transfer.count_s"] = _busy(spans, {"transfer.count"})
    out["transfer.calls"] = len(counts)
    for key in ("states", "steps", "zeta_adds"):
        out[f"transfer.{key}"] = sum(s[4][key] for s in counts)
    out["transfer.result_digits"] = sum(s[4]["digits"] for s in counts)
    setup = [s for s in counts if s[4]["setup"]]
    out["transfer.setup_states"] = sum(s[4]["states"] for s in setup)
    out["transfer.setup_s"] = sum(s[2] - s[1] for s in setup)
    for name in ("eigen", "spectrum", "build"):
        out[f"transfer.{name}_s"] = _busy(spans, {f"transfer.{name}"})

    out["oracle.count_s"] = _busy(spans, {"oracle.count"})
    streams = [s for s in spans if s[0] == "oracle.enumerate"]
    out["oracle.enumerate_s"] = sum(s[4]["busy"] for s in streams)
    enumerated = [s for s in spans if s[0] == "oracle.count" and s[4]] + streams
    out["oracle.candidates"] = sum(s[4]["candidates"] for s in enumerated)
    out["oracle.legal"] = sum(s[4]["legal"] for s in enumerated)

    out["closedforms.s"] = _busy(spans, {"closedforms"})
    out["closedforms.calls"] = sum(1 for s in spans if s[0] == "closedforms")
    out["decomposition.s"] = _busy(spans, {"decomposition"})
    out["decomposition.cells"] = _attr_sum(spans, "decomposition", "cells")
    out["tiling.count_s"] = _busy(spans, {"tiling.count"})
    out["tiling.theta_s"] = _busy(spans, {"tiling.theta"})
    out["tiling.roundtrips"] = _attr_sum(spans, "tiling.theta", "roundtrip")
    for name in CHECKS:
        out[f"verify.{name}_s"] = _busy(spans, {f"verify.{name}"})
    return out


def pass_metrics(calls: list[dict]) -> dict:
    """Sum the per-call numbers of one pass and derive the ratios."""
    total = dict.fromkeys(calls[0], 0)
    for metrics in calls:
        for key, value in metrics.items():
            total[key] += value
    legal = total.pop("oracle.legal")
    if total["transfer.count_s"] > 0:
        total["transfer.adds_per_s"] = (total["transfer.zeta_adds"]
                                        / total["transfer.count_s"])
    oracle_s = total["oracle.count_s"] + total["oracle.enumerate_s"]
    if oracle_s > 0:
        total["oracle.candidates_per_s"] = total["oracle.candidates"] / oracle_s
    if total["oracle.candidates"] > 0:
        total["oracle.legal_frac"] = legal / total["oracle.candidates"]
    return total
