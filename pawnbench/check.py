"""Output checks: every call's stdout against the committed references.

``check`` returns None when a call did what it should, or a one-line reason
when it did not.  A reason that starts with ``wrong`` means the program
printed a value or a shape that contradicts the references; any other
reason means the call failed to produce a result (an unexpected exit code).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
import sys
from pathlib import Path

from workloads import canonical

# Outputs of U boards run to thousands of digits; the checker must parse
# them whatever the program's own limit is.
sys.set_int_max_str_digits(0)

REFS = Path(__file__).resolve().parent / "refs.json"

# Power iteration stops at 1e-10 relative change and lands within 4e-11 of
# the reference at every height drawn; see make_refs.py.
ALPHA_REL_TOL = 1e-9
# The text spectrum is printed with 12 significant digits.
SPECTRUM_REL_TOL = 1e-8

# What ``count`` prints at baseline for a U board past the default 4300-digit
# int-to-str limit; kept visible as a failure, see DESIGN.md.
KNOWN_DEFECT = "Exceeds the limit (4300 digits) for integer string conversion"

_COUNT_LINE = re.compile(r"^(\w+)\((\d+),(\d+)\) = (\d+)$")
_ALPHA_LINE = re.compile(r"^alpha\((\d+)\) = (\S+)$")


def load_refs(path: Path = REFS) -> dict:
    return json.loads(path.read_text())


def _ref_matches(ref, value: int) -> bool:
    if isinstance(ref, str):
        return int(ref) == value
    text = str(value)
    return (len(text) == ref["digits"]
            and hashlib.sha256(text.encode()).hexdigest() == ref["sha256"])


def reference(refs: dict, table: str, m: int, n: int):
    m, n = canonical(m, n)
    return refs[table][f"{m},{n}"]


def _fibonacci_words(length: int) -> int:
    """Binary words of the given length with no two adjacent 1s."""
    a, b = 1, 2
    for _ in range(length):
        a, b = b, a + b
    return a


def _check_count(e: dict, out: str, refs: dict) -> str | None:
    if e["json"]:
        record = json.loads(out)
        label, m, n = record["quantity"], record["m"], record["n"]
        value = int(record["value"])
    else:
        match = _COUNT_LINE.match(out.splitlines()[0])
        if match is None:
            return f"wrong: unparsable count line {out.splitlines()[0]!r}"
        label, m, n = match.group(1), int(match.group(2)), int(match.group(3))
        value = int(match.group(4))
    if (label, m, n) != (e["label"], e["m"], e["n"]):
        return f"wrong: answered {label}({m},{n})"
    if not _ref_matches(reference(refs, e["table"], m, n), value):
        return f"wrong: value of {label}({m},{n})"
    return None


def _check_eigen(e: dict, out: str, refs: dict) -> str | None:
    m = e["m"]
    if e["json"]:
        record = json.loads(out)
        value = float(record["value"])
        spectrum = record.get("spectrum")
        got_m = record["m"]
    else:
        lines = out.splitlines()
        match = _ALPHA_LINE.match(lines[0])
        if match is None:
            return f"wrong: unparsable eigen line {lines[0]!r}"
        got_m, value = int(match.group(1)), float(match.group(2))
        spectrum = None
        if len(lines) > 1 and lines[1].startswith("spectrum:"):
            spectrum = [float(v) for v in lines[1].split()[1:]]
    alpha = refs["alpha"][str(m)]
    if got_m != m or not math.isclose(value, alpha, rel_tol=ALPHA_REL_TOL):
        return f"wrong: alpha({got_m}) = {value}, reference {alpha}"
    if not e["spectrum"]:
        return None
    if spectrum is None or len(spectrum) != 2 ** m:
        return f"wrong: spectrum of height {m} missing or mis-sized"
    # Trace = columns compatible with themselves (no two adjacent pawns);
    # trace of T^2 = compatible ordered pairs = M(m, 2).
    scale = sum(abs(v) for v in spectrum)
    expected = ((max(spectrum), alpha), (sum(spectrum), _fibonacci_words(m)),
                (sum(v * v for v in spectrum),
                 int(reference(refs, "M", m, 2))))
    for got, want in expected:
        if abs(got - want) > SPECTRUM_REL_TOL * max(scale, want):
            return f"wrong: spectrum of height {m}: {got} vs {want}"
    return None


def _table_cells(fmt: str, quantity: str, out: str) -> dict:
    cells = {}
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        if rows[0] != ["m", "n", "quantity", "value"]:
            raise ValueError("bad csv header")
        for m, n, q, value in rows[1:]:
            if q != quantity:
                raise ValueError(f"quantity {q}")
            cells[(int(m), int(n))] = int(value)
    elif fmt == "json":
        for row in json.loads(out):
            if row["quantity"] != quantity:
                raise ValueError(f"quantity {row['quantity']}")
            cells[(row["m"], row["n"])] = int(row["value"])
    else:
        lines = out.splitlines()
        widths = [int(c) for c in lines[0].strip("| ").split(" | ")[1:]]
        for line in lines[2:]:
            first, *values = line.strip("| ").split(" | ")
            for n, value in zip(widths, values, strict=True):
                cells[(int(first), n)] = int(value)
    return cells


def _check_table(e: dict, out: str, refs: dict) -> str | None:
    try:
        cells = _table_cells(e["format"], e["table"], out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"wrong: unparsable {e['format']} table ({exc})"
    want = {(m, n) for m in range(1, e["max_m"] + 1)
            for n in range(1, e["max_n"] + 1)}
    if set(cells) != want:
        return f"wrong: table covers {len(cells)} cells, expected {len(want)}"
    for (m, n), value in cells.items():
        if not _ref_matches(reference(refs, e["table"], m, n), value):
            return f"wrong: table value of {e['table']}({m},{n})"
    return None


def _check_verify(e: dict, out: str) -> str | None:
    if e["json"]:
        report = json.loads(out)
        ok = report["passed"] and all(c["passed"] for c in report["checks"])
    else:
        lines = out.splitlines()
        ok = (lines[-1].startswith("verification passed")
              and not any(line.startswith("[FAIL]") for line in lines))
    return None if ok else "wrong: verification battery reported a failure"


def check(call, returncode: int, out: str, err: str, refs: dict) -> str | None:
    """None if the call's output is right, else why it is not."""
    e = call.expect
    if returncode != 0:
        last = err.strip().splitlines()[-1] if err.strip() else ""
        return f"exit {returncode}: {last[:160]}"
    try:
        kind = e["kind"]
        if kind == "count":
            return _check_count(e, out, refs)
        if kind == "eigen":
            return _check_eigen(e, out, refs)
        if kind == "table":
            return _check_table(e, out, refs)
        if kind == "bijection-forward":
            ok = json.loads(out) == e["tiling"]
            return None if ok else "wrong: tiling differs from the anchors"
        if kind == "bijection-inverse":
            ok = out.strip() == e["matrix"]
            return None if ok else "wrong: matrix differs from the tiling"
        if kind == "verify":
            return _check_verify(e, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"wrong: unparsable {e['kind']} output ({exc!r:.120})"
    raise ValueError(f"unknown call kind {e['kind']!r}")


def is_known_defect(call, reason: str) -> bool:
    """The one failure this benchmark expects at baseline: a U board past
    the int-to-str limit, exiting 2 with the interpreter's message."""
    return (call.expect.get("known_defect", False)
            and reason.startswith("exit 2:") and KNOWN_DEFECT in reason)
