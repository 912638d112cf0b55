"""Command-line surface: counting, bounds, eigenvalues, tables, the tiling
bijection, and the verification battery.

Exit codes:

    0  ok
    1  verification failure, or an exact route failed its own integrality
       or recurrence-fit self-check
    2  usage error
    3  a size guard was exceeded
    4  power iteration did not converge
    5  bad input file

M counts run on the colour split (M = B * W, each factor a sweep over
half-height columns): ``count`` under ``auto`` when no closed form covers
the board, and under ``--method decomposition``; every M row of ``table``
that needs a sweep; and ``eigen``, whose power iteration runs the two-step
colour operator on 2^floor(m/2) states.  L counts run on the frontier
sweep, one cell at a time over the legal frontiers only: ``count`` under
``auto`` when no closed form covers the board (its JSON ``method`` stays
``transfer``), and every L row of ``table`` that needs a sweep.
``--method transfer`` is the full 2^m column profile for every quantity.

Each sweep refuses a state array above 2^22 entries (exit 3) before it
allocates one: 22 rows for the full profile, 30 for L's frontier sweep
(whose guard counts frontiers, not column cells), 44 for M's colour
split.  ``count`` runs M and L along the longer side of the board, so only
the shorter side meets the limit; ``table`` sweeps its tallest row first.
Exact counts are serialized as decimal strings in JSON (they outgrow
doubles quickly), in full however many digits they have; floats appear
only for eigenvalues and asymptotics.

The sweeps (``transfer``) and the battery (``verify``) are imported inside
the commands that run them, after the closed forms are tried, so a
closed-form count, U and U_k, a U table and ``bijection`` start without
loading numpy.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import closedforms as cf
from . import tiling as tl
from .errors import (GuardExceeded, IllegalMatrix, InvalidTiling,
                     MatrixFormatError, NoFitFound, NonConverged,
                     NonIntegerResult)
from .oracle import (L_SET, M_SET, U_SET, BinaryMatrix, count_by_enumeration,
                     uk_set)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_NONCONVERGED = 4
EXIT_BAD_INPUT = 5

_PATTERNS = {"M": M_SET, "U": U_SET, "L": L_SET}


class UsageError(Exception):
    pass


def _record(command: str, **fields) -> dict:
    """OutputRecord with a stable key order; None fields are dropped and
    annotations always present."""
    record: dict = {"command": command}
    for key in ("quantity", "m", "n", "k", "method", "value"):
        if key in fields and fields[key] is not None:
            record[key] = fields[key]
    for key, value in fields.items():
        if key in ("quantity", "m", "n", "k", "method", "value"):
            continue
        if value is not None:
            record[key] = value
    record["annotations"] = list(fields.get("annotations") or ())
    return record


def _emit(record: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(record))
        return
    quantity = record.get("quantity", "")
    if "m" in record and "n" in record:
        label = f"{quantity}({record['m']},{record['n']})"
    elif "m" in record:
        label = f"{quantity}({record['m']})"
    else:
        label = quantity
    print(f"{label} = {record['value']}")
    for note in record["annotations"]:
        print(f"note: {note}")


def _route(quantity: str, m: int, n: int, k: int | None,
           method: str) -> tuple[str, int, tuple[str, ...]]:
    """Pick the route for one count and run it: (method used, value,
    annotations).  ``auto`` takes the first closed form that covers the
    board and falls back to the colour split for M, the frontier sweep
    for L and the transfer engine for U."""
    if quantity == "Uk":
        if method in ("auto", "closed"):
            return "closed", cf.upper_bound_U_k(m, n, k), ()
        if method == "oracle":
            return "oracle", count_by_enumeration(m, n, uk_set(k)), ()
        raise UsageError(
            f"method {method!r} does not support diagonal runs; "
            "use auto, closed or oracle")
    pats = _PATTERNS[quantity]
    if method == "oracle":
        return "oracle", count_by_enumeration(m, n, pats), ()
    if method == "decomposition" and quantity != "M":
        raise UsageError("--method decomposition applies to quantity M only")
    if m == 0 or n == 0:
        return method if method != "auto" else "closed", 1, ()
    if method in ("auto", "closed"):
        forms = cf.closed_forms(quantity, m, n)
        if forms:
            value, annotations = forms[0]()
            return "closed", value, annotations
        if method == "closed":
            raise GuardExceeded(
                f"no closed form covers a {m}x{n} board; use --method transfer")
    from .transfer import (colour_split_sequence, count_via_transfer,
                           isolated_sequence)

    # M and L counts are transpose symmetric: run the column profile along
    # the longer side, so its width is the shorter one
    if quantity in ("M", "L") and n < m:
        m, n = n, m
    if method == "transfer" or quantity == "U":
        return "transfer", count_via_transfer(m, n, pats), ()
    if quantity == "L":
        return "transfer", isolated_sequence(m, n)[n], ()
    black, white = colour_split_sequence(m, n)
    b, w = black[n], white[n]
    annotations = ()
    if method == "decomposition":
        annotations = (f"black/white shape counts: B={b}, W={w}",)
    return "decomposition", b * w, annotations


def cmd_count(args) -> int:
    if args.m < 0 or args.n < 0:
        raise UsageError("dimensions must be nonnegative")
    quantity = args.quantity
    k = args.k
    if k is not None:
        if quantity != "U":
            raise UsageError("--k applies to --quantity U (diagonal runs) only")
        quantity = "Uk"
    method, value, annotations = _route(quantity, args.m, args.n, k,
                                        args.method)
    record = _record("count", quantity=quantity, m=args.m, n=args.n, k=k,
                     method=method, value=str(value), annotations=annotations)
    _emit(record, args.json)
    return EXIT_OK


def cmd_eigen(args) -> int:
    if args.m < 1:
        raise UsageError("-m must be >= 1")
    from .transfer import dominant_eigenvalue, spectrum_small

    extra = {}
    if args.spectrum:
        extra["spectrum"] = [float(v) for v in spectrum_small(args.m, M_SET)]
    # flags left unset fall back on dominant_eigenvalue's own defaults
    given = {name: flag for name, flag in
             (("tol", args.tol), ("max_iter", args.max_iter))
             if flag is not None}
    value = dominant_eigenvalue(args.m, M_SET, **given)
    record = _record("eigen", quantity="alpha", m=args.m, method="power-iteration",
                     value=value, **extra, annotations=())
    if args.json:
        print(json.dumps(record))
    else:
        print(f"alpha({args.m}) = {value!r}")
        if args.spectrum:
            print("spectrum:", " ".join(f"{v:.12g}" for v in extra["spectrum"]))
    return EXIT_OK


def _sweep(quantity: str, m: int, n_max: int) -> list[int]:
    """Counts of height m for n = 0..n_max: the colour split for M, the
    frontier sweep for L, the transfer sweep for U."""
    from .transfer import (colour_split_sequence, count_sequence,
                           isolated_sequence)

    if quantity == "M":
        black, white = colour_split_sequence(m, n_max)
        return [b * w for b, w in zip(black, white)]
    if quantity == "L":
        return isolated_sequence(m, n_max)
    return count_sequence(m, n_max, _PATTERNS[quantity])


def _table_cells(quantity: str, max_m: int, max_n: int) -> list[tuple[int, int, int]]:
    """Each cell takes its first closed form; every other cell of row m is
    read off one sweep at height m.  The tallest row is swept first, so
    a row too tall for its sweep is refused before any count starts."""
    cells = {(m, n): cf.closed_forms(quantity, m, n)
             for m in range(1, max_m + 1) for n in range(1, max_n + 1)}
    swept = sorted({m for (m, _), forms in cells.items() if not forms},
                   reverse=True)
    sweeps = {m: _sweep(quantity, m, max_n) for m in swept}
    return [(m, n, forms[0]()[0] if forms else sweeps[m][n])
            for (m, n), forms in cells.items()]


def cmd_table(args) -> int:
    if args.max_m < 1 or args.max_n < 1:
        raise UsageError("--max-m and --max-n must be >= 1")
    cells = _table_cells(args.quantity, args.max_m, args.max_n)
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["m", "n", "quantity", "value"])
        for m, n, value in cells:
            writer.writerow([m, n, args.quantity, str(value)])
    elif args.format == "json":
        rows = [{"m": m, "n": n, "quantity": args.quantity, "value": str(value)}
                for m, n, value in cells]
        print(json.dumps(rows))
    else:
        values = {(m, n): value for m, n, value in cells}
        header = ["m\\n"] + [str(n) for n in range(1, args.max_n + 1)]
        print("| " + " | ".join(header) + " |")
        print("|" + "|".join([" --- "] * len(header)) + "|")
        for m in range(1, args.max_m + 1):
            row = [str(m)] + [str(values[(m, n)]) for n in range(1, args.max_n + 1)]
            print("| " + " | ".join(row) + " |")
    return EXIT_OK


def cmd_bijection(args) -> int:
    if (args.matrix_file is None) == (args.tiling_json is None):
        raise UsageError("give exactly one of --matrix-file or --tiling-json")
    if args.invert and args.matrix_file is not None:
        raise UsageError("--invert takes a tiling (--tiling-json), not a matrix")
    if args.matrix_file is not None:
        text = Path(args.matrix_file).read_text()
        matrix = BinaryMatrix.from_text(text)
        result = tl.theta_forward(matrix)
        if args.ascii_art:
            print(tl.render_ascii(result))
        else:
            print(tl.tiling_to_json(result))
    else:
        text = Path(args.tiling_json).read_text()
        tiling = tl.tiling_from_json(text)
        print(tl.theta_inverse(tiling).to_text())
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_verification

    report = run_verification(args.level)
    if args.json:
        print(json.dumps(report.to_dict()))
    else:
        for check in report.checks:
            status = "PASS" if check.passed else "FAIL"
            print(f"[{status}] {check.name}: {check.details}")
            for deviation in check.deviations:
                print(f"       {deviation}")
        print(f"verification {'passed' if report.passed else 'FAILED'} "
              f"({sum(c.passed for c in report.checks)}/{len(report.checks)} "
              f"checks, level={args.level})")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pawncount",
        description="Exact counting of nonattacking pawn placements and "
                    "related pattern-avoiding binary matrices.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_count = sub.add_parser("count", help="count placements for one board")
    p_count.add_argument("-m", type=int, required=True, help="rows")
    p_count.add_argument("-n", type=int, required=True, help="columns")
    p_count.add_argument("--quantity", choices=("M", "U", "L"), default="M")
    p_count.add_argument("--k", type=int, default=None,
                         help="diagonal run length (quantity U only)")
    p_count.add_argument("--method",
                         choices=("auto", "oracle", "transfer", "closed",
                                  "decomposition"),
                         default="auto")
    p_count.add_argument("--json", action="store_true")
    p_count.set_defaults(func=cmd_count)

    p_eigen = sub.add_parser("eigen", help="dominant transfer eigenvalue")
    p_eigen.add_argument("-m", type=int, required=True)
    p_eigen.add_argument("--tol", type=float, default=None)
    p_eigen.add_argument("--max-iter", type=int, default=None)
    p_eigen.add_argument("--spectrum", action="store_true",
                         help="also print the full spectrum (dense sizes only)")
    p_eigen.add_argument("--json", action="store_true")
    p_eigen.set_defaults(func=cmd_eigen)

    p_table = sub.add_parser("table", help="grid of exact counts")
    p_table.add_argument("--quantity", choices=("M", "U", "L"), default="M")
    p_table.add_argument("--max-m", type=int, default=6)
    p_table.add_argument("--max-n", type=int, default=10)
    p_table.add_argument("--format", choices=("markdown", "csv", "json"),
                         default="markdown")
    p_table.set_defaults(func=cmd_table)

    p_bij = sub.add_parser("bijection",
                           help="matrix -> tiling (or back with --invert)")
    p_bij.add_argument("--matrix-file", default=None,
                       help="matrix text file; emits tiling JSON")
    p_bij.add_argument("--tiling-json", default=None,
                       help="tiling JSON file; emits matrix text")
    p_bij.add_argument("--invert", action="store_true",
                       help="apply the inverse map (implied by --tiling-json)")
    p_bij.add_argument("--ascii", dest="ascii_art", action="store_true",
                       help="render the tiling as ASCII blocks instead of JSON")
    p_bij.set_defaults(func=cmd_bijection)

    p_verify = sub.add_parser("verify", help="run the cross-validation battery")
    p_verify.add_argument("--level", choices=("quick", "full"), default="quick")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    # exact counts are printed in full, past the interpreter's default
    # 4300-digit limit on int-to-str conversion (absent before 3.10.7)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except NonConverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except (NonIntegerResult, NoFitFound) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    except (IllegalMatrix, InvalidTiling, MatrixFormatError, OSError) as exc:
        position = getattr(exc, "position", None)
        where = f" at {position}" if position else ""
        print(f"error: {exc}{where}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
