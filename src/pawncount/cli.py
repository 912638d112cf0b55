"""Command-line surface: counting, bounds, eigenvalues, tables, the tiling
bijection, and the verification battery.

Exit codes:

    0  ok
    1  verification failure, or an exact route failed its own integrality
       or recurrence-fit self-check (``NonIntegerResult``, ``NoFitFound``)
    2  usage error: argparse, any ``ValueError`` (``InvalidK`` among them)
    3  a size guard was exceeded (``GuardExceeded``)
    4  power iteration did not converge (``NonConverged``)
    5  bad input file: ``OSError``, bytes that are not UTF-8,
       ``IllegalMatrix``, ``InvalidTiling``, ``MatrixFormatError``

Each package error names its own code (``exit_code`` in ``errors``);
``main`` adds only ``OSError`` and ``UnicodeDecodeError`` (5: both input
files are UTF-8 text) and other ``ValueError``s (2).

``count`` under ``auto`` and ``table`` give each board the first closed
form that covers it.  For M that is every board with a side of 1..16
rows: the radical and shape formulas at heights 1..6, and at heights
7..16 the stored colour-class generating functions (M = B * W, each
factor a linear recurrence), which come after the others.  M, U and L
are transpose symmetric, so every other board is read off a sweep along
its shorter side h: one sweep per h, run to the longest side that h
needs, tallest h first.  M sweeps on the colour split from 17 rows up
(the same B * W, each factor a sweep over half-height columns),
L on the frontier sweep, one cell at a time over the legal frontiers only
(its JSON ``method`` stays ``transfer``); every U board has a closed
form.  ``--method decomposition`` (the colour split) and ``--method
transfer`` (the full 2^h column profile, for every quantity) sweep along
the shorter side too.  ``eigen``'s power iteration runs the two-step
colour operator on 2^floor(m/2) states.

Each sweep refuses a state array above 2^22 entries (exit 3) before it
allocates one: 22 rows for the full profile, 30 for L's frontier sweep
(whose guard counts frontiers, not column cells), 44 for M's colour
split.  Only the shorter side of a board meets that limit, and a table
too tall for its sweep is refused before any count starts.  ``bijection
--invert`` holds the matrix a tiling names to the same 2^22 cells.
Exact counts are serialized as decimal strings in JSON (they outgrow
doubles quickly), in full however many digits they have; floats appear
only for eigenvalues and asymptotics.

The sweeps (``transfer``) and the battery (``verify``) are imported inside
the commands that run them, after the closed forms are tried, so a
closed-form count (M with a side of 1..16 rows among them), U and U_k,
a table whose boards all have closed forms and ``bijection`` start
without loading numpy.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import closedforms as cf
from . import tiling as tl
from .errors import GuardExceeded, PawncountError
from .oracle import (L_SET, M_SET, U_SET, BinaryMatrix, count_by_enumeration,
                     uk_set)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_BAD_INPUT = 5

_PATTERNS = {"M": M_SET, "U": U_SET, "L": L_SET}


def _record(command: str, annotations=(), **fields) -> dict:
    """OutputRecord: the fields in the order the caller gives them, None
    ones dropped, then the annotations, always present."""
    record: dict = {"command": command}
    record.update((key, value) for key, value in fields.items()
                  if value is not None)
    record["annotations"] = list(annotations)
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


def _plan(quantity: str, cells: list[tuple[int, int]]
          ) -> list[tuple[str, int, tuple[str, ...]]]:
    """(method used, value, annotations) for each m-by-n cell: its first
    closed form, else a sweep along its shorter side h.  M, U and L are
    transpose symmetric, so one sweep per h, run to the longest side that
    h needs, covers all its cells: the colour split for M, the frontier
    sweep for L (every U cell has a closed form).  The tallest h is swept
    first, so a board too tall for its sweep is refused before any count
    starts."""
    boards = [(cf.closed_forms(quantity, m, n), *sorted((m, n))) for m, n in cells]
    lengths: dict[int, int] = {}
    for forms, h, length in boards:
        if not forms:
            lengths[h] = max(lengths.get(h, 0), length)
    if lengths:
        from .transfer import colour_split_sequence, isolated_sequence
    sweeps = {}
    for h in sorted(lengths, reverse=True):
        if quantity == "L":
            sweeps[h] = isolated_sequence(h, lengths[h])
        else:
            black, white = colour_split_sequence(h, lengths[h])
            sweeps[h] = [b * w for b, w in zip(black, white)]
    swept_by = "transfer" if quantity == "L" else "decomposition"
    return [("closed", *forms[0]()) if forms else (swept_by, sweeps[h][length], ())
            for forms, h, length in boards]


def _route(quantity: str, m: int, n: int, k: int | None,
           method: str) -> tuple[str, int, tuple[str, ...]]:
    """Pick the route for one count and run it: (method used, value,
    annotations).  ``auto`` is the planner on this one board;
    ``transfer`` and ``decomposition`` sweep along its shorter side."""
    if quantity == "Uk":
        if method in ("auto", "closed"):
            return "closed", cf.upper_bound_U_k(m, n, k), ()
        if method == "oracle":
            return "oracle", count_by_enumeration(m, n, uk_set(k)), ()
        raise ValueError(
            f"method {method!r} does not support diagonal runs; "
            "use auto, closed or oracle")
    pats = _PATTERNS[quantity]
    if method == "oracle":
        return "oracle", count_by_enumeration(m, n, pats), ()
    if method == "decomposition" and quantity != "M":
        raise ValueError("--method decomposition applies to quantity M only")
    if m == 0 or n == 0:
        return method if method != "auto" else "closed", 1, ()
    if method == "closed" and not cf.closed_forms(quantity, m, n):
        raise GuardExceeded(
            f"no closed form covers a {m}x{n} board; use --method auto")
    if method in ("auto", "closed"):
        return _plan(quantity, [(m, n)])[0]
    from .transfer import colour_split_sequence, count_via_transfer

    # the column profile runs along the longer side, so its width is the
    # shorter one
    m, n = sorted((m, n))
    if method == "transfer":
        return "transfer", count_via_transfer(m, n, pats), ()
    black, white = colour_split_sequence(m, n)
    return "decomposition", black[n] * white[n], (
        f"black/white shape counts: B={black[n]}, W={white[n]}",)


def cmd_count(args) -> int:
    if args.m < 0 or args.n < 0:
        raise ValueError("dimensions must be nonnegative")
    quantity = args.quantity
    k = args.k
    if k is not None:
        if quantity != "U":
            raise ValueError("--k applies to --quantity U (diagonal runs) only")
        quantity = "Uk"
    method, value, annotations = _route(quantity, args.m, args.n, k,
                                        args.method)
    record = _record("count", quantity=quantity, m=args.m, n=args.n, k=k,
                     method=method, value=str(value), annotations=annotations)
    _emit(record, args.json)
    return EXIT_OK


def cmd_eigen(args) -> int:
    if args.m < 1:
        raise ValueError("-m must be >= 1")
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
                     value=value, **extra)
    _emit(record, args.json)
    if args.spectrum and not args.json:
        print("spectrum:", " ".join(f"{v:.12g}" for v in extra["spectrum"]))
    return EXIT_OK


def cmd_table(args) -> int:
    if args.max_m < 1 or args.max_n < 1:
        raise ValueError("--max-m and --max-n must be >= 1")
    cells = [(m, n) for m in range(1, args.max_m + 1)
             for n in range(1, args.max_n + 1)]
    values = {cell: value for cell, (_, value, _) in
              zip(cells, _plan(args.quantity, cells))}
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["m", "n", "quantity", "value"])
        for (m, n), value in values.items():
            writer.writerow([m, n, args.quantity, str(value)])
    elif args.format == "json":
        rows = [{"m": m, "n": n, "quantity": args.quantity, "value": str(value)}
                for (m, n), value in values.items()]
        print(json.dumps(rows))
    else:
        header = ["m\\n"] + [str(n) for n in range(1, args.max_n + 1)]
        print("| " + " | ".join(header) + " |")
        print("|" + "|".join([" --- "] * len(header)) + "|")
        for m in range(1, args.max_m + 1):
            row = [str(m)] + [str(values[(m, n)]) for n in range(1, args.max_n + 1)]
            print("| " + " | ".join(row) + " |")
    return EXIT_OK


def cmd_bijection(args) -> int:
    if (args.matrix_file is None) == (args.tiling_json is None):
        raise ValueError("give exactly one of --matrix-file or --tiling-json")
    if args.invert and args.matrix_file is not None:
        raise ValueError("--invert takes a tiling (--tiling-json), not a matrix")
    if args.matrix_file is not None:
        text = Path(args.matrix_file).read_text(encoding="utf-8")
        matrix = BinaryMatrix.from_text(text)
        result = tl.theta_forward(matrix)
        if args.ascii_art:
            print(tl.render_ascii(result))
        else:
            print(tl.tiling_to_json(result))
    else:
        text = Path(args.tiling_json).read_text(encoding="utf-8")
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
    except (PawncountError, OSError, ValueError) as exc:
        position = getattr(exc, "position", None)
        where = f" at {position}" if position else ""
        print(f"error: {exc}{where}", file=sys.stderr)
        # a package error names its own code; MatrixFormatError and InvalidK
        # are ValueErrors too, so this test comes first.  Only input files
        # are decoded, so a UnicodeDecodeError is a bad file.
        if isinstance(exc, PawncountError):
            return exc.exit_code
        bad_file = isinstance(exc, (OSError, UnicodeDecodeError))
        return EXIT_BAD_INPUT if bad_file else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
