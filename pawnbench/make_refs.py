"""Regenerate ``refs.json``, the reference values the benchmark checks against.

Run from the repository root (about two minutes on one core):

    PYTHONPATH=src python3 pawnbench/make_refs.py

It lists every board each size class in ``workloads.py`` can draw and
computes each value by two independent routes, refusing to write the file
if any pair disagrees:

* M: the transfer engine (``count_sequence``) against the product of the
  independent-set counts of the two colour shapes
  (``count_independent_sets`` with a raised guard);
* L: the transfer engine against square tilings of the (m+1)-by-(n+1)
  board (``count_tilings``);
* U: ``upper_bound_U`` against the transfer engine where the height allows
  it, and against a direct product over the board's diagonals (written
  here, independent of the package) where it does not;
* U with runs of 3: ``upper_bound_U_k`` against brute-force enumeration;
* alpha_m: power iteration against the top of the dense spectrum for
  m <= 12, and against the limit of exact count ratios M(m, n+1) / M(m, n)
  above that, with the counts taken from a colour-split transfer written
  here.

Values above ``DIGEST_DIGITS`` digits are stored as their digit count and
the SHA-256 of their decimal string, which keeps the file small.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.set_int_max_str_digits(0)

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WARMUP, WORKLOADS  # noqa: E402

from pawncount import (L_SET, M_SET, U_SET, count_by_enumeration,  # noqa: E402
                       count_independent_sets, count_sequence, count_tilings,
                       dominant_eigenvalue, spectrum_small, split_by_color,
                       uk_set, upper_bound_U, upper_bound_U_k)

DIGEST_DIGITS = 300
# Relative agreement demanded between power iteration and the reference
# route; power iteration stops at 1e-10 between successive estimates and
# lands within 4e-11 of the reference at every height drawn.
ALPHA_AGREE = 1e-9
RATIO_WIDTH = 1200
SHAPE_GUARD = 10 ** 6


def encode(value: int):
    text = str(value)
    if len(text) <= DIGEST_DIGITS:
        return text
    return {"digits": len(text),
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def diagonal_product_U(m: int, n: int) -> int:
    """U(m, n) as a product over the board's down-right diagonals: the
    cells of one diagonal form a path on which no two consecutive cells
    hold 1s, and distinct diagonals never interact."""
    fib = [1, 2]  # fib[L] = binary words of length L with no "11"
    while len(fib) <= min(m, n) + 1:
        fib.append(fib[-1] + fib[-2])
    total = 1
    for d in range(-(m - 1), n):  # cells (i, i + d)
        total *= fib[min(m, n - d) - max(1, 1 - d) + 1]
    return total


def colour_class_counts(m: int, width: int, colour: int) -> list[int]:
    """Independent sets of one colour class of the m-by-w board for
    w = 0..width, by a column sweep over that class's cells only.

    Cell (i, j), 1-based, has colour (i + j) % 2; two cells of one class
    interact iff they sit in adjacent columns and adjacent rows.
    """
    def rows_of(j: int) -> list[int]:
        return [i for i in range(1, m + 1) if (i + j) % 2 == colour]

    def allowed(prev_rows: list[int], rows: list[int]) -> list[int]:
        """For each subset of ``rows``, the largest usable subset of
        ``prev_rows`` in the column before."""
        full = (1 << len(prev_rows)) - 1
        out = []
        for subset in range(1 << len(rows)):
            chosen = {rows[t] for t in range(len(rows)) if subset >> t & 1}
            blocked = sum(1 << t for t, r in enumerate(prev_rows)
                          if r - 1 in chosen or r + 1 in chosen)
            out.append(full & ~blocked)
        return out

    # Column types alternate with the parity of j.
    steps = {j % 2: (len(rows_of(j - 1)), allowed(rows_of(j - 1), rows_of(j)))
             for j in (2, 3)}
    dp = [1] * (1 << len(rows_of(1)))
    out = [1, sum(dp)]
    for j in range(2, width + 1):
        bits, table = steps[j % 2]
        for b in range(bits):
            bit = 1 << b
            for s in range(1 << bits):
                if s & bit:
                    dp[s] += dp[s ^ bit]
        dp = [dp[a] for a in table]
        out.append(sum(dp))
    return out


def colour_split_M(m: int, width: int) -> list[int]:
    black = colour_class_counts(m, width, 0)
    white = colour_class_counts(m, width, 1)
    return [b * w for b, w in zip(black, white)]


def ratio_limit(m: int) -> float:
    counts = colour_split_M(m, RATIO_WIDTH + 2)
    scale = 10 ** 30
    r1 = counts[RATIO_WIDTH + 1] * scale // counts[RATIO_WIDTH] / scale
    r2 = counts[RATIO_WIDTH + 2] * scale // counts[RATIO_WIDTH + 1] / scale
    if abs(r1 - r2) > 1e-14 * r1:
        raise SystemExit(f"count ratio at m={m} has not settled: {r1} vs {r2}")
    return r2


def needed():
    boards = defaultdict(set)
    alphas = set()
    for draws in WORKLOADS.values():
        for draw in draws:
            for table, dims in draw.boards():
                boards[table].add(dims)
            alphas.update(draw.alphas())
    for table, dims in WARMUP.boards():
        boards[table].add(dims)
    return boards, sorted(alphas)


def by_height(dims):
    widths = defaultdict(int)
    for m, n in dims:
        widths[m] = max(widths[m], n)
    return widths


def mismatch(what, a, b):
    raise SystemExit(f"reference routes disagree on {what}: {a} != {b}")


def make_M(dims) -> dict:
    out = {}
    for m, top in sorted(by_height(dims).items()):
        seq = count_sequence(m, top, M_SET)
        for n in sorted(n for h, n in dims if h == m):
            black, white = split_by_color(m, n)
            shapes = (count_independent_sets(black, guard=SHAPE_GUARD)
                      * count_independent_sets(white, guard=SHAPE_GUARD))
            if seq[n] != shapes:
                mismatch(f"M({m},{n})", seq[n], shapes)
            out[f"{m},{n}"] = encode(seq[n])
    return out


def make_L(dims) -> dict:
    out = {}
    for m, top in sorted(by_height(dims).items()):
        seq = count_sequence(m, top, L_SET)
        for n in sorted(n for h, n in dims if h == m):
            tilings = count_tilings(m + 1, n + 1)
            if seq[n] != tilings:
                mismatch(f"L({m},{n})", seq[n], tilings)
            out[f"{m},{n}"] = encode(seq[n])
    return out


def make_U(dims) -> dict:
    out = {}
    small = {d for d in dims if d[0] <= 16}
    seqs = {m: count_sequence(m, top, U_SET)
            for m, top in by_height(small).items()}
    for m, n in sorted(dims):
        value = upper_bound_U(m, n)
        other = seqs[m][n] if (m, n) in small else diagonal_product_U(m, n)
        if value != other:
            mismatch(f"U({m},{n})", value, other)
        out[f"{m},{n}"] = encode(value)
    return out


def make_Uk3(dims) -> dict:
    out = {}
    for m, n in sorted(dims):
        value = upper_bound_U_k(m, n, 3)
        other = count_by_enumeration(m, n, uk_set(3))
        if value != other:
            mismatch(f"U3({m},{n})", value, other)
        out[f"{m},{n}"] = encode(value)
    return out


def make_alpha(heights) -> dict:
    out = {}
    for m in heights:
        power = dominant_eigenvalue(m, M_SET)
        other = (float(spectrum_small(m, M_SET, guard=12)[0]) if m <= 12
                 else ratio_limit(m))
        if abs(power - other) > ALPHA_AGREE * other:
            mismatch(f"alpha_{m}", power, other)
        out[str(m)] = other
    return out


def self_check() -> None:
    """The two routes written here against the package on small boards."""
    for m in range(1, 9):
        seq = count_sequence(m, 9, M_SET)
        if colour_split_M(m, 9) != seq:
            mismatch(f"colour split at height {m}", colour_split_M(m, 9), seq)
        for n in range(0, 12):
            if diagonal_product_U(m, n) != upper_bound_U(m, n):
                mismatch(f"diagonal product U({m},{n})",
                         diagonal_product_U(m, n), upper_bound_U(m, n))


def main() -> None:
    self_check()
    boards, alphas = needed()
    makers = {"M": make_M, "L": make_L, "U": make_U, "Uk3": make_Uk3}
    refs = {}
    for table in sorted(boards):
        start = time.perf_counter()
        refs[table] = makers[table](boards[table])
        print(f"{table}: {len(refs[table])} boards in "
              f"{time.perf_counter() - start:.1f} s", flush=True)
    start = time.perf_counter()
    refs["alpha"] = make_alpha(alphas)
    print(f"alpha: {len(alphas)} heights in "
          f"{time.perf_counter() - start:.1f} s", flush=True)
    (HERE / "refs.json").write_text(json.dumps(refs, indent=0, sort_keys=True)
                                    + "\n")


if __name__ == "__main__":
    main()
