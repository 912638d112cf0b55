"""Workload definitions: size classes and the calls one pass issues.

Each workload is a list of draws.  A draw is a size class (the boards or
arguments it may pick) together with how many calls of that class one
pass issues.  ``generate`` picks the concrete calls from a seed, writes
any input files they need and shuffles the order; the program under test
only ever sees the resulting argv and files.  ``make_refs.py`` walks the
same classes to list every board a class can draw, so the committed
references cover every call a seed can produce.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Call:
    """One CLI call: argv after ``python -m pawncount`` and what to expect."""

    argv: tuple[str, ...]
    expect: dict


def grid(heights, widths) -> tuple[tuple[int, int], ...]:
    return tuple((m, n) for m in heights for n in widths)


def cells_at_most(limit: int) -> tuple[tuple[int, int], ...]:
    return tuple((m, n) for m in range(1, limit + 1)
                 for n in range(1, limit // m + 1))


def canonical(m: int, n: int) -> tuple[int, int]:
    """M, U, U_k and L counts are all invariant under transposition."""
    return (m, n) if m <= n else (n, m)


class Draw:
    """A size class.  ``boards`` and ``alphas`` list every reference its
    calls can need: (table, (m, n)) pairs and eigenvalue heights."""

    def boards(self):
        return ()

    def alphas(self):
        return ()


class Count(Draw):
    """``count`` on one board drawn from ``dims``."""

    def __init__(self, per_pass: int, quantity: str, dims, *, method=None,
                 k=None, swap=False, known_defect=False):
        self.per_pass = per_pass
        self.quantity = quantity  # one of M, U, L, or a tuple to draw from
        self.dims = dims
        self.method = method
        self.k = k
        self.swap = swap
        self.known_defect = known_defect

    def _quantities(self) -> tuple[str, ...]:
        q = self.quantity
        return (q,) if isinstance(q, str) else tuple(q)

    def draws(self, rng: random.Random, work: Path) -> list[Call]:
        return [self._draw(rng) for _ in range(self.per_pass)]

    def _draw(self, rng: random.Random) -> Call:
        quantity = rng.choice(self._quantities())
        m, n = rng.choice(self.dims)
        if self.swap and rng.random() < 0.5:
            m, n = n, m
        as_json = rng.random() < 0.5
        argv = ["count", "-m", str(m), "-n", str(n), "--quantity", quantity]
        if self.k is not None:
            argv += ["--k", str(self.k)]
        if self.method is not None:
            argv += ["--method", self.method]
        if as_json:
            argv.append("--json")
        table = quantity if self.k is None else f"{quantity}k{self.k}"
        return Call(tuple(argv), {
            "kind": "count", "table": table, "m": m, "n": n,
            "label": quantity if self.k is None else "Uk",
            "json": as_json, "known_defect": self.known_defect})

    def boards(self):
        for quantity in self._quantities():
            table = quantity if self.k is None else f"{quantity}k{self.k}"
            for m, n in self.dims:
                yield table, canonical(m, n)


class Eigen(Draw):
    """``eigen -m M``: ``per_pass`` heights drawn from ``heights``, or each
    height once when ``per_pass`` is None."""

    def __init__(self, heights, *, per_pass=None, spectrum=False):
        self.heights = tuple(heights)
        self.per_pass = per_pass
        self.spectrum = spectrum

    def draws(self, rng: random.Random, work: Path) -> list[Call]:
        if self.per_pass is None:
            heights = list(self.heights)
        else:
            heights = [rng.choice(self.heights) for _ in range(self.per_pass)]
        calls = []
        for m in heights:
            as_json = rng.random() < 0.5
            argv = ["eigen", "-m", str(m)]
            if self.spectrum:
                argv.append("--spectrum")
            if as_json:
                argv.append("--json")
            calls.append(Call(tuple(argv), {
                "kind": "eigen", "m": m, "spectrum": self.spectrum,
                "json": as_json}))
        return calls

    def boards(self):
        # The spectrum check compares the sum of squared eigenvalues with
        # M(m, 2), the number of compatible column pairs.
        if self.spectrum:
            for m in self.heights:
                yield "M", canonical(m, 2)

    def alphas(self):
        return self.heights


class Table(Draw):
    """One ``table`` call over a grid whose corner is drawn from the given
    ranges, in a drawn output format."""

    def __init__(self, quantities, max_ms, max_ns):
        self.quantities = tuple(quantities)
        self.max_ms = tuple(max_ms)
        self.max_ns = tuple(max_ns)

    def draws(self, rng: random.Random, work: Path) -> list[Call]:
        quantity = rng.choice(self.quantities)
        max_m = rng.choice(self.max_ms)
        max_n = rng.choice(self.max_ns)
        fmt = rng.choice(("markdown", "csv", "json"))
        argv = ("table", "--quantity", quantity, "--max-m", str(max_m),
                "--max-n", str(max_n), "--format", fmt)
        return [Call(argv, {"kind": "table", "table": quantity,
                            "max_m": max_m, "max_n": max_n, "format": fmt})]

    def boards(self):
        for quantity in self.quantities:
            for m in range(1, max(self.max_ms) + 1):
                for n in range(1, max(self.max_ns) + 1):
                    yield quantity, canonical(m, n)


def isolated_matrix(rng: random.Random, m: int, n: int) -> list[list[int]]:
    """Random matrix whose 1s have no king-move neighbour (an L board)."""
    rows = [[0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            near = [(i - 1, j - 1), (i - 1, j), (i - 1, j + 1), (i, j - 1)]
            if any(0 <= a < m and 0 <= b < n and rows[a][b] for a, b in near):
                continue
            rows[i][j] = 1 if rng.random() < 0.45 else 0
    return rows


class Bijection(Draw):
    """One ``bijection`` call on a generated isolated matrix of 2 to 8 rows
    and columns, in one direction."""

    def __init__(self, invert: bool):
        self.invert = invert

    def draws(self, rng: random.Random, work: Path) -> list[Call]:
        sizes = range(2, 9)
        m, n = rng.choice(sizes), rng.choice(sizes)
        rows = isolated_matrix(rng, m, n)
        text = "\n".join("".join(map(str, r)) for r in rows)
        anchors = [[i + 1, j + 1] for i in range(m) for j in range(n)
                   if rows[i][j]]
        tiling = {"rows": m + 1, "cols": n + 1, "anchors": anchors}
        if self.invert:
            path = work / "tiling.json"
            path.write_text(json.dumps(tiling))
            argv = ("bijection", "--tiling-json", str(path), "--invert")
            return [Call(argv, {"kind": "bijection-inverse", "matrix": text})]
        path = work / "matrix.txt"
        path.write_text(text + "\n")
        argv = ("bijection", "--matrix-file", str(path))
        return [Call(argv, {"kind": "bijection-forward", "tiling": tiling})]


class Verify(Draw):
    """One ``verify --level LEVEL`` call; the battery checks itself."""

    def __init__(self, level: str):
        self.level = level

    def draws(self, rng: random.Random, work: Path) -> list[Call]:
        as_json = rng.random() < 0.5
        argv = ("verify", "--level", self.level) + (("--json",) if as_json else ())
        return [Call(argv, {"kind": "verify", "level": self.level,
                            "json": as_json})]


# U boards with about 0.209 * m * n decimal digits; every board of this class
# needs more than 4300, the default int-to-str limit, so ``count`` exits 2
# on all of them (known defect: ``str(value)`` in ``cmd_count``).
U_PAST_STR_LIMIT = grid(range(150, 181), range(150, 181))

# The decomposition route sums over all state pairs of adjacent columns,
# 4^(m/2) work per column of height m, and its guard counts cells, not
# column height: 26x3 takes 16 s and 100x1 does not finish.  The class keeps
# boards of at most 100 cells but caps the height at 12 so every call ends.
DECOMPOSITION_BOARDS = tuple((m, n) for m, n in cells_at_most(100) if m <= 12)

WORKLOADS = {
    "cli-small": [
        Count(3, "M", grid(range(1, 7), range(1, 31)), swap=True),
        Count(3, "M", grid(range(7, 11), range(7, 21)), swap=True),
        Count(2, ("M", "U", "L"), cells_at_most(16), method="oracle"),
        Count(2, "M", DECOMPOSITION_BOARDS, method="decomposition"),
        Count(1, "U", cells_at_most(20), k=3),
        Count(2, "U", grid(range(60, 101), range(60, 101))),
        Count(2, "U", U_PAST_STR_LIMIT, known_defect=True),
        # Heights up to 8: the dense matrix at 9 lifts the child's peak RSS
        # from 36 to 39 MB, which would make peak_rss_mb depend on the seed.
        Eigen(range(5, 9), per_pass=1, spectrum=True),
        Table(("M", "U", "L"), range(1, 7), range(1, 11)),
        Bijection(invert=False),
        Bijection(invert=True),
        Verify("quick"),
    ],
    "tall-M": [
        Count(1, "M", grid([14], range(96, 101)), swap=True),
        Count(1, "M", grid([15], range(30, 33)), swap=True),
        Count(1, "M", grid([16], range(16, 18)), swap=True),
        Table(("M",), [13], [40]),
        Eigen((16, 17, 18)),
    ],
    "tall-LU": [
        Count(1, "L", grid([14], range(30, 33)), swap=True),
        Count(1, "L", grid([15], range(20, 23)), swap=True),
        Count(1, "L", grid([16], range(20, 22)), swap=True),
        Count(1, "U", grid([14], range(20, 23)), method="transfer"),
        Count(1, "U", grid([15], range(20, 23)), method="transfer"),
        Table(("L",), [14], [40]),
    ],
    "verify-full": [
        Verify("full"),
    ],
}

# The untimed warm-up call of every set-up; its reference is M(3,5) = 2117.
WARMUP = Count(1, "M", ((3, 5),))


def generate(workload: str, seed: int, work: Path) -> list[Call]:
    """The calls of one pass, in a seed-shuffled order; writes input files."""
    rng = random.Random(f"{workload}:{seed}")
    work.mkdir(parents=True, exist_ok=True)
    calls = [call for draw in WORKLOADS[workload]
             for call in draw.draws(rng, work)]
    rng.shuffle(calls)
    return calls


def warmup_call() -> Call:
    return WARMUP.draws(random.Random(0), Path("."))[0]
