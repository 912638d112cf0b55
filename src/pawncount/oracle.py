"""Ground-truth enumeration of pattern-avoiding binary matrices.

Boards are binary matrices with 1-based cells, row 1 at the top.  A
ForbiddenPatternSet names small forbidden configurations (diagonal pairs,
axis pairs, diagonal runs); this module counts the matrices avoiding them
by scanning all 2^(m*n) candidates, vectorized in chunks.  Every other
counting route in the package is validated against this one.  numpy is
imported only by the scan, so the pattern sets and the matrix type load
without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator

from .errors import GuardExceeded, InvalidK, MatrixFormatError

if TYPE_CHECKING:
    import numpy as np

DEFAULT_ENUMERATION_GUARD = 25
_CHUNK = 1 << 20


@dataclass(frozen=True)
class BoardDims:
    """Board size; an empty board (m == 0 or n == 0) has one placement."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0:
            raise ValueError(f"dimensions must be nonnegative, got {self.m}x{self.n}")

    @property
    def cells(self) -> int:
        return self.m * self.n


@dataclass(frozen=True)
class ForbiddenPatternSet:
    """Which two-cell words (or k-cell diagonal runs) are banned.

    diag_down forbids 1s at (i, j) and (i+1, j+1); diag_up forbids 1s at
    (i+1, j) and (i, j+1); horiz_pair and vert_pair forbid axis-adjacent
    1s.  diag_run_k forbids k consecutive 1s going down-right and excludes
    diag_down (a run of two is that same pattern).
    """

    diag_down: bool = False
    diag_up: bool = False
    horiz_pair: bool = False
    vert_pair: bool = False
    diag_run_k: int | None = None

    def __post_init__(self) -> None:
        if self.diag_run_k is not None:
            if self.diag_run_k < 2:
                raise InvalidK(f"diagonal run length must be >= 2, got {self.diag_run_k}")
            if self.diag_down:
                raise ValueError("diag_run_k and diag_down are mutually exclusive")
        if not (self.diag_down or self.diag_up or self.horiz_pair
                or self.vert_pair or self.diag_run_k):
            raise ValueError("at least one forbidden pattern must be set")


#: Nonattacking pawns: both diagonal pairs banned.
M_SET = ForbiddenPatternSet(diag_down=True, diag_up=True)
#: One diagonal pair banned; counts the M upper bound exactly.
U_SET = ForbiddenPatternSet(diag_down=True)
#: Fully isolated 1s: both diagonals plus horizontal and vertical pairs.
L_SET = ForbiddenPatternSet(diag_down=True, diag_up=True,
                            horiz_pair=True, vert_pair=True)


def uk_set(k: int) -> ForbiddenPatternSet:
    """Pattern set forbidding k consecutive 1s on a down-right diagonal."""
    return ForbiddenPatternSet(diag_run_k=k)


@dataclass(frozen=True)
class BinaryMatrix:
    """Row-major bit grid; ``cells[(i-1)*n + (j-1)]`` is cell (i, j)."""

    dims: BoardDims
    cells: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.cells) != self.dims.cells:
            raise ValueError(
                f"expected {self.dims.cells} cells for {self.dims.m}x{self.dims.n}, "
                f"got {len(self.cells)}")
        if any(c not in (0, 1) for c in self.cells):
            raise ValueError("cells must be 0 or 1")

    @classmethod
    def from_text(cls, text: str) -> "BinaryMatrix":
        """Parse the matrix text format: one '0'/'1' line per row, row 1 first."""
        stripped = text.rstrip("\n")
        if not stripped:
            return cls(BoardDims(0, 0), ())
        lines = stripped.split("\n")
        n = len(lines[0])
        cells: list[int] = []
        for i, line in enumerate(lines, start=1):
            if len(line) != n or n == 0:
                raise MatrixFormatError(f"row {i} has length {len(line)}, expected {n}")
            for j, ch in enumerate(line, start=1):
                if ch == "0":
                    cells.append(0)
                elif ch == "1":
                    cells.append(1)
                else:
                    raise MatrixFormatError(f"row {i} column {j}: {ch!r} is not 0/1")
        return cls(BoardDims(len(lines), n), tuple(cells))

    def to_text(self) -> str:
        n = self.dims.n
        return "\n".join(
            "".join(str(c) for c in self.cells[r * n:(r + 1) * n])
            for r in range(self.dims.m))

    def cell(self, i: int, j: int) -> int:
        """Cell value at 1-based (row, column)."""
        return self.cells[(i - 1) * self.dims.n + (j - 1)]

    @property
    def packed(self) -> int:
        """Cells as one integer, first cell in the most significant bit."""
        value = 0
        for c in self.cells:
            value = (value << 1) | c
        return value

    @classmethod
    def from_packed(cls, m: int, n: int, value: int) -> "BinaryMatrix":
        mn = m * n
        cells = tuple((value >> (mn - 1 - p)) & 1 for p in range(mn))
        return cls(BoardDims(m, n), cells)


@lru_cache(maxsize=512)
def _violation_checks(m: int, n: int,
                      pats: ForbiddenPatternSet) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(shifts, mask) pairs: a packed matrix violates some pattern iff
    ANDing (packed >> s for s in shifts) hits the mask.

    With MSB-first packing, a cell pair at row-major offset d lands on the
    bit of the later cell after ANDing with the d-shifted value; the mask
    keeps only placements that fit on the board.
    """
    mn = m * n
    checks: list[tuple[tuple[int, ...], int]] = []

    def add(shifts: tuple[int, ...], firsts: list[int], span: int) -> None:
        mask = 0
        for p in firsts:
            mask |= 1 << (mn - 1 - p - span)
        if mask:
            checks.append((shifts, mask))

    if pats.diag_down:
        add((0, n + 1),
            [r * n + c for r in range(m - 1) for c in range(n - 1)], n + 1)
    if pats.diag_up and n >= 2:
        add((0, n - 1),
            [r * n + c + 1 for r in range(m - 1) for c in range(n - 1)], n - 1)
    if pats.horiz_pair:
        add((0, 1), [r * n + c for r in range(m) for c in range(n - 1)], 1)
    if pats.vert_pair:
        add((0, n), [r * n + c for r in range(m - 1) for c in range(n)], n)
    k = pats.diag_run_k
    if k is not None and m >= k and n >= k:
        d = n + 1
        add(tuple(j * d for j in range(k)),
            [r * n + c for r in range(m - k + 1) for c in range(n - k + 1)],
            (k - 1) * d)
    return tuple(checks)


def matrix_avoids(mat: BinaryMatrix, pats: ForbiddenPatternSet) -> bool:
    """True iff no forbidden configuration from pats occurs anywhere in mat."""
    x = mat.packed
    for shifts, mask in _violation_checks(mat.dims.m, mat.dims.n, pats):
        acc = x
        for s in shifts[1:]:
            acc &= x >> s
        if acc & mask:
            return False
    return True


def find_violation(mat: BinaryMatrix,
                   pats: ForbiddenPatternSet) -> tuple[str, tuple[int, int]] | None:
    """First forbidden occurrence, scanning row-major, or None if legal.

    Returns the pattern name and the 1-based top-left corner of the
    occurrence's bounding box.
    """
    m, n = mat.dims.m, mat.dims.n
    cell = mat.cell
    k = pats.diag_run_k
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if i < m and j < n:
                if pats.diag_down and cell(i, j) and cell(i + 1, j + 1):
                    return ("diag_down", (i, j))
                if pats.diag_up and cell(i + 1, j) and cell(i, j + 1):
                    return ("diag_up", (i, j))
            if pats.horiz_pair and j < n and cell(i, j) and cell(i, j + 1):
                return ("horiz_pair", (i, j))
            if pats.vert_pair and i < m and cell(i, j) and cell(i + 1, j):
                return ("vert_pair", (i, j))
            if k is not None and i + k - 1 <= m and j + k - 1 <= n:
                if all(cell(i + t, j + t) for t in range(k)):
                    return (f"diag_run_{k}", (i, j))
    return None


def _legal_chunk(xs: np.ndarray, checks) -> np.ndarray:
    import numpy as np

    legal = np.ones(xs.shape, dtype=bool)
    for shifts, mask in checks:
        acc = xs
        for s in shifts[1:]:
            acc = acc & (xs >> np.uint64(s))
        legal &= (acc & np.uint64(mask)) == 0
    return legal


def _check_guard(dims: BoardDims, guard: int) -> None:
    if dims.cells > guard:
        raise GuardExceeded(
            f"enumerating 2^{dims.cells} candidate matrices exceeds the "
            f"{guard}-cell guard; use the transfer engine for boards this large")


def count_by_enumeration(m: int, n: int, pats: ForbiddenPatternSet,
                         guard: int = DEFAULT_ENUMERATION_GUARD) -> int:
    """Exact number of m-by-n matrices avoiding pats, by direct enumeration.

    Empty boards count 1.  Raises GuardExceeded beyond ``guard`` cells.
    """
    import numpy as np

    dims = BoardDims(m, n)
    if dims.cells == 0:
        return 1
    _check_guard(dims, guard)
    checks = _violation_checks(m, n, pats)
    size = 1 << dims.cells
    total = 0
    for start in range(0, size, _CHUNK):
        xs = np.arange(start, min(start + _CHUNK, size), dtype=np.uint64)
        total += int(np.count_nonzero(_legal_chunk(xs, checks)))
    return total


def enumerate_legal(m: int, n: int, pats: ForbiddenPatternSet,
                    guard: int = DEFAULT_ENUMERATION_GUARD) -> Iterator[BinaryMatrix]:
    """Yield every legal matrix once, in lexicographic order of the
    row-major bit string.  Stream length equals count_by_enumeration."""
    dims = BoardDims(m, n)
    _check_guard(dims, guard)
    return _enumerate(dims, pats)


def _enumerate(dims: BoardDims, pats: ForbiddenPatternSet) -> Iterator[BinaryMatrix]:
    import numpy as np

    if dims.cells == 0:
        yield BinaryMatrix(dims, ())
        return
    m, n = dims.m, dims.n
    checks = _violation_checks(m, n, pats)
    size = 1 << dims.cells
    for start in range(0, size, _CHUNK):
        xs = np.arange(start, min(start + _CHUNK, size), dtype=np.uint64)
        for v in xs[_legal_chunk(xs, checks)]:
            yield BinaryMatrix.from_packed(m, n, int(v))
