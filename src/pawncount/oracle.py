"""Ground-truth enumeration of pattern-avoiding binary matrices.

Boards are binary matrices with 1-based cells, row 1 at the top; a matrix
is one packed int, row-major with row 1 column 1 in the most significant
bit.  A ForbiddenPatternSet names small forbidden configurations (diagonal
pairs, axis pairs, diagonal runs), and one pattern table of shifts and
masks on the packed int serves the enumeration and ``find_violation``.
This module counts the matrices avoiding a set by scanning all 2^(m*n)
candidates, bit-sliced in chunks of 2^16 (a board of fewer than 16 cells
is one chunk): one Python int holds a chunk, bit t standing for candidate
start + t.  Cell b of the candidates is a
plane of that chunk, a fixed 2^16-bit pattern for the 16 low cells and
all 0s or all 1s for the others, so each placement of a banned pattern is
an AND of its cells' planes, and a chunk's illegal candidates are the OR
of its placements.  Every other counting route in the package is
validated against this one.  The module imports no numpy.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache

from .errors import GuardExceeded, InvalidK, MatrixFormatError

ENUMERATION_GUARD = 25
#: Candidates per chunk of the scan, as a power of two.
_CHUNK_BITS = 16


class BoardDims(namedtuple("BoardDims", "m n")):
    """Board size; an empty board (m == 0 or n == 0) has one placement."""

    __slots__ = ()

    def __new__(cls, m: int, n: int):
        if m < 0 or n < 0:
            raise ValueError(f"dimensions must be nonnegative, got {m}x{n}")
        return super().__new__(cls, m, n)

    @property
    def cells(self) -> int:
        return self.m * self.n


class ForbiddenPatternSet(namedtuple(
        "ForbiddenPatternSet",
        "diag_down diag_up horiz_pair vert_pair diag_run_k")):
    """Which two-cell words (or k-cell diagonal runs) are banned.

    diag_down forbids 1s at (i, j) and (i+1, j+1); diag_up forbids 1s at
    (i+1, j) and (i, j+1); horiz_pair and vert_pair forbid axis-adjacent
    1s.  diag_run_k forbids k consecutive 1s going down-right and excludes
    diag_down (a run of two is that same pattern).
    """

    __slots__ = ()

    def __new__(cls, diag_down: bool = False, diag_up: bool = False,
                horiz_pair: bool = False, vert_pair: bool = False,
                diag_run_k: int | None = None):
        if diag_run_k is not None:
            if diag_run_k < 2:
                raise InvalidK(f"diagonal run length must be >= 2, got {diag_run_k}")
            if diag_down:
                raise ValueError("diag_run_k and diag_down are mutually exclusive")
        if not (diag_down or diag_up or horiz_pair or vert_pair or diag_run_k):
            raise ValueError("at least one forbidden pattern must be set")
        return super().__new__(cls, diag_down, diag_up, horiz_pair, vert_pair,
                               diag_run_k)


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


class BinaryMatrix(namedtuple("BinaryMatrix", "dims packed")):
    """Bit grid packed row-major into one int: cell (i, j) is bit
    m*n - (i-1)*n - j, so row 1 column 1 is the most significant."""

    __slots__ = ()

    def __new__(cls, dims: BoardDims, packed: int):
        if not 0 <= packed < 1 << dims.cells:
            raise ValueError(
                f"{packed} does not fit the {dims.cells} cells of a "
                f"{dims.m}x{dims.n} matrix")
        return super().__new__(cls, dims, packed)

    @classmethod
    def from_text(cls, text: str) -> "BinaryMatrix":
        """Parse the matrix text format: one '0'/'1' line per row, row 1 first."""
        stripped = text.rstrip("\n")
        if not stripped:
            return cls(BoardDims(0, 0), 0)
        lines = stripped.split("\n")
        n = len(lines[0])
        for i, line in enumerate(lines, start=1):
            if len(line) != n or n == 0:
                raise MatrixFormatError(f"row {i} has length {len(line)}, expected {n}")
            for j, ch in enumerate(line, start=1):
                if ch not in "01":
                    raise MatrixFormatError(f"row {i} column {j}: {ch!r} is not 0/1")
        return cls(BoardDims(len(lines), n), int("".join(lines), 2))

    def to_text(self) -> str:
        m, n = self.dims.m, self.dims.n
        bits = format(self.packed, f"0{m * n}b")
        return "\n".join(bits[r * n:(r + 1) * n] for r in range(m))


@lru_cache(maxsize=512)
def _violation_checks(m: int, n: int, pats: ForbiddenPatternSet
                      ) -> tuple[tuple[str, tuple[int, ...], int, int], ...]:
    """The pattern table: one (name, shifts, mask, offset) row per banned
    pattern, in the order find_violation breaks ties.

    A packed x holds the pattern where x & mask & (x >> s for s in shifts)
    has a hit bit: with MSB-first packing, x >> d moves each cell d places
    later in row-major order, so the hit lands on the pattern's last cell,
    and the mask keeps the placements that fit on the board.  A hit bit
    plus offset is the bit of the occurrence's top-left corner.
    """
    mn = m * n
    checks: list[tuple[str, tuple[int, ...], int, int]] = []

    def add(name: str, height: int, width: int, cells: tuple[int, ...]) -> None:
        # cells: row-major offsets of the pattern's cells from its corner
        if height > m or width > n:
            return
        last = cells[-1]
        # the mask as a bit string, row 1 first: one row pattern per row of
        # corners, moved on by the last cell's offset; what passes mn is
        # the pad of the final row pattern, never a placement
        row = "1" * (n - width + 1) + "0" * (width - 1)
        bits = ("0" * last + row * (m - height + 1))[:mn]
        checks.append((name, tuple(last - d for d in cells[:-1]),
                       int(bits.ljust(mn, "0"), 2), last))

    if pats.diag_down:
        add("diag_down", 2, 2, (0, n + 1))
    if pats.diag_up:
        add("diag_up", 2, 2, (1, n))
    if pats.horiz_pair:
        add("horiz_pair", 1, 2, (0, 1))
    if pats.vert_pair:
        add("vert_pair", 2, 1, (0, n))
    k = pats.diag_run_k
    # a run longer than the shortest side fits nowhere; the test comes
    # before its k offsets are built
    if k is not None and k <= min(m, n):
        add(f"diag_run_{k}", k, k, tuple(t * (n + 1) for t in range(k)))
    return tuple(checks)


def find_violation(mat: BinaryMatrix,
                   pats: ForbiddenPatternSet) -> tuple[str, tuple[int, int]] | None:
    """First forbidden occurrence, scanning row-major, or None if legal.

    Returns the pattern name and the 1-based top-left corner of the
    occurrence's bounding box.  Each row of the pattern table finds its
    own first occurrence in its highest hit bit; the smallest corner wins,
    ties going to the earlier row.
    """
    m, n = mat.dims.m, mat.dims.n
    x = mat.packed
    first = None
    for name, shifts, mask, offset in _violation_checks(m, n, pats):
        hits = x & mask
        for s in shifts:
            hits &= x >> s
        if hits:
            corner = m * n - hits.bit_length() - offset
            if first is None or corner < first[0]:
                first = (corner, name)
    if first is None:
        return None
    row, col = divmod(first[0], n)
    return first[1], (row + 1, col + 1)


def _check_guard(dims: BoardDims) -> None:
    if dims.cells > ENUMERATION_GUARD:
        raise GuardExceeded(
            f"enumerating 2^{dims.cells} candidate matrices exceeds the "
            f"{ENUMERATION_GUARD}-cell guard; use the transfer engine for "
            "boards this large")


@lru_cache(maxsize=_CHUNK_BITS + 1)
def _planes(width: int) -> tuple[int, ...]:
    """planes[b] has bit t set iff bit b of t is, for t below 2^width: the
    values of cell bit b across a chunk of 2^width candidates."""
    size = 1 << width
    # written most significant bit first: per 2^(b+1) values of t, 2^b
    # with bit b set above 2^b without
    return tuple(int(("1" * run + "0" * run) * (size // (2 * run)), 2)
                 for run in (1 << b for b in range(width)))


def _placements(dims: BoardDims, pats: ForbiddenPatternSet, width: int
                ) -> list[tuple[int, int]]:
    """(high, plane) per group of banned placements in a chunk of 2^width
    candidates: a candidate holds one of the group's placements iff its
    bits from width up include high and its chunk offset is set in plane.

    A placement's cells below width AND their planes; its cells above are
    constant over a chunk, so they only decide whether the placement can
    occur there.  Placements sharing their high cells share an entry.
    """
    planes = _planes(width)
    groups: dict[int, int] = {}
    for _, shifts, mask, _ in _violation_checks(dims.m, dims.n, pats):
        while mask:
            hit = mask.bit_length() - 1
            mask ^= 1 << hit
            high, plane = 0, (1 << (1 << width)) - 1
            for cell in (hit, *(hit + s for s in shifts)):
                if cell < width:
                    plane &= planes[cell]
                else:
                    high |= 1 << cell
            groups[high] = groups.get(high, 0) | plane
    return list(groups.items())


def _scan(dims: BoardDims, pats: ForbiddenPatternSet) -> Iterator[tuple[int, int]]:
    """(start, legal) for each chunk of the 2^(m*n) packed matrices in
    ascending order: bit t of legal says whether start + t is legal.  An
    empty board is the single candidate 0."""
    width = min(dims.cells, _CHUNK_BITS)
    full = (1 << (1 << width)) - 1
    placements = _placements(dims, pats, width)
    for start in range(0, 1 << dims.cells, 1 << width):
        illegal = 0
        for high, plane in placements:
            if start & high == high:
                illegal |= plane
        yield start, full ^ illegal


def one_positions(bits: str) -> Iterator[int]:
    """The indices of the 1s in a string of binary digits, ascending."""
    i = bits.find("1")
    while i >= 0:
        yield i
        i = bits.find("1", i + 1)


def count_by_enumeration(m: int, n: int, pats: ForbiddenPatternSet) -> int:
    """Exact number of m-by-n matrices avoiding pats, by direct enumeration.

    Empty boards count 1.  Raises GuardExceeded beyond ENUMERATION_GUARD
    cells.
    """
    dims = BoardDims(m, n)
    _check_guard(dims)
    return sum(legal.bit_count() for _, legal in _scan(dims, pats))


def enumerate_legal(m: int, n: int,
                    pats: ForbiddenPatternSet) -> Iterator[BinaryMatrix]:
    """Yield every legal matrix once, in lexicographic order of the
    row-major bit string.  Stream length equals count_by_enumeration.

    The guard is checked before the stream is returned, not when it is
    first read."""
    dims = BoardDims(m, n)
    _check_guard(dims)
    return (BinaryMatrix(dims, start + t) for start, legal in _scan(dims, pats)
            for t in one_positions(format(legal, "b")[::-1]))
