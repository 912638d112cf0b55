"""Square tilings (1x1 and 2x2 tiles) of rectangles and the matrix bijection.

A tiling is stored as its set of 2x2 anchors (top-left cells); all other
cells are 1x1 tiles.  Placing a 2x2 tile with its top-left corner on every
1 of a fully-isolated matrix, then trimming the last row and column, is a
bijection between the isolated m-by-n matrices and tilings of the
(m+1)-by-(n+1) board.  The tiling counter here is a column-profile sweep
over 2x2 coverage masks.  It shares the zeta-and-gather step and the
exact-sweep driver with the transfer engine (``transfer.profile_step``,
``transfer.sweep``), but its state model, which cells of the next column
2x2 tiles already cover, is its own, so a tiling count is still an
independent check on the isolated-matrix counts.  The step itself is
checked independently by the brute-force oracle and the closed forms.
Only the counter imports numpy and ``transfer``, and only the two JSON
functions import ``json``; the bijection and ``render_ascii`` load
neither.

``Tiling`` stores its anchors as one packed int: the (rows-1)x(cols-1)
matrix with a 1 on every anchor, in ``BinaryMatrix``'s packing.  So theta
is ``find_violation`` plus a wrap, and its inverse a size guard plus an
unwrap; only an anchor list (JSON input, or a caller's tuple) is checked,
then packed in linear time.

``Tiling`` checks an anchor list for overlaps itself, by looking up each
anchor's later neighbours in the set of anchors, rather than calling
``oracle.find_violation`` with ``L_SET`` on the packed int.  The three
reasons for that still hold.  Two anchors overlap exactly where the
anchor matrix breaks the L rule, so the check is a second, independent
implementation of the rule, and the tests compare the two.  The two name
different pairs: for anchors (1,2), (1,3), (2,1) the tiling reports
"anchors (1,2) and (1,3) overlap", the first anchor in row-major order
with a later one on its tile, where ``find_violation`` reports
``diag_up`` at (1,1).  And the check runs before the size guard, so an
anchor list on a board too large to pack, where ``find_violation`` would
have no matrix to scan, still reports its overlaps; the forward map,
which needs no overlap check, wraps a matrix above 2^22 cells without a
guard and still works.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from functools import partial
from itertools import repeat

from .errors import (MAX_STATES, MAX_WIDTH, GuardExceeded, IllegalMatrix,
                     InvalidTiling)
from .oracle import (L_SET, BinaryMatrix, BoardDims, find_violation,
                     one_positions)

Anchor = tuple[int, int]


def _check_size(rows: int, cols: int) -> None:
    """Refuse a board whose anchor matrix has more than MAX_STATES cells:
    a few bytes of tiling JSON can name any board size."""
    m, n = rows - 1, cols - 1
    if m * n > MAX_STATES:
        raise GuardExceeded(
            f"a {rows}x{cols} tiling maps to a {m}x{n} matrix of "
            f"{m * n} cells, above the 2^{MAX_WIDTH} limit")


def _check_overlaps(ordered: list[Anchor]) -> None:
    """Raise InvalidTiling for the first overlapping pair of the sorted
    anchors, in row-major order, if any two overlap."""
    taken = set(ordered)
    if len(taken) == len(ordered) and not any(
            (r, c + 1) in taken or (r + 1, c - 1) in taken
            or (r + 1, c) in taken or (r + 1, c + 1) in taken
            for r, c in ordered):
        return
    # some tiles overlap: name the first pair in row-major order
    for idx, (r, c) in enumerate(ordered):
        # the anchors sorting after (r, c) whose tiles meet its own, in
        # row-major order: a repeat of it, then its four later neighbours
        later = [(r, c + 1), (r + 1, c - 1), (r + 1, c), (r + 1, c + 1)]
        if ordered[idx + 1:idx + 2] == [(r, c)]:
            later.insert(0, (r, c))
        for (r2, c2) in later:
            if (r2, c2) in taken:
                raise InvalidTiling(
                    f"anchors ({r},{c}) and ({r2},{c2}) overlap")


class Tiling(namedtuple("Tiling", "rows cols packed")):
    """Board with 2x2 tiles at ``anchors`` (1-based top-left cells) and 1x1
    tiles everywhere else.  ``packed`` holds the anchors as the
    (rows-1)x(cols-1) matrix with a 1 on each, in ``BinaryMatrix``'s
    packing; ``anchors`` reads them back sorted row-major.

    ``Tiling(rows, cols, anchors)`` checks and packs an anchor list;
    ``Tiling._make((rows, cols, packed))`` wraps a packed int the caller
    has checked."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, anchors: Iterable[Anchor]):
        if rows < 0 or cols < 0:
            raise ValueError("dimensions must be nonnegative")
        ordered = sorted(anchors)
        for (r, c) in ordered:
            if not (1 <= r < rows and 1 <= c < cols):
                raise InvalidTiling(
                    f"anchor ({r},{c}) leaves the {rows}x{cols} board")
        _check_overlaps(ordered)
        _check_size(rows, cols)
        m, n = max(rows - 1, 0), max(cols - 1, 0)
        bits = bytearray(b"0" * (m * n))
        for (r, c) in ordered:
            bits[(r - 1) * n + c - 1] = ord("1")
        return super().__new__(cls, rows, cols, int(bits, 2) if bits else 0)

    def __reduce__(self):
        # copy and pickle rebuild from the packed int, not an anchor list
        return self._make, (tuple(self),)

    @property
    def anchors(self) -> tuple[Anchor, ...]:
        """The anchors, sorted row-major, read back from ``packed``."""
        n = self.cols - 1
        bits = format(self.packed, f"0{max(self.rows - 1, 0) * max(n, 0)}b")
        return tuple((i // n + 1, i % n + 1) for i in one_positions(bits))


def theta_forward(mat: BinaryMatrix) -> Tiling:
    """Map a fully-isolated matrix to the tiling of the board one row and
    one column larger, with a 2x2 tile anchored on every 1."""
    violation = find_violation(mat, L_SET)
    if violation is not None:
        pattern, pos = violation
        raise IllegalMatrix(
            f"matrix has forbidden {pattern} at {pos}; only fully-isolated "
            "matrices map to tilings")
    return Tiling._make((mat.dims.m + 1, mat.dims.n + 1, mat.packed))


def theta_inverse(tiling: Tiling) -> BinaryMatrix:
    """Map a tiling back to the matrix with a 1 on every 2x2 anchor, after
    trimming the last row and column.  Inverse of theta_forward.

    A matrix of more than MAX_STATES cells is refused: the forward map
    wraps matrices of any size, and the inverse holds them to the bound
    the anchor lists are held to."""
    m, n = tiling.rows - 1, tiling.cols - 1
    if m < 0 or n < 0:
        raise InvalidTiling(
            f"a {tiling.rows}x{tiling.cols} tiling has no matrix: theta adds "
            "one row and one column")
    _check_size(tiling.rows, tiling.cols)
    return BinaryMatrix(BoardDims(m, n), tiling.packed)


def _pair_union_masks(rows: int) -> np.ndarray:
    """keep[w]: mask w is a union of disjoint adjacent-bit pairs, a possible
    2x2 coverage of one column.  Such a w is 3p = p | p << 1 (no carries)
    for a p with no two adjacent bits, and every such 3p is one."""
    import numpy as np

    w = np.arange(1 << rows)
    p = w // 3
    return (w % 3 == 0) & ((p & p >> 1) == 0)


def tiling_sequence(rows: int, cols_max: int) -> list[int]:
    """Tilings of the rows-by-c boards for c = 0..cols_max (index by c),
    from one column-profile sweep of height rows.

    State w: the cells of the next column that 2x2 tiles already cover.
    New tiles protrude by a coverage mask disjoint from the current state,
    and after c columns state 0 counts the tilings of rows x c."""
    if rows < 0 or cols_max < 0:
        raise ValueError("dimensions must be nonnegative")
    import numpy as np

    from .transfer import check_width, profile_step, sweep

    check_width(rows)
    size = 1 << rows
    step = partial(profile_step, width=rows, allowed=(size - 1) ^ np.arange(size),
                   keep=_pair_union_masks(rows))
    dp = np.zeros(size, dtype=np.int64)
    dp[0] = 1
    return [int(x[0]) for x in sweep(dp, repeat(step, cols_max))]


def count_tilings(rows: int, cols: int) -> int:
    """Exact number of tilings of a rows-by-cols board with 1x1 and 2x2
    squares, via a column profile of 2x2 protrusions.

    The profile runs over the smaller dimension (counts are symmetric)."""
    if rows < 0 or cols < 0:
        raise ValueError("dimensions must be nonnegative")
    return tiling_sequence(min(rows, cols), max(rows, cols))[-1]


def render_ascii(tiling: Tiling) -> str:
    """Draw each 2x2 tile as a block of one letter and each 1x1 as '.'."""
    if tiling.rows == 0 or tiling.cols == 0:
        return ""
    grid = [["."] * tiling.cols for _ in range(tiling.rows)]
    for idx, (r, c) in enumerate(tiling.anchors):
        ch = "abcdefghijklmnopqrstuvwxyz"[idx % 26]
        for dr in (0, 1):
            for dc in (0, 1):
                grid[r - 1 + dr][c - 1 + dc] = ch
    return "\n".join("".join(row) for row in grid)


def tiling_to_json(tiling: Tiling) -> str:
    """Canonical JSON: {"rows": R, "cols": C, "anchors": [[r, c], ...]}
    with anchors sorted row-major."""
    import json

    return json.dumps({
        "rows": tiling.rows,
        "cols": tiling.cols,
        "anchors": [[r, c] for (r, c) in tiling.anchors],
    })


def _clipped_repr(item, limit: int = 80) -> str:
    """repr(item) for a decoded JSON value, or its first ``limit`` - 3
    characters and '...' when it is longer than ``limit``.  An explicit
    stack stands in for repr's recursion and the walk stops at the limit,
    so a deeply nested entry neither recurses nor prints a page of
    brackets.  Literal text rides the stack as 1-tuples, which JSON never
    decodes to."""
    text, stack = "", [item]
    while stack and len(text) <= limit:
        x = stack.pop()
        if isinstance(x, tuple):
            text += x[0]
        elif isinstance(x, list):
            inner = [p for value in x for p in ((", ",), value)][1:]
            stack += [("]",), *reversed(inner), ("[",)]
        elif isinstance(x, dict):
            inner = [p for key, value in x.items()
                     for p in ((", ",), (f"{key!r}: ",), value)][1:]
            stack += [("}",), *reversed(inner), ("{",)]
        else:
            text += repr(x)
    return text if len(text) <= limit else text[:limit - 3] + "..."


def tiling_from_json(text: str) -> Tiling:
    """Parse and validate the tiling JSON format."""
    import json

    # the decoder recurses once per nested array or object, so a deep
    # enough file raises RecursionError
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InvalidTiling(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidTiling("tiling JSON must be an object")
    try:
        rows = data["rows"]
        cols = data["cols"]
        raw_anchors = data["anchors"]
    except KeyError as exc:
        raise InvalidTiling(f"missing key {exc}") from exc
    # bool is an int subclass; JSON true is no board size
    if type(rows) is not int or type(cols) is not int:
        raise InvalidTiling("rows and cols must be integers")
    if rows < 1 or cols < 1:
        raise InvalidTiling(
            f"a {rows}x{cols} tiling has no matrix: theta adds one row and "
            "one column")
    if not isinstance(raw_anchors, list):
        raise InvalidTiling("anchors must be a list of [row, col] pairs")
    anchors = []
    for item in raw_anchors:
        if (not isinstance(item, list) or len(item) != 2
                or not all(type(x) is int for x in item)):
            raise InvalidTiling(f"bad anchor entry {_clipped_repr(item)}")
        anchors.append((item[0], item[1]))
    return Tiling(rows, cols, tuple(anchors))
