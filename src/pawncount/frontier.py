"""The L frontier sweep, in two forms: on packed Python ints and on
numpy arrays; and the two readers that turn every exact sweep's column
states into counts.

L counts the boards whose 1s touch nowhere, diagonals included.  Its
sweep places one cell at a time over the legal frontiers: the m latest
cells, one per row, plus the cell left of the newest one, which its lower
neighbour still touches diagonally.  A frontier is (f, e): f an m-bit path
set (no two adjacent bits, row 0 in the low bit), ranked by its Zeckendorf
sum (``transfer._path_sets`` lists them by rank), and e that extra cell.
This module checks the arguments and the frontier guard, then runs the
sweep in one of its two forms, which share one layout and one cell step.

The state is x0, the (f, 0) counts by rank of f, and x1, the (f, 1) counts
by rank, 0 where that frontier is illegal.  Placing the cell in row r
moves the old row-r cell into e, so with k = F(r+1), the rank offset of
bit r, the cell step is

    t  = x0 + x1
    x0 = t, but u k ranks down where f has bit r set (set_r),
         u = t in row 0, else the old x0
    x1 = t k ranks up where rows r-1, r and r+1 of f are clear (legal_r),
         else 0

The old e is the cell up and to the left of the new one, so it drops out
where the new cell is set, except in row 0, whose old e lies at the foot
of a column two back.  After a whole column, the boards whose last column
is f number x0[f] + x1[f], so y = x0 + x1 holds the column state.

Packed, x0 and x1 are one int each, each frontier an S-bit slot at the
rank of f, and with k = S * F(r+1) the step is seven big-int operations:

    t  = x0 + x1
    x0 = t ^ ((t ^ (u << k)) & set_r)
    x1 = (t >> k) & legal_r

set_r sets every bit of the slots whose f has bit r set, so x0 takes u's
slot one rank offset down there and t's slot elsewhere ((t & ~set_r) |
((u << k) & set_r) with no second mask); legal_r sets those of the f with
rows r-1, r and r+1 clear.  A column's total is the sum of y's slots,
y mod (2^S - 1).

Slot width.  A sweep to u_N, the state after N columns, holds partial
boards of at most N columns; each extends with empty cells to a legal
board of N columns, so no slot exceeds L(m, N).  Cutting a board between
two columns leaves two legal boards, so L(m, a + b) <= L(m, a) L(m, b),
and L(m, N) <= L(m, 4)^ceil(N/4).  L(m, 4) is the transposed L(4, m),
swept here at height 4 on 8 path sets, where F(5)^m bounds it.  S is one
bit past the smaller of that bound and F(m+1)^N (a column is one of
F(m+1) path sets), rounded up to whole bytes, so no slot, no sum t and no
total carries into the next slot.

As arrays, x0 and x1 are the two halves of one array of 2 F(m+1) entries,
each cell one ``transfer.sweep`` step (int64 while ``exact`` allows it,
Python ints after), and the step is one addition and two masked copies,
its masks taken from the path sets at each cell.  The guard counts the
legal frontiers, F(m+1) + F(m-1); the F(m+1) - F(m-1) illegal (f, 1)
entries stay 0, and at m = 30 they take the array 4% past 2^22 entries.

Route.  The packed sweep costs about m * N * F(m+1) * S bit operations,
and S grows with N, so its cost grows as N^2; the array sweep costs about
m * N * F(m+1) additions of S-bit Python ints once past int64, but
importing numpy takes about 0.1 s.  A sweep whose estimate is at most
PACKED_WORK runs packed; a longer one runs on arrays.  ``_form`` makes
that choice for both entry points.

Readers.  Every exact sweep (``transfer``'s full profile and colour
classes, and both forms here) yields its column states u_0, u_1, ..., u_0
the empty board's, after the checks that guard it.  Its readers live here,
as this module loads no numpy, and see a state through two functions: its
total and its entries as a list (numpy's by default; ``_total`` and
``_slots`` packed).  ``_sequence`` takes the totals of u_0..u_n_max.
``_midpoint`` reads u_n's total for n <= 2, else one board of n columns
as two boards of a = ceil((n+1)/2) and b = n+1-a columns that share the
middle column: with u_j = (T^T)^(j-1) 1, 1^T T^(n-1) 1 = u_a^T T^(b-1) 1,
the identity Calkin and Wilf use for hard squares, in about n/2 steps and
Python ints.  ``_ends`` reads u_b into a list as soon as it is drawn, as
the step to u_a may overwrite it (``transfer.profile_step``'s zeta pass),
so no state is copied.  A caller that reads the right half from its far
end passes that map as ``turn``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from functools import partial
from itertools import cycle, islice
from operator import methodcaller, mul

from .closedforms import fibonacci
from .errors import MAX_STATES, MAX_WIDTH, GuardExceeded

#: Largest estimated packed sweep, in bit operations (m * columns * F(m+1)
#: * S), that runs on packed ints.  Cold calls on both routes tied at
#: estimates of 6 to 11 * 10^8 (2 vCPUs); packed won everywhere below.
PACKED_WORK = 500_000_000


def check_board(m: int, n: int = 0) -> None:
    """Refuse a height below 1 or a negative column count."""
    if m < 1:
        raise ValueError("height must be >= 1")
    if n < 0:
        raise ValueError("column count must be >= 0")


def isolated_frontiers(m: int) -> int:
    """Most legal frontiers the L sweep of height m holds after one cell:
    F(m+1) path independent sets, plus F(m-1) with the extra cell set
    (after the cell in row 0, whose extra cell needs rows 0 and 1 clear)."""
    return fibonacci(m + 1) + fibonacci(m - 1)


def check_frontiers(m: int) -> int:
    """The frontier count of height m, refused above MAX_STATES before
    any state exists (L runs to m = 30).  F(k+2) >= 2 F(k), so the count
    at height 2 MAX_WIDTH is already past 2^MAX_WIDTH, and a taller board
    is refused by that height's count without walking m Fibonacci terms."""
    top = min(m, 2 * MAX_WIDTH)
    frontiers = isolated_frontiers(top)
    if frontiers > MAX_STATES:
        raise GuardExceeded(
            f"the L sweep at height {m} holds {'more than ' * (top < m)}"
            f"{frontiers} frontiers, above the 2^{MAX_WIDTH} limit")
    return frontiers


def isolated_sequence(m: int, n_max: int) -> list[int]:
    """Exact L counts (no two 1s touch, diagonals included) of the m-by-n
    boards for n = 0..n_max (index by n), from one frontier sweep."""
    check_board(m, n_max)
    check_frontiers(m)
    columns, total, _ = _form(m, n_max)
    return _sequence(columns, n_max, total)


def isolated_count(m: int, n: int) -> int:
    """Exact L count of the m-by-n board, read off the middle column of
    the frontier sweep (``_midpoint``), with no turn: L is mirror symmetric."""
    check_board(m, n)
    check_frontiers(m)
    columns, total, entries = _form(m, n if n <= 2 else (n + 2) // 2)
    return _midpoint(columns, n, total, entries)


def _form(m: int, columns: int) -> tuple[Iterator, Callable, Callable]:
    """The L sweep of height m to u_columns as (column states, total,
    entries): packed at ``_packed_width``'s slot width, else on arrays."""
    width = _packed_width(m, columns)
    if width is None:
        return _array_columns(m), _array_total, _array_entries
    return (_packed_columns(m, width), partial(_total, width=width),
            partial(_slots, m=m, width=width))


def _packed_width(m: int, columns: int) -> int | None:
    """The slot width S of the packed sweep of height m to u_columns, or
    None if its estimated work, m * columns * F(m+1) * S, is above
    PACKED_WORK.  A sweep too long even at S = 8 is refused before its
    bound, a power with about columns * m bits, is taken."""
    slots = m * columns * fibonacci(m + 1)
    if slots * 8 > PACKED_WORK:
        return None
    width = _width(m, columns)
    return width if slots * width <= PACKED_WORK else None


def _width(m: int, columns: int) -> int:
    """Slot width S, in bits, of a sweep of height m to u_columns: whole
    bytes for values up to min(F(m+1)^columns, L(m, 4)^ceil(columns/4))
    (the module docstring's bound), one bit spare."""
    # L(m, 4) = L(4, m); F(5)^m bounds the slots of that sweep
    slot = _bytes(fibonacci(5) ** m)
    four = _sequence(_packed_columns(4, slot), m,
                     partial(_total, width=slot))[m]
    return _bytes(min(fibonacci(m + 1) ** columns, four ** -(-columns // 4)))


def _bytes(bound: int) -> int:
    """Bits in whole bytes for values up to bound, one bit spare."""
    return -(-(bound.bit_length() + 1) // 8) * 8


def _row_masks(m: int, width: int) -> list[int]:
    """set_r for r = 0..m-1: the slots of the f with bit r set, every bit
    of such a slot set, over the m-bit path sets by rank.

    The k-bit path sets are the (k-1)-bit ones, then 2^(k-1) joined to the
    (k-2)-bit ones at rank F(k) on, so each mask of height k is built
    from those of heights k-1 and k-2 by a shift and an OR of whole slot
    blocks: bit k-2 is never set in the upper block, and bit k-1 is set
    exactly there, on F(k-1) slots."""
    shorter, masks = [], []
    size, below = 1, 1          # F(k), F(k-1) for k = 1
    for _ in range(m):
        shift = width * size
        shorter, masks = masks, [
            *(a | b << shift for a, b in zip(masks, shorter)),
            *masks[len(shorter):],
            ((1 << width * below) - 1) << shift]
        size, below = size + below, size
    return masks


def _packed_columns(m: int, width: int) -> Iterator[int]:
    """The packed column states y_0, y_1, y_2, ... of the sweep of height
    m at slot width `width`, y_0 the empty board's; the masks are built
    once y_0 is drawn.  The caller draws only the columns `width` holds."""
    yield 1
    sets = _row_masks(m, width)
    full = (1 << width * fibonacci(m + 1)) - 1
    # the (f, 1) frontier after row r needs rows r-1, r and r+1 of f clear
    legal = [full ^ (sets[r] | (sets[r - 1] if r else 0)
                     | (sets[r + 1] if r + 1 < m else 0)) for r in range(m)]
    (k_0, set_0, legal_0), *rest = zip(
        (width * fibonacci(r + 1) for r in range(m)), sets, legal)
    x0, x1 = 1, 0
    while True:
        t = x0 + x1
        x0, x1 = t ^ (t ^ t << k_0) & set_0, t >> k_0 & legal_0
        for k, set_r, legal_r in rest:
            t = x0 + x1
            x0, x1 = t ^ (t ^ x0 << k) & set_r, t >> k & legal_r
        yield x0 + x1


def _total(y: int, width: int) -> int:
    """The sum of the slots of y (y mod 2^width - 1): the upper half of
    the slots is added onto the lower half until one slot is left.  No
    sum carries, as each is part of the column's total."""
    while y.bit_length() > width:
        half = -(-y.bit_length() // (2 * width)) * width
        y = (y >> half) + (y & (1 << half) - 1)
    return y


def _slots(y: int, m: int, width: int) -> list[int]:
    """The F(m+1) slots of a packed column state, by rank."""
    step = width // 8
    raw = y.to_bytes(step * fibonacci(m + 1), "little")
    return [int.from_bytes(raw[i:i + step], "little")
            for i in range(0, len(raw), step)]


def _array_columns(m: int) -> Iterator[np.ndarray]:
    """The column states y_0, y_1, y_2, ... of the array sweep of height m,
    each x0 + x1 by rank after a whole column of cell steps."""
    import numpy as np

    from .transfer import _path_sets, sweep

    paths = _path_sets(m)
    size = len(paths)
    x = np.zeros(2 * size, dtype=np.int64)
    x[0] = 1
    cells = sweep(x, (partial(_array_step, paths=paths, r=r)
                      for r in cycle(range(m))))
    return (state[:size] + state[size:]
            for state in islice(cells, 0, None, m))


def _array_step(x: np.ndarray, paths: np.ndarray, r: int) -> np.ndarray:
    """The cell step in row r on x = x0 then x1, into a new array; paths
    is ``transfer._path_sets(m)``."""
    import numpy as np

    size, k = len(paths), fibonacci(r + 1)
    y = np.zeros_like(x)
    t = np.add(x[:size], x[size:], out=y[:size])
    # x1 is set before x0 overwrites t
    np.copyto(y[size:-k], t[k:], where=(paths[:-k] & 7 << r >> 1) == 0)
    np.copyto(t[k:], (t if r == 0 else x)[:size - k],
              where=(paths[k:] >> r & 1).astype(bool))
    return y


def _array_total(u: np.ndarray) -> int:
    """The total of a numpy column state, as a Python int."""
    return int(u.sum())


#: The entries of a numpy column state, as Python ints.
_array_entries = methodcaller("tolist")


def _sequence(columns: Iterable, n_max: int,
              total: Callable = _array_total) -> list[int]:
    """The totals of the column states u_0, u_1, ..., u_n_max of a sweep:
    the counts for n = 0..n_max (index by n)."""
    return [total(u) for u in islice(columns, n_max + 1)]


def _ends(columns: Iterable, n: int, entries: Callable = _array_entries,
          turn: Callable = lambda u: u) -> tuple[list[int], list[int]]:
    """(entries(u_a), entries(turn(u_b))) from a sweep's column states,
    for an n-column board (n >= 1): a = b for odd n and a = b+1 for even
    n.  u_b is read before u_a is drawn, and the sweep stops at u_a."""
    columns = iter(columns)
    u = next(islice(columns, (n + 1) // 2, None))
    right = entries(turn(u))
    if n % 2 == 0:
        del u  # a fresh u_b (the frontier's) would stay live to u_a
        u = next(columns)
    return entries(u), right


def _midpoint(columns: Iterable, n: int, total: Callable = _array_total,
              entries: Callable = _array_entries,
              turn: Callable = lambda u: u) -> int:
    """The count of the n-column board from a sweep's column states:
    u_a . turn(u_b) (``_ends``) in Python ints, as two halves may each fit
    int64 while their dot product does not.  n <= 2 is u_n's total, so an
    empty board still draws u_0 and the checks made before it."""
    if n <= 2:
        return total(next(islice(columns, n, None)))
    return sum(map(mul, *_ends(columns, n, entries, turn)))
