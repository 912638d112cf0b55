"""Transfer-matrix counting over column bitmask states.

A column of an m-row board is an m-bit mask whose most significant bit is
the top row, so a mask's integer value reads the column top to bottom.
Two columns may sit side by side iff no forbidden two-cell word straddles
them; iterating that relation counts boards column by column.  One step is
a subset-sum (zeta) transform followed by a gather, costing O(m * 2^m)
additions instead of O(4^m) pair tests, so the dense matrix is only ever
materialized for printing and spectra.  ``profile_step`` is that step, and
every column-profile count in the package runs on it; ``power`` repeats it
on float lists for power iteration on up to 2^12 states.

Every exact sweep runs on ``sweep``, the one place ``exact`` is applied:
it holds the counts in int64 while they fit and in Python ints
(dtype=object) from then on.  Counts are never negative, so every partial
subset sum of a zeta pass, every entry it gathers and the state's total
are at most that total, itself at most len(x) * max(x); a frontier step of
the L sweep adds two entries, at most 2 * max(x).  So while
len(x) * max(x) < 2^63 the state's total and the next step are exact in
int64.  ``exact`` tests that bound on each new state and switches the
array to Python ints once it fails; the switch is one way, and every
returned count is an int.

For M the profile splits by colour: diagonal attacks join odd rows of one
column only to even rows of the next, so the black and white cells form
two independent rotated square lattices (the hard-square model) and
M(m, n) = B * W.  ``colour_split_sequence`` sweeps each class on half-height
columns of 2^ceil(m/2) and 2^floor(m/2) states; ``power.dominant_eigenvalue``
iterates the two-step operator on the even-row states, on these steps
(``colour_estimates``, the kernel's one float caller) past 2^12 states
only.  The full 2^m sweep stays the route for every pattern set and the
check on the colour split.
``check_width`` guards every 2^w state array where its tables are built,
so the full sweep stops at m = 22 and the colour split at m = 44.

For L a legal column has no two vertical neighbours, so only F(m+1) of
its 2^m states can be non-zero (F(0) = F(1) = 1, as in ``closedforms``);
``_path_sets`` lists them.  L past height 3 is counted by ``frontier``'s
cell-by-cell sweep, whose numpy form runs on ``sweep``.  The full sweep
stays the independent check on it up to m = 22.

Each exact sweep here (``_states``, ``_colour_sweeps``) yields its column
states u_0, u_1, ..., read by ``frontier``'s ``_sequence`` and
``_midpoint`` (a single board is u_a . u_b at its middle column).  The
right half turned around must again be a board of the same rule: a
180-degree turn maps every two-cell pattern onto itself, so
``count_via_transfer`` reads T^(b-1) 1 = R u_b, u_b at the row-flipped
masks (T^T = R T R), which U, with its one diagonal, needs.  M's colour
classes and L ban both diagonals and are read left to right;
``colour_split_count`` crosses the two classes' ends at even n.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterable, Iterator
from functools import partial
from itertools import accumulate, chain, cycle, islice, repeat

import numpy as np

from .errors import MAX_WIDTH, GuardExceeded
from .frontier import _ends, _midpoint, _sequence, check_board
from .oracle import M_SET, ForbiddenPatternSet
from .power import dominant_eigenvalue  # noqa: F401  (re-exported)

DEFAULT_DENSE_GUARD = 12
#: Largest total ``exact`` leaves in int64.
INT64_MAX = np.iinfo(np.int64).max


def _keep_table(m: int, pats: ForbiddenPatternSet) -> np.ndarray | None:
    """keep[w] says whether column w of height m is legal on its own; None
    when every column is (no vertical pair is forbidden).

    The legal columns are the path sets, so the 2^m bool table is set at
    their F(m+2) masks: no 2^m integer array of masks is built."""
    k = pats.diag_run_k
    if k is not None and k > 2:
        raise ValueError(
            "the transfer construction handles two-cell patterns only; "
            f"diagonal runs of length {k} are counted by formula or enumeration")
    check_width(m)
    if not pats.vert_pair:
        return None
    keep = np.zeros(1 << m, dtype=bool)
    keep[_path_sets(m)] = True
    return keep


def _allowed_table(m: int, pats: ForbiddenPatternSet) -> np.ndarray:
    """allowed[w] holds the cells a left neighbour of column w may fill
    (call after ``_keep_table``, which validates the pattern set)."""
    w = np.arange(1 << m)
    blocked = np.zeros_like(w)
    if pats.diag_down or pats.diag_run_k == 2:
        blocked |= w << 1
    if pats.diag_up:
        blocked |= w >> 1
    if pats.horiz_pair:
        blocked |= w
    return ((1 << m) - 1) & ~blocked


def _colour_steps(m: int) -> list[Callable[[np.ndarray], np.ndarray]]:
    """The M rule between the colour classes of neighbouring columns, as
    two ``profile_step`` calls bound to their tables: first the step from the
    odd-row cells (rows 1, 3, ...) of a column to the even-row cells
    (rows 2, 4, ...) of the next, then the step from even rows to odd rows.
    Bit k of a class state holds the k-th cell of that class from the top.

    Odd row 2k+1 is diagonal to even rows 2k and 2k+2 (bits k-1 and k), so
    an even state s leaves its left neighbour the odd cells off s | s << 1,
    and an odd state s leaves the even cells off s | s >> 1.
    """
    odd, even = (m + 1) // 2, m // 2
    check_width(odd)
    s = np.arange(1 << even)
    to_even = ((1 << odd) - 1) & ~(s | s << 1)
    s = np.arange(1 << odd)
    to_odd = ((1 << even) - 1) & ~(s | s >> 1)
    return [partial(profile_step, width=odd, allowed=to_even),
            partial(profile_step, width=even, allowed=to_odd)]


def check_width(width: int) -> None:
    """Refuse a column profile wider than MAX_WIDTH before any of its
    2^width arrays exist."""
    if width > MAX_WIDTH:
        raise GuardExceeded(
            f"a column profile of {width} cells needs 2^{width} states, above "
            f"the 2^{MAX_WIDTH} limit")


def exact(x: np.ndarray) -> np.ndarray:
    """x itself while int64 holds its total and the next step exactly
    (len(x) * max(x) < 2^63, the counts being >= 0), else x as Python
    ints (dtype=object).  An object array passes on its dtype alone."""
    if x.dtype == object or len(x) * int(x.max()) <= INT64_MAX:
        return x
    return x.astype(object)


def sweep(x: np.ndarray, steps: Iterable[Callable[[np.ndarray], np.ndarray]]
          ) -> Iterator[np.ndarray]:
    """x, then exact(step(state)) for each step in turn: the states of an
    exact sweep, the only place ``exact`` is applied.  A step is drawn only
    once the state before it is consumed, and may overwrite that state."""
    return accumulate(steps, lambda state, step: exact(step(state)), initial=x)


def profile_step(x: np.ndarray, width: int, allowed: np.ndarray,
                 keep: np.ndarray | None = None) -> np.ndarray:
    """One column-profile step: entry w of the result sums x over the
    subsets of allowed[w], and is 0 where keep is False.

    x holds 2^width entries and is overwritten by its subset-sum (zeta)
    transform.  An exact sweep passes int64 while ``sweep`` keeps it, then
    dtype=object Python ints; float64 serves power iteration.
    """
    for b in range(width):
        pairs = x.reshape(-1, 2, 1 << b)
        pairs[:, 1] += pairs[:, 0]
    y = x[allowed]
    if keep is not None:
        y[~keep] = 0
    return y


def build_transfer(m: int, pats: ForbiddenPatternSet = M_SET,
                   guard: int = DEFAULT_DENSE_GUARD) -> np.ndarray:
    """The 0/1 transfer matrix for height m as an int8 array over the
    admissible columns in ascending mask order: entry (i, j) is 1 iff
    column i may sit left of column j."""
    check_board(m)
    if m > guard:
        raise GuardExceeded(
            f"dense transfer at height {m} needs up to 2^{m} vertices, above "
            f"the 2^{guard} limit; eigen without --spectrum gives the dominant "
            "eigenvalue by power iteration")
    keep = _keep_table(m, pats)
    allowed = _allowed_table(m, pats)
    # narrow unsigned masks keep the broadcast's square temporary small
    mask = np.min_scalar_type((1 << m) - 1)
    v = (np.arange(1 << m) if keep is None else np.flatnonzero(keep)).astype(mask)
    left = v[:, None]
    return ((left & allowed[v].astype(mask)) == left).astype(np.int8)


def _states(m: int, pats: ForbiddenPatternSet) -> Iterator[np.ndarray]:
    """Column-profile states for n = 0, 1, 2, ...: entry w counts the
    m-by-n boards whose last column is w, and the n = 0 state is the one
    empty board.  The pattern set and the width are checked before it is
    yielded.  The n = 1 state is the bool table of legal columns (``keep``,
    or all True), so n = 1 costs one pass over them.  Once a step is taken,
    the step table is built and ``sweep`` runs on from an int64 copy,
    applying ``exact`` to each later state."""
    keep = _keep_table(m, pats)
    yield np.ones(1, dtype=bool)
    x = np.ones(1 << m, dtype=bool) if keep is None else keep
    yield x
    step = partial(profile_step, width=m, allowed=_allowed_table(m, pats), keep=keep)
    yield from islice(sweep(x.astype(np.int64), repeat(step)), 1, None)


def _reversed_bits(m: int) -> np.ndarray:
    """r[w] is the m-bit mask w read bottom to top (R, the row flip)."""
    r = np.zeros(1, dtype=np.int64)
    for bit in reversed(range(m)):
        r = np.concatenate((r, r | 1 << bit))
    return r


def count_via_transfer(m: int, n: int, pats: ForbiddenPatternSet = M_SET) -> int:
    """Exact count of legal m-by-n boards: the sum over w of
    u_a[w] * u_b[R w] at the middle column a, with R reversing a mask's m
    bits (the 180-degree turn), in about n/2 transfer steps.  n <= 2 is
    read off the plain sweep: n = 0 gives 1 and n = 1 the number of
    admissible columns.
    """
    check_board(m, n)
    return _midpoint(_states(m, pats), n, turn=lambda x: x[_reversed_bits(m)])


def count_sequence(m: int, n_max: int, pats: ForbiddenPatternSet = M_SET) -> list[int]:
    """Counts for n = 0..n_max in one sweep (index by n)."""
    check_board(m, n_max)
    return _sequence(_states(m, pats), n_max)


def colour_split_sequence(m: int, n_max: int) -> tuple[list[int], list[int]]:
    """Exact colour-class counts (B, W) of the m-by-n boards for
    n = 0..n_max (index by n); M(m, n) = B[n] * W[n].

    Cell (i, j) is black iff i + j is even, so B starts on the odd rows of
    column 1 and W on its even rows; each step moves a class to the other
    rows of the next column.
    """
    check_board(m, n_max)
    return tuple(_sequence(states, n_max) for states in _colour_sweeps(m))


def _colour_sweeps(m: int) -> Iterator[Iterator[np.ndarray]]:
    """The black, then the white class states after 0, 1, 2, ... columns,
    the empty board's the single entry 1.  The width is checked at once;
    the white sweep starts when drawn, so the black one is let go first."""
    steps = _colour_steps(m)
    empty = [np.ones(1, dtype=np.int64)]
    return (chain(empty, sweep(np.ones(1 << width, dtype=np.int64), cycle(order)))
            for width, order in (((m + 1) // 2, steps), (m // 2, steps[::-1])))


def colour_split_count(m: int, n: int) -> tuple[int, int]:
    """Exact colour-class counts (B, W) of the m-by-n board, read off the
    middle column of each class sweep: M(m, n) = B * W.

    Mirroring the b columns right of column a keeps each cell's row and
    changes its colour iff n is even.  With b_j and w_j the black and white
    class states after j columns, B = b_a . b_b and W = w_a . w_b for odd
    n; B = b_a . w_b and W = w_a . b_b for even n.  n <= 2 is read off the
    plain sweeps.
    """
    check_board(m, n)
    if n <= 2 or n % 2:
        return tuple(_midpoint(states, n) for states in _colour_sweeps(m))
    (b_a, b_b), (w_a, w_b) = (_ends(states, n) for states in _colour_sweeps(m))
    return sum(map(operator.mul, b_a, w_b)), sum(map(operator.mul, w_a, b_b))


def _path_sets(m: int) -> np.ndarray:
    """The m-bit masks with no two adjacent bits set, ascending: those
    below 2^(m-1), then 2^(m-1) joined to the (m-2)-bit ones."""
    shorter, masks = np.zeros(1, dtype=np.int64), np.arange(2, dtype=np.int64)
    for top in range(1, m):
        shorter, masks = masks, np.concatenate((masks, shorter | 1 << top))
    return masks


def colour_estimates(m: int) -> Iterator[float]:
    """``power``'s Rayleigh estimates of X^T X (x = 1, A 1, ..., each
    scaled to a top entry of 1) on the numpy colour steps, for operators
    too wide for its list path; the width is checked before any array
    exists."""
    from_odd, from_even = _colour_steps(m)
    x = np.ones(1 << (m // 2))
    while True:
        y = from_odd(from_even(x.copy()))
        yield float(x @ y) / float(x @ x)
        x = y / np.max(y)


def spectrum_small(m: int, pats: ForbiddenPatternSet = M_SET,
                   guard: int = DEFAULT_DENSE_GUARD) -> np.ndarray:
    """All eigenvalues of the dense M transfer matrix, descending.

    Swapping two columns swaps the two diagonal pairs, and M bans both,
    so its adjacency is symmetric and the symmetric eigensolver serves.
    """
    if pats != M_SET:
        raise ValueError("the spectrum is computed for M only")
    dense = build_transfer(m, pats, guard=guard).astype(np.float64)
    return np.linalg.eigvalsh(dense)[::-1]
