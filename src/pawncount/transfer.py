"""Transfer-matrix counting over column bitmask states.

A column of an m-row board is an m-bit mask whose most significant bit is
the top row, so a mask's integer value reads the column top to bottom.
Two columns may sit side by side iff no forbidden two-cell word straddles
them; iterating that relation counts boards column by column.  One step is
a subset-sum (zeta) transform followed by a gather, costing O(m * 2^m)
additions instead of O(4^m) pair tests, so the dense matrix is only ever
materialized for printing and spectra.  ``profile_step`` is that step, and
every column-profile count in the package runs on it.

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
columns of 2^ceil(m/2) and 2^floor(m/2) states; ``dominant_eigenvalue``
iterates the two-step operator on the even-row states.  The full 2^m sweep
stays the route for every pattern set and the check on the colour split.
``check_width`` guards every 2^w state array where its tables are built,
so the full sweep stops at m = 22 and the colour split at m = 44.

For L a legal column has no two vertical neighbours, so only F(m+1) of
its 2^m states can be non-zero (F(0) = F(1) = 1, as in ``closedforms``).
``isolated_sequence`` sweeps the board one cell at a time (a broken
profile) over the legal frontiers only: the m latest cells, one per row,
plus the cell left of the newest one, which its lower neighbour still
touches diagonally.  There are at most F(m+1) + F(m-1) of them, and the
sweep holds that count to the same 2^22 bound, so L runs to m = 30.  A
frontier's place in the state array is known in closed form (its m cells
are ranked by their Zeckendorf sum), so each cell step is two gathers with
no search.  The full sweep stays the independent check on it up to m = 22.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import accumulate, chain, cycle, islice, repeat
from typing import Callable, Iterable, Iterator

import numpy as np

from .closedforms import fibonacci
from .errors import MAX_STATES, MAX_WIDTH, GuardExceeded, NonConverged
from .oracle import M_SET, ForbiddenPatternSet

DEFAULT_DENSE_GUARD = 12
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200_000


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


def isolated_frontiers(m: int) -> int:
    """Most legal frontiers the L sweep of height m holds after one cell:
    F(m+1) path independent sets, plus F(m-1) with the extra cell set
    (after the cell in row 0, whose extra cell needs rows 0 and 1 clear)."""
    return fibonacci(m + 1) + fibonacci(m - 1)


def exact(x: np.ndarray) -> np.ndarray:
    """x itself while int64 holds its total and the next step exactly
    (len(x) * max(x) < 2^63, the counts being >= 0), else x as Python
    ints (dtype=object).  An object array passes on its dtype alone."""
    if x.dtype == object or len(x) * int(x.max()) <= np.iinfo(np.int64).max:
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
    if m < 1:
        raise ValueError("height must be >= 1")
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
    """Column-profile states for n = 1, 2, ...: entry w counts the m-by-n
    boards whose last column is w.  The n = 1 state is the bool table of
    legal columns (``keep``, or all True), so n = 1 costs one pass over
    them.  Once a step is taken, the step table is built and ``sweep`` runs
    on from an int64 copy, applying ``exact`` to each later state."""
    keep = _keep_table(m, pats)
    x = np.ones(1 << m, dtype=bool) if keep is None else keep
    yield x
    step = partial(profile_step, width=m, allowed=_allowed_table(m, pats), keep=keep)
    yield from islice(sweep(x.astype(np.int64), repeat(step)), 1, None)


def count_via_transfer(m: int, n: int, pats: ForbiddenPatternSet = M_SET) -> int:
    """Exact count of legal m-by-n boards via n-1 transfer steps.

    n = 0 gives 1; n = 1 gives the number of admissible columns.  Agreement
    with count_by_enumeration is what fixes the n-1 exponent.
    """
    if m < 1:
        raise ValueError("height must be >= 1 (empty boards count 1 by convention)")
    if n < 0:
        raise ValueError("column count must be >= 0")
    if n == 0:
        return 1
    return int(next(islice(_states(m, pats), n - 1, None)).sum())


def count_sequence(m: int, n_max: int, pats: ForbiddenPatternSet = M_SET) -> list[int]:
    """Counts for n = 0..n_max in one sweep (index by n)."""
    if m < 1:
        raise ValueError("height must be >= 1")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return [1] + [int(x.sum()) for x in islice(_states(m, pats), n_max)]


def colour_split_sequence(m: int, n_max: int) -> tuple[list[int], list[int]]:
    """Exact colour-class counts (B, W) of the m-by-n boards for
    n = 0..n_max (index by n); M(m, n) = B[n] * W[n].

    Cell (i, j) is black iff i + j is even, so B starts on the odd rows of
    column 1 and W on its even rows; each step moves a class to the other
    rows of the next column.
    """
    if m < 1:
        raise ValueError("height must be >= 1")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    steps = _colour_steps(m)

    def counts(width: int, order: list) -> list[int]:
        states = sweep(np.ones(1 << width, dtype=np.int64), cycle(order))
        return [1] + [int(x.sum()) for x in islice(states, n_max)]

    return counts((m + 1) // 2, steps), counts(m // 2, steps[::-1])


def _path_sets(m: int) -> np.ndarray:
    """The m-bit masks with no two adjacent bits set, ascending: those
    below 2^(m-1), then 2^(m-1) joined to the (m-2)-bit ones."""
    shorter, masks = np.zeros(1, dtype=np.int64), np.arange(2, dtype=np.int64)
    for top in range(1, m):
        shorter, masks = masks, np.concatenate((masks, shorter | 1 << top))
    return masks


def _isolated_steps(paths: np.ndarray, m: int
                    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Gather tables (lo, hi) of the m cell steps of one column, top row
    first: the count of frontier i after the step is x[lo[i]] + x[hi[i]]
    over the frontiers before it.

    A frontier is (f, e) once the cell in row r is placed.  Bit i of f
    (row 0 in the low bit) holds row i of the newest column for i <= r and
    of the one before it for i > r.  The cells of adjacent bits touch, so
    f is a path independent set, one of ``paths``, whose index there is
    its rank: the sum of F(i+1) over its set bits i.  e is the cell left
    of row r, legal only where rows r-1, r and r+1 of f are clear.  The
    frontiers are numbered (f, 0) by rank, then the legal (f, 1) by rank,
    then a sentinel (index -1) that always holds 0.

    Placing cell c in row r moves the old row-r cell into e and c into
    bit r, so the frontier before (f, e) is f with bit r set to e, a move
    of F(r+1) in rank, under either old e: lo is old e = 0, hi old e = 1.
    The old e is the cell up and to the left, so hi drops out where c = 1
    (except in row 0, whose old e lies at the foot of a column two back),
    and where that frontier is illegal.
    """
    rank = np.arange(len(paths))

    def ones(r: int) -> np.ndarray:
        """By rank of f, the index of the frontier (f, 1) after row r, or
        -1 where it is illegal."""
        legal = (paths & 7 << r >> 1) == 0
        index = np.full(len(paths), -1)
        index[legal] = len(paths) + np.arange(np.count_nonzero(legal))
        return index

    before = ones(m - 1)
    for r in range(m):
        index = ones(r)
        step = fibonacci(r + 1)
        c = paths >> r & 1
        lo0, lo1 = rank - c * step, np.flatnonzero(index >= 0) + step
        hi0 = before[lo0]
        if r:
            hi0[c == 1] = -1
        yield (np.concatenate((lo0, lo1, [-1])),
               np.concatenate((hi0, before[lo1], [-1])))
        before = index


def isolated_sequence(m: int, n_max: int) -> list[int]:
    """Exact L counts (no two 1s touch, diagonals included) of the m-by-n
    boards for n = 0..n_max (index by n), by a cell-by-cell sweep over the
    legal frontiers.  Each cell is one ``sweep`` step, so ``exact`` checks
    every cell state, and a column's count is read off every m-th state.

    The frontier count is held to MAX_STATES before any array exists, so
    L runs to m = 30.  The board starts from an empty column 0.  The
    gather tables of one column are kept for the whole sweep when they fit
    in MAX_STATES entries (to m = 24); past that they are rebuilt for each
    column.
    """
    if m < 1:
        raise ValueError("height must be >= 1")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    frontiers = isolated_frontiers(m)
    if frontiers > MAX_STATES:
        raise GuardExceeded(
            f"the L sweep at height {m} holds {frontiers} frontiers, above "
            f"the 2^{MAX_WIDTH} limit")
    paths = _path_sets(m)
    column = None
    if m * frontiers <= MAX_STATES:
        column = list(_isolated_steps(paths, m))
    # the frontiers after the foot of a column, as many as after its head
    x = np.zeros(frontiers + 1, dtype=np.int64)
    x[0] = 1
    cells = chain.from_iterable(column or _isolated_steps(paths, m)
                                for _ in range(n_max))
    steps = (lambda s, lo=lo, hi=hi: s[lo] + s[hi] for lo, hi in cells)
    return [int(x.sum()) for x in islice(sweep(x, steps), 0, None, m)]


def dominant_eigenvalue(m: int, pats: ForbiddenPatternSet = M_SET,
                        tol: float = DEFAULT_TOL,
                        max_iter: int = DEFAULT_MAX_ITER) -> float:
    """Largest eigenvalue alpha_m of the M transfer operator by power
    iteration on the colour split's two-step operator.

    With X the even-row to odd-row step, T^2 is X X^T (x) X^T X up to a
    state permutation, so alpha_m is the Perron root of the symmetric
    X^T X on 2^floor(m/2) states.  Every entry of X^T X is positive (the
    empty odd-row state fits every even-row state), so plain power
    iteration from the all-ones state converges; successive Rayleigh
    estimates within tol relative difference stop the loop.
    """
    if m < 1:
        raise ValueError("height must be >= 1")
    if pats != M_SET:
        raise ValueError("the dominant eigenvalue is computed for M only")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    # a NaN tolerance never stops the loop, an infinite one stops it at once
    if not math.isfinite(tol):
        raise ValueError("tolerance must be finite")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    from_odd, from_even = _colour_steps(m)
    x = np.ones(1 << (m // 2))
    prev = None
    for _ in range(max_iter):
        y = from_odd(from_even(x.copy()))
        estimate = float(x @ y) / float(x @ x)
        if prev is not None and abs(estimate - prev) <= tol * abs(estimate):
            return estimate
        prev = estimate
        x = y / np.max(y)
    raise NonConverged(
        f"power iteration did not converge within {max_iter} iterations "
        f"(tol={tol}); raise max_iter")


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
