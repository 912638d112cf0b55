"""alpha_m, the growth rate of M, by power iteration in plain floats.

alpha_m is the dominant eigenvalue of the M transfer matrix T.  With X the
colour split's step from even-row to odd-row cell states (``transfer``'s
module docstring), T^2 is X X^T (x) X^T X up to a state permutation, so
alpha_m is the Perron root of the symmetric X^T X on 2^floor(m/2) states:
the hard-square operator of Calkin and Wilf.

Up to 2^LIST_WIDTH states (m <= 25) the operator is applied to Python
float lists: a subset-sum (zeta) pass and a gather each way, the two
halves of ``transfer.profile_step``, with the same additions in the same
order.  At those sizes numpy takes longer to import than the whole
iteration takes, so this module never loads it.  Past that bound the
iteration runs on ``transfer``'s numpy steps, which are faster there.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import islice
from operator import add, mul

from .errors import NonConverged
from .oracle import M_SET, ForbiddenPatternSet

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200_000
#: Widest even-row state the list path serves.  Cold ``eigen`` calls were
#: faster on lists up to m = 25 (2^12 states) and on numpy from m = 26.
LIST_WIDTH = 12


def dominant_eigenvalue(m: int, pats: ForbiddenPatternSet = M_SET,
                        tol: float = DEFAULT_TOL,
                        max_iter: int = DEFAULT_MAX_ITER) -> float:
    """Largest eigenvalue alpha_m of the M transfer operator by power
    iteration on the colour split's two-step operator X^T X.

    Every entry of X^T X is positive (the empty odd-row state fits every
    even-row state), so plain power iteration from the all-ones state
    converges; successive Rayleigh estimates within tol relative
    difference stop the loop.
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
    if m // 2 <= LIST_WIDTH:
        estimates = _list_estimates(m)
    else:
        from .transfer import colour_estimates

        estimates = colour_estimates(m)
    prev = None
    for estimate in islice(estimates, max_iter):
        if prev is not None and abs(estimate - prev) <= tol * abs(estimate):
            return estimate
        prev = estimate
    raise NonConverged(
        f"power iteration did not converge within {max_iter} iterations "
        f"(tol={tol}); raise max_iter")


def _list_estimates(m: int) -> Iterator[float]:
    """The Rayleigh estimates x.Ax / x.x of A = X^T X for x = 1, A 1,
    A^2 1, ..., each x scaled to a top entry of 1, on Python float lists.

    Bit k of a colour-class state holds the k-th cell of that class from
    the top.  Odd row 2k+1 is diagonal to even rows 2k and 2k+2, so an
    even state s leaves the odd cells off s | s << 1 free, and an odd
    state s the even cells off s | s >> 1 (``transfer._colour_steps``).
    """
    odd, even = (m + 1) // 2, m // 2
    to_even = [((1 << odd) - 1) & ~(s | s << 1) for s in range(1 << even)]
    to_odd = [((1 << even) - 1) & ~(s | s >> 1) for s in range(1 << odd)]
    x = [1.0] * (1 << even)
    while True:
        y = x[:]
        _zeta(y)
        y = list(map(y.__getitem__, to_odd))
        _zeta(y)
        y = list(map(y.__getitem__, to_even))
        yield math.fsum(map(mul, x, y)) / math.fsum(map(mul, x, x))
        top = max(y)
        x = [v / top for v in y]


def _zeta(x: list[float]) -> None:
    """Overwrite x (2^w entries) by its subset-sum transform, bit 0 first
    as in ``profile_step``.  Bit b adds each entry with the bit clear to
    its partner with it set, taking whichever of the 2^b strided slices
    or the 2^(w-b-1) contiguous blocks is fewer."""
    size, half = len(x), 1
    while half < size:
        block = 2 * half
        if 2 * half * half <= size:
            for r in range(half, block):
                x[r::block] = map(add, x[r::block], x[r - half::block])
        else:
            for s in range(half, size, block):
                x[s:s + half] = map(add, x[s:s + half], x[s - half:s])
        half = block
