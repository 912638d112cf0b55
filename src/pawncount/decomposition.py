"""Black/white cell decomposition and independent-set counting on shapes.

Diagonal attacks never cross cell colors, so the count of legal pawn
placements on a board factors into the product of independent-placement
counts on its black and white cell shapes.  Shapes are column-banded
(edges only join adjacent columns), which a column-profile sweep exploits:
one ``profile_step`` per column, run on ``transfer.sweep``.
Whole boards take the bitmask form of the same split,
``transfer.colour_split_sequence``; the shapes here serve any cell set and
stay an independent check on it.
"""

from __future__ import annotations

from collections import deque, namedtuple
from functools import partial
from itertools import pairwise

import numpy as np

from .errors import GuardExceeded
from .oracle import BoardDims
from .transfer import check_width, profile_step, sweep

DEFAULT_SHAPE_GUARD = 40

Cell = tuple[int, int]


class ShapeGraph(namedtuple("ShapeGraph", "cells")):
    """Cells at 1-based (row, col) positions, with edges at diagonal adjacency."""

    __slots__ = ()

    def __new__(cls, cells: tuple[Cell, ...]):
        ordered = tuple(sorted(cells))
        if len(set(ordered)) != len(ordered):
            raise ValueError("duplicate cells")
        return super().__new__(cls, ordered)

    @property
    def vertex_count(self) -> int:
        return len(self.cells)

    def _columns(self) -> list[tuple[int, list[int]]]:
        by_col: dict[int, list[int]] = {}
        for (r, c) in self.cells:
            by_col.setdefault(c, []).append(r)
        return sorted((c, sorted(rows)) for c, rows in by_col.items())


def split_by_color(m: int, n: int) -> tuple[ShapeGraph, ShapeGraph]:
    """Black and white shapes of an m-by-n board; (i, j) is black iff i+j even.

    Together they cover every cell once, and every diagonally adjacent cell
    pair becomes an edge in exactly one of the two.
    """
    dims = BoardDims(m, n)
    black = []
    white = []
    for i in range(1, dims.m + 1):
        for j in range(1, dims.n + 1):
            (black if (i + j) % 2 == 0 else white).append((i, j))
    return ShapeGraph(tuple(black)), ShapeGraph(tuple(white))


def count_independent_sets(shape: ShapeGraph,
                           guard: int = DEFAULT_SHAPE_GUARD) -> int:
    """Exact number of independent sets (the empty set included).

    Column-profile dynamic program: cells never conflict inside a column
    (edges are diagonal), so states are subsets of one column's cells, and
    each column is one ``profile_step`` over the previous column's states.
    """
    if shape.vertex_count > guard:
        raise GuardExceeded(
            f"shape has {shape.vertex_count} cells, above the {guard}-cell guard")
    columns = shape._columns()

    def steps():
        # a column with no cells stands before the first one
        for (prev_col, prev_rows), (col, rows) in pairwise([(None, [])] + columns):
            check_width(len(rows))
            # blocked[s]: cells of the previous column that conflict with subset s
            blocked = np.zeros(1, dtype=np.int64)
            for r in rows:
                conflict = 0
                if prev_col == col - 1:
                    conflict = sum(1 << idx for idx, pr in enumerate(prev_rows)
                                   if abs(pr - r) == 1)
                blocked = np.concatenate([blocked, blocked | conflict])
            allowed = ((1 << len(prev_rows)) - 1) & ~blocked
            yield partial(profile_step, width=len(prev_rows), allowed=allowed)

    last, = deque(sweep(np.ones(1, dtype=np.int64), steps()), maxlen=1)
    return int(last.sum())
