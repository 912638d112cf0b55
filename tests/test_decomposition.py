import ast
import math

import pytest

from pawncount import verify
from pawncount.decomposition import (ShapeGraph, count_independent_sets,
                                     split_by_color)
from pawncount.errors import GuardExceeded
from pawncount.oracle import M_SET
from pawncount.transfer import (colour_split_sequence, count_sequence,
                                count_via_transfer)


def path_graph(length: int) -> ShapeGraph:
    """Zigzag of diagonally adjacent cells, a path with `length` vertices."""
    return ShapeGraph(tuple((1 + (i % 2), 1 + i) for i in range(length)))


def diagonal_pairs(shape: ShapeGraph) -> set:
    """The shape's edges: cell pairs with |dr| == |dc| == 1, each once."""
    present = set(shape.cells)
    return {tuple(sorted([(r, c), (r + 1, c + dc)]))
            for (r, c) in shape.cells for dc in (-1, 1)
            if (r + 1, c + dc) in present}


class TestSplitByColor:
    def test_covers_every_cell_once(self):
        for m in range(5):
            for n in range(5):
                black, white = split_by_color(m, n)
                assert len(black.cells) + len(white.cells) == m * n
                assert not set(black.cells) & set(white.cells)

    def test_two_rows_give_two_paths(self):
        black, white = split_by_color(2, 6)
        for shape in (black, white):
            assert shape.vertex_count == 6
            assert len(diagonal_pairs(shape)) == 5  # path

    def test_one_row_is_edgeless(self):
        black, white = split_by_color(1, 7)
        assert black.vertex_count == 4 and white.vertex_count == 3
        assert not diagonal_pairs(black) and not diagonal_pairs(white)

    def test_5x2_gives_two_five_paths(self):
        black, white = split_by_color(5, 2)
        for shape in (black, white):
            assert shape.vertex_count == 5
            assert len(diagonal_pairs(shape)) == 4

    def test_every_diagonal_pair_is_an_edge_in_one_shape(self):
        m, n = 4, 5
        black, white = split_by_color(m, n)
        edges = diagonal_pairs(black) | diagonal_pairs(white)
        expected = set()
        for i in range(1, m):
            for j in range(1, n + 1):
                for dj in (-1, 1):
                    if 1 <= j + dj <= n:
                        pair = tuple(sorted([(i, j), (i + 1, j + dj)]))
                        expected.add(pair)
        assert edges == expected


class TestCountIndependentSets:
    def test_edgeless(self):
        assert count_independent_sets(ShapeGraph(((1, 1), (1, 3), (1, 5)))) == 8
        assert count_independent_sets(ShapeGraph(())) == 1

    def test_path_of_five(self):
        assert count_independent_sets(path_graph(5)) == 13

    def test_path_counts_are_fibonacci(self):
        from pawncount.closedforms import fibonacci
        for length in range(9):
            assert count_independent_sets(path_graph(length)) == fibonacci(length + 1)

    def test_5x3_shapes(self):
        black, white = split_by_color(5, 3)
        assert count_independent_sets(black) == 73  # 64 + 4 + 4 + 1
        assert count_independent_sets(white) == 29

    def test_guard(self):
        big, _ = split_by_color(9, 9)
        with pytest.raises(GuardExceeded):
            count_independent_sets(big)
        assert count_independent_sets(big, guard=50) > 0
        # a single 23-cell column passes the cell guard but not the width guard
        column = ShapeGraph(tuple((r, 1) for r in range(1, 24)))
        with pytest.raises(GuardExceeded):
            count_independent_sets(column, guard=50)

    def test_duplicate_cells_rejected(self):
        with pytest.raises(ValueError) as raised:
            ShapeGraph(((1, 1), (1, 1)))
        assert str(raised.value) == "duplicate cells"

    def test_value_type(self):
        shape = ShapeGraph(((1, 3), (1, 1)))
        same = ShapeGraph(cells=[(1, 1), (1, 3)])
        assert shape == same and hash(shape) == hash(same)
        assert shape != ShapeGraph(((1, 1),))
        assert repr(shape) == "ShapeGraph(cells=((1, 1), (1, 3)))"
        with pytest.raises(AttributeError):
            shape.cells = ()


class TestColourSplitSweep:
    def test_classes_equal_shape_counts(self):
        for m in range(1, 9):
            black, white = colour_split_sequence(m, 8)
            for n in range(9):
                black_shape, white_shape = split_by_color(m, n)
                assert black[n] == count_independent_sets(black_shape), (m, n)
                assert white[n] == count_independent_sets(white_shape), (m, n)


def colour_counts(m: int, n: int) -> tuple[int, int]:
    """Independent-set counts of the black and white shapes of an m-by-n board."""
    black, white = split_by_color(m, n)
    return count_independent_sets(black), count_independent_sets(white)


def is_square(value: int) -> bool:
    return math.isqrt(value) ** 2 == value


class TestObservation:
    @pytest.mark.parametrize("m,n,black,white", [
        (3, 1, 4, 2),
        (2, 2, 3, 3),
        (4, 3, 22, 22),
    ])
    def test_spot_products(self, m, n, black, white):
        assert colour_counts(m, n) == (black, white)
        assert black * white == count_via_transfer(m, n, M_SET)

    def test_product_on_grid(self):
        for m in range(1, 7):
            for n in range(1, 7):
                black, white = colour_counts(m, n)
                assert black * white == count_via_transfer(m, n, M_SET), (m, n)

    def test_empty_board(self):
        # a 0-by-4 board has two empty shapes; its transpose, 4 by 0, counts 1
        assert colour_counts(0, 4) == (1, 1)
        assert count_via_transfer(4, 0, M_SET) == 1


class TestPerfectSquare:
    def test_certificates(self):
        # M(4, 3) = 484 = 22^2, and the root is each colour class's count
        value = count_via_transfer(4, 3, M_SET)
        assert value == 484 and math.isqrt(value) == 22
        assert colour_counts(4, 3) == (22, 22)

    def test_non_square(self):
        # odd heights split unevenly: M(3, 1) = 4 * 2 and M(1, 1) = 2 * 1
        for m, n in ((3, 1), (1, 1)):
            black, white = colour_counts(m, n)
            assert black != white
            assert not is_square(count_via_transfer(m, n, M_SET))

    def test_negative_rejected(self, monkeypatch):
        # every check comparing exact counts of count_sequence fails once
        # they are off by one, and names at most five of the failed labels;
        # the eigenvalue check reads only the ratio at n = 100, which +1
        # does not move past its tolerance
        def tampered(m, n_max, pats):
            return [v + 1 for v in count_sequence(m, n_max, pats)]

        monkeypatch.setattr(verify, "count_sequence", tampered)
        failed = set()
        for name, check in verify.CHECKS:
            result = verify.run_check(name, check, verify.QUICK)
            if not result.passed:
                _, sep, labels = result.details.partition("; failures: [")
                assert sep and 1 <= len(ast.literal_eval("[" + labels)) <= 5
                failed.add(name)
        assert failed == {"colour-split", "radical-closed-forms",
                          "bound-sandwich", "perfect-square",
                          "shape-formulas", "tiling-bijection",
                          "isolated-height-3"}

    def test_even_heights_are_squares_with_equal_colors(self):
        for m in (2, 4, 6):
            seq = count_sequence(m, 8, M_SET)
            for n in range(1, 9):
                black, white = colour_counts(m, n)
                assert black == white
                assert is_square(seq[n]) and black * white == seq[n]


class TestShapeRecurrences:
    def test_three_row_interleaved(self):
        # a(n) = 3a(n-2) + b(n-1), b(n) = a(n-1) + b(n-2) on the 3-row shapes
        a = [count_independent_sets(split_by_color(3, n)[0]) for n in range(13)]
        b = [count_independent_sets(split_by_color(3, n)[1]) for n in range(13)]
        assert a[:4] == [1, 4, 5, 17]
        assert b[:4] == [1, 2, 5, 7]
        for n in range(2, 13):
            assert a[n] == 3 * a[n - 2] + b[n - 1]
            assert b[n] == a[n - 1] + b[n - 2]

    def test_four_row_with_clipped_helper(self):
        # alpha(n) = alpha(n-1) + 2 alpha(n-2) + gamma(n-1),
        # gamma(n) = gamma(n-1) + alpha(n-1)
        alpha = [count_independent_sets(split_by_color(4, n)[0])
                 for n in range(13)]
        # gamma: a 4-row color shape with its first column clipped to the
        # bottom cell
        def clipped(n):
            cells = [(4, 1)] if n >= 1 else []
            cells += [(r, col) for col in range(2, n + 1)
                      for r in ((1, 3) if col % 2 == 0 else (2, 4))]
            return ShapeGraph(tuple(cells))

        gamma = [count_independent_sets(clipped(n)) for n in range(13)]
        assert alpha[:6] == [1, 4, 8, 22, 52, 132]
        assert gamma[:4] == [1, 2, 6, 14]
        for n in range(2, 13):
            assert alpha[n] == alpha[n - 1] + 2 * alpha[n - 2] + gamma[n - 1]
        for n in range(1, 13):
            assert gamma[n] == gamma[n - 1] + alpha[n - 1]

    def test_four_row_colors_agree(self):
        for n in range(9):
            black, white = split_by_color(4, n)
            assert (count_independent_sets(black)
                    == count_independent_sets(white))

    def test_shape_products_square_the_count(self):
        for n in range(7):
            alpha = count_independent_sets(split_by_color(4, n)[0])
            assert alpha * alpha == count_via_transfer(4, n, M_SET)
