import copy
import itertools
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pawncount.errors import GuardExceeded, IllegalMatrix, InvalidTiling
from pawncount.oracle import (L_SET, BinaryMatrix, BoardDims,
                              count_by_enumeration, enumerate_legal,
                              find_violation)
from pawncount.tiling import (Tiling, _pair_union_masks, count_tilings,
                              render_ascii, theta_forward, theta_inverse,
                              tiling_from_json, tiling_to_json)
from pawncount.transfer import count_via_transfer


def all_tilings(rows, cols):
    """Every tiling of the board by brute force: each subset of the
    (rows-1)x(cols-1) anchor cells that Tiling accepts."""
    cells = list(itertools.product(range(1, rows), range(1, cols)))
    for size in range(len(cells) + 1):
        for anchors in itertools.combinations(cells, size):
            try:
                yield Tiling(rows, cols, anchors)
            except InvalidTiling:
                pass


def rules_agree(m, n, anchors):
    """Tiling accepts distinct anchors on the (m+1)x(n+1) board iff the
    m-by-n matrix with a 1 on each, packed directly, breaks no L rule."""
    mat = BinaryMatrix(BoardDims(m, n), sum(
        1 << (m * n - (r - 1) * n - c) for r, c in anchors))
    try:
        Tiling(m + 1, n + 1, tuple(anchors))
        accepted = True
    except InvalidTiling:
        accepted = False
    return accepted == (find_violation(mat, L_SET) is None)


class TestThetaForward:
    def test_single_one_becomes_single_big_tile(self):
        tiling = theta_forward(BinaryMatrix.from_text("1"))
        assert (tiling.rows, tiling.cols) == (2, 2)
        assert tiling.anchors == ((1, 1),)

    def test_zero_matrix_becomes_all_unit_tiles(self):
        tiling = theta_forward(BinaryMatrix.from_text("000\n000"))
        assert (tiling.rows, tiling.cols) == (3, 4)
        assert tiling.anchors == ()

    def test_anchor_positions_follow_ones(self):
        tiling = theta_forward(BinaryMatrix.from_text("10\n00"))
        assert (tiling.rows, tiling.cols) == (3, 3)
        assert tiling.anchors == ((1, 1),)

    def test_illegal_matrix_rejected_with_position(self):
        with pytest.raises(IllegalMatrix) as info:
            theta_forward(BinaryMatrix.from_text("11"))
        assert str(info.value) == (
            "matrix has forbidden horiz_pair at (1, 1); only fully-isolated "
            "matrices map to tilings")


class TestThetaInverse:
    def test_single_tile(self):
        assert theta_inverse(Tiling(2, 2, ((1, 1),))).to_text() == "1"

    def test_all_unit_tiles(self):
        assert theta_inverse(Tiling(3, 3, ())).to_text() == "00\n00"

    def test_result_is_always_isolated(self):
        for tiling in all_tilings(4, 4):
            assert find_violation(theta_inverse(tiling), L_SET) is None

    def test_out_of_range_anchor(self):
        with pytest.raises(InvalidTiling):
            Tiling(3, 3, ((3, 1),))
        with pytest.raises(InvalidTiling):
            Tiling(3, 3, ((0, 1),))

    def test_overlapping_anchors(self):
        with pytest.raises(InvalidTiling) as info:
            Tiling(4, 4, ((1, 1), (2, 2)))
        assert str(info.value) == "anchors (1,1) and (2,2) overlap"

    def test_duplicate_anchors(self):
        with pytest.raises(InvalidTiling):
            Tiling(4, 4, ((1, 1), (1, 1)))

    def test_first_overlap_in_row_major_order(self):
        """(2,1) and (2,2) overlap too, but (1,5) sorts first."""
        with pytest.raises(InvalidTiling) as info:
            Tiling(4, 8, ((2, 6), (2, 2), (1, 5), (2, 1)))
        assert str(info.value) == "anchors (1,5) and (2,6) overlap"

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), max_size=8))
    def test_overlap_matches_pairwise_scan(self, anchors):
        """The first overlapping pair, as a scan of every later anchor
        in row-major order reports it, or None."""
        ordered = sorted(anchors)
        expected = next(((a, b) for i, a in enumerate(ordered)
                         for b in ordered[i + 1:]
                         if abs(b[0] - a[0]) <= 1 and abs(b[1] - a[1]) <= 1),
                        None)
        try:
            Tiling(6, 6, tuple(anchors))
            found = None
        except InvalidTiling as exc:
            found = exc
        if expected is None:
            assert found is None
        else:
            (r, c), (r2, c2) = expected
            assert str(found) == f"anchors ({r},{c}) and ({r2},{c2}) overlap"


class TestRoundtrip:
    def test_exhaustive_small_boards(self):
        for m, n in [(1, 1), (2, 2), (3, 3), (2, 4)]:
            for mat in enumerate_legal(m, n, L_SET):
                assert theta_inverse(theta_forward(mat)) == mat

    def test_tiling_side_roundtrip(self):
        for tiling in all_tilings(4, 3):
            assert theta_forward(theta_inverse(tiling)) == tiling

    def test_large_board_roundtrip(self):
        """512x512 with a 1 on every odd row and column: 65,536 anchors,
        through the tiling and its JSON (whose anchor list is packed)."""
        row = "10" * 256
        bits = (row + "0" * 512) * 256
        mat = BinaryMatrix(BoardDims(512, 512), int(bits, 2))
        start = time.perf_counter()
        tiling = theta_forward(mat)
        assert theta_inverse(tiling) == mat
        assert theta_inverse(tiling_from_json(tiling_to_json(tiling))) == mat
        assert time.perf_counter() - start < 2
        assert len(tiling.anchors) == 256 * 256

    def test_forward_map_above_the_size_guard(self):
        """A matrix of more than 2^22 cells already exists, so its forward
        map works; only the inverse is held to the guard."""
        m, n = 2049, 2048
        mat = BinaryMatrix(BoardDims(m, n), 1 << (m * n - 1) | 1)
        tiling = theta_forward(mat)
        assert (tiling.rows, tiling.cols) == (m + 1, n + 1)
        assert tiling.anchors == ((1, 1), (m, n))
        with pytest.raises(GuardExceeded):
            theta_inverse(tiling)

    def test_empty_matrix_maps_to_one_cell_board(self):
        empty = BinaryMatrix.from_text("")
        tiling = theta_forward(empty)
        assert (tiling.rows, tiling.cols, tiling.anchors) == (1, 1, ())
        assert theta_inverse(tiling) == empty

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_sampled_matrices(self, data):
        m = data.draw(st.integers(1, 3), label="m")
        n = data.draw(st.integers(1, 4), label="n")
        total = count_by_enumeration(m, n, L_SET)
        index = data.draw(st.integers(0, total - 1), label="index")
        mat = next(itertools.islice(enumerate_legal(m, n, L_SET), index, None))
        assert theta_inverse(theta_forward(mat)) == mat


class TestTilingValue:
    def test_anchors_pack_like_the_matrix(self):
        tiling = Tiling(3, 4, ((2, 3), (1, 1)))
        assert tiling.packed == BinaryMatrix.from_text("100\n001").packed
        assert tiling.anchors == ((1, 1), (2, 3))

    def test_hashable_and_equal_by_value(self):
        made = Tiling(4, 4, [(3, 3), (1, 1)])
        mapped = theta_forward(BinaryMatrix.from_text("100\n000\n001"))
        assert made == mapped and hash(made) == hash(mapped)
        assert len({made, mapped, Tiling(4, 4, ())}) == 2
        assert Tiling(4, 4, ()) != Tiling(4, 5, ())

    def test_repr_and_copies(self):
        tiling = Tiling(3, 4, ((2, 3), (1, 1)))
        assert repr(tiling) == "Tiling(rows=3, cols=4, packed=33)"
        for twin in (copy.copy(tiling), copy.deepcopy(tiling)):
            assert twin == tiling and twin.anchors == ((1, 1), (2, 3))

    def test_fields_cannot_be_assigned(self):
        tiling = Tiling(3, 4, ((1, 1),))
        for field in ("rows", "cols", "packed"):
            with pytest.raises(AttributeError):
                setattr(tiling, field, 2)
        assert tiling.anchors == ((1, 1),)

    @pytest.mark.parametrize("rows,cols,anchors,error,message", [
        (-1, 3, (), ValueError, "dimensions must be nonnegative"),
        (3, 3, ((3, 1),), InvalidTiling, "anchor (3,1) leaves the 3x3 board"),
        (4, 4, ((2, 2), (1, 1)), InvalidTiling, "anchors (1,1) and (2,2) overlap"),
        (4, 4, ((1, 1), (1, 1)), InvalidTiling, "anchors (1,1) and (1,1) overlap"),
        (5000, 5000, (), GuardExceeded,
         "a 5000x5000 tiling maps to a 4999x4999 matrix of 24990001 cells, "
         "above the 2^22 limit"),
    ])
    def test_validation_messages(self, rows, cols, anchors, error, message):
        with pytest.raises(error) as raised:
            Tiling(rows, cols, anchors)
        assert str(raised.value) == message

    def test_empty_boards(self):
        for rows, cols in [(0, 0), (0, 3), (3, 0), (1, 1), (1, 5)]:
            tiling = Tiling(rows, cols, ())
            assert (tiling.packed, tiling.anchors) == (0, ())

    def test_huge_board_checks_anchors_before_the_guard(self):
        side = 3_000_000
        with pytest.raises(InvalidTiling, match="leaves"):
            Tiling(side, side, ((side, 1),))
        with pytest.raises(InvalidTiling, match="overlap"):
            Tiling(side, side, ((5, 7), (6, 8)))
        with pytest.raises(GuardExceeded):
            Tiling(side, side, ((5, 7), (7, 7)))


class TestCountTilings:
    @pytest.mark.parametrize("rows,cols,expected", [
        (2, 2, 2),
        (3, 3, 5),
        (4, 3, 11),
        (4, 4, 35),
        (1, 9, 1),
        (0, 4, 1),
        (5, 0, 1),
    ])
    def test_spot_values(self, rows, cols, expected):
        assert count_tilings(rows, cols) == expected

    def test_symmetry(self):
        for rows in range(1, 7):
            for cols in range(1, 7):
                assert count_tilings(rows, cols) == count_tilings(cols, rows)

    def test_equals_isolated_matrix_count(self):
        for m in range(1, 5):
            for n in range(1, 5):
                assert (count_tilings(m + 1, n + 1)
                        == count_via_transfer(m, n, L_SET))

    def test_matches_enumeration(self):
        for rows in range(0, 5):
            for cols in range(0, 5):
                assert (count_tilings(rows, cols)
                        == sum(1 for _ in all_tilings(rows, cols)))

    @pytest.mark.parametrize("rows", range(15))
    def test_pair_union_masks_match_bit_loop(self, rows):
        def every_run_even(mask):
            run = 0
            for b in range(rows + 1):
                if b < rows and mask >> b & 1:
                    run += 1
                elif run % 2:
                    return False
                else:
                    run = 0
            return True

        expected = tuple(mask for mask in range(1 << rows)
                         if every_run_even(mask))
        assert tuple(_pair_union_masks(rows).nonzero()[0].tolist()) == expected

    def test_width_guard(self):
        with pytest.raises(GuardExceeded):
            count_tilings(23, 23)


class TestEnumerateTilings:
    """The brute-force reference the counts are checked against."""

    def test_unique_tilings(self):
        seen = {t.anchors for t in all_tilings(4, 4)}
        assert len(seen) == 35

    def test_empty_board_has_one_tiling(self):
        assert [t.anchors for t in all_tilings(0, 3)] == [()]


class TestOverlapRule:
    """Tiling's overlap check and find_violation with L_SET are two
    implementations of one rule: anchors may not touch, even at a corner."""

    def test_every_anchor_set_on_small_boards(self):
        for m in range(1, 13):
            for n in range(1, 12 // m + 1):
                cells = list(itertools.product(range(1, m + 1),
                                               range(1, n + 1)))
                for bits in range(1 << (m * n)):
                    anchors = [cell for i, cell in enumerate(cells)
                               if bits >> i & 1]
                    assert rules_agree(m, n, anchors), (m, n, anchors)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_sampled_anchor_sets_up_to_7x7(self, data):
        m = data.draw(st.integers(1, 7), label="m")
        n = data.draw(st.integers(1, 7), label="n")
        anchors = data.draw(st.lists(st.tuples(st.integers(1, m),
                                               st.integers(1, n)),
                                     max_size=m * n, unique=True),
                            label="anchors")
        assert rules_agree(m, n, anchors)


class TestSerialization:
    def test_json_shape(self):
        tiling = theta_forward(BinaryMatrix.from_text("1"))
        assert (tiling_to_json(tiling)
                == '{"rows": 2, "cols": 2, "anchors": [[1, 1]]}')

    def test_json_roundtrip(self):
        for tiling in all_tilings(3, 4):
            assert tiling_from_json(tiling_to_json(tiling)) == tiling

    def test_anchors_sorted_row_major(self):
        tiling = Tiling(5, 5, ((3, 1), (1, 3), (1, 1)))
        assert tiling.anchors == ((1, 1), (1, 3), (3, 1))
        assert json.loads(tiling_to_json(tiling))["anchors"] == [[1, 1], [1, 3], [3, 1]]

    @pytest.mark.parametrize("text", [
        "not json",
        '{"rows": 2, "cols": 2}',
        '{"rows": 2, "cols": 2, "anchors": [[1]]}',
        '{"rows": 2, "cols": 2, "anchors": [["a", 1]]}',
        '{"rows": "2", "cols": 2, "anchors": []}',
        '[1, 2]',
        '{"rows": -1, "cols": 2, "anchors": []}',
        '{"rows": 0, "cols": 0, "anchors": []}',
        '{"rows": 1, "cols": 0, "anchors": []}',
        '{"rows": true, "cols": 3, "anchors": []}',
    ])
    def test_bad_json_rejected(self, text):
        with pytest.raises(InvalidTiling):
            tiling_from_json(text)

    @pytest.mark.parametrize("entry", [
        "[1]", "[]", "{}", """["a'b\\"", null, -0.0, 1e300, true, [[]]]""",
        '{"k": [1, {"x": null}], "j": 2}', '{"b": 1, "a": 2}',
        "[" * 40 + "]" * 40, '"' + "x" * 78 + '"',
        "[" * 41 + "]" * 41, '"' + "x" * 79 + '"', str(list(range(30))),
    ])
    def test_bad_anchor_echo(self, entry):
        # the entry's repr, cut to 77 characters and '...' past 80
        shown = repr(json.loads(entry))
        if len(shown) > 80:
            shown = shown[:77] + "..."
        with pytest.raises(InvalidTiling) as info:
            tiling_from_json(f'{{"rows": 3, "cols": 3, "anchors": [{entry}]}}')
        assert str(info.value) == f"bad anchor entry {shown}"

    def test_ascii_rendering(self):
        tiling = theta_forward(BinaryMatrix.from_text("10\n00"))
        assert render_ascii(tiling) == "aa.\naa.\n..."

    def test_ascii_all_units(self):
        assert render_ascii(Tiling(2, 3, ())) == "...\n..."

    def test_ascii_two_tiles(self):
        art = render_ascii(Tiling(2, 4, ((1, 1), (1, 3))))
        assert art == "aabb\naabb"
