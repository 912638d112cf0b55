import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pawncount.errors import GuardExceeded, InvalidK, MatrixFormatError
from pawncount.oracle import (L_SET, M_SET, U_SET, BinaryMatrix, BoardDims,
                              ForbiddenPatternSet, _scan, _violation_checks,
                              count_by_enumeration, enumerate_legal,
                              find_violation, uk_set)
from pawncount.transfer import count_via_transfer


def naive_first_violation(mat: BinaryMatrix, pats: ForbiddenPatternSet
                          ) -> tuple[str, tuple[int, int]] | None:
    """Reference scan: every top-left corner in row-major order and, at
    each, the banned patterns in the order ForbiddenPatternSet declares
    them, cell by cell; the first occurrence as (pattern, corner), or None."""
    m, n = mat.dims.m, mat.dims.n
    rows = mat.to_text().split("\n")
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            for name, offsets in banned_shapes(pats):
                if all(i + di <= m and j + dj <= n
                       and rows[i + di - 1][j + dj - 1] == "1"
                       for di, dj in offsets):
                    return name, (i, j)
    return None


def banned_shapes(pats: ForbiddenPatternSet) -> list[tuple[str, list[tuple[int, int]]]]:
    """(name, cell offsets from the top-left corner) of each banned pattern,
    in the order ForbiddenPatternSet declares them."""
    k = pats.diag_run_k
    shapes = [("diag_down", pats.diag_down, [(0, 0), (1, 1)]),
              ("diag_up", pats.diag_up, [(1, 0), (0, 1)]),
              ("horiz_pair", pats.horiz_pair, [(0, 0), (0, 1)]),
              ("vert_pair", pats.vert_pair, [(0, 0), (1, 0)]),
              (f"diag_run_{k}", k is not None, [(t, t) for t in range(k or 0)])]
    return [(name, offsets) for name, banned, offsets in shapes if banned]


PATTERN_SETS = [M_SET, U_SET, L_SET, uk_set(2), uk_set(3), uk_set(4),
                ForbiddenPatternSet(diag_up=True),
                ForbiddenPatternSet(horiz_pair=True, vert_pair=True),
                ForbiddenPatternSet(diag_up=True, diag_run_k=3)]


class TestPatternSet:
    def test_presets(self):
        assert M_SET.diag_down and M_SET.diag_up
        assert not (M_SET.horiz_pair or M_SET.vert_pair)
        assert U_SET == ForbiddenPatternSet(diag_down=True)
        assert L_SET.horiz_pair and L_SET.vert_pair

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            ForbiddenPatternSet()

    def test_bad_run_length(self):
        with pytest.raises(InvalidK):
            uk_set(1)

    def test_run_excludes_diag_down(self):
        with pytest.raises(ValueError):
            ForbiddenPatternSet(diag_down=True, diag_run_k=3)


class TestValueTypes:
    """The value types compare, hash, print and refuse assignment like the
    frozen records they have always been, with the same messages."""

    def test_equal_and_hashed_by_value(self):
        pairs = [(BoardDims(2, 3), BoardDims(m=2, n=3)),
                 (ForbiddenPatternSet(diag_down=True, diag_up=True), M_SET),
                 (uk_set(3), ForbiddenPatternSet(diag_run_k=3)),
                 (BinaryMatrix(BoardDims(2, 3), 5),
                  BinaryMatrix.from_text("000\n101"))]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b)
        assert BoardDims(2, 3) != BoardDims(3, 2)
        assert M_SET != U_SET and U_SET != uk_set(3)
        assert BinaryMatrix(BoardDims(2, 3), 5) != BinaryMatrix(BoardDims(3, 2), 5)
        assert len({M_SET, U_SET, L_SET, uk_set(3), uk_set(3)}) == 4

    def test_repr(self):
        assert repr(BoardDims(2, 3)) == "BoardDims(m=2, n=3)"
        assert repr(BinaryMatrix(BoardDims(2, 3), 5)) == (
            "BinaryMatrix(dims=BoardDims(m=2, n=3), packed=5)")
        assert repr(uk_set(3)) == (
            "ForbiddenPatternSet(diag_down=False, diag_up=False, "
            "horiz_pair=False, vert_pair=False, diag_run_k=3)")

    @pytest.mark.parametrize("value,field", [
        (BoardDims(2, 3), "m"), (M_SET, "diag_up"),
        (BinaryMatrix(BoardDims(2, 3), 5), "packed")])
    def test_fields_cannot_be_assigned(self, value, field):
        with pytest.raises(AttributeError):
            setattr(value, field, 1)
        with pytest.raises(AttributeError):
            value.extra = 1

    @pytest.mark.parametrize("make,error,message", [
        (lambda: BoardDims(-1, 2), ValueError,
         "dimensions must be nonnegative, got -1x2"),
        (lambda: ForbiddenPatternSet(), ValueError,
         "at least one forbidden pattern must be set"),
        (lambda: uk_set(1), InvalidK, "diagonal run length must be >= 2, got 1"),
        (lambda: ForbiddenPatternSet(diag_down=True, diag_run_k=3), ValueError,
         "diag_run_k and diag_down are mutually exclusive"),
        (lambda: BinaryMatrix(BoardDims(2, 2), 16), ValueError,
         "16 does not fit the 4 cells of a 2x2 matrix"),
    ])
    def test_validation_messages(self, make, error, message):
        with pytest.raises(error) as raised:
            make()
        assert str(raised.value) == message


class TestMatrixAvoids:
    def test_worked_3x6_board_is_legal(self):
        mat = BinaryMatrix.from_text("101101\n100000\n001011")
        assert find_violation(mat, M_SET) is None

    @pytest.mark.parametrize("pats", [M_SET, U_SET, L_SET, uk_set(3)])
    @pytest.mark.parametrize("dims", [(1, 1), (3, 4), (5, 2)])
    def test_all_zero_always_legal(self, dims, pats):
        m, n = dims
        assert find_violation(BinaryMatrix(BoardDims(m, n), 0), pats) is None

    def test_down_diagonal_pair_detected(self):
        mat = BinaryMatrix.from_text("10\n01")
        assert find_violation(mat, M_SET) == ("diag_down", (1, 1))

    def test_run_of_three_cannot_fit_on_2x2(self):
        mat = BinaryMatrix.from_text("11\n11")
        assert find_violation(mat, uk_set(3)) is None
        assert find_violation(mat, uk_set(2)) is not None

    def test_up_diagonal(self):
        mat = BinaryMatrix.from_text("01\n10")
        assert find_violation(mat, M_SET) is not None
        assert find_violation(mat, U_SET) is None

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_naive_reference(self, data):
        m = data.draw(st.integers(1, 4), label="m")
        n = data.draw(st.integers(1, 4), label="n")
        bits = data.draw(st.integers(0, 2 ** (m * n) - 1), label="bits")
        pats = data.draw(st.sampled_from(
            [M_SET, U_SET, L_SET, uk_set(2), uk_set(3),
             ForbiddenPatternSet(diag_up=True),
             ForbiddenPatternSet(horiz_pair=True, vert_pair=True)]),
            label="pats")
        mat = BinaryMatrix(BoardDims(m, n), bits)
        assert ((find_violation(mat, pats) is None)
                == (naive_first_violation(mat, pats) is None))


class TestFindViolation:
    @pytest.mark.parametrize("pats", PATTERN_SETS)
    def test_first_occurrence_on_every_small_board(self, pats):
        for m, n in itertools.product(range(4), range(4)):
            for bits in range(1 << (m * n)):
                mat = BinaryMatrix(BoardDims(m, n), bits)
                assert find_violation(mat, pats) == naive_first_violation(mat, pats)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_first_occurrence_up_to_4x4(self, data):
        m = data.draw(st.integers(0, 4), label="m")
        n = data.draw(st.integers(0, 4), label="n")
        bits = data.draw(st.integers(0, 2 ** (m * n) - 1), label="bits")
        pats = data.draw(st.sampled_from(PATTERN_SETS), label="pats")
        mat = BinaryMatrix(BoardDims(m, n), bits)
        assert find_violation(mat, pats) == naive_first_violation(mat, pats)

    @pytest.mark.parametrize("pats", PATTERN_SETS)
    def test_table_matches_corner_loop(self, pats):
        """Each table row against its shape, one placement at a time."""
        for m, n in itertools.product(range(8), range(8)):
            expected = []
            for name, offsets in banned_shapes(pats):
                cells = sorted(di * n + dj for di, dj in offsets)
                mask = 0
                for r, c in itertools.product(range(m), range(n)):
                    if all(r + di < m and c + dj < n for di, dj in offsets):
                        mask |= 1 << (m * n - 1 - r * n - c - cells[-1])
                if mask:
                    expected.append((name, tuple(cells[-1] - d for d in cells[:-1]),
                                     mask, cells[-1]))
            assert _violation_checks(m, n, pats) == tuple(expected)


class TestCounting:
    @pytest.mark.parametrize("dims,pats,expected", [
        ((1, 1), M_SET, 2),
        ((2, 2), M_SET, 9),    # 16 - 4 - 4 + 1 by inclusion-exclusion
        ((2, 2), U_SET, 12),   # 16 minus the 4 matrices with the down pair
        ((2, 2), L_SET, 5),    # empty plus four singletons
        ((3, 6), M_SET, 9025),  # = t_3^2, the same square the 6-row formula hits
    ])
    def test_known_counts(self, dims, pats, expected):
        assert count_by_enumeration(*dims, pats) == expected

    def test_empty_board_counts_one(self):
        assert count_by_enumeration(0, 5, M_SET) == 1
        assert count_by_enumeration(7, 0, L_SET) == 1
        assert count_by_enumeration(0, 0, U_SET) == 1

    def test_guard(self):
        """25 cells is the limit: a 26-cell board is refused before the scan."""
        with pytest.raises(GuardExceeded) as info:
            count_by_enumeration(2, 13, M_SET)
        assert str(info.value) == (
            "enumerating 2^26 candidate matrices exceeds the 25-cell guard; "
            "use the transfer engine for boards this large")

    def test_transpose_symmetry(self):
        for m, n in [(2, 3), (3, 4), (2, 5), (4, 4)]:
            assert (count_by_enumeration(m, n, M_SET)
                    == count_by_enumeration(n, m, M_SET))

    def test_single_up_diagonal_matches_down(self):
        up_only = ForbiddenPatternSet(diag_up=True)
        for m, n in [(2, 2), (3, 3), (2, 5), (4, 3)]:
            assert (count_by_enumeration(m, n, up_only)
                    == count_by_enumeration(m, n, U_SET))

    def test_monotone_in_columns(self):
        for m in (1, 2, 3):
            counts = [count_by_enumeration(m, n, M_SET) for n in range(6)]
            assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_sandwich(self):
        for m, n in itertools.product(range(1, 4), range(1, 4)):
            l = count_by_enumeration(m, n, L_SET)
            mid = count_by_enumeration(m, n, M_SET)
            u = count_by_enumeration(m, n, U_SET)
            assert l <= mid <= u <= 2 ** (m * n)


class TestEnumeration:
    def test_1x1_stream(self):
        assert [m.to_text() for m in enumerate_legal(1, 1, M_SET)] == ["0", "1"]

    def test_2x2_isolated_stream(self):
        mats = list(enumerate_legal(2, 2, L_SET))
        assert len(mats) == 5
        assert mats[0].packed == 0

    def test_lexicographic_order(self):
        packed = [m.packed for m in enumerate_legal(2, 3, M_SET)]
        assert packed == sorted(packed)

    def test_empty_board_stream(self):
        mats = list(enumerate_legal(0, 5, M_SET))
        assert len(mats) == 1
        assert mats[0].packed == 0

    def test_guard_raised_eagerly(self):
        with pytest.raises(GuardExceeded):
            enumerate_legal(6, 6, M_SET)

    @pytest.mark.parametrize("pats", [M_SET, U_SET, L_SET, uk_set(3)])
    def test_stream_length_equals_count(self, pats):
        for m, n in [(1, 4), (2, 3), (3, 3), (4, 2)]:
            assert (sum(1 for _ in enumerate_legal(m, n, pats))
                    == count_by_enumeration(m, n, pats))

    def test_every_streamed_matrix_is_legal(self):
        for mat in enumerate_legal(3, 3, M_SET):
            assert find_violation(mat, M_SET) is None

    @pytest.mark.parametrize("dims", [(3, 6), (4, 5), (2, 9)])
    @pytest.mark.parametrize("pats", [M_SET, U_SET, L_SET])
    def test_stream_across_chunks(self, dims, pats):
        """17 to 20 cells: the stream crosses chunk boundaries of the scan."""
        packed = [mat.packed for mat in enumerate_legal(*dims, pats)]
        assert all(a < b for a, b in zip(packed, packed[1:]))
        assert len(packed) == count_via_transfer(*dims, pats)

    def test_stream_past_32_cells(self):
        """36 cells: the scan's chunks carry 36-bit candidates; only the
        first chunk is read, and its first 300 legal offsets are the first
        300 legal matrices."""
        dims = BoardDims(6, 6)
        start, legal = next(_scan(dims, M_SET))
        assert start == 0
        scanned = (t for t in range(1 << 16) if legal >> t & 1)
        naive = (v for v in itertools.count()
                 if naive_first_violation(BinaryMatrix(dims, v), M_SET) is None)
        assert (list(itertools.islice(scanned, 300))
                == list(itertools.islice(naive, 300)))


    @pytest.mark.parametrize("pats,high", [(L_SET, 0b1010), (uk_set(3), 0b1111)])
    def test_chunk_with_high_cells_set(self, pats, high):
        """A chunk of a 20-cell board whose four high cells, row 1's first
        four, hold high: against find_violation one candidate at a time."""
        dims = BoardDims(4, 5)
        start, legal = next(itertools.islice(_scan(dims, pats), high, None))
        assert start == high << 16 and legal
        for t in range(1 << 16):
            mat = BinaryMatrix(dims, start + t)
            assert (legal >> t & 1) == (find_violation(mat, pats) is None)


class TestMatrixText:
    def test_roundtrip(self):
        text = "101101\n100000\n001011"
        assert BinaryMatrix.from_text(text).to_text() == text

    def test_trailing_newline_tolerated(self):
        assert BinaryMatrix.from_text("10\n01\n").dims == BoardDims(2, 2)

    def test_empty_text_is_empty_board(self):
        mat = BinaryMatrix.from_text("")
        assert mat.dims == BoardDims(0, 0)

    def test_ragged_rejected(self):
        with pytest.raises(MatrixFormatError):
            BinaryMatrix.from_text("10\n011")

    def test_non_binary_rejected(self):
        with pytest.raises(MatrixFormatError):
            BinaryMatrix.from_text("10\n0x")

    def test_blank_row_rejected(self):
        with pytest.raises(MatrixFormatError):
            BinaryMatrix.from_text("10\n\n01")

    def test_packed_roundtrip(self):
        mat = BinaryMatrix.from_text("101\n010")
        assert BinaryMatrix(BoardDims(2, 3), mat.packed) == mat
        assert mat.packed == 0b101010

    @pytest.mark.parametrize("packed", [-1, 16])
    def test_packed_outside_the_board_rejected(self, packed):
        with pytest.raises(ValueError):
            BinaryMatrix(BoardDims(2, 2), packed)
