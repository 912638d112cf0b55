import math
import subprocess
import sys
import time

import numpy as np
import pytest

from pawncount import transfer
from pawncount.closedforms import closed_form_L, closed_form_M, shape_formula_M
from pawncount.decomposition import count_independent_sets, split_by_color
from pawncount.errors import GuardExceeded, NonConverged
from pawncount.oracle import (L_SET, M_SET, U_SET, BinaryMatrix,
                              count_by_enumeration, enumerate_legal,
                              find_violation, uk_set)
from pawncount.tiling import count_tilings, tiling_sequence
from pawncount.transfer import (_isolated_steps, _path_sets, build_transfer,
                                colour_split_sequence, count_sequence,
                                count_via_transfer, dominant_eigenvalue, exact,
                                isolated_frontiers, isolated_sequence,
                                profile_step, spectrum_small, sweep)

T2_REFERENCE = """\
1 1 1 1
1 1 0 0
1 0 1 0
1 0 0 0"""

T3_REFERENCE = """\
1 1 1 1 1 1 1 1
1 1 0 0 1 1 0 0
1 0 1 0 0 0 0 0
1 0 0 0 0 0 0 0
1 1 0 0 1 1 0 0
1 1 0 0 1 1 0 0
1 0 0 0 0 0 0 0
1 0 0 0 0 0 0 0"""

PHI = (1 + math.sqrt(5)) / 2


def admissible(m: int, pats) -> list[int]:
    """Masks of the legal m-by-1 boards in ascending order, top row as the
    most significant bit: the vertices of the height-m transfer matrix."""
    return sorted(board.packed for board in enumerate_legal(m, 1, pats))


def rows_of(v: int, m: int) -> str:
    """The cells of mask v from the top row down."""
    return format(v, f"0{m}b")


def render(matrix: np.ndarray) -> str:
    return "\n".join(" ".join(map(str, row)) for row in matrix)


def compatible(v: int, w: int, m: int, pats) -> bool:
    """Adjacency entry for masks v, w at height m, read off build_transfer."""
    index = {mask: i for i, mask in enumerate(admissible(m, pats))}
    return bool(build_transfer(m, pats)[index[v], index[w]])


class TestCompatible:
    def test_t2_entries(self):
        assert compatible(0b01, 0b01, 2, M_SET)
        assert not compatible(0b01, 0b10, 2, M_SET)

    def test_zero_column_compatible_with_anything(self):
        for w in range(16):
            assert compatible(0, w, 4, M_SET)
            assert compatible(0, w, 4, U_SET)

    def test_isolated_requires_disjoint_columns(self):
        assert not compatible(0b001, 0b001, 3, L_SET)
        assert compatible(0b001, 0b100, 3, L_SET)

    def test_u_set_is_one_sided(self):
        # 1 in the top of v and 1 in the bottom of w form the down word
        assert not compatible(0b10, 0b01, 2, U_SET)
        assert compatible(0b01, 0b10, 2, U_SET)

    def test_admissible_column_needs_no_vertical_pair(self):
        isolated = admissible(3, L_SET)
        assert 0b101 in isolated and 0b110 not in isolated
        assert build_transfer(3, L_SET).shape == (5, 5)
        assert build_transfer(3, M_SET).shape == (8, 8)


class TestBuildTransfer:
    def test_t2_matches_reference(self):
        assert render(build_transfer(2, M_SET)) == T2_REFERENCE

    def test_t3_matches_reference(self):
        assert render(build_transfer(3, M_SET)) == T3_REFERENCE

    def test_height_one_is_all_ones(self):
        matrix = build_transfer(1, M_SET)
        assert matrix.dtype == np.int8
        assert render(matrix) == "1 1\n1 1"

    def test_isolated_vertices_and_degrees(self):
        assert [format(v, "03b") for v in admissible(3, L_SET)] == [
            "000", "001", "010", "100", "101"]
        degrees = sorted(build_transfer(3, L_SET).sum(axis=1), reverse=True)
        assert degrees == [5, 2, 2, 1, 1]

    def test_adjacency_agrees_with_compatible(self):
        # v may precede w iff the two-column board [v w] avoids the patterns
        for m in range(1, 5):
            for pats in (M_SET, U_SET, L_SET):
                matrix = build_transfer(m, pats)
                masks = admissible(m, pats)
                assert matrix.shape == (len(masks), len(masks))
                for i, v in enumerate(masks):
                    for j, w in enumerate(masks):
                        board = BinaryMatrix.from_text("\n".join(
                            map("".join, zip(rows_of(v, m), rows_of(w, m)))))
                        assert matrix[i, j] == int(
                            find_violation(board, pats) is None)

    def test_symmetry(self):
        def symmetric(matrix):
            return np.array_equal(matrix, matrix.T)

        assert symmetric(build_transfer(4, M_SET))
        assert symmetric(build_transfer(4, L_SET))
        assert not symmetric(build_transfer(3, U_SET))

    def test_dense_guard(self):
        with pytest.raises(GuardExceeded):
            build_transfer(13, M_SET)
        assert build_transfer(12, M_SET).shape == (4096, 4096)

    def test_long_runs_rejected(self):
        with pytest.raises(ValueError):
            build_transfer(3, uk_set(3))

    def test_run_of_two_equals_single_diagonal(self):
        assert np.array_equal(build_transfer(3, uk_set(2)),
                              build_transfer(3, U_SET))


class TestWidthGuard:
    """Each sweep refuses more than 2^22 states before allocating them:
    the full profile at height 23, the L frontier sweep at height 31 and
    the colour split at height 45."""

    @pytest.mark.parametrize("sweep", [
        lambda: count_via_transfer(23, 2),
        lambda: count_sequence(23, 2),
        lambda: colour_split_sequence(45, 2),
        lambda: dominant_eigenvalue(45),
        lambda: isolated_sequence(31, 2),
    ])
    def test_refused_at_once(self, sweep):
        start = time.perf_counter()
        with pytest.raises(GuardExceeded):
            sweep()
        assert time.perf_counter() - start < 1.0


class TestCounting:
    @pytest.mark.parametrize("m,n,pats,expected", [
        (2, 2, M_SET, 9),       # sum of T2 entries
        (3, 2, M_SET, 25),      # sum of T3 entries: 8+4+2+1+4+4+1+1
        (3, 5, M_SET, 2117),    # 73 * 29
        (3, 3, L_SET, 35),
        (1, 10, M_SET, 1024),
    ])
    def test_known_counts(self, m, n, pats, expected):
        assert count_via_transfer(m, n, pats) == expected

    def test_boundary_exponents(self):
        assert count_via_transfer(4, 0, M_SET) == 1
        assert count_via_transfer(4, 1, M_SET) == 16     # all 2^m columns
        assert count_via_transfer(4, 1, L_SET) == 8      # no-adjacent-bit masks

    def test_matches_oracle(self):
        for pats in (M_SET, U_SET, L_SET):
            for m in range(1, 5):
                for n in range(0, 13 // m + 1):
                    assert (count_via_transfer(m, n, pats)
                            == count_by_enumeration(m, n, pats)), (m, n, pats)

    def test_transpose_symmetry(self):
        for m in range(1, 7):
            for n in range(1, 7):
                assert (count_via_transfer(m, n, M_SET)
                        == count_via_transfer(n, m, M_SET))

    def test_count_sequence_consistent(self):
        seq = count_sequence(3, 8, M_SET)
        assert seq == [count_via_transfer(3, n, M_SET) for n in range(9)]
        assert all(type(v) is int for v in seq)

    def test_first_column_in_python_ints(self):
        """n = 1 up to the width guard: 2^m columns for M and U, F(m+1)
        with no vertical pair for L (F(0) = F(1) = 1)."""
        fib = [1, 1]
        while len(fib) < 24:
            fib.append(fib[-1] + fib[-2])
        for m in range(1, 23):
            for pats, expected in ((M_SET, 2 ** m), (U_SET, 2 ** m),
                                   (L_SET, fib[m + 1])):
                value = count_via_transfer(m, 1, pats)
                assert type(value) is int and value == expected, (m, pats)
                assert count_sequence(m, 1, pats) == [1, expected]
                assert all(type(v) is int for v in count_sequence(m, 1, pats))

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            count_via_transfer(0, 3, M_SET)
        with pytest.raises(ValueError):
            count_via_transfer(3, -1, M_SET)


def reference_step(xs, width, allowed, keep):
    """Plain-loop zeta transform and gather, the reference for profile_step."""
    acc = list(xs)
    for b in range(width):
        for w in range(1 << width):
            if w & (1 << b):
                acc[w] += acc[w ^ (1 << b)]
    return [acc[a] if keep is None or keep[w] else 0
            for w, a in enumerate(allowed)]


class TestProfileStep:
    @pytest.mark.parametrize("width,out_width", [(0, 2), (1, 1), (3, 3),
                                                 (4, 2), (5, 6)])
    def test_matches_loop_reference(self, width, out_width):
        rng = np.random.default_rng(width * 7 + out_width)
        xs = [int(v) * 10 ** 30 + 1 for v in rng.integers(0, 50, 1 << width)]
        small = [v // 10 ** 30 for v in xs]
        allowed = rng.integers(0, 1 << width, 1 << out_width)
        for keep in (None, rng.random(1 << out_width) < 0.5):
            expected = reference_step(xs, width, allowed, keep)
            python_ints = profile_step(np.array(xs, dtype=object), width,
                                       allowed, keep)
            assert list(python_ints) == expected
            machine = profile_step(np.array(small, dtype=np.int64), width,
                                   allowed, keep)
            assert machine.tolist() == reference_step(small, width, allowed, keep)
            floats = profile_step(np.array(xs, dtype=np.float64), width,
                                  allowed, keep)
            assert list(floats) == reference_step(
                [float(v) for v in xs], width, allowed, keep)


class TestMachineWords:
    """Each exact sweep runs in int64 until len(x) * max(x) reaches 2^63,
    then in Python ints; its counts past 2^63 match a closed form."""

    @staticmethod
    def past_int64(counts):
        assert all(type(v) is int for v in counts)
        assert counts[-1] > 2 ** 63
        return counts

    def test_boundary(self):
        # 2^63 - 1 = 7 * 1317624576693539401
        fits = np.full(7, (2 ** 63 - 1) // 7, dtype=np.int64)
        assert exact(fits) is fits
        assert int(fits.sum()) == 2 ** 63 - 1
        wide = np.full(2, 2 ** 62, dtype=np.int64)
        converted = exact(wide)
        assert converted.dtype == object
        assert converted.tolist() == [2 ** 62, 2 ** 62]
        assert type(converted[0]) is int
        assert exact(converted) is converted

    def test_full_sweep(self):
        counts = self.past_int64(count_sequence(3, 40, M_SET))
        assert counts == [closed_form_M(3, n) for n in range(41)]

    def test_colour_split(self):
        black, white = colour_split_sequence(6, 40)
        self.past_int64(black)
        self.past_int64(white)
        assert ([b * w for b, w in zip(black, white)]
                == [shape_formula_M(6, n)[0] for n in range(41)])

    def test_frontier_sweep(self):
        counts = self.past_int64(isolated_sequence(3, 80))
        assert counts == [closed_form_L(3, n) for n in range(81)]

    def test_tiling_sweep(self):
        # the 2-by-c tilings are the 1-by-(c-1) isolated matrices
        counts = self.past_int64(tiling_sequence(2, 120))
        assert counts[1:] == [closed_form_L(1, c - 1) for c in range(1, 121)]

    def test_shape_sweep(self):
        black, white = split_by_color(2, 100)
        counts = self.past_int64([count_independent_sets(shape, guard=100)
                                  for shape in (black, white)])
        assert counts[0] * counts[1] == closed_form_M(2, 100)


class TestSweep:
    """``sweep`` is the one place an exact sweep applies ``exact``."""

    def test_start_state_comes_before_any_step(self):
        drawn = []

        def steps():
            drawn.append("step")
            yield lambda x: x + 1

        states = sweep(np.zeros(3, dtype=np.int64), steps())
        assert next(states).tolist() == [0, 0, 0]
        assert drawn == []
        assert next(states).tolist() == [1, 1, 1]
        assert drawn == ["step"]
        assert list(states) == []

    def test_step_past_the_bound_returns_python_ints(self):
        # 2 * 2^62 = 2^63 breaks the bound although each entry fits in int64
        start, doubled = sweep(np.full(2, 2 ** 61, dtype=np.int64),
                               [lambda x: x * 2])
        assert start.dtype == np.int64
        assert doubled.dtype == object
        assert doubled.tolist() == [2 ** 62, 2 ** 62]
        assert all(type(v) is int for v in doubled)

    @pytest.mark.parametrize("run,steps", [
        (lambda: count_sequence(5, 6, M_SET), 5),
        (lambda: colour_split_sequence(5, 6), 10),
        (lambda: isolated_sequence(4, 3), 12),
        (lambda: tiling_sequence(3, 4), 4),
        (lambda: count_independent_sets(split_by_color(3, 4)[0]), 4),
    ])
    def test_every_sweep_applies_exact_once_per_step(self, monkeypatch, run,
                                                     steps):
        calls = []
        monkeypatch.setattr(transfer, "exact",
                            lambda x, exact=exact: calls.append(x) or exact(x))
        run()
        assert len(calls) == steps


# Peak RSS growth, in KB, of one first-column count after the imports.
# VmHWM is the peak of this process's own memory; ru_maxrss would also hold
# the RSS of the process that started it, which can hide the growth.
_FIRST_COLUMN_PROBE = """
import sys
from pawncount.oracle import L_SET
from pawncount.transfer import count_via_transfer

def peak_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status
                    if line.startswith("VmHWM:"))

m, expected = map(int, sys.argv[1:])
count_via_transfer(2, 2, L_SET)
before = peak_kb()
assert count_via_transfer(m, 1, L_SET) == expected
print(peak_kb() - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak RSS from /proc/self/status")
def test_first_column_is_counted_from_its_bool_table():
    """The count of one column reads the 2^m-byte bool table of legal
    columns, set at the F(m+2) path sets: no 2^m array of column masks
    exists (in uint32 it would take 4 MB at m = 20, 16 MB at m = 22)."""
    for m, expected, bound_mb in ((20, 17711, 4), (22, 46368, 8)):
        result = subprocess.run([sys.executable, "-c", _FIRST_COLUMN_PROBE,
                                 str(m), str(expected)],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert int(result.stdout) < bound_mb * 1024, m


class TestColourSplit:
    def test_product_equals_full_transfer(self):
        for m in range(1, 13):
            black, white = colour_split_sequence(m, 15)
            assert ([b * w for b, w in zip(black, white)]
                    == count_sequence(m, 15, M_SET)), m
        black, white = colour_split_sequence(14, 20)
        assert black[20] * white[20] == count_via_transfer(14, 20, M_SET)

    def test_thirty_rows_equal_the_four_row_formula(self):
        # the 30-by-4 board is the transposed 4-by-30 one
        black, white = colour_split_sequence(30, 4)
        assert black[4] * white[4] == shape_formula_M(4, 30)[0]

    def test_even_heights_have_equal_classes(self):
        for m in (2, 4, 6, 8):
            black, white = colour_split_sequence(m, 9)
            assert black == white

    def test_short_sequences(self):
        assert colour_split_sequence(3, 0) == ([1], [1])
        assert colour_split_sequence(3, 1) == ([1, 4], [1, 2])
        assert colour_split_sequence(1, 3) == ([1, 2, 2, 4], [1, 1, 2, 2])

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            colour_split_sequence(0, 3)
        with pytest.raises(ValueError):
            colour_split_sequence(3, -1)


class TestIsolatedSequence:
    def test_equals_full_transfer(self):
        for m in range(1, 13):
            assert isolated_sequence(m, 15) == count_sequence(m, 15, L_SET), m
        assert isolated_sequence(16, 20)[20] == count_via_transfer(16, 20, L_SET)

    def test_past_the_full_profile(self):
        # no 2^m route reaches height 23; the transposed closed forms do,
        # and past 24 rows the gather tables are rebuilt for each column
        for m in (23, 24, 25):
            assert isolated_sequence(m, 3) == [1] + [closed_form_L(n, m)
                                                     for n in (1, 2, 3)]
        # the bijection: L(25, 4) counts the tilings of a 5-by-26 board
        assert isolated_sequence(25, 4)[4] == count_tilings(5, 26)

    def test_steps_number_frontiers_by_rank(self):
        for m in range(1, 17):
            paths = [w for w in range(1 << m) if not w & w >> 1]
            assert _path_sets(m).tolist() == paths

        def frontiers(m, r):
            # (f, 0) for every f, then the legal (f, 1): the cell left of
            # row r touches rows r-1, r and r+1
            near = sum(1 << i for i in (r - 1, r, r + 1) if 0 <= i < m)
            paths = _path_sets(m).tolist()
            return ([(f, 0) for f in paths]
                    + [(f, 1) for f in paths if not f & near])

        for m in range(1, 11):
            before, sizes = frontiers(m, m - 1), []
            for r, (lo, hi) in enumerate(_isolated_steps(_path_sets(m), m)):
                after = frontiers(m, r)
                want_lo, want_hi = [], []
                for f, e in after:
                    # the old row-r cell moves into e; the old e is 0 or
                    # 1, and 1 only where that frontier is legal and, past
                    # row 0, the new cell in row r is empty
                    source = f & ~(1 << r) | e << r
                    want_lo.append(before.index((source, 0)))
                    fits = (source, 1) in before and not (r and f >> r & 1)
                    want_hi.append(before.index((source, 1)) if fits else -1)
                # the sentinel (index -1) maps to the sentinel
                assert lo.tolist() == want_lo + [-1], (m, r)
                assert hi.tolist() == want_hi + [-1], (m, r)
                sizes.append(len(after))
                before = after
            assert max(sizes) == sizes[0] == sizes[-1] == isolated_frontiers(m)

    def test_tables_rebuilt_per_column_past_the_bound(self, monkeypatch):
        # at a bound of 1000 entries, height 10 holds 199 frontiers but not
        # the 1990 entries of one column's gather tables
        built = []
        steps = transfer._isolated_steps
        monkeypatch.setattr(transfer, "MAX_STATES", 1000)
        monkeypatch.setattr(transfer, "_isolated_steps",
                            lambda *args: built.append(args) or steps(*args))
        assert isolated_sequence(10, 12) == count_sequence(10, 12, L_SET)
        assert len(built) == 12

    def test_frontier_counts(self):
        assert [isolated_frontiers(m) for m in (14, 20, 30, 31)] == [
            1364, 24476, 3010349, 4870847]

    def test_short_sequences(self):
        assert isolated_sequence(3, 0) == [1]
        assert isolated_sequence(1, 4) == [1, 2, 3, 5, 8]

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            isolated_sequence(0, 3)
        with pytest.raises(ValueError):
            isolated_sequence(3, -1)


class TestEigenvalues:
    def test_height_one(self):
        assert dominant_eigenvalue(1, M_SET) == pytest.approx(2.0, abs=1e-10)

    def test_height_two_golden_square(self):
        assert dominant_eigenvalue(2, M_SET) == pytest.approx(PHI ** 2, abs=1e-8)

    def test_height_three(self):
        assert dominant_eigenvalue(3, M_SET) == pytest.approx(
            (5 + math.sqrt(13)) / 2, abs=1e-8)

    def test_height_four_closed_form(self):
        closed = 8 / 3 + (4 / 3) * math.sqrt(7) * math.cos(
            math.atan(3 * math.sqrt(111) / 67) / 3)
        assert closed == pytest.approx(6.15630, abs=1e-4)
        assert dominant_eigenvalue(4, M_SET) == pytest.approx(closed, abs=1e-6)

    def test_colour_operator_matches_dense_spectrum(self):
        for m in range(1, 11):
            top = spectrum_small(m, M_SET)[0]
            assert dominant_eigenvalue(m, M_SET) == pytest.approx(top, rel=1e-9)

    def test_other_pattern_sets_rejected(self):
        for pats in (U_SET, L_SET):
            with pytest.raises(ValueError):
                dominant_eigenvalue(3, pats)

    def test_non_convergence_raises(self):
        with pytest.raises(NonConverged):
            dominant_eigenvalue(3, M_SET, tol=1e-15, max_iter=2)

    def test_ratio_convergence(self):
        for m in range(1, 5):
            seq = count_sequence(m, 201, M_SET)
            ratio = seq[201] / seq[200]
            assert ratio == pytest.approx(dominant_eigenvalue(m, M_SET), abs=1e-6)

    def test_growth_bracket(self):
        alphas = [dominant_eigenvalue(m, M_SET) for m in range(1, 9)]
        assert all(a < b for a, b in zip(alphas, alphas[1:]))
        for m, alpha in enumerate(alphas, start=1):
            assert 1.5 < alpha ** (1 / m) <= 2.0


class TestSpectrum:
    def test_height_one_rank_one(self):
        assert np.allclose(spectrum_small(1, M_SET), [2.0, 0.0], atol=1e-12)

    def test_height_two_top(self):
        assert spectrum_small(2, M_SET)[0] == pytest.approx(PHI ** 2, abs=1e-10)

    def test_descending_and_sized(self):
        spec = spectrum_small(4, M_SET)
        assert len(spec) == 16
        assert all(a >= b for a, b in zip(spec, spec[1:]))

    def test_height_four_has_seven_zeros(self):
        spec = spectrum_small(4, M_SET)
        assert sum(1 for s in spec if abs(s) < 1e-9) == 7

    def test_top_matches_power_iteration(self):
        for m in (2, 3, 4, 5):
            assert spectrum_small(m, M_SET)[0] == pytest.approx(
                dominant_eigenvalue(m, M_SET), abs=1e-8)

    @pytest.mark.parametrize("pats", [U_SET, L_SET])
    def test_other_pattern_sets_rejected(self, pats):
        with pytest.raises(ValueError, match="M only"):
            spectrum_small(3, pats)
