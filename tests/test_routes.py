"""Route agreement: every route that can count a board gives one value,
and every route past its size guard exits 3."""

import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pawncount.cli import main
from pawncount.closedforms import closed_forms
from pawncount.frontier import isolated_count, isolated_sequence
from pawncount.oracle import (L_SET, M_SET, U_SET, ForbiddenPatternSet,
                              count_by_enumeration)
from pawncount.transfer import (colour_split_count, colour_split_sequence,
                                count_sequence, count_via_transfer)

PATTERNS = {"M": M_SET, "U": U_SET, "L": L_SET}


@st.composite
def boards(draw):
    """(quantity, m, n) with mn <= 20, so the oracle can enumerate it."""
    quantity = draw(st.sampled_from(sorted(PATTERNS)))
    m = draw(st.integers(1, 20))
    return quantity, m, draw(st.integers(0, 20 // m))


@settings(max_examples=60, deadline=5000)
@given(boards())
def test_every_route_agrees(board):
    quantity, m, n = board
    pats = PATTERNS[quantity]
    values = {count_by_enumeration(m, n, pats), count_via_transfer(m, n, pats)}
    values |= {form()[0] for form in closed_forms(quantity, m, n)}
    if quantity == "M":
        black, white = colour_split_sequence(m, n)
        values.add(black[n] * white[n])
        black, white = colour_split_count(m, n)
        values.add(black * white)
    if quantity == "L":
        values.add(isolated_sequence(m, n)[n])
        values.add(isolated_count(m, n))
    assert len(values) == 1, values


PATTERN_FLAGS = ("diag_down", "diag_up", "horiz_pair", "vert_pair")


@pytest.mark.parametrize("flags", [
    flags for size in range(1, 5) for flags in combinations(PATTERN_FLAGS, size)
], ids="+".join)
def test_full_profile_counts_every_pattern_set(flags):
    # the full profile's two routes against the oracle on all 15 sets
    pats = ForbiddenPatternSet(**dict.fromkeys(flags, True))
    for m in range(1, 6):
        sequence = count_sequence(m, 5, pats)
        for n in range(6):
            assert (count_by_enumeration(m, n, pats)
                    == count_via_transfer(m, n, pats) == sequence[n]), (m, n)


# (quantity, method, the first height each route refuses)
GUARDED_ROUTES = [
    ("M", "auto", 45),
    ("M", "decomposition", 45),
    ("M", "transfer", 23),
    ("U", "transfer", 23),
    ("L", "auto", 31),
    ("L", "transfer", 23),
]


@settings(max_examples=30, deadline=5000)
@given(st.sampled_from(GUARDED_ROUTES), st.integers(0, 100),
       st.integers(0, 100))
def test_over_limit_width_exits_3(route, extra_m, extra_n):
    quantity, method, limit = route
    argv = ["count", "-m", str(limit + extra_m), "-n", str(limit + extra_n),
            "--quantity", quantity, "--method", method]
    assert main(argv) == 3


@pytest.mark.parametrize("m", [31, 10 ** 6, 10 ** 18])
def test_l_guard_refuses_at_once(m, capsys):
    # the guard walks at most 2 * MAX_WIDTH Fibonacci terms, not m
    start = time.perf_counter()
    assert main(["count", "-m", str(m), "-n", str(m), "--quantity", "L"]) == 3
    assert time.perf_counter() - start < 1
    bound = "" if m == 31 else "more than "
    assert capsys.readouterr().err.startswith(
        f"error: the L sweep at height {m} holds {bound}")
