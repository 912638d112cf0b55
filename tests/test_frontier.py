"""The L frontier sweep on packed ints (``frontier``) against the numpy one
(``transfer``), each route called directly, and the slot width that keeps
the packed counts exact."""

from itertools import islice

import pytest

import pawncount
from pawncount import frontier, transfer
from pawncount.closedforms import closed_form_L
from pawncount.frontier import (_packed_columns, _packed_count,
                                _packed_sequence, _slots, _width,
                                isolated_count, isolated_sequence)

N_MAX = 41


def drawn(n: int) -> int:
    """The columns a count of n columns sweeps: u_n for n <= 2, else the
    middle column a = ceil((n+1)/2)."""
    return n if n <= 2 else (n + 2) // 2


def largest_slot(m: int, columns: int, width: int) -> int:
    """The largest slot of the column states u_0..u_columns."""
    states = islice(_packed_columns(m, width), columns + 1)
    return max(max(_slots(y, m, width)) for y in states)


@pytest.mark.parametrize("m", range(1, 17))
def test_routes_agree(m):
    expected = transfer._isolated_sequence(m, N_MAX)
    assert _packed_sequence(m, N_MAX, _width(m, N_MAX)) == expected
    for n in range(N_MAX + 1):
        count = transfer._isolated_count(m, n)
        assert count == expected[n], n
        assert _packed_count(m, n, _width(m, drawn(n))) == count, n


@pytest.mark.parametrize("m", range(1, 17))
def test_every_slot_keeps_its_spare_bit(m):
    for columns in {drawn(n) for n in range(N_MAX + 1)} | {N_MAX}:
        width = _width(m, columns)
        assert width % 8 == 0
        assert largest_slot(m, columns, width) < 1 << width - 1, columns


@pytest.mark.parametrize("m,n", [(4, 41), (9, 30), (13, 24), (16, 41)])
def test_too_narrow_a_slot_miscounts(m, n):
    """Slots narrower than the largest one carry into their neighbours and
    the count goes wrong, so the agreement above would catch a width that
    is too small."""
    expected = transfer._isolated_count(m, n)
    top = largest_slot(m, n, _width(m, n)).bit_length()
    assert _packed_sequence(m, n, top - 1)[n] != expected
    top = largest_slot(m, drawn(n), _width(m, drawn(n))).bit_length()
    assert _packed_count(m, n, (top - 1) // 8 * 8) != expected


@pytest.mark.parametrize("m", range(17, 26))
def test_tall_short_boards_equal_the_transposed_closed_form(m):
    expected = [1] + [closed_form_L(n, m) for n in (1, 2, 3)]
    assert isolated_sequence(m, 3) == expected
    assert [isolated_count(m, n) for n in range(4)] == expected


def test_the_work_bound_picks_the_route(monkeypatch):
    numpy_calls = []
    for name in ("_isolated_count", "_isolated_sequence"):
        monkeypatch.setattr(transfer, name, lambda *args, name=name:
                            numpy_calls.append((name, *args)) or 0)
    assert isolated_count(16, 20) == transfer.count_via_transfer(
        16, 20, pawncount.L_SET)
    assert isolated_sequence(14, 40)[40] > 0
    assert numpy_calls == []
    isolated_count(16, 200)
    isolated_sequence(12, 2000)
    monkeypatch.setattr(frontier, "PACKED_WORK", 0)
    isolated_count(16, 20)
    assert numpy_calls == [("_isolated_count", 16, 200),
                           ("_isolated_sequence", 12, 2000),
                           ("_isolated_count", 16, 20)]


def test_moved_functions_are_re_exported():
    # span wrappers rebind a function by identity in every module
    for name in ("isolated_count", "isolated_sequence", "isolated_frontiers"):
        assert getattr(transfer, name) is getattr(frontier, name)
    assert pawncount._MODULE_OF["isolated_sequence"] == "frontier"
    assert pawncount.isolated_sequence is frontier.isolated_sequence
