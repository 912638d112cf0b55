"""The two forms of the L frontier sweep in ``frontier``, packed ints and
numpy arrays, each read directly by the shared readers; the array form's
cell step against a plain model of the frontiers; the slot width that
keeps the packed counts exact; and the readers themselves, on a sweep
that overwrites its states."""

import random
import weakref
from functools import partial
from itertools import count, islice

import numpy as np
import pytest

import pawncount
from pawncount import frontier, transfer, verify
from pawncount.closedforms import closed_form_L
from pawncount.frontier import (_array_columns, _array_step, _ends,
                                _midpoint, _packed_columns, _sequence,
                                _slots, _total, _width, isolated_count,
                                isolated_frontiers, isolated_sequence)
from pawncount.transfer import _path_sets

N_MAX = 41


def array_sequence(m: int, n_max: int) -> list[int]:
    return _sequence(_array_columns(m), n_max)


def array_count(m: int, n: int) -> int:
    return _midpoint(_array_columns(m), n)


def packed_sequence(m: int, n_max: int, width: int) -> list[int]:
    return _sequence(_packed_columns(m, width), n_max,
                     partial(_total, width=width))


def packed_count(m: int, n: int, width: int) -> int:
    return _midpoint(_packed_columns(m, width), n,
                     partial(_total, width=width),
                     partial(_slots, m=m, width=width))


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
    expected = array_sequence(m, N_MAX)
    assert packed_sequence(m, N_MAX, _width(m, N_MAX)) == expected
    for n in range(N_MAX + 1):
        value = array_count(m, n)
        assert value == expected[n], n
        assert packed_count(m, n, _width(m, drawn(n))) == value, n


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
    expected = array_count(m, n)
    top = largest_slot(m, n, _width(m, n)).bit_length()
    assert packed_sequence(m, n, top - 1)[n] != expected
    top = largest_slot(m, drawn(n), _width(m, drawn(n))).bit_length()
    assert packed_count(m, n, (top - 1) // 8 * 8) != expected


@pytest.mark.parametrize("m", range(17, 26))
def test_tall_short_boards_equal_the_transposed_closed_form(m):
    expected = [1] + [closed_form_L(n, m) for n in (1, 2, 3)]
    assert isolated_sequence(m, 3) == expected
    assert [isolated_count(m, n) for n in range(4)] == expected


def test_the_work_bound_picks_the_route(monkeypatch):
    # each array sweep is recorded as [m, columns drawn] and yields zeros
    numpy_calls = []

    def array_columns(m):
        record = [m, 0]
        numpy_calls.append(record)
        for record[1] in count(1):
            yield np.zeros(1, dtype=np.int64)

    monkeypatch.setattr(frontier, "_array_columns", array_columns)
    assert isolated_count(16, 20) == transfer.count_via_transfer(
        16, 20, pawncount.L_SET)
    assert isolated_sequence(14, 40)[40] > 0
    assert numpy_calls == []
    isolated_count(16, 200)
    isolated_sequence(12, 2000)
    monkeypatch.setattr(frontier, "PACKED_WORK", 0)
    isolated_count(16, 20)
    # a count draws u_0..u_a, a = n/2 + 1; a sequence u_0..u_n_max
    assert numpy_calls == [[16, 101 + 1], [12, 2000 + 1], [16, 11 + 1]]


def test_the_l_sweep_lives_in_frontier_only():
    # span wrappers rebind a function by identity in every module
    assert not [name for name in vars(transfer) if "isolated" in name]
    for name in ("isolated_count", "isolated_sequence"):
        assert getattr(verify, name) is getattr(frontier, name)
    assert pawncount._MODULE_OF["isolated_sequence"] == "frontier"
    assert pawncount.isolated_sequence is frontier.isolated_sequence
    # one pair of readers serves every exact sweep, packed L included
    for name in ("_sequence", "_ends", "_midpoint"):
        assert getattr(transfer, name) is getattr(frontier, name)
    assert not hasattr(transfer, "_dot")
    for name in ("_packed_sequence", "_packed_count", "_array_sequence",
                 "_array_count"):
        assert not hasattr(frontier, name)


def overwriting(size: int, seed: int):
    """A sweep that yields one array and overwrites it in place before
    each next yield, as ``transfer.profile_step``'s zeta pass does."""
    rng = random.Random(seed)
    x = np.zeros(size, dtype=np.int64)
    while True:
        x[:] = [rng.randrange(1000) for _ in range(size)]
        yield x


@pytest.mark.parametrize("turn", [None, lambda u: u[::-1]],
                         ids=["as-drawn", "turned"])
@pytest.mark.parametrize("n", range(3, 10))
def test_each_half_is_read_when_it_is_drawn(n, turn):
    """The readers' ends equal those of copies taken independently, so
    u_b is read before the step to u_a overwrites it."""
    turned = {} if turn is None else {"turn": turn}
    u = [x.copy() for x in islice(overwriting(6, n), n + 1)]
    a = (n + 2) // 2
    right = u[n + 1 - a] if turn is None else turn(u[n + 1 - a])
    assert _ends(overwriting(6, n), n, **turned) == (
        u[a].tolist(), right.tolist())
    assert _midpoint(overwriting(6, n), n, **turned) == int(u[a] @ right)


def frontiers(m: int, r: int) -> list[tuple[int, int]]:
    """The legal frontiers (f, e) after the cell in row r: (f, 0) for every
    path set f, and (f, 1) where rows r-1, r and r+1 of f are clear, since
    the cell left of row r touches them."""
    near = sum(1 << i for i in (r - 1, r, r + 1) if 0 <= i < m)
    paths = [w for w in range(1 << m) if not w & w >> 1]
    return [(f, 0) for f in paths] + [(f, 1) for f in paths if not f & near]


@pytest.mark.parametrize("m", range(1, 17))
def test_array_step_moves_each_frontier(m):
    """One cell step in row r, from random counts on the frontiers after
    the row before it, against the frontiers model: the old row-r cell
    moves into e, so (f, e) comes from f with bit r set to e, under either
    old e; the old e is up and to the left of the new cell, so it drops
    out where that cell is set, except in row 0, whose old e lies at the
    foot of a column two back."""
    paths = _path_sets(m).tolist()
    assert paths == [w for w in range(1 << m) if not w & w >> 1]
    sizes = [len(frontiers(m, r)) for r in range(m)]
    assert max(sizes) == sizes[0] == sizes[-1] == isolated_frontiers(m)
    rank = {f: i for i, f in enumerate(paths)}
    rng = random.Random(m)
    for r in range(m):
        before = {key: rng.randrange(1000)
                  for key in frontiers(m, (r - 1) % m)}
        x = np.zeros(2 * len(paths), dtype=np.int64)
        for (f, e), value in before.items():
            x[e * len(paths) + rank[f]] = value
        want = np.zeros_like(x)
        for f, e in frontiers(m, r):
            source = f & ~(1 << r) | e << r
            old_e = 0 if r and f >> r & 1 else before.get((source, 1), 0)
            want[e * len(paths) + rank[f]] = before[source, 0] + old_e
        assert _array_step(x, _path_sets(m), r).tolist() == want.tolist(), r


def test_a_fresh_u_b_is_let_go_before_u_a_is_drawn():
    """The array frontier sweep yields a fresh array per column, so the
    readers hold u_b only as its list while the sweep steps to u_a."""
    held = []

    def fresh():
        for j in count():
            u = np.full(3, j)
            last = weakref.ref(u)
            yield u
            del u
            held.append(last() is not None)

    for n in range(3, 10):
        a = (n + 2) // 2
        assert _midpoint(fresh(), n) == 3 * a * (n + 1 - a)
    assert held and not any(held)
