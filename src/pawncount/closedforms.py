"""Closed-form counts, generating functions, recurrence fitting, asymptotics.

Everything here is exact unless a function explicitly returns float.  One
Fibonacci indexing is used throughout: F(0) = F(1) = 1, so F runs
1, 1, 2, 3, 5, 8, ...  Radical formulas are evaluated in Z[sqrt(d)]
with integer components, and their denominator is divided out exactly, so
that integrality is a hard correctness check, never a rounding accident.

M has a closed form at every height from 1 to 16: radical forms at
heights 1..3, black/white shape formulas at 2..6, and at 7..16 the
minimal colour-class generating functions, fitted once from the colour
split and stored as data in ``classgf`` (imported on first use).  A stored
generating function is expanded term by term (``_terms``), holding only as
many terms as its order, and each keeps where its expansion has got to, so
a single count of any length holds O(order) terms.
"""

from __future__ import annotations

import math
import operator
from collections import deque, namedtuple
from collections.abc import Callable, Collection, Iterator
from functools import lru_cache
from itertools import chain, islice, repeat

from .errors import InvalidK, NoFitFound, NonIntegerResult

#: Infinite-product constant governing Fibonacci factorial growth,
#: prod_{j>=1} (1 - q^j) with q = (sqrt(5)-3)/2.
FIB_PRODUCT_CONSTANT = 1.2267420107203532444176302
_PHI = (1 + math.sqrt(5)) / 2


def _k_fibonacci_terms(k: int) -> Iterator[int]:
    """F(k, 0), F(k, 1), ...: each term sums the k before it.  The window
    sum is kept as it slides, so a term costs O(1), not O(k)."""
    window = deque([0] * (k - 1) + [1], maxlen=k)  # F(k, i-k+1) .. F(k, i)
    total = 1  # sum(window), the next term
    while True:
        yield window[-1]
        oldest = window[0]
        window.append(total)
        total = 2 * total - oldest


def fibonacci(i: int) -> int:
    """Fibonacci number with F(0) = F(1) = 1."""
    if i < 0:
        raise ValueError("index must be >= 0")
    return next(islice(_k_fibonacci_terms(2), i, None))


def fib_product(count: int) -> int:
    """Product of the first ``count`` Fibonacci numbers F(1)..F(count),
    i.e. 1 * 2 * 3 * 5 * 8 * ...; empty product is 1."""
    if count < 0:
        raise ValueError("count must be >= 0")
    return math.prod(islice(_k_fibonacci_terms(2), 1, count + 1))


def upper_bound_U(m: int, n: int) -> int:
    """Exact count of m-by-n matrices avoiding one diagonal word; this is
    the U quantity, and an upper bound for the pawn count M.

    Shearing columns turns the diagonal constraint into independent rows
    with no adjacent 1s; multiply the per-row counts F(len + 1): two rows
    of each length 1..min-1 and |n - m| + 1 rows of length min(m, n).
    """
    return _sheared_rows(m, n, 2)


def upper_bound_U_k(m: int, n: int, k: int) -> int:
    """Count of m-by-n matrices with no k-run on a down-right diagonal;
    same shape as upper_bound_U with k-generalized Fibonacci numbers."""
    if k < 2:
        raise InvalidK(f"diagonal run length must be >= 2, got {k}")
    return _sheared_rows(m, n, k)


def _sheared_rows(m: int, n: int, k: int) -> int:
    """U_k(m, n) from one walk over F(k, 0..min(m, n) + 1): a sheared row
    of length l has F(k, l + 1) fillings.

    No diagonal is longer than min(m, n), so every k above it counts the
    same boards as k = min(m, n) + 1 (all 2^(mn) of them); the walk uses
    that k, and its window never outgrows the board."""
    if m < 0 or n < 0:
        raise ValueError("dimensions must be nonnegative")
    shorter = min(m, n)
    *rows, longest = islice(_k_fibonacci_terms(min(k, shorter + 1)), shorter + 2)
    return longest ** (abs(n - m) + 1) * math.prod(rows) ** 2


def _surd_power(a: int, b: int, d: int, e: int) -> tuple[int, int]:
    """The integers (p, q) with p + q*sqrt(d) = (a + b*sqrt(d))^e, by
    repeated squaring in Z[sqrt(d)]; e >= 0."""
    p, q = 1, 0
    while e:
        if e & 1:
            p, q = p * a + d * q * b, p * b + q * a
        a, b = a * a + d * b * b, 2 * a * b
        e >>= 1
    return p, q


def _exact_quotient(numerator: int, denominator: int, what: str) -> int:
    """numerator / denominator, which must be an integer: a closed form
    whose division leaves a remainder raises instead of being rounded."""
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        # no operands in the message: past 4300 digits str() of them raises
        raise NonIntegerResult(f"closed form of {what} left a remainder")
    return quotient


def _check_form(m: int, n: int, heights: Collection[int], what: str) -> None:
    """Refuse a height outside ``heights`` (a range, or the keys of a
    dict of stored heights), naming its span, then a negative n."""
    if m not in heights:
        raise ValueError(f"{what} cover heights {min(heights)}..{max(heights)}, "
                         f"got {m}")
    if n < 0:
        raise ValueError("n must be >= 0")


def closed_form_M(m: int, n: int) -> int:
    """Radical closed forms for the pawn count at heights 1..3.

    Height 1 is 2^n.  Height 2 is (7/10)(phi^2n + phibar^2n)
    + (3/10)sqrt(5)(phi^2n - phibar^2n) + 2/5 for odd n (- 2/5 for even n),
    with phi = (1 + sqrt(5))/2.  Height 3 is (r^(n+2) + rbar^(n+2) + e)/13
    with r = (5 + sqrt(13))/2, where the sqrt(3)-power term e is rational
    once split by the parity of n.  Each power is taken in Z[sqrt(d)]
    with the denominator cleared, the conjugate terms cancel the sqrt(d)
    part, and the cleared denominator is divided out exactly.
    """
    _check_form(m, n, range(1, 4), "closed forms")
    if m == 1:
        return 2 ** n
    if m == 2:
        # (1 + sqrt5)^(2n) = p + q sqrt5 = 4^n phi^(2n)
        p, q = _surd_power(1, 1, 5, 2 * n)
        scale = 4 ** n
        sign = 1 if n % 2 else -1
        return _exact_quotient(7 * p + 15 * q + sign * 2 * scale, 5 * scale,
                               f"M(2,{n})")
    # (5 + sqrt13)^(n+2) = p + q sqrt13 = 2^(n+2) r^(n+2)
    p, _ = _surd_power(5, 1, 13, n + 2)
    scale = 2 ** (n + 2)
    extra = 8 * 3 ** ((n + 1) // 2) if n % 2 else -6 * 3 ** (n // 2)
    return _exact_quotient(2 * p + extra * scale, 13 * scale, f"M(3,{n})")


def closed_form_L(m: int, n: int) -> int:
    """Exact closed values for the fully-isolated count at heights 1..3.

    Height 1 is F(n+1); height 2 is (2^(n+2) - (-1)^n) / 3; height 3 uses
    the order-3 integer recurrence L(k) = 2L(k-1) + 3L(k-2) - 2L(k-3) with
    seeds 1, 5, 11 (the float root form is a numeric check only, see
    l3_root_closed_form)."""
    _check_form(m, n, range(1, 4), "closed forms")
    if m == 1:
        return fibonacci(n + 1)
    if m == 2:
        return _exact_quotient(2 ** (n + 2) - (-1) ** n, 3, f"L(2,{n})")
    return _gf_term(GF_THREE_ROW_L, n)


def l3_root_closed_form(n: int) -> float:
    """Float root form of the height-3 isolated count.

    Uses the corrected root coefficients sqrt(39)/3 and sqrt(13)/3 on the
    second and third roots (the published doubled coefficients do not even
    sum to the recurrence trace 2); the leading coefficients are published
    to ~12 digits, so this is a numeric check, not an exact route.
    """
    beta = math.atan(3 * math.sqrt(237) / 8) / 3
    s13 = math.sqrt(13) / 3
    s39 = math.sqrt(39) / 3
    r1 = 2 / 3 + 2 * s13 * math.cos(beta)
    r2 = 2 / 3 - s39 * math.sin(beta) - s13 * math.cos(beta)
    r3 = 2 / 3 + s39 * math.sin(beta) - s13 * math.cos(beta)
    a = 1.51212496094
    b = -0.542960193686
    c = 0.0308352327442
    return a * r1 ** n + b * r2 ** n + c * r3 ** n


class LinearRecurrence(namedtuple("LinearRecurrence", "numerator denominator")):
    """Rational generating function: integer numerator over an integer
    denominator with constant term 1; denominator degree = recurrence order."""

    __slots__ = ()

    def __new__(cls, numerator: tuple[int, ...], denominator: tuple[int, ...]):
        num = tuple(int(c) for c in numerator)
        den = tuple(int(c) for c in denominator)
        if any(num[i] != numerator[i] for i in range(len(num))) or \
           any(den[i] != denominator[i] for i in range(len(den))):
            raise ValueError("coefficients must be integers")
        while len(num) > 1 and num[-1] == 0:
            num = num[:-1]
        while len(den) > 1 and den[-1] == 0:
            den = den[:-1]
        if not den or den[0] != 1:
            raise ValueError("denominator must have constant term 1")
        return super().__new__(cls, num, den)

    def expand(self, count: int) -> list[int]:
        """First ``count`` Taylor coefficients, exact integers."""
        return list(islice(_terms(self), count))


def _terms(rec: LinearRecurrence) -> Iterator[int]:
    """rec's Taylor coefficients in turn, exact integers: the one expander.
    It holds only the last ``order`` of them (zeros before n = 0)."""
    order = len(rec.denominator) - 1
    reverse = rec.denominator[:0:-1]  # den[order], ..., den[1]
    last = deque([0] * order, maxlen=order)  # terms k-order .. k-1
    for value in chain(rec.numerator, repeat(0)):
        # num[k] less den[j] * term(k - j) over j = 1..order
        term = value - sum(map(operator.mul, reverse, last))
        last.append(term)
        yield term


def _berlekamp_massey(values: list[int]) -> tuple[list, int]:
    """Minimal connection polynomial C, as Fractions, with C[0] = 1 and
    sum_j C[j] * values[n - j] == 0 for all n >= len(C) - 1."""
    # the only exact rationals in the package: loaded for a fit alone
    from fractions import Fraction

    seq = [Fraction(v) for v in values]
    connection = [Fraction(1)]
    backup = [Fraction(1)]
    order = 0
    shift = 1
    last_discrepancy = Fraction(1)
    for n, value in enumerate(seq):
        discrepancy = value + sum(connection[i] * seq[n - i]
                                  for i in range(1, order + 1))
        if discrepancy == 0:
            shift += 1
            continue
        scale = discrepancy / last_discrepancy
        update = connection[:]
        need = shift + len(backup)
        if len(update) < need:
            update += [Fraction(0)] * (need - len(update))
        for i, coeff in enumerate(backup):
            update[shift + i] -= scale * coeff
        if 2 * order <= n:
            backup = connection
            order = n + 1 - order
            last_discrepancy = discrepancy
            shift = 1
        else:
            shift += 1
        connection = update
    connection = connection[:order + 1]
    connection += [Fraction(0)] * (order + 1 - len(connection))
    return connection, order


def fit_linear_recurrence(seq, max_order: int) -> LinearRecurrence:
    """Minimal-order linear recurrence generating the whole sequence.

    Exact over rationals; raises NoFitFound when nothing of order at most
    max_order works.  Needs at least 2 * max_order + 2 terms so that
    minimality is certified, not guessed.
    """
    values = [int(v) for v in seq]
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    if len(values) < 2 * max_order + 2:
        raise ValueError(
            f"need at least {2 * max_order + 2} terms to certify order "
            f"{max_order}, got {len(values)}")
    connection, order = _berlekamp_massey(values)
    if order > max_order:
        raise NoFitFound(
            f"minimal recurrence order {order} exceeds max_order {max_order}")
    for k in range(order, len(values)):
        if sum(connection[j] * values[k - j] for j in range(order + 1)) != 0:
            raise NoFitFound("no single recurrence generates the whole sequence")
    if any(c.denominator != 1 for c in connection):
        raise NoFitFound("minimal recurrence has non-integer coefficients")
    den = tuple(int(c) for c in connection)
    num = tuple(
        sum(den[j] * values[k - j] for j in range(min(k, order) + 1))
        for k in range(order))
    return LinearRecurrence(num if num else (0,), den)


# Generating functions of the closed forms: L at height 3 (seeds 1, 5, 11),
# the t of the three-row pawn formula, and the shape generating functions
# for the pawn formulas at heights 4..6.  The five-row pair is kept in its
# published (erroneous) form for comparison; the corrected pair is the fit
# of corrected_five_row_shapes, stored so a height-5 count needs no shape
# DP (the battery refits and compares it).
GF_THREE_ROW_L = LinearRecurrence((1, 3, -2), (1, -2, -3, 2))
GF_THREE_ROW_T = LinearRecurrence((1,), (1, -5, 3))
GF_FOUR_ROW_ALPHA = LinearRecurrence((1, 2, -2), (1, -2, -2, 2))
GF_SIX_ROW_ALPHA = LinearRecurrence((1, 5, -9, -5, 6), (1, -3, -6, 11, 5, -6))
GF_FIVE_ROW_A = LinearRecurrence((1, 8, 1, -23, 0, 5), (1, 0, -12, 0, 24, 0, -5))
GF_FIVE_ROW_B = LinearRecurrence((1, 4, 1, -19, 0, 5), (1, 0, -12, 0, 24, 0, -5))
PUBLISHED_FIVE_ROW_A = LinearRecurrence((1, 7, -4, -7, 5), (1, -1, -8, 4, 6, -4))
PUBLISHED_FIVE_ROW_B = LinearRecurrence((1, 3, 1, -5, 4), (1, -1, -8, 4, 6, -4))


@lru_cache(maxsize=None)
def _gf_window(rec: LinearRecurrence) -> list:
    """[rec's expansion, the number of terms drawn from it, the last two
    drawn]: how far this process has expanded rec."""
    return [_terms(rec), 0, deque(maxlen=2)]


def _gf_term(rec: LinearRecurrence, n: int) -> int:
    """Taylor coefficient n of a stored recurrence.  Each recurrence keeps
    one expansion and the last two terms drawn from it: a request at or
    past those draws the expansion on, an earlier one starts it again.  So
    one count holds O(order) terms however large n is, and a table, which
    asks each height for ascending widths (once as rows, once as columns),
    expands each recurrence at most twice."""
    window = _gf_window(rec)
    terms, drawn, last = window
    if n < drawn - len(last):
        terms, drawn, last = window[:] = _terms(rec), 0, deque(maxlen=2)
    last.extend(islice(terms, max(0, n + 1 - drawn)))
    window[1] = drawn = max(drawn, n + 1)
    return last[n - drawn]


@lru_cache(maxsize=1)
def corrected_five_row_shapes() -> tuple[LinearRecurrence, LinearRecurrence]:
    """Generating functions for the five-row black/white shape counts,
    fitted from direct independent-set counts (the published pair fails
    from n = 2 on); they must equal GF_FIVE_ROW_A and GF_FIVE_ROW_B."""
    # the shape DP sweeps with numpy; no closed form needs it
    from .decomposition import count_independent_sets, split_by_color

    terms = 20
    alpha: list[int] = []
    beta: list[int] = []
    for n in range(terms):
        black, white = split_by_color(5, n)
        alpha.append(count_independent_sets(black, guard=100))
        beta.append(count_independent_sets(white, guard=100))
    return (fit_linear_recurrence(alpha, 8), fit_linear_recurrence(beta, 8))


def _three_row_t(i: int) -> int:
    """t(i) = 5t(i-1) - 3t(i-2) with t(0) = 1, t(1) = 5; t(-1) = 0."""
    return _gf_term(GF_THREE_ROW_T, i) if i >= 0 else 0


def shape_formula_M(m: int, n: int) -> tuple[int, tuple[str, ...]]:
    """Pawn count for heights 2..6 via black/white shape formulas, as
    (value, annotations).

    Height 5 is special: the published generating-function pair is wrong
    from n = 2 on, so the corrected fitted pair supplies the value and the
    published one is reported alongside as an annotation.
    """
    _check_form(m, n, range(2, 7), "shape formulas")
    if m == 2:
        # square of the path independent-set count
        return fibonacci(n + 1) ** 2, ()
    if m == 3:
        # interleaved two-shape recurrence
        t = _three_row_t(n // 2)
        if n % 2 == 0:
            return t * t, ()
        prev = _three_row_t(n // 2 - 1)
        return (4 * t - 3 * prev) * (2 * t - 3 * prev), ()
    if m == 4:
        return _gf_term(GF_FOUR_ROW_ALPHA, n) ** 2, ()
    if m == 6:
        return _gf_term(GF_SIX_ROW_ALPHA, n) ** 2, ()
    value = _gf_term(GF_FIVE_ROW_A, n) * _gf_term(GF_FIVE_ROW_B, n)
    published = (_gf_term(PUBLISHED_FIVE_ROW_A, n)
                 * _gf_term(PUBLISHED_FIVE_ROW_B, n))
    if published == value:
        return value, ()
    return value, (
        f"published five-row generating functions give {published} at "
        f"(5,{n}); corrected fitted pair gives {value}",)


def colour_class_M(m: int, n: int) -> int:
    """Pawn count for heights 7..16 as B(n) * W(n), each colour class read
    off its stored generating function (``classgf``, with the recipe that
    fitted them and the certificate that they hold for every n)."""
    from .classgf import CLASS_GF

    _check_form(m, n, CLASS_GF, "colour-class generating functions")
    pair = CLASS_GF[m]
    # (B,): B = W, whose second read is the term the first one drew
    black, white = pair * 2 if len(pair) == 1 else pair
    return _gf_term(black, n) * _gf_term(white, n)


def closed_forms(quantity: str, m: int, n: int) -> list[Callable[[], tuple]]:
    """Every closed form that covers the m-by-n board for quantity M, U or
    L, preferred first; calling one gives (value, annotations).

    M, U and L are transpose symmetric, so the forms for the n-by-m board
    follow those for m-by-n.  The colour-class generating functions of
    heights 7..16 come after every other form of both orientations, so a
    board one of those covers keeps it and its annotations (the five-row
    erratum of a 10-by-5 board among them).  An empty list means no closed
    form applies.
    """
    if quantity == "U":
        return [lambda: (upper_bound_U(m, n), ())]
    sides = dict.fromkeys(((m, n), (n, m)))
    forms = []
    for rows, cols in sides:
        if quantity == "M" and 1 <= rows <= 3:
            forms.append(lambda r=rows, c=cols: (closed_form_M(r, c), ()))
        if quantity == "M" and 2 <= rows <= 6:
            forms.append(lambda r=rows, c=cols: shape_formula_M(r, c))
        if quantity == "L" and 1 <= rows <= 3:
            forms.append(lambda r=rows, c=cols: (closed_form_L(r, c), ()))
    for rows, cols in sides:
        if quantity == "M" and 7 <= rows <= 16:
            forms.append(lambda r=rows, c=cols: (colour_class_M(r, c), ()))
    return forms


def estimate_c(terms: int) -> float:
    """Partial product of prod_{j>=1}(1 - q^j) with q = (sqrt(5)-3)/2.

    q is negative, so consecutive partial products bracket the limit; the
    factors shrink geometrically (|q| ~ 0.382)."""
    if terms < 1:
        raise ValueError("terms must be >= 1")
    q = (math.sqrt(5.0) - 3.0) / 2.0
    product = 1.0
    power = 1.0
    for _ in range(terms):
        power *= q
        product *= 1.0 - power
    return product


def fib_product_growth_ratio(n: int) -> float:
    """Product of the first n standard-seeded Fibonacci numbers (1, 1, 2,
    3, ...) divided by its growth law phi^(n(n+1)/2) * 5^(-n/2).

    Converges to FIB_PRODUCT_CONSTANT; with the package indexing the
    standard product of n terms is fib_product(n - 1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    log_ratio = (math.log(fib_product(n - 1)) + n / 2 * math.log(5)
                 - n * (n + 1) // 2 * math.log(_PHI))
    return math.exp(log_ratio)


def golden_ratio_gap(m: int, n: int) -> float:
    """U(m,n)^(1/(mn)) minus the golden ratio.

    The exact U value overflows binary64 well before desk scale, so the
    root is taken through the log of the exact int."""
    if m < 1 or n < 1:
        raise ValueError("dimensions must be >= 1")
    return math.exp(math.log(upper_bound_U(m, n)) / (m * n)) - _PHI
