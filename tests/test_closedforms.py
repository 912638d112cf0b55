import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pawncount import closedforms as cf
from pawncount.classgf import CLASS_GF
from pawncount.closedforms import (FIB_PRODUCT_CONSTANT, GF_FIVE_ROW_A,
                                   GF_FIVE_ROW_B, LinearRecurrence,
                                   PUBLISHED_FIVE_ROW_A, PUBLISHED_FIVE_ROW_B,
                                   closed_form_L, closed_form_M,
                                   closed_forms,
                                   colour_class_M, corrected_five_row_shapes,
                                   estimate_c, fib_product,
                                   fib_product_growth_ratio, fibonacci,
                                   fit_linear_recurrence, golden_ratio_gap,
                                   l3_root_closed_form,
                                   shape_formula_M, upper_bound_U,
                                   upper_bound_U_k)
from pawncount.errors import InvalidK, NoFitFound, NonIntegerResult
from pawncount.oracle import (L_SET, M_SET, U_SET, count_by_enumeration,
                              uk_set)
from pawncount.transfer import colour_split_sequence, count_sequence


class TestFibonacci:
    def test_seed_values(self):
        assert fibonacci(0) == 1
        assert fibonacci(1) == 1
        assert fibonacci(5) == 8
        assert [fibonacci(i) for i in range(8)] == [1, 1, 2, 3, 5, 8, 13, 21]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fibonacci(-1)

    def test_fib_product(self):
        assert fib_product(0) == 1
        assert fib_product(3) == 6
        assert fib_product(5) == 240


class TestUpperBound:
    def test_single_row(self):
        for n in range(8):
            assert upper_bound_U(1, n) == 2 ** n

    def test_small_values(self):
        assert upper_bound_U(2, 2) == 12
        assert upper_bound_U(2, 3) == 36

    def test_equals_oracle(self):
        for m in range(5):
            for n in range(5):
                assert upper_bound_U(m, n) == count_by_enumeration(m, n, U_SET)

    def test_symmetry(self):
        for m in range(7):
            for n in range(7):
                assert upper_bound_U(m, n) == upper_bound_U(n, m)
                assert upper_bound_U_k(m, n, 3) == upper_bound_U_k(n, m, 3)

    def test_k_variant(self):
        assert upper_bound_U_k(2, 2, 3) == 16
        assert upper_bound_U_k(3, 3, 3) == 448
        for m in range(30):
            for n in range(30):
                assert upper_bound_U_k(m, n, 2) == upper_bound_U(m, n)

    def test_k_variant_equals_oracle(self):
        for m in range(1, 4):
            for n in range(1, 5):
                assert (upper_bound_U_k(m, n, 3)
                        == count_by_enumeration(m, n, uk_set(3)))

    @pytest.mark.parametrize("k,m,n", [
        (3, 4, 4), (4, 4, 4), (4, 4, 5), (4, 5, 4),
    ])
    def test_longer_runs_equal_oracle(self, k, m, n):
        # a sheared row of length l has F(k, l + 1) fillings, fewer than
        # 2^l once l >= k; these boards have rows of length 4, so they
        # reach F(3, 5) = 13 and F(4, 5) = 15
        assert upper_bound_U_k(m, n, k) == count_by_enumeration(m, n, uk_set(k))

    def test_runs_longer_than_the_shorter_side(self):
        # such a run fits nowhere: every board counts, whatever k is
        for m in range(6):
            for n in range(6):
                for k in (min(m, n) + 1, min(m, n) + 2, 10 ** 18):
                    if k >= 2:
                        assert upper_bound_U_k(m, n, k) == 2 ** (m * n)

    def test_bad_k(self):
        with pytest.raises(InvalidK):
            upper_bound_U_k(2, 2, 1)


class TestClosedFormM:
    @pytest.mark.parametrize("m,n,expected", [
        (1, 0, 1), (1, 7, 128),
        (2, 1, 4), (2, 2, 9),
        (3, 1, 8), (3, 3, 119), (3, 5, 2117),
    ])
    def test_spot_values(self, m, n, expected):
        assert closed_form_M(m, n) == expected

    def test_matches_transfer(self):
        for m in (1, 2, 3):
            seq = count_sequence(m, 15, M_SET)
            for n in range(16):
                assert closed_form_M(m, n) == seq[n]

    def test_out_of_range_height(self):
        with pytest.raises(ValueError):
            closed_form_M(4, 2)

    def test_radical_forms_equal_the_shape_formulas(self):
        # independent routes: the square of the path count at height 2,
        # the interleaved t recurrence at height 3
        for n in range(1001):
            assert closed_form_M(2, n) == fibonacci(n + 1) ** 2
            assert closed_form_M(3, n) == shape_formula_M(3, n)[0]

    @pytest.mark.parametrize("a,b,d", [(1, 1, 5), (5, 1, 13), (-3, 2, 13)])
    def test_surd_power_matches_repeated_multiplication(self, a, b, d):
        p, q = 1, 0
        for e in range(9):
            assert cf._surd_power(a, b, d, e) == (p, q)
            p, q = p * a + d * q * b, p * b + q * a

    @pytest.mark.parametrize("m", [2, 3])
    def test_remainder_raises(self, m, monkeypatch):
        surd_power = cf._surd_power

        def off_by_one(*args):
            p, q = surd_power(*args)
            return p + 1, q

        monkeypatch.setattr(cf, "_surd_power", off_by_one)
        with pytest.raises(NonIntegerResult):
            closed_form_M(m, 5)


class TestClosedFormL:
    @pytest.mark.parametrize("m,n,expected", [
        (1, 1, 2), (2, 1, 3), (2, 3, 11), (3, 2, 11), (3, 3, 35),
    ])
    def test_spot_values(self, m, n, expected):
        assert closed_form_L(m, n) == expected

    def test_matches_transfer(self):
        for m in (1, 2, 3):
            seq = count_sequence(m, 15, L_SET)
            for n in range(16):
                assert closed_form_L(m, n) == seq[n]

    def test_root_form_tracks_exact_values(self):
        for n in range(13):
            exact = closed_form_L(3, n)
            assert abs(l3_root_closed_form(n) - exact) <= 1e-3 * exact


class TestGeneratingFunctions:
    def test_geometric_series(self):
        ones = LinearRecurrence((1,), (1, -1))
        assert ones.expand(5) == [1, 1, 1, 1, 1]

    def test_denominator_constant_term_enforced(self):
        with pytest.raises(ValueError):
            LinearRecurrence((1,), (2, -1))

    def test_trailing_zeros_trimmed(self):
        rec = LinearRecurrence((1, 0, 0), (1, -2, 0))
        assert rec.numerator == (1,)
        assert rec.denominator == (1, -2)

    def test_equal_and_hashed_by_value(self):
        rec = LinearRecurrence((1, 0), (1, -1))
        same = LinearRecurrence(numerator=[1], denominator=(1, -1, 0))
        assert rec == same and hash(rec) == hash(same)
        assert rec != LinearRecurrence((1,), (1, -2))
        assert repr(rec) == "LinearRecurrence(numerator=(1,), denominator=(1, -1))"

    def test_fields_cannot_be_assigned(self):
        rec = LinearRecurrence((1,), (1, -1))
        with pytest.raises(AttributeError):
            rec.numerator = (2,)

    @pytest.mark.parametrize("numerator,denominator,message", [
        ((1.5,), (1,), "coefficients must be integers"),
        ((1,), (1, Fraction(1, 2)), "coefficients must be integers"),
        ((1,), (2, -1), "denominator must have constant term 1"),
        ((1,), (), "denominator must have constant term 1"),
    ])
    def test_validation_messages(self, numerator, denominator, message):
        with pytest.raises(ValueError) as raised:
            LinearRecurrence(numerator, denominator)
        assert str(raised.value) == message


class TestFitting:
    def test_isolated_three_row_sequence(self):
        seq = count_sequence(3, 9, L_SET)
        rec = fit_linear_recurrence(seq, 3)
        assert rec.denominator == (1, -2, -3, 2)

    def test_powers_of_two(self):
        rec = fit_linear_recurrence([2 ** i for i in range(8)], 3)
        assert rec.denominator == (1, -2)

    def test_four_row_shape_sequence(self):
        rec = fit_linear_recurrence([1, 4, 8, 22, 52, 132, 324, 808, 2000], 3)
        assert rec.denominator == (1, -2, -2, 2)

    def test_expansion_reproduces_input(self):
        seq = count_sequence(4, 13, M_SET)
        rec = fit_linear_recurrence(seq, 6)
        assert rec.expand(len(seq)) == seq

    def test_count_sequences_satisfy_low_order_recurrences(self):
        # every per-height count sequence is generated by its transfer
        # matrix, so a recurrence of order at most 2^m must fit
        for m, pats in ((2, M_SET), (3, M_SET), (2, L_SET), (3, U_SET)):
            seq = count_sequence(m, 2 * 2 ** m + 2, pats)
            rec = fit_linear_recurrence(seq, 2 ** m)
            assert len(rec.denominator) - 1 <= 2 ** m
            assert rec.expand(len(seq)) == seq

    def test_no_fit_for_factorials(self):
        facts = [math.factorial(i) for i in range(12)]
        with pytest.raises(NoFitFound):
            fit_linear_recurrence(facts, 4)

    def test_short_sequence_rejected(self):
        with pytest.raises(ValueError):
            fit_linear_recurrence([1, 2, 4], 3)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_fit_expand_identity(self, data):
        order = data.draw(st.integers(1, 4), label="order")
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=order,
                                    max_size=order), label="coeffs")
        seeds = data.draw(st.lists(st.integers(0, 6), min_size=order,
                                   max_size=order), label="seeds")
        seq = list(seeds)
        for _ in range(2 * order + 6):
            seq.append(sum(c * seq[-i - 1] for i, c in enumerate(coeffs)))
        try:
            rec = fit_linear_recurrence(seq, order)
        except NoFitFound:
            pytest.fail("generated sequence must admit a fit within its order")
        assert len(rec.denominator) - 1 <= order
        assert rec.expand(len(seq)) == seq


def published_five_row(n):
    """The five-row count from the published (erroneous) pair."""
    return (PUBLISHED_FIVE_ROW_A.expand(n + 1)[n]
            * PUBLISHED_FIVE_ROW_B.expand(n + 1)[n])


class TestShapeFormulas:
    @pytest.mark.parametrize("m,n,expected", [
        (2, 5, 169),
        (3, 2, 25),
        (4, 3, 484),
        (5, 2, 169),
        (6, 3, 9025),
    ])
    def test_spot_values(self, m, n, expected):
        assert shape_formula_M(m, n)[0] == expected

    def test_matches_transfer(self):
        for m in (2, 3, 4, 5, 6):
            seq = count_sequence(m, 12, M_SET)
            for n in range(13):
                assert shape_formula_M(m, n)[0] == seq[n]

    def test_five_row_erratum_annotated(self):
        value, annotations = shape_formula_M(5, 2)
        assert published_five_row(2) == 156
        assert value == 169
        assert annotations == (
            "published five-row generating functions give 156 at (5,2); "
            "corrected fitted pair gives 169",)

    def test_five_row_agrees_before_diverging(self):
        for n in (0, 1):
            value, annotations = shape_formula_M(5, n)
            assert published_five_row(n) == value
            assert not annotations

    def test_five_row_published_pair_deviates_from_two_on(self):
        for n in range(2, 13):
            value, annotations = shape_formula_M(5, n)
            assert published_five_row(n) != value
            assert f"give {published_five_row(n)} at (5,{n})" in annotations[0]

    def test_published_five_row_pair_expansions(self):
        assert PUBLISHED_FIVE_ROW_A.expand(4) == [1, 8, 12, 65]
        assert PUBLISHED_FIVE_ROW_B.expand(4) == [1, 4, 13, 36]

    def test_corrected_pair_matches_direct_shape_counts(self):
        from pawncount.decomposition import count_independent_sets, split_by_color
        fit_a, fit_b = corrected_five_row_shapes()
        for n in range(10):
            black, white = split_by_color(5, n)
            assert fit_a.expand(n + 1)[n] == count_independent_sets(black)
            assert fit_b.expand(n + 1)[n] == count_independent_sets(white)

    def test_stored_pair_equals_the_refit(self):
        assert corrected_five_row_shapes() == (GF_FIVE_ROW_A, GF_FIVE_ROW_B)

    def test_out_of_range_height(self):
        with pytest.raises(ValueError):
            shape_formula_M(7, 1)


class TestColourClassGeneratingFunctions:
    def test_minimal_orders(self):
        orders = {m: {len(rec.denominator) - 1 for rec in pair}
                  for m, pair in CLASS_GF.items()}
        assert orders == {7: {10}, 8: {9}, 9: {16}, 10: {16}, 11: {26},
                          12: {28}, 13: {44}, 14: {49}, 15: {74}, 16: {86}}
        assert all(len(pair) == 1 + m % 2 for m, pair in CLASS_GF.items())

    def test_odd_heights_share_one_denominator(self):
        # classgf writes that denominator once for both classes
        for m, pair in CLASS_GF.items():
            if m % 2:
                black, white = pair
                assert black.denominator == white.denominator, m

    def test_certified_for_every_n(self):
        """Each stored B and W equals the colour split at every n >= 0.

        The colour classes of height m step through one operator T on
        N = 2^ceil(m/2) + 2^floor(m/2) states, so each true generating
        function is P/Q with Q = det(I - xT) and both degrees at most N.  A
        stored p/q of order d has deg q = d and deg p < d.  The difference
        P/Q - p/q is (Pq - pQ) / (Qq), and its numerator Pq - pQ, of degree
        at most N + d, is the difference series times Qq.  When the two
        expansions agree on n = 0..N + d, the first N + d + 1 coefficients
        of that product vanish, so the numerator is 0 and p/q = P/Q.
        """
        for m, pair in CLASS_GF.items():
            states = 2 ** ((m + 1) // 2) + 2 ** (m // 2)
            top = states + max(len(rec.denominator) - 1 for rec in pair)
            black, white = colour_split_sequence(m, top)
            if len(pair) == 1:
                assert black == white
            for rec, seq in zip(pair, (black, white)):
                terms = states + len(rec.denominator)  # n = 0..N + d
                assert rec.expand(terms) == seq[:terms], m

    def test_equals_the_full_sweep(self):
        # the 2^m column profile shares no code with the colour split
        for m in range(7, 13):
            assert ([colour_class_M(m, n) for n in range(13)]
                    == count_sequence(m, 12, M_SET)), m

    def test_registered_after_every_other_form(self):
        # a 10x5 board keeps the five-row form and its erratum note
        forms = closed_forms("M", 10, 5)
        assert len(forms) == 2
        value, notes = forms[0]()
        assert notes and "published five-row" in notes[0]
        assert forms[1]() == (value, ())
        assert len(closed_forms("M", 16, 17)) == 1
        assert closed_forms("M", 17, 17) == []

    def test_expanded_once_to_the_widest_n(self, monkeypatch):
        # a table asks for every width in turn: each call draws the one
        # expansion on, and an earlier width starts it again
        black = CLASS_GF[9][0]
        expected = black.expand(41)
        started = []
        terms = cf._terms
        monkeypatch.setattr(cf, "_terms", lambda rec: started.append(rec) or terms(rec))
        cf._gf_window.cache_clear()
        assert [cf._gf_term(black, n) for n in range(7, 41)] == expected[7:]
        assert started == [black]
        # the last two terms drawn are kept: the three-row formula reads
        # t(i) and then t(i - 1)
        assert cf._gf_term(black, 39) == expected[39]
        assert started == [black]
        assert cf._gf_term(black, 4) == expected[4]
        assert started == [black, black]
        window = cf._gf_window(black)
        assert window[1] == 5 and list(window[2]) == expected[3:5]

    def test_single_count_holds_order_terms(self, monkeypatch):
        # one far term of a stored recurrence keeps no list of the terms
        # before it, and a square class (B,) is expanded once
        black, = CLASS_GF[12]
        expected = black.expand(3001)[3000] ** 2
        started = []
        terms = cf._terms
        monkeypatch.setattr(cf, "_terms", lambda rec: started.append(rec) or terms(rec))
        cf._gf_window.cache_clear()
        assert colour_class_M(12, 3000) == expected
        assert started == [black]
        _, drawn, last = cf._gf_window(black)
        assert drawn == 3001 and len(last) == 2

    def test_out_of_range_height(self):
        for m in (6, 17):
            with pytest.raises(ValueError):
                colour_class_M(m, 3)
        with pytest.raises(ValueError):
            colour_class_M(7, -1)


@pytest.mark.parametrize("family,m,n,message", [
    (closed_form_M, 0, 2, "closed forms cover heights 1..3, got 0"),
    (closed_form_M, 4, 2, "closed forms cover heights 1..3, got 4"),
    (closed_form_M, 1, -1, "n must be >= 0"),
    (closed_form_L, 0, 2, "closed forms cover heights 1..3, got 0"),
    (closed_form_L, 4, 2, "closed forms cover heights 1..3, got 4"),
    (closed_form_L, 3, -1, "n must be >= 0"),
    (shape_formula_M, 1, 2, "shape formulas cover heights 2..6, got 1"),
    (shape_formula_M, 7, 2, "shape formulas cover heights 2..6, got 7"),
    (shape_formula_M, 6, -1, "n must be >= 0"),
    (colour_class_M, 6, 2,
     "colour-class generating functions cover heights 7..16, got 6"),
    (colour_class_M, 17, 2,
     "colour-class generating functions cover heights 7..16, got 17"),
    (colour_class_M, 16, -1, "n must be >= 0"),
])
def test_refusal_messages(family, m, n, message):
    with pytest.raises(ValueError) as raised:
        family(m, n)
    assert str(raised.value) == message


class TestAsymptotics:
    def test_single_factor(self):
        assert estimate_c(1) == pytest.approx(1.3819660113, abs=1e-9)

    def test_forty_terms_hit_the_constant(self):
        assert estimate_c(40) == pytest.approx(FIB_PRODUCT_CONSTANT, abs=1e-9)

    def test_partial_products_bracket_the_limit(self):
        values = [estimate_c(t) for t in range(1, 20)]
        for a, b in zip(values, values[1:]):
            assert (a - FIB_PRODUCT_CONSTANT) * (b - FIB_PRODUCT_CONSTANT) < 0

    def test_growth_ratio_converges(self):
        assert fib_product_growth_ratio(40) == pytest.approx(
            FIB_PRODUCT_CONSTANT, abs=1e-9)
        r10 = abs(fib_product_growth_ratio(10) - FIB_PRODUCT_CONSTANT)
        r20 = abs(fib_product_growth_ratio(20) - FIB_PRODUCT_CONSTANT)
        assert r20 < r10

    def test_golden_gap_small_board(self):
        assert golden_ratio_gap(1, 1) == pytest.approx(2 - (1 + math.sqrt(5)) / 2,
                                                       abs=1e-12)

    @pytest.mark.parametrize("n,expected", [
        (10, 1.2267195969482663),
        (20, 1.226742009238603),
        (40, 1.2267420107203533),
    ])
    def test_growth_ratio_pinned(self, n, expected):
        # reference values computed in 60-digit arithmetic
        assert fib_product_growth_ratio(n) == pytest.approx(expected, rel=1e-12)

    def test_growth_ratio_at_two_hundred_terms(self):
        assert abs(fib_product_growth_ratio(200) - FIB_PRODUCT_CONSTANT) < 1e-10

    @pytest.mark.parametrize("n,expected", [
        (10, 0.050502601436887666),
        (20, 0.02538830154475716),
        (40, 0.012726875236217848),
        (150, 0.003400059627754407),
    ])
    def test_golden_gap_pinned(self, n, expected):
        # reference values computed in 60-digit arithmetic
        assert golden_ratio_gap(n, n) == pytest.approx(expected, rel=0, abs=1e-14)

    def test_golden_gap_shrinks_along_diagonal(self):
        g10, g20, g40 = (golden_ratio_gap(10, 10), golden_ratio_gap(20, 20),
                         golden_ratio_gap(40, 40))
        assert abs(g20) < 0.09
        assert abs(g40) < 0.05
        assert abs(g40) < abs(g20) < abs(g10)
