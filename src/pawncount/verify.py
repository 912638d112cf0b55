"""Cross-validation battery behind ``pawncount verify`` and the acceptance suite.

Each check compares independent routes to the same numbers (direct
enumeration, transfer steps, closed forms, shape products, tilings) at
desk scale.  Known deviations from published formulas are asserted in
their corrected form and reported as expected deviations; only genuine
mismatches fail a check.

A check only compares: it records each comparison in the ``_Ledger`` it
is given and returns its details.  One cell is one compared value: a
count, a matrix entry, a limit or a round trip.  A comparison that
disagrees keeps a label.  ``run_check`` does the rest: it names and times
the check, fails it when any label is kept, its details then ending with
the first five labels, and fails it alone when it raises, naming the
exception in its details, so the rest of the battery still runs.
"""

from __future__ import annotations

import math
from collections import namedtuple
from time import perf_counter

from . import closedforms as cf
from . import decomposition as dc
from . import tiling as tl
from .oracle import L_SET, M_SET, U_SET, count_by_enumeration, enumerate_legal, uk_set
from .power import dominant_eigenvalue
from .frontier import isolated_count, isolated_sequence
from .transfer import (build_transfer, colour_split_count,
                       colour_split_sequence, count_sequence,
                       count_via_transfer, spectrum_small)

REFERENCE_T2 = """\
1 1 1 1
1 1 0 0
1 0 1 0
1 0 0 0"""

REFERENCE_T3 = """\
1 1 1 1 1 1 1 1
1 1 0 0 1 1 0 0
1 0 1 0 0 0 0 0
1 0 0 0 0 0 0 0
1 1 0 0 1 1 0 0
1 1 0 0 1 1 0 0
1 0 0 0 0 0 0 0
1 0 0 0 0 0 0 0"""

QUICK = dict(
    three_way_cells=10,
    split_max_m=10,
    split_max_n=10,
    u_cells=10,
    uk_cells=9,
    closed_m_max_n=10,
    sandwich_max=5,
    square_max_n=5,
    shape_max_n=8,
    tiling_cells=10,
    roundtrip_cells=9,
    frontier_max_m=8,
    frontier_max_n=12,
    closed_l_max_n=10,
    ratio_n=100,
    ratio_max_m=3,
    l3_exact_n=20,
    growth_max_m=8,
)

FULL = dict(
    three_way_cells=20,
    split_max_m=14,
    split_max_n=6,
    u_cells=20,
    uk_cells=16,
    closed_m_max_n=15,
    sandwich_max=8,
    square_max_n=8,
    shape_max_n=12,
    tiling_cells=20,
    roundtrip_cells=16,
    frontier_max_m=12,
    frontier_max_n=12,
    closed_l_max_n=15,
    ratio_n=200,
    ratio_max_m=4,
    l3_exact_n=30,
    growth_max_m=12,
)


class CheckResult(namedtuple(
        "CheckResult", "name passed details deviations cells elapsed_s",
        defaults=((), 0, None))):
    """One check's outcome; ``cells`` is the number of values it compared
    (a count, a matrix entry, a limit or a round trip each count once)."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return self._asdict()


class VerificationReport(namedtuple("VerificationReport", "level checks")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


class _Ledger:
    """The comparisons of one check: the cells they compared, the labels
    of those that failed and the expected deviations they found."""

    def __init__(self) -> None:
        self.cells = 0
        self.failures: list = []
        self.deviations: list[str] = []

    def record(self, ok: bool, label, cells: int = 1) -> bool:
        """Count a comparison of ``cells`` values (0 for a condition on
        values counted elsewhere or on no count at all); keep its label if
        it failed.  Returns ok."""
        self.cells += cells
        if not ok:
            self.failures.append(label)
        return ok

    def expect(self, ok: bool, deviation: str) -> bool:
        """Count one value compared with a published one, where a mismatch
        is an expected deviation that is reported, not failed."""
        self.cells += 1
        if not ok:
            self.deviations.append(deviation)
        return ok

    def note(self, deviation: str) -> None:
        """Report an expected deviation that no comparison decides."""
        self.deviations.append(deviation)


def run_check(name: str, check, params: dict) -> CheckResult:
    """Run one check on a fresh ledger and time it.  The check fails when
    it keeps a failure label, its details then ending with the first five,
    or when it raises an Exception, whose type and message become its
    details."""
    ledger = _Ledger()
    start = perf_counter()
    try:
        details, passed = check(params, ledger), True
    except Exception as exc:
        details, passed = f"raised {type(exc).__name__}: {exc}", False
    failures = ledger.failures
    return CheckResult(
        name, passed and not failures,
        details + (f"; failures: {failures[:5]}" if failures else ""),
        tuple(ledger.deviations), ledger.cells, perf_counter() - start)


def _dims_within(cells: int):
    for m in range(1, cells + 1):
        for n in range(1, cells // m + 1):
            yield m, n


def check_transfer_reference(params: dict, ledger: _Ledger) -> str:
    flags = []
    for m, ref in ((2, REFERENCE_T2), (3, REFERENCE_T3)):
        rendered = "\n".join(" ".join(map(str, row))
                             for row in build_transfer(m, M_SET))
        ok = ledger.record(rendered == ref, f"T{m}", cells=len(ref.split()))
        flags.append(f"T{m} {'ok' if ok else 'MISMATCH'}")
    return ("heights 2 and 3 reproduce the 4x4 and 8x8 reference matrices "
            f"entry for entry ({', '.join(flags)})")


def check_three_way_agreement(params: dict, ledger: _Ledger) -> str:
    cells = params["three_way_cells"]
    # one sweep per height; L along the longer side, as ``count`` runs it
    split = {m: colour_split_sequence(m, cells // m) for m in range(1, cells + 1)}
    isolated = {h: isolated_sequence(h, cells // h)
                for h in range(1, math.isqrt(cells) + 1)}
    # and once from each end, to the middle column
    middle = {(h, n): isolated_count(h, n)
              for h in isolated for n in range(h, cells // h + 1)}
    for quantity, pats in (("M", M_SET), ("U", U_SET), ("L", L_SET)):
        for m, n in _dims_within(cells):
            oracle = count_by_enumeration(m, n, pats)
            via_transfer = count_via_transfer(m, n, pats)
            closed = [form()[0] for form in cf.closed_forms(quantity, m, n)]
            values = {oracle, via_transfer, *closed}
            if quantity == "M":
                black, white = split[m]
                values.add(black[n] * white[n])
                values.add(math.prod(colour_split_count(m, n)))
            if quantity == "L":
                values.add(isolated[min(m, n)][max(m, n)])
                values.add(middle[min(m, n), max(m, n)])
            ledger.record(len(values) == 1, f"{quantity}({m},{n}): {sorted(values)}")
    return (f"{ledger.cells} (quantity, m, n) cells agree across enumeration, "
            "transfer and closed forms (M also via the colour split, L via "
            "the frontier sweep)")


def check_colour_split(params: dict, ledger: _Ledger) -> str:
    top_m, top_n = params["split_max_m"], params["split_max_n"]
    for m in range(1, top_m + 1):
        black, white = colour_split_sequence(m, top_n)
        full = count_sequence(m, top_n, M_SET)
        ledger.record([b * w for b, w in zip(black, white)] == full,
                      ("product", m), cells=len(full))
        ledger.record(m % 2 == 1 or black == white, ("B != W", m), cells=0)
    return (f"B * W on half-height columns equals the full 2^m transfer count "
            f"for heights 1..{top_m}, n <= {top_n}; B = W at every even height")


def check_closed_form_small_heights(params: dict, ledger: _Ledger) -> str:
    max_n = params["closed_m_max_n"]
    for m in (1, 2, 3):
        seq = count_sequence(m, max_n, M_SET)
        for n in range(max_n + 1):
            ledger.record(cf.closed_form_M(m, n) == seq[n], (m, n))
    for value, expected in ((cf.closed_form_M(1, 10), 2 ** 10),
                            (cf.closed_form_M(2, 2), 9),
                            (cf.closed_form_M(3, 3), 119),
                            (cf.closed_form_M(3, 5), 2117)):
        ledger.record(value == expected, ("spot", expected))
    return (f"heights 1..3 match transfer counts exactly for n <= {max_n}; "
            "spot values 2^n, 9, 119, 2117 confirmed")


def check_upper_bound(params: dict, ledger: _Ledger) -> str:
    for m, n in _dims_within(params["u_cells"]):
        ledger.record(cf.upper_bound_U(m, n) == count_by_enumeration(m, n, U_SET),
                      ("U", m, n))
    for m, n in _dims_within(params["uk_cells"]):
        ledger.record(cf.upper_bound_U_k(m, n, 3)
                      == count_by_enumeration(m, n, uk_set(3)), ("U3", m, n))
    ledger.record(cf.upper_bound_U(2, 2) == 12, ("spot", "U(2,2)"))
    ledger.record(cf.upper_bound_U_k(2, 2, 3) == 16, ("spot", "U3(2,2)"))
    return (f"single-diagonal formula matches enumeration for mn <= {params['u_cells']}, "
            f"3-run formula for mn <= {params['uk_cells']}; spots U(2,2)=12, U3(2,2)=16")


def check_sandwich(params: dict, ledger: _Ledger) -> str:
    top = params["sandwich_max"]
    for m in range(1, top + 1):
        seq_m = count_sequence(m, top, M_SET)
        seq_l = count_sequence(m, top, L_SET)
        for n in range(1, top + 1):
            lo, mid, hi = seq_l[n], seq_m[n], cf.upper_bound_U(m, n)
            ledger.record(lo <= mid <= hi <= 2 ** (m * n), (m, n, lo, mid, hi))
    return f"L <= M <= U <= 2^(mn) holds for all m, n <= {top}"


def check_perfect_square(params: dict, ledger: _Ledger) -> str:
    max_n = params["square_max_n"]
    for m in (2, 4, 6):
        seq = count_sequence(m, max_n, M_SET)
        for n in range(1, max_n + 1):
            black, white = map(dc.count_independent_sets, dc.split_by_color(m, n))
            value = seq[n]
            ledger.record(math.isqrt(value) ** 2 == value and black == white
                          and black * white == value, (m, n))
    return (f"even heights 2, 4, 6 give perfect squares with equal color counts "
            f"for n <= {max_n}")


def check_shape_formulas(params: dict, ledger: _Ledger) -> str:
    max_n = params["shape_max_n"]
    for m in (2, 3, 4, 5, 6):
        seq = count_sequence(m, max_n, M_SET)
        for n in range(max_n + 1):
            ledger.record(cf.shape_formula_M(m, n)[0] == seq[n], (m, n))
    for m in range(7, 17):
        black, white = colour_split_sequence(m, max_n)
        for n in range(max_n + 1):
            ledger.record(cf.colour_class_M(m, n) == black[n] * white[n], (m, n))
    ledger.record(cf.corrected_five_row_shapes() == (cf.GF_FIVE_ROW_A,
                                                     cf.GF_FIVE_ROW_B),
                  "stored five-row pair differs from its refit", cells=0)
    published_52 = (cf.PUBLISHED_FIVE_ROW_A.expand(3)[2]
                    * cf.PUBLISHED_FIVE_ROW_B.expand(3)[2])
    if ledger.record(published_52 == 156 and cf.shape_formula_M(5, 2)[0] == 169,
                     "published-pair erratum not seen at (5,2)", cells=0):
        ledger.note("expected deviation from published formulas: the five-row "
                    "generating-function pair gives 156 at (5,2) where the "
                    "true count is 169; the corrected fitted pair is used "
                    "instead")
    return (f"heights 2..6 shape formulas match transfer exactly for n <= {max_n} "
            "(height 5 via the corrected fit), and the stored colour-class "
            "generating functions of heights 7..16 match the colour split, "
            f"{ledger.cells} (m, n) cells in all; published-pair erratum "
            "pinned at (5,2): 156 vs 169")


def check_tilings(params: dict, ledger: _Ledger) -> str:
    for m, n in _dims_within(params["tiling_cells"]):
        ledger.record(tl.count_tilings(m + 1, n + 1) == count_via_transfer(m, n, L_SET),
                      ("count", m, n))
    roundtrips = 0
    for m, n in _dims_within(params["roundtrip_cells"]):
        stream = 0
        for mat in enumerate_legal(m, n, L_SET):
            stream += 1
            if not ledger.record(tl.theta_inverse(tl.theta_forward(mat)) == mat,
                                 ("roundtrip", m, n)):
                break
        roundtrips += stream
        ledger.record(stream == count_by_enumeration(m, n, L_SET), ("stream", m, n))
    for n in range(params["closed_l_max_n"] + 1):
        for m in (1, 2):
            ledger.record(cf.closed_form_L(m, n) == tl.count_tilings(m + 1, n + 1),
                          (f"L{m}", n))
    top_m, top_n = params["frontier_max_m"], params["frontier_max_n"]
    for m in range(1, top_m + 1):
        tilings = tl.tiling_sequence(m + 1, top_n + 1)[1:]
        ledger.record(isolated_sequence(m, top_n) == count_sequence(m, top_n, L_SET)
                      == tilings, ("frontier", m), cells=len(tilings))
    return (f"tiling counts equal isolated-matrix counts for mn <= "
            f"{params['tiling_cells']}; bijection round-trips all "
            f"{roundtrips} legal matrices with mn <= {params['roundtrip_cells']}; "
            f"height 1/2 closed forms match for n <= {params['closed_l_max_n']}; "
            f"the frontier sweep equals the full transfer and the tiling counts "
            f"for heights 1..{top_m}, n <= {top_n}")


def published_four_row_eigenvalues() -> list[float]:
    """The nine closed-form eigenvalues published for the height-4 transfer
    matrix, evaluated numerically."""
    beta = math.atan(3 * math.sqrt(111) / 5) / 3
    gamma = math.atan(3 * math.sqrt(111) / 67) / 3
    s3, s7, s21 = math.sqrt(3), math.sqrt(7), math.sqrt(21)
    shifted = math.pi / 3 - beta
    return [
        2 / 3 - (4 / 3) * math.cos(shifted) - (4 / 3) * s3 * math.sin(shifted),
        2 / 3 - (4 / 3) * math.cos(shifted) + (4 / 3) * s3 * math.sin(shifted),
        8 / 3 - (2 / 3) * s7 * math.cos(gamma) - (2 / 3) * s21 * math.sin(gamma),
        8 / 3 - (2 / 3) * s7 * math.cos(gamma) + (2 / 3) * s21 * math.sin(gamma),
        -2 / 3 - (4 / 3) * math.cos(beta) - (4 / 3) * s3 * math.sin(beta),
        -2 / 3 - (4 / 3) * math.cos(beta) + (4 / 3) * s3 * math.sin(beta),
        2 / 3 + (8 / 3) * math.cos(shifted),
        -2 / 3 + (8 / 3) * math.cos(shifted),
        8 / 3 + (4 / 3) * s7 * math.cos(gamma),
    ]


def check_eigenvalues(params: dict, ledger: _Ledger) -> str:
    targets = {
        1: (2.0, 1e-8),
        2: (((1 + math.sqrt(5)) / 2) ** 2, 1e-8),
        3: ((5 + math.sqrt(13)) / 2, 1e-8),
        # 8/3 + (4/3) sqrt(7) cos(arctan(3 sqrt(111)/67)/3)
        4: (published_four_row_eigenvalues()[-1], 1e-6),
    }
    alphas = {}
    for m, (target, tol) in targets.items():
        alphas[m] = dominant_eigenvalue(m, M_SET)
        ledger.record(abs(alphas[m] - target) <= tol,
                      f"alpha_{m}={alphas[m]} vs {target}")
    ratio_n = params["ratio_n"]
    for m in range(1, params["ratio_max_m"] + 1):
        seq = count_sequence(m, ratio_n + 1, M_SET)
        ratio = seq[ratio_n + 1] / seq[ratio_n]
        ledger.record(abs(ratio - alphas[m]) <= 1e-6, f"ratio m={m}: {ratio}")
    spectrum = spectrum_small(4, M_SET)
    matched = 0
    for idx, lam in enumerate(published_four_row_eigenvalues(), start=1):
        dist = min(abs(lam - s) for s in spectrum)
        matched += ledger.expect(
            dist <= 1e-6,
            "expected deviation from published formulas: published "
            f"height-4 eigenvalue #{idx} = {lam:.9f} is not in the "
            f"computed spectrum (nearest at distance {dist:.3e}); the "
            "remaining nonzero eigenvalue is +1.709275359")
    near_zero = sum(1 for s in spectrum if abs(s) < 1e-9)
    ledger.note(f"note: the height-4 spectrum has {near_zero} eigenvalues "
                "equal to 0 that the published nine-value list omits")
    return (f"power iteration reproduces alpha at heights 1..4; exact count "
            f"ratios at n = {ratio_n} agree within 1e-6 for heights <= "
            f"{params['ratio_max_m']}; {matched}/9 published height-4 "
            "eigenvalues found in the spectrum")


def check_asymptotics(params: dict, ledger: _Ledger) -> str:
    limits = (("estimate_c(40)", cf.estimate_c(40), 1e-8),
              ("growth ratio(40)", cf.fib_product_growth_ratio(40), 1e-9))
    for name, value, tol in limits:
        ledger.record(abs(value - cf.FIB_PRODUCT_CONSTANT) <= tol, f"{name}={value}")
    gaps = [cf.golden_ratio_gap(k, k) for k in (10, 20, 40)]
    g10, g20, g40 = gaps
    ledger.record(abs(g40) < 0.05 and abs(g40) < abs(g20) < abs(g10),
                  f"gaps {g10}, {g20}, {g40}", cells=len(gaps))
    ledger.note("expected deviation from published formulas: the printed "
                "growth exponent for the Fibonacci product matches the product "
                "of the first n-1 standard-seeded terms; the ratio here uses "
                "the self-consistent exponent phi^(n(n+1)/2) * 5^(-n/2) over n "
                "standard-seeded terms and converges to the same printed "
                "constant")
    return (f"partial product at 40 terms and the normalized Fibonacci product "
            f"both hit {cf.FIB_PRODUCT_CONSTANT:.10f} within tolerance; the "
            f"golden-ratio gap shrinks {g10:.4f} -> {g20:.4f} -> {g40:.4f} "
            "along the square diagonal")


def check_isolated_height3(params: dict, ledger: _Ledger) -> str:
    seq = count_sequence(3, params["l3_exact_n"], L_SET)
    for n in range(params["l3_exact_n"] + 1):
        ledger.record(cf.closed_form_L(3, n) == seq[n], ("exact", n))
    for n in range(13):
        exact = cf.closed_form_L(3, n)
        ledger.record(abs(cf.l3_root_closed_form(n) - exact) <= 1e-3 * exact,
                      ("float", n))
    ledger.note("expected deviation from published formulas: the root form "
                "uses corrected coefficients sqrt(39)/3 and sqrt(13)/3 on the "
                "second and third roots (as published, the roots do not sum "
                "to the recurrence trace 2)")
    return (f"order-3 recurrence matches transfer exactly for n <= "
            f"{params['l3_exact_n']}; corrected root form agrees within 1e-3 "
            "relative for n <= 12")


def check_growth_rates(params: dict, ledger: _Ledger) -> str:
    top = params["growth_max_m"]
    alphas = [dominant_eigenvalue(m, M_SET) for m in range(1, top + 2)]
    rates = ", ".join(f"{alphas[m - 1] ** (1 / m):.4f}" for m in range(1, top + 1))
    ledger.record(all(a < b for a, b in zip(alphas, alphas[1:])),
                  "alpha_m does not increase", cells=len(alphas))
    ledger.record(all(1.5 < alphas[m - 1] ** (1 / m) <= 2.0 for m in range(1, top + 1)),
                  "alpha_m^(1/m) leaves (1.5, 2.0]", cells=0)
    return (f"alpha_m strictly increases up to height {top + 1} and "
            f"alpha_m^(1/m) stays in (1.5, 2.0]: {rates}")


CHECKS = (
    ("transfer-reference", check_transfer_reference),
    ("three-way-agreement", check_three_way_agreement),
    ("colour-split", check_colour_split),
    ("radical-closed-forms", check_closed_form_small_heights),
    ("diagonal-word-bounds", check_upper_bound),
    ("bound-sandwich", check_sandwich),
    ("perfect-square", check_perfect_square),
    ("shape-formulas", check_shape_formulas),
    ("tiling-bijection", check_tilings),
    ("dominant-eigenvalues", check_eigenvalues),
    ("asymptotics", check_asymptotics),
    ("isolated-height-3", check_isolated_height3),
    ("per-row-growth", check_growth_rates),
)


def run_verification(level: str = "quick") -> VerificationReport:
    """Run the whole battery at the given level ('quick' or 'full')."""
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    params = FULL if level == "full" else QUICK
    return VerificationReport(
        level, tuple(run_check(name, check, params) for name, check in CHECKS))
