"""Cross-validation battery behind ``pawncount verify`` and the acceptance suite.

Each check compares independent routes to the same numbers (direct
enumeration, transfer steps, closed forms, shape products, tilings) at
desk scale.  Known deviations from published formulas are asserted in
their corrected form and reported as expected deviations; only genuine
mismatches fail a check.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

from . import closedforms as cf
from . import decomposition as dc
from . import tiling as tl
from .oracle import L_SET, M_SET, U_SET, count_by_enumeration, enumerate_legal, uk_set
from .transfer import (build_transfer, colour_split_sequence, count_sequence,
                       count_via_transfer, dominant_eigenvalue,
                       isolated_sequence, spectrum_small)

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


@dataclass(frozen=True)
class CheckResult:
    """One check's outcome; ``cells`` is the number of values it compared
    (a count, a matrix entry or a round trip each count once)."""

    name: str
    passed: bool
    details: str
    deviations: tuple[str, ...] = ()
    cells: int = 0
    elapsed_s: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class VerificationReport:
    level: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


def _dims_within(cells: int):
    for m in range(1, cells + 1):
        for n in range(1, cells // m + 1):
            yield m, n


def check_transfer_reference(params: dict) -> CheckResult:
    def render(m: int) -> str:
        return "\n".join(" ".join(map(str, row))
                         for row in build_transfer(m, M_SET))

    ok2 = render(2) == REFERENCE_T2
    ok3 = render(3) == REFERENCE_T3
    return CheckResult(
        "transfer-reference", ok2 and ok3,
        "heights 2 and 3 reproduce the 4x4 and 8x8 reference matrices "
        f"entry for entry (T2 {'ok' if ok2 else 'MISMATCH'}, "
        f"T3 {'ok' if ok3 else 'MISMATCH'})",
        cells=len(REFERENCE_T2.split()) + len(REFERENCE_T3.split()))


def check_three_way_agreement(params: dict) -> CheckResult:
    cells = params["three_way_cells"]
    # one sweep per height; L along the longer side, as ``count`` runs it
    split = {m: colour_split_sequence(m, cells // m) for m in range(1, cells + 1)}
    isolated = {h: isolated_sequence(h, cells // h)
                for h in range(1, math.isqrt(cells) + 1)}
    mismatches = []
    cells_checked = 0
    for quantity, pats in (("M", M_SET), ("U", U_SET), ("L", L_SET)):
        for m, n in _dims_within(cells):
            oracle = count_by_enumeration(m, n, pats)
            via_transfer = count_via_transfer(m, n, pats)
            closed = [form()[0] for form in cf.closed_forms(quantity, m, n)]
            values = {oracle, via_transfer, *closed}
            if quantity == "M":
                black, white = split[m]
                values.add(black[n] * white[n])
            if quantity == "L":
                values.add(isolated[min(m, n)][max(m, n)])
            cells_checked += 1
            if len(values) != 1:
                mismatches.append(f"{quantity}({m},{n}): {sorted(values)}")
    return CheckResult(
        "three-way-agreement", not mismatches,
        f"{cells_checked} (quantity, m, n) cells agree across enumeration, "
        "transfer and closed forms (M also via the colour split, L via the "
        "frontier sweep)"
        + (f"; mismatches: {mismatches[:5]}" if mismatches else ""),
        cells=cells_checked)


def check_colour_split(params: dict) -> CheckResult:
    top_m, top_n = params["split_max_m"], params["split_max_n"]
    bad = []
    cells = 0
    for m in range(1, top_m + 1):
        black, white = colour_split_sequence(m, top_n)
        full = count_sequence(m, top_n, M_SET)
        cells += len(full)
        if [b * w for b, w in zip(black, white)] != full:
            bad.append(("product", m))
        if m % 2 == 0 and black != white:
            bad.append(("B != W", m))
    return CheckResult(
        "colour-split", not bad,
        f"B * W on half-height columns equals the full 2^m transfer count "
        f"for heights 1..{top_m}, n <= {top_n}; B = W at every even height"
        + (f"; failures: {bad[:5]}" if bad else ""), cells=cells)


def check_closed_form_small_heights(params: dict) -> CheckResult:
    max_n = params["closed_m_max_n"]
    bad = []
    cells = 0
    for m in (1, 2, 3):
        seq = count_sequence(m, max_n, M_SET)
        for n in range(max_n + 1):
            cells += 1
            if cf.closed_form_M(m, n) != seq[n]:
                bad.append((m, n))
    spots = ((cf.closed_form_M(1, 10), 2 ** 10), (cf.closed_form_M(2, 2), 9),
             (cf.closed_form_M(3, 3), 119), (cf.closed_form_M(3, 5), 2117))
    return CheckResult(
        "radical-closed-forms", not bad and all(a == b for a, b in spots),
        f"heights 1..3 match transfer counts exactly for n <= {max_n}; "
        "spot values 2^n, 9, 119, 2117 confirmed"
        + (f"; failures: {bad[:5]}" if bad else ""), cells=cells + len(spots))


def check_upper_bound(params: dict) -> CheckResult:
    bad = []
    cells = 0
    for m, n in _dims_within(params["u_cells"]):
        cells += 1
        if cf.upper_bound_U(m, n) != count_by_enumeration(m, n, U_SET):
            bad.append(("U", m, n))
    for m, n in _dims_within(params["uk_cells"]):
        cells += 1
        if cf.upper_bound_U_k(m, n, 3) != count_by_enumeration(m, n, uk_set(3)):
            bad.append(("U3", m, n))
    spots = ((cf.upper_bound_U(2, 2), 12), (cf.upper_bound_U_k(2, 2, 3), 16))
    return CheckResult(
        "diagonal-word-bounds", not bad and all(a == b for a, b in spots),
        f"single-diagonal formula matches enumeration for mn <= {params['u_cells']}, "
        f"3-run formula for mn <= {params['uk_cells']}; spots U(2,2)=12, U3(2,2)=16"
        + (f"; failures: {bad[:5]}" if bad else ""), cells=cells + len(spots))


def check_sandwich(params: dict) -> CheckResult:
    top = params["sandwich_max"]
    bad = []
    cells = 0
    for m in range(1, top + 1):
        seq_m = count_sequence(m, top, M_SET)
        seq_l = count_sequence(m, top, L_SET)
        for n in range(1, top + 1):
            cells += 1
            lo, mid, hi = seq_l[n], seq_m[n], cf.upper_bound_U(m, n)
            if not (lo <= mid <= hi <= 2 ** (m * n)):
                bad.append((m, n, lo, mid, hi))
    return CheckResult(
        "bound-sandwich", not bad,
        f"L <= M <= U <= 2^(mn) holds for all m, n <= {top}"
        + (f"; failures: {bad[:5]}" if bad else ""), cells=cells)


def check_perfect_square(params: dict) -> CheckResult:
    max_n = params["square_max_n"]
    bad = []
    cells = 0
    for m in (2, 4, 6):
        seq = count_sequence(m, max_n, M_SET)
        for n in range(1, max_n + 1):
            cells += 1
            black, white = map(dc.count_independent_sets, dc.split_by_color(m, n))
            value = seq[n]
            if (math.isqrt(value) ** 2 != value or black != white
                    or black * white != value):
                bad.append((m, n))
    return CheckResult(
        "perfect-square", not bad,
        f"even heights 2, 4, 6 give perfect squares with equal color counts "
        f"for n <= {max_n}" + (f"; failures: {bad[:5]}" if bad else ""),
        cells=cells)


def check_shape_formulas(params: dict) -> CheckResult:
    max_n = params["shape_max_n"]
    bad = []
    cells = 0
    for m in (2, 3, 4, 5, 6):
        seq = count_sequence(m, max_n, M_SET)
        for n in range(max_n + 1):
            cells += 1
            if cf.shape_formula_M(m, n)[0] != seq[n]:
                bad.append((m, n))
    for m in range(7, 17):
        black, white = colour_split_sequence(m, max_n)
        for n in range(max_n + 1):
            cells += 1
            if cf.colour_class_M(m, n) != black[n] * white[n]:
                bad.append((m, n))
    if cf.corrected_five_row_shapes() != (cf.GF_FIVE_ROW_A, cf.GF_FIVE_ROW_B):
        bad.append("stored five-row pair differs from its refit")
    published_52 = (cf.PUBLISHED_FIVE_ROW_A.expand(3)[2]
                    * cf.PUBLISHED_FIVE_ROW_B.expand(3)[2])
    erratum_seen = published_52 == 156 and cf.shape_formula_M(5, 2)[0] == 169
    deviations = ()
    if erratum_seen:
        deviations = (
            "expected deviation from published formulas: the five-row "
            "generating-function pair gives 156 at (5,2) where the true "
            "count is 169; the corrected fitted pair is used instead",)
    return CheckResult(
        "shape-formulas", not bad and erratum_seen,
        f"heights 2..6 shape formulas match transfer exactly for n <= {max_n} "
        "(height 5 via the corrected fit), and the stored colour-class "
        "generating functions of heights 7..16 match the colour split, "
        f"{cells} (m, n) cells in all; published-pair erratum "
        "pinned at (5,2): 156 vs 169" + (f"; failures: {bad[:5]}" if bad else ""),
        deviations, cells=cells)


def check_tilings(params: dict) -> CheckResult:
    bad = []
    cells = 0
    for m, n in _dims_within(params["tiling_cells"]):
        cells += 1
        if tl.count_tilings(m + 1, n + 1) != count_via_transfer(m, n, L_SET):
            bad.append(("count", m, n))
    roundtrips = 0
    for m, n in _dims_within(params["roundtrip_cells"]):
        cells += 1
        stream = 0
        for mat in enumerate_legal(m, n, L_SET):
            stream += 1
            if tl.theta_inverse(tl.theta_forward(mat)) != mat:
                bad.append(("roundtrip", m, n))
                break
        roundtrips += stream
        if stream != count_by_enumeration(m, n, L_SET):
            bad.append(("stream", m, n))
    cells += roundtrips
    for n in range(params["closed_l_max_n"] + 1):
        for m in (1, 2):
            cells += 1
            if cf.closed_form_L(m, n) != tl.count_tilings(m + 1, n + 1):
                bad.append((f"L{m}", n))
    top_m, top_n = params["frontier_max_m"], params["frontier_max_n"]
    for m in range(1, top_m + 1):
        tilings = tl.tiling_sequence(m + 1, top_n + 1)[1:]
        cells += len(tilings)
        if not (isolated_sequence(m, top_n) == count_sequence(m, top_n, L_SET)
                == tilings):
            bad.append(("frontier", m))
    return CheckResult(
        "tiling-bijection", not bad,
        f"tiling counts equal isolated-matrix counts for mn <= "
        f"{params['tiling_cells']}; bijection round-trips all "
        f"{roundtrips} legal matrices with mn <= {params['roundtrip_cells']}; "
        f"height 1/2 closed forms match for n <= {params['closed_l_max_n']}; "
        f"the frontier sweep equals the full transfer and the tiling counts "
        f"for heights 1..{top_m}, n <= {top_n}"
        + (f"; failures: {bad[:5]}" if bad else ""), cells=cells)


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


def check_eigenvalues(params: dict) -> CheckResult:
    bad = []
    targets = {
        1: (2.0, 1e-8),
        2: (((1 + math.sqrt(5)) / 2) ** 2, 1e-8),
        3: ((5 + math.sqrt(13)) / 2, 1e-8),
        # 8/3 + (4/3) sqrt(7) cos(arctan(3 sqrt(111)/67)/3)
        4: (published_four_row_eigenvalues()[-1], 1e-6),
    }
    alphas = {}
    cells = 0
    for m, (target, tol) in targets.items():
        cells += 1
        alphas[m] = dominant_eigenvalue(m, M_SET)
        if abs(alphas[m] - target) > tol:
            bad.append(f"alpha_{m}={alphas[m]} vs {target}")
    ratio_n = params["ratio_n"]
    for m in range(1, params["ratio_max_m"] + 1):
        cells += 1
        seq = count_sequence(m, ratio_n + 1, M_SET)
        ratio = seq[ratio_n + 1] / seq[ratio_n]
        if abs(ratio - alphas[m]) > 1e-6:
            bad.append(f"ratio m={m}: {ratio}")
    deviations = []
    spectrum = spectrum_small(4, M_SET)
    matched = 0
    for idx, lam in enumerate(published_four_row_eigenvalues(), start=1):
        cells += 1
        dist = min(abs(lam - s) for s in spectrum)
        if dist <= 1e-6:
            matched += 1
        else:
            deviations.append(
                "expected deviation from published formulas: published "
                f"height-4 eigenvalue #{idx} = {lam:.9f} is not in the "
                f"computed spectrum (nearest at distance {dist:.3e}); the "
                "remaining nonzero eigenvalue is +1.709275359")
    near_zero = sum(1 for s in spectrum if abs(s) < 1e-9)
    deviations.append(
        f"note: the height-4 spectrum has {near_zero} eigenvalues equal to 0 "
        "that the published nine-value list omits")
    return CheckResult(
        "dominant-eigenvalues", not bad,
        f"power iteration reproduces alpha at heights 1..4; exact count "
        f"ratios at n = {ratio_n} agree within 1e-6 for heights <= "
        f"{params['ratio_max_m']}; {matched}/9 published height-4 "
        "eigenvalues found in the spectrum"
        + (f"; failures: {bad[:5]}" if bad else ""),
        tuple(deviations), cells=cells)


def check_asymptotics(params: dict) -> CheckResult:
    bad = []
    limits = (("estimate_c(40)", cf.estimate_c(40), 1e-8),
              ("growth ratio(40)", cf.fib_product_growth_ratio(40), 1e-9))
    for name, value, tol in limits:
        if abs(value - cf.FIB_PRODUCT_CONSTANT) > tol:
            bad.append(f"{name}={value}")
    gaps = [cf.golden_ratio_gap(k, k) for k in (10, 20, 40)]
    g10, g20, g40 = gaps
    if not (abs(g40) < 0.05 and abs(g40) < abs(g20) < abs(g10)):
        bad.append(f"gaps {g10}, {g20}, {g40}")
    deviations = (
        "expected deviation from published formulas: the printed growth "
        "exponent for the Fibonacci product matches the product of the "
        "first n-1 standard-seeded terms; the ratio here uses the "
        "self-consistent exponent phi^(n(n+1)/2) * 5^(-n/2) over n "
        "standard-seeded terms and converges to the same printed constant",)
    return CheckResult(
        "asymptotics", not bad,
        f"partial product at 40 terms and the normalized Fibonacci product "
        f"both hit {cf.FIB_PRODUCT_CONSTANT:.10f} within tolerance; the "
        f"golden-ratio gap shrinks {g10:.4f} -> {g20:.4f} -> {g40:.4f} along "
        "the square diagonal" + (f"; failures: {bad}" if bad else ""),
        deviations, cells=len(limits) + len(gaps))


def check_isolated_height3(params: dict) -> CheckResult:
    bad = []
    cells = 0
    seq = count_sequence(3, params["l3_exact_n"], L_SET)
    for n in range(params["l3_exact_n"] + 1):
        cells += 1
        if cf.closed_form_L(3, n) != seq[n]:
            bad.append(("exact", n))
    for n in range(13):
        cells += 1
        exact = cf.closed_form_L(3, n)
        if abs(cf.l3_root_closed_form(n) - exact) > 1e-3 * exact:
            bad.append(("float", n))
    deviations = (
        "expected deviation from published formulas: the root form uses "
        "corrected coefficients sqrt(39)/3 and sqrt(13)/3 on the second and "
        "third roots (as published, the roots do not sum to the recurrence "
        "trace 2)",)
    return CheckResult(
        "isolated-height-3", not bad,
        f"order-3 recurrence matches transfer exactly for n <= "
        f"{params['l3_exact_n']}; corrected root form agrees within 1e-3 "
        "relative for n <= 12" + (f"; failures: {bad[:5]}" if bad else ""),
        deviations, cells=cells)


def check_growth_rates(params: dict) -> CheckResult:
    top = params["growth_max_m"]
    alphas = [dominant_eigenvalue(m, M_SET) for m in range(1, top + 2)]
    monotone = all(a < b for a, b in zip(alphas, alphas[1:]))
    bracket = all(1.5 < alphas[m - 1] ** (1 / m) <= 2.0
                  for m in range(1, top + 1))
    per_row = ", ".join(f"{alphas[m - 1] ** (1 / m):.4f}"
                        for m in range(1, top + 1))
    return CheckResult(
        "per-row-growth", monotone and bracket,
        f"alpha_m strictly increases up to height {top + 1} and "
        f"alpha_m^(1/m) stays in (1.5, 2.0]: {per_row}", cells=len(alphas))


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
    from time import perf_counter

    params = FULL if level == "full" else QUICK
    results = []
    for _, fn in CHECKS:
        start = perf_counter()
        result = fn(params)
        results.append(replace(result, elapsed_s=perf_counter() - start))
    return VerificationReport(level, tuple(results))
