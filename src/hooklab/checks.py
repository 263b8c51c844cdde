"""The check registry: one entry per verifiable statement.

Each runner receives its bounds and returns (status, witness, notes) with
status "verified" or "refuted".  Runners never assume a statement is true:
anything that fails produces the smallest witness under the documented
enumeration order.  Known transcription pitfalls (summation ranges, symbol
overloading, off-by-one limits) are probed explicitly and the verdicts are
spelled out in the notes.

A runner that compares sides case by case calls _mismatch with one function
giving every side's value at a case, and its own witness format.  A runner of
another shape keeps its loop: ordered claims per case (L1.1, L2.3), a test
before the comparison (X3.6), the library's own verdict (P6.4), a prefixed
series witness (C4.1, E8.3, C8.1).  Library names are read when a runner
runs, never bound at import, so a rebound checks.<name> is seen.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .harness import Check
from .multipoly import MultiPoly
from .partitions import (
    Partition,
    cell_stats,  # unused here; perfbench's tracer test rebinds checks.cell_stats
    enumerate_sss_cores,
    hook_part_census,
    partition_count,
    partition_list,
    rr_sets,
)
from .permstats import (
    bell_number,
    bell_poly,
    egf_cycle_statistic,
    eulerian_A,
    eulerian_B,
    eulerian_coeff_A,
    eulerian_coeff_B,
    involution_count,
    involution_egf,
    involution_trace_moment,
    q_eulerian_B,
    q_eulerian_B_reference,
    q_eulerian_coeff,
    stirling2,
)
from .identities import (
    arm_zero_sum,
    hook_falling_factorial_moment,
    hook_product_sum,
    cycle_index_sum,
    det_bareiss,
    equivalence_classes_D,
    hook_square_polynomial,
    hook_sum_series,
    involution_moment_poly,
    leg_zero_sum,
    linear_product_series,
    linear_product_sum,
    marked_power_rhs_series,
    max_unit_hooks,
    multiplicity_binomial_sum,
    part_count_rhs_series,
    part_marker_rhs_series,
    part_sum_series,
    power_sum_rhs_series,
    power_traces,
    rr_count_series,
    rr_product_series,
    rr_q_series,
    squares_polynomial,
    squares_total,
    surd_hook_factor,
    top_hook_series,
    unit_hook_series,
)
from .series import (
    TruncatedSeries,
    binomial_poly,
    binomial_series,
    eta_product,
    gaussian_binomial,
    geometric,
)
from .sturm import sturm_analysis, unimodal
from .symfunc import flattened_schur_identity

_T = MultiPoly.var("t")
_Q = MultiPoly.var("q")
_V = MultiPoly.var("v")
_A = MultiPoly.var("a")
_B = MultiPoly.var("b")
_Z = MultiPoly.var("z")


def _ok(notes: str = ""):
    return "verified", None, notes


def _bad(witness, notes: str = ""):
    return "refuted", str(witness), notes


def _mismatch(cases, values, witness: str) -> str | None:
    """witness.format(*case, *sides) at the first case (an int, a tuple or one
    other entry) where the sides values(*case) are not all equal, with each
    entry that has a render() rendered; None when every case agrees."""
    for case in cases:
        case = case if isinstance(case, tuple) else (case,)
        sides = values(*case)
        if sides.count(sides[0]) != len(sides):
            entries = (*case, *sides)
            return witness.format(*(e.render() if hasattr(e, "render") else e for e in entries))
    return None


def _series_mismatch(lhs: TruncatedSeries, rhs: TruncatedSeries) -> str | None:
    lhs._check_compatible(rhs)
    return _mismatch(
        range(lhs.order + 1), lambda n: (lhs.coefficient(n), rhs.coefficient(n)), "x^{}: {} vs {}"
    )


def _comb(n: int, k: int) -> int:
    return math.comb(n, k) if 0 <= k <= n else 0


def _fraction_sum(terms) -> Fraction:
    """The sum of c/d over the (c, d) pairs, added in ints over the lcm of the d's."""
    terms = list(terms)
    common = math.lcm(*(d for _, d in terms))
    return Fraction(sum(c * (common // d) for c, d in terms), common)


def _linear(contents, power):
    """linear_product_sum factors of prod_u prod_x (x + a_u)/h_u^power, x
    over its names, where contents(lam) gives a_u for every cell u; summed
    with the same power, as 1/prod_u h_u = f^lambda/n! (the hook length
    formula)."""
    return lambda lam: (contents(lam), lam.dim_sytx() ** power)


def _constant(contents, power):
    """linear_product_sum factors of prod_u (a_u/h_u)^power: no shifts."""
    return lambda lam: ((), (math.prod(contents(lam)) * lam.dim_sytx()) ** power)


def _contents(lam):
    """The content j - i of every cell (i, j), row by row."""
    return [j - i for i, p in enumerate(lam.parts, start=1) for j in range(1, p + 1)]


# ----- descent polynomials ---------------------------------------------


def _run_L11(bounds):
    for n in range(1, bounds["max_n"] + 1):
        for k in range(n + 1):
            doubled = 2 ** n * eulerian_coeff_A(n, k)
            inter = sum(
                _comb(n + 1, 2 * k + 1 - j) * eulerian_coeff_A(n, j) for j in range(n)
            )
            if doubled != inter:
                return _bad(f"doubling at n={n}, k={k}: {doubled} vs {inter}")
            signed = eulerian_coeff_B(n, k)
            inter_b = sum(
                _comb(n + 1, 2 * k - j) * eulerian_coeff_A(n, j) for j in range(n)
            )
            if signed != inter_b:
                return _bad(f"interleaving at n={n}, k={k}: {signed} vs {inter_b}")
    return _ok()


def _L12_sides(a: int, b: int) -> tuple[int, int, int, int]:
    """The signed-count side with its k=0 term, the doubled side without its
    k=0 term, and the two k=0 terms."""
    m = a + b
    with_k0 = sum(_comb(m, k) * eulerian_coeff_B(k, b) for k in range(0, m + 1))
    doubled = sum(
        _comb(m, k) * 2 ** k * eulerian_coeff_A(k, a - 1) for k in range(1, m + 1)
    )
    return with_k0, doubled, eulerian_coeff_B(0, b), eulerian_coeff_A(0, a - 1)


def _run_L12(bounds):
    top = bounds["max_ab"]
    for a in range(1, top):
        for b in range(0, top - a + 1):
            with_k0, doubled, signed0, doubled0 = _L12_sides(a, b)
            if with_k0 != doubled:
                return _bad(f"a={a}, b={b}: {with_k0} vs {doubled}")
            if (with_k0 - signed0 == doubled) != (b >= 1):
                return _bad(
                    f"a={a}, b={b}: k>=1 on both sides gives {with_k0 - signed0} vs "
                    f"{doubled}, against 'holds exactly when b>=1'"
                )
            if (with_k0 == doubled + doubled0) != (a != 1):
                return _bad(
                    f"a={a}, b={b}: k=0 kept on both sides gives {with_k0} vs "
                    f"{doubled + doubled0}, against 'a=1 breaks'"
                )
    with_k0, doubled, signed0, _ = _L12_sides(2, 0)
    if (with_k0 - signed0, doubled) != (3, 4):
        return _bad(
            f"a=2, b=0: k>=1 on both sides gives {with_k0 - signed0} vs {doubled}, "
            "not 3 vs 4"
        )
    return _ok(
        "holds with the k=0 term kept on the signed-count side and dropped on the "
        "doubled side; with k>=1 on both sides it holds exactly when b>=1 (first "
        "failure a=2, b=0: 3 vs 4); with k=0 kept on both sides a=1 breaks instead"
    )


def _run_L13(bounds):
    def sides(k):
        terms = (
            math.factorial(j) * stirling2(k, j) * _T ** (j - 1) * (MultiPoly.const(1) - _T) ** (k - j)
            for j in range(1, k + 1)
        )
        return eulerian_A(k), sum(terms, MultiPoly.const(0))

    w = _mismatch(range(1, bounds["max_n"] + 1), sides, "k={}: {} vs {}")
    return _bad(w) if w else _ok()


def _run_D15(bounds):
    w = _mismatch(  # NonPolynomialResult from q_eulerian_B would be an engine bug
        range(1, bounds["max_n"] + 1), lambda n: (q_eulerian_B(n).subs("q", 1), eulerian_B(n)),
        "n={}: q=1 specialization differs",
    ) or _mismatch(
        range(1, bounds["max_ref"] + 1), lambda n: (q_eulerian_B_reference(n), q_eulerian_B(n)),
        "n={}: recurrence vs direct series route",
    )
    return _bad(w) if w else _ok(
        "coefficients certified polynomial in t and q by exact division; "
        "recurrence route matches the generating-series route up to the "
        "reference bound and degenerates to the signed descent polynomials at q=1"
    )


def _run_L17(bounds):
    w = _mismatch(
        ((n, k) for n in range(1, bounds["max_n"] + 1) for k in range(n + 1)),
        lambda n, k: (q_eulerian_coeff(n, k), q_eulerian_coeff(n, n - k)), "n={}, k={}",
    )
    return _bad(w) if w else _ok()


def _run_C18(bounds):
    def side(alpha: int, a: int, b: int, include_k0: bool) -> MultiPoly:
        total = gaussian_binomial(alpha, a)
        lo = 0 if include_k0 else 1
        for k in range(lo, alpha + 1):
            coeff = q_eulerian_coeff(k, b) if k else MultiPoly.const(1 if b == 0 else 0)
            total = total + gaussian_binomial(alpha, k) * 2 ** (alpha - k) * coeff
        return total

    first = None
    q1_holds_k0 = True
    k1_fails_at_q1 = False
    for alpha in range(2, bounds["max_alpha"] + 1):
        for a in range(alpha):
            b = alpha - 1 - a
            if a < b:
                continue
            diff1 = side(alpha, a, b, False) - side(alpha, b, a, False)
            diff0 = side(alpha, a, b, True) - side(alpha, b, a, True)
            if not diff0.is_zero() and first is None:
                first = (a, b, diff0)
            if diff0.subs("q", 1) != MultiPoly.const(0):
                q1_holds_k0 = False
            if not diff1.is_zero() and diff1.subs("q", 1) != MultiPoly.const(0):
                k1_fails_at_q1 = True
    notes = (
        "as printed the two sides differ as q-polynomials under either k-range; "
        f"bare k>=1 fails even at q=1 ({'confirmed' if k1_fails_at_q1 else 'not seen'}); "
        "extending to k=0 with the empty coefficient set to 1 leaves a formal "
        "difference (1-q at the smallest case) that "
        + ("vanishes at q=1 for every tested pair" if q1_holds_k0 else "persists at q=1")
    )
    if first is not None:
        a, b, diff = first
        return _bad(f"(a,b)=({a},{b}): difference {diff.render()}", notes)
    return _ok(notes)


# ----- hook products and unit hooks ------------------------------------


def _run_C21(bounds):
    routes = (arm_zero_sum, multiplicity_binomial_sum, hook_square_polynomial, leg_zero_sum)
    w = _mismatch(range(bounds["max_n"] + 1), lambda n: tuple(f(n) for f in routes), "n={}")
    if w:
        return _bad(w)
    order = bounds["eta_order"]
    lhs = TruncatedSeries(order, [hook_square_polynomial(n) for n in range(order + 1)])
    rhs = eta_product([(1, 0, _T + 1)], order)
    w = _series_mismatch(lhs, rhs)
    if w:
        return _bad(w, "four-way equality held but the product form did not")
    return _ok("cross-checked against the exponent t+1 infinite product")


def _run_C22a(bounds):
    for n in range(1, bounds["max_n"] + 1):
        p = hook_square_polynomial(n)
        rep = sturm_analysis(p, "t")
        degree = max(p.as_univariate("t"))
        if not (rep.real_root_count == degree and rep.all_roots_simple and rep.all_roots_negative):
            return _bad(
                f"n={n}: exact real-root count {rep.real_root_count} of degree {degree}"
                f" (simple={rep.all_roots_simple}, negative={rep.all_roots_negative})",
                f"roots are real, simple, and negative for every n < {n}; the count"
                " is an exact Sturm-chain computation, so the missing roots form"
                " complex conjugate pairs (floating-point root finding places one"
                " such pair near -6.462 +/- 0.708i at n=10)",
            )
    return _ok("all roots real, simple, and negative at every tested degree")


def _run_C22b(bounds):
    for n in range(1, bounds["max_n"] + 1):
        if not unimodal(hook_square_polynomial(n), "t"):
            return _bad(f"n={n}")
    return _ok()


def _run_P22(bounds):
    top = bounds["max_n"]
    fixed = unit_hook_series(top, corrected=True)
    printed = unit_hook_series(top)
    maxima = [max_unit_hooks(n) for n in range(top + 1)]
    for n, b in enumerate(maxima):
        if fixed.coefficient(n).as_fraction() != b:
            return _bad(f"n={n}: coefficient {fixed.coefficient(n).render()} vs maximum {b}")
    first_off = next(
        (n for n in range(top + 1) if printed.coefficient(n).as_fraction() != maxima[n]),
        None,
    )
    if first_off is None:
        return _ok(f"both forms match the maxima for every n <= {top}")
    return _ok(
        "the triangular-number block times x/(1-x) overcounts by the empty "
        f"staircase (first mismatch at n={first_off}: coefficient "
        f"{printed.coefficient(first_off).render()} vs maximum {maxima[first_off]}); "
        "removing the block's constant term before the geometric factor matches "
        f"the maxima for every n <= {top}"
    )


def _run_L23(bounds):
    for n in range(1, bounds["max_n"] + 1):
        s_f = s_g = s_d = 0
        for lam in partition_list(n):
            s_f += lam.parts.count(1)
            s_g += len(set(lam.parts))
            s_d += lam.hook_lengths().count(1)
        if not (s_f == s_g == s_d):
            return _bad(f"n={n}: {s_f}, {s_g}, {s_d}")
        cumulative = sum(partition_count(k) for k in range(n))
        if s_f != cumulative:
            return _bad(f"n={n}: common value {s_f} vs cumulative count {cumulative}")
    return _ok(
        "three-way equality holds and the common value is the cumulative "
        "partition count with upper limit n-1; the printed upper limit n "
        "overshoots by p(n) at every n"
    )


# ----- cycle markers and content products ------------------------------


def _run_L31(bounds):
    order = bounds["order"]
    lhs = egf_cycle_statistic(order, lambda lam: _T ** lam.odd * _Q ** lam.even)
    rhs = binomial_series(_T, order) * binomial_series(
        (_Q - _T) * Fraction(1, 2), order, deg=2
    )
    w = _series_mismatch(lhs, rhs)
    return _bad(w) if w else _ok()


def _run_X32(bounds):
    order = bounds["order"]
    # prod_u (t + c_u)(v + c_u)/h_u^2, by the content and hook length formulas.
    prod = linear_product_series(order, _linear(_contents, 2), 2, "tv")
    closed = binomial_series(_T * _V, order)
    egf = egf_cycle_statistic(order, lambda lam: (_T * _V) ** len(lam))
    w = _series_mismatch(prod, closed) or _series_mismatch(closed, egf)
    return _bad(w) if w else _ok("partition product, binomial power, and cycle sum all agree")


def _run_X33(bounds):
    order = bounds["order"]
    prod = linear_product_series(order, _linear(_contents, 1), 1)
    closed = binomial_series(_T, order) * binomial_series(
        binomial_poly(_T, 2), order, deg=2
    )
    egf = egf_cycle_statistic(order, lambda lam: _T ** (lam.odd + 2 * lam.even))
    w = _series_mismatch(prod, closed) or _series_mismatch(closed, egf)
    return _bad(w) if w else _ok()


def _run_X34(bounds):
    def sides(n):
        return linear_product_sum(n, _linear(_contents, 2), 2), _T ** n * Fraction(1, math.factorial(n))

    w = _mismatch(range(bounds["max_n"] + 1), sides, "n={}: {}")
    return _bad(w) if w else _ok()


def _run_X35(bounds):
    order = bounds["order"]
    base = egf_cycle_statistic(order, lambda lam: _A ** lam.odd)
    both = egf_cycle_statistic(order, lambda lam: _A ** lam.odd * _B ** len(lam))
    powered = (base.log() * _B).exp()
    w = _series_mismatch(both, powered)
    return _bad(w) if w else _ok()


def _run_X36(bounds):
    for n in range(bounds["max_n"] + 1):
        total = hook_product_sum(n, surd_hook_factor)
        if not isinstance(total, MultiPoly):
            return _bad(f"n={n}: sum did not reduce to a polynomial: {total.render()}")
        if total != involution_moment_poly(n):
            return _bad(f"n={n}: {total.render()} vs {involution_moment_poly(n).render()}")
    return _ok("each sum certified polynomial in a (even powers only)")


def _run_X37(bounds):
    def sides(n):
        return sum(lam.dim_sytx() ** 2 for lam in partition_list(n)), math.factorial(n)

    w = _mismatch(range(bounds["max_n"] + 1), sides, "n={}: {}")
    return _bad(w) if w else _ok()


def _run_X38(bounds):
    def sides(n):
        return sum(lam.dim_sytx() for lam in partition_list(n)), involution_count(n)

    w = _mismatch(range(bounds["max_n"] + 1), sides, "n={}: {} vs {}")
    return _bad(w) if w else _ok()


# ----- involutions and Bell weights ------------------------------------


def _run_C41(bounds):
    top, kmax = bounds["max_n"], bounds["max_k"]
    if involution_trace_moment(3, 1) != 6:
        return _bad("n=3, k=1 moment is not 6")
    for k in range(kmax + 1):
        lhs = TruncatedSeries(
            top,
            [
                Fraction(involution_trace_moment(n, k), math.factorial(n))
                for n in range(top + 1)
            ],
        )
        rhs = TruncatedSeries(top, bell_poly(k).dense_coeffs("z")) * involution_egf(top)
        w = _series_mismatch(lhs, rhs)
        if w:
            return _bad(f"k={k}, {w}")
    return _ok()


def _run_C42(bounds):
    order = bounds["max_n"]
    lhs = egf_cycle_statistic(
        order,
        lambda lam: (2 ** len(lam)) * bell_poly(len(lam)) if lam.even == 0 else 0,
    )
    accumulated = geometric(order) * TruncatedSeries.monomial(order, 1)
    rhs = (accumulated * (2 * _Z)).exp()
    w = _series_mismatch(lhs, rhs)
    return _bad(w) if w else _ok()


def _run_C43(bounds):
    top, kmax, top_poly = bounds["max_n"], bounds["max_k"], bounds["max_n_poly"]

    def split(n, k):
        return Fraction(involution_trace_moment(n, k), math.factorial(n)), sum(
            Fraction(stirling2(k, j) * involution_count(n - j), math.factorial(n - j))
            for j in range(min(k, n) + 1)
        )

    def display(n):
        lhs = rhs = MultiPoly.const(0)
        for lam in partition_list(n):
            kappa = len(lam)
            if lam.even == 0:
                lhs = lhs + lam.class_size * (2 ** kappa) * bell_poly(kappa)
            rhs = rhs + lam.class_size * math.prod(lam.parts) * (2 * _Z) ** kappa
        return lhs, rhs

    w = _mismatch(
        ((n, k) for n in range(top + 1) for k in range(kmax + 1)), split, "n={}, k={}: {} vs {}"
    ) or _mismatch(range(top_poly + 1), display, "n={}: {} vs {}")
    return _bad(w) if w else _ok(
        "second display balances only when the Bell symbol is read as the "
        "polynomial in z; the plain Bell number would make the left side constant"
    )


def _run_R41(bounds):
    def sides(n):
        lhs = rhs = Fraction(0)
        for lam in partition_list(n):
            kappa = len(lam)
            mult = lam.multiplicities()
            if lam.even == 0:
                denom = 1
                for j, m in mult.items():
                    denom *= (j ** m) * math.factorial(m)
                lhs += Fraction(2 ** kappa * bell_number(kappa), denom)
            denom = 1
            for m in mult.values():
                denom *= math.factorial(m)
            rhs += Fraction(2 ** kappa, denom)
        return lhs, rhs

    w = _mismatch(range(bounds["max_n"] + 1), sides, "n={}: {} vs {}")
    return _bad(w) if w else _ok(
        "Bell-number weighting works here (no polynomial needed); both sides "
        "are the coefficients of exp(2x/(1-x))"
    )


# ----- falling-factorial hook moments -----------------------------------------


def _run_C52(bounds):
    def sides(n, r):
        lhs, rhs = hook_falling_factorial_moment(n, r)  # exactly two sides
        return lhs, rhs

    if hook_falling_factorial_moment(1, 1) != (Fraction(1), Fraction(1)):
        return _bad("(n,r)=(1,1) is not (1,1)")
    if hook_falling_factorial_moment(2, 1) != (Fraction(5), Fraction(5)):
        return _bad("(n,r)=(2,1) is not (5,5)")
    w = _mismatch(
        ((n, r) for n in range(1, bounds["max_n"] + 1) for r in range(1, bounds["max_r"] + 1)),
        sides, "n={}, r={}: {} vs {}",
    )
    return _bad(w) if w else _ok()


# ----- symplectic and orthogonal contents -------------------------------


def _run_P61(bounds):
    def sides(n):
        sp = linear_product_sum(n, _constant(Partition.symplectic_contents, 1), 1).as_fraction()
        oc = linear_product_sum(n, _constant(Partition.orthogonal_contents, 1), 1).as_fraction()
        return sp, oc

    w = _mismatch(range(bounds["max_n"] + 1), sides, "n={}: {} vs {}")
    return _bad(w) if w else _ok()


def _run_C62a(bounds):
    order = bounds["order"]
    c2 = binomial_poly(_T + 1, 2)
    c2m = binomial_poly(_T, 2)
    lhs = linear_product_series(order, _linear(Partition.symplectic_contents, 1), 1)
    rhs = eta_product(
        [(8, 0, -c2), (8, 2, c2 - 1), (4, 1, -_T), (4, 3, _T), (8, 4, -(c2m - 1)), (8, 6, c2m - 1)],
        order,
    )
    w = _series_mismatch(lhs, rhs)
    return _bad(w) if w else _ok()


def _run_C62b(bounds):
    order = bounds["order"]
    c2 = binomial_poly(_T + 1, 2)
    c2m = binomial_poly(_T, 2)
    lhs = linear_product_series(order, _linear(Partition.orthogonal_contents, 1), 1)
    rhs = eta_product(
        [(8, 0, -c2m), (8, 6, c2m - 1), (4, 1, -_T), (4, 3, _T), (8, 4, -(c2 - 1)), (8, 2, c2 - 1)],
        order,
    )
    w = _series_mismatch(lhs, rhs)
    return _bad(w) if w else _ok()


def _run_C62c(bounds):
    order = bounds["order"]
    lhs = linear_product_series(order, _constant(Partition.symplectic_contents, 1), 1)
    rhs = eta_product([(4, 2, 1, True)], order)
    w = _series_mismatch(lhs, rhs)
    if w:
        return _bad(w)
    if lhs.coefficient(2) != MultiPoly.const(-1):
        return _bad(f"x^2 coefficient {lhs.coefficient(2).render()} is not -1")
    return _ok("spot value at x^2 is -1 on both sides")


def _run_C63a(bounds):
    order = bounds["order"]
    sp = linear_product_series(
        order, _linear(lambda lam: [a * a for a in lam.symplectic_contents()], 2), 2
    )
    oc = linear_product_series(
        order, _linear(lambda lam: [a * a for a in lam.orthogonal_contents()], 2), 2
    )
    rhs = eta_product([(4, 2, 1), (1, 0, _T)], order)
    w = _series_mismatch(sp, oc) or _series_mismatch(sp, rhs)
    return _bad(w) if w else _ok()


def _run_C63b(bounds):
    order = bounds["order"]
    lhs = linear_product_series(order, _constant(Partition.symplectic_contents, 2), 2)
    rhs = eta_product([(4, 2, 1)], order)
    w = _series_mismatch(lhs, rhs)
    return _bad(w) if w else _ok()


def _run_C63c(bounds):
    def sides(n):
        lhs = rhs = 0
        for lam in partition_list(n):
            f = lam.dim_sytx()
            prod = math.prod(lam.symplectic_contents())
            lhs += f * f * prod * prod
            rhs += f * prod
        sign = -1 if (n * (n - 1) // 2) % 2 else 1
        return sign * lhs, math.factorial(n) * rhs

    w = _mismatch(range(bounds["max_n"] + 1), sides, "n={}: {} vs {}")
    return _bad(w) if w else _ok()


def _run_P64(bounds):
    for k in range(1, bounds["max_k"] + 1):
        for m in range(1, bounds["max_m"] + 1):
            equal, lhs, rhs = flattened_schur_identity(k, m)
            if not equal:
                return _bad(f"k={k}, m={m}: {lhs.render()} vs {rhs.render()}")
    return _ok()


# ----- cycle-index determinants -----------------------------------------------


def _run_P71(bounds):
    rng = random.Random(20260815)
    alt_odd_matches = True
    alt_even_negates = True
    for trial in range(bounds["trials"]):
        n = rng.randint(1, bounds["max_size"])
        m = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            for _ in range(n)
        ]
        det = det_bareiss(m)
        traces = power_traces(m)
        if cycle_index_sum(traces) != det:
            return _bad(f"trial {trial}, size {n}: trace form vs Bareiss determinant")
        alt = cycle_index_sum(traces, sign_convention="alternating")
        if n % 2 == 1 and alt != det:
            alt_odd_matches = False
        if n % 2 == 0 and alt != -det:
            alt_even_negates = False
    if not (alt_odd_matches and alt_even_negates):
        return _bad(
            "alternating sign did not follow the (-1)^(size+1) * det pattern",
            "trace-sum determinant with the (-1)^(size-cycles) sign matched the Bareiss determinant",
        )
    return _ok(
        "the (-1)^(size-cycles) sign reproduces the determinant on every trial; "
        "the printed (-1)^(cycles-1) sign equals det for odd sizes and -det for "
        "even sizes, i.e. (-1)^(size+1) * det"
    )


# ----- additive hook statistics ----------------------------------------


def _run_E83(bounds):
    order = bounds["order"]
    for alpha in range(bounds["max_alpha"] + 1):
        hooks = hook_sum_series(order, lambda h, a=alpha: h**a)
        closed = power_sum_rhs_series(order, alpha)
        parts = part_sum_series(order, lambda p, a=alpha: p ** (a + 1))
        w = _series_mismatch(hooks, closed) or _series_mismatch(closed, parts)
        if w:
            return _bad(f"alpha={alpha}, {w}")
    return _ok()


def _run_C81(bounds):
    order = bounds["order"]
    for alpha in range(bounds["max_alpha"] + 1):
        # Hooks and parts of a partition of n <= order are at most order.
        qpow = [_Q ** (h**alpha) for h in range(order + 1)]
        lhs1 = hook_sum_series(order, qpow.__getitem__)
        rhs1 = marked_power_rhs_series(order, alpha, weighted=True)
        w = _series_mismatch(lhs1, rhs1)
        if w:
            return _bad(f"alpha={alpha} hook display, {w}")
        lhs2 = part_sum_series(order, qpow.__getitem__)
        rhs2 = marked_power_rhs_series(order, alpha, weighted=False)
        w = _series_mismatch(lhs2, rhs2)
        if w:
            return _bad(f"alpha={alpha} part display, {w}")
    return _ok()


def _run_P82(bounds):
    order = bounds["order"]
    parts_sum = part_sum_series(order, lambda p: p)
    w = _series_mismatch(parts_sum, part_count_rhs_series(order))
    if w:
        return _bad(f"part-sum display, {w}")
    marked = part_sum_series(order, lambda p: _Q**p)
    w = _series_mismatch(marked, part_marker_rhs_series(order))
    if w:
        return _bad(f"marked-part display, {w}")
    for n in range(bounds["max_n"] + 1):
        parts_count, hooks_count = hook_part_census(n)
        lhs = _fraction_sum((c, p - 1) for p, c in parts_count.items() if p != 1)
        rhs = _fraction_sum((c, h * (h - 1)) for h, c in hooks_count.items() if h != 1)
        if lhs != rhs:
            return _bad(f"reciprocal display at n={n}: {lhs} vs {rhs}")
        for i in sorted(set(parts_count) | set(hooks_count)):
            if i * parts_count.get(i, 0) != hooks_count.get(i, 0):
                return _bad(f"census at n={n}, value {i}")
    return _ok(
        "the weighted-sum display is checked as the finite census identity "
        "i * #parts(i) = #hooks(i) underlying it"
    )


# ----- gap-2 partitions and squares ------------------------------------


def _run_T90(bounds):
    gap2_counts = []
    for n in range(bounds["max_n"] + 1):
        gap2, residues = rr_sets(n)
        if len(gap2) != len(residues):
            return _bad(f"n={n}: {len(gap2)} vs {len(residues)}")
        gap2_counts.append(len(gap2))
    order = bounds["order"]
    counts = rr_count_series(order)
    w = _series_mismatch(counts, rr_product_series(order))
    if w:
        return _bad(w)
    for n in range(min(order, bounds["max_n"]) + 1):
        if counts.coefficient(n).as_fraction() != gap2_counts[n]:
            return _bad(f"n={n}: series coefficient vs enumeration")
    return _ok()


def _run_P91(bounds):
    order = bounds["order"]
    lhs = top_hook_series(order, gap2_only=True)
    rhs = rr_q_series("prop91", order)
    w = _series_mismatch(lhs, rhs)
    if w:
        return _bad(w)
    if lhs.coefficient(1) != _Q or lhs.coefficient(4) != 2 * _Q ** 4:
        return _bad("spot values at x^1, x^4 are not q and 2q^4")
    return _ok("spot values [x^1]=q and [x^4]=2q^4 confirmed")


def _run_P92(bounds):
    order = bounds["order"]
    lhs = top_hook_series(order)
    mid = rr_q_series("prop92_middle", order)
    right = rr_q_series("prop92_right", order)
    w = _series_mismatch(lhs, mid) or _series_mismatch(mid, right)
    if w:
        return _bad(w)
    return _ok(
        "the double-sum display gives 0 at n=0 as printed; the empty partition "
        "contributes 1 and the comparison uses that convention"
    )


def _run_L93(bounds):
    for n in range(bounds["max_n"] + 1):
        images = set()
        for lam in partition_list(n):
            d = lam.diagonal_hooks()
            if sum(d) != n:
                return _bad(f"{lam.render()}: diagonal hooks sum to {sum(d)}")
            if any(d[i] - d[i + 1] < 2 for i in range(len(d) - 1)):
                return _bad(f"{lam.render()}: diagonal hooks {d} not gap-2")
            images.add(d)
        targets = {lam.parts for lam in rr_sets(n)[0]}
        if images != targets:
            missing = targets - images
            return _bad(f"n={n}: unreached gap-2 partitions {sorted(missing)}")
    return _ok("every gap-2 partition arises as a diagonal-hook vector")


def _run_T95i(bounds):
    w = _mismatch(
        (lam for n in range(bounds["max_n"] + 1) for lam in partition_list(n)),
        lambda lam: (lam.squares_count(), lam.squares_count_by_diagonal(), lam.squares_count_geometric()),
        "{}",
    )
    return _bad(w) if w else _ok("dot-product, diagonal-weighted, and geometric counts agree cellwise")


def _run_T95ii(bounds):
    for n in range(bounds["max_n"] + 1):
        fq = squares_polynomial(n)
        if fq.subs("q", 1) != MultiPoly.const(partition_count(n)):
            return _bad(f"n={n}: value at q=1")
        direct = sum(lam.squares_count() for lam in partition_list(n))
        if squares_total(n) != direct:
            return _bad(f"n={n}: total {squares_total(n)} vs direct {direct}")
        if fq.derivative("q").subs("q", 1) != MultiPoly.const(direct):
            return _bad(f"n={n}: derivative at q=1")
    return _ok()


def _run_T95iii(bounds):
    order = bounds["order"]
    lhs = TruncatedSeries(order, [squares_polynomial(n) for n in range(order + 1)])
    rhs = rr_q_series("thm95", order)
    w = _series_mismatch(lhs, rhs)
    if w:
        return _bad(w)
    if lhs.coefficient(2) != 2 * _Q ** 2:
        return _bad("spot value at x^2 is not 2q^2")
    return _ok("spot value [x^2]=2q^2 confirmed")


def _run_C97(bounds):
    for n in range(bounds["max_n"] + 1):
        classes = equivalence_classes_D(n)
        total = sum(len(v) for v in classes.values())
        if total != partition_count(n):
            return _bad(f"n={n}: classes cover {total} of {partition_count(n)}")
        fq = squares_polynomial(n)
        for j, members in classes.items():
            if n and j < n:
                return _bad(f"n={n}: class index {j} below n")
            if fq.coeff_of("q", j) != MultiPoly.const(len(members)):
                return _bad(f"n={n}, j={j}: {len(members)} members")
    return _ok("classes partition the partition set with sizes given by the square-count polynomial")


# ----- simultaneous cores ----------------------------------------------


def _catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def _cores(bounds, statistic, formula, witness, label):
    """A statistic of each s's simultaneous-core family against formula(s)."""
    values = [formula(s) for s in range(1, bounds["max_s"] + 1)]
    w = _mismatch(
        range(1, bounds["max_s"] + 1),
        lambda s: (getattr(enumerate_sss_cores(s), statistic), values[s - 1]), witness,
    )
    return _bad(w) if w else _ok(f"{label} {values} match the enumeration")


def _run_C111(bounds):
    return _cores(
        bounds, "count", lambda s: sum(math.comb(s, 2 * k) * _catalan(k) for k in range(s // 2 + 1)),
        "s={}: enumerated {}, formula {}", "counts",
    )


def _run_C112(bounds):
    def formula(s):
        m = (s + 1) // 2  # s // 2 for even s
        if s % 2:
            return m * math.comb(m + 1, 3)
        return (m + 1) * math.comb(m + 1, 3) + math.comb(m + 2, 3)

    return _cores(bounds, "max_size", formula, "s={}: largest size {}, formula {}", "largest sizes")


def _run_C113(bounds):
    return _cores(
        bounds, "total_size",
        lambda s: sum(
            math.comb(j + 3, 3) * sum(math.comb(j, 2 * i) * _catalan(i) for i in range(j // 2 + 1))
            for j in range(s - 1)
        ),
        "s={}: total {}, formula {}", "total sizes",
    )


# ----- registry --------------------------------------------------------------------


def build_registry() -> list[Check]:
    table = [
        ("L1.1", "doubling and type-interleaving recurrences for descent polynomials",
         "1.1", {"max_n": 10}, _run_L11),
        ("L1.2", "binomial bridge between signed and doubled descent counts",
         "1.2", {"max_ab": 10}, _run_L12, {"max_ab": 2}),
        ("L1.3", "descent polynomials from surjection counts",
         "1.3", {"max_n": 10}, _run_L13),
        ("D1.5", "q-descent polynomials: polynomiality, series route, q=1 limit",
         "1.5", {"max_n": 6, "max_ref": 4}, _run_D15),
        ("L1.7", "palindromic symmetry of q-descent coefficients",
         "1.7", {"max_n": 6}, _run_L17),
        ("C1.8", "symmetric q-binomial relation between doubled descent counts",
         "1.8", {"max_alpha": 8}, _run_C18, {"max_alpha": 2}),
        ("C2.1", "four expressions for the shifted hook-square partition sum",
         "2.1", {"max_n": 16, "eta_order": 12}, _run_C21),
        ("C2.2a", "real, simple, negative roots of the hook-square polynomials",
         "2.2(a)", {"max_n": 10}, _run_C22a),
        ("C2.2b", "unimodal coefficients of the hook-square polynomials",
         "2.2(b)", {"max_n": 16}, _run_C22b),
        ("P2.2", "maximum count of unit hooks vs the triangular-number series",
         "2.2", {"max_n": 30}, _run_P22),
        ("L2.3", "ones, distinct parts, and unit hooks agree in aggregate",
         "2.3", {"max_n": 14}, _run_L23),
        ("L3.1", "exponential series for odd and even cycle markers",
         "3.1", {"order": 10}, _run_L31),
        ("X3.2", "two-parameter content product collapses to a binomial power",
         "3.2", {"order": 10}, _run_X32),
        ("X3.3", "one-parameter content-over-hook product in closed form",
         "3.3", {"order": 10}, _run_X33),
        ("X3.4", "content product with squared hooks reduces to t^n/n!",
         "3.4", {"max_n": 14}, _run_X34),
        ("X3.5", "cycle-count marker exponentiates the odd-cycle series",
         "3.5", {"order": 10}, _run_X35),
        ("X3.6", "surd hook factors sum to involution moment polynomials",
         "3.6", {"max_n": 10}, _run_X36),
        ("X3.7", "squared standard-filling counts sum to n!",
         "3.7", {"max_n": 14}, _run_X37),
        ("X3.8", "standard-filling counts sum to the involution count",
         "3.8", {"max_n": 14}, _run_X38),
        ("C4.1", "fixed-point moments of involutions via Bell polynomials",
         "4.1", {"max_n": 14, "max_k": 5}, _run_C41),
        ("C4.2", "odd-cycle permutations with doubled Bell weights in closed form",
         "4.2", {"max_n": 12}, _run_C42),
        ("C4.3", "Stirling split of involution moments and the doubled-Bell display",
         "4.3", {"max_n": 14, "max_k": 5, "max_n_poly": 12}, _run_C43),
        ("R4.1", "Bell-number weights over odd-part classes equal plain doubled counts",
         "4 (remark)", {"max_n": 12}, _run_R41),
        ("C5.2", "hook falling-factorial moment in closed form",
         "5.2", {"max_n": 10, "max_r": 4}, _run_C52),
        ("P6.1", "shifted symplectic and orthogonal content sums agree",
         "6.1", {"max_n": 16}, _run_P61),
        ("C6.2a", "symplectic content product as a six-block product",
         "6.2(a)", {"order": 12}, _run_C62a),
        ("C6.2b", "orthogonal content product as a six-block product",
         "6.2(b)", {"order": 12}, _run_C62b),
        ("C6.2c", "content-over-hook sum at t=0 as an alternating product",
         "6.2(c)", {"order": 12}, _run_C62c, {"order": 2}),
        ("C6.3a", "squared-content variants share one closed product form",
         "6.3(a)", {"order": 12}, _run_C63a),
        ("C6.3b", "squared-content specialization at t=0",
         "6.3(b)", {"order": 12}, _run_C63b),
        ("C6.3c", "signed squared product sum vs factorial-weighted linear sum",
         "6.3(c)", {"max_n": 14}, _run_C63c),
        ("P6.4", "flattened Schur sums match Stirling-weighted elementary polynomials",
         "6.4", {"max_k": 6, "max_m": 5}, _run_P64),
        ("P7.1", "determinants from power-trace sums over cycle types",
         "7.1", {"trials": 50, "max_size": 6}, _run_P71),
        ("E8.3", "additive hook powers equal weighted divisor-style sums",
         "8", {"order": 12, "max_alpha": 3}, _run_E83),
        ("C8.1", "q-marked hook and part powers as divisor-style sums",
         "8.1", {"order": 12, "max_alpha": 3}, _run_C81),
        ("P8.2", "part sums, marked parts, reciprocal sums, and the hook/part census",
         "8.2", {"order": 12, "max_n": 14}, _run_P82),
        ("T9.0", "gap-2 partitions vs residue-restricted partitions and their series",
         "9", {"max_n": 20, "order": 16}, _run_T90),
        ("P9.1", "first-hook marker over gap-2 partitions as a sparse q-sum",
         "9.1", {"order": 12}, _run_P91, {"order": 4}),
        ("P9.2", "first-hook marker over all partitions: two sparse q-sums",
         "9.2", {"order": 12}, _run_P92),
        ("L9.3", "diagonal hooks map onto gap-2 partitions",
         "9.3", {"max_n": 25}, _run_L93),
        ("T9.5i", "three square-counting statistics agree",
         "9.5(i)", {"max_n": 20}, _run_T95i),
        ("T9.5ii", "square-count polynomial: value and derivative at 1",
         "9.5(ii)", {"max_n": 14}, _run_T95ii),
        ("T9.5iii", "square-count generating function as a sparse double series",
         "9.5(iii)", {"order": 14}, _run_T95iii, {"order": 2}),
        ("C9.7", "square-count classes partition the partition set",
         "9.7", {"max_n": 14}, _run_C97),
        ("C11.1", "count of simultaneous-core partitions via Catalan sums",
         "11.1", {"max_s": 6}, _run_C111),
        ("C11.2", "largest simultaneous core via the piecewise cubic formula",
         "11.2", {"max_s": 6}, _run_C112),
        ("C11.3", "total size of simultaneous cores via a Catalan double sum",
         "11.3", {"max_s": 6}, _run_C113),
    ]
    return [Check(*row) for row in table]
