"""Fault injection: every witness format a check can print is printed once.

A check's refutation side is output too, and on correct code it never
runs.  Each row below makes one library function that ``hooklab.checks``
imports return a wrong value at one argument, runs the check at a small
bound, and pins the exact witness and notes.  A format that no single
wrong library value can reach has no row: both sides would have to go
wrong together.  These are L1.2's "k>=1 on both sides" claim (its k=0
term is on both sides) and the spot values of C6.2c, P9.1 and T9.5iii,
read from a side that has just matched the other.  A Partition subclass
stands in for a wrong per-partition statistic.
"""

import dataclasses
import itertools
from collections import Counter

import pytest

from hooklab import checks
from hooklab.harness import run_check
from hooklab.multipoly import MultiPoly
from hooklab.partitions import Partition
from hooklab.series import TruncatedSeries

Q = MultiPoly.var("q")
A = MultiPoly.var("a")


def plus1(value):
    return value + 1


def drop_last(value):
    return value[:-1]


def bump(k):
    """Add 1 to the x^k coefficient of a series."""
    return lambda s: s + TruncatedSeries.monomial(s.order, k)


class OffGeometric(Partition):
    __slots__ = ()

    def squares_count_geometric(self):
        return super().squares_count_geometric() + 1


class NotGap2(Partition):
    __slots__ = ()

    def diagonal_hooks(self):
        return (2, 1)


class OffDimension(Partition):
    __slots__ = ()

    def dim_sytx(self):
        return super().dim_sytx() + 1


def inject(monkeypatch, name, args, change, nth=None):
    """Make checks.<name> return change(value) at the calls whose positional
    arguments start with args: at every such call, or only at the nth."""
    real = getattr(checks, name)
    matching = itertools.count()

    def faulty(*a, **kw):
        value = real(*a, **kw)
        if a[: len(args)] != args:
            return value
        i = next(matching)
        return change(value) if nth is None or i == nth else value

    monkeypatch.setattr(checks, name, faulty)


# (check, bounds, faulted name, argument prefix, change, nth, witness, notes);
# P7.1's trial 0 has size 1 and trial 1 size 2, so its two cycle_index_sum
# rows break the odd-size and the even-size sign rule.
FAULTS = [
    ("L1.1", {"max_n": 2}, "eulerian_coeff_A", (1, 1), plus1, None,
     "doubling at n=1, k=1: 2 vs 0", ""),
    ("L1.1", {"max_n": 2}, "eulerian_coeff_B", (1, 0), plus1, None,
     "interleaving at n=1, k=0: 2 vs 1", ""),
    ("L1.2", {"max_ab": 2}, "eulerian_coeff_B", (1, 0), plus1, None,
     "a=1, b=0: 3 vs 2", ""),
    ("L1.2", {"max_ab": 3}, "eulerian_coeff_A", (0, 1), plus1, None,
     "a=2, b=0: k=0 kept on both sides gives 4 vs 5, against 'a=1 breaks'", ""),
    ("L1.2", {"max_ab": 2}, "eulerian_coeff_A", (1, 1), plus1, None,
     "a=2, b=0: k>=1 on both sides gives 3 vs 8, not 3 vs 4", ""),
    ("L1.3", {"max_n": 3}, "eulerian_A", (2,), plus1, None,
     "k=2: 2 + t vs 1 + t", ""),
    ("D1.5", {"max_n": 3, "max_ref": 3}, "eulerian_B", (2,), plus1, None,
     "n=2: q=1 specialization differs", ""),
    ("D1.5", {"max_n": 3, "max_ref": 3}, "q_eulerian_B_reference", (2,), plus1, None,
     "n=2: recurrence vs direct series route", ""),
    ("L1.7", {"max_n": 3}, "q_eulerian_coeff", (2, 0), plus1, None,
     "n=2, k=0", ""),
    ("C1.8", {"max_alpha": 2}, "q_eulerian_coeff", (1, 0), plus1, None,
     "(a,b)=(1,0): difference 3 + q",
     "as printed the two sides differ as q-polynomials under either k-range; bare k>=1"
     " fails even at q=1 (not seen); extending to k=0 with the empty coefficient set to"
     " 1 leaves a formal difference (1-q at the smallest case) that persists at q=1"),
    ("C2.1", {"max_n": 4, "eta_order": 5}, "leg_zero_sum", (3,), plus1, None,
     "n=3", ""),
    ("C2.1", {"max_n": 4, "eta_order": 5}, "hook_square_polynomial", (5,), plus1, None,
     "x^5: 8 + 907/60*t + 257/24*t^2 + 23/8*t^3 + 7/24*t^4 + 1/120*t^5"
     " vs 7 + 907/60*t + 257/24*t^2 + 23/8*t^3 + 7/24*t^4 + 1/120*t^5",
     "four-way equality held but the product form did not"),
    ("C2.2a", {"max_n": 3}, "sturm_analysis", (), lambda rep: dataclasses.replace(
        rep, real_root_count=rep.real_root_count - 1), 1,
     "n=2: exact real-root count 1 of degree 2 (simple=True, negative=True)",
     "roots are real, simple, and negative for every n < 2; the count is an exact"
     " Sturm-chain computation, so the missing roots form complex conjugate pairs"
     " (floating-point root finding places one such pair near -6.462 +/- 0.708i at n=10)"),
    ("C2.2b", {"max_n": 3}, "unimodal", (), lambda v: not v, 1,
     "n=2", ""),
    ("P2.2", {"max_n": 4}, "max_unit_hooks", (3,), plus1, None,
     "n=3: coefficient 2 vs maximum 3", ""),
    ("L2.3", {"max_n": 3}, "partition_list", (2,), drop_last, None,
     "n=2: 0, 1, 1", ""),
    ("L2.3", {"max_n": 3}, "partition_count", (1,), plus1, None,
     "n=2: common value 2 vs cumulative count 3", ""),
    ("L3.1", {"order": 3}, "egf_cycle_statistic", (3,), bump(2), None,
     "x^2: 1 + 1/2*q + 1/2*t^2 vs 1/2*q + 1/2*t^2", ""),
    ("X3.2", {"order": 3}, "egf_cycle_statistic", (3,), bump(2), None,
     "x^2: 1/2*t*v + 1/2*t^2*v^2 vs 1 + 1/2*t*v + 1/2*t^2*v^2", ""),
    ("X3.2", {"order": 3}, "linear_product_series", (3,), bump(2), None,
     "x^2: 1 + 1/2*t*v + 1/2*t^2*v^2 vs 1/2*t*v + 1/2*t^2*v^2", ""),
    ("X3.3", {"order": 3}, "egf_cycle_statistic", (3,), bump(2), None,
     "x^2: t^2 vs 1 + t^2", ""),
    ("X3.4", {"max_n": 3}, "linear_product_sum", (2,), plus1, None,
     "n=2: 1 + 1/2*t^2", ""),
    ("X3.5", {"order": 3}, "egf_cycle_statistic", (3,), bump(2), 1,
     "x^2: 1 + 1/2*b + 1/2*a^2*b^2 vs 1/2*b + 1/2*a^2*b^2", ""),
    ("X3.6", {"max_n": 3}, "hook_product_sum", (2,), lambda v: v / (A + 1), None,
     "n=2: sum did not reduce to a polynomial: (1/2 + 1/2*a^2) / (1 + a)", ""),
    ("X3.6", {"max_n": 3}, "involution_moment_poly", (2,), plus1, None,
     "n=2: 1/2 + 1/2*a^2 vs 3/2 + 1/2*a^2", ""),
    ("X3.7", {"max_n": 3}, "partition_list", (3,), drop_last, None,
     "n=3: 5", ""),
    ("X3.8", {"max_n": 3}, "involution_count", (3,), plus1, None,
     "n=3: 4 vs 5", ""),
    ("C4.1", {"max_n": 3, "max_k": 1}, "involution_trace_moment", (3, 1), plus1, None,
     "n=3, k=1 moment is not 6", ""),
    ("C4.1", {"max_n": 3, "max_k": 1}, "involution_egf", (3,), bump(2), None,
     "k=0, x^2: 1 vs 2", ""),
    ("C4.2", {"max_n": 3}, "egf_cycle_statistic", (3,), bump(3), None,
     "x^3: 1 + 2*z + 4*z^2 + 4/3*z^3 vs 2*z + 4*z^2 + 4/3*z^3", ""),
    ("C4.3", {"max_n": 3, "max_k": 2, "max_n_poly": 3}, "stirling2", (2, 1), plus1, None,
     "n=1, k=2: 1 vs 2", ""),
    ("C4.3", {"max_n": 3, "max_k": 2, "max_n_poly": 3}, "bell_poly", (2,), plus1, None,
     "n=2: 4 + 4*z + 4*z^2 vs 4*z + 4*z^2", ""),
    ("R4.1", {"max_n": 3}, "bell_number", (2,), plus1, None,
     "n=2: 6 vs 4", ""),
    ("C5.2", {"max_n": 2, "max_r": 2}, "hook_falling_factorial_moment", (1, 1),
     lambda v: (v[0], v[1] + 1), None,
     "(n,r)=(1,1) is not (1,1)", ""),
    ("C5.2", {"max_n": 2, "max_r": 2}, "hook_falling_factorial_moment", (2, 1),
     lambda v: (v[0], v[1] + 1), None,
     "(n,r)=(2,1) is not (5,5)", ""),
    ("C5.2", {"max_n": 2, "max_r": 2}, "hook_falling_factorial_moment", (2, 2),
     lambda v: (v[0], v[1] + 1), None,
     "n=2, r=2: 12 vs 13", ""),
    ("P6.1", {"max_n": 3}, "linear_product_sum", (2,), plus1, 1,
     "n=2: -1 vs 0", ""),
    ("C6.2a", {"order": 3}, "linear_product_series", (3,), bump(1), None,
     "x^1: 1 + t vs t", ""),
    ("C6.2b", {"order": 3}, "linear_product_series", (3,), bump(1), None,
     "x^1: 1 + t vs t", ""),
    ("C6.2c", {"order": 3}, "eta_product", (), bump(3), None,
     "x^3: 0 vs 1", ""),
    ("C6.3a", {"order": 3}, "linear_product_series", (3,), bump(2), 1,
     "x^2: 1 + 3/2*t + 1/2*t^2 vs 2 + 3/2*t + 1/2*t^2", ""),
    ("C6.3b", {"order": 3}, "eta_product", (), bump(2), None,
     "x^2: 1 vs 2", ""),
    ("C6.3c", {"max_n": 3}, "partition_list", (2,),
     lambda v: [v[0], OffDimension(v[1].parts)], None,
     "n=2: -16 vs -8", ""),
    ("P6.4", {"max_k": 1, "max_m": 2}, "flattened_schur_identity", (1, 2),
     lambda v: (False, v[1], v[2] + 1), None,
     "k=1, m=2: y2 + y1 vs 1 + y2 + y1", ""),
    ("P7.1", {"trials": 2, "max_size": 2}, "det_bareiss", (), plus1, 1,
     "trial 1, size 2: trace form vs Bareiss determinant", ""),
    ("P7.1", {"trials": 2, "max_size": 2}, "cycle_index_sum", (), plus1, 1,
     "alternating sign did not follow the (-1)^(size+1) * det pattern",
     "trace-sum determinant with the (-1)^(size-cycles) sign matched the Bareiss determinant"),
    ("P7.1", {"trials": 2, "max_size": 2}, "cycle_index_sum", (), plus1, 3,
     "alternating sign did not follow the (-1)^(size+1) * det pattern",
     "trace-sum determinant with the (-1)^(size-cycles) sign matched the Bareiss determinant"),
    ("E8.3", {"order": 3, "max_alpha": 1}, "power_sum_rhs_series", (3, 1), bump(2), None,
     "alpha=1, x^2: 6 vs 7", ""),
    ("C8.1", {"order": 3, "max_alpha": 1}, "marked_power_rhs_series", (3, 1), bump(2), 0,
     "alpha=1 hook display, x^2: 2*q + 2*q^2 vs 1 + 2*q + 2*q^2", ""),
    ("C8.1", {"order": 3, "max_alpha": 1}, "marked_power_rhs_series", (3, 1), bump(2), 1,
     "alpha=1 part display, x^2: 2*q + q^2 vs 1 + 2*q + q^2", ""),
    ("P8.2", {"order": 3, "max_n": 3}, "part_count_rhs_series", (3,), bump(2), None,
     "part-sum display, x^2: 4 vs 5", ""),
    ("P8.2", {"order": 3, "max_n": 3}, "part_marker_rhs_series", (3,), bump(2), None,
     "marked-part display, x^2: 2*q + q^2 vs 1 + 2*q + q^2", ""),
    ("P8.2", {"order": 3, "max_n": 3}, "hook_part_census", (3,),
     lambda v: (v[0], {**v[1], 2: v[1][2] + 1}), None,
     "reciprocal display at n=3: 3/2 vs 2", ""),
    ("P8.2", {"order": 3, "max_n": 3}, "hook_part_census", (3,),
     lambda v: ({**v[0], 1: v[0][1] + 1}, v[1]), None,
     "census at n=3, value 1", ""),
    ("T9.0", {"max_n": 3, "order": 3}, "rr_sets", (3,), lambda v: (v[0][:-1], v[1]), None,
     "n=3: 0 vs 1", ""),
    ("T9.0", {"max_n": 3, "order": 3}, "rr_product_series", (3,), bump(2), None,
     "x^2: 1 vs 2", ""),
    ("T9.0", {"max_n": 3, "order": 3}, "rr_sets", (3,),
     lambda v: (v[0][:-1], v[1][:-1]), None,
     "n=3: series coefficient vs enumeration", ""),
    ("P9.1", {"order": 4}, "rr_q_series", ("prop91", 4), bump(3), None,
     "x^3: q^3 vs 1 + q^3", ""),
    ("P9.2", {"order": 3}, "rr_q_series", ("prop92_right", 3), bump(2), None,
     "x^2: 2*q^2 vs 1 + 2*q^2", ""),
    ("L9.3", {"max_n": 3}, "partition_list", (3,), lambda v: (*v, Partition([2, 2])), None,
     "[2,2]: diagonal hooks sum to 4", ""),
    ("L9.3", {"max_n": 3}, "partition_list", (3,), lambda v: (*v[:-1], NotGap2(v[-1].parts)),
     None, "[1,1,1]: diagonal hooks (2, 1) not gap-2", ""),
    ("L9.3", {"max_n": 4}, "partition_list", (4,),
     lambda v: [lam for lam in v if lam != Partition([2, 2])], None,
     "n=4: unreached gap-2 partitions [(3, 1)]", ""),
    ("T9.5i", {"max_n": 3}, "partition_list", (3,),
     lambda v: [OffGeometric(v[0].parts), *v[1:]], None,
     "[3]", ""),
    ("T9.5ii", {"max_n": 3}, "squares_polynomial", (2,), plus1, None,
     "n=2: value at q=1", ""),
    ("T9.5ii", {"max_n": 3}, "squares_total", (2,), plus1, None,
     "n=2: total 5 vs direct 4", ""),
    ("T9.5ii", {"max_n": 3}, "squares_polynomial", (2,), lambda p: p + Q - 1, None,
     "n=2: derivative at q=1", ""),
    ("T9.5iii", {"order": 3}, "rr_q_series", ("thm95", 3), bump(3), None,
     "x^3: 3*q^3 vs 1 + 3*q^3", ""),
    ("C9.7", {"max_n": 3}, "partition_count", (3,), plus1, None,
     "n=3: classes cover 3 of 4", ""),
    ("C9.7", {"max_n": 3}, "equivalence_classes_D", (3,), lambda v: {0: [], **v}, None,
     "n=3: class index 0 below n", ""),
    ("C9.7", {"max_n": 3}, "squares_polynomial", (3,), lambda p: p + Q**3, None,
     "n=3, j=3: 3 members", ""),
    ("C11.1", {"max_s": 3}, "enumerate_sss_cores", (3,),
     lambda f: dataclasses.replace(f, members=f.members[:-1]), None,
     "s=3: enumerated 3, formula 4", ""),
    ("C11.2", {"max_s": 3}, "enumerate_sss_cores", (3,),
     lambda f: dataclasses.replace(f, members=(*f.members, Partition([5]))), None,
     "s=3: largest size 5, formula 2", ""),
    ("C11.3", {"max_s": 3}, "enumerate_sss_cores", (3,),
     lambda f: dataclasses.replace(f, members=f.members[:-1]), None,
     "s=3: total 3, formula 5", ""),
]


def fault_ids(rows):
    """check-name, with -2, -3, ... on the second and later rows of a pair."""
    seen = Counter()
    for check_id, _, name, *_ in rows:
        seen[check_id, name] += 1
        yield f"{check_id}-{name}" + (f"-{seen[check_id, name]}" if seen[check_id, name] > 1 else "")


@pytest.mark.parametrize(
    "check_id, bounds, name, args, change, nth, witness, notes", FAULTS, ids=list(fault_ids(FAULTS))
)
def test_one_wrong_library_value_refutes_with_the_exact_witness(
    monkeypatch, check_id, bounds, name, args, change, nth, witness, notes
):
    inject(monkeypatch, name, args, change, nth)
    result = run_check(check_id, bounds)
    assert (result.status, result.witness, result.notes) == ("refuted", witness, notes)
