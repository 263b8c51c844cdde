"""Acceptance gate: twelve exact criteria, one printed pass/fail line each.

Each criterion pins its verification bounds and a wall-clock cap.  A
criterion fails if any sub-check misses its expected verdict, a spot value
is off, a required finding note is absent, or the cap is exceeded.  The
verdict lines are printed outside pytest's capture so they appear in plain
runs and in teed logs.
"""

import dataclasses
import json
import time
from fractions import Fraction

from hooklab.harness import run_all, run_check
from hooklab.checks import _constant
from hooklab.cli import render_json
from hooklab.identities import (
    hook_falling_factorial_moment,
    linear_product_series,
    max_unit_hooks,
    prop91_series,
    thm95_series,
)
from hooklab.multipoly import MultiPoly
from hooklab.partitions import Partition, enumerate_sss_cores
from hooklab.permstats import involution_trace_moment
from hooklab.series import eta_product

Q = MultiPoly.var("q")


def _criterion(capfd, number, name, cap_seconds, body):
    start = time.monotonic()
    problems = body()
    elapsed = time.monotonic() - start
    if elapsed > cap_seconds:
        problems.append(f"runtime {elapsed:.1f}s exceeds {cap_seconds}s cap")
    verdict = "PASS" if not problems else "FAIL"
    with capfd.disabled():
        print(
            f"acceptance criterion {number:2d} ({name}): {verdict} "
            f"[{elapsed:.1f}s/{cap_seconds}s]"
        )
    assert not problems, f"criterion {number} ({name}): " + "; ".join(problems)


def _expect(problems, check_id, bounds, status="verified"):
    result = run_check(check_id, bounds)
    if result.status != status:
        detail = result.witness or result.notes
        problems.append(f"{check_id} {result.status} (wanted {status}): {detail}")
    return result


def test_criterion_01_eulerian_suite(capfd):
    def body():
        problems = []
        _expect(problems, "L1.1", {"max_n": 10})
        _expect(problems, "L1.3", {"max_n": 10})
        bridge = _expect(problems, "L1.2", {"max_ab": 10})
        if "k=0" not in bridge.notes or "k>=1" not in bridge.notes:
            problems.append("L1.2 report does not state the summation convention")
        return problems

    _criterion(capfd, 1, "eulerian suite", 5, body)


def test_criterion_02_q_eulerian_suite(capfd):
    def body():
        problems = []
        _expect(problems, "D1.5", {"max_n": 6})
        _expect(problems, "L1.7", {"max_n": 6})
        verdict = run_check("C1.8", {"max_alpha": 8})
        if verdict.status not in ("verified", "refuted"):
            problems.append(f"C1.8 verdict not reported: {verdict.status}")
        elif verdict.status == "refuted" and not verdict.witness:
            problems.append("C1.8 refuted without witness")
        return problems

    _criterion(capfd, 2, "q-eulerian suite", 60, body)


def test_criterion_03_hook_suite(capfd):
    def body():
        problems = []
        _expect(problems, "C2.1", {"max_n": 16})
        # P_n is real-rooted for n <= 9 and is not at n = 10: an exact root
        # count (sturm_analysis here, sympy in test_sturm.py) finds 8 real
        # roots of degree 10, so the criterion pins the refutation there.
        _expect(problems, "C2.2a", {"max_n": 9})
        roots = _expect(problems, "C2.2a", {"max_n": 10}, status="refuted")
        if not (roots.witness or "").startswith("n=10: exact real-root count 8 of degree 10"):
            problems.append(f"C2.2a witness is not the n=10 root count: {roots.witness}")
        if "every n < 10" not in roots.notes:
            problems.append("C2.2a report does not state that n < 10 holds")
        _expect(problems, "C2.2b", {"max_n": 16})
        _expect(problems, "P2.2", {"max_n": 30})
        if [max_unit_hooks(n) for n in range(1, 6)] != [1, 1, 2, 2, 2]:
            problems.append("b_1..b_5 spot values off")
        limit = _expect(problems, "L2.3", {"max_n": 14})
        if "limit" not in limit.notes:
            problems.append("L2.3 report does not record the upper-limit finding")
        return problems

    _criterion(capfd, 3, "hook suite", 120, body)


def test_criterion_04_descent_product_examples(capfd):
    def body():
        problems = []
        _expect(problems, "L3.1", {"order": 10})
        for cid in ("X3.2", "X3.3", "X3.5"):
            _expect(problems, cid, {"order": 10})
        for cid in ("X3.4", "X3.6", "X3.7", "X3.8"):
            _expect(problems, cid, {"max_n": 14})
        return problems

    _criterion(capfd, 4, "hook product examples", 60, body)


def test_criterion_05_involution_trace_suite(capfd):
    def body():
        problems = []
        _expect(problems, "C4.1", {"max_n": 14, "max_k": 5})
        if involution_trace_moment(3, 1) != 6:
            problems.append("trace moment spot (n=3, k=1) is not 6")
        _expect(problems, "C4.2", {"max_n": 12})
        bell = _expect(problems, "C4.3", {"max_n": 14, "max_k": 5})
        if "polynomial" not in bell.notes:
            problems.append("C4.3 report lacks the Bell polynomial-vs-number note")
        _expect(problems, "R4.1", {"max_n": 12})
        return problems

    _criterion(capfd, 5, "involution trace suite", 30, body)


def test_criterion_06_falling_factorial_moments(capfd):
    def body():
        problems = []
        _expect(problems, "C5.2", {"max_n": 10, "max_r": 4})
        one = Fraction(1)
        if hook_falling_factorial_moment(1, 1) != (one, one):
            problems.append("moment spot (1,1) is not 1=1")
        if hook_falling_factorial_moment(2, 1) != (Fraction(5), Fraction(5)):
            problems.append("moment spot (2,1) is not 5=5")
        return problems

    _criterion(capfd, 6, "falling-factorial moments", 10, body)


def test_criterion_07_content_variant_suite(capfd):
    def body():
        problems = []
        _expect(problems, "P6.1", {"max_n": 16})
        for cid in ("C6.2a", "C6.2b", "C6.2c", "C6.3a", "C6.3b"):
            _expect(problems, cid, {"order": 12})
        _expect(problems, "C6.3c", {"max_n": 14})
        _expect(problems, "P6.4", {"max_k": 6, "max_m": 5})
        # sum over lambda |- 2 of prod_u sp(u)/h_u
        lhs = linear_product_series(
            2, _constant(Partition.symplectic_contents, 1), 1
        ).coefficient(2)
        rhs = eta_product([(4, 2, 1, True)], 2).coefficient(2)
        if lhs != MultiPoly.const(-1) or rhs != MultiPoly.const(-1):
            problems.append("x^2 spot coefficient is not -1 on both sides")
        return problems

    _criterion(capfd, 7, "content variant suite", 180, body)


def test_criterion_08_cycle_index_determinants(capfd):
    def body():
        problems = []
        dets = _expect(problems, "P7.1", {"trials": 50, "max_size": 6})
        if "odd" not in dets.notes or "-det" not in dets.notes:
            problems.append("P7.1 report lacks the sign-relationship finding")
        return problems

    _criterion(capfd, 8, "cycle-index determinants", 5, body)


def test_criterion_09_additive_hook_series(capfd):
    def body():
        problems = []
        _expect(problems, "E8.3", {"order": 12, "max_alpha": 3})
        _expect(problems, "C8.1", {"order": 12, "max_alpha": 3})
        _expect(problems, "P8.2", {"order": 12, "max_n": 14})
        return problems

    _criterion(capfd, 9, "additive hook series", 60, body)


def test_criterion_10_gap_two_suite(capfd):
    def body():
        problems = []
        _expect(problems, "P9.1", {"order": 12})
        if prop91_series(4).coefficient(4) != 2 * Q ** 4:
            problems.append("[x^4] spot of the first q-series is not 2q^4")
        _expect(problems, "P9.2", {"order": 12})
        _expect(problems, "T9.5iii", {"order": 12})
        if thm95_series(2).coefficient(2) != 2 * Q ** 2:
            problems.append("[x^2] spot of the theorem series is not 2q^2")
        _expect(problems, "L9.3", {"max_n": 25})
        _expect(problems, "C9.7", {"max_n": 14})
        return problems

    _criterion(capfd, 10, "gap-two suite", 120, body)


def test_criterion_11_consecutive_core_suite(capfd):
    def body():
        problems = []
        for cid in ("C11.1", "C11.2", "C11.3"):
            _expect(problems, cid, {"max_s": 6})
        counts = [enumerate_sss_cores(s).count for s in range(1, 5)]
        if counts != [1, 2, 4, 9]:
            problems.append(f"core counts f(1..4) = {counts}, wanted [1, 2, 4, 9]")
        if enumerate_sss_cores(3).max_size != 2:
            problems.append("largest (3,4,5)-core spot g(3) is not 2")
        return problems

    _criterion(capfd, 11, "consecutive-core suite", 120, body)


def test_criterion_12_infrastructure(capfd):
    def body():
        problems = []
        serial = run_all()
        if serial.summary["error"] != 0:
            problems.append(f"{serial.summary['error']} checks errored")
        if serial.summary["skipped"] != 0:
            problems.append(f"{serial.summary['skipped']} checks skipped")
        parallel = run_all(parallelism=4)

        def strip(report):
            return [dataclasses.replace(r, elapsed_ms=0.0) for r in report.checks]

        if strip(serial) != strip(parallel):
            problems.append("serial and parallel reports differ")
        if json.loads(render_json(serial)) != serial.to_dict():
            problems.append("JSON report does not round-trip")
        return problems

    _criterion(capfd, 12, "infrastructure", 600, body)
