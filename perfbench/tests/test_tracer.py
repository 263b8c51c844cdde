"""Self-tests of the benchmark's tracer and verdict check, at small bounds.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from run import count_failures, spawn, verdicts  # noqa: E402
from tracer import Tracer  # noqa: E402

SMALL = {"checks": [["X3.6", {"max_n": 6}], ["C11.1", {"max_s": 5}]]}
SMALL_CLI = {"cli": ["run", "--id", "C2.2b", "--bound", "max_n=8", "--format", "json"]}
COUNTS = (".calls", ".candidates", ".found", ".cells", ".distinct_n", ".max_coeff_bits")


def _counts(record: dict) -> dict:
    return {k: v for k, v in record["layers"].items() if k.endswith(COUNTS)}


def test_call_counts_repeat_exactly():
    for spec in (SMALL, SMALL_CLI):
        first, _, _ = spawn("traced", spec)
        second, _, _ = spawn("traced", spec)
        assert _counts(first) == _counts(second)
    counts = _counts(first)
    assert counts["identities.hook_square_polynomial.calls"] > 0
    assert counts["harness.registry.calls"] == 1
    layers = spawn("traced", SMALL)[0]["layers"]
    assert layers["partitions.sss_cores.calls"] == 5
    assert layers["partitions.sss_cores.candidates"] == sum(2 ** (s * (s - 1) // 2) for s in range(1, 6))
    assert layers["partitions.sss_cores.found"] == 1 + 2 + 4 + 9 + 21
    assert layers["multipoly.mul.calls"] > 0
    assert layers["multipoly.mul.self_s"] > 0


def test_verdicts_identical_with_and_without_tracing():
    for spec in (SMALL, SMALL_CLI):
        plain, _, _ = spawn("full", spec)
        traced, _, _ = spawn("traced", spec)
        assert verdicts(plain) == verdicts(traced)
        assert all(c["status"] == "verified" for c in plain["checks"])


def test_setup_mode_stops_at_first_check():
    record, t_spawn, _ = spawn("setup", SMALL)
    assert "checks" not in record
    assert t_spawn < record["t_first"] <= record["t_end"]


def test_count_failures_flags_any_changed_verdict():
    record, _, _ = spawn("full", SMALL)
    expected = verdicts(record)
    assert count_failures(record, expected) == (2, 0)
    record["checks"][1]["notes"] += "!"
    assert count_failures(record, expected) == (2, 1)
    record["summary"] = {"verified": 0}
    assert count_failures(record, expected) == (2, 2)


def test_wrapped_attributes_are_restored():
    from hooklab import checks, cli, harness, identities, multipoly, permstats, series, symfunc
    import hooklab
    from hooklab.multipoly import MultiPoly, RatFunc
    from hooklab.series import TruncatedSeries

    def places():
        return {
            "MultiPoly.__mul__": vars(MultiPoly)["__mul__"],
            "MultiPoly.__rmul__": vars(MultiPoly)["__rmul__"],
            "MultiPoly.__add__": vars(MultiPoly)["__add__"],
            "RatFunc.__init__": vars(RatFunc)["__init__"],
            "RatFunc.__mul__": vars(RatFunc)["__mul__"],
            "TruncatedSeries.__mul__": vars(TruncatedSeries)["__mul__"],
            "multipoly.poly_gcd": multipoly.poly_gcd,
            "multipoly.exact_div": multipoly.exact_div,
            "permstats.exact_div": permstats.exact_div,
            "checks.enumerate_sss_cores": checks.enumerate_sss_cores,
            "checks.partition_list": checks.partition_list,
            "identities.partition_list": identities.partition_list,
            "symfunc.partition_list": symfunc.partition_list,
            "checks.cell_stats": checks.cell_stats,
            "checks.hook_square_polynomial": checks.hook_square_polynomial,
            "checks.gaussian_binomial": checks.gaussian_binomial,
            "series.gaussian_binomial": series.gaussian_binomial,
            "checks.sturm_analysis": checks.sturm_analysis,
            "harness.registry": harness.registry,
            "hooklab.registry": hooklab.registry,
            "cli._RENDERERS[json]": cli._RENDERERS["json"],
        }

    before = places()
    with Tracer() as tracer:
        during = places()
        assert hooklab.run_check("C11.1", {"max_s": 3}).status == "verified"
    after = places()
    assert all(during[k] is not before[k] for k in before)
    assert all(after[k] is before[k] for k in before)
    assert tracer.stats()["partitions.sss_cores"].calls == 3
