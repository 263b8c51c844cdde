"""Registry shape, runner plumbing, budgets, parallel determinism."""

import dataclasses

import pytest

from hooklab.errors import UnknownCheck
from hooklab.harness import (
    Check,
    CheckResult,
    make_report,
    registry,
    run_all,
    run_check,
)

ALL_IDS = [
    "L1.1", "L1.2", "L1.3", "D1.5", "L1.7", "C1.8",
    "C2.1", "C2.2a", "C2.2b", "P2.2", "L2.3",
    "L3.1", "X3.2", "X3.3", "X3.4", "X3.5", "X3.6", "X3.7", "X3.8",
    "C4.1", "C4.2", "C4.3", "R4.1",
    "C5.2",
    "P6.1", "C6.2a", "C6.2b", "C6.2c", "C6.3a", "C6.3b", "C6.3c", "P6.4",
    "P7.1",
    "E8.3", "C8.1", "P8.2",
    "T9.0", "P9.1", "P9.2", "L9.3", "T9.5i", "T9.5ii", "T9.5iii", "C9.7",
    "C11.1", "C11.2", "C11.3",
]

KNOWN_REFUTED = {"C1.8", "C2.2a"}


def test_registry_is_frozen_list():
    checks = registry()
    assert [c.id for c in checks] == ALL_IDS
    assert len(ALL_IDS) == 47
    assert len(set(ALL_IDS)) == 47


def test_registry_entries_are_described():
    for c in registry():
        assert isinstance(c, Check)
        assert c.description.strip()
        assert c.location.strip()
        assert all(isinstance(v, int) for v in c.default_bounds.values())


def test_run_check_unknown_id():
    with pytest.raises(UnknownCheck):
        run_check("NOPE")


def test_run_check_unknown_bound():
    with pytest.raises(UnknownCheck):
        run_check("L1.1", {"frobnication": 3})


@pytest.mark.parametrize("value", [2.7, "3", None])
def test_run_check_rejects_non_integer_bounds(value):
    # A float used to be truncated (2.7 ran as 2) and a string parsed.
    with pytest.raises(UnknownCheck, match="max_n wants an integer"):
        run_check("X3.4", {"max_n": value})
    assert run_check("X3.4", {"max_n": 3}).bounds_used == {"max_n": 3}


@pytest.mark.parametrize("value", [True, False])
def test_run_check_rejects_bool_bounds(value):
    # operator.index(True) is 1, so True used to run as max_n=1 and verify.
    with pytest.raises(UnknownCheck, match="max_n wants an integer"):
        run_check("X3.4", {"max_n": value})


def test_bound_minimums_are_met_by_defaults():
    for c in registry():
        assert set(c.min_bounds) <= set(c.default_bounds)
        for k, v in c.default_bounds.items():
            assert v >= c.min_bounds.get(k, 1)


# Knobs whose floor is above 1: at 1 they check an empty range or crash.
RAISED_FLOORS = {
    ("L1.2", "max_ab"): 2,
    ("C1.8", "max_alpha"): 2,
    ("C6.2c", "order"): 2,
    ("T9.5iii", "order"): 2,
    ("P9.1", "order"): 4,
}

KNOBS = [(c.id, k) for c in registry() for k in c.default_bounds]


@pytest.mark.parametrize("cid,knob", KNOBS)
def test_every_knob_is_rejected_below_its_floor(cid, knob):
    low = RAISED_FLOORS.get((cid, knob), 1)
    with pytest.raises(UnknownCheck, match=f"needs {knob} >= {low}"):
        run_check(cid, {knob: low - 1})


@pytest.mark.parametrize("cid,knob", KNOBS)
def test_every_knob_gives_a_verdict_at_its_floor(cid, knob):
    result = run_check(cid, {knob: RAISED_FLOORS.get((cid, knob), 1)})
    assert result.status in ("verified", "refuted"), result.notes


@pytest.mark.parametrize("cid", ["C11.1", "C11.2", "C11.3"])
def test_core_checks_reject_empty_range(cid):
    for max_s in (0, -3):
        with pytest.raises(UnknownCheck, match="max_s >= 1"):
            run_check(cid, {"max_s": max_s})
    assert run_check(cid, {"max_s": 1}).status == "verified"


@pytest.mark.parametrize("cid", ["C11.1", "C11.2", "C11.3"])
def test_core_checks_verified_past_the_old_subset_budget(cid):
    result = run_check(cid, {"max_s": 10})
    assert result.status == "verified", result.notes


def test_bound_override_merging():
    base = run_check("C2.1", {"max_n": 6})
    assert base.status == "verified"
    assert base.bounds_used["max_n"] == 6
    # untouched knobs keep their defaults
    check = next(c for c in registry() if c.id == "C2.1")
    for k, v in check.default_bounds.items():
        if k != "max_n":
            assert base.bounds_used[k] == v


def test_override_changes_verdict():
    # the real-rootedness conjecture holds up to 9 and fails at 10
    assert run_check("C2.2a", {"max_n": 9}).status == "verified"
    bad = run_check("C2.2a", {"max_n": 10})
    assert bad.status == "refuted"
    assert "n=10" in bad.witness


def test_run_check_is_deterministic():
    a = run_check("P9.1")
    b = run_check("P9.1")
    assert (a.status, a.witness, a.notes, a.bounds_used) == (
        b.status,
        b.witness,
        b.notes,
        b.bounds_used,
    )


def test_checkresult_invariants():
    with pytest.raises(ValueError):
        CheckResult("X", "bogus-status", {}, None, "", 1.0)
    with pytest.raises(ValueError):
        CheckResult("X", "refuted", {}, None, "", 1.0)  # refuted needs witness
    with pytest.raises(ValueError):
        CheckResult("X", "verified", {}, "stray", "", 1.0)


def test_make_report_summary():
    results = [run_check("L1.1"), run_check("C1.8")]
    rep = make_report(results)
    assert rep.version == 1
    assert rep.summary == {"verified": 1, "refuted": 1, "error": 0, "skipped": 0}
    d = rep.to_dict()
    assert d["version"] == 1
    assert [c["id"] for c in d["checks"]] == ["L1.1", "C1.8"]
    assert d["checks"][1]["witness"]


def test_zero_budget_skips_everything():
    rep = run_all(budget_seconds=0.0)
    assert all(r.status == "skipped" for r in rep.checks)
    assert all(r.notes.startswith("budget:") for r in rep.checks)
    assert rep.summary["skipped"] == 47


def _strip_timing(rep):
    return [
        dataclasses.replace(r, elapsed_ms=0.0)
        for r in rep.checks
    ]


def test_full_run_statuses():
    serial = run_all()
    assert rep_ids(serial) == ALL_IDS
    assert serial.summary["error"] == 0
    assert serial.summary["skipped"] == 0
    refuted = {r.id for r in serial.checks if r.status == "refuted"}
    assert refuted == KNOWN_REFUTED

    parallel = run_all(parallelism=4)
    assert _strip_timing(serial) == _strip_timing(parallel)


def rep_ids(rep):
    return [r.id for r in rep.checks]
