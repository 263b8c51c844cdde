"""Registry shape, runner plumbing, budgets, parallel determinism."""

import dataclasses
import os
import select
import signal
import time
from types import SimpleNamespace

import pytest

from hooklab import harness, partitions
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


def test_core_checks_share_one_walk_per_s(monkeypatch):
    walked = []
    walk = partitions._beta_walk

    def counted(s, budget):
        walked.append(s)
        return walk(s, budget)

    monkeypatch.setattr(partitions, "_core_families", {})
    monkeypatch.setattr(partitions, "_beta_walk", counted)
    for cid in ("C11.1", "C11.2", "C11.3"):
        assert run_check(cid, {"max_s": 7}).status == "verified"
    assert walked == [1, 2, 3, 4, 5, 6, 7]


def test_bound_override_merging():
    base = run_check("C2.1", {"max_n": 6})
    assert base.status == "verified"
    assert base.bounds_used["max_n"] == 6
    # untouched knobs keep their defaults
    check = next(c for c in registry() if c.id == "C2.1")
    for k, v in check.default_bounds.items():
        if k != "max_n":
            assert base.bounds_used[k] == v


def test_finding_notes_state_the_values_compared():
    p22 = run_check("P2.2", {"max_n": 30})
    assert "(first mismatch at n=2: coefficient 2 vs maximum 1)" in p22.notes
    # below n = 2 the two forms agree, and the note says so
    assert run_check("P2.2", {"max_n": 1}).notes == (
        "both forms match the maxima for every n <= 1"
    )
    # L1.2 verifies both summation-convention claims of its note
    l12 = run_check("L1.2", {"max_ab": 10})
    assert l12.status == "verified"
    assert "(first failure a=2, b=0: 3 vs 4)" in l12.notes


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


def test_a_budget_raised_inside_a_check_skips_it():
    # P6.4's Schur flatten raises BudgetExceeded past its checked range;
    # _execute reports that as skipped, not as an error.
    r = run_check("P6.4", {"max_m": 6})
    assert (r.status, r.witness) == ("skipped", None)
    assert r.notes == "budget: (k=1, m=6) beyond the checked range k<=6, m<=5"


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


# -- the forked worker pool, on small synthetic registries


def _hung(signum, frame):
    raise TimeoutError("run_all hung")


@pytest.fixture
def pool(monkeypatch, tmp_path):
    """Synthetic registries, the pids that os.fork returned, and run_all
    guarded against a hang and against a worker that returns into the test
    instead of exiting; every run must leave no child behind."""
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)

    def register(runners):
        checks = [
            Check(f"S{i}", f"synthetic check {i}", "tests", {"n": i + 1}, runner)
            for i, runner in enumerate(runners)
        ]
        monkeypatch.setattr(harness, "registry", lambda: checks)

    def run(**kwargs):
        caller = os.getpid()
        escaped = tmp_path / "escaped"
        previous = signal.signal(signal.SIGALRM, _hung)
        signal.alarm(30)
        try:
            return run_all(**kwargs)
        finally:
            if os.getpid() != caller:  # a worker must leave through os._exit
                escaped.touch()
                os._exit(0)
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            assert not escaped.exists(), "a worker process returned into the caller"
            with pytest.raises(ChildProcessError):  # every child was reaped
                os.waitpid(-1, os.WNOHANG)

    return SimpleNamespace(forks=forks, register=register, run=run)


@pytest.fixture
def baton():
    """A pipe by which a check in one process tells a check in another that it started."""
    read, write = os.pipe()
    yield read, write
    os.close(read)
    os.close(write)


def _await(fd):
    select.select([fd], [], [], 10)  # the bound only matters if the pool is broken


def _mixed(i):
    def runner(bounds):
        if i == 3:
            raise ValueError("synthetic failure")
        total = sum(range(bounds["n"] * 20_000))
        if i == 5:
            return "refuted", f"total={total}", "synthetic refutation"
        return "verified", None, f"total={total}"

    return runner


def _square(i):
    return lambda bounds: ("verified", None, f"{i}^2 = {i * i}")


@pytest.mark.parametrize("parallelism", [2, 3, 20])
def test_pool_report_equals_serial_in_registry_order(pool, parallelism):
    pool.register([_mixed(i) for i in range(12)])
    serial = pool.run(parallelism=1)
    assert pool.forks == []
    pooled = pool.run(parallelism=parallelism)
    assert len(pool.forks) == min(parallelism, 12) - 1
    assert rep_ids(pooled) == [f"S{i}" for i in range(12)]
    assert _strip_timing(pooled) == _strip_timing(serial)
    assert serial.summary == {"verified": 10, "refuted": 1, "error": 1, "skipped": 0}


def test_pool_runs_serially_without_fork(pool, monkeypatch):
    pool.register([_square(i) for i in range(4)])
    monkeypatch.delattr(os, "fork")
    assert pool.run(parallelism=4).summary["verified"] == 4


def test_pool_runs_the_first_check_in_the_caller(pool, baton):
    read, write = baton

    def first(bounds):
        _await(read)  # check 1 has started, so a worker took it
        return "verified", None, f"pid {os.getpid()}"

    def second(bounds):
        os.write(write, b"x")
        return "verified", None, f"pid {os.getpid()}"

    pool.register([first, second] + [_square(i) for i in range(2, 6)])
    report = pool.run(parallelism=3)
    assert report.checks[0].notes == f"pid {os.getpid()}"
    assert report.checks[1].notes in {f"pid {pid}" for pid in pool.forks}


def _interrupt():
    raise KeyboardInterrupt


@pytest.mark.parametrize(
    "die,status", [(lambda: os._exit(7), 7), (_interrupt, 1)], ids=["exit", "interrupt"]
)
def test_a_dead_worker_loses_only_its_check(pool, baton, die, status):
    caller = os.getpid()
    read, write = baton

    def first(bounds):
        _await(read)  # the worker has taken check 1
        return "verified", None, "first"

    def dies(bounds):
        if os.getpid() != caller:
            os.write(write, b"x")
            die()
        return "verified", None, "ran in the caller"

    pool.register([first, dies] + [_square(i) for i in range(2, 6)])
    report = pool.run(parallelism=2)
    lost = report.checks[1]
    assert lost.status == "error"
    assert f"exit status {status})" in lost.notes
    assert [r.notes for r in report.checks if r is not lost] == ["first"] + [
        f"{i}^2 = {i * i}" for i in range(2, 6)
    ]


@pytest.mark.parametrize("exc", [SystemExit(3), KeyboardInterrupt()], ids=repr)
def test_a_base_exception_ends_a_serial_run(pool, exc):
    """Serially, a BaseException that is not an Exception leaves run_all and
    no later check runs; a forked worker contains it instead (see
    test_a_dead_worker_loses_only_its_check[interrupt])."""
    ran = []

    def raises(bounds):
        raise exc

    def later(bounds):
        ran.append(bounds)
        return "verified", None, "ran"

    pool.register([_square(0), raises, later])
    with pytest.raises(type(exc)) as info:
        pool.run(parallelism=1)
    assert info.value is exc
    assert ran == [] and pool.forks == []


def test_interrupt_in_the_caller_kills_every_worker(pool, baton):
    read, write = baton

    def first(bounds):
        _await(read)  # a worker is busy
        raise KeyboardInterrupt

    def busy(bounds):
        os.write(write, b"x")
        time.sleep(0.5)
        return "verified", None, "slept"

    pool.register([first] + [busy] * 5)
    with pytest.raises(KeyboardInterrupt):
        pool.run(parallelism=3)
    assert len(pool.forks) == 2


def test_zero_budget_skips_everything_in_the_pool(pool):
    serial = run_all(budget_seconds=0.0)
    pooled = pool.run(budget_seconds=0.0, parallelism=2)
    assert pooled.summary["skipped"] == 47
    assert _strip_timing(pooled) == _strip_timing(serial)


def test_worker_results_past_a_pipe_buffer_do_not_deadlock(pool):
    def first(bounds):
        time.sleep(0.2)  # meanwhile the worker fills its result pipe
        return "verified", None, "first"

    def bulky(i):
        return lambda bounds: ("verified", None, str(i) * 20_000)

    pool.register([first] + [bulky(i) for i in range(1, 9)])
    report = pool.run(parallelism=2)
    assert [r.notes for r in report.checks[1:]] == [str(i) * 20_000 for i in range(1, 9)]
