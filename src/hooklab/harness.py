"""Check registry and execution engine.

A Check pairs an identity (or family of identities) with default bounds,
bound minimums (1 for every knob it does not list) and a runner.  Runners
are pure: given bounds they either return a verdict or raise, and the engine
turns both into CheckResult records.  Distinct checks are independent;
every memo table they share is idempotent, so checks run on threads at worst
compute a cached value twice.
"""

from __future__ import annotations

import operator
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable, Mapping, Optional, Sequence

from .errors import BudgetExceeded, UnknownCheck

#: Runner protocol: bounds -> (status, witness, notes) with status one of
#: "verified"/"refuted".  Anything raised is converted by the engine
#: (BudgetExceeded -> skipped, everything else -> error).
Runner = Callable[[Mapping[str, int]], tuple[str, Optional[str], str]]

STATUSES = ("verified", "refuted", "error", "skipped")


@dataclass(frozen=True)
class Check:
    id: str
    description: str
    location: str
    default_bounds: dict[str, int]
    runner: Runner
    min_bounds: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class CheckResult:
    id: str
    status: str
    bounds_used: dict[str, int]
    witness: Optional[str]
    notes: str
    elapsed_ms: int

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"bad status {self.status!r}")
        # Contract: a refutation always carries its counterexample and a
        # clean verification never does.
        if self.status == "refuted" and not self.witness:
            raise ValueError(f"{self.id}: refuted without witness")
        if self.status == "verified" and self.witness:
            raise ValueError(f"{self.id}: verified must not carry a witness")

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "status": self.status,
            "bounds": dict(self.bounds_used),
            "elapsed_ms": self.elapsed_ms,
            "witness": self.witness,
            "notes": self.notes,
        }


@dataclass(frozen=True)
class Report:
    version: int
    started_at: str
    checks: tuple[CheckResult, ...]
    summary: dict[str, int]

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "started_at": self.started_at,
            "checks": [r.to_dict() for r in self.checks],
            "summary": dict(self.summary),
        }


def summarize(results: Sequence[CheckResult]) -> dict[str, int]:
    counts = {s: 0 for s in STATUSES}
    for r in results:
        counts[r.status] += 1
    return counts


def make_report(results: Sequence[CheckResult], started_at: str | None = None) -> Report:
    return Report(
        version=1,
        started_at=started_at or datetime.now(timezone.utc).isoformat(),
        checks=tuple(results),
        summary=summarize(results),
    )


def registry() -> list[Check]:
    """All checks, ordered by source section then statement order."""
    from .checks import build_registry

    return build_registry()


def _registry_map() -> dict[str, Check]:
    return {c.id: c for c in registry()}


def _execute(check: Check, bounds: dict[str, int]) -> CheckResult:
    start = time.perf_counter()
    try:
        status, witness, notes = check.runner(bounds)
    except BudgetExceeded as exc:
        status, witness, notes = "skipped", None, f"budget: {exc}"
    except Exception as exc:  # contained: one bad check never sinks the run
        status, witness, notes = "error", None, f"{type(exc).__name__}: {exc}"
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return CheckResult(check.id, status, bounds, witness, notes, elapsed_ms)


def run_check(check_id: str, bounds: Mapping[str, int] | None = None) -> CheckResult:
    """Run one check with optional bound overrides merged over the defaults."""
    table = _registry_map()
    if check_id not in table:
        known = ", ".join(sorted(table))
        raise UnknownCheck(f"no check {check_id!r}; known ids: {known}")
    check = table[check_id]
    merged = dict(check.default_bounds)
    if bounds:
        for k, v in bounds.items():
            if k not in merged:
                raise UnknownCheck(
                    f"{check_id} has no bound {k!r}; knobs: {sorted(merged)}"
                )
            try:
                if isinstance(v, bool):  # operator.index(True) is 1
                    raise TypeError
                merged[k] = operator.index(v)
            except TypeError:
                raise UnknownCheck(
                    f"{check_id} bound {k} wants an integer, got {v!r}"
                ) from None
    for k, v in merged.items():
        low = check.min_bounds.get(k, 1)
        if v < low:
            raise UnknownCheck(f"{check_id} needs {k} >= {low}, got {v}")
    return _execute(check, merged)


def run_all(
    budget_seconds: float | None = None, parallelism: int = 1
) -> Report:
    """Run every registered check; never raises for individual failures.

    Checks that have not started when the budget expires are reported as
    skipped.  Results come back in registry order regardless of scheduling.
    """
    started_at = datetime.now(timezone.utc).isoformat()
    deadline = None if budget_seconds is None else time.monotonic() + budget_seconds
    checks = registry()

    def job(check: Check) -> CheckResult:
        if deadline is not None and time.monotonic() > deadline:
            return CheckResult(
                check.id, "skipped", dict(check.default_bounds), None,
                "budget: global time budget exhausted before start", 0,
            )
        return _execute(check, dict(check.default_bounds))

    if parallelism <= 1:
        results = [job(c) for c in checks]
    else:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            results = list(pool.map(job, checks))
    return make_report(results, started_at)
