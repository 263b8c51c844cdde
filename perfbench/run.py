"""hooklab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from ``src/``
as it stands, no install step.  Every repetition is a fresh Python process
(``perfbench/rep.py``), because the ``lru_cache`` tables in ``partitions``
and ``permstats`` persist within a process and a CLI user always starts
cold.  Load is one closed-loop client: the next repetition starts when the
previous one has ended, as long as it is expected to end within
``--seconds``.

With ``--trace 0`` the run reports the end-to-end metrics, each the median
over the run's repetitions.  With ``--trace 1`` it runs the workload untraced
for ``--seconds``, then once under ``tracer.Tracer``, and reports the
per-layer metrics.
Every repetition's verdicts are compared with ``expected.json``.  The last
stdout line is the JSON result; the lines before it give each metric with
its sample count and tail, and the run metadata.

The inputs are fixed check ids and bounds, and every check is deterministic,
so ``--seed`` is recorded but selects nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"

SUITE = ["run", "--all", "--format", "json"]
WORKLOADS = {
    "suite": {"spec": {"cli": SUITE}, "jobs": 1, "expect": "suite"},
    "suite-jobs2": {"spec": {"cli": SUITE + ["--jobs", "2"]}, "jobs": 2, "expect": "suite"},
    "hook-deep": {"spec": {"checks": [["X3.6", {"max_n": 12}], ["C2.1", {"max_n": 18}],
                                      ["C2.2b", {"max_n": 18}]]},
                  "jobs": 1, "expect": "hook-deep"},
    "cores": {"spec": {"checks": [["C11.1", {"max_s": 7}], ["C11.2", {"max_s": 7}],
                                  ["C11.3", {"max_s": 7}]]},
              "jobs": 1, "expect": "cores"},
}

#: Checks whose harness-measured time the traced run reports, in every workload.
CHECK_MS_IDS = ("C2.1", "X3.6", "C2.2b", "P2.2", "C8.1", "C11.1", "C11.2", "C11.3")
#: Extra processes per run that only set up, so setup_s has enough samples.
SETUP_SPAWNS = 10
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    pass


def spawn(mode: str, spec: dict) -> tuple[dict, float, float]:
    """Run one repetition; return its record, spawn time and peak RSS in MB."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), mode, json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE,
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        # wait4 gives the rusage of this child alone, not of this process.
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"{mode} repetition exited with {proc.returncode}")
    return json.loads(out.splitlines()[-1]), t_spawn, usage.ru_maxrss / 1024


def verdicts(record: dict) -> dict:
    """The part of a repetition's output that must match expected.json exactly."""
    checks = [{k: v for k, v in c.items() if k != "elapsed_ms"} for c in record["checks"]]
    return {"exit_code": record["exit_code"], "version": record["version"],
            "summary": record["summary"], "checks": checks}


def count_failures(record: dict, expected: dict) -> tuple[int, int]:
    """(attempted, failed) checks of one repetition against the expected verdicts."""
    got = verdicts(record)
    attempted = len(expected["checks"])
    if any(got[k] != expected[k] for k in ("exit_code", "version", "summary")):
        return attempted, attempted
    by_id = {c["id"]: c for c in got["checks"]}
    return attempted, sum(by_id.get(c["id"]) != c for c in expected["checks"])


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"no tail (n={n} < 11)"
    rank = n - 10
    return f"p{100 * rank / n:.0f}={sorted(values)[rank - 1]!r} (n={n})"


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def wall(record: dict) -> float:
    return record["t_end"] - record["t_first"]


def repeat(spec: dict, seconds: float) -> list[tuple[dict, float, float]]:
    """Untraced repetitions, one after another, while the next one is expected
    to end within `seconds` (judged by the last one's length); at least one."""
    runs = []
    start = time.monotonic()
    last = 0.0
    while not runs or time.monotonic() - start + last <= seconds:
        begun = time.monotonic()
        runs.append(spawn("full", spec))
        last = time.monotonic() - begun
    return runs


def measure(spec: dict, seconds: float) -> tuple[dict, list[dict]]:
    """End-to-end samples, and the records of the repetitions."""
    spawn("setup", spec)  # compiles the bytecode caches; not measured
    setups = []
    for _ in range(SETUP_SPAWNS):
        record, t_spawn, _ = spawn("setup", spec)
        setups.append(record["t_first"] - t_spawn)
    runs = repeat(spec, seconds)
    records = [record for record, _, _ in runs]
    setups += [record["t_first"] - t_spawn for record, t_spawn, _ in runs]
    samples = {"wall_s": ([wall(r) for r in records], "s"), "setup_s": (setups, "s"),
               "peak_rss_mb": ([peak for _, _, peak in runs], "MB")}
    return samples, records


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("harness.check_ms."):
        return "ms"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bits"):
        return "bits"
    return "count"


def trace(spec: dict, jobs: int, seconds: float) -> tuple[dict, list[dict]]:
    """Per-layer metrics from one traced repetition, after untraced ones for `seconds`."""
    plain = [record for record, _, _ in repeat(spec, seconds)]
    traced, _, _ = spawn("traced", spec)
    traced_wall = wall(traced)
    elapsed = {c["id"]: c["elapsed_ms"] for c in traced["checks"]}
    busy = sum(elapsed.values()) / 1000
    metrics = dict(traced["layers"])
    for cid in CHECK_MS_IDS:
        metrics[f"harness.check_ms.{cid}"] = elapsed.get(cid, 0)
    metrics["harness.overhead_s"] = traced_wall - busy
    metrics["harness.busy_ratio"] = busy / (traced_wall * jobs)
    metrics["trace.overhead_ratio"] = traced_wall / statistics.median(wall(r) for r in plain)
    return {name: ([value], layer_unit(name)) for name, value in metrics.items()}, plain + [traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hooklab" / "__init__.py").is_file():
        print(f"error: no hooklab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]
    expected = json.loads(EXPECTED.read_text())[workload["expect"]]
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(), "src_sha256": src_digest(),
        "loadavg_start": os.getloadavg(),
    }
    try:
        if args.trace:
            samples, records = trace(workload["spec"], workload["jobs"], args.seconds)
        else:
            samples, records = measure(workload["spec"], args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    meta["loadavg_end"] = os.getloadavg()

    metrics = {}
    for name, (values, unit) in samples.items():
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        detail = "" if args.trace else f"  median of {len(values)}; {tail(values)}"
        print(f"{name} {value!r} {unit}{detail}")
    attempted, failed = map(sum, zip(*(count_failures(r, expected) for r in records)))
    print(f"failed_ratio {failed / attempted!r} ({failed} of {attempted} checks)")
    print("meta " + json.dumps(meta))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
