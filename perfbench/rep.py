"""One repetition of a benchmark workload, in a fresh Python process.

    python3 perfbench/rep.py MODE SPEC

MODE is ``full`` (run the workload), ``setup`` (stop when the first check
starts) or ``traced`` (run it under the per-layer tracer).  SPEC is JSON:
``{"cli": [...argv...]}`` runs ``hooklab`` in-process with that argv, and
``{"checks": [[id, bounds], ...]}`` calls ``hooklab.run_check`` for each
pair in order.  The last stdout line is a JSON record with the start time
of the first check, the end time (both ``time.monotonic()``, which is
system-wide on Linux, so the parent can subtract its spawn time), the
results and, when traced, the layer metrics.

The start of the first check is found by wrapping the runner of every
``Check`` that ``hooklab.registry()`` returns, so the stamp falls exactly
where a check begins, serial or threaded.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import time

from tracer import Rebinder, Tracer, layer_metrics


class SetupDone(BaseException):
    """Raised by the first check in ``setup`` mode; hooklab catches only Exception."""


def stamp_first_check(registry, stamps: list, stop: bool):
    def stamped(runner):
        def run(bounds):
            stamps.append(time.monotonic())
            if stop:
                raise SetupDone
            return runner(bounds)
        return run

    def stamped_registry():
        return [dataclasses.replace(c, runner=stamped(c.runner)) for c in registry()]

    return stamped_registry


def run_workload(spec: dict) -> dict:
    """Run the workload once; return its exit code (CLI only) and results."""
    if "cli" in spec:
        from hooklab import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(spec["cli"])
        report = json.loads(out.getvalue())
        return {"exit_code": code, "version": report["version"],
                "summary": report["summary"], "checks": report["checks"]}
    import hooklab

    hooklab.registry()
    results = [hooklab.run_check(cid, bounds).to_dict() for cid, bounds in spec["checks"]]
    return {"exit_code": None, "version": None, "summary": None, "checks": results}


def main(mode: str, spec: dict) -> dict:
    from hooklab import harness

    stamps: list[float] = []
    record: dict = {"mode": mode}
    with Rebinder() as rebinder:
        rebinder.rebind(harness.registry, stamp_first_check(harness.registry, stamps, mode == "setup"))
        if mode == "traced":
            with Tracer() as tracer:
                record.update(run_workload(spec))
                t_end = time.monotonic()
            record["layers"] = layer_metrics(tracer)
        elif mode == "setup":
            try:
                run_workload(spec)
            except SetupDone:
                pass
            else:
                raise RuntimeError("setup mode: no check started")
            t_end = time.monotonic()
        else:
            record.update(run_workload(spec))
            t_end = time.monotonic()
    if not stamps:
        raise RuntimeError("no check started")
    record["t_first"] = min(stamps)
    record["t_end"] = t_end
    return record


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], json.loads(sys.argv[2]))))
