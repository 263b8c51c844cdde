"""Record the expected verdicts that every benchmark repetition is checked against.

    python3 perfbench/record_expected.py

Runs each workload once and writes ``perfbench/expected.json``: exit code,
report version, summary and every check's id, status, bounds, witness and
notes (everything but the timings).  ``suite-jobs2`` shares the ``suite``
entry.  Re-record only when a change to hooklab is meant to alter a verdict,
witness or note, and review the diff.
"""

from __future__ import annotations

import json

from run import EXPECTED, WORKLOADS, spawn, verdicts


def main() -> None:
    expected = {}
    for workload in WORKLOADS.values():
        key = workload["expect"]
        if key not in expected:
            record, _, _ = spawn("full", workload["spec"])
            expected[key] = verdicts(record)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
