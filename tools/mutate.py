"""Run the committed mutant catalogue: every mutant must make its tests fail.

Each entry of tools/mutants.json names a file, a snippet that occurs
exactly once in it, the snippet's replacement and the pytest ids that must
fail once the replacement is made.  The runner first runs every listed test
on an unmutated copy of the tree (they must pass), then, one mutant at a
time, copies the tree to a temporary directory, applies the mutant and runs
only its tests under a per-mutant timeout of TIMEOUT seconds.  Each
mutant is reported as

    killed     the listed tests did not pass
    survived   every listed test passed
    timed out  the tests ran past the timeout
    stale      the snippet is not in the file exactly once: re-anchor the
               entry on the new code

Since the listed tests pass unmutated, any other outcome of a mutated run,
a collection error included, counts as killed.  If the unmutated run
fails, or cannot collect a listed test, nothing else runs.  The exit
status is 0 only when every mutant is killed.  Standard library only; run
from any directory:

    python tools/mutate.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CATALOGUE = ROOT / "tools" / "mutants.json"
COPIED = ("src", "tests", "pyproject.toml", "README.md")
TIMEOUT = 300  # seconds per mutant; the unmutated run gets twice this


def copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=skip)
        else:
            shutil.copy2(src, dest / name)


def run_tests(tree: Path, tests: list[str], timeout: float) -> int | None:
    """pytest's exit status for the tests in the tree, or None on timeout."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(
            cmd, cwd=tree, env=env, timeout=timeout,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        return None
    return done.returncode


def apply(tree: Path, mutant: dict) -> str | None:
    """Apply the mutant in the tree; the reason it is stale, or None."""
    path = tree / mutant["file"]
    text = path.read_text()
    count = text.count(mutant["find"])
    if count != 1:
        return f"snippet found {count} times in {mutant['file']}"
    path.write_text(text.replace(mutant["find"], mutant["replace"]))
    return None


def verdict(mutant: dict) -> tuple[str, str]:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        stale = apply(tree, mutant)
        if stale:
            return "stale", stale
        status = run_tests(tree, mutant["tests"], TIMEOUT)
    if status is None:
        return "timed out", f"past {TIMEOUT} s"
    if status == 0:
        return "survived", "every listed test passed"
    return "killed", f"pytest exit status {status}" if status != 1 else ""


def main() -> int:
    catalogue = json.loads(CATALOGUE.read_text())
    if len({m["id"] for m in catalogue}) != len(catalogue):
        print("duplicate ids in the catalogue")
        return 1

    start = time.monotonic()
    tests = sorted({t for m in catalogue for t in m["tests"]})
    with tempfile.TemporaryDirectory(prefix="mutant-baseline-") as tmp:
        copy_tree(Path(tmp))
        status = run_tests(Path(tmp), tests, TIMEOUT * 2)
    if status != 0:
        print(
            f"the listed tests do not pass unmutated (pytest exit status {status});"
            " a status of 4 or 5 means a listed test id no longer exists"
        )
        return 1
    print(f"{len(tests)} listed tests pass unmutated in {time.monotonic() - start:.0f} s")

    counts: dict[str, int] = {}
    for mutant in catalogue:
        t0 = time.monotonic()
        outcome, why = verdict(mutant)
        counts[outcome] = counts.get(outcome, 0) + 1
        line = f"{outcome:<10} {mutant['id']:<40} {time.monotonic() - t0:6.1f} s"
        print(f"{line}  {why}" if why else line, flush=True)
    summary = ", ".join(f"{n} {outcome}" for outcome, n in sorted(counts.items()))
    print(f"{len(catalogue)} mutants: {summary} in {time.monotonic() - start:.0f} s")
    return 0 if counts.get("killed", 0) == len(catalogue) else 1


if __name__ == "__main__":
    sys.exit(main())
