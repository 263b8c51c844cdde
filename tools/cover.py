"""List the statements in src/ that the tier-1 tests never run.

Runs pytest in this process under sys.settrace, recording every line run in
a file under src/, then reads each module's statements with ast and prints
a count per module followed by every statement that never ran.  A simple
statement counts as run when any of its lines ran; a compound one (if,
for, while, with, def, class) when its header did.  A docstring, `pass`,
`global`, `nonlocal` and a `try:` line run no code of their own and are
not counted.  Code that runs only in a forked worker process is not seen.
Standard library only, plus pytest; run from any directory:

    python tools/cover.py [pytest arguments, default: tests]

The exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
UNCOUNTED = (ast.Pass, ast.Global, ast.Nonlocal, ast.Try) + (
    (ast.TryStar,) if hasattr(ast, "TryStar") else ()
)
COMPOUND = (
    ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith,
    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
)


def statements(path: Path) -> dict[int, range]:
    """First line of each counted statement -> the lines whose run counts."""
    found = {}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.stmt) or isinstance(node, UNCOUNTED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(
            node.value.value, str
        ):
            continue  # a docstring, or a bare string that runs nothing
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", []))])
        last = node.body[0].lineno - 1 if isinstance(node, COMPOUND) else node.end_lineno
        found[node.lineno] = range(first, max(last, node.lineno) + 1)
    return found


def main() -> int:
    import pytest

    prefix = str(SRC) + os.sep
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(sys.argv[1:] or ["tests"])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed, rows = [], []
    for path in sorted(SRC.rglob("*.py")):
        stmts = statements(path)
        lines = ran.get(str(path), set())
        never = [n for n, span in sorted(stmts.items()) if not lines.intersection(span)]
        rows.append((str(path.relative_to(SRC)), len(never), len(stmts)))
        source = path.read_text().splitlines()
        missed += [f"{path.relative_to(ROOT)}:{n}: {source[n - 1].strip()}" for n in never]
    print(f"\nstatements never run, per module (pytest exit status {status}):")
    for name, never, total in rows:
        print(f"  {name:<24} {never:>4} of {total}")
    print(f"  {'total':<24} {sum(r[1] for r in rows):>4} of {sum(r[2] for r in rows)}\n")
    print("\n".join(missed))
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
