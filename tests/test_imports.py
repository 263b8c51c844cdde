"""Every imported name in src/ and tests/ is used where it is imported."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))

# Imported for a reader outside the module: perfbench's tracer rebinds
# checks.cell_stats, so the name must stay bound there.
KEPT = {("src/hooklab/checks.py", "cell_stats")}


def _unused_imports(tree: ast.Module) -> set[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # Names listed in __all__ are re-exported, which is a use.
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return imported - used


def test_no_unused_imports():
    unused = []
    for path in SOURCES:
        rel = path.relative_to(ROOT).as_posix()
        names = _unused_imports(ast.parse(path.read_text(), filename=rel))
        unused += [f"{rel}: {name}" for name in sorted(names) if (rel, name) not in KEPT]
    assert not unused, unused


def test_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom math import gcd, lcm\n__all__ = ['lcm']\nos.sep\n")
    assert _unused_imports(tree) == {"gcd"}
