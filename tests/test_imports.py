"""Every imported name in src/ and tests/ is used where it is imported, and
no function in src/ takes a flag or mode argument.

A flag or mode argument is a parameter of a module-level function or
method that is annotated bool, defaults to a bool, or is compared with a
string literal (==, !=, in, not in): each value it would pick is a named
function, a second return value, or a product the caller writes out.
Functions nested inside another function are not scanned.
"""

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


def _selectors(tree: ast.Module) -> set[str]:
    funcs = [(f.name, f) for f in tree.body if isinstance(f, ast.FunctionDef)]
    for cls in (c for c in tree.body if isinstance(c, ast.ClassDef)):
        funcs += [(f"{cls.name}.{f.name}", f) for f in cls.body
                  if isinstance(f, ast.FunctionDef)]
    found = set()
    for qualname, func in funcs:
        a = func.args
        positional = [*a.posonlyargs, *a.args]
        params = positional + a.kwonlyargs
        defaulted = positional[len(positional) - len(a.defaults):] + a.kwonlyargs
        flags = {p.arg for p in params if p.annotation and ast.unparse(p.annotation) == "bool"}
        flags |= {p.arg for p, d in zip(defaulted, a.defaults + a.kw_defaults)
                  if isinstance(d, ast.Constant) and type(d.value) is bool}
        for node in ast.walk(func):
            if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn))
                and isinstance(e, ast.Constant) and isinstance(e.value, str)
                for op, right in zip(node.ops, node.comparators)
                for e in getattr(right, "elts", [right])
            ):
                flags |= {p.arg for p in params if getattr(node.left, "id", None) == p.arg}
        found |= {f"{qualname}.{name}" for name in flags}
    return found


def test_no_flag_or_mode_arguments_in_src():
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        found += [f"{rel}: {name}" for name in sorted(_selectors(ast.parse(path.read_text())))]
    assert not found, found


def test_scan_sees_a_flag_or_mode_argument():
    tree = ast.parse(
        "def f(order, exact: bool): pass\n"
        "def g(order, fast=False, *, name='t'): return name\n"
        "def h(kind): return 1 if kind in ('a', 'b') else kind == 2\n"
        "class C:\n    def m(self, mode):\n        return mode != 'x'\n"
        "def outer():\n    def side(flag=True): pass\n"
    )
    assert _selectors(tree) == {"f.exact", "g.fast", "h.kind", "C.m.mode"}
