"""No library code whose only caller is a test: every module-level function
and class of the package is used by the program itself, that is by another
part of the package (its `__init__` re-exports aside), by `scripts/` or by
the benchmark harness in `perfbench/`."""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "measured_groupoids"


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _names_used(node: ast.AST) -> set[str]:
    """Loaded names, attributes, and strings that are a bare identifier (the
    benchmark harness looks bindings up by name)."""
    used = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            used.add(n.value)
    return used


def uncalled_library_names(package: pathlib.Path, program: list[pathlib.Path]) -> list[str]:
    """`module.name` of each module-level function or class of `package`
    that no other top-level statement of the package and no file of
    `program` uses."""
    outside = set().union(*(_names_used(_parse(p)) for p in program))
    modules = {p.stem: _parse(p) for p in sorted(package.glob("*.py")) if p.name != "__init__.py"}
    # the number of top-level statements of the package that use each name
    in_package = Counter(name for tree in modules.values() for stmt in tree.body for name in _names_used(stmt))
    uncalled = []
    for module, tree in modules.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name not in outside:
                if in_package[stmt.name] == (stmt.name in _names_used(stmt)):
                    uncalled.append(f"{module}.{stmt.name}")
    return uncalled


def test_every_library_function_and_class_has_a_caller_outside_the_tests():
    program = sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    assert program
    assert uncalled_library_names(PACKAGE, program) == []
