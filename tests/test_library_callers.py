"""No library code whose only caller is a test: every module-level function
and class of the package, and every public method and property of its
classes, is used by the program itself, that is by another part of the
package (its `__init__` re-exports aside), by `scripts/` or by the
benchmark harness in `perfbench/`."""

import ast
import pathlib
import shutil

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


def _parts(module: str, tree: ast.Module) -> list[tuple[set[str], set[str]]]:
    """The parts of a module that count as callers, each with the
    definitions it belongs to and the names it uses. A part is a top-level
    statement, except that a class is split into its header and its
    statements, so that the methods of one class are callers of each other.
    Definitions are module-level functions and classes and the public
    methods and properties of the classes, named `module.name` and
    `module.Class.name`."""
    parts = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            header = (*stmt.decorator_list, *stmt.bases, *stmt.keywords)
            parts.append(({f"{module}.{stmt.name}"}, set().union(*map(_names_used, header))))
            for member in stmt.body:
                owners = {f"{module}.{stmt.name}"}
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    owners.add(f"{module}.{stmt.name}.{member.name}")
                parts.append((owners, _names_used(member)))
        else:
            owners = {f"{module}.{stmt.name}"} if isinstance(stmt, ast.FunctionDef) else set()
            parts.append((owners, _names_used(stmt)))
    return parts


def uncalled_library_names(package: pathlib.Path, program: list[pathlib.Path]) -> list[str]:
    """Each definition of `package` (see `_parts`) whose name no part of
    the package outside it and no file of `program` uses."""
    outside = set().union(*(_names_used(_parse(p)) for p in program))
    parts = [
        part
        for p in sorted(package.glob("*.py"))
        if p.name != "__init__.py"
        for part in _parts(p.stem, _parse(p))
    ]
    definitions = sorted(set().union(*(owners for owners, _ in parts)), key=lambda q: [q.count("."), q])
    uncalled = []
    for qualified in definitions:
        name = qualified.rsplit(".", 1)[1]
        if name not in outside and not any(name in names for owners, names in parts if qualified not in owners):
            uncalled.append(qualified)
    return uncalled


def _program() -> list[pathlib.Path]:
    return sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def test_every_library_function_and_class_has_a_caller_outside_the_tests():
    program = _program()
    assert program
    assert uncalled_library_names(PACKAGE, program) == []


def test_a_method_with_no_library_caller_is_reported(tmp_path):
    # a copy of the package that keeps a method only tests called
    copy = tmp_path / "package"
    shutil.copytree(PACKAGE, copy)
    source = copy / "measures.py"
    text = source.read_text(encoding="utf-8")
    anchor = "    def is_zero(self) -> bool:\n"
    assert anchor in text
    scaled = (
        '    def scaled(self, c) -> "FiniteMeasure":\n'
        "        c = Fraction(c)\n"
        "        nums = {x: n * c.numerator for x, n in self.nums.items()}\n"
        "        return FiniteMeasure(self.base, nums, self.den * c.denominator)\n\n"
    )
    source.write_text(text.replace(anchor, scaled + anchor), encoding="utf-8")
    assert uncalled_library_names(copy, _program()) == ["measures.FiniteMeasure.scaled"]
