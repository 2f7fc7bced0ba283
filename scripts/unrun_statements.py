"""List the statement lines of the package that no `mgpd` invocation runs.

Usage:  python scripts/unrun_statements.py

Runs the corpus of `scripts/compare_outputs.py` (its `run_corpus`, on this
checkout's `src`) in this process under `sys.settrace`, then prints, for
each module of `src/measured_groupoids`, how many of its statement lines ran
and the ranges of those that did not. A range a-b means that every
statement line from a to b went unrun; lines that hold no statement
(blank lines, comments, docstrings, the continuation lines of a statement)
are never listed. A statement line is a line that some instruction of the
module's compiled code starts on, as `code.co_lines` gives them.

Every `mgpd` process compiles the modules it imports, so a line listed here
is compiled by every process that imports its module and run by none of the
corpus: code to move off the check path, to delete, or to reach with a new
corpus entry.
"""

from __future__ import annotations

import pathlib
import sys
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "measured_groupoids"


def statement_lines(code: types.CodeType) -> set[int]:
    """The lines that the instructions of `code` and of the code nested in
    it start on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= statement_lines(const)
    return lines


def ranges(unrun: list[int], statements: list[int]) -> str:
    """`unrun` as ranges of lines that are consecutive among `statements`."""
    place = {line: i for i, line in enumerate(statements)}
    spans: list[list[int]] = []
    for line in unrun:
        if spans and place[line] == place[spans[-1][1]] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def run_traced() -> dict[str, set[int]]:
    """The lines of each package file that ran while the corpus ran."""
    ran: dict[str, set[int]] = {}
    ours: dict[types.CodeType, bool] = {}
    prefix = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        code = frame.f_code
        if code not in ours:
            ours[code] = code.co_filename.startswith(prefix)
        if not ours[code]:
            return None
        ran.setdefault(code.co_filename, set()).add(frame.f_lineno)
        return local

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]
    import compare_outputs

    sys.settrace(trace)
    try:
        compare_outputs.run_corpus()
    finally:
        sys.settrace(None)
    return ran


def main() -> int:
    if len(sys.argv) > 1:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    ran = run_traced()
    total = unrun_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        statements = sorted(statement_lines(compile(path.read_text(encoding="utf-8"), str(path), "exec")))
        unrun = [line for line in statements if line not in ran.get(str(path), ())]
        total, unrun_total = total + len(statements), unrun_total + len(unrun)
        print(f"{path.name}: {len(statements) - len(unrun)} of {len(statements)} statement lines ran")
        if unrun:
            print(f"  unrun: {ranges(unrun, statements)}")
    print(f"{total - unrun_total} of {total} statement lines ran, {unrun_total} did not")
    return 0


if __name__ == "__main__":
    sys.exit(main())
