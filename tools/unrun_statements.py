"""List the statements of src/numsem that the tier-1 tests never execute.

    python3 tools/unrun_statements.py [PYTEST_ARG...]

It runs pytest on ``tests/`` in this process under ``sys.settrace``,
records each line executed in a file of ``src/numsem``, and prints
``path:line: source`` for every statement none of whose lines ran; a
statement inside one already listed is not listed again.  Docstrings
and other constant expressions compile to no code and are left out.
Child processes that the tests start are not traced, so a statement
that runs only in them (``python -m numsem``, say) is listed too.

Standard library only, apart from pytest, which runs the tests.  It
exits 0 whatever the tests do, since the list is for information; the
last line gives pytest's exit code.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "numsem"


def _trace(hits: set[tuple[str, int]]):
    """A trace function that notes ``(file, line)`` for each line run under PACKAGE."""
    package = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    return on_call


def _unrun(node: ast.AST, ran: set[int]):
    """Statements under ``node`` none of whose lines ran, outermost only."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, ast.stmt):  # an except clause, say, holds statements too
            yield from _unrun(child, ran)
            continue
        if isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant):
            continue
        first = min([child.lineno, *(d.lineno for d in getattr(child, "decorator_list", ()))])
        if ran.isdisjoint(range(first, child.end_lineno + 1)):
            yield child
        else:
            yield from _unrun(child, ran)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    hits: set[tuple[str, int]] = set()
    trace = _trace(hits)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                            str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    listed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        ran = {line for name, line in hits if name == str(path)}
        for node in _unrun(ast.parse(source), ran):
            listed += 1
            print(f"{path.relative_to(ROOT)}:{node.lineno}: {lines[node.lineno - 1].strip()}")
    print(f"{listed} statements of src/numsem never ran; pytest exited {int(code)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
