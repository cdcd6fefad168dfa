"""List the statements of src/slidoc that the test suite never runs.

    python3 tools/untested.py                  # pytest tests
    python3 tools/untested.py tests/test_cli.py -k config

Runs pytest in this process under sys.settrace, with a line tracer on
frames whose code lives under src/slidoc only, then prints
`path:line: statement` for every statement no test reached, and the
count.  Definitions, imports, docstrings and other bare constants are
not listed: a def or import runs when its module loads, and a constant
expression does nothing.  A compound statement (if, for, try, ...)
counts as run when a line of its header or any statement inside it ran;
a simple statement when any of its lines ran.  Arguments after the
script name go to pytest in place of `tests`.  Only the standard
library is used; tracing makes the suite about twice as slow (74 s
against 39 s on a shared 2-core machine).  Subprocesses the tests start
are not traced.  The exit status is pytest's.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_SKIP = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
         ast.ImportFrom, ast.Global, ast.Nonlocal)


def statements(path: Path) -> list:
    """(line, lines, text) of every listable statement of the file: its
    first line, the set of lines whose execution means it ran, and its
    first source line."""
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    out = []

    def own_lines(node):
        # a simple statement owns its whole span; a compound one its
        # header, up to the first statement it holds
        first = [getattr(node, f)[0].lineno for f in ("body", "handlers", "orelse",
                                                        "finalbody", "cases")
                 if getattr(node, f, None)]
        end = min(first) - 1 if first else node.end_lineno
        return set(range(node.lineno, max(end, node.lineno) + 1))

    def visit(node):
        lines = set()
        for child in ast.iter_child_nodes(node):
            lines |= visit(child)
        if not isinstance(node, ast.stmt):
            return lines
        lines |= own_lines(node)
        bare_constant = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        if not isinstance(node, _SKIP) and not bare_constant:
            out.append((node.lineno, lines, text[node.lineno - 1].strip()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # the def runs where its enclosing block runs; its body does not
            return set(range(min([d.lineno for d in node.decorator_list] + [node.lineno]),
                             node.lineno + 1))
        return lines

    visit(ast.parse(source, filename=str(path)))
    return sorted(out, key=lambda item: item[0])


def trace(root: Path, run):
    """run() under a tracer that records the (file, line) events of
    frames whose code file lies under root; returns (run's result, the
    set of recorded pairs)."""
    prefix = str(root.resolve()) + "/"
    hits: set = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            hits.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    old = sys.gettrace()
    sys.settrace(global_)
    try:
        result = run()
    finally:
        sys.settrace(old)
    return result, hits


def unrun(root: Path, hits: set) -> list:
    """(path, line, text) of every listable statement under root whose
    lines were never hit, in file and line order."""
    out = []
    for path in sorted(root.resolve().rglob("*.py")):
        seen = {line for name, line in hits if name == str(path)}
        out.extend((path, line, text) for line, lines, text in statements(path)
                   if not lines & seen)
    return out


def main(argv=None) -> int:
    import pytest

    args = list(sys.argv[1:] if argv is None else argv) or ["tests"]
    sys.path.insert(0, str(SRC))
    code, hits = trace(SRC / "slidoc", lambda: pytest.main(["-q", "-p", "no:cacheprovider",
                                                            *args]))
    missed = unrun(SRC / "slidoc", hits)
    for path, line, text in missed:
        print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{len(missed)} statements never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
