#!/usr/bin/env python3
"""Statements of the ``kacforge`` package that a pytest selection never runs.

The selection runs in this process under ``sys.settrace``; only frames whose
code lies in the package directory are traced line by line.  A statement
counts as run when a line event falls on one of its own lines: for a
compound statement (``if``, ``for``, ``while``, ``with``) its header lines,
for any other all of its lines.  Left out are the statements that leave no
line event of their own: definitions (``def``, ``class``), imports,
docstrings, ``try`` and ``global``/``nonlocal``.  Only the standard library
is used, so the script runs where ``coverage`` is not installed.

Prints one JSON object: the pytest exit status, and for each package file
with a statement not run, the first lines of those statements.

Usage:
    python3 scripts/line_coverage.py [--src DIR] [PYTEST_ARG ...]

``--src`` is the ``src`` directory whose ``kacforge`` is traced (default:
this checkout's); the pytest arguments select the tests, e.g.
``python3 scripts/line_coverage.py -- tests/test_hopf.py -k morphism``.
"""

import argparse
import ast
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
_SILENT = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
           ast.ImportFrom, ast.Try, ast.Global, ast.Nonlocal)
_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def statement_lines(source):
    """{first line: lines whose events count} of every statement that
    leaves line events of its own."""
    tree = ast.parse(source)
    docs = {id(node.body[0]) for node in ast.walk(tree)
            if isinstance(node, _SCOPES) and node.body
            and _is_docstring(node.body[0])}
    out = {}
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or isinstance(node, _SILENT)
                or id(node) in docs):
            continue
        inner = [s for field in ("body", "orelse", "handlers", "finalbody")
                 for s in getattr(node, field, [])]
        last = min(s.lineno for s in inner) - 1 if inner else node.end_lineno
        out[node.lineno] = range(node.lineno, max(last, node.lineno) + 1)
    return out


def _is_docstring(node):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def trace_pytest(pytest_args, package):
    """Run pytest on ``pytest_args`` and return (exit status, {file: set of
    lines with a line event}) for the files under ``package``."""
    import pytest
    prefix = str(package) + "/"
    hits = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def scope(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set())
        return local

    sys.settrace(scope)
    try:
        status = pytest.main(list(pytest_args))
    finally:
        sys.settrace(None)
    return int(status), hits


def unexecuted(package, hits):
    """{file name: first lines of the statements with no line event}."""
    out = {}
    for path in sorted(package.glob("*.py")):
        seen = hits.get(str(path), set())
        missed = [first for first, lines in
                  statement_lines(path.read_text()).items()
                  if seen.isdisjoint(lines)]
        if missed:
            out[path.name] = sorted(missed)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(SRC))
    ap.add_argument("pytest_args", nargs="*", metavar="PYTEST_ARG")
    args = ap.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    status, hits = trace_pytest(args.pytest_args, src / "kacforge")
    print(json.dumps({"pytest_status": status,
                      "unexecuted": unexecuted(src / "kacforge", hits)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
