#!/usr/bin/env python3
"""Print each statement line of ``src/assured`` that no test executes.

    PYTHONPATH=src python scripts/untested_lines.py

Runs the tier-1 suite in this process with a line tracer on every thread
(``sys.settrace`` and ``threading.settrace``), recording only the lines of
frames whose code lives under ``src/assured``, then prints one line per
statement that never ran, as ``module:line source``, in file order.
Pytest's own report goes to stderr, so stdout holds only the listing and
two runs can be compared with ``diff``. The exit code is pytest's.

A statement counts as run when any line from its first to the last of its
header (a simple statement's whole extent; for a compound one, up to its
body) got a line event. Statements that compile to no bytecode are skipped.

Code that runs only in a subprocess (the CLI tests, the multi-process
servers, the benchmark runner) is not traced, so it reads as unexecuted
here even when a test covers it. So does a line that runs, in the same
thread and test, after the interpreter's recursion limit was hit: the
tracer call that hits it raises, and the interpreter drops the tracer until
the next test phase sets it again.

Uses the standard library only (``coverage`` is not a dependency). On a
2-vCPU VM with Python 3.11, tier-1 took 66 s traced against 44 s untraced
in back-to-back runs.
"""

from __future__ import annotations

import ast
import collections
import contextlib
import os
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "assured")
TIER1 = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def _bytecode_lines(code: types.CodeType) -> set[int]:
    """Every line that some instruction of ``code`` or its nested code maps to."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _bytecode_lines(const)
    return lines


def _statements(source: str) -> list[tuple[int, range]]:
    """(first line, header lines) of each statement in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        bodies = [child for field in ("body", "handlers", "orelse", "finalbody", "cases")
                  for child in getattr(node, field, []) if hasattr(child, "lineno")]
        last = min(child.lineno for child in bodies) - 1 if bodies else node.end_lineno
        found.append((node.lineno, range(first, max(first, last) + 1)))
    return sorted(found)


def _tracer(executed: collections.defaultdict[str, set[int]]):
    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    return global_


class _Rearm:
    """Sets the tracer again before each phase of each test: the interpreter
    drops a tracer that raises, as one does once a test reaches the recursion
    limit."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer

    def _rearm(self, item) -> None:
        sys.settrace(self.tracer)

    pytest_runtest_setup = pytest_runtest_call = pytest_runtest_teardown = _rearm


def main() -> int:
    import pytest

    # run as `python -m pytest` from the root would: tests import `tests.*`
    os.chdir(ROOT)
    sys.path.insert(0, ROOT)
    executed: collections.defaultdict[str, set[int]] = collections.defaultdict(set)
    tracer = _tracer(executed)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(TIER1, plugins=[_Rearm(tracer)])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        lines = source.splitlines()
        compiled = _bytecode_lines(compile(source, path, "exec"))
        ran = executed[path]
        module = "assured." + name[:-3]
        for lineno, header in _statements(source):
            if compiled.isdisjoint(header) or not ran.isdisjoint(header):
                continue
            print(f"{module}:{lineno} {lines[lineno - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
