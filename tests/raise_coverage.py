"""Pytest plugin: the session fails if the suite never reaches some ``raise`` in ``src/critnet``.

Each error the package raises is part of its contract, so some test should
trigger it; a ``raise`` no test reaches is either untested or dead code.
Load the plugin on the whole suite, from the repository root:

    PYTHONPATH=src:tests python -m pytest -q -p raise_coverage

From session start it records the lines that run in frames whose code lies
under ``src/critnet`` (``sys.settrace``, and ``threading.settrace`` for
threads started later). At session end it lists every ``raise`` statement
none of whose lines ran and turns a passing exit status into a failure.
Tracing about doubles the suite's run time.
"""
from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "critnet"

_ran: set[tuple[str, int]] = set()
_traced: dict[str, bool] = {}  # code file name -> whether it lies under PACKAGE
_unreached: list[str] = []


def _trace_lines(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace_lines


def _trace_calls(frame, event, arg):
    name = frame.f_code.co_filename
    traced = _traced.get(name)
    if traced is None:
        traced = _traced[name] = os.path.realpath(name).startswith(f"{PACKAGE}{os.sep}")
    return _trace_lines if traced else None


def pytest_sessionstart(session):
    sys.settrace(_trace_calls)
    threading.settrace(_trace_calls)


def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    ran: dict[str, set[int]] = {}
    for name, line in _ran:
        ran.setdefault(os.path.realpath(name), set()).add(line)
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = ran.get(str(path), set())
        raises = [node for node in ast.walk(ast.parse(path.read_text(), str(path))) if isinstance(node, ast.Raise)]
        for node in sorted(raises, key=lambda node: node.lineno):
            if lines.isdisjoint(range(node.lineno, node.end_lineno + 1)):
                _unreached.append(f"{path.relative_to(PACKAGE.parent.parent)}:{node.lineno}")
    if _unreached and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    if _unreached:
        terminalreporter.section("raise statements no test reached")
        for where in _unreached:
            terminalreporter.write_line(where)
