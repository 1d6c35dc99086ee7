"""Opt-in pytest plugin: list the lines of package function bodies that no test ran.

Run from the repository root as

    PYTHONPATH=src:tools python -m pytest -p linetrace

At the end of the session it prints each never-run line of a function body
under ``src/kriegerlab`` as ``file:line``.  Executable lines come from the
``co_lines()`` of the code objects nested in each module.  Module and class
bodies are skipped, because conftest imports the package before the session
starts.  Only the test process is traced, not the subprocesses tests start.
"""

import sys
import threading
from inspect import CO_OPTIMIZED
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kriegerlab"
_files = {}                         # co_filename of each package module -> its path
_ran = set()                        # (co_filename, line) of each line run


def _trace(frame, event, arg):
    # one module-level function for every frame: a closure per frame would
    # tie each frame to its tracer in a reference cycle
    if event == "call":
        return _trace if frame.f_code.co_filename in _files else None
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace


def _body_lines(code):
    """The executable lines of the function bodies nested in ``code``."""
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            if const.co_flags & CO_OPTIMIZED:
                yield from (line for _, _, line in const.co_lines()
                            if line is not None and line != const.co_firstlineno)
            yield from _body_lines(const)


def pytest_sessionstart(session):
    _files.update((m.__file__, Path(m.__file__).resolve()) for m in list(sys.modules.values())
                  if getattr(m, "__file__", None)
                  and Path(m.__file__).resolve().parent == PACKAGE)
    threading.settrace(_trace)
    sys.settrace(_trace)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    missed = []
    for name, path in sorted(_files.items(), key=lambda item: item[1]):
        code = compile(path.read_text(), name, "exec")
        missed += [f"{path.relative_to(PACKAGE.parent.parent)}:{line}"
                   for line in sorted(set(_body_lines(code))) if (name, line) not in _ran]
    terminalreporter.write_line(f"linetrace: {len(missed)} function-body lines never ran")
    for entry in missed:
        terminalreporter.write_line(f"  {entry}")
