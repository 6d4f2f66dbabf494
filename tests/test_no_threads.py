"""No module under ``src/repro`` starts a thread.

The planner is a pure-Python DP that holds the GIL, so a planner thread
buys no parallelism, and everything live in the package runs on the
simulated clock or the event loop.  The guard parses every module and
fails on any use of ``threading.Thread`` or ``ThreadPoolExecutor``
(imported, referenced or subclassed).  Locks stay allowed: threaded
callers of ``PlanningService`` and the metrics registry still share them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

FORBIDDEN = {"Thread", "ThreadPoolExecutor"}


def thread_uses(source: str, filename: str = "<src>") -> list[str]:
    """``line: name`` for each use of a forbidden name in *source*."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            continue
        found += [f"{node.lineno}: {name}" for name in names if name in FORBIDDEN]
    return found


def test_the_guard_sees_each_form():
    source = (
        "import threading\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "threading.Thread(target=print)\n"
        "import concurrent.futures as cf\n"
        "cf.ThreadPoolExecutor(2)\n"
        "lock = threading.Lock()\n"
    )
    assert thread_uses(source) == [
        "2: ThreadPoolExecutor",
        "3: Thread",
        "5: ThreadPoolExecutor",
    ]


def test_no_module_under_src_starts_a_thread():
    root = Path(repro.__file__).parent
    offenders = [
        f"{path.relative_to(root.parent)}:{use}"
        for path in sorted(root.rglob("*.py"))
        for use in thread_uses(path.read_text(), str(path))
    ]
    assert offenders == []
