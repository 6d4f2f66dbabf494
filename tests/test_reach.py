"""The reachability guard (``python -m tools.smoke reach``) on a toy package.

One traced entry point calls ``used`` (which calls ``helper``); the
differ must exempt declaration stubs, fail an unreached function that
``test-only.txt`` does not list, fail a listed function that is reached
(stale) and fail a listed line that gives no reason.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

import repro
from tools import reach

TOY = '''\
def used():
    return helper()


def helper():
    return 1


def unused():
    value = 1
    return value


def stub():
    """Only a docstring."""


def abstract():
    raise NotImplementedError


class Base:
    def hook(self):
        pass

    def later(self):
        def inner():
            return 2

        return inner()
'''

LISTED = """\
# toy entry points never call these
toy.mod:Base.later  # overridden by subclasses
toy.mod:unused  # kept for callers outside the entry points
"""


@pytest.fixture()
def toy(tmp_path):
    package = tmp_path / "toy"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(TOY)
    return package


@pytest.fixture()
def guard(toy, tmp_path):
    runs = iter(range(100))

    def check(expected: str):
        def entry_points(out):
            return [[["-c", "import toy.mod; toy.mod.used()"]]]

        out = tmp_path / f"trace-{next(runs)}"
        return reach.run(entry_points, tmp_path, toy, out, expected)

    return check


def test_stubs_are_exempt_and_the_listed_set_passes(guard):
    before = sys.getprofile()
    failures, unreached, lines = guard(LISTED)
    assert sys.getprofile() is before  # the caller's profiler is back
    assert failures == []
    # stub, abstract and hook are declarations; inner folds into later.
    assert unreached == ["toy.mod:Base.later", "toy.mod:unused"]
    assert lines == 5 + 3


def test_an_unreached_function_fails(guard):
    failures, _, _ = guard("toy.mod:Base.later  # overridden by subclasses\n")
    assert failures == ["unreached and not listed: toy.mod:unused"]


def test_a_listed_function_that_is_reached_is_stale(guard):
    failures, _, _ = guard(LISTED + "toy.mod:helper  # was unreached\n")
    assert failures == ["listed but reached or gone: toy.mod:helper"]


def test_a_line_without_a_reason_fails(guard):
    failures, _, _ = guard(LISTED.replace("  # overridden by subclasses", ""))
    assert failures == ["line 2 gives no reason: toy.mod:Base.later"]


def test_a_failing_entry_point_fails(toy, tmp_path):
    def entry_points(out):
        return [[["-c", "raise SystemExit(3)"]]]

    failures, _, _ = reach.run(entry_points, tmp_path, toy, tmp_path / "trace", LISTED)
    assert "exited 3" in failures[0]


def test_checks_live_outside_the_package():
    """The smoke rows and the guard are checks, not library code: neither
    ships in ``repro``, and nothing in ``repro`` imports them."""
    assert importlib.util.find_spec("repro.smoke") is None
    assert importlib.util.find_spec("repro.reach") is None
    importers = []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            if any(name == "tools" or name.startswith("tools.") for name in names):
                importers.append(path.name)
    assert importers == []


#: The most lines ``.github/expected/test-only.txt`` may list: 14 kept for
#: open ROADMAP items, 2 protocol defaults and 5 reached only by a user
#: value, an input or a named test.
MAX_TEST_ONLY = 21


def test_the_test_only_list_does_not_grow():
    """Listing another unreached function is an edit of this cap, not a
    silent reason line."""
    path = Path(__file__).resolve().parents[1] / ".github" / "expected" / "test-only.txt"
    names = [
        line.partition("#")[0].strip()
        for line in path.read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]
    assert len(names) == len(set(names))
    assert len(names) <= MAX_TEST_ONLY
