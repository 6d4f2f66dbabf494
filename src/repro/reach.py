"""Entry-point reachability: which ``repro`` functions only tests reach.

:func:`run` runs commands under a generated ``sitecustomize.py`` that
installs ``sys.setprofile`` and ``threading.setprofile`` in every Python
process they start.  Each process appends the first call of every code
object under the package to a file named after its pid, checked on each
write, so forked pool children are counted too.  :func:`declarations`
lists every ``def`` in the package from its AST, keyed
``module:qualname``, and :func:`diff` compares the two against an
expected list in which every line carries a reason::

    repro.exec.faults:SlowBootFaults.adjust_setup_time  # fault injection, not yet run

A declaration stub (a body of only a docstring, ``pass``, ``...``,
``return None`` or ``raise NotImplementedError``) is exempt, and so is a
def nested in an unreached def: its lines count once, with its parent.
``python -m repro.smoke reach`` runs the repository's entry points
through these and exits 1 on any difference.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

#: Entry-point jobs run at once (one per core of a 2-core CI runner).
WORKERS = 2

_SITECUSTOMIZE = '''\
import os, sys, threading

_ROOT, _OUT = {root!r}, {out!r}
_seen = set()
_sink = [None, None]


def _profile(frame, event, arg):
    code = frame.f_code
    if event != "call" or code in _seen:
        return
    _seen.add(code)
    if code.co_filename.startswith(_ROOT):
        if _sink[0] != os.getpid():
            _sink[0] = os.getpid()
            _sink[1] = open(os.path.join(_OUT, "%d.txt" % _sink[0]), "a")
        _sink[1].write("%s\\t%d\\t%s\\n" % (code.co_filename, code.co_firstlineno, code.co_qualname))
        _sink[1].flush()


sys.setprofile(_profile)
threading.setprofile(_profile)
'''


@dataclass(frozen=True)
class Declaration:
    """One ``def``: its ``module:qualname``, its lines, whether it is a
    declaration stub, and the key of the def it is nested in (if any)."""

    name: str
    lines: range
    stub: bool
    parent: tuple | None


def _is_stub(node: ast.AST) -> bool:
    body = list(node.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring (or a bare ``...``)
    if not body:
        return True
    if len(body) > 1:
        return False
    (stmt,) = body
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Return):
        return stmt.value is None or (
            isinstance(stmt.value, ast.Constant) and stmt.value.value is None
        )
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def declarations(package: Path) -> dict[tuple, Declaration]:
    """Every ``def`` under *package*, keyed ``(path, first line, qualname)``
    the way a code object names itself."""
    package = Path(package).resolve()
    found: dict[tuple, Declaration] = {}

    def visit(node, path, module, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                key = (path, first, qualname)
                found[key] = Declaration(
                    f"{module}:{qualname}",
                    range(child.lineno, child.end_lineno + 1),
                    _is_stub(child),
                    parent,
                )
                visit(child, path, module, qualname + ".<locals>.", key)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, module, prefix + child.name + ".", parent)
            else:
                visit(child, path, module, prefix, parent)

    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        visit(ast.parse(path.read_text(), str(path)), str(path), module, "", None)
    return found


def _read(out: Path) -> set:
    reached = set()
    for record in out.glob("*.txt"):
        for line in record.read_text().splitlines():
            filename, first, qualname = line.split("\t")
            reached.add((filename, int(first), qualname))
    return reached


def run(jobs, cwd: Path, package: Path, out: Path, expected: str):
    """Trace the entry points ``jobs(out)`` returns and diff them against
    *expected*; returns ``(failures, unreached names, unreached lines)``.

    Each job is a list of commands (argument lists for ``python``) run in
    order, :data:`WORKERS` jobs at a time, under the tracer; *out* is a scratch
    directory for their artifacts and the trace files, and must be empty
    or missing.  This process is traced too, from its current stack on,
    so the guard reaches itself.
    """
    package = Path(package).resolve()
    site = out / "site"
    site.mkdir(parents=True)
    source = _SITECUSTOMIZE.format(root=str(package) + os.sep, out=str(out))
    (site / "sitecustomize.py").write_text(source)
    env = dict(os.environ)
    path = [str(site), str(package.parent), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)

    def run_job(commands):
        for command in commands:
            done = subprocess.run(
                [sys.executable, *command], cwd=cwd, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            if done.returncode != 0:
                tail = done.stderr.strip().splitlines()[-1:] or [""]
                return [f"{' '.join(command)} exited {done.returncode}: {tail[0]}"]
        return []

    previous, tracer = sys.getprofile(), {}
    exec(compile(source, str(site / "sitecustomize.py"), "exec"), tracer)
    frame = sys._getframe()
    while frame is not None:
        tracer["_profile"](frame, "call", None)
        frame = frame.f_back
    try:
        declared = declarations(package)
        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            failures = [f for failed in pool.map(run_job, jobs(out)) for f in failed]
        for _ in range(2):  # the second pass also sees the first one's calls
            found = diff(declared, _read(out), expected)
    finally:
        sys.setprofile(previous)
        threading.setprofile(previous)
        if tracer["_sink"][1] is not None:
            tracer["_sink"][1].close()
    return failures + found[0], found[1], found[2]


def diff(declared: dict, reached: set, expected: str) -> tuple[list[str], list[str], int]:
    """``(failures, unreached names, unreached lines)`` of a traced run
    against the *expected* list (``name  # reason`` per line; blank and
    ``#`` lines are comments).

    A name is unreached when its def is not a stub, no traced process
    called it and its enclosing def (if any) was called.
    """
    unreached, lines = [], set()
    for key, decl in declared.items():
        if key in reached or decl.stub:
            continue
        lines.update((key[0], n) for n in decl.lines)
        if decl.parent is None or decl.parent in reached:
            unreached.append(decl.name)
    failures, listed = [], set()
    for number, line in enumerate(expected.splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        name, _, reason = line.partition("#")
        listed.add(name.strip())
        if not reason.strip():
            failures.append(f"line {number} gives no reason: {line.strip()}")
    unreached.sort()
    failures += [f"unreached and not listed: {name}" for name in unreached if name not in listed]
    failures += [f"listed but reached or gone: {name}" for name in sorted(listed - set(unreached))]
    return failures, unreached, len(lines)
