"""Mutation sweep over ``src/coalign/*.py``: which single-line changes does
tier-1 not tell apart from the program?

Each single-line statement (not a docstring, ``pass`` or import) gives one
mutant that replaces it with ``pass``, and each one-line ``if`` test gives one
mutant that negates it. The sweep copies ``src/``, ``tests/``, ``configs/``,
``coalbench/`` (tier-1 loads the benchmark's workloads and hooks),
``pyproject.toml`` and ``README.md`` (tier-1 reads its grid table) to a
temp dir and checks that the unmutated copy passes three ways: in file order
(which also times each test as if it ran alone), cheapest test first, and
the recorded killers together. Then it runs tier-1 with
``-x -q -p no:cacheprovider`` on each mutant in turn, with a 60 s timeout
that kills the mutant's whole process group.

The record, ``mutant-killers.json`` at the repository root, holds each
killed mutant's first failing test, keyed like ``--only`` keys mutants (so
mutants of one repeated statement share a key and its list). A mutant with
recorded killers runs those alone first; only a failure or a collection
error there is a kill. Otherwise the whole suite runs, cheapest test first.
The killers a sweep finds for a key replace the key's old list. The record
is git-ignored, and tier-1 never reads it. If the unmutated copy fails any
of its three checks, the sweep stops before the first mutant. The sweep
prints each survivor as ``file:line  statement`` (a negated test as
``file:line  not (test)``), then the counts and the total time. Run from the
repository root:

    python tests/mutants.py                   # every candidate
    python tests/mutants.py --only FILE       # only the candidates FILE names,
                                              # as lines the sweep printed

``--only`` matches a printed line by file and statement, not by line number,
so a survivor list still selects its mutants after the lines around them
move. Apart from ``PYTHONPATH`` and ``PYTHONDONTWRITEBYTECODE``, the
environment is passed on unchanged, so the unmutated check and the mutants
run in the same one (``OPENBLAS_NUM_THREADS`` and ``PYTEST_ADDOPTS``
included). So a test's unique kills are the survivors of

    PYTEST_ADDOPTS="--deselect TEST" python tests/mutants.py --only LIST

where ``LIST`` holds the mutants the record gives that test. A test that is
no mutant's recorded killer has no unique kill: a mutant's only killer is
always its first.

pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import json
import multiprocessing
import os
import shutil
import signal
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import hypothesis  # noqa: F401  imported once here, not in every run
import numpy  # noqa: F401
import pytest
from src_lines import _docstring_lines

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "coalign"
RECORD = ROOT / "mutant-killers.json"
# pytest warns, as an error under the suite's filterwarnings, that it cannot
# rewrite the asserts of hypothesis's modules, which this process imported
PYTEST = ["-x", "-q", "-p", "no:cacheprovider", "-W", "ignore::pytest.PytestAssertRewriteWarning"]
TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Mutant:
    path: Path  # relative to the repository root
    line: int
    col: int
    end_col: int
    original: str  # the replaced text
    replacement: str

    @property
    def label(self) -> str:
        """The statement as the sweep prints it: the original, or the
        negated test."""
        return self.replacement if self.replacement != "pass" else self.original

    @property
    def key(self) -> str:
        """The mutant's key in the record, its printed line without the
        line number, as ``--only`` matches it."""
        return f"{self.path.name}  {self.label}"

    def __str__(self) -> str:
        return f"{self.path.name}:{self.line}  {self.label}"

    def apply(self, source: str) -> str:
        """``source`` with this mutant's change made."""
        lines = source.splitlines(keepends=True)
        text = lines[self.line - 1]
        lines[self.line - 1] = text[:self.col] + self.replacement + text[self.end_col:]
        return "".join(lines)


def _span(lines: list[str], node: ast.AST) -> tuple[int, int, str]:
    # ast columns are UTF-8 byte offsets
    raw = lines[node.lineno - 1].encode()
    col = len(raw[:node.col_offset].decode())
    end_col = len(raw[:node.end_col_offset].decode())
    return col, end_col, lines[node.lineno - 1][col:end_col]


def file_candidates(path: Path, source: str) -> list[Mutant]:
    """The mutants of one source file, in line order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    docstrings = _docstring_lines(tree)
    mutants = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node.lineno in docstrings:
            continue
        if isinstance(node, ast.If) and node.test.lineno == node.test.end_lineno:
            col, end_col, text = _span(lines, node.test)
            mutants.append(Mutant(path, node.lineno, col, end_col, text, f"not ({text})"))
        if node.lineno != node.end_lineno or isinstance(
                node, (ast.Pass, ast.Import, ast.ImportFrom, ast.FunctionDef, ast.AsyncFunctionDef,
                       ast.ClassDef)):
            continue
        col, end_col, text = _span(lines, node)
        if not text.startswith("elif"):  # an elif's node starts at the keyword
            mutants.append(Mutant(path, node.lineno, col, end_col, text, "pass"))
    return sorted(mutants, key=lambda m: (m.line, m.col, m.replacement != "pass"))


def candidates(root: Path = ROOT) -> list[Mutant]:
    """Every mutant of ``src/coalign/*.py``, file by file."""
    return [mutant for path in sorted((root / PACKAGE).glob("*.py"))
            for mutant in file_candidates(path.relative_to(root), path.read_text())]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in ("src", "tests", "configs", "coalbench"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, dest / name)


def first_failure(output: str) -> str | None:
    """The node id of the first ``FAILED`` or ``ERROR`` line of pytest's
    short test summary (the file, for a collection error), or None."""
    for line in output.partition("short test summary info")[2].splitlines():
        word, _, rest = line.partition(" ")
        if word in ("FAILED", "ERROR") and rest:
            return rest.split(" - ", 1)[0]
    return None


def read_record(path: Path = RECORD) -> dict[str, list[str]]:
    """The killers of the mutants the last sweeps killed, keyed like
    ``data.py  <statement>``; empty if there is no record. A key holds more
    than one killer only when mutants of equal statements need different
    tests."""
    return json.loads(path.read_text()) if path.exists() else {}


def write_record(record: dict[str, list[str]], path: Path = RECORD) -> None:
    path.write_text(json.dumps(record, indent=0, sort_keys=True) + "\n")


class _AloneSeconds:
    """A pytest plugin that writes to ``path`` each test's seconds as if it
    ran alone: its own set-up, call and tear-down, plus the set-up of each
    module- or session-scoped fixture it uses. A run charges such a fixture
    to its first user only, which would rank its other users cheap."""

    def __init__(self, path: Path):
        self.path, self.seconds, self.shared = path, {}, {}

    @pytest.hookimpl(wrapper=True)
    def pytest_fixture_setup(self, fixturedef):
        start = time.perf_counter()
        value = yield
        if fixturedef.scope != "function":
            self.shared[fixturedef.argname] = time.perf_counter() - start
        return value

    def pytest_runtest_makereport(self, item, call):
        shared = sum(self.shared.get(name, 0.0) for name in item.fixturenames)
        self.seconds[item.nodeid] = self.seconds.get(item.nodeid, shared) + call.duration

    def pytest_sessionfinish(self):
        self.path.write_text(json.dumps(self.seconds))


def _child(copy: Path, out: Path, args: list[str], plugins: tuple, write_bytecode: bool) -> None:
    os.setsid()
    fd = os.open(out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
    os.dup2(fd, 1)
    os.dup2(fd, 2)
    os.chdir(copy)
    # bytecode goes only into the temp copy, whatever the environment says
    os.environ.update(PYTHONPATH=str(copy / "src"),
                      PYTHONDONTWRITEBYTECODE="" if write_bytecode else "1")
    sys.dont_write_bytecode = not write_bytecode  # so no .pyc of a mutant is ever read
    sys.path[:] = [p for p in sys.path if Path(p).resolve() != ROOT / "tests"]
    sys.exit(pytest.main([*PYTEST, f"--basetemp={copy / 'tmp'}", *args], plugins=plugins))


def _pytest(copy: Path, args: list[str], timeout: float, plugins: tuple = (),
            write_bytecode: bool = False) -> tuple[int | None, str]:
    """pytest's exit code (None on a timeout) and its output, for one tier-1
    run in ``copy``. The run is a forked child of this process, which has
    imported pytest, hypothesis and numpy once, so no run pays for them
    (a spawned child would import them again: 0.6-0.8 s a run on a 2-vCPU
    host).

    Only the first, unmutated run writes bytecode: the unmutated sources'
    ``.pyc`` files and pytest's assertion-rewritten test modules, which every
    later run reads instead of rewriting them (0.47 s a run becomes 0.28 s
    for a one-test run on a 2-vCPU host). A mutated
    or restored file is newer than its ``.pyc``, so Python compiles it
    afresh."""
    out = copy.parent / "pytest.out"
    child = multiprocessing.get_context("fork").Process(
        target=_child, args=(copy, out, args, plugins, write_bytecode))
    child.start()
    child.join(timeout)
    code = child.exitcode
    # the group outlives its leader only if something forked; kill it either way
    with contextlib.suppress(ProcessLookupError):
        os.killpg(child.pid, signal.SIGKILL)
    child.join()
    return code, out.read_text(errors="replace")


def _run_mutant(copy: Path, mutant: Mutant, killers: list[str],
                order: list[str]) -> tuple[str, str | None]:
    """'failed', 'timeout' or 'passed' for one mutant, with the test that
    killed it. Its recorded killers run first, alone; only a failure or a
    collection error (exit code 1 or 2) there is a kill. Anything else (4: a
    node id is gone, 5: no test ran, 0: they pass) falls back to the whole
    suite, cheapest test first."""
    target = copy / mutant.path
    original = target.read_text()
    target.write_text(mutant.apply(original))
    try:
        if killers:
            code, output = _pytest(copy, killers, TIMEOUT_S)
            if code is None:
                return "timeout", None
            if code in (1, 2):
                return "failed", first_failure(output)
        code, output = _pytest(copy, order, TIMEOUT_S)
        if code is None:
            return "timeout", None
        return ("passed", None) if code == 0 else ("failed", first_failure(output))
    finally:
        target.write_text(original)


def _select(mutants: list[Mutant], listing: Path) -> list[Mutant]:
    wanted = set()
    for entry in listing.read_text().splitlines():
        where, sep, label = entry.strip().partition("  ")
        if sep:
            wanted.add((where.rsplit(":", 1)[0], label.strip()))
    return [m for m in mutants if (m.path.name, m.label) in wanted]


def _check(copy: Path, args: list[str], what: str, start: float, **run) -> bool:
    """Whether the unmutated copy passes for ``args`` (or runs no test)."""
    code, _ = _pytest(copy, args, 10 * TIMEOUT_S, **run)
    verdict = {0: "passed", 5: "passed", None: "timeout"}.get(code, "failed")
    print(f"unmutated copy, {what}: {verdict} at {time.monotonic() - start:.1f} s", flush=True)
    return verdict == "passed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", type=Path, help="run only the candidates this file lists")
    args = parser.parse_args(argv)
    mutants = candidates()
    if args.only:
        mutants = _select(mutants, args.only)
    record = read_record()
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="coalign-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        _copy_tree(copy)
        costs = Path(tmp) / "seconds.json"
        if not _check(copy, [], "the suite", start, plugins=(_AloneSeconds(costs),),
                      write_bytecode=True):
            return 1
        seconds = json.loads(costs.read_text())
        order = sorted(seconds, key=seconds.get)
        # a killer is a node id or, for a collection error, a test file; one
        # this run does not collect (gone, or deselected) is not run, and the
        # record keeps it until a sweep runs its key again
        known = {*seconds, *(node.split("::")[0] for node in seconds)}
        runnable = {key: [k for k in tests if k in known] for key, tests in record.items()}
        killers = sorted({k for m in mutants for k in runnable.get(m.key, [])})
        if not (_check(copy, order, "cheapest test first", start)
                and (not killers or _check(copy, killers, f"{len(killers)} recorded killers", start))):
            return 1
        results, found = {}, {}  # found: this sweep's killers of each key
        for done, mutant in enumerate(mutants, 1):
            results[mutant], killer = _run_mutant(copy, mutant, runnable.get(mutant.key, []), order)
            found.setdefault(mutant.key, set()).update({killer} - {None})
            write_record({key: sorted(tests) for key, tests in {**record, **found}.items() if tests})
            print(f"[{done}/{len(mutants)} {time.monotonic() - start:.0f} s] {results[mutant]:8s} "
                  f"{mutant}" + (f"  <- {killer}" if killer else ""), file=sys.stderr, flush=True)
    survivors = [m for m in mutants if results[m] == "passed"]
    timeouts = [m for m in mutants if results[m] == "timeout"]
    for heading, group in (("survived", survivors), ("timed out", timeouts)):
        print(f"{heading}:")
        for mutant in group:
            print(f"  {mutant}")
    print(f"{len(mutants)} candidates: {len(mutants) - len(survivors) - len(timeouts)} killed, "
          f"{len(timeouts)} timed out, {len(survivors)} survived, "
          f"in {time.monotonic() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
