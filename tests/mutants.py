"""Mutation sweep over ``src/coalign/*.py``: which single-line changes does
tier-1 not tell apart from the program?

Each single-line statement (not a docstring, ``pass`` or import) gives one
mutant that replaces it with ``pass``, and each one-line ``if`` test gives one
mutant that negates it. The sweep copies ``src/``, ``tests/``, ``configs/``,
``coalbench/`` (tier-1 loads the benchmark's workloads and hooks) and
``pyproject.toml`` to a temp dir and checks that the unmutated copy passes.
Then it runs tier-1 with ``-x -q -p no:cacheprovider`` on each mutant in
turn, with a 60 s timeout that kills the mutant's whole process group. It
prints each survivor as ``file:line  statement`` (a negated test as
``file:line  not (test)``), then the counts and the total time. Run from the
repository root:

    python tests/mutants.py                   # every candidate
    python tests/mutants.py --only FILE       # only the candidates FILE names,
                                              # as lines the sweep printed

``--only`` matches a printed line by file and statement, not by line number,
so a survivor list still selects its mutants after the lines around them
move. The environment is passed on unchanged, so the unmutated check and the
mutants run in the same one (``OPENBLAS_NUM_THREADS`` included).

pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "coalign"
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
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

    def __str__(self) -> str:
        return f"{self.path.name}:{self.line}  {self.label}"

    def apply(self, source: str) -> str:
        """``source`` with this mutant's change made."""
        lines = source.splitlines(keepends=True)
        text = lines[self.line - 1]
        lines[self.line - 1] = text[:self.col] + self.replacement + text[self.end_col:]
        return "".join(lines)


def _docstrings(tree: ast.Module) -> set[ast.AST]:
    owners = [node for node in ast.walk(tree)
              if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    return {node.body[0] for node in owners
            if node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant) and isinstance(node.body[0].value.value, str)}


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
    skipped = _docstrings(tree)
    mutants = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node in skipped:
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
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _run_tests(copy: Path, timeout: float) -> str:
    """'passed', 'failed' or 'timeout' for one tier-1 run in ``copy``."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.Popen([*PYTEST, f"--basetemp={copy / 'tmp'}"], cwd=copy, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        return "passed" if proc.wait(timeout=timeout) == 0 else "failed"
    except subprocess.TimeoutExpired:
        return "timeout"
    finally:
        # the group outlives its leader only if something forked; kill it either way
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def _run_mutant(copy: Path, mutant: Mutant, timeout: float) -> str:
    target = copy / mutant.path
    original = target.read_text()
    target.write_text(mutant.apply(original))
    try:
        return _run_tests(copy, timeout)
    finally:
        target.write_text(original)


def _select(mutants: list[Mutant], listing: Path) -> list[Mutant]:
    wanted = set()
    for entry in listing.read_text().splitlines():
        where, sep, label = entry.strip().partition("  ")
        if sep:
            wanted.add((where.rsplit(":", 1)[0], label.strip()))
    return [m for m in mutants if (m.path.name, m.label) in wanted]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", type=Path, help="run only the candidates this file lists")
    args = parser.parse_args(argv)
    mutants = candidates()
    if args.only:
        mutants = _select(mutants, args.only)
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="coalign-mutants-") as tmp:
        copy = Path(tmp)
        _copy_tree(copy)
        check = _run_tests(copy, 10 * TIMEOUT_S)
        print(f"unmutated copy: {check} in {time.monotonic() - start:.1f} s", flush=True)
        if check != "passed":
            return 1
        results = {}
        for done, mutant in enumerate(mutants, 1):
            results[mutant] = outcome = _run_mutant(copy, mutant, TIMEOUT_S)
            print(f"[{done}/{len(mutants)} {time.monotonic() - start:.0f} s] {outcome:8s} {mutant}",
                  file=sys.stderr, flush=True)
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
