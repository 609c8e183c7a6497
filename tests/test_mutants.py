"""The candidate list of ``tests/mutants.py``, the mutation sweep over
``src/``. Nothing here runs a mutant."""

from __future__ import annotations

import ast
from pathlib import Path

import mutants
import pytest


def test_every_candidate_compiles_and_changes_its_source():
    """The list repeats, and each mutant is valid Python that differs from
    the original. Each mutant compiles as its top-level statement alone: a
    one-line change cannot break the syntax outside it, and compiling every
    whole module would take seconds."""
    found = mutants.candidates()
    assert found and found == mutants.candidates()
    for path in {mutant.path for mutant in found}:
        source = (mutants.ROOT / path).read_text()
        spans = [(min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))]),
                  node.end_lineno) for node in ast.parse(source).body]
        for mutant in (mutant for mutant in found if mutant.path == path):
            mutated = mutant.apply(source)
            assert mutated != source, mutant
            first, last = next(span for span in spans if span[0] <= mutant.line <= span[1])
            compile("".join(mutated.splitlines(keepends=True)[first - 1:last]), str(mutant), "exec")


def test_the_killer_is_the_first_failure_of_the_short_summary():
    """A captured log line before the summary is not a failure; a collection
    error names its file."""
    output = """F
------------------------------ Captured log call -------------------------------
ERROR    coalign:trainer.py:1 not a test
=========================== short test summary info ============================
FAILED tests/test_data.py::TestCsv::test_bound[1e17] - AssertionError: assert 1 == 2
ERROR tests/test_cli.py::test_out_dir - ValueError
!!!!!!!!!!!!!!!!!!!!!!!!!! stopping after 1 failures !!!!!!!!!!!!!!!!!!!!!!!!!!!
"""
    assert mutants.first_failure(output) == "tests/test_data.py::TestCsv::test_bound[1e17]"
    collection = ("=== short test summary info ===\n"
                  "ERROR tests/test_evaluation.py - NameError: name 'x' is not defined\n")
    assert mutants.first_failure(collection) == "tests/test_evaluation.py"
    assert mutants.first_failure("1 passed in 0.1s\n") is None


def test_a_written_record_reads_back_with_the_same_keys_and_killers(tmp_path):
    record = {mutant.key: [f"tests/test_data.py::test_{i}", "tests/test_evaluation.py"]
              for i, mutant in enumerate(mutants.candidates()[:5])}
    mutants.write_record(record, tmp_path / "record.json")
    assert mutants.read_record(tmp_path / "record.json") == record
    assert mutants.read_record(tmp_path / "absent.json") == {}


@pytest.mark.parametrize("code, outcome", [(1, "failed"), (2, "failed"), (None, "timeout"),
                                           (0, "passed"), (4, "passed"), (5, "passed")])
def test_only_a_failure_or_collection_error_of_the_killer_is_a_kill(tmp_path, monkeypatch, code,
                                                                     outcome):
    """Recorded killers that exit 1 or 2 kill their mutant, and ones that
    hang time it out. Any other exit code (4: unknown node id, 5: no test
    ran) falls back to the whole suite, which here passes."""
    (tmp_path / "m.py").write_text("x = 1\n")
    runs = []

    def pytest_run(copy, args, timeout):
        runs.append((args, (copy / "m.py").read_text()))
        if args != ["killer"]:
            return 0, ""
        return code, "=== short test summary info ===\nFAILED killer - x\n"

    monkeypatch.setattr(mutants, "_pytest", pytest_run)
    mutant = mutants.Mutant(Path("m.py"), 1, 0, 5, "x = 1", "pass")
    killer = "killer" if outcome == "failed" else None
    assert mutants._run_mutant(tmp_path, mutant, ["killer"], ["cheap", "killer"]) == (outcome, killer)
    assert runs[0] == (["killer"], "pass\n")
    assert runs[1:] == ([] if outcome != "passed" else [(["cheap", "killer"], "pass\n")])
    assert (tmp_path / "m.py").read_text() == "x = 1\n"
