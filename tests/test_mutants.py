"""The candidate list of ``tests/mutants.py``, the mutation sweep over
``src/``. Nothing here runs a mutant."""

from __future__ import annotations

import ast

import mutants


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
