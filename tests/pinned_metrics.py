"""Write ``tests/pinned_metrics.json``, the output ledger of the session
fixtures: the sha256 of ``metrics_payload()`` for every run of
``benchmark_grid`` and ``sampler_grid`` (30 runs), keyed like
``coal/d100/s1``, ``disable-pseudo-term/d100/s2`` or ``natural/s3``.

A tier-1 test compares the fixtures' runs with the committed ledger. A
change that moves a run's metrics on purpose rewrites the ledger with

    PYTHONPATH=src python tests/pinned_metrics.py

and names each moved run. The hashes hold for the numpy and BLAS builds
the ledger's header records. pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from conftest import benchmark_runs, sampler_runs

LEDGER = Path(__file__).with_name("pinned_metrics.json")


def versions() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def run_hashes(benchmark: dict, sampler: dict) -> dict[str, str]:
    """Ledger key -> sha256 of the run's metrics payload."""
    keyed = {f"{name}/d{degree:g}/s{seed}": report
             for (name, degree, seed), report in benchmark.items()}
    keyed.update({f"{name}/s{seed}": report for (name, seed), report in sampler.items()})
    return {key: hashlib.sha256(report.metrics_payload().encode()).hexdigest()
            for key, report in sorted(keyed.items())}


def moved(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """Every key whose hash differs or that only one side holds."""
    return sorted(key for key in expected.keys() | actual.keys()
                  if expected.get(key) != actual.get(key))


def main() -> int:
    doc = {**versions(), "runs": run_hashes(benchmark_runs(), sampler_runs())}
    LEDGER.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(doc['runs'])} run hashes to {LEDGER}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
