"""Print exact work counts of the pinned fixture runs: for each of the
ledger's fixture variants at shift degrees 0 and 100 (seed 1), the Python
and C calls one warm run makes (cProfile's total), its optimizer steps
(``trainer.steps``: its ``sgd_momentum_step`` calls), the calls per step
and the ``tracemalloc`` peak over three further runs (min-max). Unlike a
wall time, the call count of a run repeats exactly, so a change that removes
calls shows it on any host; ``tests/test_trainer.py`` checks that it repeats
on a tiny config. Run from the repository root:

    PYTHONPATH=src python tests/counts.py

pytest does not collect this file.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
import tracemalloc

from conftest import fixture_config
from pinned_hashes import DEGREES, SEED, VARIANTS

from coalign import trainer


def call_count(config: trainer.TrainConfig) -> tuple[int, int]:
    """(calls, steps) of one run of ``config`` under cProfile."""
    profiler = cProfile.Profile()
    profiler.runcall(trainer.run_experiment, config)
    stats = pstats.Stats(profiler)
    steps = sum(ncalls for (_, _, name), (_, ncalls, *_) in stats.stats.items()
                if name == "sgd_momentum_step")
    return stats.total_calls, steps


def peak_bytes(config: trainer.TrainConfig) -> int:
    """The ``tracemalloc`` peak of one run of ``config``."""
    tracemalloc.start()
    try:
        trainer.run_experiment(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main() -> int:
    print(f"{'run':32s} {'calls':>9s} {'steps':>6s} {'calls/step':>10s}  tracemalloc peak (MiB)")
    for name, method, ablations in VARIANTS:
        for degree in DEGREES:
            config = fixture_config(method, SEED, degree, ablations=ablations)
            trainer.run_experiment(config)  # warm: first-call caches fill here
            calls, steps = call_count(config)
            peaks = [peak_bytes(config) / 2**20 for _ in range(3)]
            print(f"{name + f'/d{degree:g}':32s} {calls:9,d} {steps:6,d} {calls / steps:10.1f}  "
                  f"{min(peaks):.2f}-{max(peaks):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
