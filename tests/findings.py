"""Print the findings that README and ROADMAP state but tier-1 does not
train: the 60 runs of ``coalbench``'s ``wide`` workload at bench seeds 0-9
(source-only, coal and marginal-align, two run seeds each), collected
through ``pinned_hashes.workload_configs``.

For each method it prints the mean and the min of the final per-class mean
accuracy on ``target_holdout`` over its 20 runs. For coal and marginal-align
it also prints their wins against source-only's run at the same bench and
run seed (a win is a strictly higher score) and the median paired
difference. Then it prints source-only's score at bench seed 0, run seed 1,
the seed whose coal and marginal-align runs the ledger pins. The first lines
name the commit and the numpy and BLAS builds. Run from the repository root:

    PYTHONPATH=src python tests/findings.py

pytest does not collect this file.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
from pinned_hashes import versions, workload_configs

from coalign import trainer

BENCH_SEEDS = range(10)
METHODS = ("source-only", "marginal-align", "coal")


def wide_scores() -> dict:
    """Each ``wide`` run's final holdout per-class mean accuracy, keyed by
    (method, bench seed, run seed op suffix such as ``s1``)."""
    scores = {}
    with tempfile.TemporaryDirectory() as tmp:
        for bench_seed in BENCH_SEEDS:
            root = Path(tmp) / str(bench_seed)
            root.mkdir()
            configs = workload_configs("wide", root, bench_seed)
            for name, report in zip(configs, trainer.run_experiments(list(configs.values()))):
                method, run_seed = name.split("/")
                scores[method, bench_seed, run_seed] = report.metrics["final"]["per_class_mean_accuracy"]
    return scores


def main() -> int:
    commit = subprocess.run(["git", "describe", "--always", "--dirty"], capture_output=True,
                            text=True, cwd=Path(__file__).parent).stdout.strip()
    print(f"# commit {commit or 'unknown'}")
    print(versions())
    scores = wide_scores()
    print(f"wide, bench seeds {BENCH_SEEDS[0]}-{BENCH_SEEDS[-1]}: final per-class mean accuracy "
          "on target_holdout")
    print("| method | mean | min | wins | median |")
    print("| --- | --- | --- | --- | --- |")
    for method in METHODS:
        runs = {key[1:]: score for key, score in scores.items() if key[0] == method}
        row = f"| {method} | {np.mean(list(runs.values())):.3f} | {min(runs.values()):.3f}"
        if method == "source-only":
            print(f"{row} | - | - |")
            continue
        gaps = [score - scores["source-only", *key] for key, score in runs.items()]
        wins = sum(gap > 0.0 for gap in gaps)
        print(f"{row} | {wins}/{len(gaps)} | {np.median(gaps):+.3f} |")
    print(f"source-only at bench seed 0, run seed 1: {scores['source-only', 0, 's1']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
