"""Print ``tests/pinned_hashes.txt``, the output ledger of the pinned runs.

Its first line names the numpy and BLAS builds the hashes hold for. Then
come ``<sha256>  <name>`` lines:

- ``metrics/<key>``: the ``metrics_payload()`` of every session-fixture run
  (``benchmark_runs``, the benchmark's own ``grid``, and
  ``conftest.sampler_runs``, 30 runs), keyed by op name like
  ``coal/d100/s1``, ``disable-pseudo-term/d100/s2`` or ``natural/s3``;
- every artifact of coal (full, each single ablation and both ablations),
  marginal-align and source-only on the pinned twin-Gaussian fixture of
  ``configs/benchmark.json`` (read by ``conftest.fixture_config``) at shift
  degrees 0 and 100 and seed 1, each with an ``out_dir`` and pseudo-label
  dumps, plus the coal and marginal-align runs of ``coalbench/workloads.py``'s
  ``wide`` workload at bench seed 0, run seed 1, on the IDX pools it writes
  under the output root. Each checkpoint is then evaluated by
  ``coalign eval`` on its holdout manifest, and ``coalign gen-shift`` writes
  one split of ``GEN_SHIFT_RECIPE``.

Both workloads come through ``workload_configs``. Eight of the artifact
runs are run-seed-1 runs of ``benchmark_runs``, which writes them under the
output root; only the other six run here. A tier-1 test builds the same
lines from the session fixtures and compares them with the file. A change
that moves an output on purpose, such as a benchmark change to ``wide``,
which moves the ``wide/*`` lines, rewrites it:

    PYTHONPATH=src python tests/pinned_hashes.py > tests/pinned_hashes.txt

``report.json`` is hashed without its ``timing`` and ``out_dir``, which
differ between runs, eval stdout with its output directory replaced, and
every artifact with the output root replaced.
pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
from conftest import fixture_config, load_coalbench, sampler_runs

from coalign import cli, trainer
from coalign import data as D

LEDGER = Path(__file__).with_name("pinned_hashes.txt")
VARIANTS = (
    ("coal", "coal", ()),
    ("coal-disable-pseudo-term", "coal", ("disable-pseudo-term",)),
    ("coal-disable-entropy-term", "coal", ("disable-entropy-term",)),
    ("coal-disable-both", "coal", ("disable-pseudo-term", "disable-entropy-term")),
    ("marginal-align", "marginal-align", ()),
    ("source-only", "source-only", ()),
)
DEGREES = (0.0, 100.0)
SEED = 1
# a two-class twin-Gaussian source at shift degree 100 with a 100-sample budget
GEN_SHIFT_RECIPE = {
    "kind": "twin-gaussians", "domain": "source",
    "generator": {"num_classes": 2, "per_class": 200, "noise": 0.4, "rotation_deg": 0.0,
                  "translation": [0.0, 0.0], "radius": 2.0, "seed": 3},
    "shift": {"pareto_alpha": 1.0, "direction": D.DIRECTION_TARGET, "degree": 100.0,
              "budget": 100, "min_per_class": 2, "seed": 5},
}


def versions() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"# numpy {np.__version__}, BLAS {blas['name']} {blas['version']}"


def workload_configs(name: str, root: Path, seed: int) -> dict:
    """The configs the ops of ``coalbench``'s workload ``name`` at bench
    seed ``seed`` hand to ``trainer.run_experiment``, keyed by op name; the
    workload writes its inputs under ``root``. The ops look
    ``trainer.run_experiment`` up when called, so a stand-in that returns
    its config collects them without training. It is the only code in
    ``tests/`` that collects a workload's configs; the ledger's callers pass
    bench seed 0."""
    ops, _ = load_coalbench("workloads").WORKLOADS[name](seed, root)
    with mock.patch.object(trainer, "run_experiment", lambda config: config):
        return {op.name: op.run() for op in ops}


def ledger_configs(root: Path) -> dict:
    """Each artifact run's config by tag, without ``out_dir``: the fixture
    variants, and the coal and marginal-align runs of ``coalbench``'s
    ``wide`` at run seed 1, whose pools it writes under ``root``."""
    runs = {f"{name}/d{degree:g}": fixture_config(method, SEED, degree, ablations=ablations)
            for name, method, ablations in VARIANTS for degree in DEGREES}
    wide = workload_configs("wide", root, 0)
    runs.update({f"wide/{method}": wide[f"{method}/s1"] for method in ("coal", "marginal-align")})
    return runs


def benchmark_runs(root: Path) -> dict:
    """The runs of ``coalbench``'s ``grid`` at bench seed 0, trained in one
    ``run_experiments`` call and keyed by op name, like ``coal/d100/s1`` or
    ``disable-pseudo-term/d100/s2``. Each run-seed-1 run is an artifact run
    of the ledger: it writes its artifacts and pseudo-label dumps under
    ``root``, to its tag's directory, such as ``coal-disable-pseudo-term/d100``."""
    configs = workload_configs("grid", root, 0)
    for key, config in configs.items():
        _, degree, seed = key.split("/")
        if seed == f"s{SEED}":
            tag = f"{'-'.join((config.method, *config.ablations))}/{degree}"
            configs[key] = replace(config, out_dir=str(root / tag), dump_pseudo=True)
    return dict(zip(configs, trainer.run_experiments(list(configs.values()))))


def ledger_lines(root: Path, benchmark: dict, sampler: dict) -> list[str]:
    """The ledger's lines; ``benchmark`` is ``benchmark_runs(root)`` and
    ``sampler`` is ``conftest.sampler_runs()``."""
    lines = [(f"metrics/{key}", hashlib.sha256(report.metrics_payload().encode()).hexdigest())
             for key, report in sorted({**benchmark, **sampler}.items())]

    runs = ledger_configs(root)
    written = {report.config["out_dir"] for report in benchmark.values()}
    trainer.run_experiments([replace(config, out_dir=str(root / tag), dump_pseudo=True)
                             for tag, config in runs.items() if str(root / tag) not in written])

    def sha256(data: bytes) -> str:
        return hashlib.sha256(data.replace(str(root).encode(), b"<root>")).hexdigest()

    for tag in runs:
        out = root / tag
        doc = json.loads((out / "report.json").read_text())
        del doc["timing"], doc["config"]["out_dir"]
        lines.append((f"{tag}/report.json", sha256(json.dumps(doc, sort_keys=True).encode())))
        for path in sorted(out.iterdir()):
            if path.name != "report.json":
                lines.append((f"{tag}/{path.name}", sha256(path.read_bytes())))

        eval_dir = root / "eval" / tag
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            cli.main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                      "--data", str(out / "target_holdout_manifest.json"),
                      "--out-dir", str(eval_dir)])
        text = stdout.getvalue().replace(str(eval_dir), "<out>")
        lines.append((f"{tag}/eval/stdout", sha256(text.encode())))
        for path in sorted(eval_dir.iterdir()):
            lines.append((f"{tag}/eval/{path.name}", sha256(path.read_bytes())))

    recipe, split = root / "gen-shift-recipe.json", root / "gen-shift"
    recipe.write_text(json.dumps(GEN_SHIFT_RECIPE))
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["gen-shift", "--recipe", str(recipe), "--out", str(split)])
    for name in ("data.csv", "manifest.json"):
        lines.append((f"gen-shift/{name}", sha256((split / name).read_bytes())))
    return [versions()] + [f"{digest}  {name}" for name, digest in lines]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for line in ledger_lines(root, benchmark_runs(root), sampler_runs()):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
