#!/usr/bin/env python3
"""coalign benchmark: one workload, end-to-end metrics or a traced run.

    python3 coalbench/run.py --workload wide --seed 0 --seconds 25 --trace 0

Imports coalign from the checkout's ``src/`` and writes its inputs and
outputs under a temporary directory in the checkout, which it removes.
Set-up (coalign import, input generation, one untimed warm-up op) is
repeated and its median reported. Then whole passes over the workload's
ops run until ``--seconds`` have elapsed. After each pass, untimed, every
op's outputs are checked and one training run is repeated, which must
give byte-identical metrics.

An op fails if it raises, yields a non-finite metric, writes an artifact
that does not parse, disagrees with its metrics.jsonl step count or is not
repeatable; an eval also fails when its holdout manifest hash does not
match the regenerated dataset. Failed ops count in ``failed``.
``correct`` is false when a reported metric cannot be trusted: an op failed
for any reason other than the known holdout-manifest defect
(``workloads.KNOWN_DEFECT``), a run did not repeat, step counts disagreed,
or a count changed between passes.

With ``--trace 0`` the last line holds the end-to-end metrics that
BENCHMARK.json lists; with ``--trace 1``, untraced and traced passes
alternate and it holds the per-layer metrics (see layers.py). Lines before
it give machine facts and every metric with its unit and sample count,
including ``run_p50_s``, which is printed but not listed in BENCHMARK.json:
on a host whose speed flips between two states every few seconds, the
median of a few run latencies jumps from one state to the other, and its
run-to-run spread exceeded the largest bound a listed metric may have.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import layers
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5


@dataclass
class Run:
    op: int
    latency: float
    steps: int
    config: object
    report: object


@dataclass
class Pass:
    wall: float
    results: list
    runs: list[Run]
    traced: bool
    failed: dict[int, list[str]] = field(default_factory=dict)
    untrusted: list[str] = field(default_factory=list)
    hash_mismatch: int = 0
    bytes_written: int = 0
    layer: dict = field(default_factory=dict)


class Probe:
    """Times every training run and counts optimizer steps, by wrapping
    the two trainer names the training code calls; installed for every
    pass, traced or not."""

    def __init__(self):
        self.op = -1
        self.runs: list[Run] = []
        self.steps = 0

    def install(self) -> list:
        trainer = sys.modules["coalign.trainer"]
        run, step = trainer.run_experiment, trainer.sgd_momentum_step

        def run_experiment(config):
            before, t0 = self.steps, time.perf_counter()
            report = run(config)
            self.runs.append(Run(self.op, time.perf_counter() - t0, self.steps - before,
                                 config, report))
            return report

        def sgd_momentum_step(*args, **kwargs):
            self.steps += 1
            return step(*args, **kwargs)

        return tracing.patch(tracing.package_modules().values(),
                             {run: run_experiment, step: sgd_momentum_step})


def import_coalign():
    for name in [n for n in sys.modules if n == "coalign" or n.startswith("coalign.")]:
        del sys.modules[name]
    importlib.import_module("coalign")
    importlib.import_module("coalign.cli")


def setup(workload: str, seed: int, tmp: Path):
    """Import, generate inputs and run the warm-up op SETUP_REPS times;
    returns the last rep's ops, its directory and the set-up times."""
    times = []
    for rep in range(SETUP_REPS):
        root = tmp / f"setup{rep}"
        root.mkdir()
        t0 = time.perf_counter()
        import_coalign()
        ops, warmup = workloads.WORKLOADS[workload](seed, root)
        problems = warmup.check(warmup.run())
        times.append(time.perf_counter() - t0)
        if problems:
            raise RuntimeError(f"warm-up op {warmup.name} failed: {problems}")
        if rep + 1 < SETUP_REPS:
            shutil.rmtree(root)
    return ops, root, times


def run_pass(ops, work: Path, probe: Probe, tracer: tracing.Tracer | None) -> Pass:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    probe.runs = []
    undo = []
    if tracer is not None:
        tracer.reset()
        undo = tracer.install(tracing.package_modules())
    undo += probe.install()
    results = []
    t0 = time.perf_counter()
    try:
        for i, op in enumerate(ops):
            probe.op = i
            try:
                results.append(op.run())
            except (Exception, SystemExit) as exc:  # an op failure, reported per op
                results.append(exc)
                traceback.print_exc(file=sys.stderr)
    finally:
        wall = time.perf_counter() - t0
        tracing.unpatch(undo)
    return Pass(wall, results, probe.runs, tracer is not None)


def _jsonl_lines(path: Path) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh)


def verify(p: Pass, ops, work: Path, repeat: int) -> None:
    """Untimed checks of one pass; fills p.failed and p.untrusted."""
    for i, (op, result) in enumerate(zip(ops, p.results)):
        problems = [repr(result)] if isinstance(result, BaseException) else op.check(result)
        if problems:
            p.failed[i] = problems
            p.hash_mismatch += workloads.HASH_MISMATCH in problems
    for run in p.runs:
        problems = workloads.check_report(run.report)
        if run.config.out_dir:
            out = Path(run.config.out_dir)
            for name in ("report.json", "metrics.jsonl", "checkpoint.json", "source_manifest.json",
                         "target_train_manifest.json", "target_holdout_manifest.json"):
                problems += workloads.parses(out / name)
            if not problems and _jsonl_lines(out / "metrics.jsonl") != run.steps:
                problems.append(f"{run.steps} steps counted, metrics.jsonl has "
                                f"{_jsonl_lines(out / 'metrics.jsonl')} lines")
        if problems:
            p.failed.setdefault(run.op, []).extend(problems)
    if p.runs:
        run = p.runs[repeat % len(p.runs)]
        again = sys.modules["coalign.trainer"].run_experiment(
            replace(run.config, out_dir=None, dump_pseudo=False))
        if again.metrics_payload() != run.report.metrics_payload():
            p.failed.setdefault(run.op, []).append("repeated run gave different metrics")
    for i, problems in p.failed.items():
        if beyond := [x for x in problems if x not in workloads.KNOWN_DEFECT]:
            p.untrusted.append(f"op {ops[i].name}: {'; '.join(beyond)}")
    p.bytes_written = sum(f.stat().st_size for f in work.rglob("*") if f.is_file())


def coal_runs(p: Pass) -> list[Run]:
    """The pass's full-model coal runs (no ablation flags)."""
    return [r for r in p.runs if r.config.method == "coal" and not r.config.ablations]


def pcma_coal(p: Pass) -> float:
    """Mean final per-class mean accuracy of the pass's full-model coal runs."""
    values = [r.report.metrics["final"]["per_class_mean_accuracy"] for r in coal_runs(p)]
    return statistics.fmean(values) if values else float("nan")


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return getattr(handle, symbol)()
    return None


def _git_commit():
    """The checked-out commit hash, or None outside a git checkout."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def facts() -> dict:
    coalign = sys.modules["coalign"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    backend = getattr(coalign, "active_backend", None)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
        "coalign_backend": backend() if backend else None,
        "commit": _git_commit(),
    }


def end_to_end(passes: list[Pass], setup_times: list[float]) -> tuple[dict, list[str]]:
    runs = [r for p in passes for r in p.runs]
    steps = sum(r.steps for r in runs)
    train_s = sum(r.latency for r in runs)
    # the median over coal runs alone: over all runs it would fall between
    # the source-only and the adapting runs, whose latencies differ 2x
    coal = [r.latency for p in passes for r in coal_runs(p)]
    values = {
        "setup_s": (statistics.median(setup_times), "s", f"n={len(setup_times)} set-ups"),
        "wall_s": (statistics.median(p.wall for p in passes), "s", f"n={len(passes)} passes"),
        "steps_per_s": (steps / train_s if train_s else 0.0, "steps/s",
                        f"n={steps} steps in {len(runs)} runs"),
        "run_p50_s": (statistics.median(coal) if coal else float("nan"), "s",
                      f"n={len(coal)} coal runs"),
        "pcma_coal": (pcma_coal(passes[0]), "fraction", f"n={len(coal_runs(passes[0]))} coal runs"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "n=1"),
    }
    untrusted = []
    if len({pcma_coal(p) for p in passes}) != 1:
        untrusted.append("pcma_coal changed between passes")
    if not all(np.isfinite(v) and v > 0 for v, _, _ in values.values()):
        untrusted.append("an end-to-end metric is zero or not finite")
    return values, untrusted


def per_layer(passes: list[Pass]) -> tuple[dict, list[str]]:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    overhead = statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in plain) - 1
    untrusted = []
    for p in traced:
        p.layer["trace.overhead_frac"] = overhead
    for name in layers.COUNTS:
        if len({p.layer[name] for p in traced}) != 1:
            untrusted.append(f"{name} changed between traced passes")
    untraced_steps = {sum(r.steps for r in p.runs) for p in plain}
    if untraced_steps != {traced[0].layer["trainer.steps"]}:
        untrusted.append(f"trainer.steps {traced[0].layer['trainer.steps']} != untraced {untraced_steps}")
    values = {}
    for name, unit, *_ in layers.PER_LAYER:
        samples = [p.layer[name] for p in traced]
        values[name] = (statistics.median(samples), unit, f"n={len(samples)} traced passes")
    return values, untrusted


def measure(args, tmp: Path) -> dict:
    ops, root, setup_times = setup(args.workload, args.seed, tmp)
    work = root / "pass"
    probe = Probe()
    tracer = tracing.Tracer(layers.HOOKS) if args.trace else None
    passes: list[Pass] = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < args.seconds:
        for t in ([None, tracer] if tracer else [None]):
            p = run_pass(ops, work, probe, t)
            verify(p, ops, work, repeat=len(passes))
            if t is not None:
                p.layer = layers.layer_metrics(t.summarize(), bytes_written=p.bytes_written,
                                               hash_mismatch=p.hash_mismatch, overhead_frac=0.0)
            passes.append(p)
    if tracer is not None and args.spans:
        tracer.write(args.spans)

    if args.trace:
        values, untrusted = per_layer(passes)
    else:
        values, untrusted = end_to_end(passes, setup_times)
    listed = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]}
    untrusted += [u for p in passes for u in p.untrusted]
    attempted = len(ops) * len(passes)
    failed = sum(len(p.failed) for p in passes)

    print("facts " + json.dumps(facts(), sort_keys=True))
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} passes={len(passes)}")
    for name, (value, unit, samples) in values.items():
        print(f"  {name:32s} {value:14.6g} {unit:12s} {samples}")
    print(f"  {'fail_frac':32s} {failed / attempted:14.6g} {'fraction':12s} "
          f"{failed} failed of {attempted} ops")
    for i, p in enumerate(passes):
        for op, problems in sorted(p.failed.items()):
            print(f"  pass {i} op {ops[op].name}: {'; '.join(problems)}")
    for problem in sorted(set(untrusted)):
        print(f"  untrusted: {problem}")
    return {
        "correct": not untrusted,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in values.items() if name in listed},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="traced run: write the last traced pass's spans as CSV")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "coalign" / "__init__.py").is_file():
        print(f"coalbench: no coalign package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    tmp = Path(tempfile.mkdtemp(prefix=".coalbench-", dir=ROOT))
    try:
        result = measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
