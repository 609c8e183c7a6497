"""Print a name and a sha256 for every artifact of the pinned-fixture runs.

The runs are coal (full, each single ablation and both ablations),
marginal-align and source-only on the pinned twin-Gaussian fixture of
``conftest.fixture_config``, at shift degrees 0 and 100 and seed 1, each
with an ``out_dir`` and pseudo-label dumps. Each checkpoint is then
evaluated by ``coalign eval`` on its holdout manifest.

It prints one ``<sha256>  <name>`` line per artifact.
``tests/pinned_hashes.txt`` holds the committed lines; a change is checked
against them, and a change that moves an artifact on purpose rewrites them:

    PYTHONPATH=src python tests/pinned_hashes.py | diff tests/pinned_hashes.txt -
    PYTHONPATH=src python tests/pinned_hashes.py > tests/pinned_hashes.txt

The hashes hold for the numpy and BLAS builds they were written with. The
metrics payloads of these runs are pinned by ``tests/pinned_metrics.json``
and by the ``metrics.jsonl`` and ``report.json`` hashes here.

``report.json`` is hashed without its ``timing`` and ``out_dir``, which
differ between runs, and eval stdout with its output directory replaced.
pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from conftest import fixture_config

from coalign import cli
from coalign.trainer import run_experiments

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


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_hashes(root: Path) -> list[tuple[str, str]]:
    runs = {f"{name}/d{degree:g}": (method, degree, ablations)
            for name, method, ablations in VARIANTS for degree in DEGREES}
    run_experiments([fixture_config(method, SEED, degree, ablations=ablations,
                                    out_dir=str(root / tag), dump_pseudo=True)
                     for tag, (method, degree, ablations) in runs.items()])
    lines = []
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
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in run_hashes(Path(tmp)):
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
