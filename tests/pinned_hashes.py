"""Print a name and a sha256 for every artifact of the pinned-fixture runs.

The runs are coal (full, each single ablation and both ablations),
marginal-align and source-only on the pinned twin-Gaussian fixture of
``conftest.fixture_config``, at shift degrees 0 and 100 and seed 1, each
with an ``out_dir`` and pseudo-label dumps. Each checkpoint is then
evaluated by ``coalign eval`` on its holdout manifest. Two commits give the
same outputs when their printed lines are the same:

    PYTHONPATH=src python tests/pinned_hashes.py > before.txt
    # check out the other commit
    PYTHONPATH=src python tests/pinned_hashes.py > after.txt
    diff before.txt after.txt

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
from coalign.trainer import run_experiment

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
    lines = []
    for name, method, ablations in VARIANTS:
        for degree in DEGREES:
            tag = f"{name}/d{degree:g}"
            out = root / tag
            config = fixture_config(method, SEED, degree, ablations=ablations,
                                    out_dir=str(out), dump_pseudo=True)
            report = run_experiment(config)
            lines.append((f"{tag}/metrics_payload", sha256(report.metrics_payload().encode())))
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
