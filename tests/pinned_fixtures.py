"""The suite's pytest fixtures, a plugin that ``conftest.py`` names in
``pytest_plugins``: the csv and idx recipes, and the session's pinned runs.

They live here and not in ``conftest.py`` because the benchmark loads
``conftest.py`` by path for the pinned configuration, and a module-level
pytest import there costs every benchmark process pytest's memory and
start-up. The module is not called ``fixtures``: pytest has a built-in
plugin of that name, and a module of that name would not load.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import sampler_runs
from pinned_hashes import benchmark_runs

from coalign import data as D


@pytest.fixture(scope="session")
def file_recipes(tmp_path_factory):
    """csv and idx recipes for the same 90 labelled rows (classes of 40, 30
    and 20 rows, 2x2-pixel features), keyed by kind; the files are written
    once per session, and no test writes to them."""
    tmp_path = tmp_path_factory.mktemp("file_recipes")
    rng = np.random.default_rng(0)
    labels = rng.permutation(np.repeat(np.arange(3), (40, 30, 20)))
    dataset = D.LabeledDataset(rng.integers(0, 256, (90, 4)) / 255.0, labels, 3)
    path = tmp_path / "rows.csv"
    path.write_text("x0,x1,x2,x3,label\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + f",{label}\n"
        for row, label in zip(dataset.features, labels)))
    D.write_idx(dataset, tmp_path / "images.idx", tmp_path / "labels.idx", 2, 2)
    return {"csv": {"kind": "csv", "path": str(path)},
            "idx": {"kind": "idx", "images": str(tmp_path / "images.idx"),
                    "labels": str(tmp_path / "labels.idx")}}


@pytest.fixture(scope="session")
def pinned_root(tmp_path_factory):
    """Where the session's pinned runs write the artifacts the ledger hashes."""
    return tmp_path_factory.mktemp("pinned")


@pytest.fixture(scope="session")
def benchmark_grid(pinned_root):
    """The benchmark's ``grid`` runs, keyed by op name like ``coal/d100/s1``."""
    return benchmark_runs(pinned_root)


@pytest.fixture(scope="session")
def sampler_grid():
    """The sampler study's runs, keyed like ``natural/s3``."""
    return sampler_runs()
