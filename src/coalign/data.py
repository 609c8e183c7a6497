"""Datasets and protocols: synthetic twin domains with conditional feature
shift, the Pareto-based label-shift builder with interpolated degrees,
IDX/CSV ingestion, per-class balanced batching, and split manifests.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConsistencyError,
    FormatError,
    LengthError,
    ProtocolError,
    SamplerError,
    UsageError,
)

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

DIRECTION_SOURCE = "source-reversed"
DIRECTION_TARGET = "target-ranked"
SPLIT_PARTS = ("train", "holdout")


@dataclass
class LabeledDataset:
    """Feature matrix plus integer class labels for one domain."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    provenance: str = ""

    def __post_init__(self) -> None:
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise UsageError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise UsageError(
                f"{self.labels.shape[0]} labels for {self.features.shape[0]} feature rows"
            )
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise UsageError(f"labels outside [0, {self.num_classes})")

    def __len__(self) -> int:
        return self.features.shape[0]

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_classes)

    def subset(self, indices: np.ndarray, provenance: str | None = None) -> "LabeledDataset":
        return LabeledDataset(
            self.features[indices],
            self.labels[indices],
            self.num_classes,
            provenance if provenance is not None else self.provenance,
        )


@dataclass(frozen=True)
class ShiftSpec:
    """Declarative label-shift request: degree 0 is balanced, degree 100 is
    the full long-tailed profile in the given direction."""

    pareto_alpha: float
    direction: str
    degree: float
    budget: int
    min_per_class: int = 2

    def __post_init__(self) -> None:
        if self.direction not in (DIRECTION_SOURCE, DIRECTION_TARGET):
            raise UsageError(
                f"direction must be {DIRECTION_SOURCE!r} or {DIRECTION_TARGET!r}, got {self.direction!r}"
            )
        if not 0.0 <= self.degree <= 100.0:
            raise UsageError(f"shift degree must be in [0, 100], got {self.degree}")
        if self.pareto_alpha <= 0:
            raise UsageError(f"pareto_alpha must be positive, got {self.pareto_alpha}")


def pareto_proportions(num_classes: int, alpha: float) -> np.ndarray:
    """Ranked long-tail proportions: the density x^-(alpha+1) evaluated at
    equally spaced points on [1, 2], normalized, strictly decreasing."""
    if num_classes < 2:
        raise UsageError(f"need at least 2 classes, got {num_classes}")
    if alpha <= 0:
        raise UsageError(f"alpha must be positive, got {alpha}")
    x = 1.0 + np.arange(num_classes) / (num_classes - 1)
    weights = x ** -(alpha + 1.0)
    return weights / weights.sum()


def shift_proportions(num_classes: int, spec: ShiftSpec) -> np.ndarray:
    """Per-class proportions for a spec: ranked Pareto weights are assigned
    in descending order starting at class 0 (target-ranked) or class c-1
    (source-reversed), then interpolated toward uniform by the degree."""
    ranked = pareto_proportions(num_classes, spec.pareto_alpha)
    if spec.direction == DIRECTION_SOURCE:
        ranked = ranked[::-1]
    t = spec.degree / 100.0
    return (1.0 - t) / num_classes + t * ranked


def largest_remainder_counts(proportions: np.ndarray, budget: int) -> np.ndarray:
    """Integer counts summing to the budget; each count is within 1 of the
    exact real value. Remainder ties go to the lower class index."""
    exact = proportions * budget
    counts = np.floor(exact).astype(np.int64)
    remainder = exact - counts
    leftover = budget - int(counts.sum())
    order = np.lexsort((np.arange(len(proportions)), -remainder))
    counts[order[:leftover]] += 1
    return counts


def build_shift(dataset: LabeledDataset, spec: ShiftSpec, seed: int) -> LabeledDataset:
    """Subsample a dataset to the spec's label distribution, without
    replacement, preserving the total budget exactly."""
    props = shift_proportions(dataset.num_classes, spec)
    counts = largest_remainder_counts(props, spec.budget)
    available = dataset.class_counts()
    for cls, (need, have) in enumerate(zip(counts, available)):
        if need < spec.min_per_class:
            raise ProtocolError(
                f"class {cls} would get {need} samples, below the minimum {spec.min_per_class}"
            )
        if need > have:
            raise ProtocolError(
                f"class {cls} needs {need} samples but only {have} available (shortfall {need - have})"
            )
    rng = np.random.default_rng(seed)
    picked = []
    for cls in range(dataset.num_classes):
        members = np.flatnonzero(dataset.labels == cls)
        picked.append(rng.choice(members, size=counts[cls], replace=False))
    indices = np.concatenate(picked)
    indices = indices[rng.permutation(len(indices))]
    tag = f"{dataset.provenance}|shift(d={spec.degree:g},a={spec.pareto_alpha:g},{spec.direction})"
    return dataset.subset(indices, provenance=tag)


def generate_twin_domains(
    num_classes: int,
    per_class: int,
    noise: float,
    rotation_deg: float = 0.0,
    translation: tuple[float, float] = (0.0, 0.0),
    radius: float = 2.0,
    means: np.ndarray | None = None,
    seed: int = 0,
) -> tuple[LabeledDataset, LabeledDataset]:
    """Two balanced 2-D domains sharing class blobs, with the target's
    class-conditional densities rotated and translated relative to the source.
    """
    if means is None:
        angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
        means = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    else:
        means = np.asarray(means, dtype=np.float64)
        if means.shape != (num_classes, 2):
            raise UsageError(f"means must be ({num_classes}, 2), got {means.shape}")
    theta = math.radians(rotation_deg)
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    shift = np.asarray(translation, dtype=np.float64)

    def sample_domain(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        feats = np.vstack(
            [means[c] + noise * rng.standard_normal((per_class, 2)) for c in range(num_classes)]
        )
        labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
        perm = rng.permutation(len(labels))
        return feats[perm], labels[perm]

    src_x, src_y = sample_domain(np.random.default_rng([seed, 0]))
    tgt_x, tgt_y = sample_domain(np.random.default_rng([seed, 1]))
    tgt_x = tgt_x @ rot.T + shift
    source = LabeledDataset(src_x, src_y, num_classes, provenance=f"twin(seed={seed},src)")
    target = LabeledDataset(tgt_x, tgt_y, num_classes, provenance=f"twin(seed={seed},tgt)")
    return source, target


def load_idx(images_path: str | Path, labels_path: str | Path) -> LabeledDataset:
    """Read an IDX image/label file pair; pixels are scaled to [0, 1]."""
    raw = Path(images_path).read_bytes()
    if len(raw) < 16:
        raise LengthError(f"{images_path}: header truncated ({len(raw)} bytes)")
    magic, count, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise FormatError(f"{images_path}: bad magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}")
    expected = 16 + count * rows * cols
    if len(raw) != expected:
        raise LengthError(f"{images_path}: {len(raw)} bytes, header promises {expected}")

    raw_labels = Path(labels_path).read_bytes()
    if len(raw_labels) < 8:
        raise LengthError(f"{labels_path}: header truncated ({len(raw_labels)} bytes)")
    lmagic, lcount = struct.unpack(">II", raw_labels[:8])
    if lmagic != IDX_LABELS_MAGIC:
        raise FormatError(f"{labels_path}: bad magic 0x{lmagic:08x}, expected 0x{IDX_LABELS_MAGIC:08x}")
    if len(raw_labels) != 8 + lcount:
        raise LengthError(f"{labels_path}: {len(raw_labels)} bytes, header promises {8 + lcount}")
    if lcount != count:
        raise ConsistencyError(f"{count} images but {lcount} labels")

    pixels = np.frombuffer(raw, dtype=np.uint8, offset=16).reshape(count, rows * cols)
    labels = np.frombuffer(raw_labels, dtype=np.uint8, offset=8).astype(np.int64)
    features = pixels.astype(np.float64) / 255.0
    num_classes = int(labels.max()) + 1 if labels.size else 1
    return LabeledDataset(features, labels, num_classes, provenance=f"idx:{images_path}")


def write_idx(
    dataset: LabeledDataset, images_path: str | Path, labels_path: str | Path, rows: int, cols: int
) -> None:
    """Inverse of load_idx for fixtures: [0,1] features back to pixel bytes."""
    if rows * cols != dataset.features.shape[1]:
        raise UsageError(f"{rows}x{cols} grid does not match {dataset.features.shape[1]} features")
    pixels = np.rint(dataset.features * 255.0).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, len(dataset), rows, cols))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, len(dataset)))
        fh.write(dataset.labels.astype(np.uint8).tobytes())


def load_csv(path: str | Path) -> LabeledDataset:
    """CSV with a header row, float feature columns, and a final integer
    label column. Every row has the same number of cells, and every cell is
    a finite number."""
    try:
        table = np.genfromtxt(path, delimiter=",", skip_header=1, dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise FormatError(f"{path}: rows differ in length: {exc}") from exc
    if table.shape[1] < 2:
        raise FormatError(f"{path}: need at least one feature column and one label column")
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        row, col = bad[0]
        raise FormatError(f"{path}: data row {row + 1}, column {col + 1} is not a finite number")
    labels = table[:, -1]
    if not np.all(labels == np.rint(labels)):
        raise FormatError(f"{path}: final column must hold integer labels")
    labels = labels.astype(np.int64)
    return LabeledDataset(
        table[:, :-1], labels, int(labels.max()) + 1, provenance=f"csv:{path}"
    )


def stratified_split(
    dataset: LabeledDataset, holdout_fraction: float, seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """Seeded per-class split; both sides keep at least one sample per class."""
    if not 0.0 < holdout_fraction < 1.0:
        raise UsageError(f"holdout fraction must be in (0, 1), got {holdout_fraction}")
    rng = np.random.default_rng(seed)
    hold_idx, main_idx = [], []
    for cls in range(dataset.num_classes):
        members = np.flatnonzero(dataset.labels == cls)
        if len(members) < 2:
            raise ProtocolError(f"class {cls} has {len(members)} samples; cannot split")
        take = min(len(members) - 1, max(1, int(round(holdout_fraction * len(members)))))
        members = members[rng.permutation(len(members))]
        hold_idx.append(members[:take])
        main_idx.append(members[take:])
    main = np.sort(np.concatenate(main_idx))
    hold = np.sort(np.concatenate(hold_idx))
    return dataset.subset(main, dataset.provenance + "|train"), dataset.subset(
        hold, dataset.provenance + "|holdout"
    )


def _require(section: dict, keys: tuple[str, ...], name: str) -> None:
    """Raise UsageError naming each of ``keys`` that the recipe ``section``
    lacks; recipes come from manifest files on disk."""
    if not isinstance(section, dict):
        raise UsageError(f"{name} must be a mapping, got {section!r}")
    missing = [key for key in keys if key not in section]
    if missing:
        raise UsageError(f"{name} is missing {', '.join(missing)}")


def take_split(dataset: LabeledDataset, split: dict) -> LabeledDataset:
    """The part of a seeded stratified split named by a recipe's ``split``
    block: ``{"holdout_fraction": f, "seed": s, "part": "train" | "holdout"}``."""
    _require(split, ("holdout_fraction", "part", "seed"), "split block")
    if split["part"] not in SPLIT_PARTS:
        raise UsageError(f"split part must be one of {SPLIT_PARTS}, got {split['part']!r}")
    train, holdout = stratified_split(dataset, split["holdout_fraction"], seed=split["seed"])
    return train if split["part"] == "train" else holdout


def balanced_batches(dataset: LabeledDataset, batch_size: int, seed) -> list[np.ndarray]:
    """One epoch of class-balanced batches: floor(B/c) draws per class, the
    remainder rotating round-robin over a per-epoch class order; exhausted
    classes reshuffle and recycle, oversampling minorities."""
    counts = dataset.class_counts()
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise SamplerError(f"class {int(empty[0])} has no samples")
    c = dataset.num_classes
    rng = np.random.default_rng(seed)
    queues = []
    for cls in range(c):
        members = np.flatnonzero(dataset.labels == cls)
        queues.append(list(members[rng.permutation(len(members))]))
    positions = [0] * c

    def draw(cls: int, n: int) -> list[int]:
        out = []
        while n > 0:
            queue = queues[cls]
            if positions[cls] >= len(queue):
                members = np.flatnonzero(dataset.labels == cls)
                queues[cls] = list(members[rng.permutation(len(members))])
                positions[cls] = 0
                queue = queues[cls]
            take = min(n, len(queue) - positions[cls])
            out.extend(queue[positions[cls] : positions[cls] + take])
            positions[cls] += take
            n -= take
        return out

    base, rem = divmod(batch_size, c)
    class_order = rng.permutation(c)
    n_batches = math.ceil(len(dataset) / batch_size)
    plan = []
    for b in range(n_batches):
        batch = []
        for cls in range(c):
            batch.extend(draw(cls, base))
        for j in range(rem):
            batch.extend(draw(int(class_order[(b * rem + j) % c]), 1))
        batch = np.array(batch, dtype=np.int64)
        plan.append(batch[rng.permutation(len(batch))])
    return plan


def natural_batches(dataset: LabeledDataset, batch_size: int, seed) -> list[np.ndarray]:
    """Plain shuffled batching; every index appears exactly once."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(dataset))
    return [order[i : i + batch_size] for i in range(0, len(order), batch_size)]


def dataset_fingerprint(dataset: LabeledDataset) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(dataset.features).tobytes())
    digest.update(np.ascontiguousarray(dataset.labels).tobytes())
    return digest.hexdigest()


def read_json_object(path: str | Path, error: type[Exception]) -> dict:
    """The JSON object stored at ``path``; an unreadable file, invalid JSON
    or any other JSON value raises ``error`` naming the path."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{path} must hold a JSON object, got {type(doc).__name__}")
    return doc


def write_manifest(dataset: LabeledDataset, path: str | Path, recipe: dict, seed: int) -> None:
    """Split manifest: per-class counts, the recipe that regenerates the
    split, the seed, and a content hash for verification."""
    doc = {
        "num_classes": dataset.num_classes,
        "per_class_counts": dataset.class_counts().tolist(),
        "total": len(dataset),
        "recipe": recipe,
        "seed": seed,
        "sha256": dataset_fingerprint(dataset),
        "provenance": dataset.provenance,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True))


def materialize_dataset(recipe: dict) -> LabeledDataset:
    """Rebuild a dataset from a manifest recipe.

    Recipes have kind twin-gaussians (with a ``domain`` selector), csv, or
    idx; an optional ``shift`` section applies the label-shift protocol, and
    an optional ``split`` section then keeps one part of a stratified split
    (see :func:`take_split`).
    """
    _require(recipe, ("kind",), "dataset recipe")
    kind = recipe["kind"]
    if kind == "twin-gaussians":
        _require(recipe, ("domain", "generator"), "twin-gaussians recipe")
        if recipe["domain"] not in ("source", "target"):
            raise UsageError(
                f"twin-gaussians recipe domain must be 'source' or 'target', got {recipe['domain']!r}"
            )
        gen = recipe["generator"]
        _require(gen, ("num_classes", "per_class", "noise"), "twin-gaussians generator")
        source, target = generate_twin_domains(
            num_classes=gen["num_classes"],
            per_class=gen["per_class"],
            noise=gen["noise"],
            rotation_deg=gen.get("rotation_deg", 0.0),
            translation=tuple(gen.get("translation", (0.0, 0.0))),
            radius=gen.get("radius", 2.0),
            means=np.asarray(gen["means"], dtype=np.float64) if "means" in gen else None,
            seed=gen.get("seed", 0),
        )
        base = source if recipe["domain"] == "source" else target
    elif kind == "csv":
        _require(recipe, ("path",), "csv recipe")
        base = load_csv(recipe["path"])
    elif kind == "idx":
        _require(recipe, ("images", "labels"), "idx recipe")
        base = load_idx(recipe["images"], recipe["labels"])
    else:
        raise UsageError(f"unknown dataset recipe kind {kind!r}")
    shift = recipe.get("shift")
    if shift:
        _require(shift, ("pareto_alpha", "direction", "degree", "budget"), "shift block")
        spec = ShiftSpec(
            pareto_alpha=shift["pareto_alpha"],
            direction=shift["direction"],
            degree=shift["degree"],
            budget=shift["budget"],
            min_per_class=shift.get("min_per_class", 2),
        )
        base = build_shift(base, spec, seed=shift.get("seed", 0))
    split = recipe.get("split")
    if split:
        base = take_split(base, split)
    return base
