"""Datasets and protocols: synthetic twin domains with conditional feature
shift, the Pareto-based label-shift builder with interpolated degrees,
IDX/CSV ingestion, per-class balanced batching, and split manifests.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import struct
import warnings
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
    label column. Every row has as many cells as the header, and every cell
    is a finite number; labels are nonnegative."""
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    width = len(lines[0].split(",")) if lines else 0
    try:
        with warnings.catch_warnings():
            # a file without data rows is reported below instead
            warnings.filterwarnings("ignore", "genfromtxt: Empty input file", UserWarning)
            table = np.genfromtxt(lines[1:], delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise FormatError(f"{path}: rows differ in length: {exc}") from exc
    if table.size == 0:
        raise FormatError(f"{path}: has no data rows")
    if table.shape[1] != width:
        raise FormatError(f"{path}: data rows have {table.shape[1]} cells, the header {width}")
    if table.shape[1] < 2:
        raise FormatError(f"{path}: need at least one feature column and one label column")
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        row, col = bad[0]
        raise FormatError(f"{path}: data row {row + 1}, column {col + 1} is not a finite number")
    labels = table[:, -1]
    if not np.all(labels == np.rint(labels)) or labels.min() < 0:
        raise FormatError(f"{path}: final column must hold nonnegative integer labels")
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


def _is_int(value) -> bool:
    """A non-boolean Python int; inputs hold these for counts, widths and seeds."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    """A finite, non-boolean real number."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


# field rules for require, (predicate, rule); each predicate tests the type
# before the value, so a wrongly typed field fails by name, not in a comparison
POSITIVE_INT = (lambda v: _is_int(v) and v > 0, "be a positive integer")
NONNEGATIVE_INT = (lambda v: _is_int(v) and v >= 0, "be a nonnegative integer")
REAL = (_is_finite_real, "be a finite number")
NONNEGATIVE_REAL = (lambda v: _is_finite_real(v) and v >= 0, "be a finite nonnegative number")
POSITIVE_REAL = (lambda v: _is_finite_real(v) and v > 0, "be a finite positive number")
FRACTION = (lambda v: _is_finite_real(v) and 0 < v < 1, "lie in (0, 1)")
WIDTHS = (lambda v: isinstance(v, (list, tuple)) and len(v) > 0
          and all(_is_int(w) and w > 0 for w in v),
          "be a list of at least one positive integer width")
SEED = (lambda v: (_is_int(v) and v >= 0)
        or (isinstance(v, list) and len(v) > 0 and all(_is_int(x) and x >= 0 for x in v)),
        "be a nonnegative integer or a list of them")
MAPPING = (lambda v: isinstance(v, dict), "be a mapping")
OPTIONAL_STR = (lambda v: v is None or isinstance(v, str), "be a string or null")


# the keys each recipe kind needs besides "kind"; any kind may also hold a
# "shift" and a "split" block
_RECIPE_KEYS = {"twin-gaussians": ("domain", "generator"), "csv": ("path",),
                "idx": ("images", "labels")}


def require(section, name: str, keys=(), error: type[Exception] = UsageError, *,
            known=None, **rules) -> None:
    """The one check of an input mapping. Raise ``error`` when ``section``
    is not a mapping, naming each of ``keys`` it lacks and each key outside
    ``known`` (when given), or naming the first present key whose value
    breaks its ``rules`` entry, a ``(predicate, rule)`` pair. ``name``
    prefixes every message: ``"{name}{key} must {rule}, got {value!r}"``."""
    if not isinstance(section, dict):
        raise error(f"{name}must be a mapping, got {section!r}")
    problems = []
    missing = [key for key in keys if key not in section]
    if missing:
        problems.append(f"is missing {', '.join(missing)}")
    unknown = [key for key in section if known is not None and key not in known]
    if unknown:
        problems.append(f"has unknown keys {unknown}")
    if problems:
        raise error(name + " and ".join(problems))
    for key, (ok, rule) in rules.items():
        if key in section and not ok(section[key]):
            raise error(f"{name}{key} must {rule}, got {section[key]!r}")


def take_split(dataset: LabeledDataset, split: dict) -> LabeledDataset:
    """The part of a seeded stratified split named by a recipe's ``split``
    block: ``{"holdout_fraction": f, "seed": s, "part": "train" | "holdout"}``."""
    keys = ("holdout_fraction", "part", "seed")
    require(split, "split block ", keys, known=keys, holdout_fraction=FRACTION, seed=SEED,
            part=(lambda v: v in SPLIT_PARTS, f"be one of {SPLIT_PARTS}"))
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
    members = [np.flatnonzero(dataset.labels == cls) for cls in range(c)]
    queues = [list(m[rng.permutation(len(m))]) for m in members]
    positions = [0] * c

    def draw(cls: int, n: int) -> list[int]:
        out = []
        while n > 0:
            queue = queues[cls]
            if positions[cls] >= len(queue):
                queues[cls] = list(members[cls][rng.permutation(len(members[cls]))])
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
    require(recipe, "dataset recipe ", ("kind",),
            kind=(lambda v: v in tuple(_RECIPE_KEYS), f"be one of {tuple(_RECIPE_KEYS)}"))
    kind = recipe["kind"]
    require(recipe, f"{kind} recipe ", _RECIPE_KEYS[kind],
            known=("kind", "shift", "split", *_RECIPE_KEYS[kind]),
            domain=(lambda v: v in ("source", "target"), "be 'source' or 'target'"))
    if kind == "twin-gaussians":
        gen = recipe["generator"]
        require(gen, "twin-gaussians generator ", ("num_classes", "per_class", "noise"),
                known=("num_classes", "per_class", "noise", "rotation_deg", "translation",
                       "radius", "means", "seed"),
                num_classes=POSITIVE_INT, per_class=POSITIVE_INT, noise=NONNEGATIVE_REAL,
                rotation_deg=REAL, radius=REAL, seed=NONNEGATIVE_INT)
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
        base = load_csv(recipe["path"])
    else:
        base = load_idx(recipe["images"], recipe["labels"])
    shift = recipe.get("shift")
    if shift:
        require(shift, "shift block ", ("pareto_alpha", "direction", "degree", "budget"),
                known=("pareto_alpha", "direction", "degree", "budget", "min_per_class", "seed"),
                pareto_alpha=REAL, degree=REAL, budget=POSITIVE_INT,
                min_per_class=NONNEGATIVE_INT, seed=SEED)
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
