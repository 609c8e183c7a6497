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
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConsistencyError, FormatError, UsageError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

DIRECTION_SOURCE = "source-reversed"
DIRECTION_TARGET = "target-ranked"
DIRECTIONS = (DIRECTION_SOURCE, DIRECTION_TARGET)
SPLIT_PARTS = ("train", "holdout")


@dataclass
class LabeledDataset:
    """Feature matrix plus integer class labels for one domain."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        require({"num_classes": self.num_classes}, "", num_classes=POSITIVE_INT)
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

    def subset(self, indices: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(self.features[indices], self.labels[indices], self.num_classes)


def pareto_proportions(num_classes: int, alpha: float) -> np.ndarray:
    """Ranked long-tail proportions: the density x^-(alpha+1) evaluated at
    equally spaced points on [1, 2], normalized, strictly decreasing."""
    require({"num_classes": num_classes, "alpha": alpha}, "", alpha=POSITIVE_REAL,
            num_classes=(lambda v: _is_int(v) and v >= 2, "be an integer of at least 2"))
    x = 1.0 + np.arange(num_classes) / (num_classes - 1)
    weights = x ** -(alpha + 1.0)
    return weights / weights.sum()


def shift_proportions(num_classes: int, shift: dict) -> np.ndarray:
    """Per-class proportions for a recipe's ``shift`` block (its rules are
    ``SHIFT_RULES``): ranked Pareto weights are assigned in descending
    order starting at class 0 (target-ranked) or class c-1
    (source-reversed), then interpolated toward uniform by the degree, 0
    balanced and 100 the full long-tailed profile."""
    require(shift, "shift block ", _SHIFT_KEYS, known=(*_SHIFT_KEYS, "min_per_class", "seed"),
            **SHIFT_RULES)
    ranked = pareto_proportions(num_classes, shift["pareto_alpha"])
    if shift["direction"] == DIRECTION_SOURCE:
        ranked = ranked[::-1]
    t = shift["degree"] / 100.0
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


def build_shift(dataset: LabeledDataset, shift: dict) -> LabeledDataset:
    """Subsample a dataset to the label distribution of a ``shift`` block,
    without replacement, preserving its total ``budget`` exactly; the block's
    ``seed`` (default 0) seeds the draw, and every class must get at least
    its ``min_per_class`` (default 2) samples."""
    props = shift_proportions(dataset.num_classes, shift)
    counts = largest_remainder_counts(props, shift["budget"])
    min_per_class = shift.get("min_per_class", 2)
    rng = np.random.default_rng(shift.get("seed", 0))
    picked = []
    for cls, need in enumerate(counts):
        if need < min_per_class:
            raise UsageError(f"class {cls} would get {need} samples, below the minimum {min_per_class}")
        members = np.flatnonzero(dataset.labels == cls)
        if need > len(members):
            raise UsageError(f"class {cls} needs {need} samples but only {len(members)} available "
                             f"(shortfall {need - len(members)})")
        picked.append(rng.choice(members, size=need, replace=False))
    indices = np.concatenate(picked)
    return dataset.subset(indices[rng.permutation(len(indices))])


def generate_twin_domain(
    domain: str,
    num_classes: int,
    per_class: int,
    noise: float,
    rotation_deg: float = 0.0,
    translation: tuple[float, float] = (0.0, 0.0),
    radius: float = 2.0,
    means: np.ndarray | None = None,
    seed: int = 0,
) -> LabeledDataset:
    """The ``"source"`` or ``"target"`` one of two balanced 2-D domains sharing
    class blobs, each drawn from its own stream; the target's class-conditional
    densities are rotated and translated relative to the source."""
    if means is None:
        angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
        means = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    elif np.shape(means) != (num_classes, 2):
        raise UsageError(f"twin-gaussians generator means must hold {num_classes} pairs, got {means!r}")
    target = domain == "target"
    rng = np.random.default_rng([seed, int(target)])
    feats = np.vstack(
        [means[c] + noise * rng.standard_normal((per_class, 2)) for c in range(num_classes)]
    )
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    perm = rng.permutation(len(labels))
    feats, labels = feats[perm], labels[perm]
    if target:
        theta = math.radians(rotation_deg)
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        feats = feats @ rot.T + np.asarray(translation, dtype=np.float64)
    return LabeledDataset(feats, labels, num_classes)


def _read_idx(path: str | Path, magic: int, ndim: int) -> tuple[list[int], np.ndarray]:
    """The ``ndim`` header sizes and the byte body of the IDX file at
    ``path``; a file that cannot be read, is shorter than its header, holds
    another magic or another length than its sizes promise raises
    ``FormatError`` naming the path."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read {exc.filename}: {exc}") from exc
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise FormatError(f"{path}: header truncated ({len(raw)} bytes)")
    found, *sizes = struct.unpack(f">{1 + ndim}I", raw[:header])
    if found != magic:
        raise FormatError(f"{path}: bad magic 0x{found:08x}, expected 0x{magic:08x}")
    expected = header + math.prod(sizes)
    if len(raw) != expected:
        raise FormatError(f"{path}: {len(raw)} bytes, header promises {expected}")
    return sizes, np.frombuffer(raw, dtype=np.uint8, offset=header)


def load_idx(images_path: str | Path, labels_path: str | Path) -> LabeledDataset:
    """Read an IDX image/label file pair; pixels are scaled to [0, 1]."""
    (count, rows, cols), pixels = _read_idx(images_path, IDX_IMAGES_MAGIC, 3)
    (lcount,), labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1)
    if lcount != count:
        raise ConsistencyError(f"{count} images but {lcount} labels")
    features = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0
    num_classes = int(labels.max()) + 1 if labels.size else 1
    return LabeledDataset(features, labels, num_classes)


def write_idx(
    dataset: LabeledDataset, images_path: str | Path, labels_path: str | Path, rows: int, cols: int
) -> None:
    """Inverse of load_idx for fixtures: [0,1] features back to pixel bytes.
    A feature outside [0, 1] or not finite, or a label above 255, fails
    naming its row instead of wrapping into a byte."""
    if rows * cols != dataset.features.shape[1]:
        raise UsageError(f"{rows}x{cols} grid does not match {dataset.features.shape[1]} features")
    bad = np.argwhere(~((dataset.features >= 0.0) & (dataset.features <= 1.0)))
    if bad.size:
        row, col = bad[0]
        raise UsageError(f"row {row}, column {col} holds feature {float(dataset.features[row, col])}; "
                         "an IDX pixel holds a finite feature in [0, 1]")
    over = np.flatnonzero(dataset.labels > 255)
    if over.size:
        raise UsageError(f"row {over[0]} holds label {dataset.labels[over[0]]}; an IDX label is at most 255")
    scaled = dataset.features * 255.0
    pixels = np.rint(scaled, out=scaled).astype(np.uint8)
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
    return LabeledDataset(table[:, :-1], labels, int(labels.max()) + 1)


def _is_int(value) -> bool:
    """A non-boolean Python int that an int64 holds; inputs hold these for
    counts, widths and seeds."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and abs(value) <= np.iinfo(np.int64).max)


def _is_finite_real(value) -> bool:
    """A finite, non-boolean real number; an int beyond float range is not one."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


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
REAL_PAIR = (lambda v: isinstance(v, (list, tuple)) and len(v) == 2
             and all(_is_finite_real(x) for x in v), "be a pair of finite numbers")
REAL_PAIRS = (lambda v: isinstance(v, (list, tuple)) and all(REAL_PAIR[0](p) for p in v),
              "be a list of pairs of finite numbers")
MAPPING = (lambda v: isinstance(v, dict), "be a mapping")
STRING = (lambda v: isinstance(v, str), "be a string")
OPTIONAL_STR = (lambda v: v is None or isinstance(v, str), "be a string or null")
PERCENT = (lambda v: _is_finite_real(v) and 0 <= v <= 100, "lie in [0, 100]")

# the rules of a recipe's shift block, the keys it needs and its defaults:
# min_per_class 2 and seed 0
_SHIFT_KEYS = ("pareto_alpha", "direction", "degree", "budget")
SHIFT_RULES = {"pareto_alpha": POSITIVE_REAL,
               "direction": (lambda v: v in DIRECTIONS, f"be one of {DIRECTIONS}"),
               "degree": PERCENT, "budget": POSITIVE_INT, "min_per_class": NONNEGATIVE_INT,
               "seed": SEED}


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
    block: ``{"holdout_fraction": f, "seed": s, "part": "train" | "holdout"}``.
    Both parts keep at least one sample of every class."""
    keys = ("holdout_fraction", "part", "seed")
    require(split, "split block ", keys, known=keys, holdout_fraction=FRACTION, seed=SEED,
            part=(lambda v: v in SPLIT_PARTS, f"be one of {SPLIT_PARTS}"))
    rng = np.random.default_rng(split["seed"])
    picked = []
    for cls in range(dataset.num_classes):
        members = np.flatnonzero(dataset.labels == cls)
        if len(members) < 2:
            raise UsageError(f"class {cls} has {len(members)} samples; cannot split")
        take = min(len(members) - 1, max(1, int(round(split["holdout_fraction"] * len(members)))))
        members = members[rng.permutation(len(members))]
        picked.append(members[:take] if split["part"] == "holdout" else members[take:])
    return dataset.subset(np.sort(np.concatenate(picked)))


def balanced_batches(dataset: LabeledDataset, batch_size: int, seed) -> list[np.ndarray]:
    """One epoch of class-balanced batches: floor(B/c) draws per class, the
    remainder rotating round-robin over a per-epoch class order; exhausted
    classes reshuffle and recycle, oversampling minorities."""
    require({"batch_size": batch_size}, "", batch_size=POSITIVE_INT)
    counts = dataset.class_counts()
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise UsageError(f"class {int(empty[0])} has no samples")
    c = dataset.num_classes
    rng = np.random.default_rng(seed)
    members = [np.flatnonzero(dataset.labels == cls) for cls in range(c)]
    streams = [_reshuffled(m, m[rng.permutation(len(m))], rng) for m in members]
    base, rem = divmod(batch_size, c)
    class_order = rng.permutation(c)
    fixed = [cls for cls in range(c) for _ in range(base)]
    plan = []
    for b in range(math.ceil(len(dataset) / batch_size)):
        rotating = [int(class_order[(b * rem + j) % c]) for j in range(rem)]
        batch = np.array([next(streams[cls]) for cls in fixed + rotating], dtype=np.int64)
        plan.append(batch[rng.permutation(len(batch))])
    return plan


def _reshuffled(members: np.ndarray, order: np.ndarray, rng: np.random.Generator):
    """``order``, then ``members`` reshuffled by ``rng`` each time the
    previous order runs out, drawn only when the next item is needed."""
    while True:
        yield from order
        order = members[rng.permutation(len(members))]


def natural_batches(dataset: LabeledDataset, batch_size: int, seed) -> list[np.ndarray]:
    """Plain shuffled batching; every index appears exactly once."""
    require({"batch_size": batch_size}, "", batch_size=POSITIVE_INT)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(dataset))
    return [order[i : i + batch_size] for i in range(0, len(order), batch_size)]


def dataset_fingerprint(dataset: LabeledDataset) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(dataset.features).tobytes())
    digest.update(np.ascontiguousarray(dataset.labels).tobytes())
    return digest.hexdigest()


def read_json_object(path: str | Path) -> dict:
    """The JSON object stored at ``path``; an unreadable file, invalid JSON,
    JSON nested past the decoder's recursion limit or any other JSON value
    raises ``FormatError`` naming the path."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path} must hold a JSON object, got {type(doc).__name__}")
    return doc


def make_out_dir(path: str | Path) -> Path:
    """The output directory at ``path``, made with its parents when missing;
    a path at or below a file, or any other directory that cannot be made,
    raises ``UsageError`` naming the path."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot make output directory {path}: {exc.strerror}") from exc
    return path


def build_manifest(dataset: LabeledDataset, recipe: dict) -> dict:
    """Split manifest: per-class counts, the recipe that regenerates the
    split (the one record of where its rows came from), and a content hash
    for verification."""
    return {
        "num_classes": dataset.num_classes,
        "per_class_counts": dataset.class_counts().tolist(),
        "total": len(dataset),
        "recipe": recipe,
        "sha256": dataset_fingerprint(dataset),
    }


def write_manifest(dataset: LabeledDataset, path: str | Path, recipe: dict) -> None:
    """Write the :func:`build_manifest` document of ``dataset`` to ``path``."""
    Path(path).write_text(json.dumps(build_manifest(dataset, recipe), indent=2, sort_keys=True))


def materialize_dataset(recipe: dict) -> LabeledDataset:
    """Rebuild a dataset from a manifest recipe.

    Recipes have kind twin-gaussians (with a ``domain`` selector), csv, or
    idx; an optional ``shift`` section applies the label-shift protocol, and
    an optional ``split`` section then keeps one part of a stratified split
    (see :func:`take_split`). Each section is applied unless it is null.
    """
    require(recipe, "dataset recipe ", ("kind",),
            kind=(lambda v: v in tuple(_RECIPE_KEYS), f"be one of {tuple(_RECIPE_KEYS)}"))
    kind = recipe["kind"]
    block = (lambda v: v is None or isinstance(v, dict), "be a mapping or null")
    require(recipe, f"{kind} recipe ", _RECIPE_KEYS[kind],
            known=("kind", "shift", "split", *_RECIPE_KEYS[kind]),
            domain=(lambda v: v in ("source", "target"), "be 'source' or 'target'"),
            path=STRING, images=STRING, labels=STRING, shift=block, split=block)
    if kind == "twin-gaussians":
        gen = recipe["generator"]
        require(gen, "twin-gaussians generator ", ("num_classes", "per_class", "noise"),
                known=("num_classes", "per_class", "noise", "rotation_deg", "translation",
                       "radius", "means", "seed"),
                num_classes=POSITIVE_INT, per_class=POSITIVE_INT, noise=NONNEGATIVE_REAL,
                rotation_deg=REAL, translation=REAL_PAIR, radius=REAL, means=REAL_PAIRS,
                seed=NONNEGATIVE_INT)
        base = generate_twin_domain(recipe["domain"], **gen)
    elif kind == "csv":
        base = load_csv(recipe["path"])
    else:
        base = load_idx(recipe["images"], recipe["labels"])
    if recipe.get("shift") is not None:
        base = build_shift(base, recipe["shift"])
    if recipe.get("split") is not None:
        base = take_split(base, recipe["split"])
    return base
