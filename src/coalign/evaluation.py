"""Metrics and reporting: confusion counts, per-class mean accuracy, label
distributions and their JS and L1 distances, a 2-component linear projection
for feature inspection, and method-by-task result tables.
"""

from __future__ import annotations

import csv
import io
import math
import warnings

import numpy as np

from . import data as data_mod
from .errors import FormatError, UsageError


def confusion_matrix(true_labels: np.ndarray, predicted: np.ndarray, num_classes: int) -> np.ndarray:
    """counts[i, j] = number of class-i samples predicted as class j."""
    true_labels = np.asarray(true_labels, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    if true_labels.shape != predicted.shape:
        raise UsageError(f"{true_labels.shape} true labels vs {predicted.shape} predictions")
    for side, labels in (("true", true_labels), ("predicted", predicted)):
        bad = labels[(labels < 0) | (labels >= num_classes)]
        if bad.size:
            raise UsageError(f"{side} label {bad[0]} out of range for {num_classes} classes")
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (true_labels, predicted), 1)
    return counts


def per_class_mean_accuracy(cm: np.ndarray) -> float:
    """Mean over classes of the within-class accuracy; robust to imbalance."""
    row_sums = cm.sum(axis=1)
    missing = np.flatnonzero(row_sums == 0)
    if missing.size:
        raise UsageError(f"class {int(missing[0])} has no samples in the evaluation set")
    return float((np.diag(cm) / row_sums).mean())


def overall_accuracy(cm: np.ndarray) -> float:
    return float(np.diag(cm).sum() / cm.sum())


def scores(labels: np.ndarray, probs: np.ndarray, num_classes: int) -> dict:
    """The argmax of each row of ``probs`` scored against ``labels``: per-class
    mean accuracy, overall accuracy and the confusion counts as lists."""
    cm = confusion_matrix(labels, probs.argmax(axis=1), num_classes)
    return {"per_class_mean_accuracy": per_class_mean_accuracy(cm),
            "overall_accuracy": overall_accuracy(cm), "confusion": cm.tolist()}


def label_distribution(counts: np.ndarray) -> np.ndarray:
    """Normalize nonnegative class counts into proportions."""
    counts = np.asarray(counts, dtype=np.float64)
    if not (np.isfinite(counts) & (counts >= 0.0)).all():
        raise UsageError(f"counts must be finite and nonnegative, got {counts.tolist()}")
    total = counts.sum()
    if total <= 0:
        raise UsageError("cannot normalize an all-zero count vector")
    return counts / total


def _check_distribution(p: np.ndarray, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or (p < 0).any() or abs(p.sum() - 1.0) > 1e-6:
        raise UsageError(f"{name} is not a valid probability vector: {p!r}")
    return p


def _kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) in nats with 0 log 0 := 0; q must dominate p."""
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def js_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Square root of the Jensen-Shannon divergence (natural log) between
    two probability vectors; at most sqrt(ln 2)."""
    p, q = _check_distribution(p, "p"), _check_distribution(q, "q")
    if p.shape != q.shape:
        raise UsageError(f"p has {p.size} entries but q has {q.size}")
    m = 0.5 * (p + q)
    return float(np.sqrt(max(0.0, 0.5 * _kl_divergence(p, m) + 0.5 * _kl_divergence(q, m))))


def compare_distributions(estimated: np.ndarray, true: np.ndarray) -> dict[str, float]:
    """JS distance (see :func:`js_distance`) and L1 distance."""
    return {
        "js_distance": js_distance(estimated, true),
        "l1": float(np.abs(np.asarray(estimated, dtype=np.float64) - np.asarray(true)).sum()),
    }


def project_features_2d(embeddings: np.ndarray) -> np.ndarray:
    """Mean-centered projection onto the two leading covariance eigenvectors
    (``np.linalg.eigh``), each signed so its largest-magnitude entry is
    positive. A rank-deficient second direction is zeroed with a warning."""
    x = np.ascontiguousarray(embeddings, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 3:
        raise UsageError(f"need at least 3 samples, got shape {x.shape}")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (x.shape[0] - 1)
    lam, vecs = np.linalg.eigh(cov)
    # eigh sorts ascending; one embedding column has no second direction
    vecs = vecs[:, ::-1][:, :2]
    vecs = vecs * np.sign(vecs[np.abs(vecs).argmax(axis=0), np.arange(vecs.shape[1])])
    projected = centered @ vecs
    if len(lam) < 2 or lam[-2] <= 1e-12 * max(lam[-1], 1.0):
        warnings.warn("covariance is rank deficient; second component zeroed")
        return np.column_stack([projected[:, 0], np.zeros(len(x))])
    return projected


# the config fields a report's row and column labels read; only method is required
_REPORT_CONFIG_RULES = {
    "method": data_mod.STRING,
    "ablations": (lambda v: isinstance(v, list) and all(isinstance(f, str) for f in v),
                  "be a list of strings"),
    "sampler": data_mod.STRING,
    "task": data_mod.OPTIONAL_STR,
    "data": data_mod.MAPPING,
}


def _read_report(report, index: int) -> tuple[str, str, float, float]:
    """One report's row label, column label, column place (degree columns in
    degree order, then named tasks) and final per-class mean accuracy. A
    field that is missing or of the wrong kind raises FormatError naming the
    report's index and the field."""
    where = f"report {index}: "
    data_mod.require(report, where, ("config", "metrics"), FormatError,
                     config=data_mod.MAPPING, metrics=data_mod.MAPPING)
    data_mod.require(report["metrics"], where + "metrics ", ("final",), FormatError,
                     final=data_mod.MAPPING)
    final = report["metrics"]["final"]
    data_mod.require(final, where + "metrics final ", ("per_class_mean_accuracy",), FormatError,
                     per_class_mean_accuracy=data_mod.REAL)
    config = report["config"]
    data_mod.require(config, where + "config ", ("method",), FormatError, **_REPORT_CONFIG_RULES)
    label = config["method"] + "".join(f" [{flag}]" for flag in config.get("ablations", []))
    if config.get("sampler") == "natural":
        label += " [natural sampler]"
    data = config.get("data", {})
    data_mod.require(data, where + "config data ", (), FormatError, shift=data_mod.MAPPING)
    shift = data.get("shift", {})
    data_mod.require(shift, where + "shift ", (), FormatError, degree=data_mod.REAL)
    accuracy = final["per_class_mean_accuracy"]
    if config.get("task"):
        return label, config["task"], math.inf, accuracy
    if "degree" in shift:
        return label, f"d={shift['degree'] + 0.0:g}%", shift["degree"], accuracy
    return label, "task", math.inf, accuracy


def render_table(reports: list[dict], fmt: str = "markdown") -> str:
    """Method-by-task grid of final per-class mean accuracy (percent).

    Reports sharing a (method, task) cell are averaged over their seeds.
    """
    if fmt not in ("csv", "markdown"):
        raise UsageError(f"format must be csv or markdown, got {fmt!r}")
    if not reports:
        raise UsageError("no reports to render")

    cells: dict[tuple[str, str], list[float]] = {}
    places: dict[str, float] = {}
    for index, report in enumerate(reports):
        method, task, place, accuracy = _read_report(report, index)
        places[task] = place
        cells.setdefault((method, task), []).append(accuracy)
    methods = sorted({m for m, _ in cells})
    tasks = sorted(places, key=lambda t: (places[t], t))

    header = ["method"] + tasks
    rows = []
    for m in methods:
        row = [m]
        for t in tasks:
            values = cells.get((m, t))
            row.append(f"{100.0 * float(np.mean(values)):.2f}" if values else "")
        rows.append(row)

    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    lines = [
        "| " + " | ".join(str(h).ljust(w) for h, w in zip(header, widths)) + " |",
        "| " + " | ".join("-" * w for w in widths) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(v).ljust(w) for v, w in zip(row, widths)) + " |")
    return "\n".join(lines) + "\n"
