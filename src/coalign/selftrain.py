"""Pseudo-labeling: assignment, per-class top-k% confidence selection, and the
epoch schedule that grows k. Selection is always within each pseudo-class so
minority classes cannot be crowded out by easy-to-transfer ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import model as model_mod
from .data import NONNEGATIVE_REAL, PERCENT, require
from .errors import UsageError
from .model import ModelParams

# a k schedule is a dict of these keys, in percent:
# k(epoch) = min(k0 + epoch * k_step, k_max)
K_SCHEDULE_RULES = {"k0": PERCENT, "k_step": NONNEGATIVE_REAL, "k_max": PERCENT}
K_SCHEDULE_PRESETS = {
    "default": {"k0": 5.0, "k_step": 5.0, "k_max": 30.0},
    "fast-start": {"k0": 20.0, "k_step": 5.0, "k_max": 50.0},
}


@dataclass
class PseudoLabelSet:
    """Per-target-sample pseudo-label, confidence and selection mask."""

    labels: np.ndarray
    confidence: np.ndarray
    mask: np.ndarray


def check_k_schedule(schedule: dict) -> None:
    """Raise ``UsageError`` naming the first key of a k schedule that is
    missing, unknown or breaks its ``K_SCHEDULE_RULES`` rule, or naming
    ``k0`` and ``k_max`` when k0 exceeds k_max, so k0 would never apply."""
    require(schedule, "k_schedule ", tuple(K_SCHEDULE_RULES), known=K_SCHEDULE_RULES,
            **K_SCHEDULE_RULES)
    if schedule["k0"] > schedule["k_max"]:
        raise UsageError(f"k_schedule k0 {schedule['k0']!r} must be at most "
                         f"k_max {schedule['k_max']!r}")


def advance_k(schedule: dict, epoch: int) -> float:
    """The k of a k schedule (see ``check_k_schedule``) at an adaptation epoch."""
    check_k_schedule(schedule)
    if epoch < 0:
        raise UsageError(f"epoch must be nonnegative, got {epoch}")
    return min(schedule["k0"] + epoch * schedule["k_step"], schedule["k_max"])


def assign_pseudo_labels(params: ModelParams, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """argmax class and its probability per row; ties go to the lowest class index."""
    probs = model_mod.predict(params, features)
    labels = probs.argmax(axis=1).astype(np.int64)
    confidence = probs[np.arange(len(labels)), labels]
    return labels, confidence


def select_top_k_per_class(
    labels: np.ndarray, confidence: np.ndarray, k: float, num_classes: int
) -> PseudoLabelSet:
    """Mask the ceil(k%) most confident samples within every pseudo-class.

    Confidence ties are broken by sample index (lower index wins). Every
    nonempty pseudo-class keeps at least one sample whenever k > 0.
    """
    if not 0 <= k <= 100:
        raise UsageError(f"k must be within [0, 100], got {k}")
    mask = np.zeros(len(labels), dtype=np.int64)
    for cls in range(num_classes):
        members = np.flatnonzero(labels == cls)
        # ceil(k% of the class), e.g. k=30 of 10 samples is exactly 3
        quota = math.ceil(k * len(members) / 100.0)
        order = np.lexsort((members, -confidence[members]))
        mask[members[order[:quota]]] = 1
    return PseudoLabelSet(labels, confidence, mask)


def write_pseudo_csv(pseudo: PseudoLabelSet, path: str | Path) -> None:
    """Audit dump: one row per target sample (id, label, confidence, mask),
    each ended by CRLF as the csv module's default dialect ends rows."""
    rows = zip(pseudo.labels.tolist(), pseudo.confidence.tolist(), pseudo.mask.tolist())
    Path(path).write_text("sample,pseudo_label,confidence,mask\r\n" + "".join(
        f"{i},{label},{conf:.12g},{mask}\r\n" for i, (label, conf, mask) in enumerate(rows)),
        newline="")
