"""Every numeric operation of the two-layer-MLP + cosine-head graph, one
function each: linear layers, ReLU, softmax, row normalization and its
backward, masked cross-entropy, mean entropy and the momentum SGD update.

All arrays are 64-bit row-major; samples are rows. Gradients are hand-derived
per operation and accumulated into :class:`ParamBlock` instances. The training
steps fold gradient reversal into the gradients of their one backward chain.
The finite-difference gradient check lives with the other test oracles in
``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import DivergenceError, UsageError

# normalize_rows divides rows whose norm is at most NORM_EPS by it instead
NORM_EPS = 1e-12


@dataclass
class ParamBlock:
    """One trainable 2-D float64 tensor with its gradient ``grad`` and
    momentum buffer ``momentum``; an arena's ``parts`` are the named blocks
    whose buffers are views into its own."""

    name: str
    value: np.ndarray
    parts: list["ParamBlock"] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        if self.value.ndim != 2:
            raise UsageError(f"block {self.name!r} must be 2-D, got shape {self.value.shape}")
        self.grad = np.zeros_like(self.value)
        self.momentum = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def accumulate(self, g: np.ndarray) -> None:
        """grad += g, for a g of the block's shape."""
        if g.shape != self.value.shape:
            raise UsageError(
                f"gradient shape {g.shape} does not match block {self.name!r} shape {self.value.shape}"
            )
        self.grad += g


def arena(name: str, values: Mapping[str, np.ndarray]) -> ParamBlock:
    """One 1-row block holding ``values`` end to end, in order; each part is
    named by its key and keeps its shape."""
    block = ParamBlock(name, np.concatenate([v.reshape(-1) for v in values.values()])[None])
    stop = 0
    for part_name, v in values.items():
        start, stop = stop, stop + v.size
        part = ParamBlock(part_name, block.value[0, start:stop].reshape(v.shape))
        part.grad, part.momentum = (a[0, start:stop].reshape(v.shape)
                                    for a in (block.grad, block.momentum))
        block.parts.append(part)
    return block


def linear_forward(x: np.ndarray, weights: ParamBlock, bias: ParamBlock) -> np.ndarray:
    """y = x @ W + b, the bias added into the product. Caller keeps x for the backward pass."""
    if x.shape[1] != weights.value.shape[0]:
        raise UsageError(
            f"input shape {x.shape} incompatible with weight shape {weights.value.shape}"
        )
    y = x @ weights.value
    y += bias.value
    return y


def linear_backward(g: np.ndarray, x: np.ndarray, weights: ParamBlock, bias: ParamBlock) -> None:
    """Accumulate dW and db. A caller that reads the input gradient forms
    ``g @ weights.value.T`` itself."""
    weights.accumulate(x.T @ g)
    bias.accumulate(g.sum(axis=0, keepdims=True))


def relu_backward(g: np.ndarray, act: np.ndarray) -> np.ndarray:
    """The bits of ``np.where(act > 0.0, g, 0.0)``, by ANDing g's words with
    an all-ones or all-zeros mask: no per-element branch on the unit pattern.
    ``act`` is the ReLU output or its input: since act = max(pre, 0),
    ``act > 0`` and ``pre > 0`` agree for every float64, NaN and ±0 included."""
    mask = (act > 0.0).astype(np.int64)
    np.negative(mask, out=mask)
    np.bitwise_and(mask, g.view(np.int64), out=mask)
    return mask.view(np.float64)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax, formed in the one array that holds the shifted logits."""
    e = logits - logits.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def normalize_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit rows, divided into the squared-rows buffer, and the row norms."""
    y = x * x
    norms = np.sqrt(y.sum(axis=1))
    denom = np.where(norms > NORM_EPS, norms, NORM_EPS)
    return np.divide(x, denom[:, None], out=y), norms


def normalize_rows_bwd(g: np.ndarray, y: np.ndarray, norms: np.ndarray) -> np.ndarray:
    # rows with norm > NORM_EPS: d = (g - y (y.g)) / norm; others: d = g / NORM_EPS
    denom = np.where(norms > NORM_EPS, norms, NORM_EPS)
    proj = (y * g).sum(axis=1)
    dx = y * proj[:, None]
    np.subtract(g, dx, out=dx)
    dx /= denom[:, None]
    small = norms <= NORM_EPS
    if small.any():
        dx[small] = g[small] / NORM_EPS
    return dx


def cross_entropy(
    probs: np.ndarray, labels: np.ndarray, weights: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Masked mean cross-entropy of softmax probability rows and its
    gradient w.r.t. the logits they came from. With W = max(1, sum of
    weights), loss = sum over weighted rows of -log probs[r, labels[r]] / W,
    so +0.0 when no row is weighted, and the gradient of row r is
    weights[r] * (probs[r] - onehot(labels[r])) / W, zero if unweighted.
    """
    if labels.shape[0] != probs.shape[0]:
        raise UsageError(f"{labels.shape[0]} labels for {probs.shape[0]} logit rows")
    # labels are int64, so a negative label reads as a huge unsigned one
    unsigned = labels.view(np.uint64)
    if labels.size and unsigned.max() >= probs.shape[1]:
        bad = labels[unsigned >= probs.shape[1]][0]
        raise UsageError(f"label {bad} out of range for {probs.shape[1]} classes")
    if weights is None:
        weights = np.ones(probs.shape[0], dtype=np.float64)
    else:
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        if weights.shape[0] != probs.shape[0]:
            raise UsageError(f"{weights.shape[0]} weights for {probs.shape[0]} logit rows")
    denom = max(1.0, float(weights.sum()))
    rows = np.arange(probs.shape[0])
    picked = probs[rows, labels]
    logp = np.log(picked, out=np.zeros_like(picked), where=weights > 0.0)
    loss = float(0.0 - (weights * logp).sum() / denom)
    scale = weights / denom
    d_logits = probs * scale[:, None]
    d_logits[rows, labels] -= scale
    return loss, d_logits


def mean_entropy(probs: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean Shannon entropy of probability rows, gradient w.r.t. the logits.

    Rows must sum to 1 within 1e-4; 0 log 0 counts as 0. The gradient of
    row r is -p (log p + H_r) / rows.
    """
    if len(probs) == 0:
        raise UsageError(f"probs must hold at least one row, got shape {probs.shape}")
    sums = probs.sum(axis=1)
    if np.abs(sums - 1.0).max() > 1e-4:
        worst = int(np.abs(sums - 1.0).argmax())
        raise UsageError(f"row {worst} sums to {sums[worst]:.6f}, expected 1")
    rows = probs.shape[0]
    logp = np.log(probs, out=np.zeros_like(probs), where=probs > 0.0)
    plogp = probs * logp
    row_h = -plogp.sum(axis=1)
    h = float(row_h.sum() / rows)
    d_logits = -(probs * (logp + row_h[:, None])) / rows
    return h, d_logits


def sgd_momentum_step(blocks: list[ParamBlock], lr: float | np.ndarray, momentum: float) -> None:
    """buffer <- momentum * buffer + grad; value <- value - lr * buffer; grads zeroed.
    ``lr`` is a number or the arena's one per element; lr * buffer is formed in the grad buffer."""
    for block in blocks:
        if not np.isfinite(block.grad).all():
            bad = next(b for b in [*block.parts, block] if not np.isfinite(b.grad).all())
            raise DivergenceError(f"non-finite gradient in block {bad.name!r}")
    for block in blocks:
        block.momentum *= momentum
        block.momentum += block.grad
        np.multiply(lr, block.momentum, out=block.grad)
        block.value -= block.grad
        block.zero_grad()

