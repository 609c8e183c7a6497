"""Differentiable building blocks for the fixed two-layer-MLP + cosine-head graph.

All arrays are 64-bit row-major; samples are rows. Gradients are hand-derived
per operation and accumulated into :class:`ParamBlock` instances. Backward
helpers take a ``scale`` factor that is applied elementwise at accumulation
time, which keeps scaled gradients bit-identical to ``scale * naive``; only
the per-term reference objectives set it, and the training steps fold gradient
reversal into the gradients of their one backward chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from . import kernels
from .errors import DimensionError, DivergenceError, NormalizationError


@dataclass
class ParamBlock:
    """One trainable tensor with its gradient and momentum buffer."""

    name: str
    value: np.ndarray
    grad: np.ndarray = field(init=False)
    momentum: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.value = np.ascontiguousarray(self.value, dtype=np.float64)
        if self.value.ndim != 2:
            raise DimensionError(f"block {self.name!r} must be 2-D, got shape {self.value.shape}")
        self.grad = np.zeros_like(self.value)
        self.momentum = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def accumulate(self, g: np.ndarray, scale: float = 1.0) -> None:
        """grad += scale * g, with the scale applied elementwise."""
        if g.shape != self.value.shape:
            raise DimensionError(
                f"gradient shape {g.shape} does not match block {self.name!r} shape {self.value.shape}"
            )
        if scale == 1.0:
            self.grad += g
        else:
            self.grad += scale * g


def linear_forward(x: np.ndarray, weights: ParamBlock, bias: ParamBlock) -> np.ndarray:
    """y = x @ W + b. Caller keeps x for the backward pass."""
    if x.shape[1] != weights.value.shape[0]:
        raise DimensionError(
            f"input shape {x.shape} incompatible with weight shape {weights.value.shape}"
        )
    return x @ weights.value + bias.value


def linear_backward(
    g: np.ndarray, x: np.ndarray, weights: ParamBlock, bias: ParamBlock, scale: float = 1.0
) -> np.ndarray:
    """Accumulate scale * dW, scale * db; return the unscaled input gradient."""
    weights.accumulate(x.T @ g, scale)
    bias.accumulate(g.sum(axis=0, keepdims=True), scale)
    return g @ weights.value.T


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(g: np.ndarray, pre: np.ndarray) -> np.ndarray:
    return np.where(pre > 0.0, g, 0.0)


def cross_entropy(
    probs: np.ndarray, labels: np.ndarray, weights: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Masked mean cross-entropy of softmax probability rows and its
    gradient w.r.t. the logits they came from.

    loss = sum over weighted rows of -log probs[row, label], divided by
    max(1, sum of weights); gradients of unweighted rows are zero.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != probs.shape[0]:
        raise DimensionError(f"{labels.shape[0]} labels for {probs.shape[0]} logit rows")
    if labels.size and (labels.min() < 0 or labels.max() >= probs.shape[1]):
        bad = labels[(labels < 0) | (labels >= probs.shape[1])][0]
        raise IndexError(f"label {bad} out of range for {probs.shape[1]} classes")
    if weights is None:
        weights = np.ones(probs.shape[0], dtype=np.float64)
    else:
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        if weights.shape[0] != probs.shape[0]:
            raise DimensionError(f"{weights.shape[0]} weights for {probs.shape[0]} logit rows")
    return kernels.xent(probs, labels, weights)


def mean_entropy(probs: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean Shannon entropy of probability rows, gradient w.r.t. the logits.

    Rows must sum to 1 within 1e-4; 0 log 0 counts as 0.
    """
    probs = np.ascontiguousarray(probs, dtype=np.float64)
    sums = probs.sum(axis=1)
    if np.abs(sums - 1.0).max() > 1e-4:
        worst = int(np.abs(sums - 1.0).argmax())
        raise NormalizationError(f"row {worst} sums to {sums[worst]:.6f}, expected 1")
    return kernels.entropy(probs)


def sgd_momentum_step(
    blocks: Iterable[ParamBlock], learning_rates: Mapping[str, float], momentum: float
) -> None:
    """buffer <- momentum * buffer + grad; value <- value - lr * buffer; grads zeroed."""
    blocks = list(blocks)
    for block in blocks:
        if not np.isfinite(block.grad).all():
            raise DivergenceError(f"non-finite gradient in block {block.name!r}")
    for block in blocks:
        kernels.sgd_update(block.value, block.grad, block.momentum, learning_rates[block.name], momentum)
        block.zero_grad()


def finite_difference_check(
    loss_fn: Callable[[], float],
    blocks: Iterable[ParamBlock],
    *,
    h: float = 1e-5,
    rng: np.random.Generator,
    max_coords: int = 20,
    kink_signature: Callable[[], np.ndarray] | None = None,
) -> dict[str, float]:
    """Compare analytic gradients against central finite differences.

    ``loss_fn`` must run a full forward/backward, accumulating gradients into
    the blocks, and return the scalar loss. For each block, up to
    ``max_coords`` coordinates are sampled; a coordinate whose +/-h
    evaluations land on different sides of a ReLU kink (detected via
    ``kink_signature``, which returns the active-unit pattern) is skipped.

    Returns the worst relative error per block, where the relative error is
    |fd - analytic| / max(|fd|, |analytic|, 1e-6).
    """
    blocks = list(blocks)
    for block in blocks:
        block.zero_grad()
    loss_fn()
    analytic = {b.name: b.grad.copy() for b in blocks}

    worst: dict[str, float] = {}
    for block in blocks:
        flat = block.value.reshape(-1)
        n = flat.shape[0]
        coords = rng.choice(n, size=min(max_coords, n), replace=False)
        err = 0.0
        for idx in coords:
            original = flat[idx]
            flat[idx] = original + h
            loss_plus = loss_fn()
            sig_plus = kink_signature() if kink_signature is not None else None
            flat[idx] = original - h
            loss_minus = loss_fn()
            sig_minus = kink_signature() if kink_signature is not None else None
            flat[idx] = original
            if sig_plus is not None and not np.array_equal(sig_plus, sig_minus):
                continue
            fd = (loss_plus - loss_minus) / (2.0 * h)
            an = analytic[block.name].reshape(-1)[idx]
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-6)
            err = max(err, rel)
        worst[block.name] = err
    for block in blocks:
        block.zero_grad()
    return worst
