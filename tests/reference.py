"""Test oracles: the per-term objectives that the stacked training objectives
are compared against, the finite-difference gradient check and the ReLU kink
signature it skips coordinates by.

The oracles run on their own written-out backward chain: every ReLU is an
``np.where`` on the pre-activation, recomputed as ``upstream @ W + b`` rather
than read from the forward cache, every linear layer forms its input
gradient, the first layer's
included, and a ``scale`` is applied elementwise once per accumulation
(``block.accumulate(scale * g)``), so a scaled gradient is bit-identical to
``scale`` times the unscaled one. No backward code of ``coalign.model`` is
shared, so a bug there cannot cancel out of a stacked-vs-per-term comparison.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from coalign import model as M
from coalign import numerics
from coalign.numerics import ParamBlock


def linear_backward(g, x, weights, bias, scale=1.0):
    """The full chain rule of one linear layer: accumulate scale * dW and
    scale * db, then return the input gradient whether or not it is read."""
    weights.accumulate(scale * (x.T @ g))
    bias.accumulate(scale * g.sum(axis=0, keepdims=True))
    return g @ weights.value.T


def preacts(params, cache):
    """Each layer's pre-activation, the forward's own product and sum on the
    cached inputs of the layer."""
    upstreams = [cache.inputs, *cache.acts[:-1]]
    return [x @ w.value + b.value for x, (w, b) in zip(upstreams, params.layers)]


def backward_extractor(params, cache, g, scale=1.0):
    pre = preacts(params, cache)
    for i in reversed(range(len(params.layers))):
        g = np.where(pre[i] > 0.0, g, 0.0)
        upstream = cache.inputs if i == 0 else cache.acts[i - 1]
        g = linear_backward(g, upstream, *params.layers[i], scale)


def backward_head(params, cache, d_logits, feature_d_logits=None, d_embed_extra=None,
                  head_scale=1.0, feature_scale=1.0):
    """The prototypes take ``head_scale`` times the gradient of ``d_logits``,
    the extractor ``feature_scale`` times that of ``feature_d_logits``
    (``d_logits`` when not given) plus ``d_embed_extra``."""
    t = params.temperature
    params.prototypes.accumulate(head_scale * (cache.normalized.T @ d_logits / t))
    if feature_d_logits is None:
        feature_d_logits = d_logits
    d_norm = feature_d_logits @ params.prototypes.value.T / t
    g = numerics.normalize_rows_bwd(d_norm, cache.normalized, cache.norms)
    if d_embed_extra is not None:
        g += d_embed_extra
    backward_extractor(params, cache, g, feature_scale)


def source_classification_loss(params, inputs, labels):
    """Mean cross-entropy of the cosine head on labeled rows."""
    cache = M.forward_full(params, inputs)
    loss, d_logits = numerics.cross_entropy(cache.probs, labels)
    backward_head(params, cache, d_logits)
    return loss


def self_training_loss(params, source_inputs, source_labels, target_inputs, target_pseudo,
                       target_mask):
    """Supervised loss plus the masked pseudo-label loss on target rows.

    Returns (l_st, l_sc, l_target_pseudo); an all-zero mask reduces the
    target term to exactly zero, leaving only the supervised part.
    """
    l_sc = source_classification_loss(params, source_inputs, source_labels)
    cache = M.forward_full(params, target_inputs)
    l_pseudo, d_logits = numerics.cross_entropy(cache.probs, target_pseudo, target_mask)
    backward_head(params, cache, d_logits)
    return l_sc + l_pseudo, l_sc, l_pseudo


def entropy_objective(params, target_inputs, alpha):
    """Mean prediction entropy on target rows with adversarial routing: the
    prototypes take the gradient of -alpha * entropy and the extractor that
    of +alpha * entropy."""
    cache = M.forward_full(params, target_inputs)
    l_h, d_logits = numerics.mean_entropy(cache.probs)
    backward_head(params, cache, d_logits, head_scale=-alpha, feature_scale=alpha)
    return l_h


def domain_alignment_loss(params, source_inputs, target_inputs, grl_lambda=1.0):
    """Adversarial domain-confusion loss of the marginal-alignment baseline.

    The discriminator head is trained to tell source (0) from target (1)
    embeddings; the extractor receives the reversed gradient scaled by
    ``grl_lambda``, chained back once per domain. Returns (loss, batch
    domain accuracy).
    """
    src_cache = M.forward_full(params, source_inputs)
    tgt_cache = M.forward_full(params, target_inputs)
    embeddings = np.vstack([src_cache.embeddings, tgt_cache.embeddings])
    n_src = len(source_inputs)
    domains = np.zeros(len(embeddings), dtype=np.int64)
    domains[n_src:] = 1
    w, b = params.domain_head
    logits = numerics.linear_forward(embeddings, w, b)
    loss, d_logits = numerics.cross_entropy(numerics.softmax(logits), domains)
    d_embed = linear_backward(d_logits, embeddings, w, b)
    backward_extractor(params, src_cache, d_embed[:n_src], scale=-grl_lambda)
    backward_extractor(params, tgt_cache, d_embed[n_src:], scale=-grl_lambda)
    return loss, float((logits.argmax(axis=1) == domains).mean())


def relu_signature(params, inputs):
    """Active-unit pattern of every ReLU; used to detect kink crossings."""
    cache = M.forward_full(params, inputs)
    return np.concatenate([(z > 0.0).reshape(-1) for z in preacts(params, cache)])


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
