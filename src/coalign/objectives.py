"""Training objectives: the supervised head loss and the stacked one-pass
objectives of a coal step (self-training plus the minimax entropy term with
its reversed routing) and of a marginal-align step. Their per-term forms,
which the tests compare them against, are in ``tests/reference.py``.
"""

from __future__ import annotations

import numpy as np

from . import model as model_mod
from . import numerics
from .errors import UsageError
from .model import ModelParams


def source_classification_loss(params: ModelParams, inputs: np.ndarray,
                               labels: np.ndarray) -> dict[str, float]:
    """Mean cross-entropy of the cosine head on labeled rows; accumulates
    gradients into the prototypes and the extractor. Returns the loss as
    ``l_sc``."""
    if len(inputs) == 0:
        raise UsageError("source batch is empty")
    cache = model_mod.forward_full(params, inputs)
    loss, d_logits = numerics.cross_entropy(cache.probs, labels)
    d_embed = model_mod.backward_head(params, cache, d_logits, d_logits)
    model_mod.backward_extractor(params, cache, d_embed)
    return {"l_sc": loss}


def coal_objective(
    params: ModelParams,
    source_inputs: np.ndarray,
    source_labels: np.ndarray,
    target_inputs: np.ndarray,
    target_pseudo: np.ndarray,
    target_weights: np.ndarray,
    alpha: float,
) -> dict[str, float]:
    """One coal step's objective from a single stacked forward/backward over
    [source; target].

    The losses come from slices of the one cache: cross-entropy on the source
    rows, the pseudo-label cross-entropy on the target rows weighted by
    ``target_weights`` and the target entropy. The entropy is routed
    adversarially: the prototypes take the gradient of -alpha * entropy
    (they are trained to spread probability mass) and the extractor that of
    +alpha * entropy (it is trained to concentrate it). All-zero weights
    drop the pseudo-label term and ``alpha = 0`` the entropy gradient, which
    is how the ablations switch a term off; ``l_h`` is reported either way.
    Returns ``l_sc``, ``l_target_pseudo``, ``l_st`` (their sum) and ``l_h``
    by name. Gradients equal the per-term ``self_training_loss`` plus
    ``entropy_objective`` of ``tests/reference.py`` up to summation order.
    """
    if len(source_inputs) == 0:
        raise UsageError("source batch is empty")
    if alpha < 0:
        raise UsageError(f"alpha must be nonnegative, got {alpha}")
    n = len(source_inputs)
    cache = model_mod.forward_full(params, np.vstack([source_inputs, target_inputs]))
    l_sc, d_src = numerics.cross_entropy(cache.probs[:n], source_labels)
    l_pseudo, d_pseudo = numerics.cross_entropy(cache.probs[n:], target_pseudo, target_weights)
    l_h, d_ent = numerics.mean_entropy(cache.probs[n:])
    d_embed = model_mod.backward_head(params, cache, np.vstack([d_src, d_pseudo - alpha * d_ent]),
                                      np.vstack([d_src, d_pseudo + alpha * d_ent]))
    model_mod.backward_extractor(params, cache, d_embed)
    return {"l_sc": l_sc, "l_target_pseudo": l_pseudo, "l_st": l_sc + l_pseudo, "l_h": l_h}


def marginal_align_objective(
    params: ModelParams,
    source_inputs: np.ndarray,
    source_labels: np.ndarray,
    target_inputs: np.ndarray,
    grl_lambda: float = 1.0,
) -> dict[str, float]:
    """One marginal-align step's objective from a single stacked
    forward/backward over [source; target].

    The discriminator head is trained to tell the stacked embeddings of
    source (0) from target (1) rows. The extractor receives the source rows'
    classification gradient plus ``-grl_lambda`` times the domain gradient,
    chained back once. Returns ``l_sc``, the domain loss ``l_domain`` and the
    batch ``domain_discriminator_accuracy`` by name; gradients equal
    :func:`source_classification_loss` plus the per-term
    ``domain_alignment_loss`` of ``tests/reference.py`` up to summation order.
    """
    if len(source_inputs) == 0:
        raise UsageError("source batch is empty")
    n = len(source_inputs)
    cache = model_mod.forward_full(params, np.vstack([source_inputs, target_inputs]))
    l_sc, d_src = numerics.cross_entropy(cache.probs[:n], source_labels)
    d_logits = np.zeros_like(cache.probs)
    d_logits[:n] = d_src
    domains = np.zeros(len(cache.embeddings), dtype=np.int64)
    domains[n:] = 1
    w, b = params.domain_head
    dom_logits = numerics.linear_forward(cache.embeddings, w, b)
    l_dom, d_dom = numerics.cross_entropy(numerics.softmax(dom_logits), domains)
    numerics.linear_backward(d_dom, cache.embeddings, w, b)
    d_domain = d_dom @ w.value.T
    d_domain *= -grl_lambda
    accuracy = float((dom_logits.argmax(axis=1) == domains).mean())
    d_embed = model_mod.backward_head(params, cache, d_logits, d_logits)
    d_embed += d_domain
    model_mod.backward_extractor(params, cache, d_embed)
    return {"l_sc": l_sc, "l_domain": l_dom, "domain_discriminator_accuracy": accuracy}
