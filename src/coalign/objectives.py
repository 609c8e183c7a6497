"""Training objectives: supervised head loss, self-training loss, the
minimax entropy term with its reversed routing, and the stacked one-pass
objectives of a coal and a marginal-align step.
"""

from __future__ import annotations

import numpy as np

from . import model as model_mod
from . import numerics
from .errors import UsageError
from .model import ModelParams


def source_classification_loss(params: ModelParams, inputs: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of the cosine head on labeled rows; accumulates
    gradients into the prototypes and the extractor."""
    if len(inputs) == 0:
        raise UsageError("source batch is empty")
    cache = model_mod.forward_full(params, inputs)
    loss, d_logits = numerics.cross_entropy(cache.probs, labels)
    model_mod.backward_head(params, cache, d_logits)
    return loss


def self_training_loss(
    params: ModelParams,
    source_inputs: np.ndarray,
    source_labels: np.ndarray,
    target_inputs: np.ndarray,
    target_pseudo: np.ndarray,
    target_mask: np.ndarray,
) -> tuple[float, float, float]:
    """Supervised loss plus the masked pseudo-label loss on target rows.

    Returns (l_st, l_sc, l_target_pseudo); an all-zero mask reduces the
    target term to exactly zero, leaving only the supervised part. Training
    uses :func:`coal_objective`; this per-term form is its reference.
    """
    l_sc = source_classification_loss(params, source_inputs, source_labels)
    cache = model_mod.forward_full(params, target_inputs)
    l_pseudo, d_logits = numerics.cross_entropy(cache.probs, target_pseudo, target_mask)
    model_mod.backward_head(params, cache, d_logits)
    return l_sc + l_pseudo, l_sc, l_pseudo


def entropy_objective(params: ModelParams, target_inputs: np.ndarray, alpha: float) -> float:
    """Mean prediction entropy on target rows with adversarial routing.

    One backward pass leaves the classifier head with the gradient of
    -alpha * entropy (it is trained to spread probability mass) and the
    extractor with the gradient of +alpha * entropy (it is trained to
    concentrate it); the sign flip between the two is the reversal boundary.
    Training uses :func:`coal_objective`; this per-term form is its reference.
    """
    if alpha < 0:
        raise UsageError(f"alpha must be nonnegative, got {alpha}")
    cache = model_mod.forward_full(params, target_inputs)
    l_h, d_logits = numerics.mean_entropy(cache.probs)
    model_mod.backward_head(params, cache, d_logits, head_scale=-alpha, feature_scale=alpha)
    return l_h


def _domain_confusion(
    params: ModelParams, embeddings: np.ndarray, n_source: int
) -> tuple[float, np.ndarray, float]:
    """Discriminator loss on stacked [source; target] embeddings, labelled
    source (0) and target (1). Accumulates the head's gradients and returns
    (loss, unscaled embedding gradient, batch domain accuracy)."""
    domains = np.zeros(len(embeddings), dtype=np.int64)
    domains[n_source:] = 1
    w, b = params.domain_head
    logits = numerics.linear_forward(embeddings, w, b)
    loss, d_logits = numerics.cross_entropy(numerics.softmax(logits), domains)
    numerics.linear_backward(d_logits, embeddings, w, b)
    d_embed = d_logits @ w.value.T
    accuracy = float((logits.argmax(axis=1) == domains).mean())
    return loss, d_embed, accuracy


def domain_alignment_loss(
    params: ModelParams,
    source_inputs: np.ndarray,
    target_inputs: np.ndarray,
    grl_lambda: float = 1.0,
) -> tuple[float, float]:
    """Adversarial domain-confusion loss for the marginal-alignment baseline.

    The discriminator head is trained to tell source (0) from target (1)
    embeddings; the extractor receives the reversed gradient scaled by
    ``grl_lambda``. Returns (loss, batch domain accuracy). Training uses
    :func:`marginal_align_objective`; this per-term form is its reference.
    """
    src_cache = model_mod.forward_full(params, source_inputs)
    tgt_cache = model_mod.forward_full(params, target_inputs)
    embeddings = np.vstack([src_cache.embeddings, tgt_cache.embeddings])
    n_src = len(source_inputs)
    loss, d_embed, accuracy = _domain_confusion(params, embeddings, n_src)
    model_mod.backward_extractor(params, src_cache, d_embed[:n_src], scale=-grl_lambda)
    model_mod.backward_extractor(params, tgt_cache, d_embed[n_src:], scale=-grl_lambda)
    return loss, accuracy


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
    ``target_weights`` and the target entropy. The entropy keeps the routing
    of :func:`entropy_objective`: the prototypes take the gradient of
    -alpha * entropy and the extractor that of +alpha * entropy. All-zero
    weights drop the pseudo-label term and ``alpha = 0`` the entropy
    gradient, which is how the ablations switch a term off; ``l_h`` is
    reported either way. Returns ``l_sc``, ``l_target_pseudo``, ``l_st``
    (their sum) and ``l_h`` by name. Gradients equal
    :func:`self_training_loss` plus :func:`entropy_objective` up to
    summation order.
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
    model_mod.backward_head(params, cache, np.vstack([d_src, d_pseudo - alpha * d_ent]),
                            feature_d_logits=np.vstack([d_src, d_pseudo + alpha * d_ent]))
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

    The discriminator reads the stacked embeddings. The extractor receives
    the source rows' classification gradient plus ``-grl_lambda`` times the
    domain gradient, chained back once. Returns ``l_sc``, ``l_st`` (the same
    value: no self-training), the domain loss ``l_domain`` and the batch
    ``domain_discriminator_accuracy`` by name; gradients equal
    :func:`source_classification_loss` plus :func:`domain_alignment_loss`
    up to summation order.
    """
    if len(source_inputs) == 0:
        raise UsageError("source batch is empty")
    n = len(source_inputs)
    cache = model_mod.forward_full(params, np.vstack([source_inputs, target_inputs]))
    l_sc, d_src = numerics.cross_entropy(cache.probs[:n], source_labels)
    d_logits = np.zeros_like(cache.logits)
    d_logits[:n] = d_src
    l_dom, d_embed, accuracy = _domain_confusion(params, cache.embeddings, n)
    model_mod.backward_head(params, cache, d_logits, d_embed_extra=-grl_lambda * d_embed)
    return {"l_sc": l_sc, "l_st": l_sc, "l_domain": l_dom, "domain_discriminator_accuracy": accuracy}
