"""The adaptation network: MLP feature extractor + temperature-scaled cosine head.

The extractor applies ReLU after every linear layer. The classifier holds one
weight column per class; logits are cosine similarities between the
L2-normalized embedding and each column, divided by the temperature. A
two-class linear head over embeddings serves as the domain discriminator for
the marginal-alignment baseline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import kernels, numerics
from .errors import CheckpointError, DimensionError
from .numerics import ParamBlock

CHECKPOINT_VERSION = 1
# the checkpoint header: every key is required
_HEADER_RULES = {
    "temperature": data_mod.POSITIVE_REAL, "seed": data_mod.NONNEGATIVE_INT,
    "input_dim": data_mod.POSITIVE_INT, "hidden_dims": data_mod.WIDTHS,
    "num_classes": data_mod.POSITIVE_INT, "blocks": data_mod.MAPPING,
}


@dataclass
class ModelParams:
    """All trainable state plus the fixed temperature."""

    layers: list[tuple[ParamBlock, ParamBlock]]
    prototypes: ParamBlock
    temperature: float
    domain_head: tuple[ParamBlock, ParamBlock]
    input_dim: int
    hidden_dims: tuple[int, ...]
    num_classes: int
    seed: int

    def extractor_blocks(self) -> list[ParamBlock]:
        return [b for pair in self.layers for b in pair]

    def classifier_blocks(self) -> list[ParamBlock]:
        return [self.prototypes]

    def domain_blocks(self) -> list[ParamBlock]:
        return list(self.domain_head)

    def all_blocks(self) -> list[ParamBlock]:
        return self.extractor_blocks() + self.classifier_blocks() + self.domain_blocks()

    def zero_grads(self) -> None:
        for block in self.all_blocks():
            block.zero_grad()


@dataclass
class ForwardCache:
    """Intermediate activations kept for the hand-written backward pass."""

    inputs: np.ndarray
    preacts: list[np.ndarray]
    acts: list[np.ndarray]
    normalized: np.ndarray
    norms: np.ndarray
    logits: np.ndarray
    probs: np.ndarray

    @property
    def embeddings(self) -> np.ndarray:
        return self.acts[-1]


def init_model(
    input_dim: int,
    hidden_dims: tuple[int, ...],
    num_classes: int,
    temperature: float = 0.05,
    seed: int = 0,
) -> ModelParams:
    """Seeded initialization.

    Extractor weights are He-scaled Gaussians with zero biases. The prototype
    matrix starts as a 1/sqrt(d)-scaled Gaussian with L2-normalized columns so
    each column is a unit prototype from the first step. The domain head
    starts at zero, which makes an untrained discriminator output exactly 0.5.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    rng = np.random.default_rng([seed, 0])
    layers = []
    fan_in = input_dim
    for i, width in enumerate(hidden_dims):
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, width))
        layers.append(
            (
                ParamBlock(f"layer{i}.weight", w),
                ParamBlock(f"layer{i}.bias", np.zeros((1, width))),
            )
        )
        fan_in = width
    d = hidden_dims[-1]
    proto = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, num_classes))
    proto /= np.linalg.norm(proto, axis=0, keepdims=True)
    domain = (
        ParamBlock("domain.weight", np.zeros((d, 2))),
        ParamBlock("domain.bias", np.zeros((1, 2))),
    )
    return ModelParams(
        layers=layers,
        prototypes=ParamBlock("prototypes", proto),
        temperature=temperature,
        domain_head=domain,
        input_dim=input_dim,
        hidden_dims=tuple(hidden_dims),
        num_classes=num_classes,
        seed=seed,
    )


def forward_full(params: ModelParams, inputs: np.ndarray) -> ForwardCache:
    """The one forward pass through extractor and cosine head, caching
    everything; ``.probs`` are the class probabilities, ``.embeddings`` F(x)."""
    x = np.ascontiguousarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise DimensionError(f"inputs shape {x.shape} incompatible with input dim {params.input_dim}")
    preacts, acts = [], []
    h = x
    for w, b in params.layers:
        z = numerics.linear_forward(h, w, b)
        preacts.append(z)
        h = numerics.relu(z)
        acts.append(h)
    normalized, norms = kernels.normalize_rows(h)
    logits = normalized @ params.prototypes.value / params.temperature
    probs = kernels.softmax(logits)
    return ForwardCache(x, preacts, acts, normalized, norms, logits, probs)


def backward_extractor(
    params: ModelParams, cache: ForwardCache, d_embed: np.ndarray, scale: float = 1.0
) -> None:
    """Chain an embedding gradient back through the extractor.

    ``scale`` is applied per block at accumulation, so the stored gradients
    are bit-identical to ``scale`` times the unscaled chain.
    """
    g = d_embed
    for i in range(len(params.layers) - 1, -1, -1):
        w, b = params.layers[i]
        g = numerics.relu_backward(g, cache.preacts[i])
        upstream = cache.inputs if i == 0 else cache.acts[i - 1]
        g = numerics.linear_backward(g, upstream, w, b, scale)


def backward_head(
    params: ModelParams,
    cache: ForwardCache,
    d_logits: np.ndarray,
    head_scale: float = 1.0,
    feature_scale: float = 1.0,
    *,
    feature_d_logits: np.ndarray | None = None,
    d_embed_extra: np.ndarray | None = None,
) -> None:
    """Backward from cosine-head logits into prototypes and the extractor.

    The prototypes take ``d_logits``; the extractor takes ``feature_d_logits``
    when given (so one pass can route a term with opposite signs to the two
    sides) and otherwise ``d_logits``. ``d_embed_extra`` is an embedding
    gradient from another head, added before the single extractor chain.
    """
    t = params.temperature
    params.prototypes.accumulate(cache.normalized.T @ d_logits / t, head_scale)
    if feature_d_logits is None:
        feature_d_logits = d_logits
    d_norm = feature_d_logits @ params.prototypes.value.T / t
    d_embed = kernels.normalize_rows_bwd(d_norm, cache.normalized, cache.norms)
    if d_embed_extra is not None:
        d_embed += d_embed_extra
    backward_extractor(params, cache, d_embed, feature_scale)


def relu_signature(params: ModelParams, inputs: np.ndarray) -> np.ndarray:
    """Active-unit pattern of every ReLU; used to detect kink crossings."""
    return np.concatenate([(z > 0.0).reshape(-1) for z in forward_full(params, inputs).preacts])


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    """Write a versioned JSON checkpoint (layout documented in the README)."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "temperature": params.temperature,
        "seed": params.seed,
        "input_dim": params.input_dim,
        "hidden_dims": list(params.hidden_dims),
        "num_classes": params.num_classes,
        "blocks": {
            b.name: {"shape": list(b.value.shape), "values": b.value.reshape(-1).tolist()}
            for b in params.all_blocks()
        },
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True))


def load_checkpoint(path: str | Path) -> ModelParams:
    doc = data_mod.read_json_object(path, CheckpointError)
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {doc.get('format_version')} unsupported (want {CHECKPOINT_VERSION})"
        )
    data_mod.require(doc, f"checkpoint {path}: ", tuple(_HEADER_RULES), CheckpointError,
                     **_HEADER_RULES)
    params = init_model(
        doc["input_dim"],
        tuple(doc["hidden_dims"]),
        doc["num_classes"],
        temperature=doc["temperature"],
        seed=doc["seed"],
    )
    names = [block.name for block in params.all_blocks()]
    data_mod.require(doc["blocks"], f"checkpoint {path}: blocks ", names, CheckpointError,
                     known=names)
    for block in params.all_blocks():
        entry = doc["blocks"][block.name]
        data_mod.require(entry, f"checkpoint {path}: block {block.name!r} ", ("shape", "values"),
                         CheckpointError)
        if entry["shape"] != list(block.value.shape):
            raise CheckpointError(
                f"block {block.name!r} shape {entry['shape']!r} != model shape {block.value.shape}"
            )
        try:
            values = np.asarray(entry["values"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise CheckpointError(
                f"block {block.name!r} values are not a list of numbers: {exc}"
            ) from exc
        if values.shape != (block.value.size,):
            raise CheckpointError(
                f"block {block.name!r} holds {values.size} values, its shape needs {block.value.size}"
            )
        if not np.isfinite(values).all():
            raise CheckpointError(f"block {block.name!r} holds non-finite values")
        block.value[...] = values.reshape(block.value.shape)
    return params
