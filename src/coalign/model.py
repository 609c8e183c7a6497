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
from . import numerics
from .errors import FormatError, UsageError
from .numerics import ParamBlock

CHECKPOINT_VERSION = 2
# predict and eval's embeddings run forward_full on row_blocks of this many
# rows. Shorter blocks change the last bits of some logits products.
PREDICT_BLOCK_ROWS = 1024
# the checkpoint beside its format_version: every key is required, and the
# arena's values are checked one by one once its length is known
_HEADER_RULES = {
    "temperature": data_mod.POSITIVE_REAL, "input_dim": data_mod.POSITIVE_INT,
    "hidden_dims": data_mod.WIDTHS, "num_classes": data_mod.POSITIVE_INT,
    "arena": (lambda v: isinstance(v, list), "be a list"),
}


@dataclass
class ModelParams:
    """All trainable state, every block a part of one ``arena``, plus the fixed temperature."""

    layers: list[tuple[ParamBlock, ParamBlock]]
    prototypes: ParamBlock
    temperature: float
    domain_head: tuple[ParamBlock, ParamBlock]
    arena: ParamBlock
    input_dim: int
    hidden_dims: tuple[int, ...]
    num_classes: int

    def extractor_blocks(self) -> list[ParamBlock]:
        return [b for pair in self.layers for b in pair]

    def all_blocks(self) -> list[ParamBlock]:
        return list(self.arena.parts)


@dataclass
class ForwardCache:
    """Intermediate activations kept for the hand-written backward pass: one
    array per layer, its ReLU output, which is also the mask its backward
    reads, since act > 0 exactly where the pre-activation is."""

    inputs: np.ndarray
    acts: list[np.ndarray]
    normalized: np.ndarray
    norms: np.ndarray
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
    data_mod.require({"input_dim": input_dim, "hidden_dims": hidden_dims, "num_classes": num_classes,
                      "temperature": temperature, "seed": seed}, "", **_HEADER_RULES,
                     seed=data_mod.NONNEGATIVE_INT)
    rng = np.random.default_rng([seed, 0])
    values = {}
    fan_in = input_dim
    for i, width in enumerate(hidden_dims):
        values[f"layer{i}.weight"] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, width))
        values[f"layer{i}.bias"] = np.zeros((1, width))
        fan_in = width
    d = hidden_dims[-1]
    proto = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, num_classes))
    values["prototypes"] = proto / np.linalg.norm(proto, axis=0, keepdims=True)
    values["domain.weight"] = np.zeros((d, 2))
    values["domain.bias"] = np.zeros((1, 2))
    arena = numerics.arena("arena", values)
    *extractor, prototypes, domain_weight, domain_bias = arena.parts
    return ModelParams(
        layers=list(zip(extractor[::2], extractor[1::2])),
        prototypes=prototypes,
        temperature=temperature,
        domain_head=(domain_weight, domain_bias),
        arena=arena,
        input_dim=input_dim,
        hidden_dims=tuple(hidden_dims),
        num_classes=num_classes,
    )


def forward_full(params: ModelParams, inputs: np.ndarray) -> ForwardCache:
    """The one forward pass through extractor and cosine head, caching
    everything; ``.probs`` are the class probabilities, ``.embeddings`` F(x)."""
    x = np.ascontiguousarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise UsageError(f"inputs shape {x.shape} incompatible with input dim {params.input_dim}")
    acts = []
    h = x
    for w, b in params.layers:
        h = numerics.linear_forward(h, w, b)
        np.maximum(h, 0.0, out=h)
        acts.append(h)
    normalized, norms = numerics.normalize_rows(h)
    logits = normalized @ params.prototypes.value
    logits /= params.temperature
    probs = numerics.softmax(logits)
    return ForwardCache(x, acts, normalized, norms, probs)


def row_blocks(inputs: np.ndarray) -> list[np.ndarray]:
    """``inputs`` cut into blocks of PREDICT_BLOCK_ROWS rows; the last block
    takes the remainder, so a block holds fewer only when the whole input
    does, and none holds 2 * PREDICT_BLOCK_ROWS or more."""
    cuts = range(PREDICT_BLOCK_ROWS, len(inputs) - PREDICT_BLOCK_ROWS + 1, PREDICT_BLOCK_ROWS)
    return np.split(inputs, cuts)


def predict(params: ModelParams, inputs: np.ndarray) -> np.ndarray:
    """``forward_full(params, inputs).probs``, byte for byte, with at most
    one block's cache alive at a time."""
    return np.concatenate([forward_full(params, block).probs for block in row_blocks(inputs)])


def backward_extractor(params: ModelParams, cache: ForwardCache, d_embed: np.ndarray) -> None:
    """Chain an embedding gradient back through the extractor."""
    g = d_embed
    for i in range(len(params.layers) - 1, -1, -1):
        w, b = params.layers[i]
        g = numerics.relu_backward(g, cache.acts[i])
        upstream = cache.inputs if i == 0 else cache.acts[i - 1]
        numerics.linear_backward(g, upstream, w, b)
        if i > 0:
            g = g @ w.value.T


def backward_head(params: ModelParams, cache: ForwardCache, d_logits: np.ndarray,
                  feature_d_logits: np.ndarray) -> np.ndarray:
    """Accumulate the prototypes' gradient of ``d_logits`` and return the embedding
    gradient of ``feature_d_logits`` for :func:`backward_extractor`; two different
    gradients route one term with opposite signs to the two sides."""
    t = params.temperature
    params.prototypes.accumulate(cache.normalized.T @ d_logits / t)
    d_norm = feature_d_logits @ params.prototypes.value.T
    d_norm /= t
    return numerics.normalize_rows_bwd(d_norm, cache.normalized, cache.norms)


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    """Write a versioned JSON checkpoint: ``init_model``'s header and the
    arena's values in its order (layout documented in the README)."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "temperature": params.temperature,
        "input_dim": params.input_dim,
        "hidden_dims": list(params.hidden_dims),
        "num_classes": params.num_classes,
        "arena": params.arena.value[0].tolist(),
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True))


def load_checkpoint(path: str | Path) -> ModelParams:
    doc = data_mod.read_json_object(path)
    version = doc.get("format_version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise FormatError(f"checkpoint version {version!r} unsupported (want {CHECKPOINT_VERSION})")
    data_mod.require(doc, f"checkpoint {path}: ", tuple(_HEADER_RULES), FormatError,
                     known=("format_version", *_HEADER_RULES), **_HEADER_RULES)
    params = init_model(doc["input_dim"], tuple(doc["hidden_dims"]), doc["num_classes"],
                        temperature=doc["temperature"])
    arena, size = doc["arena"], params.arena.value.size
    if len(arena) != size:
        raise FormatError(f"checkpoint {path}: arena holds {len(arena)} values, the model {size}")
    for i, value in enumerate(arena):
        if not data_mod.REAL[0](value):
            raise FormatError(f"checkpoint {path}: arena[{i}] must be a finite number, got {value!r}")
    params.arena.value[0] = arena
    return params
