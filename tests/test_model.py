import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalign import model as M
from coalign import objectives
from coalign.errors import CheckpointError, DimensionError
from coalign.numerics import sgd_momentum_step


def identity_extractor_model(dim, num_classes, temperature=0.05, prototypes=None):
    """Single identity layer with zero bias: F(x) = relu(x), so nonnegative
    inputs pass straight through and prototypes can be set directly."""
    params = M.init_model(dim, (dim,), num_classes, temperature=temperature, seed=0)
    w, b = params.layers[0]
    w.value[...] = np.eye(dim)
    b.value[...] = 0.0
    if prototypes is not None:
        params.prototypes.value[...] = prototypes
    return params


class TestExtractFeatures:
    def test_zero_weights_zero_embedding(self):
        params = M.init_model(3, (4, 2), 2, seed=0)
        for w, b in params.layers:
            w.value[...] = 0.0
            b.value[...] = 0.0
        out = M.forward_full(params, np.array([[1.0, -2.0, 3.0]])).embeddings
        assert np.array_equal(out, np.zeros((1, 2)))

    def test_relu_clamps(self):
        params = identity_extractor_model(2, 2)
        out = M.forward_full(params, np.array([[-1.0, 2.0]])).embeddings
        assert np.array_equal(out, [[0.0, 2.0]])

    def test_deterministic(self):
        params = M.init_model(2, (8, 4), 3, seed=7)
        x = np.random.default_rng(0).normal(size=(5, 2))
        first, second = M.forward_full(params, x), M.forward_full(params, x)
        assert np.array_equal(first.embeddings, second.embeddings)

    def test_dimension_error(self):
        params = M.init_model(2, (4,), 2, seed=0)
        with pytest.raises(DimensionError):
            M.forward_full(params, np.ones((1, 3)))


class TestClassify:
    def test_orthonormal_prototype_match(self):
        # embedding equal to prototype column j with T=0.05: the 1/T logit
        # gap drives the softmax to near-certainty
        d = 4
        params = identity_extractor_model(d, d, temperature=0.05, prototypes=np.eye(d))
        x = np.zeros((1, d))
        x[0, 2] = 1.0
        pred = M.forward_full(params, x)
        assert pred.probs.argmax() == 2
        assert pred.probs[0, 2] > 0.99

    def test_equidistant_gives_uniform(self):
        d = 3
        params = identity_extractor_model(d, d, prototypes=np.eye(d))
        pred = M.forward_full(params, np.ones((1, d)))
        assert np.allclose(pred.probs, 1.0 / 3.0)

    def test_embedding_scale_invariance(self):
        d = 3
        params = identity_extractor_model(d, d, prototypes=np.eye(d))
        x = np.array([[0.2, 1.4, 0.7]])
        p1 = M.forward_full(params, x).probs
        p2 = M.forward_full(params, 10.0 * x).probs
        assert np.allclose(p1, p2, atol=1e-12)

    def test_argmax_invariant_to_logit_shift(self):
        rng = np.random.default_rng(1)
        params = M.init_model(2, (8, 4), 5, seed=3)
        cache = M.forward_full(params, rng.normal(size=(20, 2)))
        shifted = cache.logits + 3.7
        assert np.array_equal(cache.probs.argmax(axis=1), shifted.argmax(axis=1))

    def test_probability_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        params = M.init_model(2, (8, 4), 4, seed=1)
        pred = M.forward_full(params, rng.normal(size=(30, 2)))
        assert np.abs(pred.probs.sum(axis=1) - 1.0).max() < 1e-6


class TestPrototypeSemantics:
    def test_prototypes_align_with_their_class(self):
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal((-2, 0), 0.3, (30, 2)), rng.normal((2, 0), 0.3, (30, 2))])
        y = np.repeat([0, 1], 30)
        params = M.init_model(2, (8, 4), 2, temperature=0.3, seed=0)
        lrs = {b.name: 0.05 for b in params.all_blocks()}
        for _ in range(300):
            objectives.source_classification_loss(params, x, y)
            sgd_momentum_step(params.all_blocks(), lrs, 0.9)
        emb, _ = np.linalg.norm(M.forward_full(params, x).embeddings, axis=1, keepdims=True), None
        normalized = M.forward_full(params, x).embeddings / np.maximum(emb, 1e-12)
        protos = params.prototypes.value / np.linalg.norm(params.prototypes.value, axis=0)
        sims = normalized @ protos
        for cls in (0, 1):
            class_sims = sims[y == cls].mean(axis=0)
            assert class_sims.argmax() == cls


class TestDomainDiscriminator:
    def test_trains_on_separable_embeddings(self):
        # identity extractor, so the head sees the inputs (after ReLU) as
        # embeddings; only the head is updated
        rng = np.random.default_rng(1)
        src = rng.normal((-1.5, 0, 0), 0.4, (60, 3))
        tgt = rng.normal((1.5, 0, 0), 0.4, (60, 3))
        params = identity_extractor_model(3, 2)
        w, b = params.domain_head
        lrs = {w.name: 0.5, b.name: 0.5}
        for _ in range(200):
            _, accuracy = objectives.domain_alignment_loss(params, src, tgt)
            sgd_momentum_step([w, b], lrs, 0.9)
            params.zero_grads()
        assert accuracy > 0.9


class TestCheckpoint:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        params = M.init_model(2, (8, 4), 3, temperature=0.2, seed=42)
        path = tmp_path / "model.json"
        M.save_checkpoint(params, path)
        loaded = M.load_checkpoint(path)
        assert loaded.temperature == params.temperature
        assert loaded.seed == params.seed
        for a, b in zip(params.all_blocks(), loaded.all_blocks()):
            assert a.name == b.name
            assert np.array_equal(a.value, b.value)

    @settings(max_examples=30)
    @given(input_dim=st.integers(1, 6), hidden=st.lists(st.integers(1, 8), min_size=1, max_size=3),
           classes=st.integers(1, 6), temperature=st.floats(0.01, 10.0),
           seed=st.integers(0, 2**32 - 1))
    def test_roundtrip_is_bit_exact_over_widths(self, input_dim, hidden, classes, temperature, seed):
        params = M.init_model(input_dim, tuple(hidden), classes, temperature=temperature, seed=seed)
        rng = np.random.default_rng(seed)
        for block in params.all_blocks():
            block.value[...] = rng.normal(scale=10.0 ** rng.integers(-8, 8), size=block.value.shape)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "model.json")
            M.save_checkpoint(params, path)
            loaded = M.load_checkpoint(path)
        assert (loaded.input_dim, loaded.hidden_dims, loaded.num_classes) == (
            input_dim, tuple(hidden), classes)
        assert (loaded.temperature, loaded.seed) == (temperature, seed)
        for a, b in zip(params.all_blocks(), loaded.all_blocks()):
            assert a.name == b.name
            assert a.value.tobytes() == b.value.tobytes()

    def test_version_mismatch(self, tmp_path):
        params = M.init_model(2, (4,), 2, seed=0)
        path = tmp_path / "model.json"
        M.save_checkpoint(params, path)
        doc = path.read_text().replace('"format_version": 1', '"format_version": 99')
        path.write_text(doc)
        with pytest.raises(CheckpointError):
            M.load_checkpoint(path)

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            M.load_checkpoint(path)

    def _edited(self, tmp_path, edit):
        path = tmp_path / "model.json"
        M.save_checkpoint(M.init_model(2, (4,), 2, seed=0), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("key", ["temperature", "hidden_dims", "blocks"])
    def test_missing_top_level_key_is_named(self, tmp_path, key):
        path = self._edited(tmp_path, lambda doc: doc.pop(key))
        with pytest.raises(CheckpointError, match=key):
            M.load_checkpoint(path)

    def test_values_length_not_matching_shape(self, tmp_path):
        path = self._edited(tmp_path, lambda doc: doc["blocks"]["layer0.bias"]["values"].pop())
        with pytest.raises(CheckpointError, match="layer0.bias"):
            M.load_checkpoint(path)

    @pytest.mark.parametrize("edit, named", [
        (lambda doc: doc.update(temperature=-1), "temperature"),
        (lambda doc: doc.update(temperature="x"), "temperature"),
        (lambda doc: doc.update(hidden_dims="ab"), "hidden_dims"),
        (lambda doc: doc.update(input_dim=-3), "input_dim"),
        (lambda doc: doc.update(seed=-1), "seed"),
        (lambda doc: doc.update(blocks=[]), "blocks"),
        (lambda doc: doc["blocks"]["layer0.weight"].update(values="abc"), "layer0.weight"),
        (lambda doc: doc["blocks"].update({"layer1.weight": doc["blocks"]["layer0.weight"]}),
         "layer1.weight"),
    ], ids=["negative temperature", "text temperature", "text hidden_dims",
            "negative input_dim", "negative seed", "list blocks", "text values", "extra block"])
    def test_bad_header_or_block_is_named(self, tmp_path, edit, named):
        path = self._edited(tmp_path, edit)
        with pytest.raises(CheckpointError, match=named):
            M.load_checkpoint(path)

    def test_document_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2]")
        with pytest.raises(CheckpointError, match="JSON object"):
            M.load_checkpoint(path)

    def test_non_finite_values(self, tmp_path):
        def poison(doc):
            doc["blocks"]["prototypes"]["values"][1] = float("nan")

        path = self._edited(tmp_path, poison)
        with pytest.raises(CheckpointError, match="prototypes"):
            M.load_checkpoint(path)
