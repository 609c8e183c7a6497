import json

import numpy as np
import pytest

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
        out = M.extract_features(params, np.array([[1.0, -2.0, 3.0]]))
        assert np.array_equal(out, np.zeros((1, 2)))

    def test_relu_clamps(self):
        params = identity_extractor_model(2, 2)
        out = M.extract_features(params, np.array([[-1.0, 2.0]]))
        assert np.array_equal(out, [[0.0, 2.0]])

    def test_deterministic(self):
        params = M.init_model(2, (8, 4), 3, seed=7)
        x = np.random.default_rng(0).normal(size=(5, 2))
        assert np.array_equal(M.extract_features(params, x), M.extract_features(params, x))

    def test_dimension_error(self):
        params = M.init_model(2, (4,), 2, seed=0)
        with pytest.raises(DimensionError):
            M.extract_features(params, np.ones((1, 3)))


class TestClassify:
    def test_orthonormal_prototype_match(self):
        # embedding equal to prototype column j with T=0.05: the 1/T logit
        # gap drives the softmax to near-certainty
        d = 4
        params = identity_extractor_model(d, d, temperature=0.05, prototypes=np.eye(d))
        x = np.zeros((1, d))
        x[0, 2] = 1.0
        pred = M.classify(params, x)
        assert pred.probabilities.argmax() == 2
        assert pred.probabilities[0, 2] > 0.99

    def test_equidistant_gives_uniform(self):
        d = 3
        params = identity_extractor_model(d, d, prototypes=np.eye(d))
        pred = M.classify(params, np.ones((1, d)))
        assert np.allclose(pred.probabilities, 1.0 / 3.0)

    def test_embedding_scale_invariance(self):
        d = 3
        params = identity_extractor_model(d, d, prototypes=np.eye(d))
        x = np.array([[0.2, 1.4, 0.7]])
        p1 = M.classify(params, x).probabilities
        p2 = M.classify(params, 10.0 * x).probabilities
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
        pred = M.classify(params, rng.normal(size=(30, 2)))
        assert np.abs(pred.probabilities.sum(axis=1) - 1.0).max() < 1e-6


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
        emb, _ = np.linalg.norm(M.extract_features(params, x), axis=1, keepdims=True), None
        normalized = M.extract_features(params, x) / np.maximum(emb, 1e-12)
        protos = params.prototypes.value / np.linalg.norm(params.prototypes.value, axis=0)
        sims = normalized @ protos
        for cls in (0, 1):
            class_sims = sims[y == cls].mean(axis=0)
            assert class_sims.argmax() == cls


class TestDomainDiscriminator:
    def test_untrained_head_outputs_half(self):
        params = M.init_model(2, (4, 3), 2, seed=0)
        p = M.discriminate_domain(params, np.random.default_rng(0).normal(size=(6, 3)))
        assert np.array_equal(p, np.full(6, 0.5))

    def test_single_sample(self):
        params = M.init_model(2, (4, 3), 2, seed=0)
        p = M.discriminate_domain(params, np.ones((1, 3)))
        assert p.shape == (1,)

    def test_trains_on_separable_embeddings(self):
        rng = np.random.default_rng(1)
        src = rng.normal((-1.5, 0, 0), 0.4, (60, 3))
        tgt = rng.normal((1.5, 0, 0), 0.4, (60, 3))
        params = M.init_model(3, (4, 3), 2, seed=0)
        w, b = params.domain_head
        emb = np.vstack([src, tgt])
        labels = np.repeat([0, 1], 60)
        from coalign import numerics

        lrs = {w.name: 0.5, b.name: 0.5}
        for _ in range(200):
            logits = numerics.linear_forward(emb, w, b)
            _, dlogits = numerics.softmax_cross_entropy(logits, labels)
            numerics.linear_backward(dlogits, emb, w, b)
            sgd_momentum_step([w, b], lrs, 0.9)
        p = M.discriminate_domain(params, emb)
        accuracy = ((p > 0.5).astype(int) == labels).mean()
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

    def test_non_finite_values(self, tmp_path):
        def poison(doc):
            doc["blocks"]["prototypes"]["values"][1] = float("nan")

        path = self._edited(tmp_path, poison)
        with pytest.raises(CheckpointError, match="prototypes"):
            M.load_checkpoint(path)
