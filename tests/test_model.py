import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from coalign import objectives, selftrain, trainer
from coalign import model as M
from coalign.errors import FormatError, UsageError
from coalign.numerics import sgd_momentum_step
from conftest import (WRONG_VALUES, identity_extractor_model, runs_or_fails_with_a_package_error,
                      with_leaf)


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
        with pytest.raises(UsageError, match=r"^inputs shape \(1, 3\) incompatible with input dim 2$"):
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
        shifted = cache.normalized @ params.prototypes.value / params.temperature + 3.7
        assert np.array_equal(cache.probs.argmax(axis=1), shifted.argmax(axis=1))

    def test_probability_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        params = M.init_model(2, (8, 4), 4, seed=1)
        pred = M.forward_full(params, rng.normal(size=(30, 2)))
        assert np.abs(pred.probs.sum(axis=1) - 1.0).max() < 1e-6

    @pytest.mark.parametrize("shape", [(64, (256, 128), 10), (2, (32, 16), 4)])
    @pytest.mark.parametrize("rows", [1, 2, 781, 1023, 1024, 1025, 2047, 2048, 2049, 2561, 3000,
                                      5000])
    def test_predict_is_forward_full_byte_for_byte(self, shape, rows):
        """Blocks of PREDICT_BLOCK_ROWS leave the logits products' bits as
        they are over the whole input; at the wide shape 512-row blocks do not."""
        params = M.init_model(*shape, temperature=0.3, seed=1)
        rng = np.random.default_rng(rows)
        params.arena.value[...] += 0.05 * rng.standard_normal(params.arena.value.shape)
        x = rng.random((rows, shape[0]))
        assert M.predict(params, x).tobytes() == M.forward_full(params, x).probs.tobytes()


class TestForwardMemory:
    """The forward keeps one array per layer: besides the cache (every
    layer's ReLU output, the normalized embedding, logits and probabilities)
    it holds at most 16 float64 columns per row in temporaries."""

    @pytest.mark.parametrize("rows, input_dim, hidden_dims, classes",
                             [(2048, 64, (256, 128), 10), (800, 2, (32, 16), 4)])
    def test_peak_is_one_array_per_layer(self, rows, input_dim, hidden_dims, classes):
        params = M.init_model(input_dim, hidden_dims, classes, temperature=0.3, seed=1)
        x = np.random.default_rng(0).random((rows, input_dim))
        M.forward_full(params, x)
        tracemalloc.start()
        try:
            cache = M.forward_full(params, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cache.probs.shape == (rows, classes)
        assert peak <= self.columns(hidden_dims, classes) * rows * 8, \
            f"peak {peak / rows / 8:.1f} float64 columns per row"

    @staticmethod
    def columns(hidden_dims, classes):
        """The float64 columns per row that a forward may hold at its peak."""
        return sum(hidden_dims) + hidden_dims[-1] + 2 * classes + 16

    def test_pseudo_label_pass_holds_one_block(self):
        """Pseudo-labelling the wide target set holds one block's forward (at
        most 2 * PREDICT_BLOCK_ROWS - 1 rows) plus its outputs: the block and
        joined probabilities, labels, confidences and the row index."""
        rows, hidden_dims, classes = 2561, (256, 128), 10
        params = M.init_model(64, hidden_dims, classes, temperature=0.3, seed=1)
        x = np.random.default_rng(0).random((rows, 64))
        selftrain.assign_pseudo_labels(params, x)
        tracemalloc.start()
        try:
            labels, _ = selftrain.assign_pseudo_labels(params, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert labels.shape == (rows,)
        block_rows = 2 * M.PREDICT_BLOCK_ROWS - 1
        bound = (self.columns(hidden_dims, classes) * block_rows + (2 * classes + 3) * rows) * 8
        assert peak <= bound, f"peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"


class TestPrototypeSemantics:
    def test_prototypes_align_with_their_class(self):
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal((-2, 0), 0.3, (30, 2)), rng.normal((2, 0), 0.3, (30, 2))])
        y = np.repeat([0, 1], 30)
        params = M.init_model(2, (8, 4), 2, temperature=0.3, seed=0)
        for _ in range(300):
            objectives.source_classification_loss(params, x, y)
            sgd_momentum_step(params.all_blocks(), 0.05, 0.9)
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
        for _ in range(200):
            _, accuracy = reference.domain_alignment_loss(params, src, tgt)
            sgd_momentum_step([w, b], 0.5, 0.9)
            params.arena.zero_grad()
        assert accuracy > 0.9


BAD_TEMPERATURES = [float("nan"), float("inf"), "0.3", 0, -1.0, None]


class TestInitModel:
    @pytest.mark.parametrize("args, named", [
        *(((2, (4,), 2, temperature), "temperature must be a finite positive number")
          for temperature in BAD_TEMPERATURES),
        ((2, (), 4, 0.05), "hidden_dims must be a list of at least one positive integer width"),
        ((0, (4,), 3, 0.05), "input_dim must be a positive integer"),
        ((2, (4,), 0, 0.05), "num_classes must be a positive integer"),
        ((2, (4,), 2, 0.05, -1), "seed must be a nonnegative integer"),
    ], ids=[*map(str, BAD_TEMPERATURES), "hidden_dims", "input_dim", "num_classes", "seed"])
    def test_bad_temperature_is_named(self, args, named):
        # init_model checks every argument by the checkpoint header's rule for
        # it, and its seed, which no checkpoint holds, by NONNEGATIVE_INT
        with pytest.raises(UsageError, match=f"^{named}, got "):
            M.init_model(*args)


def per_block_step(params, config, grads):
    """The update of each block on its own, as (value, momentum) by name:
    the reference the one arena update must equal bit for bit."""
    extractor = {block.name for block in params.extractor_blocks()}
    expected = {}
    for block in params.all_blocks():
        lr = config.lr_backbone if block.name in extractor else config.lr_head
        momentum = block.momentum * config.momentum + grads[block.name]
        expected[block.name] = (block.value - lr * momentum, momentum)
    return expected


def arena_step(params, config, grads):
    for block in params.all_blocks():
        block.grad[...] = grads[block.name]
    sgd_momentum_step([params.arena], trainer._learning_rates(params, config), config.momentum)


def assert_views_of_the_arena(params):
    for block in params.all_blocks():
        for attr in ("value", "grad", "momentum"):
            assert np.shares_memory(getattr(block, attr), getattr(params.arena, attr)), (
                block.name, attr)


class TestArena:
    @settings(max_examples=40, deadline=None)
    @given(input_dim=st.integers(1, 6), hidden=st.lists(st.integers(1, 8), min_size=1, max_size=3),
           classes=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           lr_backbone=st.floats(0.0, 1.0), lr_head=st.floats(0.0, 1.0),
           momentum=st.floats(0.0, 0.99), steps=st.integers(1, 4))
    def test_one_arena_update_is_the_per_block_update(
            self, input_dim, hidden, classes, seed, lr_backbone, lr_head, momentum, steps):
        params = M.init_model(input_dim, tuple(hidden), classes, seed=seed)
        assert_views_of_the_arena(params)
        config = trainer.TrainConfig(lr_backbone=lr_backbone, lr_head=lr_head, momentum=momentum)
        rng = np.random.default_rng(seed)
        for _ in range(steps):
            grads = {b.name: rng.normal(size=b.value.shape) for b in params.all_blocks()}
            expected = per_block_step(params, config, grads)
            arena_step(params, config, grads)
            for block in params.all_blocks():
                value, moment = expected[block.name]
                assert block.value.tobytes() == value.tobytes(), block.name
                assert block.momentum.tobytes() == moment.tobytes(), block.name
                assert not block.grad.any(), block.name

        with tempfile.TemporaryDirectory() as tmp:
            M.save_checkpoint(params, Path(tmp, "model.json"))
            loaded = M.load_checkpoint(Path(tmp, "model.json"))
        assert_views_of_the_arena(loaded)
        params.arena.momentum[...] = 0.0  # a checkpoint holds no momentum
        grads = {b.name: rng.normal(size=b.value.shape) for b in params.all_blocks()}
        arena_step(params, config, grads)
        arena_step(loaded, config, grads)
        assert loaded.arena.value.tobytes() == params.arena.value.tobytes()
        assert loaded.arena.momentum.tobytes() == params.arena.momentum.tobytes()


class TestCheckpoint:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        params = M.init_model(2, (8, 4), 3, temperature=0.2, seed=42)
        path = tmp_path / "model.json"
        M.save_checkpoint(params, path)
        loaded = M.load_checkpoint(path)
        assert loaded.temperature == params.temperature
        assert [b.name for b in loaded.all_blocks()] == [b.name for b in params.all_blocks()]
        assert np.array_equal(loaded.arena.value, params.arena.value)

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
        assert loaded.temperature == temperature
        assert [b.name for b in loaded.all_blocks()] == [b.name for b in params.all_blocks()]
        assert loaded.arena.value.tobytes() == params.arena.value.tobytes()

    def test_holds_the_header_and_the_arena(self, tmp_path):
        params = M.init_model(2, (8, 4), 3, temperature=0.2, seed=42)
        path = tmp_path / "model.json"
        M.save_checkpoint(params, path)
        doc = json.loads(path.read_text())
        assert doc == {"format_version": 2, "temperature": 0.2, "input_dim": 2, "hidden_dims": [8, 4],
                       "num_classes": 3,
                       "arena": [v for b in params.all_blocks() for v in b.value.reshape(-1).tolist()]}
        assert [b.name for b in params.all_blocks()] == [
            "layer0.weight", "layer0.bias", "layer1.weight", "layer1.bias", "prototypes",
            "domain.weight", "domain.bias"]

    def test_version_1_document(self, tmp_path):
        """A checkpoint in the per-block layout of version 1 is refused by its version."""
        params = M.init_model(2, (4,), 2, seed=0)
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "format_version": 1, "temperature": params.temperature, "seed": 0, "input_dim": 2,
            "hidden_dims": [4], "num_classes": 2,
            "blocks": {b.name: {"shape": list(b.value.shape), "values": b.value.reshape(-1).tolist()}
                       for b in params.all_blocks()}}))
        with pytest.raises(FormatError, match=r"^checkpoint version 1 unsupported \(want 2\)$"):
            M.load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        params = M.init_model(2, (4,), 2, seed=0)
        path = tmp_path / "model.json"
        M.save_checkpoint(params, path)
        doc = path.read_text().replace('"format_version": 2', '"format_version": 99')
        path.write_text(doc)
        with pytest.raises(FormatError, match=r"^checkpoint version 99 unsupported \(want 2\)$"):
            M.load_checkpoint(path)

    @pytest.mark.parametrize("version", [True, 2.0, 1.0, "2", None])
    def test_version_is_the_integer_2(self, tmp_path, version):
        # True == 1.0 == 1 and 2.0 == 2, so only the type tells these apart
        path = self._edited(tmp_path, lambda doc: doc.update(format_version=version))
        with pytest.raises(FormatError, match=rf"^checkpoint version {re.escape(repr(version))} "
                                              rf"unsupported \(want 2\)$"):
            M.load_checkpoint(path)

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "junk.json"
        # the deep document exceeds the JSON decoder's recursion limit
        for text in ("{not json", "[" * 100_000):
            path.write_text(text)
            with pytest.raises(FormatError, match=f"^cannot read {re.escape(str(path))}: "):
                M.load_checkpoint(path)

    def _edited(self, tmp_path, edit):
        path = tmp_path / "model.json"
        M.save_checkpoint(M.init_model(2, (4,), 2, seed=0), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("key", ["temperature", "hidden_dims", "arena"])
    def test_missing_top_level_key_is_named(self, tmp_path, key):
        path = self._edited(tmp_path, lambda doc: doc.pop(key))
        with pytest.raises(FormatError, match=key):
            M.load_checkpoint(path)

    def test_values_length_not_matching_shape(self, tmp_path):
        # the model of _edited holds 30 values: 8 + 4 + 8 + 8 + 2
        for edit, held in ((lambda doc: doc["arena"].pop(), 29),
                           (lambda doc: doc["arena"].append(0.0), 31)):
            path = self._edited(tmp_path, edit)
            with pytest.raises(FormatError, match=rf"^checkpoint {re.escape(str(path))}: "
                                                  rf"arena holds {held} values, the model 30$"):
                M.load_checkpoint(path)

    @pytest.mark.parametrize("edit, named", [
        (lambda doc: doc.update(temperature=-1), "temperature"),
        (lambda doc: doc.update(temperature="x"), "temperature"),
        (lambda doc: doc.update(hidden_dims="ab"), "hidden_dims"),
        (lambda doc: doc.update(input_dim=-3), "input_dim"),
        # a version 1 seed or blocks left in the document is a key of no version 2 field
        (lambda doc: doc.update(seed=-1), r"has unknown keys \['seed'\]$"),
        (lambda doc: doc.update(blocks=[]), r"has unknown keys \['blocks'\]$"),
        (lambda doc: doc.update(momentum=[0.0] * 30), r"has unknown keys \['momentum'\]$"),
        # the message names the first bad value and its index, not the whole arena
        (lambda doc: doc["arena"].__setitem__(3, "-0.2513"),
         r"arena\[3\] must be a finite number, got '-0.2513'$"),
        (lambda doc: doc["arena"].__setitem__(5, True), r"arena\[5\] must be a finite number, got True$"),
        (lambda doc: doc["arena"].__setitem__(0, [0.5]),
         r"arena\[0\] must be a finite number, got \[0.5\]$"),
        (lambda doc: doc.update(arena={"layer0.bias": [0.0] * 4}),
         r"arena must be a list, got \{'layer0.bias': \[0.0, 0.0, 0.0, 0.0\]\}$"),
        # an int beyond float range is not a finite number
        (lambda doc: doc["arena"].__setitem__(7, 10**400),
         r"arena\[7\] must be a finite number, got 10{400}$"),
    ], ids=["negative temperature", "text temperature", "text hidden_dims",
            "negative input_dim", "negative seed", "list blocks", "extra key", "text values",
            "boolean value", "nested value", "arena not a list", "huge int value"])
    def test_bad_header_or_block_is_named(self, tmp_path, edit, named):
        path = self._edited(tmp_path, edit)
        with pytest.raises(FormatError, match=named):
            M.load_checkpoint(path)

    def test_document_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2]")
        with pytest.raises(FormatError, match="JSON object"):
            M.load_checkpoint(path)

    # every header leaf of _edited's checkpoint and its first three arena values
    FUZZED_LEAVES = [("format_version",), ("temperature",), ("input_dim",), ("hidden_dims", 0),
                     ("num_classes",), ("arena", 0), ("arena", 1), ("arena", 2)]

    @settings(max_examples=len(FUZZED_LEAVES) * len(WRONG_VALUES))
    @given(leaf=st.sampled_from(FUZZED_LEAVES), value=st.sampled_from(WRONG_VALUES))
    def test_a_wrong_leaf_loads_or_fails_with_a_package_error(self, leaf, value):
        """One leaf of a small checkpoint set to a wrong value either loads
        or raises an error type of the package."""
        with tempfile.TemporaryDirectory() as tmp:
            path = self._edited(Path(tmp), lambda doc: doc.update(with_leaf(doc, leaf, value)))
            runs_or_fails_with_a_package_error(lambda: M.load_checkpoint(path))

    def test_non_finite_values(self, tmp_path):
        def poison(doc):
            doc["arena"][13] = float("nan")

        path = self._edited(tmp_path, poison)
        with pytest.raises(FormatError, match=r"arena\[13\] must be a finite number, got nan$"):
            M.load_checkpoint(path)
