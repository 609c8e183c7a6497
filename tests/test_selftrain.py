import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coalign import model as M
from coalign import selftrain
from coalign.errors import UsageError
from coalign.selftrain import K_SCHEDULE_PRESETS
from conftest import identity_extractor_model
from test_acceptance import brute_force_select


class TestAssignPseudoLabels:
    def test_one_hot_prediction(self):
        d = 3
        params = identity_extractor_model(d, d, prototypes=np.eye(d))
        x = np.zeros((1, d))
        x[0, 1] = 1.0
        labels, conf = selftrain.assign_pseudo_labels(params, x)
        assert labels[0] == 1
        assert conf[0] > 0.99

    def test_uniform_tie_goes_to_class_zero(self):
        d = 4
        params = identity_extractor_model(d, d, temperature=1.0, prototypes=np.eye(d))
        labels, conf = selftrain.assign_pseudo_labels(params, np.ones((1, d)))
        assert labels[0] == 0
        assert conf[0] == pytest.approx(0.25, abs=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        params = M.init_model(2, (8, 4), 3, seed=7)
        x = rng.normal(size=(20, 2))
        l1, c1 = selftrain.assign_pseudo_labels(params, x)
        l2, c2 = selftrain.assign_pseudo_labels(params, x)
        assert np.array_equal(l1, l2)
        assert np.array_equal(c1, c2)


class TestSelectTopKPerClass:
    def test_ten_samples_k30(self):
        rng = np.random.default_rng(1)
        conf = rng.random(10)
        labels = np.zeros(10, dtype=int)
        out = selftrain.select_top_k_per_class(labels, conf, 30.0, 1)
        assert out.mask.sum() == 3
        top3 = set(np.argsort(-conf)[:3])
        assert set(np.flatnonzero(out.mask)) == top3

    def test_k_zero_all_unmasked(self):
        out = selftrain.select_top_k_per_class(np.zeros(5, dtype=int), np.ones(5), 0.0, 1)
        assert out.mask.sum() == 0

    def test_k_hundred_all_masked(self):
        rng = np.random.default_rng(2)
        out = selftrain.select_top_k_per_class(rng.integers(0, 3, 20), rng.random(20), 100.0, 3)
        assert out.mask.sum() == 20

    @pytest.mark.parametrize("k", [-1, 100.5])
    def test_k_outside_0_100_raises(self, k):
        with pytest.raises(UsageError, match=rf"k must be within \[0, 100\], got {k}$"):
            selftrain.select_top_k_per_class(np.array([0, 1]), np.array([0.9, 0.8]), k, 2)

    def test_matches_oracle_with_ties(self):
        rng = np.random.default_rng(3)
        for trial in range(50):
            n = int(rng.integers(5, 60))
            c = int(rng.integers(2, 6))
            labels = rng.integers(0, c, n)
            confidence = np.round(rng.random(n), 1)  # heavy ties
            k = float(rng.choice([0, 5, 10, 25, 50, 100, 33.4]))
            out = selftrain.select_top_k_per_class(labels, confidence, k, c)
            assert np.array_equal(out.mask, brute_force_select(labels, confidence, k, c)), (
                trial, n, c, k)

    @given(rows=st.lists(st.tuples(st.integers(0, 4), st.floats(0.0, 1.0)), max_size=80),
           k=st.one_of(st.integers(0, 100), st.floats(0.0, 100.0)), ties=st.booleans())
    def test_matches_brute_force_for_integral_and_fractional_k(self, rows, k, ties):
        labels = np.array([label for label, _ in rows], dtype=np.int64)
        confidence = np.array([conf for _, conf in rows], dtype=np.float64)
        if ties:
            confidence = np.round(confidence, 1)
        out = selftrain.select_top_k_per_class(labels, confidence, k, 5)
        assert np.array_equal(out.mask, brute_force_select(labels, confidence, k, 5))

    def test_per_class_quota_invariant(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 4, 100)
        conf = rng.random(100)
        out = selftrain.select_top_k_per_class(labels, conf, 15.0, 4)
        for cls in range(4):
            members = labels == cls
            expected = math.ceil(0.15 * members.sum())
            assert out.mask[members].sum() == expected
            selected = conf[members & (out.mask == 1)]
            skipped = conf[members & (out.mask == 0)]
            if selected.size and skipped.size:
                assert selected.min() >= skipped.max()

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 3, 40)
        conf = rng.random(40)  # distinct with probability 1
        out = selftrain.select_top_k_per_class(labels, conf, 40.0, 3)
        perm = rng.permutation(40)
        permuted = selftrain.select_top_k_per_class(labels[perm], conf[perm], 40.0, 3)
        assert np.array_equal(permuted.mask, out.mask[perm])

    def test_every_class_represented_unlike_global_top_k(self):
        # class 1 has uniformly lower confidence; a global top-30% would
        # exclude it entirely, per-class selection cannot
        labels = np.array([0] * 10 + [1] * 10)
        conf = np.concatenate([np.linspace(0.9, 0.99, 10), np.linspace(0.1, 0.2, 10)])
        out = selftrain.select_top_k_per_class(labels, conf, 30.0, 2)
        global_top = np.zeros(20, dtype=int)
        global_top[np.argsort(-conf)[:6]] = 1
        assert global_top[labels == 1].sum() == 0
        assert out.mask[labels == 1].sum() == 3
        assert out.mask[labels == 0].sum() == 3


class TestKSchedule:
    def test_default_epoch_zero(self):
        assert selftrain.advance_k(K_SCHEDULE_PRESETS["default"], 0) == 5.0

    def test_default_epoch_four(self):
        assert selftrain.advance_k(K_SCHEDULE_PRESETS["default"], 4) == 25.0

    def test_clamps_at_max(self):
        assert selftrain.advance_k(K_SCHEDULE_PRESETS["default"], 100) == 30.0

    def test_presets(self):
        assert K_SCHEDULE_PRESETS["default"] == {"k0": 5, "k_step": 5, "k_max": 30}
        assert K_SCHEDULE_PRESETS["fast-start"] == {"k0": 20, "k_step": 5, "k_max": 50}

    def test_nondecreasing(self):
        ks = [selftrain.advance_k(K_SCHEDULE_PRESETS["default"], e) for e in range(40)]
        assert all(b >= a for a, b in zip(ks, ks[1:]))

    def test_negative_epoch(self):
        with pytest.raises(UsageError, match="epoch must be nonnegative, got -1"):
            selftrain.advance_k(K_SCHEDULE_PRESETS["default"], -1)

    def test_k0_above_k_max(self):
        with pytest.raises(UsageError, match=r"^k_schedule k0 50\.0 must be at most k_max 30\.0$"):
            selftrain.advance_k({"k0": 50.0, "k_step": 5.0, "k_max": 30.0}, 0)


def test_pseudo_csv_dump(tmp_path):
    pseudo = selftrain.PseudoLabelSet(
        labels=np.array([1, 0]), confidence=np.array([0.75, 0.5]),
        mask=np.array([1, 0]))
    path = tmp_path / "pseudo.csv"
    selftrain.write_pseudo_csv(pseudo, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "sample,pseudo_label,confidence,mask"
    assert lines[1] == "0,1,0.75,1"
    assert lines[2] == "1,0,0.5,0"
