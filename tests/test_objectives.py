import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from coalign import model as M
from coalign import numerics, objectives
from coalign.errors import UsageError
from coalign.numerics import mean_entropy, sgd_momentum_step
from conftest import identity_extractor_model


def separable_batch(rng, n_per=10):
    x = np.vstack([rng.normal((-2, 0), 0.4, (n_per, 2)), rng.normal((2, 0), 0.4, (n_per, 2))])
    y = np.repeat([0, 1], n_per)
    return x, y


class TestSourceClassificationLoss:
    def test_untrained_near_uniform(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 2))
        y = rng.integers(0, 4, 40)
        params = M.init_model(2, (32, 16), 4, temperature=1.0, seed=0)
        loss = objectives.source_classification_loss(params, x, y)["l_sc"]
        assert loss == pytest.approx(np.log(4), abs=0.1)

    def test_overfit_toy_set(self):
        rng = np.random.default_rng(1)
        x, y = separable_batch(rng)
        params = M.init_model(2, (8, 4), 2, temperature=0.1, seed=0)
        for _ in range(500):
            loss = objectives.source_classification_loss(params, x, y)["l_sc"]
            sgd_momentum_step(params.all_blocks(), 0.05, 0.9)
        assert loss < 0.05

    def test_duplicated_batch_same_loss(self):
        rng = np.random.default_rng(2)
        x, y = separable_batch(rng)
        params = M.init_model(2, (8, 4), 2, seed=0)
        single = objectives.source_classification_loss(params, x, y)["l_sc"]
        params.arena.zero_grad()
        double = objectives.source_classification_loss(
            params, np.vstack([x, x]), np.concatenate([y, y])
        )["l_sc"]
        params.arena.zero_grad()
        assert double == pytest.approx(single, abs=1e-12)

    def test_empty_batch(self):
        params = M.init_model(2, (4,), 2, seed=0)
        with pytest.raises(UsageError):
            objectives.source_classification_loss(params, np.zeros((0, 2)), np.zeros(0, dtype=int))


class TestSelfTrainingLoss:
    def test_all_zero_mask_reduces_to_supervised(self):
        rng = np.random.default_rng(3)
        x, y = separable_batch(rng)
        tgt = rng.normal(size=(8, 2))
        params = M.init_model(2, (8, 4), 2, seed=1)
        supervised = objectives.source_classification_loss(params, x, y)["l_sc"]
        grads = {b.name: b.grad.copy() for b in params.all_blocks()}
        params.arena.zero_grad()
        l_st, l_sc, l_pseudo = reference.self_training_loss(
            params, x, y, tgt, np.zeros(8, dtype=int), np.zeros(8)
        )
        assert l_st == supervised
        assert l_pseudo == 0.0
        for b in params.all_blocks():
            assert np.array_equal(b.grad, grads[b.name])

    def test_saturated_model_target_term_vanishes(self):
        params = identity_extractor_model(3, 3, prototypes=np.eye(3))
        tgt = np.eye(3)  # each sample sits exactly on its prototype
        pseudo = np.arange(3)
        l_st, l_sc, l_pseudo = reference.self_training_loss(
            params, np.eye(3), np.arange(3), tgt, pseudo, np.ones(3)
        )
        assert l_pseudo == pytest.approx(0.0, abs=1e-6)

    def test_hand_built_two_sample_case(self):
        # identity features, identity prototypes, T=1: each cross-entropy is
        # ln(1 + e^-1) because the correct logit is 1 and the other is 0
        params = identity_extractor_model(2, 2, temperature=1.0, prototypes=np.eye(2))
        src_x = np.array([[1.0, 0.0]])
        tgt_x = np.array([[0.0, 1.0]])
        l_st, l_sc, l_pseudo = reference.self_training_loss(
            params, src_x, np.array([0]), tgt_x, np.array([1]), np.ones(1)
        )
        hand = math.log(1.0 + math.exp(-1.0))
        assert l_sc == pytest.approx(hand, abs=1e-12)
        assert l_pseudo == pytest.approx(hand, abs=1e-12)
        assert l_st == pytest.approx(2 * hand, abs=1e-12)

    def test_breakdown_identity(self):
        rng = np.random.default_rng(4)
        x, y = separable_batch(rng)
        tgt = rng.normal(size=(12, 2))
        params = M.init_model(2, (8, 4), 2, seed=2)
        mask = (rng.random(12) > 0.5).astype(np.float64)
        l_st, l_sc, l_pseudo = reference.self_training_loss(
            params, x, y, tgt, rng.integers(0, 2, 12), mask
        )
        assert abs(l_st - (l_sc + l_pseudo)) < 1e-9


class TestEntropyObjective:
    def test_alpha_zero_no_gradients(self):
        rng = np.random.default_rng(5)
        params = M.init_model(2, (8, 4), 3, seed=0)
        reference.entropy_objective(params, rng.normal(size=(6, 2)), 0.0)
        for b in params.all_blocks():
            assert np.array_equal(b.grad, np.zeros_like(b.grad))

    def test_sign_contract_bitwise(self):
        rng = np.random.default_rng(6)
        params = M.init_model(2, (8, 4), 3, seed=0)
        tgt = rng.normal(size=(10, 2))
        alpha = 0.1

        cache = M.forward_full(params, tgt)
        _, d_logits = mean_entropy(cache.probs)
        M.backward_extractor(params, cache, M.backward_head(params, cache, d_logits, d_logits))
        naive = {b.name: b.grad.copy() for b in params.all_blocks()}
        params.arena.zero_grad()

        reference.entropy_objective(params, tgt, alpha)
        assert np.array_equal(params.prototypes.grad, -alpha * naive["prototypes"])
        for b in params.extractor_blocks():
            assert np.array_equal(b.grad, alpha * naive[b.name])

    def test_single_step_directions(self):
        # classifier step raises the batch entropy, extractor step lowers it
        rng = np.random.default_rng(7)
        x, y = separable_batch(rng, 20)
        tgt = rng.normal(0, 1.5, size=(30, 2))
        params = M.init_model(2, (8, 4), 2, temperature=0.3, seed=0)
        for _ in range(100):
            objectives.source_classification_loss(params, x, y)
            sgd_momentum_step(params.all_blocks(), 0.05, 0.9)

        def entropy_now():
            return mean_entropy(M.forward_full(params, tgt).probs)[0]

        snapshot = [b.value.copy() for b in params.all_blocks()]
        h0 = entropy_now()
        reference.entropy_objective(params, tgt, 0.5)
        sgd_momentum_step([params.prototypes], 0.05, 0.0)
        assert entropy_now() > h0
        for b, v in zip(params.all_blocks(), snapshot):
            b.value[...] = v
            b.momentum[...] = 0.0
        params.arena.zero_grad()
        reference.entropy_objective(params, tgt, 0.5)
        sgd_momentum_step(params.extractor_blocks(), 0.05, 0.0)
        assert entropy_now() < h0


class TestCombinedBackward:
    def test_matches_sum_of_separate_passes(self):
        rng = np.random.default_rng(8)
        x, y = separable_batch(rng)
        tgt = rng.normal(size=(12, 2))
        pseudo = rng.integers(0, 2, 12)
        mask = (rng.random(12) > 0.4).astype(np.float64)
        alpha = 0.1

        params = M.init_model(2, (8, 4), 2, seed=3)
        reference.self_training_loss(params, x, y, tgt, pseudo, mask)
        st_grads = {b.name: b.grad.copy() for b in params.all_blocks()}
        params.arena.zero_grad()
        reference.entropy_objective(params, tgt, alpha)
        h_grads = {b.name: b.grad.copy() for b in params.all_blocks()}
        params.arena.zero_grad()

        reference.self_training_loss(params, x, y, tgt, pseudo, mask)
        reference.entropy_objective(params, tgt, alpha)
        for b in params.all_blocks():
            assert np.abs(b.grad - (st_grads[b.name] + h_grads[b.name])).max() < 1e-10


class TestDomainAlignment:
    def test_reversal_contract_scales_exactly(self):
        rng = np.random.default_rng(12)
        src = rng.normal(size=(10, 2))
        tgt = rng.normal(size=(10, 2)) + 1.0

        def extractor_grads(lam):
            params = M.init_model(2, (8, 4), 2, seed=4)
            params.domain_head[0].value[...] = rng.normal(size=(4, 2)) * 0.1
            reference.domain_alignment_loss(params, src, tgt, grl_lambda=lam)
            return {b.name: b.grad.copy() for b in params.extractor_blocks()}

        rng_state = rng.bit_generator.state
        g_full = extractor_grads(1.0)
        rng.bit_generator.state = rng_state
        g_scaled = extractor_grads(0.7)
        for name in g_full:
            # two accumulations (source and target batch) reassociate the
            # scaling, so exactness here is per-accumulation, not per-sum
            assert np.allclose(g_scaled[name], 0.7 * g_full[name], rtol=1e-13, atol=1e-18)

    def test_loss_and_accuracy_ranges(self):
        rng = np.random.default_rng(13)
        params = M.init_model(2, (8, 4), 2, seed=5)
        loss, accuracy = reference.domain_alignment_loss(
            params, rng.normal(size=(8, 2)), rng.normal(size=(8, 2)))
        assert loss == pytest.approx(np.log(2), abs=1e-9)  # zero-initialized head
        assert 0.0 <= accuracy <= 1.0


def _grads(params):
    grads = {b.name: b.grad.copy() for b in params.all_blocks()}
    params.arena.zero_grad()
    return grads


def _assert_blocks_close(stacked, want, tol=1e-10):
    for name, g in want.items():
        assert np.abs(stacked[name] - g).max() <= tol, name


# source and target row counts differ, so a slice at the wrong row breaks shapes
row_counts = st.tuples(st.integers(1, 12), st.integers(1, 12)).filter(lambda t: t[0] != t[1])


class TestStackedSteps:
    """The one-pass step objectives against the per-term references."""

    @given(rows=row_counts, seed=st.integers(0, 2**16),
           mask=st.lists(st.booleans(), min_size=12, max_size=12),
           alpha=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
           entropy_term=st.booleans())
    def test_coal_objective_matches_per_term_passes(self, rows, seed, mask, alpha, entropy_term):
        n_src, n_tgt = rows
        rng = np.random.default_rng(seed)
        src_x, tgt_x = rng.normal(size=(n_src, 2)), rng.normal(size=(n_tgt, 2))
        src_y, pseudo = rng.integers(0, 3, n_src), rng.integers(0, 3, n_tgt)
        weights = np.array(mask[:n_tgt], dtype=np.float64)
        params = M.init_model(2, (8, 4), 3, temperature=0.3, seed=seed)

        l_st, l_sc, l_pseudo = reference.self_training_loss(
            params, src_x, src_y, tgt_x, pseudo, weights)
        if entropy_term:
            l_h = reference.entropy_objective(params, tgt_x, alpha)
        else:
            l_h = mean_entropy(M.forward_full(params, tgt_x).probs)[0]
        want = _grads(params)

        # alpha = 0 is how an ablation drops the entropy gradient
        got = objectives.coal_objective(
            params, src_x, src_y, tgt_x, pseudo, weights, alpha if entropy_term else 0.0)
        assert got == pytest.approx(
            {"l_sc": l_sc, "l_target_pseudo": l_pseudo, "l_st": l_st, "l_h": l_h}, abs=1e-10)
        _assert_blocks_close(_grads(params), want)

    @given(rows=row_counts, seed=st.integers(0, 2**16), alpha=st.floats(0.0, 2.0))
    def test_coal_objective_without_pseudo_term(self, rows, seed, alpha):
        n_src, n_tgt = rows
        rng = np.random.default_rng(seed)
        src_x, tgt_x = rng.normal(size=(n_src, 2)), rng.normal(size=(n_tgt, 2))
        src_y = rng.integers(0, 3, n_src)
        params = M.init_model(2, (8, 4), 3, temperature=0.3, seed=seed)

        l_sc = reference.source_classification_loss(params, src_x, src_y)
        l_h = reference.entropy_objective(params, tgt_x, alpha)
        want = _grads(params)

        # all-zero weights are how an ablation drops the pseudo-label term
        got = objectives.coal_objective(params, src_x, src_y, tgt_x, rng.integers(0, 3, n_tgt),
                                        np.zeros(n_tgt), alpha)
        assert got["l_target_pseudo"] == 0.0 and got["l_st"] == got["l_sc"]
        assert math.copysign(1.0, got["l_target_pseudo"]) == 1.0
        assert got["l_sc"] == pytest.approx(l_sc, abs=1e-10)
        assert got["l_h"] == pytest.approx(l_h, abs=1e-10)
        _assert_blocks_close(_grads(params), want)

    @given(rows=row_counts, seed=st.integers(0, 2**16), lam=st.floats(0.0, 3.0))
    def test_marginal_align_objective_matches_per_term_passes(self, rows, seed, lam):
        n_src, n_tgt = rows
        rng = np.random.default_rng(seed)
        src_x, tgt_x = rng.normal(size=(n_src, 2)), rng.normal(size=(n_tgt, 2)) + 1.0
        src_y = rng.integers(0, 3, n_src)
        params = M.init_model(2, (8, 4), 3, temperature=0.3, seed=seed)
        params.domain_head[0].value[...] = rng.normal(size=(4, 2))
        params.domain_head[1].value[...] = rng.normal(size=(1, 2))

        l_sc = reference.source_classification_loss(params, src_x, src_y)
        l_dom, accuracy = reference.domain_alignment_loss(params, src_x, tgt_x, grl_lambda=lam)
        want = _grads(params)

        got = objectives.marginal_align_objective(params, src_x, src_y, tgt_x, grl_lambda=lam)
        assert (got["l_sc"], got["l_domain"]) == pytest.approx((l_sc, l_dom), abs=1e-10)
        assert got["domain_discriminator_accuracy"] == accuracy
        _assert_blocks_close(_grads(params), want)

    def test_one_forward_per_step(self, monkeypatch):
        calls = []
        forward = M.forward_full
        monkeypatch.setattr(M, "forward_full", lambda p, x: calls.append(len(x)) or forward(p, x))
        rng = np.random.default_rng(14)
        params = M.init_model(2, (8, 4), 2, seed=0)
        src_x, src_y, tgt_x = rng.normal(size=(5, 2)), rng.integers(0, 2, 5), rng.normal(size=(7, 2))
        objectives.coal_objective(params, src_x, src_y, tgt_x, np.zeros(7, dtype=int), np.ones(7), 0.1)
        objectives.marginal_align_objective(params, src_x, src_y, tgt_x)
        assert calls == [12, 12]

    def test_empty_source_batch(self):
        params = M.init_model(2, (4,), 2, seed=0)
        empty_x, empty_y, tgt = np.zeros((0, 2)), np.zeros(0, dtype=int), np.zeros((3, 2))
        with pytest.raises(UsageError):
            objectives.coal_objective(params, empty_x, empty_y, tgt, np.zeros(3, dtype=int),
                                      np.ones(3), 0.1)
        with pytest.raises(UsageError):
            objectives.marginal_align_objective(params, empty_x, empty_y, tgt)

    @pytest.mark.parametrize("tgt_rows, alpha, message", [
        (3, -0.1, "^alpha must be nonnegative, got -0.1$"),
        (0, 0.1, r"^probs must hold at least one row, got shape \(0, 2\)$"),
    ], ids=["negative-alpha", "empty-target"])
    def test_bad_coal_input_is_named(self, tgt_rows, alpha, message):
        params = M.init_model(2, (4,), 2, seed=0)
        with pytest.raises(UsageError, match=message):
            objectives.coal_objective(params, np.zeros((2, 2)), np.array([0, 1]), np.zeros((tgt_rows, 2)),
                                      np.zeros(tgt_rows, dtype=int), np.ones(tgt_rows), alpha)



class TestWideShapeIdentity:
    """One step at the benchmark's wide shapes (64-D inputs, hidden
    (256, 128), 10 classes, 256 + 256 rows) leaves the arena gradient
    byte-identical to the written-out reference chain. About half of the
    ReLU units are active, in random order."""

    N = 256

    def setup_batch(self, seed):
        rng = np.random.default_rng(seed)
        params = M.init_model(64, (256, 128), 10, temperature=0.3, seed=seed)
        params.domain_head[0].value[...] = rng.normal(size=(128, 2))
        params.domain_head[1].value[...] = rng.normal(size=(1, 2))
        src_x, tgt_x = rng.random((self.N, 64)), 0.8 * rng.random((self.N, 64)) + 0.15
        return params, rng, src_x, rng.integers(0, 10, self.N), tgt_x

    def test_coal_step(self):
        params, rng, src_x, src_y, tgt_x = self.setup_batch(21)
        pseudo, weights, alpha = rng.integers(0, 10, self.N), rng.random(self.N) < 0.5, 0.1
        objectives.coal_objective(params, src_x, src_y, tgt_x, pseudo, weights, alpha)
        got = params.arena.grad.tobytes()
        params.arena.zero_grad()

        cache = M.forward_full(params, np.vstack([src_x, tgt_x]))
        assert 0.3 < np.mean(cache.acts[0] > 0.0) < 0.7
        _, d_src = numerics.cross_entropy(cache.probs[:self.N], src_y)
        _, d_pseudo = numerics.cross_entropy(cache.probs[self.N:], pseudo, weights)
        _, d_ent = numerics.mean_entropy(cache.probs[self.N:])
        reference.backward_head(params, cache, np.vstack([d_src, d_pseudo - alpha * d_ent]),
                        np.vstack([d_src, d_pseudo + alpha * d_ent]))
        assert got == params.arena.grad.tobytes()

    def test_marginal_align_step(self):
        params, rng, src_x, src_y, tgt_x = self.setup_batch(22)
        lam = 2.0
        objectives.marginal_align_objective(params, src_x, src_y, tgt_x, grl_lambda=lam)
        got = params.arena.grad.tobytes()
        params.arena.zero_grad()

        cache = M.forward_full(params, np.vstack([src_x, tgt_x]))
        _, d_src = numerics.cross_entropy(cache.probs[:self.N], src_y)
        d_logits = np.zeros_like(cache.probs)
        d_logits[:self.N] = d_src
        domains = np.repeat([0, 1], self.N)
        w, b = params.domain_head
        logits = numerics.linear_forward(cache.embeddings, w, b)
        _, d_dom = numerics.cross_entropy(numerics.softmax(logits), domains)
        d_embed = reference.linear_backward(d_dom, cache.embeddings, w, b)
        assert np.abs(d_embed).max() > 0.0
        reference.backward_head(params, cache, d_logits, d_logits, -lam * d_embed)
        assert got == params.arena.grad.tobytes()
