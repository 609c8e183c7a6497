import numpy as np
import pytest

from coalign import kernels, numerics
from coalign.errors import DimensionError, DivergenceError, NormalizationError
from coalign.numerics import ParamBlock


def block(name, values):
    return ParamBlock(name, np.asarray(values, dtype=np.float64))


class TestLinearForward:
    def test_identity_weights(self):
        out = numerics.linear_forward(
            np.array([[1.0, 2.0]]), block("w", [[1, 0], [0, 1]]), block("b", [[0, 0]])
        )
        assert np.array_equal(out, [[1.0, 2.0]])

    def test_zero_input_passes_bias(self):
        out = numerics.linear_forward(
            np.array([[0.0, 0.0]]), block("w", [[5, 5], [5, 5]]), block("b", [[3, -1]])
        )
        assert np.array_equal(out, [[3.0, -1.0]])

    def test_hand_matmul(self):
        out = numerics.linear_forward(
            np.array([[1.0, 1.0]]), block("w", [[2, 0], [0, 3]]), block("b", [[1, 1]])
        )
        assert np.array_equal(out, [[3.0, 4.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(1, 3\).*\(2, 2\)"):
            numerics.linear_forward(np.ones((1, 3)), block("w", np.ones((2, 2))), block("b", [[0, 0]]))


class TestNormalizeRows:
    def test_three_four_five(self):
        y, _ = kernels.normalize_rows(np.array([[3.0, 4.0]]))
        assert np.allclose(y, [[0.6, 0.8]])

    def test_zero_row_preserved(self):
        y, _ = kernels.normalize_rows(np.array([[0.0, 0.0]]))
        assert np.array_equal(y, [[0.0, 0.0]])

    def test_analytic_norm(self):
        y, _ = kernels.normalize_rows(np.array([[1.0, 1.0]]))
        assert np.allclose(y, [[1 / np.sqrt(2), 1 / np.sqrt(2)]])

    def test_unit_norms(self):
        rng = np.random.default_rng(0)
        y, _ = kernels.normalize_rows(rng.normal(size=(20, 5)))
        assert np.allclose(np.linalg.norm(y, axis=1), 1.0)


class TestSoftmaxCrossEntropy:
    def test_uniform_two_class(self):
        loss, _ = numerics.cross_entropy(kernels.softmax(np.array([[0.0, 0.0]])), np.array([0]))
        assert loss == pytest.approx(np.log(2), abs=1e-12)

    def test_saturated_correct(self):
        probs = kernels.softmax(np.array([[100.0, 0.0]]))
        loss, _ = numerics.cross_entropy(probs, np.array([0]))
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_closed_form(self):
        probs = kernels.softmax(np.array([[1.0, 2.0, 3.0]]))
        loss, _ = numerics.cross_entropy(probs, np.array([2]))
        expected = -np.log(np.exp(3) / (np.exp(1) + np.exp(2) + np.exp(3)))
        assert loss == pytest.approx(expected, abs=1e-12)
        assert loss == pytest.approx(0.4076, abs=1e-4)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            numerics.cross_entropy(kernels.softmax(np.zeros((1, 3))), np.array([3]))
        with pytest.raises(IndexError):
            numerics.cross_entropy(kernels.softmax(np.zeros((1, 3))), np.array([-1]))

    def test_masked_rows_get_zero_gradient(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, 6)
        weights = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0])
        loss, grad = numerics.cross_entropy(kernels.softmax(logits), labels, weights)
        assert np.array_equal(grad[weights == 0], np.zeros((3, 4)))
        # masked mean: equals the plain mean over the masked subset
        sub, sub_grad = numerics.cross_entropy(
            kernels.softmax(logits[weights == 1]), labels[weights == 1]
        )
        assert loss == pytest.approx(sub, abs=1e-12)
        assert np.allclose(grad[weights == 1], sub_grad)

    def test_all_zero_mask_is_zero(self):
        loss, grad = numerics.cross_entropy(
            kernels.softmax(np.ones((3, 2))), np.zeros(3, dtype=int), np.zeros(3)
        )
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros((3, 2)))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        probs = kernels.softmax(rng.normal(scale=10, size=(50, 6)))
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9


class TestMeanEntropy:
    def test_uniform_four_class(self):
        h, _ = numerics.mean_entropy(np.full((1, 4), 0.25))
        assert h == pytest.approx(np.log(4), abs=1e-12)

    def test_one_hot_zero(self):
        h, _ = numerics.mean_entropy(np.array([[0.0, 1.0, 0.0]]))
        assert h == 0.0

    def test_average_of_rows(self):
        h, _ = numerics.mean_entropy(np.array([[1.0, 0.0], [0.5, 0.5]]))
        assert h == pytest.approx(np.log(2) / 2, abs=1e-12)

    def test_bad_row_sum_raises(self):
        with pytest.raises(NormalizationError):
            numerics.mean_entropy(np.array([[0.6, 0.6]]))

    def test_entropy_bounds(self):
        rng = np.random.default_rng(3)
        for cols in (2, 5, 9):
            probs = kernels.softmax(rng.normal(size=(30, cols)))
            h, _ = numerics.mean_entropy(probs)
            assert 0.0 <= h <= np.log(cols) + 1e-12

    def test_gradient_shift_invariant(self):
        # entropy is invariant to adding a constant to all logits, so its
        # logits-gradient rows must sum to zero
        rng = np.random.default_rng(4)
        probs = kernels.softmax(rng.normal(size=(10, 5)))
        _, grad = numerics.mean_entropy(probs)
        assert np.abs(grad.sum(axis=1)).max() < 1e-12


class TestSgdMomentum:
    def test_first_step(self):
        b = block("w", [[0.0]])
        b.grad[...] = 1.0
        numerics.sgd_momentum_step([b], {"w": 0.1}, 0.9)
        assert b.value[0, 0] == pytest.approx(-0.1)
        assert b.momentum[0, 0] == 1.0
        assert b.grad[0, 0] == 0.0

    def test_two_steps_unrolled(self):
        b = block("w", [[0.0]])
        b.grad[...] = 1.0
        numerics.sgd_momentum_step([b], {"w": 0.1}, 0.9)
        first = b.value[0, 0]
        b.grad[...] = 1.0
        numerics.sgd_momentum_step([b], {"w": 0.1}, 0.9)
        assert b.value[0, 0] - first == pytest.approx(-0.1 * 1.9)

    def test_zero_gradient_fixed_point(self):
        b = block("w", [[7.0]])
        numerics.sgd_momentum_step([b], {"w": 0.1}, 0.9)
        assert b.value[0, 0] == 7.0

    def test_non_finite_gradient_names_block(self):
        b = block("oddball", [[0.0]])
        b.grad[...] = np.nan
        with pytest.raises(DivergenceError, match="oddball"):
            numerics.sgd_momentum_step([b], {"oddball": 0.1}, 0.9)


class TestReversal:
    def test_accumulate_scale_matches_elementwise_product(self):
        rng = np.random.default_rng(6)
        g = rng.normal(size=(3, 3))
        for scale in (1.0, -0.1, 0.3, -2.0):
            b = block("w", np.zeros((3, 3)))
            b.accumulate(g, scale)
            assert np.array_equal(b.grad, scale * g) if scale != 1.0 else np.array_equal(b.grad, g)


class TestFiniteDifferenceCheck:
    def test_quadratic(self):
        theta = block("theta", [[3.0]])

        def loss():
            theta.zero_grad()
            theta.accumulate(theta.value.copy())
            return float(0.5 * theta.value[0, 0] ** 2)

        errs = numerics.finite_difference_check(loss, [theta], rng=np.random.default_rng(0))
        assert errs["theta"] < 1e-8

    def test_constant_loss(self):
        theta = block("theta", [[1.0, 2.0]])
        errs = numerics.finite_difference_check(
            lambda: 0.0, [theta], rng=np.random.default_rng(0)
        )
        assert errs["theta"] == 0.0

