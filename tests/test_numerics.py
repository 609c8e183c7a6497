import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference
from coalign import numerics
from coalign.errors import DivergenceError, UsageError
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
        with pytest.raises(UsageError, match=r"\(1, 3\).*\(2, 2\)"):
            numerics.linear_forward(np.ones((1, 3)), block("w", np.ones((2, 2))), block("b", [[0, 0]]))


class TestParamBlock:
    def test_value_not_2d_is_named(self):
        with pytest.raises(UsageError, match=r"^block 'w' must be 2-D, got shape \(3,\)$"):
            block("w", [1.0, 2.0, 3.0])

    def test_gradient_of_another_shape_is_named(self):
        w = block("w", np.zeros((2, 3)))
        with pytest.raises(UsageError,
                           match=r"^gradient shape \(3, 2\) does not match block 'w' shape \(2, 3\)$"):
            w.accumulate(np.zeros((3, 2)))


class TestLinearBackward:
    def test_accumulates_scaled_gradients_and_returns_none(self):
        rng = np.random.default_rng(7)
        x, g = rng.normal(size=(5, 3)), rng.normal(size=(5, 2))
        w, b = block("w", np.ones((3, 2))), block("b", np.zeros((1, 2)))
        assert numerics.linear_backward(g, x, w, b) is None
        assert numerics.linear_backward(-0.5 * g, x, w, b) is None
        assert np.array_equal(w.grad, x.T @ g + x.T @ (-0.5 * g))
        assert np.array_equal(b.grad, g.sum(axis=0, keepdims=True)
                              + (-0.5 * g).sum(axis=0, keepdims=True))
        assert np.array_equal(w.value, np.ones((3, 2)))

    @given(shape=st.sampled_from([(64, 256), (256, 128)]),
           zero_rows=st.one_of(st.integers(0, 128), st.just(256)), seed=st.integers(0, 2**16))
    def test_stacked_zero_rows_keep_the_gradient_bits(self, shape, zero_rows, seed):
        """The double ablation's premise at the `wide` layer shapes: 256
        rows with ``zero_rows`` zero-gradient rows stacked on accumulate the
        bits of the 256 rows alone, over the counts README claims (0-128
        and 256). A numpy or BLAS build that sums the stack in another order
        fails here."""
        fan_in, width = shape
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(256 + zero_rows, fan_in))
        g = np.vstack([rng.normal(size=(256, width)), np.zeros((zero_rows, width))])
        (w, b), (w_alone, b_alone) = [(block("w", np.zeros(shape)), block("b", np.zeros((1, width))))
                                      for _ in range(2)]
        numerics.linear_backward(g, x, w, b)
        numerics.linear_backward(g[:256], x[:256], w_alone, b_alone)
        assert np.array_equal(w.grad, w_alone.grad) and np.array_equal(b.grad, b_alone.grad)


# every float class the select must pass through bit for bit: signed zeros,
# infinities, NaN and subnormals, mixed with arbitrary floats
SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                                  5e-324, -5e-324, 1e-310, -2.2250738585072014e-308])
ANY_FLOAT = st.one_of(SPECIAL_FLOATS, st.floats(allow_nan=True, allow_infinity=True))


class TestReluBackward:
    @given(data=st.data(), rows=st.integers(1, 6), cols=st.integers(1, 6),
           layout=st.sampled_from(["contiguous", "row slice", "every other row", "transposed"]),
           by_act=st.booleans())
    def test_bits_match_where_for_every_layout(self, data, rows, cols, layout, by_act):
        """Masking by the pre-activation or by act = max(pre, 0), which is
        all the forward keeps, gives the bits of selecting by pre itself."""
        pre = data.draw(arrays(np.float64, (rows, cols), elements=ANY_FLOAT))
        if layout == "transposed":
            g = data.draw(arrays(np.float64, (cols, rows), elements=ANY_FLOAT)).T
        else:
            extra = data.draw(arrays(np.float64, (2 * rows + 1, cols), elements=ANY_FLOAT))
            # the leading rows of a stacked gradient, as d_embed[:n] is passed
            g = {"contiguous": extra[:rows].copy(), "row slice": extra[:rows],
                 "every other row": extra[::2][:rows]}[layout]
        before = g.tobytes()
        got = numerics.relu_backward(g, np.maximum(pre, 0.0) if by_act else pre)
        want = np.where(pre > 0.0, g, 0.0)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert g.tobytes() == before


class TestNormalizeRows:
    def test_three_four_five(self):
        y, _ = numerics.normalize_rows(np.array([[3.0, 4.0]]))
        assert np.allclose(y, [[0.6, 0.8]])

    def test_zero_row_preserved(self):
        y, _ = numerics.normalize_rows(np.array([[0.0, 0.0]]))
        assert np.array_equal(y, [[0.0, 0.0]])

    def test_analytic_norm(self):
        y, _ = numerics.normalize_rows(np.array([[1.0, 1.0]]))
        assert np.allclose(y, [[1 / np.sqrt(2), 1 / np.sqrt(2)]])

    def test_unit_norms(self):
        rng = np.random.default_rng(0)
        y, _ = numerics.normalize_rows(rng.normal(size=(20, 5)))
        assert np.allclose(np.linalg.norm(y, axis=1), 1.0)

    def test_a_row_below_norm_eps_is_divided_by_it_in_both_passes(self):
        """A row with 0 < norm <= NORM_EPS is divided by NORM_EPS, not made
        unit, so its gradient is g / NORM_EPS with no projection term."""
        x = np.array([[3e-14, 4e-14], [3.0, 4.0]])
        g = np.array([[1.0, 2.0], [1.0, 2.0]])
        y, norms = numerics.normalize_rows(x)
        assert np.array_equal(y[0], x[0] / numerics.NORM_EPS)
        dx = numerics.normalize_rows_bwd(g, y, norms)
        assert np.array_equal(dx[0], g[0] / numerics.NORM_EPS)
        assert np.allclose(dx[1], (g[1] - y[1] * (y[1] @ g[1])) / 5.0)


class TestSoftmaxCrossEntropy:
    def test_uniform_two_class(self):
        loss, _ = numerics.cross_entropy(numerics.softmax(np.array([[0.0, 0.0]])), np.array([0]))
        assert loss == pytest.approx(np.log(2), abs=1e-12)

    def test_saturated_correct(self):
        probs = numerics.softmax(np.array([[100.0, 0.0]]))
        loss, _ = numerics.cross_entropy(probs, np.array([0]))
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_closed_form(self):
        probs = numerics.softmax(np.array([[1.0, 2.0, 3.0]]))
        loss, _ = numerics.cross_entropy(probs, np.array([2]))
        expected = -np.log(np.exp(3) / (np.exp(1) + np.exp(2) + np.exp(3)))
        assert loss == pytest.approx(expected, abs=1e-12)
        assert loss == pytest.approx(0.4076, abs=1e-4)

    def test_label_out_of_range(self):
        with pytest.raises(UsageError, match="^label 3 out of range for 3 classes$"):
            numerics.cross_entropy(numerics.softmax(np.zeros((1, 3))), np.array([3]))
        with pytest.raises(UsageError, match="^label -1 out of range for 3 classes$"):
            numerics.cross_entropy(numerics.softmax(np.zeros((1, 3))), np.array([-1]))

    @pytest.mark.parametrize("labels, weights, message", [
        ([0, 1], None, "^2 labels for 3 logit rows$"),
        ([0, 1, 0], [1.0, 1.0], "^2 weights for 3 logit rows$"),
    ], ids=["labels", "weights"])
    def test_row_count_mismatch_is_named(self, labels, weights, message):
        with pytest.raises(UsageError, match=message):
            numerics.cross_entropy(numerics.softmax(np.zeros((3, 2))), np.array(labels), weights)

    def test_masked_rows_get_zero_gradient(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, 6)
        weights = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0])
        loss, grad = numerics.cross_entropy(numerics.softmax(logits), labels, weights)
        assert np.array_equal(grad[weights == 0], np.zeros((3, 4)))
        # masked mean: equals the plain mean over the masked subset
        sub, sub_grad = numerics.cross_entropy(
            numerics.softmax(logits[weights == 1]), labels[weights == 1]
        )
        assert loss == pytest.approx(sub, abs=1e-12)
        assert np.allclose(grad[weights == 1], sub_grad)

    def test_all_zero_mask_is_zero(self):
        loss, grad = numerics.cross_entropy(
            numerics.softmax(np.ones((3, 2))), np.zeros(3, dtype=int), np.zeros(3)
        )
        assert loss == 0.0 and math.copysign(1.0, loss) == 1.0
        assert np.array_equal(grad, np.zeros((3, 2)))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        probs = numerics.softmax(rng.normal(scale=10, size=(50, 6)))
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
        with pytest.raises(UsageError, match=r"^row 0 sums to 1\.200000, expected 1$"):
            numerics.mean_entropy(np.array([[0.6, 0.6]]))

    def test_no_rows_is_named(self):
        with pytest.raises(UsageError, match=r"^probs must hold at least one row, got shape \(0, 3\)$"):
            numerics.mean_entropy(np.zeros((0, 3)))

    def test_entropy_bounds(self):
        rng = np.random.default_rng(3)
        for cols in (2, 5, 9):
            probs = numerics.softmax(rng.normal(size=(30, cols)))
            h, _ = numerics.mean_entropy(probs)
            assert 0.0 <= h <= np.log(cols) + 1e-12

    def test_gradient_shift_invariant(self):
        # entropy is invariant to adding a constant to all logits, so its
        # logits-gradient rows must sum to zero
        rng = np.random.default_rng(4)
        probs = numerics.softmax(rng.normal(size=(10, 5)))
        _, grad = numerics.mean_entropy(probs)
        assert np.abs(grad.sum(axis=1)).max() < 1e-12


def written_out_cross_entropy(probs, labels, weights):
    """cross_entropy's loss and gradient as a boolean gather and scatter."""
    denom = max(1.0, float(weights.sum()))
    rows = np.arange(probs.shape[0])
    picked = probs[rows, labels]
    active = weights > 0.0
    logp = np.zeros_like(picked)
    logp[active] = np.log(picked[active])
    d_logits = probs * (weights / denom)[:, None]
    d_logits[rows, labels] -= weights / denom
    return float(0.0 - (weights * logp).sum() / denom), d_logits


def written_out_mean_entropy(probs):
    """mean_entropy's value and gradient with the log taken under a nested where."""
    probs = np.ascontiguousarray(probs)
    logp = np.where(probs > 0.0, np.log(np.where(probs > 0.0, probs, 1.0)), 0.0)
    row_h = -(probs * logp).sum(axis=1)
    return float(row_h.sum() / probs.shape[0]), -(probs * (logp + row_h[:, None])) / probs.shape[0]


# probability entries: zeros and subnormals mixed with arbitrary shares
PROB_ENTRY = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308]),
                       st.floats(0.0, 1.0))


@given(data=st.data(), rows=st.integers(1, 6), cols=st.integers(1, 6),
       layout=st.sampled_from(["contiguous", "reversed rows", "reversed columns", "transposed"]))
def test_losses_take_the_log_only_where_it_is_read(data, rows, cols, layout):
    """A log under ``where=`` gives the bits of the written-out forms, for
    zero and subnormal probabilities, zero weights and every layout."""
    raw = data.draw(arrays(np.float64, (rows, cols), elements=PROB_ENTRY))
    raw[:, 0] += 1.0
    probs = raw / raw.sum(axis=1, keepdims=True)
    probs = {"contiguous": probs, "reversed rows": probs[::-1].copy()[::-1],
             "reversed columns": probs[:, ::-1].copy()[:, ::-1],
             "transposed": np.asfortranarray(probs)}[layout]
    labels = data.draw(arrays(np.int64, rows, elements=st.integers(0, cols - 1)))
    weights = data.draw(arrays(np.float64, rows, elements=st.sampled_from([0.0, 0.5, 1.0, 3.0])))
    for weighted in (weights, None):
        with np.errstate(divide="ignore"):
            got = numerics.cross_entropy(probs, labels, weighted)
            want = written_out_cross_entropy(
                probs, labels, np.ones(rows) if weighted is None else weighted)
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        assert got[1].tobytes() == want[1].tobytes()
    got, want = numerics.mean_entropy(probs), written_out_mean_entropy(probs)
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    assert got[1].tobytes() == want[1].tobytes()


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


class TestFiniteDifferenceCheck:
    def test_quadratic(self):
        theta = block("theta", [[3.0]])

        def loss():
            theta.zero_grad()
            theta.accumulate(theta.value.copy())
            return float(0.5 * theta.value[0, 0] ** 2)

        errs = reference.finite_difference_check(loss, [theta], rng=np.random.default_rng(0))
        assert errs["theta"] < 1e-8

    def test_constant_loss(self):
        theta = block("theta", [[1.0, 2.0]])
        errs = reference.finite_difference_check(
            lambda: 0.0, [theta], rng=np.random.default_rng(0)
        )
        assert errs["theta"] == 0.0

