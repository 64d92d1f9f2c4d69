import contextlib
import copy
import itertools
import pickle
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import (
    aggregate,
    attention,
    block_diag,
    chain_aggregate,
    chain_attention,
    elu,
    gather_rows,
    grad_check,
    head_dots,
    per_head_spmm,
    segment_softmax,
    sparse_patterns,
    spmm,
    transpose,
    where_elu,
)
from critnet import encoder
from critnet import autodiff as ad
from critnet import graph as graph_module
from critnet.graph import BLOCK_ROWS, build_graph, gen_ba, gen_ws, residual


def rand_tensor(rng, shape, requires_grad=True):
    return ad.tensor(rng.standard_normal(shape), requires_grad=requires_grad)


def layer(x, w, a_src, a_dst, pattern, rate=0.0, rng=None):
    """``attention_layer`` as ``encode`` calls it: on ``x``'s transform, with ``x`` only while gradients are on."""
    x_in = x if ad.grad_enabled() else None
    return ad.attention_layer(x_in, w, x.data @ w.data, a_src, a_dst, pattern, rate, rng)


class TestPrimitives:
    def test_masked_softmax_uniform_over_unmasked(self):
        logits = ad.tensor(np.full((2, 5), 3.7))
        mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]], dtype=float)
        p = ad.row_softmax_masked(logits, mask).data
        assert np.allclose(p[0], [1 / 3, 1 / 3, 1 / 3, 0, 0])
        assert np.allclose(p[1], 0.2)

    def test_masked_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        logits = ad.tensor(rng.standard_normal((6, 6)))
        mask = (rng.random((6, 6)) < 0.5).astype(float)
        mask[:, 0] = 1.0  # keep every row non-empty
        p = ad.row_softmax_masked(logits, mask).data
        assert np.allclose(p.sum(axis=1), 1.0)
        assert (p[mask == 0] == 0.0).all()

    def test_masked_softmax_empty_row(self):
        logits = ad.tensor(np.zeros((1, 3)))
        p = ad.row_softmax_masked(logits, np.zeros((1, 3))).data
        assert (p == 0).all()

    def test_masked_softmax_rejects_a_mask_of_another_shape(self):
        with pytest.raises(ValueError, match=re.escape("mask shape (1, 3) != logits shape (2, 3)")):
            ad.row_softmax_masked(ad.tensor(np.zeros((2, 3))), np.ones((1, 3)))

    def test_masked_entries_get_no_gradient(self):
        rng = np.random.default_rng(1)
        logits = rand_tensor(rng, (4, 4))
        mask = np.triu(np.ones((4, 4)))
        out = ad.row_softmax_masked(logits, mask)
        loss = ad.mse_loss(out, rng.standard_normal((4, 4)))
        loss.backward()
        assert (logits.grad[mask == 0] == 0.0).all()
        assert (logits.grad[mask == 1] != 0.0).any()

    def test_mse_of_identical_is_zero_with_zero_grad(self):
        x = ad.tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        loss = ad.mse_loss(x, x.data.copy())
        loss.backward()
        assert loss.item() == 0.0
        assert (x.grad == 0.0).all()

    @pytest.mark.parametrize("row, col", [(-1, 0), (3, 0), (0, -1), (0, 2)])
    def test_pick_rejects_an_index_outside_the_tensor(self, row, col):
        a = ad.tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        with pytest.raises(ValueError, match=rf"pick\({row}, {col}\) is outside a tensor of shape \(3, 2\)"):
            ad.pick(a, row, col)

    @pytest.mark.parametrize("row, col", [(1.5, 0), (0, 1.0), ("1", 0), (True, 0), (0, np.False_)])
    def test_pick_rejects_an_index_that_is_not_an_integer(self, row, col):
        a = ad.tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        with pytest.raises(ValueError, match=re.escape(f"pick({row!r}, {col!r}) needs integer indices")):
            ad.pick(a, row, col)
        assert ad.pick(a, np.int64(2), np.int32(1)).item() == 5.0

    @pytest.mark.parametrize("shape", [(2, 2), (1, 2), (0,), (0, 1)])
    def test_item_needs_exactly_one_value(self, shape):
        t = ad.tensor(np.arange(float(np.prod(shape))).reshape(shape))
        with pytest.raises(ValueError, match=re.escape(f"one value, got shape {shape}")):
            t.item()
        assert ad.tensor([[2.5]]).item() == ad.tensor(2.5).item() == 2.5

    def test_mse_rejects_a_target_of_another_shape(self):
        pred = ad.tensor(np.arange(3.0).reshape(3, 1), requires_grad=True)
        with pytest.raises(ValueError, match=r"\(3,\).*\(3, 1\)"):
            ad.mse_loss(pred, np.arange(3.0))

    def test_matmul_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        a = rand_tensor(rng, (3, 4))
        b = rand_tensor(rng, (4, 2))
        target = rng.standard_normal((3, 2))
        err = grad_check(lambda: ad.mse_loss(ad.matmul(a, b), target), [a, b])
        assert err < 1e-6

    def test_shape_mismatch_raises(self):
        a = ad.tensor(np.zeros((2, 3)))
        b = ad.tensor(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            ad.matmul(a, b)
        with pytest.raises(ValueError):
            ad.add(a, ad.tensor(np.zeros((3, 2))))

    def test_composite_ops_gradient(self):
        rng = np.random.default_rng(3)
        w = rand_tensor(rng, (5, 4))
        bias = rand_tensor(rng, (1, 4))
        x = ad.tensor(rng.standard_normal((6, 5)))
        target = rng.standard_normal((1, 13))

        def forward():
            h = ad.add_bias(ad.matmul(x, w), bias)
            h = elu(h)
            g = ad.leaky_relu(transpose(h), 0.2)
            pooled = ad.mean_rows(ad.scale(g, 0.1))
            both = ad.concat([pooled, ad.mean_rows(g), ad.pick(g, 1, 2)], axis=1)
            return ad.mse_loss(both, target)

        assert grad_check(forward, [w, bias]) < 1e-6

    @pytest.mark.parametrize(
        "shapes, axis",
        [
            (((2, 3), (2, 2)), -1),
            (((2, 3), (1, 3)), 0),
            (((2, 3), (2, 2)), 1),
            (((2, 3, 4), (2, 3, 1), (2, 3, 2)), 2),
            (((2, 3, 4), (2, 1, 4)), -2),
        ],
        ids=["last", "rows", "cols", "3d-last", "3d-middle"],
    )
    def test_concat_gradient_on_every_axis(self, shapes, axis):
        rng = np.random.default_rng(12)
        parts = [rand_tensor(rng, s) for s in shapes]
        target = rng.standard_normal(np.concatenate([p.data for p in parts], axis=axis).shape)
        assert grad_check(lambda: ad.mse_loss(ad.concat(parts, axis=axis), target), parts) < 1e-6
        assert [p.grad.shape for p in parts] == list(shapes)

    def test_add_gradient(self):
        rng = np.random.default_rng(4)
        a = rand_tensor(rng, (3, 3))
        b = rand_tensor(rng, (3, 3))
        target = rng.standard_normal((3, 3))
        err = grad_check(lambda: ad.mse_loss(ad.add(a, b), target), [a, b])
        assert err < 1e-6

    def test_dropout_at_rate_0_is_identity_and_draws_nothing(self):
        x = ad.tensor(np.ones((4, 4)))
        rng = np.random.default_rng(5)
        assert ad.dropout(x, 0.0, rng) is x
        assert rng.random() == np.random.default_rng(5).random()

    def test_dropout_needs_rng_only_when_it_draws(self):
        x = ad.tensor(np.ones((3, 3)))
        assert ad.dropout(x, 0.0, None) is x
        with pytest.raises(ValueError, match=re.escape("dropout at rate 0.5 needs an rng")):
            ad.dropout(x, 0.5, None)

    @pytest.mark.parametrize("rate", [-0.1, 1.0])
    @pytest.mark.parametrize("rng", [np.random.default_rng(7), None], ids=["rng", "no-rng"])
    def test_dropout_rejects_a_rate_outside_its_range(self, rate, rng):
        with pytest.raises(ValueError, match="dropout rate must be in"):
            ad.dropout(ad.tensor(np.ones((3, 2))), rate, rng)

    def test_dropout_train_scales_kept_entries(self):
        x = ad.tensor(np.ones((50, 50)), requires_grad=True)
        rng = np.random.default_rng(6)
        out = ad.dropout(x, 0.4, rng)
        vals = np.unique(out.data)
        assert set(np.round(vals, 12)) <= {0.0, round(1 / 0.6, 12)}
        # inverted scaling keeps the expectation near 1
        assert abs(out.data.mean() - 1.0) < 0.05

    def test_column_dropout_draws_column_after_column(self):
        x = ad.tensor(np.ones((7, 3)))
        got = ad.dropout(x, 0.5, np.random.default_rng(8)).data
        rng = np.random.default_rng(8)
        want = np.concatenate([ad.dropout(ad.tensor(np.ones((7, 1))), 0.5, rng).data for _ in range(3)], axis=1)
        assert np.array_equal(got, want)

    def test_column_dropout_gradient(self):
        rng = np.random.default_rng(9)
        a = rand_tensor(rng, (6, 3))
        target = rng.standard_normal((6, 3))

        def forward():
            return ad.mse_loss(ad.dropout(a, 0.4, np.random.default_rng(10)), target)

        assert grad_check(forward, [a]) < 1e-6

    def test_block_diag_layout_and_gradient(self):
        rng = np.random.default_rng(11)
        parts = [rand_tensor(rng, (3, 1)), rand_tensor(rng, (2, 1)), rand_tensor(rng, (1, 2))]
        out = block_diag(parts).data
        assert out.shape == (6, 4)
        assert np.array_equal(out[:3, :1], parts[0].data)
        assert np.array_equal(out[3:5, 1:2], parts[1].data)
        assert np.array_equal(out[5:, 2:], parts[2].data)
        assert np.count_nonzero(out) == 7
        x = ad.tensor(rng.standard_normal((4, 6)))
        target = rng.standard_normal((4, 4))
        err = grad_check(lambda: ad.mse_loss(ad.matmul(x, block_diag(parts)), target), parts)
        assert err < 1e-6

    def test_block_diag_needs_matrices(self):
        with pytest.raises(ValueError, match="2-D parts"):
            block_diag([ad.tensor(np.ones((2, 1))), ad.tensor(np.ones(3))])
        with pytest.raises(ValueError, match="2-D parts"):
            block_diag([])

    def test_no_grad_suppresses_graph(self):
        x = ad.tensor(np.ones((2, 2)), requires_grad=True)
        with ad.no_grad():
            y = ad.matmul(x, x)
        assert y._parents == ()


def closed_pattern(n, edges):
    """Closed-neighborhood pattern: every edge in both directions plus a self-loop per node."""
    return build_graph(n, edges).pattern


def dense(pattern, values):
    out = np.zeros((pattern.n, pattern.n))
    out[pattern.rows, pattern.cols] = values.reshape(-1)
    return out


# node 5 is isolated, so its row is a length-1 segment
PATTERNS = {
    "isolated-node": (6, [(0, 1), (1, 2), (2, 0), (2, 3), (4, 3)]),
    "edgeless": (4, []),
    "one-node": (1, []),
}


@pytest.fixture(params=list(PATTERNS), ids=list(PATTERNS))
def pattern(request):
    return closed_pattern(*PATTERNS[request.param])


class TestSparsePrimitives:
    @pytest.mark.parametrize("columns", [False, True], ids=["rows", "cols"])
    def test_gather_rows_gradient(self, pattern, columns):
        rng = np.random.default_rng(30)
        a = rand_tensor(rng, (pattern.n, 3))
        target = rng.standard_normal((len(pattern.rows), 3))
        out = gather_rows(a, pattern, columns)
        assert np.array_equal(out.data, a.data[pattern.cols if columns else pattern.rows])
        err = grad_check(lambda: ad.mse_loss(gather_rows(a, pattern, columns), target), [a])
        assert err < 1e-6

    def test_segment_softmax_gradient(self, pattern):
        rng = np.random.default_rng(31)
        logits = rand_tensor(rng, (len(pattern.rows), 1))
        target = rng.standard_normal((len(pattern.rows), 1))
        err = grad_check(lambda: ad.mse_loss(segment_softmax(logits, pattern), target), [logits])
        assert err < 1e-6

    def test_spmm_gradient(self, pattern):
        rng = np.random.default_rng(32)
        values = rand_tensor(rng, (len(pattern.rows), 1))
        x = rand_tensor(rng, (pattern.n, 3))
        target = rng.standard_normal((pattern.n, 3))
        out = spmm(values, pattern, x)
        assert np.allclose(out.data, dense(pattern, values.data) @ x.data, rtol=0, atol=1e-14)
        err = grad_check(lambda: ad.mse_loss(spmm(values, pattern, x), target), [values, x])
        assert err < 1e-6

    def test_multi_head_segment_softmax_gradient(self, pattern):
        rng = np.random.default_rng(36)
        logits = rand_tensor(rng, (len(pattern.rows), 4))
        target = rng.standard_normal((len(pattern.rows), 4))
        err = grad_check(lambda: ad.mse_loss(segment_softmax(logits, pattern), target), [logits])
        assert err < 1e-6

    def test_multi_head_segment_softmax_is_per_column(self, pattern):
        logits = np.random.default_rng(37).standard_normal((len(pattern.rows), 4))
        got = segment_softmax(ad.tensor(logits), pattern).data
        for k in range(4):
            assert np.array_equal(got[:, k : k + 1], segment_softmax(ad.tensor(logits[:, k : k + 1]), pattern).data)

    def test_multi_head_spmm_gradient(self, pattern):
        rng = np.random.default_rng(38)
        values = rand_tensor(rng, (len(pattern.rows), 3))
        x = rand_tensor(rng, (pattern.n, 6))
        target = rng.standard_normal((pattern.n, 6))
        err = grad_check(lambda: ad.mse_loss(spmm(values, pattern, x), target), [values, x])
        assert err < 1e-6

    def test_multi_head_spmm_is_per_head_blocks(self, pattern):
        rng = np.random.default_rng(39)
        values = rand_tensor(rng, (len(pattern.rows), 3))
        x = rand_tensor(rng, (pattern.n, 6))
        g = rng.standard_normal((pattern.n, 6))
        out = spmm(values, pattern, x)
        ad.mse_loss(out, g).backward()
        for k, b in enumerate((slice(0, 2), slice(2, 4), slice(4, 6))):
            vk = ad.tensor(values.data[:, k : k + 1], requires_grad=True)
            xk = ad.tensor(x.data[:, b], requires_grad=True)
            ok = spmm(vk, pattern, xk)
            assert np.array_equal(out.data[:, b], ok.data)
            assert np.allclose(ok.data, dense(pattern, vk.data) @ xk.data, rtol=0, atol=1e-14)
            # the loss is a mean over all 6 columns: scale the per-head gradient to match
            ad.mse_loss(ok, g[:, b]).backward()
            assert np.allclose(values.grad[:, k : k + 1], vk.grad / 3, rtol=1e-13, atol=0)
            assert np.allclose(x.grad[:, b], xk.grad / 3, rtol=1e-13, atol=0)

    def test_segment_softmax_rows_sum_to_one(self):
        p = closed_pattern(*PATTERNS["isolated-node"])
        logits = np.random.default_rng(33).standard_normal((len(p.rows), 1)) * 400.0
        out = segment_softmax(ad.tensor(logits), p).data
        assert np.allclose(p.row_sums(out), 1.0, rtol=0, atol=1e-15)
        assert (out >= 0.0).all()

    def test_isolated_node_attends_to_itself(self):
        p = closed_pattern(*PATTERNS["isolated-node"])
        logits = np.random.default_rng(34).standard_normal((len(p.rows), 1))
        out = segment_softmax(ad.tensor(logits), p).data
        (own,) = np.flatnonzero(p.rows == 5)
        assert p.cols[own] == 5
        assert out[own, 0] == 1.0

    def test_segment_softmax_matches_dense_masked_softmax(self):
        p = closed_pattern(*PATTERNS["isolated-node"])
        logits = np.random.default_rng(35).standard_normal((len(p.rows), 1))
        mask = dense(p, np.ones(len(p.rows)))
        full = np.where(mask > 0, dense(p, logits), 0.0)
        want = ad.row_softmax_masked(ad.tensor(full), mask).data[p.rows, p.cols]
        got = segment_softmax(ad.tensor(logits), p).data[:, 0]
        assert np.allclose(got, want, rtol=0, atol=1e-15)

    def test_pattern_is_sorted_with_a_transpose_permutation(self, pattern):
        order = np.lexsort((pattern.cols, pattern.rows))
        assert np.array_equal(order, np.arange(len(pattern.rows)))
        assert np.array_equal(pattern.rows[pattern.transpose], pattern.cols)
        assert np.array_equal(pattern.cols[pattern.transpose], pattern.rows)

    @staticmethod
    def inference_layer(hw_shape, src_shape, dst_shape=None):
        """``attention_layer`` under ``no_grad`` on a zero transform and unit attention vectors of these shapes."""
        a_src, a_dst = ad.tensor(np.ones(src_shape)), ad.tensor(np.ones(dst_shape or src_shape))
        p, w = closed_pattern(3, [(0, 1)]), ad.tensor(np.ones((4, 6)))
        with ad.no_grad():
            return ad.attention_layer(None, w, np.zeros(hw_shape), a_src, a_dst, p, 0.0, None)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match=r"attention shape mismatch: hw \(4, 6\).*pattern of 3 rows"):
            self.inference_layer((4, 6), (2, 3))
        with pytest.raises(ValueError, match=r"attention shape mismatch: hw \(3, 6\), a_src \(2, 3\), a_dst \(3, 2\)"):
            self.inference_layer((3, 6), (2, 3), (3, 2))

    def test_multi_head_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match=r"attention shape mismatch: hw \(5,\)"):
            self.inference_layer(5, (1, 5))
        with pytest.raises(ValueError, match=r"hw \(3, 6\), a_src \(4, 2\)"):
            self.inference_layer((3, 6), (4, 2))
        with pytest.raises(ValueError, match=r"hw \(3, 0\), a_src \(0, 2\)"):
            self.inference_layer((3, 0), (0, 2))
        assert self.inference_layer((3, 6), (2, 3)).shape == (3, 6)


class TestSingleUseGraph:
    """backward() frees the graph it walks; a graph that reaches a freed tensor raises."""

    def test_second_backward_raises(self):
        x = rand_tensor(np.random.default_rng(40), (3, 3))
        loss = ad.mse_loss(ad.matmul(x, x), np.zeros((3, 3)))
        loss.backward()
        first = x.grad.copy()
        with pytest.raises(ValueError, match=r"an earlier backward\(\) freed"):
            loss.backward()
        assert np.array_equal(x.grad, first)

    def test_new_loss_on_a_freed_interior_tensor_raises(self):
        x = rand_tensor(np.random.default_rng(41), (3, 3))
        h = ad.matmul(x, x)
        ad.mse_loss(h, np.zeros((3, 3))).backward()
        assert h.grad is None
        assert np.array_equal(h.data, x.data @ x.data)
        x.zero_grad()
        loss = ad.mse_loss(h, np.ones((3, 3)))
        with pytest.raises(ValueError, match=r"reached a \(3, 3\) tensor"):
            loss.backward()
        assert x.grad is None and loss.grad is None

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))])
    def test_a_copied_spent_loss_still_raises(self, clone):
        x = rand_tensor(np.random.default_rng(44), (3, 3))
        loss = ad.mse_loss(ad.matmul(x, x), np.zeros((3, 3)))
        loss.backward()
        with pytest.raises(ValueError, match=r"an earlier backward\(\) freed"):
            clone(loss).backward()

    def test_a_layer_frees_its_tape_on_backward(self):
        p = gen_ba(200, 2, 42).pattern
        rng = np.random.default_rng(43)
        x, w = rand_tensor(rng, (p.n, 64)), rand_tensor(rng, (64, 96))
        a_src, a_dst = TestAttentionLayer.vectors(rng, 8, 12)
        out = layer(x, w, a_src, a_dst, p, rate=0.3, rng=rng)
        loss = ad.mse_loss(out, np.zeros(out.shape))
        loss.backward()
        assert out._parents is None
        assert all(t.grad is not None for t in (x, w, a_src, a_dst))
        with pytest.raises(ValueError, match=r"an earlier backward\(\) freed"):
            loss.backward()


class TestBackwardStart:
    """backward() starts from a scalar that recorded a graph, or from a trained leaf."""

    def test_a_non_scalar_output_raises(self):
        x = rand_tensor(np.random.default_rng(45), (2, 2))
        with pytest.raises(ValueError, match="starts from a scalar output"):
            ad.scale(x, 2.0).backward()
        assert x.grad is None

    @pytest.mark.parametrize("trained", [True, False], ids=["no_grad", "constants"])
    def test_an_output_that_recorded_nothing_raises(self, trained):
        x = rand_tensor(np.random.default_rng(46), (3, 3), requires_grad=trained)
        with ad.no_grad() if trained else contextlib.nullcontext():
            loss = ad.mse_loss(ad.matmul(x, x), np.zeros((3, 3)))
        with pytest.raises(ValueError, match="recorded no graph"):
            loss.backward()
        assert x.grad is None and loss.grad is None

    def test_a_trained_leaf_gets_a_unit_gradient(self):
        w = ad.tensor([[3.0]], requires_grad=True)
        w.backward()
        assert w.grad.tolist() == [[1.0]]


# each recording primitive: its tensor parents' shapes, and the op on them
RECORDING_OPS = {
    "matmul": ([(3, 4), (4, 2)], ad.matmul),
    "add": ([(3, 2), (3, 2)], ad.add),
    "add_bias": ([(3, 2), (2, 2)], lambda a, b: ad.add_bias(a, b, [0, 1, 3])),
    "scale": ([(3, 2)], lambda a: ad.scale(a, -2.0)),
    "dense_elu": ([(3, 4), (4, 2), (1, 2)], ad.dense_elu),
    "dropout": ([(3, 2)], lambda a: ad.dropout(a, 0.5, np.random.default_rng(67))),
    "mean_rows": ([(3, 2)], lambda a: ad.mean_rows(a, [0, 2, 3])),
    "concat": ([(3, 2), (3, 1)], lambda a, b: ad.concat([a, b])),
    "pick": ([(3, 2)], lambda a: ad.pick(a, 2, 1)),
    "mse_loss": ([(3, 2)], lambda a: ad.mse_loss(a, np.ones((3, 2)))),
    "leaky_relu": ([(3, 2)], lambda a: ad.leaky_relu(a, 0.2)),
    "row_softmax_masked": ([(3, 3)], lambda a: ad.row_softmax_masked(a, np.tri(3))),
    "attention_layer": (
        [(3, 4), (4, 4), (2, 2), (2, 2)],
        lambda *tensors: layer(*tensors, closed_pattern(3, [(0, 1), (1, 2)]), 0.5, np.random.default_rng(67)),
    ),
}


class TestRecording:
    """An op records exactly when gradients are on and one of its parents requires grad, and then its output does."""

    @staticmethod
    def parents(shapes, trained, interior):
        """Leaves of ``shapes``, the ``trained`` ones requiring grad; ``interior`` wraps those in a recorded op."""
        rng = np.random.default_rng(68)
        out = []
        for shape, t in zip(shapes, trained):
            leaf = rand_tensor(rng, shape, requires_grad=t)
            out.append(ad.scale(leaf, 1.0) if t and interior else leaf)
        return out

    @pytest.mark.parametrize("interior", [False, True], ids=["leaves", "interior"])
    @pytest.mark.parametrize("name", RECORDING_OPS)
    def test_the_output_requires_grad_when_a_parent_does(self, name, interior):
        shapes, op = RECORDING_OPS[name]
        for trained in itertools.product([False, True], repeat=len(shapes)):
            out = op(*self.parents(shapes, trained, interior))
            assert out.requires_grad == any(trained), trained
            assert (out._backward is not None) == any(trained), trained

    @pytest.mark.parametrize("name", RECORDING_OPS)
    def test_no_grad_records_nothing(self, name):
        shapes, op = RECORDING_OPS[name]
        with ad.no_grad():
            out = op(*self.parents(shapes, [True] * len(shapes), interior=False))
        assert not out.requires_grad and out._parents == () and out._backward is None


class TestSlotKernelOracles:
    """``spmm``, ``segment_softmax`` and ``elu`` against the forms the slot kernels replaced, at the encoder's shapes."""

    @pytest.mark.parametrize("d", [8, 12])
    @given(p=sparse_patterns(), seed=st.integers(0, 2**31 - 1))
    def test_spmm_matches_the_per_head_reduceat_product(self, d, p, seed):
        rng = np.random.default_rng(seed)
        w = rng.random((len(p.rows), 8))
        x_data, g = rng.standard_normal((2, p.n, 8 * d))
        runs = []
        for product in (spmm, per_head_spmm):
            values, x = ad.tensor(w, True), ad.tensor(x_data, True)
            out = product(values, p, x)
            ad.mse_loss(out, g).backward()
            runs.append((out.data, values.grad, x.grad))
        for got, want in zip(*runs):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [8, 12])
    @given(p=sparse_patterns(), seed=st.integers(0, 2**31 - 1))
    def test_spmm_gradient_check(self, d, p, seed):
        rng = np.random.default_rng(seed)
        values, x = rand_tensor(rng, (len(p.rows), 8)), rand_tensor(rng, (p.n, 8 * d))
        target = rng.standard_normal((p.n, 8 * d))
        # the loss is quadratic in each coordinate, so a wide step adds no truncation error, and
        # it resolves a gradient of 1e-7 (seed 147908 on 7 isolated rows) to 2e-8 where 1e-3 gave 1e-6
        err = grad_check(lambda: ad.mse_loss(spmm(values, p, x), target), [values, x], eps=1e-2, sample=12, rng=rng)
        assert err < 1e-6

    @given(p=sparse_patterns(), seed=st.integers(0, 2**31 - 1))
    def test_segment_softmax_gradient_check(self, p, seed):
        rng = np.random.default_rng(seed)
        logits = rand_tensor(rng, (len(p.rows), 8))
        target = rng.standard_normal((len(p.rows), 8))
        err = grad_check(lambda: ad.mse_loss(segment_softmax(logits, p), target), [logits], eps=1e-4, sample=24, rng=rng)
        # a row of 40+ entries spreads its weight thin, so some gradients are ~1e-7 of a unit loss, and
        # central differences resolve those to about 2e-5 (a wrong rule errs by order 1)
        assert err < 1e-4

    # over an edgeless pattern with unit values, ``aggregate`` is its ELU alone: row i is 1.0 * x[i]

    def test_elu_equals_the_where_form(self):
        special = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-300, -1e-300, 709.0, 710.0, 1e308, -745.0, -1e308]
        a = np.concatenate((special, np.random.default_rng(45).standard_normal(300) * 30.0)).reshape(-1, 1)
        out = a.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # expm1 must not be evaluated past 709
            ad._elu_in_place(out)  # more rows than one block of BLOCK_ROWS
            assert np.array_equal(elu(ad.tensor(a)).data, out, equal_nan=True)
        assert np.array_equal(out, where_elu(a), equal_nan=True)

    def test_elu_gradient_uses_the_output_sign(self):
        # over an edgeless pattern every row attends to itself alone, with weight 1, so one head of
        # width 1 and a unit transform make the layer the ELU of its input
        x = ad.tensor(np.array([[-2.0], [-1e-3], [0.0], [1e-3], [3.0]]), requires_grad=True)
        w, a = ad.tensor(np.ones((1, 1)), requires_grad=True), ad.tensor(np.ones((1, 1)), requires_grad=True)
        out = layer(x, w, a, a, closed_pattern(5, []))
        ad.mse_loss(out, np.zeros((5, 1))).backward()
        slope = np.where(x.data > 0, 1.0, np.exp(x.data))
        np.testing.assert_allclose(x.grad, 2.0 / 5 * out.data * slope, rtol=1e-15, atol=0)


    def test_elu_slope_equals_the_where_form(self):
        special = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-17, -1e-17, 1.0, -1.0]
        out = np.concatenate((special, np.random.default_rng(49).standard_normal(500) * 3.0))
        want = np.where(out > 0, 1.0, out + 1.0)
        assert np.array_equal(ad._elu_slope(out), want, equal_nan=True)


class TestSegments:
    """Row-segment pooling and bias rows, as a batch of stacked graphs uses them."""

    OFFSETS = [0, 3, 4, 9]

    def test_each_segment_equals_its_own_matrix(self):
        rng = np.random.default_rng(52)
        a, bias = rand_tensor(rng, (9, 5)), rand_tensor(rng, (3, 5))
        means = ad.mean_rows(a, self.OFFSETS).data
        shifted = ad.add_bias(a, bias, self.OFFSETS).data
        for i, (lo, hi) in enumerate(zip(self.OFFSETS, self.OFFSETS[1:])):
            part = ad.tensor(a.data[lo:hi])
            assert np.array_equal(means[i : i + 1], ad.mean_rows(part).data)
            assert np.array_equal(shifted[lo:hi], ad.add_bias(part, ad.tensor(bias.data[i : i + 1])).data)

    def test_gradients(self):
        rng = np.random.default_rng(53)
        a, bias = rand_tensor(rng, (9, 5)), rand_tensor(rng, (3, 5))
        target = rng.standard_normal((9, 5))

        def forward():
            pooled = ad.mean_rows(a, self.OFFSETS)
            return ad.mse_loss(ad.add_bias(a, ad.add(bias, pooled), self.OFFSETS), target)

        assert grad_check(forward, [a, bias]) < 1e-6

    @pytest.mark.parametrize("offsets", [[0, 3, 3, 9], [1, 9], [0, 8], [0], [0, 5, 4, 9]])
    def test_offsets_must_split_every_row_into_non_empty_segments(self, offsets):
        a = ad.tensor(np.ones((9, 2)))
        with pytest.raises(ValueError, match="do not split 9 rows"):
            ad.mean_rows(a, offsets)
        with pytest.raises(ValueError, match="do not split 9 rows"):
            ad.add_bias(a, ad.tensor(np.ones((len(offsets) - 1, 2))), offsets)

    @pytest.mark.parametrize(
        "offsets", [[0, 1.5, 3], np.array([0.0, 2.7, 3.0]), [0, True, 3], [0, np.float64(2.0), 3], [np.False_, 1, 3]]
    )
    def test_offsets_must_be_integers(self, offsets):
        a = ad.tensor(np.ones((3, 2)))
        with pytest.raises(ValueError, match="must be integers"):
            ad.mean_rows(a, offsets)
        with pytest.raises(ValueError, match="must be integers"):
            ad.add_bias(a, ad.tensor(np.ones((2, 2))), offsets)
        assert np.array_equal(ad.mean_rows(a, np.array([0, 1, 3])).data, np.ones((2, 2)))

    def test_bias_needs_one_row_per_segment(self):
        with pytest.raises(ValueError, match="in 3 segment"):
            ad.add_bias(ad.tensor(np.ones((9, 2))), ad.tensor(np.ones((2, 2))), self.OFFSETS)


class TestHeadDots:
    def test_bit_equal_to_the_block_diagonal_product(self):
        rng = np.random.default_rng(54)
        x = rand_tensor(rng, (30, 8 * 12))
        a = rand_tensor(rng, (8, 12))
        heads = [ad.tensor(a.data[h : h + 1].T.copy(), requires_grad=True) for h in range(8)]
        target = rng.standard_normal((30, 8))
        got = head_dots(x, a)
        ad.mse_loss(got, target).backward()
        got_x = x.grad
        x.zero_grad()
        want = ad.matmul(x, block_diag(heads))
        ad.mse_loss(want, target).backward()
        assert np.array_equal(got.data, want.data)
        assert np.array_equal(got_x, x.grad)
        assert np.array_equal(a.grad, np.concatenate([h.grad.T for h in heads]))

    def test_gradient_check(self):
        rng = np.random.default_rng(55)
        x, a = rand_tensor(rng, (7, 3 * 4)), rand_tensor(rng, (3, 4))
        target = rng.standard_normal((7, 3))
        assert grad_check(lambda: ad.mse_loss(head_dots(x, a), target), [x, a]) < 1e-6

    def test_shape_mismatch_raises(self):
        # ``attention_layer`` takes the head dots: 10 columns are not 3 heads of width 4
        p = closed_pattern(4, [(0, 1)])
        a = ad.tensor(np.ones((3, 4)))
        with pytest.raises(ValueError, match=r"attention shape mismatch: hw \(4, 10\), a_src \(3, 4\)"):
            layer(ad.tensor(np.ones((4, 2))), ad.tensor(np.ones((2, 10))), a, a, p)


class TestFusedOracles:
    """The conftest ``attention`` and ``aggregate``, ``attention_layer``'s oracle, against the chain they fused."""

    @staticmethod
    def leaves(rng, n, heads, d):
        return rand_tensor(rng, (n, heads * d)), rand_tensor(rng, (heads, d)), rand_tensor(rng, (heads, d))

    @pytest.mark.parametrize("heads, d", [(1, 3), (8, 8), (8, 12)])
    @given(p=sparse_patterns(), seed=st.integers(0, 2**31 - 1))
    def test_attention_and_its_gradients_are_bit_equal_to_the_chain(self, heads, d, p, seed):
        runs = []
        for attend in (attention, chain_attention):
            rng = np.random.default_rng(seed)
            hw, a_src, a_dst = self.leaves(rng, p.n, heads, d)
            out = attend(hw, a_src, a_dst, p, 0.2)
            ad.mse_loss(out, rng.standard_normal(out.shape)).backward()
            runs.append((out.data, hw.grad, a_src.grad, a_dst.grad))
        for got, want in zip(*runs):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("block", [BLOCK_ROWS, 1, 7])
    @pytest.mark.parametrize("d", [8, 12])
    @given(p=sparse_patterns(), seed=st.integers(0, 2**31 - 1))
    def test_aggregate_and_its_gradients_are_bit_equal_to_the_chain(self, d, block, p, seed):
        # the chain runs on the whole-slot product and one-shot entry dots; ``aggregate``'s kernels walk blocks of
        # ``block`` rows, read when they run, so the patch also covers backward
        runs = []
        for product in (aggregate, chain_aggregate):
            rng = np.random.default_rng(seed)
            values, x = ad.tensor(rng.random((len(p.rows), 8)), True), rand_tensor(rng, (p.n, 8 * d))
            with mock.patch.object(graph_module, "BLOCK_ROWS", block):
                out = product(values, p, x)
                ad.mse_loss(out, rng.standard_normal(out.shape)).backward()
            runs.append((out.data, values.grad, x.grad))
        for got, want in zip(*runs):
            assert np.array_equal(got, want)

    def test_a_layer_through_both_is_bit_equal_to_the_chain(self):
        # one hw feeds both primitives: its gradient sums aggregate's part, then the source and destination parts
        p = closed_pattern(*PATTERNS["isolated-node"])
        runs = []
        for attend, product in ((attention, aggregate), (chain_attention, chain_aggregate)):
            rng = np.random.default_rng(59)
            hw, a_src, a_dst = self.leaves(rng, p.n, 4, 3)
            out = product(ad.dropout(attend(hw, a_src, a_dst, p, 0.2), 0.5, rng), p, hw)
            ad.mse_loss(out, rng.standard_normal(out.shape)).backward()
            runs.append((out.data, hw.grad, a_src.grad, a_dst.grad))
        for got, want in zip(*runs):
            assert np.array_equal(got, want)

    @staticmethod
    def off_kink_step(hw, a_src, a_dst, p):
        """The widest step, up to 1e-4, by which no one coordinate moves a logit across the leaky ReLU's kink at 0.

        A step of eps in ``hw[i, h*d + k]`` moves a logit by at most eps * (|a_src[h, k]| + |a_dst[h, k]|)
        (a self-loop reads both ends), and one in ``a_src`` or ``a_dst`` by at most eps * max |hw|.
        """
        reach = max(np.abs(hw.data).max(), (np.abs(a_src.data) + np.abs(a_dst.data)).max())
        return min(1e-4, 0.5 * np.abs(logits(hw.data, a_src, a_dst, p)).min() / reach)

    # a logit 1.7e-4 from the kink, which a step of 1e-4 crossed: relative error 1.5e-3 on one a_src coordinate
    KINK = {"p": residual(gen_ws(54, 4, 0.0, 0)), "seed": 27254968}

    @example(**KINK)
    @given(p=sparse_patterns(), seed=st.integers(0, 2**31 - 1))
    def test_attention_gradient_check(self, p, seed):
        rng = np.random.default_rng(seed)
        hw, a_src, a_dst = self.leaves(rng, p.n, 4, 3)
        target = rng.standard_normal((len(p.rows), 4))
        # central differences across the kink average its two slopes, so the step stays on one side of it
        eps = self.off_kink_step(hw, a_src, a_dst, p)
        err = grad_check(
            lambda: ad.mse_loss(attention(hw, a_src, a_dst, p, 0.2), target),
            [hw, a_src, a_dst],
            eps=eps,
            sample=12,
            rng=rng,
            # below this a gradient is compared absolutely, to 1e-15 / eps: ten rounding errors of the
            # unit-sized loss over the step, which a gradient that is zero by symmetry still shows
            floor=1e-11 / eps,
        )
        # as for the softmax alone: a long row spreads its weight thin (a wrong rule errs by order 1)
        assert err < 1e-4

    def test_the_kink_case_reaches_the_kink(self):
        rng = np.random.default_rng(self.KINK["seed"])
        p = self.KINK["p"]
        assert self.off_kink_step(*self.leaves(rng, p.n, 4, 3), p) < 0.5e-4  # a step of 1e-4 could cross it

    @given(p=sparse_patterns(), seed=st.integers(0, 2**31 - 1))
    def test_aggregate_gradient_check(self, p, seed):
        rng = np.random.default_rng(seed)
        values, x = rand_tensor(rng, (len(p.rows), 4)), rand_tensor(rng, (p.n, 12))
        target = rng.standard_normal((p.n, 12))
        err = grad_check(lambda: ad.mse_loss(aggregate(values, p, x), target), [values, x], sample=12, rng=rng)
        # through the ELU the loss is not quadratic, so no wide step is exact; some gradients are
        # near 1e-6 (a 50-entry hub row), which central differences resolve to about 1e-5 of their size
        assert err < 1e-4


def logits(hw, a_src, a_dst, p):
    """Each entry's per-head score before the leaky ReLU: ``src[rows[e]] + dst[cols[e]]`` (E x H)."""
    heads, d = a_src.shape
    hw3 = hw.reshape(p.n, heads, d)
    return (hw3 * a_src.data).sum(axis=2)[p.rows] + (hw3 * a_dst.data).sum(axis=2)[p.cols]


def fused_chain(x, w, a_src, a_dst, p, rate=0.0, rng=None):
    """``matmul`` -> ``attention`` -> ``dropout`` -> ``aggregate``: the chain ``attention_layer`` fuses."""
    hw = ad.matmul(x, w)
    return aggregate(ad.dropout(attention(hw, a_src, a_dst, p, ad.ATTENTION_SLOPE), rate, rng), p, hw)


class TestAttentionLayer:
    """``attention_layer`` against the chain of the conftest oracles it fuses, and what its rule keeps."""

    @staticmethod
    def vectors(rng, heads, d):
        return rand_tensor(rng, (heads, d)), rand_tensor(rng, (heads, d))

    @staticmethod
    def run(layer_fn, p, profile, recorded, seed):
        """Two layers at the encoder's widths and a profile's training rates, stacked as ``encode`` stacks them on a leaf input.

        Returns the output and the gradients of the input and of every parameter (``None`` under ``no_grad``).
        """
        in1, att1, in2, att2 = encoder.DROPOUT_PROFILES[profile]
        rng = np.random.default_rng(seed)
        params = encoder.init_encoder_params(rng)
        x = h = rand_tensor(rng, (p.n, encoder.IN_FEATURES))
        with contextlib.nullcontext() if recorded else ad.no_grad():
            for lp, in_rate, att_rate in ((params.layer1, in1, att1), (params.layer2, in2, att2)):
                h = ad.dropout(h, in_rate, rng)
                h = layer_fn(h, lp.w, lp.a_src, lp.a_dst, p, att_rate, rng)
        if recorded:
            ad.mse_loss(h, rng.standard_normal(h.shape)).backward()
        return [h.data, x.grad] + [t.grad for t in params.parameters()]

    @pytest.mark.parametrize("block", [BLOCK_ROWS, 1, 7])
    @pytest.mark.parametrize("recorded", [True, False], ids=["recorded", "no_grad"])
    @pytest.mark.parametrize("profile", list(encoder.DROPOUT_PROFILES))
    @given(p=sparse_patterns(), seed=st.integers(0, 2**31 - 1))
    def test_output_and_gradients_are_bit_equal_to_the_chain(self, profile, recorded, block, p, seed):
        with mock.patch.object(graph_module, "BLOCK_ROWS", block):  # the forward's and backward's kernels
            got = self.run(layer, p, profile, recorded, seed)
        want = self.run(fused_chain, p, profile, recorded, seed)
        assert len(got) == len(want) == 8 and np.array_equal(got[0], want[0])
        for a, b in zip(got[1:], want[1:]):
            assert np.array_equal(a, b) if recorded else a is b is None

    def test_a_constant_input_gets_no_gradient(self):
        # layer 1's input is the feature matrix: its product is formed and dropped
        p = gen_ba(60, 2, 70).pattern
        rng = np.random.default_rng(71)
        x, w = rand_tensor(rng, (p.n, 4), requires_grad=False), rand_tensor(rng, (4, 64))
        a_src, a_dst = self.vectors(rng, 8, 8)
        ad.mse_loss(layer(x, w, a_src, a_dst, p), np.zeros((p.n, 64))).backward()
        assert x.grad is None
        assert all(t.grad is not None for t in (w, a_src, a_dst))

    @staticmethod
    def off_kink_step(x, w, a_src, a_dst, p):
        """The widest step, up to 1e-4, by which no one coordinate moves a logit across the leaky ReLU's kink at 0.

        A step of eps in ``x[i, j]`` moves block h of ``hw``'s row i by eps times block h of ``w``'s row j, so
        a logit by at most eps * sum_k |w[j, h*d + k]| (|a_src[h, k]| + |a_dst[h, k]|) (a self-loop reads both
        ends); one in ``w[j, h*d + k]`` by at most eps * max |x| * (|a_src[h, k]| + |a_dst[h, k]|); and one in
        ``a_src`` or ``a_dst`` by at most eps * max |hw|.
        """
        heads, d = a_src.shape
        both = np.abs(a_src.data) + np.abs(a_dst.data)
        hw = x.data @ w.data
        reach = max(
            (np.abs(w.data).reshape(-1, heads, d) * both).sum(axis=2).max(),
            np.abs(x.data).max() * both.max(),
            np.abs(hw).max(),
        )
        return min(1e-4, 0.5 * np.abs(logits(hw, a_src, a_dst, p)).min() / reach)

    @given(p=sparse_patterns(), seed=st.integers(0, 2**31 - 1))
    def test_gradient_check(self, p, seed):
        rng = np.random.default_rng(seed)
        x, w, (a_src, a_dst) = rand_tensor(rng, (p.n, 3)), rand_tensor(rng, (3, 4 * 3)), self.vectors(rng, 4, 3)
        target = rng.standard_normal((p.n, 12))
        eps = self.off_kink_step(x, w, a_src, a_dst, p)

        def loss():
            rng_once = np.random.default_rng(seed)  # every call draws the same dropout mask
            return ad.mse_loss(layer(x, w, a_src, a_dst, p, rate=0.5, rng=rng_once), target)

        err = grad_check(loss, [x, w, a_src, a_dst], eps=eps, sample=12, rng=rng, floor=1e-11 / eps)
        assert err < 1e-4

    @pytest.mark.parametrize("recorded", [True, False], ids=["recorded", "no_grad"])
    def test_a_rate_above_0_without_an_rng_raises(self, recorded):
        p = closed_pattern(*PATTERNS["isolated-node"])
        rng = np.random.default_rng(72)
        x, w, (a_src, a_dst) = rand_tensor(rng, (p.n, 2)), rand_tensor(rng, (2, 6)), self.vectors(rng, 2, 3)
        with contextlib.nullcontext() if recorded else ad.no_grad():
            with pytest.raises(ValueError, match=re.escape("dropout at rate 0.3 needs an rng")):
                layer(x, w, a_src, a_dst, p, rate=0.3)
            layer(x, w, a_src, a_dst, p, rate=0.0)  # no dropout, no draws

    @pytest.mark.parametrize("rate", [-0.1, 1.0, float("nan")])
    def test_rejects_a_dropout_rate_outside_0_1(self, rate):
        p = closed_pattern(3, [(0, 1)])
        x, w, a = ad.tensor(np.ones((3, 2))), ad.tensor(np.ones((2, 4))), ad.tensor(np.ones((2, 2)))
        with pytest.raises(ValueError, match=re.escape(f"dropout rate must be in [0, 1), got {rate}")):
            layer(x, w, a, a, p, rate=rate, rng=np.random.default_rng(0))

    def test_a_recorded_layer_needs_its_input(self):
        p = closed_pattern(3, [(0, 1)])
        w, a = ad.tensor(np.ones((2, 4)), requires_grad=True), ad.tensor(np.ones((2, 2)))
        with pytest.raises(ValueError, match="a recorded attention layer needs its input x"):
            ad.attention_layer(None, w, np.ones((3, 4)), a, a, p, 0.0, None)
        with ad.no_grad():
            assert ad.attention_layer(None, w, np.ones((3, 4)), a, a, p, 0.0, None).shape == (3, 4)

    def test_the_rule_keeps_no_transform_and_no_dropped_values(self):
        p = gen_ba(300, 2, 60).pattern
        p.layout  # the pattern keeps the slot layout its first kernel call builds
        rng = np.random.default_rng(61)
        x, w, (a_src, a_dst) = rand_tensor(rng, (p.n, 64)), rand_tensor(rng, (64, 96)), self.vectors(rng, 8, 12)
        hw = x.data @ w.data
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = ad.attention_layer(x, w, hw, a_src, a_dst, p, 0.3, rng)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        # the output, the E x H attention values and their two one-byte masks, besides two H*d x H
        # block-diagonal matrices (12 KB); the transform (n x H*d, as large as the output) or the
        # dropped values (E x H) would add at least 96 KB here
        values = len(p.rows) * 8 * 8
        assert held < out.data.nbytes + 1.25 * values + 32 * 1024
        assert out._parents == (x, w, a_src, a_dst)

    @pytest.mark.parametrize("heads", [2, 8])
    def test_inference_forms_one_output_sized_array(self, heads):
        p = residual(gen_ws(3000, 4, 0.1, 65))  # a WS lattice: its open rows' tails are a few entries
        p.layout
        rng = np.random.default_rng(66)
        w, (a_src, a_dst) = rand_tensor(rng, (16, 96)), self.vectors(rng, heads, 96 // heads)
        hw = rng.standard_normal((p.n, 16)) @ w.data
        with ad.no_grad():
            tracemalloc.start()
            try:
                out = ad.attention_layer(None, w, hw, a_src, a_dst, p, 0.0, None)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # the output, the attention values and the kernel's copy of them and of the columns in slot order,
        # two blocks of kernel scratch, two of ELU temporaries and numpy's 64 KB ufunc buffer; with two
        # heads, one more n x 96 array would exceed it
        values = len(p.rows) * heads * 8
        blocks = 4 * BLOCK_ROWS * 96 * 8
        assert peak < out.data.nbytes + 2 * values + p.cols.nbytes + blocks + 128 * 1024

    def test_dropout_keeps_a_boolean_mask(self):
        a = rand_tensor(np.random.default_rng(62), (4000, 8))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = ad.dropout(a, 0.3, np.random.default_rng(63))
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held < 1.125 * out.data.nbytes + 16 * 1024


class TestNonFiniteLoss:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_backward_names_the_value_and_leaves_the_tape(self, value):
        rng = np.random.default_rng(64)
        x = rand_tensor(rng, (3, 3))
        h = ad.matmul(x, x)
        loss = ad.add(ad.mse_loss(h, np.zeros((3, 3))), ad.tensor([[value]]))
        with pytest.raises(ValueError, match=f"non-finite value {value}"):
            loss.backward()
        assert x.grad is None and h.grad is None and loss.grad is None
        assert h._parents == (x, x)  # the tape was not freed
        ad.mse_loss(h, np.zeros((3, 3))).backward()
        np.testing.assert_allclose(x.grad, (2.0 / 9) * (h.data @ x.data.T + x.data.T @ h.data), rtol=1e-12)


# the primitives with more than one tensor parent, and each parent's position
MULTI_PARENT = [
    (name, i)
    for name in ("matmul", "add", "add_bias", "dense_elu", "concat", "attention_layer")  # attention: x, w, a_src, a_dst
    for i in range(len(RECORDING_OPS[name][0]))
]


class TestConstantParents:
    """Only a tensor that requires grad gets a gradient, and a constant parent leaves the others' unchanged."""

    @staticmethod
    def gradients(name, trained):
        shapes, op = RECORDING_OPS[name]
        parents = TestRecording.parents(shapes, trained, interior=False)
        out = op(*parents)
        ad.mse_loss(out, np.ones(out.shape)).backward()
        return [p.grad for p in parents]

    @pytest.mark.parametrize("name, constant", MULTI_PARENT, ids=[f"{n}-{i}" for n, i in MULTI_PARENT])
    def test_a_constant_parent_gets_no_gradient(self, name, constant):
        count = len(RECORDING_OPS[name][0])
        want = self.gradients(name, [True] * count)
        got = self.gradients(name, [i != constant for i in range(count)])
        assert got[constant] is None
        for i in set(range(count)) - {constant}:
            assert got[i].dtype == want[i].dtype and got[i].shape == want[i].shape
            assert got[i].tobytes() == want[i].tobytes(), i


class TestGradientBuffers:
    """Each rule hands each parent an array only that parent holds, and it becomes ``.grad`` uncopied.

    Where two parents would share one array, a rule hands one of them a copy.
    """

    def test_add_parents_never_share_a_buffer(self):
        rng = np.random.default_rng(56)
        a, b = rand_tensor(rng, (4, 3)), rand_tensor(rng, (4, 3))
        ad.mse_loss(ad.add(a, b), np.zeros((4, 3))).backward()
        assert not np.shares_memory(a.grad, b.grad)
        np.testing.assert_array_equal(a.grad, b.grad)
        c = rand_tensor(rng, (4, 3))
        ad.mse_loss(ad.add(c, c), np.zeros((4, 3))).backward()
        np.testing.assert_allclose(c.grad, 4 * 2.0 / 12 * c.data, rtol=1e-15)

    def test_concat_parts_never_share_a_buffer(self):
        rng = np.random.default_rng(57)
        parts = [rand_tensor(rng, (2, 3)) for _ in range(3)]
        ad.mse_loss(ad.concat(parts, axis=0), np.zeros((6, 3))).backward()
        for i, p in enumerate(parts):
            assert p.grad.base is None and p.grad.flags.owndata
            for q in parts[i + 1 :]:
                assert not np.shares_memory(p.grad, q.grad)

    @pytest.mark.parametrize("offsets", [None, [0, 1, 4]])
    def test_add_bias_hands_its_input_the_incoming_gradient(self, offsets):
        rng = np.random.default_rng(59)
        a, bias = rand_tensor(rng, (4, 3)), rand_tensor(rng, (1 if offsets is None else 2, 3))
        out = ad.add_bias(a, bias, offsets)
        g = rng.standard_normal((4, 3))
        out._backward(g)
        assert a.grad is g
        starts = [0] if offsets is None else offsets[:-1]
        np.testing.assert_allclose(bias.grad, np.add.reduceat(g, starts, axis=0), rtol=1e-12)

    def test_a_leaf_reached_twice_gets_the_sum(self):
        # the first contribution, a fresh product, becomes w.grad, and the second is added into it
        rng = np.random.default_rng(58)
        w = rand_tensor(rng, (3, 3))
        x = ad.tensor(rng.standard_normal((4, 3)))
        target = rng.standard_normal((4, 3))
        assert grad_check(lambda: ad.mse_loss(ad.matmul(ad.matmul(x, w), w), target), [w]) < 1e-6


class TestDenseElu:
    @pytest.mark.parametrize("rows", [1, BLOCK_ROWS, 2 * BLOCK_ROWS + 5])
    def test_matches_the_composed_layer_bit_for_bit(self, rows):
        runs = []
        for fused in (True, False):
            rng = np.random.default_rng(46)
            x, w, b = rand_tensor(rng, (rows, 6)), rand_tensor(rng, (6, 5)), rand_tensor(rng, (1, 5))
            target = rng.standard_normal((rows, 5))
            out = ad.dense_elu(x, w, b) if fused else elu(ad.add_bias(ad.matmul(x, w), b))
            ad.mse_loss(out, target).backward()
            runs.append((out.data, x.grad, w.grad, b.grad))
        for got, want in zip(*runs):
            assert np.array_equal(got, want)

    def test_gradient_check(self):
        rng = np.random.default_rng(47)
        x, w, b = rand_tensor(rng, (9, 4)), rand_tensor(rng, (4, 3)), rand_tensor(rng, (1, 3))
        target = rng.standard_normal((9, 3))
        assert grad_check(lambda: ad.mse_loss(ad.dense_elu(x, w, b), target), [x, w, b]) < 1e-6

    def test_one_output_sized_array(self):
        rng = np.random.default_rng(48)
        x, w, b = rand_tensor(rng, (2000, 96)), rand_tensor(rng, (96, 256)), rand_tensor(rng, (1, 256))
        with ad.no_grad():
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                out = ad.dense_elu(x, w, b)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        # the output plus two blocks of bias-and-ELU temporaries
        assert peak < out.data.nbytes + 2 * BLOCK_ROWS * 256 * 8 + 64 * 1024

    def test_the_block_size_is_read_when_the_layer_runs(self):
        rng = np.random.default_rng(49)
        x, w, b = rand_tensor(rng, (2000, 96)), rand_tensor(rng, (96, 256)), rand_tensor(rng, (1, 256))
        with ad.no_grad(), mock.patch.object(graph_module, "BLOCK_ROWS", 16):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                out = ad.dense_elu(x, w, b)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        # two blocks of 16 rows: two blocks of BLOCK_ROWS rows would exceed it
        assert peak < out.data.nbytes + 2 * 16 * 256 * 8 + 64 * 1024
        assert np.array_equal(out.data, elu(ad.add_bias(ad.matmul(x, w), b)).data)

    def test_rejects_a_bias_of_another_width(self):
        with pytest.raises(ValueError, match=r"bias shape \(1, 4\) incompatible"):
            ad.dense_elu(ad.tensor(np.ones((2, 3))), ad.tensor(np.ones((3, 5))), ad.tensor(np.ones((1, 4))))



class TestLeakyRelu:
    SPECIAL = [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e308, -1e308]

    @pytest.mark.parametrize("slope", [0.2, 1e-3, 0.5, 1.0])
    def test_forward_is_the_two_branch_form_bit_for_bit(self, slope):
        a = np.concatenate((self.SPECIAL, np.random.default_rng(49).standard_normal(40))).reshape(10, 5)
        got = ad.leaky_relu(ad.tensor(a), slope).data
        want = np.where(a > 0, a, slope * a)
        assert np.array_equal(got, want, equal_nan=True)
        signed = ~np.isnan(want)  # a NaN's sign bit is left to the platform
        assert np.array_equal(np.signbit(got[signed]), np.signbit(want[signed]))

    @pytest.mark.parametrize("slope", [0.2, 1.0])
    def test_backward_mask_is_the_input_sign(self, slope):
        rng = np.random.default_rng(50)
        a = ad.tensor(np.concatenate(([0.0, -0.0, 5e-324, -5e-324], rng.standard_normal(26))).reshape(6, 5), requires_grad=True)
        target = rng.standard_normal((6, 5))
        out = ad.leaky_relu(a, slope)
        ad.mse_loss(out, target).backward()
        g = (2.0 / 30) * (out.data - target)  # the loss's gradient at the output
        assert np.array_equal(a.grad, g * np.where(a.data > 0, 1.0, slope))

    def test_gradient_check(self):
        rng = np.random.default_rng(51)
        a = rand_tensor(rng, (7, 4))
        target = rng.standard_normal((7, 4))
        assert grad_check(lambda: ad.mse_loss(ad.leaky_relu(a, 0.2), target), [a]) < 1e-6

    def test_one_output_sized_array(self):
        a = ad.tensor(np.random.default_rng(52).standard_normal((20000, 8)))
        with ad.no_grad():
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                out = ad.leaky_relu(a, 0.2)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert peak < out.data.nbytes + 64 * 1024

    @pytest.mark.parametrize("slope", [-0.1, 0.0, 1.5, float("nan")])
    def test_rejects_a_slope_outside_0_1(self, slope):
        with pytest.raises(ValueError, match=re.escape(f"slope must be in (0, 1], got {slope}")):
            ad.leaky_relu(ad.tensor(np.ones((2, 2))), slope)

class TestGradCheck:
    def test_quadratic(self):
        theta = ad.tensor(np.array([[1.0, -2.0, 3.0]]), requires_grad=True)
        err = grad_check(lambda: ad.mse_loss(theta, np.zeros((1, 3))), [theta])
        assert err < 1e-7

    def test_sampled_coordinates(self):
        rng = np.random.default_rng(7)
        w = rand_tensor(rng, (10, 10))
        target = rng.standard_normal((10, 10))
        err = grad_check(
            lambda: ad.mse_loss(elu(w), target), [w], sample=5, rng=np.random.default_rng(0)
        )
        assert err < 1e-6


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = ad.tensor(np.ones((2, 2)), requires_grad=True)
        p.grad = np.zeros((2, 2))
        state = ad.AdamState(lr=0.1)
        ad.adam_step([p], state)
        assert np.array_equal(p.data, np.ones((2, 2)))

    def test_first_step_magnitude_is_lr(self):
        p = ad.tensor(np.zeros(4), requires_grad=True)
        p.grad = np.array([1.0, -3.0, 0.5, 100.0])
        state = ad.AdamState(lr=0.01)
        ad.adam_step([p], state)
        assert np.allclose(np.abs(p.data), 0.01, atol=1e-6)
        assert np.sign(p.data).tolist() == [-1, 1, -1, -1]

    def test_converges_on_convex_quadratic(self):
        # start far enough out that 100 near-sign-descent steps stay in the
        # strictly-decreasing regime for every coordinate
        rng = np.random.default_rng(8)
        target = rng.standard_normal((1, 6))
        offset = rng.uniform(2.5, 4.0, size=(1, 6)) * rng.choice([-1.0, 1.0], size=(1, 6))
        p = ad.tensor(target + offset, requires_grad=True)
        state = ad.AdamState(lr=0.02)
        losses = []
        for _ in range(100):
            ad.zero_grads([p])
            loss = ad.mse_loss(p, target)
            loss.backward()
            ad.adam_step([p], state)
            losses.append(loss.item())
        warm = losses[10:]
        assert all(b < a for a, b in zip(warm, warm[1:]))
        assert losses[-1] < 0.5 * losses[0]

    @pytest.mark.parametrize("lr", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_a_learning_rate_that_is_not_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match=f"learning rate must be finite and > 0, got {lr}"):
            ad.AdamState(lr=lr)

    def test_a_parameter_with_no_gradient_is_skipped(self):
        a = ad.tensor(np.ones(2), requires_grad=True)
        b = ad.tensor(np.ones(3), requires_grad=True)
        a.grad = np.ones(2)
        state = ad.AdamState(lr=0.1)
        ad.adam_step([a, b], state)
        assert not np.array_equal(a.data, np.ones(2))
        assert np.array_equal(b.data, np.ones(3))
        assert not state.m[1].any() and not state.v[1].any()

    def test_parameter_list_must_keep_its_length(self):
        a = ad.tensor(np.ones(2), requires_grad=True)
        b = ad.tensor(np.ones(3), requires_grad=True)
        a.grad, b.grad = np.ones(2), np.ones(3)
        state = ad.AdamState(lr=0.1)
        ad.adam_step([a], state)
        for params in ([a, b], []):
            with pytest.raises(ValueError, match=f"got {len(params)} parameters, but its moments are for 1"):
                ad.adam_step(params, state)
        assert np.array_equal(b.data, np.ones(3))
        assert state.step == 1
