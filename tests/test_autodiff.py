import numpy as np
import pytest

from critnet import autodiff as ad
from critnet.graph import symmetric_pattern


def rand_tensor(rng, shape, requires_grad=True):
    return ad.tensor(rng.standard_normal(shape), requires_grad=requires_grad)


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

    def test_matmul_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        a = rand_tensor(rng, (3, 4))
        b = rand_tensor(rng, (4, 2))
        target = rng.standard_normal((3, 2))
        err = ad.grad_check(lambda: ad.mse_loss(ad.matmul(a, b), target), [a, b])
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
            h = ad.elu(h)
            g = ad.leaky_relu(ad.transpose(h), 0.2)
            pooled = ad.mean_rows(ad.scale(g, 0.1))
            both = ad.concat([pooled, ad.mean_rows(g), ad.pick(g, 1, 2)], axis=1)
            return ad.mse_loss(both, target)

        assert ad.grad_check(forward, [w, bias]) < 1e-6

    def test_add_gradient(self):
        rng = np.random.default_rng(4)
        a = rand_tensor(rng, (3, 3))
        b = rand_tensor(rng, (3, 3))
        target = rng.standard_normal((3, 3))
        err = ad.grad_check(lambda: ad.mse_loss(ad.add(a, b), target), [a, b])
        assert err < 1e-6

    def test_dropout_eval_is_identity(self):
        x = ad.tensor(np.ones((4, 4)))
        rng = np.random.default_rng(5)
        assert ad.dropout(x, 0.5, rng, training=False) is x
        assert ad.dropout(x, 0.0, rng, training=True) is x

    def test_dropout_needs_rng_only_when_it_draws(self):
        x = ad.tensor(np.ones((3, 3)))
        assert ad.dropout(x, 0.5, None, training=False) is x
        assert ad.dropout(x, 0.0, None, training=True) is x
        with pytest.raises(ValueError, match="needs an rng"):
            ad.dropout(x, 0.5, None, training=True)

    def test_dropout_train_scales_kept_entries(self):
        x = ad.tensor(np.ones((50, 50)), requires_grad=True)
        rng = np.random.default_rng(6)
        out = ad.dropout(x, 0.4, rng, training=True)
        vals = np.unique(out.data)
        assert set(np.round(vals, 12)) <= {0.0, round(1 / 0.6, 12)}
        # inverted scaling keeps the expectation near 1
        assert abs(out.data.mean() - 1.0) < 0.05

    def test_no_grad_suppresses_graph(self):
        x = ad.tensor(np.ones((2, 2)), requires_grad=True)
        with ad.no_grad():
            y = ad.matmul(x, x)
        assert y._parents == ()


def closed_pattern(n, edges):
    """Closed-neighborhood pattern: every edge in both directions plus a self-loop per node."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    loops = np.arange(n)
    return symmetric_pattern(
        np.concatenate((e[:, 0], e[:, 1], loops)), np.concatenate((e[:, 1], e[:, 0], loops)), n
    )


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
        out = ad.gather_rows(a, pattern, columns)
        assert np.array_equal(out.data, a.data[pattern.cols if columns else pattern.rows])
        err = ad.grad_check(lambda: ad.mse_loss(ad.gather_rows(a, pattern, columns), target), [a])
        assert err < 1e-6

    def test_segment_softmax_gradient(self, pattern):
        rng = np.random.default_rng(31)
        logits = rand_tensor(rng, (len(pattern.rows), 1))
        target = rng.standard_normal((len(pattern.rows), 1))
        err = ad.grad_check(lambda: ad.mse_loss(ad.segment_softmax(logits, pattern), target), [logits])
        assert err < 1e-6

    def test_spmm_gradient(self, pattern):
        rng = np.random.default_rng(32)
        values = rand_tensor(rng, (len(pattern.rows), 1))
        x = rand_tensor(rng, (pattern.n, 3))
        target = rng.standard_normal((pattern.n, 3))
        out = ad.spmm(values, pattern, x)
        assert np.allclose(out.data, dense(pattern, values.data) @ x.data, rtol=0, atol=1e-14)
        err = ad.grad_check(lambda: ad.mse_loss(ad.spmm(values, pattern, x), target), [values, x])
        assert err < 1e-6

    def test_segment_softmax_rows_sum_to_one(self):
        p = closed_pattern(*PATTERNS["isolated-node"])
        logits = np.random.default_rng(33).standard_normal((len(p.rows), 1)) * 400.0
        out = ad.segment_softmax(ad.tensor(logits), p).data
        assert np.allclose(p.row_sums(out), 1.0, rtol=0, atol=1e-15)
        assert (out >= 0.0).all()

    def test_isolated_node_attends_to_itself(self):
        p = closed_pattern(*PATTERNS["isolated-node"])
        logits = np.random.default_rng(34).standard_normal((len(p.rows), 1))
        out = ad.segment_softmax(ad.tensor(logits), p).data
        (own,) = np.flatnonzero(p.rows == 5)
        assert p.cols[own] == 5
        assert out[own, 0] == 1.0

    def test_segment_softmax_matches_dense_masked_softmax(self):
        p = closed_pattern(*PATTERNS["isolated-node"])
        logits = np.random.default_rng(35).standard_normal((len(p.rows), 1))
        mask = dense(p, np.ones(len(p.rows)))
        full = np.where(mask > 0, dense(p, logits), 0.0)
        want = ad.row_softmax_masked(ad.tensor(full), mask).data[p.rows, p.cols]
        got = ad.segment_softmax(ad.tensor(logits), p).data[:, 0]
        assert np.allclose(got, want, rtol=0, atol=1e-15)

    def test_pattern_is_sorted_with_a_transpose_permutation(self, pattern):
        order = np.lexsort((pattern.cols, pattern.rows))
        assert np.array_equal(order, np.arange(len(pattern.rows)))
        assert np.array_equal(pattern.rows[pattern.transpose], pattern.cols)
        assert np.array_equal(pattern.cols[pattern.transpose], pattern.rows)

    @pytest.mark.parametrize(
        "rows, cols, n, message",
        [
            ([0, 1], [0, 1], 3, "needs an entry"),
            ([0, 1, 0], [0, 1, 1], 2, "not symmetric"),
            ([0, 0, 1], [0, 0, 1], 2, "duplicate"),
            ([0, 1, 2], [0, 1, 2], 2, "needs an entry"),
        ],
        ids=["empty-row", "asymmetric", "duplicate", "out-of-range"],
    )
    def test_invalid_pattern_rejected(self, rows, cols, n, message):
        with pytest.raises(ValueError, match=message):
            symmetric_pattern(np.array(rows), np.array(cols), n)

    def test_shape_mismatch_raises(self):
        p = closed_pattern(3, [(0, 1)])
        with pytest.raises(ValueError):
            ad.gather_rows(ad.tensor(np.zeros((4, 2))), p)
        with pytest.raises(ValueError):
            ad.segment_softmax(ad.tensor(np.zeros((len(p.rows) + 1, 1))), p)
        with pytest.raises(ValueError):
            ad.spmm(ad.tensor(np.zeros((len(p.rows), 1))), p, ad.tensor(np.zeros((2, 2))))


class TestGradCheck:
    def test_quadratic(self):
        theta = ad.tensor(np.array([[1.0, -2.0, 3.0]]), requires_grad=True)
        err = ad.grad_check(lambda: ad.mse_loss(theta, np.zeros((1, 3))), [theta])
        assert err < 1e-7

    def test_sampled_coordinates(self):
        rng = np.random.default_rng(7)
        w = rand_tensor(rng, (10, 10))
        target = rng.standard_normal((10, 10))
        err = ad.grad_check(
            lambda: ad.mse_loss(ad.elu(w), target), [w], sample=5, rng=np.random.default_rng(0)
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
