import contextlib
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given

from conftest import (
    chain_gat_layer,
    concat_gat_layer,
    corpus_graphs,
    dense_encoder,
    grad_check,
    path_graph,
    per_head_encoder,
    per_head_leaves,
)
from critnet import autodiff as ad
from critnet import encoder
from critnet.decoder import Model, init_decoder_params, q_from_embeddings
from critnet.encoder import (
    DROPOUT_PROFILES,
    EMBEDDING_DIM,
    HIDDEN_DIM,
    HIDDEN_PER_HEAD,
    IN_FEATURES,
    N_HEADS,
    OUT_PER_HEAD,
    attention_mask,
    encode,
    gat_layer,
    init_encoder_params,
)
from critnet.features import aggregate_features
from critnet.graph import GraphBatch, build_graph, gen_er, gen_ws, remove_nodes


def params(seed=0):
    return init_encoder_params(np.random.default_rng(seed))


class TestGatLayer:
    def test_isolated_node_attends_to_itself(self):
        # attention weight 1.0 on the self-loop makes each head output h @ W
        g = build_graph(1, [])
        p = params()
        h = ad.tensor(np.array([[0.1, 0.4, 0.0, 0.9]]))
        out = gat_layer(h, h.data @ p.layer1.w.data, attention_mask(GraphBatch.of([g])), p.layer1, 0.0)
        expect = h.data @ p.layer1.w.data
        expect = np.where(expect > 0, expect, np.expm1(expect))
        assert np.allclose(out.data, expect)

    def test_rate_0_draws_nothing_and_equals_the_rng_less_layer(self):
        g = gen_er(12, 0.3, 1)
        p = params()
        h = ad.tensor(np.random.default_rng(2).random((12, 4)))
        hw = h.data @ p.layer1.w.data
        mask = attention_mask(GraphBatch.of([g]))
        rng = np.random.default_rng(3)
        out_rng = gat_layer(h, hw, mask, p.layer1, 0.0, rng)
        out = gat_layer(h, hw, mask, p.layer1, 0.0)
        assert np.array_equal(out_rng.data, out.data)
        assert rng.random() == np.random.default_rng(3).random()

    def test_attention_rows_sum_to_one_per_head(self):
        # with identical input rows, every node's output is its attention row
        # sum times the shared row h @ W, so it equals elu(h @ W) iff each
        # head's attention sums to one over the closed neighborhood
        g = remove_nodes(gen_er(15, 0.25, 4), [2, 7])
        p = params()
        row = np.array([[0.3, -0.8, 0.5, 1.2]])
        h = ad.tensor(np.repeat(row, 13, axis=0))
        out = gat_layer(h, h.data @ p.layer1.w.data, attention_mask(GraphBatch.of([g])), p.layer1, 0.0)
        expect = row @ p.layer1.w.data
        expect = np.where(expect > 0, expect, np.expm1(expect))
        assert np.allclose(out.data, np.repeat(expect, 13, axis=0), rtol=0, atol=1e-14)

    def test_layer_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        g = gen_er(10, 0.3, 6)
        p = params()
        feats = rng.random((10, 4))
        mask = attention_mask(GraphBatch.of([g]))
        base = gat_layer(ad.tensor(feats), feats @ p.layer1.w.data, mask, p.layer1, 0.0).data
        for _ in range(5):
            perm = rng.permutation(10)
            gp = build_graph(10, [(int(perm[u]), int(perm[v])) for u, v in g.edges])
            fp = np.empty_like(feats)
            fp[perm] = feats
            mask = attention_mask(GraphBatch.of([gp]))
            out = gat_layer(ad.tensor(fp), fp @ p.layer1.w.data, mask, p.layer1, 0.0).data
            assert np.allclose(out[perm], base, atol=1e-10)


class TestEncode:
    def test_eval_mode_deterministic(self):
        g = gen_er(20, 0.2, 7)
        p = params()
        feats = aggregate_features(g)
        a = encode(GraphBatch.of([g]), feats, p).data
        b = encode(GraphBatch.of([g]), feats, p).data
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("recording", [False, True], ids=["inference", "recorded"])
    def test_a_layer_input_lives_only_as_long_as_a_tape_needs_it(self, recording):
        # by layer 2's attention, inference has freed layer 1's output; a recorded forward's tape keeps it
        g = gen_er(30, 0.2, 10)
        feats, p = aggregate_features(g), params()
        outputs, freed = [], []

        def spy(x, *args):
            freed.append([ref() is None for ref in outputs])
            out = gat_layer(x, *args)
            outputs.append(weakref.ref(out.data))
            return out

        with mock.patch.object(encoder, "gat_layer", spy), contextlib.ExitStack() as stack:
            if not recording:
                stack.enter_context(ad.no_grad())
            out = encode(GraphBatch.of([g]), feats, p)
        assert freed == [[], [not recording]]
        assert np.array_equal(out.data, encode(GraphBatch.of([g]), feats, p).data)

    def test_a_recorded_forward_keeps_no_transform(self):
        # the tape keeps each layer's input and output; backward forms the transform again
        g = gen_er(30, 0.2, 10)
        feats, p = aggregate_features(g), params()
        transforms = []

        def spy(x, hw, *args):
            transforms.append(weakref.ref(hw))
            return gat_layer(x, hw, *args)

        with mock.patch.object(encoder, "gat_layer", spy):
            out = encode(GraphBatch.of([g]), feats, p, training=True, rng=np.random.default_rng(11))
        assert len(transforms) == 2 and all(ref() is None for ref in transforms)
        assert out._parents and out._backward is not None
        ad.mse_loss(out, np.zeros(out.shape)).backward()
        assert all(t.grad is not None for t in p.parameters())

    def test_training_mode_seeded_reproducible(self):
        g = gen_er(20, 0.2, 8)
        p = params()
        feats = aggregate_features(g)
        a = encode(GraphBatch.of([g]), feats, p, training=True, rng=np.random.default_rng(9)).data
        b = encode(GraphBatch.of([g]), feats, p, training=True, rng=np.random.default_rng(9)).data
        c = encode(GraphBatch.of([g]), feats, p, training=True, rng=np.random.default_rng(10)).data
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_output_shapes(self):
        p = params()
        for n in (10, 50, 150):
            g = gen_ba_like(n)
            emb = encode(GraphBatch.of([g]), aggregate_features(g), p)
            assert emb.shape == (n, EMBEDDING_DIM)

    def test_residual_graph_rows_track_alive_nodes(self):
        g = gen_er(18, 0.3, 11)
        p = params()
        g2 = remove_nodes(g, [0, 5, 6])
        emb = encode(GraphBatch.of([g2]), aggregate_features(g2), p)
        assert emb.shape == (15, EMBEDDING_DIM)
        assert np.isfinite(emb.data).all()

    def test_isolated_residual_nodes_finite(self):
        g = path_graph(5)
        g2 = remove_nodes(g, [1, 3])  # leaves three isolated nodes
        p = params()
        emb = encode(GraphBatch.of([g2]), aggregate_features(g2), p)
        assert np.isfinite(emb.data).all()

    @pytest.mark.parametrize("dead", [[], [0, 5, 6]], ids=["all-alive", "residual"])
    def test_a_graph_is_not_a_batch(self, dead):
        g = remove_nodes(gen_er(18, 0.3, 11), dead)
        with pytest.raises(TypeError, match="expected a GraphBatch, got Graph"):
            attention_mask(g)
        with pytest.raises(TypeError, match="expected a GraphBatch, got Graph"):
            encode(g, aggregate_features(g), params())

    def test_full_encoder_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        g = gen_er(12, 0.35, 13)
        p = params()
        feats = rng.random((12, 4))
        base = encode(GraphBatch.of([g]), feats, p).data
        for _ in range(20):
            perm = rng.permutation(12)
            gp = build_graph(12, [(int(perm[u]), int(perm[v])) for u, v in g.edges])
            fp = np.empty_like(feats)
            fp[perm] = feats
            out = encode(GraphBatch.of([gp]), fp, p).data
            assert np.allclose(out[perm], base, atol=1e-10)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(14)
        g = gen_er(6, 0.5, 15)
        p = params(seed=16)
        feats = aggregate_features(g)
        target = rng.standard_normal((g.n, EMBEDDING_DIM))

        def loss():
            return ad.mse_loss(encode(GraphBatch.of([g]), feats, p), target)

        err = grad_check(loss, p.parameters(), sample=12, rng=np.random.default_rng(17))
        assert err < 1e-4


class TestOriginalGatProfile:
    def test_shape_matches_reduced_profile(self):
        g = gen_er(14, 0.3, 18)
        p = params()
        feats = aggregate_features(g)
        assert encode(GraphBatch.of([g]), feats, p, profile="original").shape == encode(GraphBatch.of([g]), feats, p).shape

    def test_eval_mode_deterministic_and_equal_to_reduced(self):
        # without dropout both profiles are the same architecture
        g = gen_er(14, 0.3, 19)
        p = params()
        feats = aggregate_features(g)
        a = encode(GraphBatch.of([g]), feats, p, profile="original").data
        assert np.array_equal(a, encode(GraphBatch.of([g]), feats, p, profile="original").data)
        assert np.array_equal(a, encode(GraphBatch.of([g]), feats, p).data)

    def test_training_mode_differs_from_reduced_profile(self):
        g = gen_er(14, 0.3, 20)
        p = params()
        feats = aggregate_features(g)
        a = encode(GraphBatch.of([g]), feats, p, training=True, rng=np.random.default_rng(21)).data
        b = encode(GraphBatch.of([g]), feats, p, training=True, rng=np.random.default_rng(21), profile="original").data
        assert not np.array_equal(a, b)


class TestDropoutProfiles:
    @pytest.mark.parametrize("profile", ["reduced", "original"])
    def test_profile_equals_explicit_primitive_chain(self, profile):
        # the layer sequence each profile stood for before the table existed
        g = remove_nodes(gen_er(16, 0.3, 22), [3, 9])
        p = params(seed=23)
        feats = aggregate_features(g)
        got = encode(GraphBatch.of([g]), feats, p, training=True, rng=np.random.default_rng(24), profile=profile).data
        rng = np.random.default_rng(24)
        mask = attention_mask(GraphBatch.of([g]))
        if profile == "original":
            h = ad.dropout(ad.tensor(feats), 0.6, rng)
            h = gat_layer(h, h.data @ p.layer1.w.data, mask, p.layer1, 0.6, rng)
            h = ad.dropout(h, 0.6, rng)
            want = gat_layer(h, h.data @ p.layer2.w.data, mask, p.layer2, 0.6, rng).data
        else:
            h = gat_layer(ad.tensor(feats), feats @ p.layer1.w.data, mask, p.layer1, 0.0, rng)
            want = gat_layer(h, h.data @ p.layer2.w.data, mask, p.layer2, 0.3, rng).data
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("profile", ["reduced", "original"])
    def test_training_without_rng_rejected(self, profile):
        g = gen_er(8, 0.4, 25)
        with pytest.raises(ValueError, match="needs an rng"):
            encode(GraphBatch.of([g]), aggregate_features(g), params(), training=True, rng=None, profile=profile)

    @pytest.mark.parametrize("profile", ["reduced", "original"])
    def test_eval_draws_nothing_from_a_given_rng(self, profile):
        # encode alone turns training into rates: an eval forward runs every layer at rate 0
        g = remove_nodes(gen_er(16, 0.3, 27), [4])
        feats, p = aggregate_features(g), params(seed=28)
        rng = np.random.default_rng(29)
        got = encode(GraphBatch.of([g]), feats, p, rng=rng, profile=profile).data
        assert np.array_equal(got, encode(GraphBatch.of([g]), feats, p, profile=profile).data)
        assert rng.bit_generator.state == np.random.default_rng(29).bit_generator.state

    def test_unknown_profile_names_known_ones(self):
        g = gen_er(8, 0.4, 26)
        with pytest.raises(ValueError, match="'bogus'.*reduced.*original"):
            encode(GraphBatch.of([g]), aggregate_features(g), params(), profile="bogus")


class TestDenseOracle:
    """Edge-list attention against the dense n x n layer kept in conftest."""

    @staticmethod
    def run(model, g, target):
        emb = model.embed(GraphBatch.of([g]))
        loss = ad.mse_loss(q_from_embeddings(emb, model.decoder).q, target)
        loss.backward()
        grads = [p.grad.copy() for p in model.parameters()]
        ad.zero_grads(model.parameters())
        return emb.data, model.q_full(g), grads

    @pytest.mark.parametrize("profile", ["reduced", "original"])
    @given(g=corpus_graphs())
    def test_embeddings_q_and_gradients_match(self, profile, g):
        rng = np.random.default_rng(g.n)
        model = Model(init_encoder_params(rng), init_decoder_params(rng), dropout_profile=profile)
        target = rng.standard_normal((g.n_alive(), 1))
        emb, q, grads = self.run(model, g, target)
        with dense_encoder():
            want_emb, want_q, want_grads = self.run(model, g, target)
        np.testing.assert_allclose(emb, want_emb, rtol=0, atol=1e-12)
        np.testing.assert_allclose(q, want_q, rtol=0, atol=1e-12)
        # some a_src gradients are zero up to rounding (~1e-19), so the error
        # is scaled by the largest gradient entry rather than per parameter
        scale = max(np.abs(w).max() for w in want_grads)
        for got, want in zip(grads, want_grads):
            assert np.abs(got - want).max() <= 1e-12 * scale


    def test_a_batch_matches_block_diagonal_dense_attention(self):
        rng = np.random.default_rng(43)
        model = Model(init_encoder_params(rng), init_decoder_params(rng))
        batch = GraphBatch.of([remove_nodes(gen_er(14, 0.3, 44), [2]), gen_ba_like(20), path_graph(3)])
        got = model.q_full(batch)
        with dense_encoder():
            want = model.q_full(batch)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


class TestPerHeadOracle:
    """Head-batched layers against the one-head-at-a-time layer kept in conftest."""

    @staticmethod
    def run(model, g, seed):
        with ad.no_grad():
            eval_emb = model.embed(GraphBatch.of([g])).data
        train_emb = model.embed(GraphBatch.of([g]), training=True, rng=np.random.default_rng(seed))
        q = q_from_embeddings(train_emb, model.decoder).q
        ad.mse_loss(q, np.linspace(-1.0, 1.0, q.shape[0]).reshape(-1, 1)).backward()
        grads = [p.grad.copy() for p in model.encoder.parameters()]
        ad.zero_grads(model.parameters())
        return [eval_emb, train_emb.data], grads

    def check(self, g, profile, seed):
        rng = np.random.default_rng(seed)
        model = Model(init_encoder_params(rng), init_decoder_params(rng), dropout_profile=profile)
        got_emb, got_grads = self.run(model, g, seed + 1)
        with per_head_encoder():
            want_emb, want_grads = self.run(model, g, seed + 1)
        assert len(got_grads) == 6
        for a, b in zip(got_emb + got_grads, want_emb + want_grads):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("profile", ["reduced", "original"])
    @given(g=corpus_graphs(max_n=60))
    def test_embeddings_and_gradients_match(self, profile, g):
        self.check(g, profile, g.n)

    def test_training_dropout_matches_at_scale(self):
        # 8 heads of E = 1200+ draws each: a head-order slip would show at once
        self.check(remove_nodes(gen_ba_like(400), [0, 3]), "original", 40)

    def test_layer_rejects_a_mismatched_pattern(self):
        # the attention layer's own shape check: gat_layer keeps no second one
        mask = attention_mask(GraphBatch.of([gen_er(6, 0.5, 42)]))
        for rows in (5, 7):
            with pytest.raises(ValueError, match=rf"attention shape mismatch: hw \({rows}, {HIDDEN_DIM}\).*pattern of 6 rows"):
                gat_layer(None, np.zeros((rows, HIDDEN_DIM)), mask, params().layer1, 0.0)


class TestPerLayerTensors:
    """One tensor per layer and role, against per-head leaves concatenated and block-diagonalised on the tape."""

    def test_init_equals_the_per_head_draws(self):
        p = params(seed=60)
        rng = np.random.default_rng(60)
        for layer, in_dim, d in ((p.layer1, IN_FEATURES, HIDDEN_PER_HEAD), (p.layer2, HIDDEN_DIM, OUT_PER_HEAD)):
            assert layer.w.shape == (in_dim, N_HEADS * d) and layer.a_src.shape == layer.a_dst.shape == (N_HEADS, d)
            for h in range(N_HEADS):
                assert np.array_equal(layer.w.data[:, h * d : (h + 1) * d], ad.glorot(rng, in_dim, d).data)
                assert np.array_equal(layer.a_src.data[h], ad.glorot(rng, d, 1).data[:, 0])
                assert np.array_equal(layer.a_dst.data[h], ad.glorot(rng, d, 1).data[:, 0])
        assert all(t.requires_grad for t in p.parameters()) and len(p.parameters()) == 6

    @pytest.mark.parametrize("rate", [0.0, 0.6], ids=["eval", "train"])
    @given(g=corpus_graphs(max_n=60))
    def test_layer_and_gradients_are_bit_equal_to_per_head_leaves(self, rate, g):
        rng = np.random.default_rng(g.n)
        p = params(seed=g.n)
        mask = attention_mask(GraphBatch.of([g]))
        h = ad.tensor(rng.standard_normal((g.n_alive(), HIDDEN_PER_HEAD * N_HEADS)), requires_grad=True)
        target = rng.standard_normal((g.n_alive(), N_HEADS * OUT_PER_HEAD))
        got = gat_layer(h, h.data @ p.layer2.w.data, mask, p.layer2, rate, np.random.default_rng(1))
        ad.mse_loss(got, target).backward()
        got_h = h.grad
        h.zero_grad()
        heads = per_head_leaves(p.layer2)
        want = concat_gat_layer(h, mask, heads, rate, np.random.default_rng(1))
        ad.mse_loss(want, target).backward()
        assert np.array_equal(got.data, want.data)
        assert np.array_equal(got_h, h.grad)
        d = OUT_PER_HEAD
        for k, head in enumerate(heads):
            assert np.array_equal(p.layer2.w.grad[:, k * d : (k + 1) * d], head.w.grad)
            assert np.array_equal(p.layer2.a_src.grad[k], head.a_src.grad[:, 0])
            assert np.array_equal(p.layer2.a_dst.grad[k], head.a_dst.grad[:, 0])


class TestChainOracle:
    """``attention_layer`` against the chain of separate primitives it fuses, kept in conftest."""

    @staticmethod
    def run(layer_fn, batch, profile, training, seed):
        """Both layers as ``encode`` stacks them, with a leaf input: the output and every gradient."""
        in1, att1, in2, att2 = DROPOUT_PROFILES[profile] if training else (0.0,) * 4
        rng = np.random.default_rng(seed)
        p = params(seed)
        mask = attention_mask(batch)
        h = ad.tensor(rng.standard_normal((mask.n, IN_FEATURES)), requires_grad=True)
        x = h
        for layer, in_rate, att_rate in ((p.layer1, in1, att1), (p.layer2, in2, att2)):
            h = ad.dropout(h, in_rate, rng)
            h = layer_fn(h, h.data @ layer.w.data, mask, layer, att_rate, rng)
        out = h
        ad.mse_loss(out, rng.standard_normal(out.shape)).backward()
        return [out.data, x.grad] + [t.grad for t in p.parameters()]

    def check(self, batch, seed):
        for profile in DROPOUT_PROFILES:
            for training in (False, True):
                got = self.run(gat_layer, batch, profile, training, seed)
                want = self.run(chain_gat_layer, batch, profile, training, seed)
                assert len(got) == 8
                for a, b in zip(got, want):
                    assert np.array_equal(a, b), (profile, training)

    @given(g=corpus_graphs(max_n=60))
    def test_a_graph_is_bit_equal(self, g):
        self.check(GraphBatch.of([g]), g.n)

    def test_a_batch_is_bit_equal(self):
        states = [remove_nodes(gen_ba_like(150), [0, 7, 9]), gen_er(150, 4 / 149, 45), gen_ws(150, 4, 0.1, 46), path_graph(3)]
        self.check(GraphBatch.of(states), 47)


def gen_ba_like(n):
    from critnet.graph import gen_ba

    return gen_ba(n, 2, n)
