import numpy as np
import pytest

from conftest import path_graph, random_graph
from critnet import autodiff as ad
from critnet.encoder import (
    EMBEDDING_DIM,
    attention_mask,
    encode,
    gat_layer,
    init_encoder_params,
)
from critnet.features import aggregate_features
from critnet.graph import build_graph, gen_er, remove_nodes


def params(seed=0):
    return init_encoder_params(np.random.default_rng(seed))


class TestGatLayer:
    def test_isolated_node_attends_to_itself(self):
        g = build_graph(1, [])
        p = params()
        h = ad.tensor(np.array([[0.1, 0.4, 0.0, 0.9]]))
        attn: list = []
        out = gat_layer(h, attention_mask(g), p.layer1, 0.0, False, collect_attention=attn)
        assert len(attn) == 8
        assert all(a.shape == (1, 1) and a[0, 0] == 1.0 for a in attn)
        expect = np.concatenate([h.data @ head.w.data for head in p.layer1.heads], axis=1)
        expect = np.where(expect > 0, expect, np.expm1(expect))
        assert np.allclose(out.data, expect)

    def test_zero_dropout_training_equals_eval(self):
        g = gen_er(12, 0.3, 1)
        p = params()
        h = ad.tensor(np.random.default_rng(2).random((12, 4)))
        mask = attention_mask(g)
        rng = np.random.default_rng(3)
        out_train = gat_layer(h, mask, p.layer1, 0.0, True, rng)
        out_eval = gat_layer(h, mask, p.layer1, 0.0, False)
        assert np.array_equal(out_train.data, out_eval.data)

    def test_attention_rows_sum_to_one_per_head(self):
        g = gen_er(15, 0.25, 4)
        p = params()
        feats = aggregate_features(g)
        attn: list = []
        gat_layer(ad.tensor(feats), attention_mask(g), p.layer1, 0.0, False, collect_attention=attn)
        for a in attn:
            assert np.allclose(a.sum(axis=1), 1.0)

    def test_layer_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        g = gen_er(10, 0.3, 6)
        p = params()
        feats = rng.random((10, 4))
        base = gat_layer(ad.tensor(feats), attention_mask(g), p.layer1, 0.0, False).data
        for _ in range(5):
            perm = rng.permutation(10)
            gp = build_graph(10, [(int(perm[u]), int(perm[v])) for u, v in g.edges])
            fp = np.empty_like(feats)
            fp[perm] = feats
            out = gat_layer(ad.tensor(fp), attention_mask(gp), p.layer1, 0.0, False).data
            assert np.allclose(out[perm], base, atol=1e-10)


class TestEncode:
    def test_eval_mode_deterministic(self):
        g = gen_er(20, 0.2, 7)
        p = params()
        feats = aggregate_features(g)
        a = encode(g, feats, p).data
        b = encode(g, feats, p).data
        assert np.array_equal(a, b)

    def test_training_mode_seeded_reproducible(self):
        g = gen_er(20, 0.2, 8)
        p = params()
        feats = aggregate_features(g)
        a = encode(g, feats, p, training=True, rng=np.random.default_rng(9)).data
        b = encode(g, feats, p, training=True, rng=np.random.default_rng(9)).data
        c = encode(g, feats, p, training=True, rng=np.random.default_rng(10)).data
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_output_shapes(self):
        p = params()
        for n in (10, 50, 150):
            g = gen_ba_like(n)
            emb = encode(g, aggregate_features(g), p)
            assert emb.shape == (n, EMBEDDING_DIM)

    def test_residual_graph_rows_track_alive_nodes(self):
        g = gen_er(18, 0.3, 11)
        p = params()
        g2 = remove_nodes(g, [0, 5, 6])
        emb = encode(g2, aggregate_features(g2), p)
        assert emb.shape == (15, EMBEDDING_DIM)
        assert np.isfinite(emb.data).all()

    def test_isolated_residual_nodes_finite(self):
        g = path_graph(5)
        g2 = remove_nodes(g, [1, 3])  # leaves three isolated nodes
        p = params()
        emb = encode(g2, aggregate_features(g2), p)
        assert np.isfinite(emb.data).all()

    def test_full_encoder_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        g = gen_er(12, 0.35, 13)
        p = params()
        feats = rng.random((12, 4))
        base = encode(g, feats, p).data
        for _ in range(20):
            perm = rng.permutation(12)
            gp = build_graph(12, [(int(perm[u]), int(perm[v])) for u, v in g.edges])
            fp = np.empty_like(feats)
            fp[perm] = feats
            out = encode(gp, fp, p).data
            assert np.allclose(out[perm], base, atol=1e-10)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(14)
        g = gen_er(6, 0.5, 15)
        p = params(seed=16)
        feats = aggregate_features(g)
        target = rng.standard_normal((g.n, EMBEDDING_DIM))

        def loss():
            return ad.mse_loss(encode(g, feats, p), target)

        err = ad.grad_check(loss, p.parameters(), sample=12, rng=np.random.default_rng(17))
        assert err < 1e-4


class TestOriginalGatProfile:
    def test_shape_matches_reduced_profile(self):
        g = gen_er(14, 0.3, 18)
        p = params()
        feats = aggregate_features(g)
        assert encode(g, feats, p, profile="original").shape == encode(g, feats, p).shape

    def test_eval_mode_deterministic_and_equal_to_reduced(self):
        # without dropout both profiles are the same architecture
        g = gen_er(14, 0.3, 19)
        p = params()
        feats = aggregate_features(g)
        a = encode(g, feats, p, profile="original").data
        assert np.array_equal(a, encode(g, feats, p, profile="original").data)
        assert np.array_equal(a, encode(g, feats, p).data)

    def test_training_mode_differs_from_reduced_profile(self):
        g = gen_er(14, 0.3, 20)
        p = params()
        feats = aggregate_features(g)
        a = encode(g, feats, p, training=True, rng=np.random.default_rng(21)).data
        b = encode(g, feats, p, training=True, rng=np.random.default_rng(21), profile="original").data
        assert not np.array_equal(a, b)


class TestDropoutProfiles:
    @pytest.mark.parametrize("profile", ["reduced", "original"])
    def test_profile_equals_explicit_primitive_chain(self, profile):
        # the layer sequence each profile stood for before the table existed
        g = remove_nodes(gen_er(16, 0.3, 22), [3, 9])
        p = params(seed=23)
        feats = aggregate_features(g)
        got = encode(g, feats, p, training=True, rng=np.random.default_rng(24), profile=profile).data
        rng = np.random.default_rng(24)
        mask = attention_mask(g)
        if profile == "original":
            h = ad.dropout(ad.tensor(feats), 0.6, rng, True)
            h = gat_layer(h, mask, p.layer1, 0.6, True, rng)
            h = ad.dropout(h, 0.6, rng, True)
            want = gat_layer(h, mask, p.layer2, 0.6, True, rng).data
        else:
            h = gat_layer(ad.tensor(feats), mask, p.layer1, 0.0, True, rng)
            want = gat_layer(h, mask, p.layer2, 0.3, True, rng).data
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("profile", ["reduced", "original"])
    def test_training_without_rng_rejected(self, profile):
        g = gen_er(8, 0.4, 25)
        with pytest.raises(ValueError, match="needs an rng"):
            encode(g, aggregate_features(g), params(), training=True, rng=None, profile=profile)

    def test_unknown_profile_names_known_ones(self):
        g = gen_er(8, 0.4, 26)
        with pytest.raises(ValueError, match="'bogus'.*reduced.*original"):
            encode(g, aggregate_features(g), params(), profile="bogus")


def gen_ba_like(n):
    from critnet.graph import gen_ba

    return gen_ba(n, 2, n)
