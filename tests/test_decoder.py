import copy
import pickle
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from hypothesis import given, strategies as st

from conftest import corpus_graphs, grad_check, loop_td_targets
from critnet import autodiff as ad
from critnet import decoder as decoder_module
from critnet import graph as graph_module
from critnet.decoder import (
    Model,
    ReplayBuffer,
    Transition,
    init_decoder_params,
    q_from_embeddings,
    select_action,
    td_targets,
)
from critnet.encoder import EMBEDDING_DIM, encode, init_encoder_params
from critnet.features import aggregate_features, degree_only_features
from critnet.graph import Graph, GraphBatch, build_graph, gen_ba, gen_er, gen_ws, remove_nodes, residual


def decoder(seed=0, dueling=True):
    return init_decoder_params(np.random.default_rng(seed), dueling=dueling)


def model(seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    return Model(init_encoder_params(rng), init_decoder_params(rng), **kwargs)


class TestQHead:
    def test_identical_embeddings_give_identical_q(self):
        emb = ad.tensor(np.tile(np.linspace(-1, 1, EMBEDDING_DIM), (5, 1)))
        out = q_from_embeddings(emb, decoder())
        assert np.allclose(out.q.data, out.q.data[0, 0])

    def test_advantage_component_centers_to_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            emb = ad.tensor(rng.standard_normal((int(rng.integers(1, 12)), EMBEDDING_DIM)))
            out = q_from_embeddings(emb, decoder())
            assert abs(float((out.q.data - out.value.data).mean())) < 1e-9

    def test_single_alive_node_q_equals_value(self):
        emb = ad.tensor(np.random.default_rng(2).standard_normal((1, EMBEDDING_DIM)))
        out = q_from_embeddings(emb, decoder())
        assert np.allclose(out.q.data, out.value.data)

    def test_empty_embedding_rejected(self):
        with pytest.raises(ValueError):
            q_from_embeddings(ad.tensor(np.zeros((0, EMBEDDING_DIM))), decoder())

    def test_q_invariant_to_constant_advantage_shift(self):
        rng = np.random.default_rng(3)
        emb = ad.tensor(rng.standard_normal((7, EMBEDDING_DIM)))
        params = decoder()
        base = q_from_embeddings(emb, params)
        params.node_head.b2.data += 123.45  # shifts every advantage equally
        shifted = q_from_embeddings(emb, params)
        assert np.argmax(base.q.data) == np.argmax(shifted.q.data)
        assert np.allclose(base.q.data, shifted.q.data, atol=1e-9)

    def test_non_dueling_head_has_no_value_stream(self):
        emb = ad.tensor(np.random.default_rng(6).standard_normal((4, EMBEDDING_DIM)))
        out = q_from_embeddings(emb, decoder(dueling=False))
        assert out.value is None and out.advantage is None
        assert out.q.shape == (4, 1)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(7)
        params = decoder(seed=8)
        emb = ad.tensor(rng.standard_normal((6, EMBEDDING_DIM)))
        target = rng.standard_normal((6, 1))

        def loss():
            return ad.mse_loss(q_from_embeddings(emb, params).q, target)

        err = grad_check(loss, params.parameters(), sample=12, rng=np.random.default_rng(9))
        assert err < 1e-4


@pytest.mark.parametrize("dueling", [True, False], ids=["dueling", "plain"])
def test_parameters_follow_named_parameters(dueling):
    rng = np.random.default_rng(15)
    m = Model(init_encoder_params(rng), init_decoder_params(rng, dueling=dueling))
    for params in (m.encoder, m.decoder):
        named = params.named_parameters()
        assert len({name for name, _ in named}) == len(named)
        tensors = [t for _, t in named]
        assert len(tensors) == len(params.parameters())
        assert all(a is b for a, b in zip(tensors, params.parameters()))


def test_a_frozen_parameter_stays_byte_equal_through_an_update():
    m = model(seed=16)
    frozen = (m.encoder.layer1.w, m.decoder.node_head.w2)
    for t in frozen:
        t.requires_grad = False
    before = [p.data.copy() for p in m.parameters()]
    out = m.q_output(gen_ba(60, 2, 17), training=True, rng=np.random.default_rng(18))
    ad.mse_loss(out.q, np.random.default_rng(19).standard_normal(out.q.shape)).backward()
    ad.adam_step(m.parameters(), ad.AdamState(lr=1e-3))
    for p, old in zip(m.parameters(), before):
        if any(p is t for t in frozen):
            assert p.grad is None and p.data.tobytes() == old.tobytes()
        else:
            # the dueling head's node bias cancels in Q, so its gradient is 0 up to rounding
            assert p.grad is not None and (not np.array_equal(p.data, old) or not p.grad.any())


class TestSelectAction:
    def test_greedy_picks_argmax(self):
        q = np.array([1.0, 5.0, -np.inf, 3.0])
        assert select_action(q, 0.0, np.random.default_rng(0)) == 1

    def test_tied_q_breaks_to_lowest_id(self):
        q = np.array([-np.inf, 2.0, 2.0, 2.0])
        assert select_action(q, 0.0, np.random.default_rng(0)) == 1

    def test_never_returns_dead_node(self):
        q = np.array([-np.inf, 0.0, -np.inf, 0.0])
        rng = np.random.default_rng(1)
        for eps in (0.0, 0.5, 1.0):
            for _ in range(200):
                assert select_action(q, eps, rng) in (1, 3)

    def test_nan_rejected_on_greedy_branch(self):
        q = np.array([1.0, np.nan, 2.0, -np.inf])
        with pytest.raises(ValueError, match=r"NaN at node\(s\) \[1\]"):
            select_action(q, 0.0, np.random.default_rng(0))

    def test_nan_rejected_on_epsilon_branch(self):
        q = np.array([1.0, 3.0, -np.inf, np.nan])
        with pytest.raises(ValueError, match=r"NaN at node\(s\) \[3\]"):
            select_action(q, 1.0, np.random.default_rng(0))

    @pytest.mark.parametrize("epsilon", [0.0, 1.0], ids=["greedy", "epsilon"])
    def test_positive_infinity_rejected_on_both_branches(self, epsilon):
        q = np.array([1.0, np.inf, 2.0, -np.inf, np.inf])
        with pytest.raises(ValueError, match=r"\+inf at node\(s\) \[1, 4\]"):
            select_action(q, epsilon, np.random.default_rng(0))

    @pytest.mark.parametrize("epsilon", [-0.5, 1.5, np.nan])
    def test_epsilon_outside_unit_interval_rejected(self, epsilon):
        with pytest.raises(ValueError, match=rf"epsilon must be in \[0, 1\], got {epsilon}"):
            select_action(np.array([1.0, 2.0]), epsilon, np.random.default_rng(0))

    @pytest.mark.parametrize("epsilon", [0.5, 1.0])
    def test_a_positive_epsilon_without_an_rng_rejected(self, epsilon):
        with pytest.raises(ValueError, match=rf"epsilon {epsilon} > 0 draws, so it needs an rng"):
            select_action(np.array([1.0, 2.0]), epsilon, None)
        assert select_action(np.array([1.0, 2.0]), 0.0, None) == 1

    def test_a_list_is_read_as_an_array(self):
        assert select_action([1.0, 5.0, -np.inf], 0.0, None) == 1

    @pytest.mark.parametrize("shape", [(2, 3), ()], ids=["2-D", "0-D"])
    def test_q_of_another_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"Q-values must be 1-D, one per node id, got shape {shape}")):
            select_action(np.zeros(shape), 0.0, None)

    def test_every_node_dead_rejected(self):
        with pytest.raises(ValueError, match="no alive nodes to act on"):
            select_action(np.full(3, -np.inf), 0.0, None)

    def test_all_nan_is_reported_as_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            select_action(np.full(3, np.nan), 0.0, np.random.default_rng(0))

    def test_epsilon_one_is_uniform(self):
        q = np.array([-np.inf, 1.0, 100.0, -np.inf, 3.0])
        rng = np.random.default_rng(2)
        counts = np.zeros(5)
        draws = 10_000
        for _ in range(draws):
            counts[select_action(q, 1.0, rng)] += 1
        assert counts[0] == counts[3] == 0
        expected = draws / 3
        chi2 = float(((counts[[1, 2, 4]] - expected) ** 2 / expected).sum())
        assert chi2 < 15.0  # df=2; 15 is far beyond the 99.9% quantile


class TestReplayBuffer:
    def make_transition(self, g, action=0):
        after = g.alive.copy()
        after[action] = False
        return Transition(g, g.alive.copy(), action, 1.0, after, False)

    def test_fifo_eviction(self):
        g = gen_er(6, 0.5, 0)
        buf = ReplayBuffer(capacity=3)
        for a in range(4):
            buf.push(self.make_transition(g, action=a))
        assert len(buf) == 3
        actions = {t.action for t in buf._items}
        assert actions == {1, 2, 3}

    def test_sample_needs_enough_items(self):
        buf = ReplayBuffer(capacity=5)
        buf.push(self.make_transition(gen_er(6, 0.5, 1)))
        with pytest.raises(ValueError):
            buf.sample(2, np.random.default_rng(0))

    @pytest.mark.parametrize("size", [0, -1])
    def test_sample_needs_a_positive_batch_size(self, size):
        buf = ReplayBuffer(capacity=5)
        buf.push(self.make_transition(gen_er(6, 0.5, 1)))
        with pytest.raises(ValueError, match=f"batch size must be >= 1, got {size}"):
            buf.sample(size, np.random.default_rng(0))

    @pytest.mark.parametrize("value", [2.5, "3", True, np.True_, 0, -1])
    @pytest.mark.parametrize("argument", ["capacity", "batch size"])
    def test_integer_arguments_are_checked(self, argument, value):
        message = f"must be >= 1, got {value}" if type(value) is int else f"must be an integer, got {value!r}"
        buf = ReplayBuffer(capacity=5)
        buf.push(self.make_transition(gen_er(6, 0.5, 1)))
        with pytest.raises(ValueError, match=re.escape(f"{argument} {message}")):
            if argument == "capacity":
                ReplayBuffer(value)
            else:
                buf.sample(value, np.random.default_rng(0))

    def test_sampling_roughly_uniform(self):
        g = gen_er(40, 0.2, 2)
        buf = ReplayBuffer(capacity=40)
        for a in range(20):
            buf.push(self.make_transition(g, action=a))
        rng = np.random.default_rng(3)
        counts = np.zeros(20)
        for _ in range(10_000):
            for t in buf.sample(2, rng):
                counts[t.action] += 1
        expected = 10_000 * 2 / 20
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 50.0  # df=19; 50 is past the 99.9% quantile

    def test_sample_without_replacement(self):
        g = gen_er(10, 0.4, 4)
        buf = ReplayBuffer(capacity=10)
        for a in range(5):
            buf.push(self.make_transition(g, action=a))
        batch = buf.sample(5, np.random.default_rng(5))
        assert len({t.action for t in batch}) == 5

    def test_a_pickled_buffer_comes_back_with_one_pattern_and_one_memo_per_state(self):
        buf = ReplayBuffer(capacity=8)
        for t in TestTdTargets().episode_transitions(41):
            buf.push(t)
            model(42).features(t.state())
            t.next_state()
        loaded = list(pickle.loads(pickle.dumps(buf))._items)
        views = [v for t in loaded for v in (t.graph, t.state(), t.next_state())]
        assert len({id(v.pattern) for v in views}) == 1
        assert all(loaded[k].next_state().memo is loaded[k + 1].state().memo for k in range(len(loaded) - 1))
        states = {v.alive.tobytes() for v in views}
        assert len({id(v.memo) for v in views}) == len(views[0].pattern.memos) == len(states) == 4
        for t, was in zip(loaded, buf._items):
            assert np.array_equal(model(42).features(t.state()), model(42).features(was.state()))

    def test_transition_validation(self):
        g = gen_er(6, 0.5, 6)
        dead = g.alive.copy()
        dead[0] = False
        with pytest.raises(ValueError, match="node 0 is already removed"):
            Transition(g, dead, 0, 1.0, dead, False)
        with pytest.raises(ValueError, match="negative"):
            Transition(g, g.alive.copy(), 0, -1.0, dead, False)
        with pytest.raises(ValueError, match=r"node id -1 outside id range 0\.\.5"):
            Transition(g, g.alive.copy(), -1, 1.0, dead, False)
        with pytest.raises(ValueError, match=r"node id 0\.0 is not an integer"):
            Transition(g, g.alive.copy(), 0.0, 1.0, dead, False)
        with pytest.raises(ValueError, match="not finite"):
            Transition(g, g.alive.copy(), 0, float("nan"), dead, False)
        with pytest.raises(ValueError, match="not finite"):
            Transition(g, g.alive.copy(), 0, float("inf"), dead, False)
        with pytest.raises(ValueError, match=r"shape \(5,\) does not match 6 nodes"):
            Transition(g, g.alive.copy(), 0, 1.0, dead[:5], False)
        with pytest.raises(ValueError, match=r"shape \(5,\) does not match 6 nodes"):
            Transition(g, g.alive[:5].copy(), 0, 1.0, dead, False)
        for terminal in ("no", 0, None):
            with pytest.raises(ValueError, match=f"terminal must be a bool, got {terminal!r}"):
                Transition(g, g.alive.copy(), 0, 1.0, dead, terminal)
        assert not Transition(g, g.alive.copy(), 0, 1.0, dead, np.False_).terminal

    def test_transition_masks_must_differ_by_the_action(self):
        g = gen_er(6, 0.5, 6)
        before = g.alive.copy()
        before[2] = False
        extra = before.copy()
        extra[[0, 4]] = False
        with pytest.raises(ValueError, match="alive_after is not alive_before without node 0: node 4 differs"):
            Transition(g, before, 0, 1.0, extra, False)
        revived = g.alive.copy()
        revived[0] = False
        with pytest.raises(ValueError, match="alive_after is not alive_before without node 0: node 2 differs"):
            Transition(g, before, 0, 1.0, revived, False)
        with pytest.raises(ValueError, match="alive_after is not alive_before without node 0: node 0 differs"):
            Transition(g, before, 0, 1.0, before.copy(), False)

    def test_transition_masks_are_read_only_copies(self):
        g = gen_er(6, 0.5, 6)
        before = g.alive.copy()
        after = before.copy()
        after[3] = False
        t = Transition(g, before, 3, 1.0, after, False)
        before[5] = after[5] = False
        after[3] = True
        expected_after = [True, True, True, False, True, True]
        assert t.state().alive.all() and t.next_state().alive.tolist() == expected_after
        assert t.alive_before.all() and t.alive_after.tolist() == expected_after
        for mask in (t.alive_before, t.alive_after):
            with pytest.raises(ValueError, match="read-only"):
                mask[0] = False

    def test_deep_copies_share_the_read_only_masks_and_views(self):
        g = gen_er(10, 0.4, 6)
        after = g.alive.copy()
        after[5] = False
        t = Transition(g, g.alive.copy(), 5, 1.0, after, False)
        state = t.state()
        c = copy.deepcopy(t)
        assert c.graph is g and c.alive_before is t.alive_before and c.alive_after is t.alive_after
        for mask in (c.alive_before, c.alive_after):
            with pytest.raises(ValueError, match="read-only"):
                mask[0] = False
        assert c.state() is state and c._views is not t._views
        c.next_state()
        assert "next_state" not in t._views
        batch = copy.deepcopy([t, t])
        assert batch[0] is batch[1]

    def test_non_terminal_transition_leaves_a_node_alive(self):
        g = gen_er(6, 0.5, 6)
        last = np.zeros(6, dtype=bool)
        last[3] = True
        none = np.zeros(6, dtype=bool)
        with pytest.raises(ValueError, match="removing node 3 leaves no node alive"):
            Transition(g, last, 3, 1.0, none, False)
        assert Transition(g, last, 3, 1.0, none, True).terminal


class TestTdTargets:
    def episode_transitions(self, seed):
        from critnet.graph import pairwise_connectivity

        rng = np.random.default_rng(seed)
        g = gen_er(8, 0.4, seed)
        f0 = pairwise_connectivity(g)
        state = g
        out = []
        for step in range(3):
            v = int(rng.choice(state.alive_ids()))
            nxt = remove_nodes(state, [v])
            r = f0 - pairwise_connectivity(nxt)
            out.append(Transition(g, state.alive.copy(), v, float(r), nxt.alive.copy(), step == 2))
            state = nxt
        return out

    def test_terminal_target_is_reward(self):
        batch = [t for t in self.episode_transitions(0) if t.terminal]
        ys = td_targets(batch, model(1), model(2), gamma=0.99)
        assert ys.tolist() == [t.reward for t in batch]

    def test_gamma_zero_gives_rewards(self):
        batch = self.episode_transitions(3)
        ys = td_targets(batch, model(4), model(5), gamma=0.0)
        assert np.allclose(ys, [t.reward for t in batch])

    @pytest.mark.parametrize("gamma", [-0.1, 1.5, np.nan])
    def test_gamma_outside_unit_interval_rejected(self, gamma):
        batch = self.episode_transitions(3)
        with pytest.raises(ValueError, match=rf"gamma must be in \[0, 1\], got {gamma}"):
            td_targets(batch, model(4), model(5), gamma=gamma)

    def test_a_nan_online_q_value_raises(self):
        batch = [t for t in self.episode_transitions(3) if not t.terminal]
        online = model(4)
        online.decoder.node_head.b2.data[0, 0] = np.nan
        with pytest.raises(ValueError, match="Q-values are NaN"):
            td_targets(batch, online, model(5), gamma=0.9)

    def test_a_target_value_that_is_not_finite_names_its_batch_index(self):
        batch = [t for t in self.episode_transitions(3) if not t.terminal]
        target = model(5)
        target.decoder.value_head.b2.data[0, 0] = np.inf
        with pytest.raises(ValueError, match="target network value inf for batch index 0 is not finite"):
            td_targets(batch, model(4), target, gamma=0.9)
        target.decoder.node_head.b2.data[0, 0] = np.nan
        with pytest.raises(ValueError, match="target network value nan for batch index 0"):
            td_targets(batch, model(4), target, gamma=0.9)

    def test_double_dqn_vs_vanilla_max_by_enumeration(self):
        online, target = model(6), model(7)
        disagreements = 0
        for seed in range(10):
            batch = [t for t in self.episode_transitions(seed) if not t.terminal]
            ys = td_targets(batch, online, target, gamma=0.9)
            for t, y in zip(batch, ys):
                nxt = t.next_state()
                q_on = online.q_full(nxt)
                q_tg = target.q_full(nxt)
                best = int(np.argmax(q_on))
                expect = t.reward + 0.9 * q_tg[best]
                vanilla = t.reward + 0.9 * q_tg.max()
                assert y == pytest.approx(expect, abs=1e-12)
                assert y <= vanilla + 1e-12
                # Branch on the target gap, not on argmax(q_on) != argmax(q_tg):
                # structurally equivalent nodes get Q-values that differ only by
                # rounding, so the two argmaxes can pick different members of one
                # tie. Measured here: tie gaps 1.8e-16, 5.6e-17, 2.8e-17 (seeds 1,
                # 8, 9); real gaps 1.1e-3, 5.4e-3, 1.6e-2 (seeds 3, 6, 7).
                if q_tg.max() - q_tg[best] > 1e-9:
                    disagreements += 1
                    assert y < vanilla
                else:
                    assert y == pytest.approx(vanilla, abs=1e-12)
        assert disagreements > 0  # the oracle actually exercised the difference


    def test_features_computed_once_per_next_state(self):
        # one matrix per next-state view, shared by online and target, and
        # none at all once the transitions' views hold their memo
        online, target = model(20), model(21)
        want = td_targets([t for t in self.episode_transitions(19) if not t.terminal], online, target, gamma=0.9)
        batch = [t for t in self.episode_transitions(19) if not t.terminal]
        spy = mock.Mock(wraps=decoder_module.aggregate_features)
        with mock.patch.object(decoder_module, "aggregate_features", spy):
            first = td_targets(batch, online, target, gamma=0.9)
            assert len(spy.call_args_list) == len(batch)
            assert all(c.args[0] is t.next_state() for c, t in zip(spy.call_args_list, batch))
            again = td_targets(batch, online, target, gamma=0.9)
        assert spy.call_count == len(batch)
        assert np.array_equal(first, want)
        assert np.array_equal(again, want)
        for t in batch:
            assert t.state() is t.state()
            assert t.next_state() is t.next_state()

    def test_feature_modes_that_differ_are_not_shared(self):
        batch = [t for t in self.episode_transitions(22) if not t.terminal]
        online, target = model(23), model(24, feature_mode="degree")
        ys = td_targets(batch, online, target, gamma=0.9)
        # each next state keeps one matrix per mode: the online model's and the target's
        assert all({"aggregate", "degree"} <= set(t.next_state().memo) for t in batch)
        np.testing.assert_allclose(ys, loop_td_targets(batch, online, target, 0.9), rtol=0, atol=1e-12)

    @staticmethod
    def mixed_batch(seed, size=8, terminal_every=0):
        """Transitions on BA, ER and WS graphs of different sizes, some several removals deep."""
        rng = np.random.default_rng(seed)
        batch = []
        for i in range(size):
            n = int(rng.integers(12, 60))
            g = (gen_ba(n, 2, seed + i), gen_er(n, 4 / (n - 1), seed + i), gen_ws(n, 4, 0.1, seed + i))[i % 3]
            before = remove_nodes(g, rng.choice(n, size=int(rng.integers(0, n // 3)), replace=False).tolist())
            a = int(rng.choice(before.alive_ids()))
            after = remove_nodes(before, [a])
            terminal = bool(terminal_every) and i % terminal_every == 0
            batch.append(Transition(g, before.alive, a, float(rng.integers(0, 20)), after.alive, terminal))
        return batch

    @pytest.mark.parametrize("dueling", [True, False], ids=["dueling", "plain"])
    @pytest.mark.parametrize("seed", [60, 61, 62])
    def test_matches_the_per_transition_oracle(self, dueling, seed):
        rng = np.random.default_rng(seed)
        online = Model(init_encoder_params(rng), init_decoder_params(rng, dueling=dueling))
        target = Model(init_encoder_params(rng), init_decoder_params(rng, dueling=dueling))
        batch = self.mixed_batch(seed, terminal_every=3)
        got = td_targets(batch, online, target, gamma=0.9)
        np.testing.assert_allclose(got, loop_td_targets(batch, online, target, 0.9), rtol=0, atol=1e-12)

    def test_two_forwards_per_batch_and_none_for_terminal_transitions(self):
        online, target = model(63), model(64)
        batch = self.mixed_batch(65, terminal_every=2)
        with mock.patch.object(Model, "q_full", autospec=True, side_effect=Model.q_full) as spy:
            td_targets(batch, online, target, gamma=0.9)
            assert spy.call_count == 2
            assert all(isinstance(c.args[1], GraphBatch) and len(c.args[1].graphs) == 4 for c in spy.call_args_list)
            terminal = [t for t in batch if t.terminal]
            assert td_targets(terminal, online, target, gamma=0.9).tolist() == [t.reward for t in terminal]
            assert spy.call_count == 2

    def test_one_state_batch_is_the_single_graph_path(self):
        online, target = model(66), model(67)
        batch = self.mixed_batch(68, size=1)
        assert np.array_equal(td_targets(batch, online, target, 0.9), loop_td_targets(batch, online, target, 0.9))

    def test_errors_name_the_batch_index_after_a_terminal_transition(self):
        batch = self.mixed_batch(69, size=4, terminal_every=4)  # index 0 is terminal
        target = model(70)
        target.decoder.value_head.b2.data[0, 0] = np.inf
        with pytest.raises(ValueError, match="target network value inf for batch index 1 is not finite"):
            td_targets(batch, model(71), target, gamma=0.9)


class TestGraphBatch:
    def test_pattern_is_the_residual_of_the_disjoint_union(self):
        parts = [remove_nodes(gen_ba(20, 2, 1), [0, 4]), gen_er(15, 0.2, 2), remove_nodes(gen_ws(12, 4, 0.2, 3), [11])]
        batch = GraphBatch.of(parts)
        shift = np.cumsum([0] + [g.n for g in parts])
        union = build_graph(int(shift[-1]), [(u + s, v + s) for g, s in zip(parts, shift) for u, v in g.edges])
        union = Graph(union.pattern, np.concatenate([g.alive for g in parts]))
        for got, want in zip(batch.pattern, residual(union)):
            assert np.array_equal(got, want)
        assert batch.offsets.tolist() == [0, 18, 33, 44]

    def test_one_state_is_its_residual(self):
        g = remove_nodes(gen_ba(20, 2, 4), [3])
        for got, want in zip(GraphBatch.of([g]).pattern, residual(g)):
            assert np.array_equal(got, want)

    def test_needs_a_state(self):
        with pytest.raises(ValueError, match="at least one state"):
            GraphBatch.of([])

    def test_a_state_with_no_alive_node_is_rejected(self):
        g = gen_er(6, 0.5, 5)
        batch = GraphBatch.of([g, remove_nodes(g, range(6))])
        with pytest.raises(ValueError, match="no alive nodes to score"):
            model(72).q_full(batch)

    @pytest.mark.parametrize("dueling", [True, False], ids=["dueling", "plain"])
    @pytest.mark.parametrize("seed", [73, 74, 75])
    def test_union_q_matches_per_graph_q_full(self, dueling, seed):
        # not bit for bit on OpenBLAS: a row's matrix-vector dot depends on its place in the stack, the
        # one-row value head runs as a vector product, and a stacked row may end its slot kernels in the tail
        rng = np.random.default_rng(seed)
        m = Model(init_encoder_params(rng), init_decoder_params(rng, dueling=dueling))
        states = [t.next_state() for t in TestTdTargets.mixed_batch(seed, size=7)]
        states.append(remove_nodes(gen_ba(300, 2, seed), [0]))  # rows past one BLOCK_ROWS block
        qs = m.q_full(GraphBatch.of(states))
        assert len(qs) == len(states)
        for g, q in zip(states, qs):
            want = m.q_full(g)
            assert np.array_equal(np.isneginf(q), ~g.alive)
            np.testing.assert_allclose(q[g.alive], want[g.alive], rtol=0, atol=1e-12)


class TestFeatureMemo:
    @pytest.mark.parametrize("mode", ["aggregate", "degree"])
    @given(g=corpus_graphs())
    def test_memo_is_read_only_and_equals_a_fresh_view(self, mode, g):
        m = model(27, feature_mode=mode)
        feats = m.features(g)
        assert not feats.flags.writeable
        assert m.features(g) is feats
        with pytest.raises(ValueError, match="read-only"):
            feats[0, 0] = 1.0
        # the same state, reached through each path, shares the matrix
        assert m.features(Graph(g.pattern, g.alive.copy())) is feats
        assert m.features(Graph(g.pattern, g.alive)) is feats
        # a separately built graph with the same edges and mask starts empty
        fresh = Graph(build_graph(g.n, g.edges).pattern, g.alive.copy())
        assert fresh.memo == {}
        compute = aggregate_features if mode == "aggregate" else degree_only_features
        assert np.array_equal(m.features(fresh), compute(g))
        assert np.array_equal(feats, compute(g))
        assert not m.features(fresh).flags.writeable

    def test_modes_memoise_separately_and_models_share(self):
        g = gen_er(12, 0.3, 28)
        agg = model(29).features(g)
        assert model(30).features(g) is agg
        deg = model(31, feature_mode="degree").features(g)
        assert set(g.memo) == {"aggregate", "degree", "residual"}
        assert np.array_equal(deg, degree_only_features(g))

    def test_new_views_do_not_inherit_the_memo(self):
        # views of another state start empty, and so do views of another graph
        g = gen_er(12, 0.3, 32)
        model(33).features(g)
        other = remove_nodes(g, [0])
        assert other.memo == {}
        assert gen_er(12, 0.3, 32).memo == {}
        assert model(33).features(other).shape == (11, 4)
        assert np.array_equal(model(33).features(other), aggregate_features(other))

    @given(g=corpus_graphs(), data=st.data())
    def test_views_of_one_state_share_one_memo(self, g, data):
        nodes = data.draw(st.lists(st.sampled_from(g.alive_ids().tolist()), min_size=1, max_size=3, unique=True))
        state = remove_nodes(g, nodes)
        feats = model(34).features(state)
        mask = state.alive.copy()
        views = [
            Graph(state.pattern, state.alive),
            Graph(g.pattern, mask),
            Graph(Graph(Graph(g.pattern, g.alive).pattern, mask).pattern, mask),
            remove_nodes(g, nodes[::-1]),
            remove_nodes(remove_nodes(g, nodes[-1:]), nodes[:-1]),
            remove_nodes(Graph(state.pattern, g.alive.copy()), nodes),
        ]
        for view in views:
            assert view.memo is state.memo
            assert model(34).features(view) is feats

    def test_entry_goes_with_the_last_view_of_its_state(self):
        g = gen_er(12, 0.3, 35)
        first = remove_nodes(g, [0])
        second = Graph(g.pattern, first.alive)
        model(36).features(first)
        key = first.alive.tobytes()
        assert g.pattern.memos[key] is first.memo
        del first
        assert "aggregate" in second.memo  # the state lives on in its other view
        del second
        assert key not in g.pattern.memos
        assert len(g.pattern.memos) == 1  # only g's own state is left
        assert remove_nodes(g, [0]).memo == {}


def test_episode_loop_computes_each_state_once():
    """Live views, transitions, td_targets and training forwards share each state's features."""
    g0 = gen_ba(16, 2, 37)
    online, target = model(38), model(39)
    rng = np.random.default_rng(40)
    buf = ReplayBuffer(capacity=16)
    needed = set()
    spy = mock.Mock(wraps=decoder_module.aggregate_features)
    with mock.patch.object(decoder_module, "aggregate_features", spy):
        for _ in range(2):
            g = g0
            for step in range(3):
                q = online.q_full(g)
                needed.add(g.alive.tobytes())
                a = select_action(q, 0.5, rng)
                g_next = remove_nodes(g, [a])
                buf.push(Transition(g0, g.alive.copy(), a, 1.0, g_next.alive.copy(), step == 2))
                batch = buf.sample(len(buf), rng)
                td_targets(batch, online, target, gamma=0.9)
                needed.update(t.next_state().alive.tobytes() for t in batch if not t.terminal)
                for t in batch:
                    online.q_output(t.state(), training=True, rng=rng)
                    needed.add(t.state().alive.tobytes())
                g = g_next
    assert spy.call_count == len(needed)
    assert len({c.args[0].alive.tobytes() for c in spy.call_args_list}) == len(needed)


class TestTapeMemory:
    """A train-mix batch: backward frees the tape it walks and keeps only the leaves' gradients."""

    def test_backward_frees_the_tape(self):
        rng = np.random.default_rng(50)
        m = model(51)
        graphs = [gen_ba(150, 2, 52), gen_er(150, 4 / 149, 53), gen_ws(150, 4, 0.1, 54)]
        states = [remove_nodes(graphs[i % 3], rng.choice(150, size=i, replace=False).tolist()) for i in range(8)]
        for s in states:
            m.features(s)  # memoised before tracing: the tape alone is measured
        actions = [int(rng.integers(s.n_alive())) for s in states]
        ys = rng.standard_normal((8, 1))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            preds = [ad.pick(m.q_output(s, training=True, rng=rng).q, a) for s, a in zip(states, actions)]
            loss = ad.mse_loss(ad.concat(preds, axis=0), ys)
            tape = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            loss.backward()
            held, peak = (x - base for x in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        # what the rules must keep per node row: the node head's 256-wide hidden layer and each attention
        # layer's output (64 wide in layer 1, 96 in layer 2); backward forms each layer's transform again
        rows = sum(s.n_alive() for s in states)
        assert tape > rows * (256 + 64 + 96) * 8  # a whole batch was traced
        # the chain of separate GAT primitives kept 12.1e6 here, and layers that kept their transforms 7.2e6
        assert tape < 6.0e6
        assert peak <= 1.25 * tape
        assert held < 2e6  # the parameters' gradients, with loss and preds still alive
        assert all(p.grad is not None for p in m.parameters())
        assert np.isfinite(loss.item()) and len(preds) == 8


class TestModel:
    @pytest.mark.parametrize(
        "dueling, seed, want",
        [(True, 61, [12, 70, 102, 74, 61]), (False, 63, [0, 13, 7, 3, 144])],
        ids=["dueling", "plain"],
    )
    def test_greedy_removals_are_unchanged(self, dueling, seed, want):
        # recorded with the power-loop eigenvector column and per-head weights: a change
        # that moves a removal shows here, not only in the benchmark's digests
        rng = np.random.default_rng(seed)
        m = Model(init_encoder_params(rng), init_decoder_params(rng, dueling=dueling))
        g = gen_ba(150, 2, seed + 1)
        removed = []
        for _ in range(5):
            removed.append(select_action(m.q_full(g), 0.0, None))
            g = remove_nodes(g, removed[-1:])
        assert removed == want

    def test_inference_head_never_holds_the_whole_hidden_layer(self):
        m = model(76)
        emb = ad.tensor(np.random.default_rng(77).standard_normal((2000, EMBEDDING_DIM)))
        with ad.no_grad():
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                q = q_from_embeddings(emb, m.decoder).q.data
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert peak < 2000 * 256 * 8 / 2  # half of one n x 256 array
        np.testing.assert_allclose(q, q_from_embeddings(emb, m.decoder).q.data, rtol=0, atol=1e-12)

    def test_the_inference_head_reads_the_block_size_when_it_runs(self):
        m = model(78)
        emb = ad.tensor(np.random.default_rng(79).standard_normal((2000, EMBEDDING_DIM)))
        with ad.no_grad(), mock.patch.object(graph_module, "BLOCK_ROWS", 16):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                q = q_from_embeddings(emb, m.decoder).q.data
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        # a block's hidden layer and its two ELU temporaries, 16 x 256 each: one block of 256 rows would exceed it
        assert peak < 3 * 16 * 256 * 8 + 64 * 1024
        np.testing.assert_allclose(q, q_from_embeddings(emb, m.decoder).q.data, rtol=0, atol=1e-12)

    def test_q_full_on_a_10000_node_graph(self):
        # dense attention would need 0.8 GB per n x n array here
        g = remove_nodes(gen_ba(10_000, 2, 25), [0, 1, 2])
        q = model(26).q_full(g)
        assert np.isneginf(q[:3]).all()
        assert np.isfinite(q[3:]).all()


    def test_q_full_marks_dead_nodes(self):
        m = model(8)
        g = remove_nodes(gen_er(10, 0.3, 9), [1, 4])
        q = m.q_full(g)
        assert np.isneginf(q[[1, 4]]).all()
        assert np.isfinite(np.delete(q, [1, 4])).all()

    def test_feature_mode_switch_changes_q(self):
        rng = np.random.default_rng(10)
        enc, dec = init_encoder_params(rng), init_decoder_params(rng)
        g = gen_er(12, 0.3, 11)
        full = Model(enc, dec, feature_mode="aggregate").q_full(g)
        degree = Model(enc, dec, feature_mode="degree").q_full(g)
        assert not np.allclose(full, degree)

    def test_invalid_modes_rejected(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError):
            Model(init_encoder_params(rng), init_decoder_params(rng), feature_mode="bogus")
        with pytest.raises(ValueError):
            Model(init_encoder_params(rng), init_decoder_params(rng), dropout_profile="bogus")

    @pytest.mark.parametrize("profile", ["reduced", "original"])
    def test_no_alive_nodes_rejected_before_encoding(self, profile, monkeypatch):
        g = gen_er(6, 0.5, 14)
        empty = remove_nodes(g, range(g.n))
        monkeypatch.setattr(decoder_module, "encode", mock.Mock(side_effect=AssertionError("encode ran")))
        for mode in ("aggregate", "degree"):
            m = model(13, dropout_profile=profile, feature_mode=mode)
            with pytest.raises(ValueError, match="no alive nodes to score"):
                m.q_full(empty)
            with pytest.raises(ValueError, match="no alive nodes to score"):
                m.q_output(empty, training=True, rng=np.random.default_rng(15))
            assert mode not in empty.memo

    @pytest.mark.parametrize("profile", ["reduced", "original"])
    def test_embed_uses_the_model_profile(self, profile):
        m = model(16, dropout_profile=profile)
        g = remove_nodes(gen_er(12, 0.3, 17), [2])
        batch = GraphBatch.of([g])
        got = m.embed(batch, training=True, rng=np.random.default_rng(18)).data
        want = encode(batch, m.features(g), m.encoder, True, np.random.default_rng(18), profile).data
        assert np.array_equal(got, want)
