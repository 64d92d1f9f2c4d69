"""Q-value head, action selection, replay buffer, and TD targets.

The dueling head decomposes Q into a state value V (a two-layer MLP on the
mean-pooled graph embedding) plus a per-node advantage A (the same MLP shape
applied to every node row), re-centered so the advantages average to zero
over the currently alive action set:

    Q(a) = V + A(a) - mean_over_alive(A)

The per-node stream alone (``value_head=None``) gives the plain,
non-dueling Q head used by the ablation. Every forward runs over a
``GraphBatch`` (a single graph is a batch of one): attention stays within
a state, and the dueling head pools and centres each state's rows on their
own. Targets are double-DQN: the online network picks the argmax action in
the next state, the target network scores it. ``td_targets`` scores every
non-terminal next state of a batch in one forward per network. Inference
runs the node head ``graph.BLOCK_ROWS`` rows at a time, so its n x 256
hidden layer never exists whole.

Input features are memoised on the residual state they describe
(``Model.features`` keeps them in ``Graph.memo``, next to its CSR). The memo
belongs to the state, not to the view: the graph's pattern holds it weakly
for every live view under one alive mask. So the live episode view,
``t[k].next_state()`` and ``t[k + 1].state()`` share one feature matrix per
feature mode for as long as any of them is alive.
"""
from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from critnet import autodiff as ad, graph
from critnet.encoder import DROPOUT_PROFILES, EMBEDDING_DIM, EncoderParams, encode
from critnet.features import aggregate_features, degree_only_features
from critnet.graph import Graph, GraphBatch, _size, remove_nodes, scatter_alive

Q_HIDDEN_DIM = 256

FEATURE_MODES = ("aggregate", "degree")


@dataclass
class MlpParams:
    """Two fully connected layers with an ELU between them."""

    w1: ad.Tensor
    b1: ad.Tensor
    w2: ad.Tensor
    b2: ad.Tensor

    def parameters(self) -> list[ad.Tensor]:
        return [self.w1, self.b1, self.w2, self.b2]


@dataclass
class DecoderParams:
    node_head: MlpParams
    value_head: MlpParams | None

    def parameters(self) -> list[ad.Tensor]:
        return [t for _, t in self.named_parameters()]

    def named_parameters(self) -> list[tuple[str, ad.Tensor]]:
        out = [(f"decoder.node_head.{k}", t) for k, t in zip(("w1", "b1", "w2", "b2"), self.node_head.parameters())]
        if self.value_head is not None:
            out += [(f"decoder.value_head.{k}", t) for k, t in zip(("w1", "b1", "w2", "b2"), self.value_head.parameters())]
        return out


def _init_mlp(rng: np.random.Generator, in_dim: int, hidden: int) -> MlpParams:
    return MlpParams(
        w1=ad.glorot(rng, in_dim, hidden),
        b1=ad.tensor(np.zeros((1, hidden)), requires_grad=True),
        w2=ad.glorot(rng, hidden, 1),
        b2=ad.tensor(np.zeros((1, 1)), requires_grad=True),
    )


def init_decoder_params(rng: np.random.Generator, dueling: bool = True) -> DecoderParams:
    node = _init_mlp(rng, EMBEDDING_DIM, Q_HIDDEN_DIM)
    value = _init_mlp(rng, EMBEDDING_DIM, Q_HIDDEN_DIM) if dueling else None
    return DecoderParams(node_head=node, value_head=value)


def _mlp(x: ad.Tensor, p: MlpParams) -> ad.Tensor:
    if ad.grad_enabled():
        return ad.add_bias(ad.matmul(ad.dense_elu(x, p.w1, p.b1), p.w2), p.b2)
    # nothing is recorded, so the hidden layer can go a block of rows at a time
    out = np.empty((x.shape[0], p.w2.shape[1]))
    for start in range(0, len(out), graph.BLOCK_ROWS):
        rows = slice(start, start + graph.BLOCK_ROWS)
        out[rows] = ad.dense_elu(ad.tensor(x.data[rows]), p.w1, p.b1).data @ p.w2.data
    return ad.add_bias(ad.tensor(out), p.b2)


class QOutput(NamedTuple):
    q: ad.Tensor  # (n_alive, 1), one row per alive node in id order
    value: ad.Tensor | None
    advantage: ad.Tensor | None


def q_from_embeddings(emb: ad.Tensor, params: DecoderParams, offsets=None) -> QOutput:
    """Differentiable Q over the alive rows of an embedding matrix.

    With a ``GraphBatch``'s row ``offsets``, the rows are several states'
    nodes: the dueling head pools and centres each state's rows on their
    own, and ``value`` has one row per state.
    """
    if emb.shape[0] == 0:
        raise ValueError("no alive nodes to score")
    adv = _mlp(emb, params.node_head)
    if params.value_head is None:
        return QOutput(q=adv, value=None, advantage=None)
    value = _mlp(ad.mean_rows(emb, offsets), params.value_head)
    center = ad.add(value, ad.scale(ad.mean_rows(adv, offsets), -1.0))
    return QOutput(q=ad.add_bias(adv, center, offsets), value=value, advantage=adv)


def select_action(q: np.ndarray, epsilon: float, rng: np.random.Generator | None) -> int:
    """Epsilon-greedy over alive nodes.

    ``q`` holds one value per node id, as a 1-D array. Dead nodes are -inf
    and never chosen; a ``q`` of another shape, a NaN or +inf anywhere in
    ``q``, an ``epsilon`` outside [0, 1], or an ``epsilon`` > 0 without
    ``rng`` raises.
    Bit-equal maxima go to the lowest id, but structurally equivalent nodes can
    get Q-values that differ by rounding, so which of them is picked is not
    promised.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    if epsilon > 0 and rng is None:
        raise ValueError(f"epsilon {epsilon} > 0 draws, so it needs an rng")
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 1:
        raise ValueError(f"Q-values must be 1-D, one per node id, got shape {q.shape}")
    for name, bad in (("NaN", np.isnan(q)), ("+inf", q == np.inf)):
        if bad.any():
            raise ValueError(f"Q-values are {name} at node(s) {np.flatnonzero(bad)[:5].tolist()}")
    alive = np.flatnonzero(np.isfinite(q))
    if len(alive) == 0:
        raise ValueError("no alive nodes to act on")
    if epsilon > 0 and rng.random() < epsilon:
        return int(alive[rng.integers(len(alive))])
    return int(np.argmax(q))


@dataclass
class Transition:
    """One environment step, with residual states stored as alive masks.

    ``alive_after`` is ``alive_before`` with only ``action`` cleared, as the
    graph layer checks; ``terminal`` is a ``bool`` or ``np.bool_``, and a
    non-terminal step leaves some node alive. Both masks are kept as
    read-only copies. ``state()`` and ``next_state()`` build their view,
    ``Graph(graph.pattern, mask)``, on first call and keep it, so each
    state's memo, features included, lives at least as long as the
    transition sits in a replay buffer. A deep copy shares the graph, the
    read-only masks and the views built so far, in a dict of its own.
    """

    graph: Graph
    alive_before: np.ndarray
    action: int
    reward: float
    alive_after: np.ndarray
    terminal: bool
    _views: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.terminal, (bool, np.bool_)):
            raise ValueError(f"terminal must be a bool, got {self.terminal!r}")
        if not np.isfinite(self.reward):
            raise ValueError(f"reward {self.reward} is not finite")
        if self.reward < 0:
            raise ValueError("rewards are connectivity drops and cannot be negative")
        before = Graph(self.graph.pattern, self.alive_before)
        after = remove_nodes(before, [self.action])
        differs = np.flatnonzero(after.alive != Graph(self.graph.pattern, self.alive_after).alive)
        if len(differs):
            raise ValueError(f"alive_after is not alive_before without node {self.action}: node {differs[0]} differs")
        if not self.terminal and not after.alive.any():
            raise ValueError(f"non-terminal transition: removing node {self.action} leaves no node alive")
        self.alive_before, self.alive_after = before.alive, after.alive

    def __deepcopy__(self, memo) -> "Transition":
        # the graph and both masks are read-only: a copy shares them, and starts from the same views
        clone = copy.copy(self)
        clone._views = dict(self._views)
        memo[id(self)] = clone
        return clone

    def _view(self, key: str, alive: np.ndarray) -> Graph:
        if key not in self._views:
            self._views[key] = Graph(self.graph.pattern, alive)
        return self._views[key]

    def state(self) -> Graph:
        return self._view("state", self.alive_before)

    def next_state(self) -> Graph:
        return self._view("next_state", self.alive_after)


class ReplayBuffer:
    """Bounded FIFO with uniform without-replacement sampling."""

    def __init__(self, capacity: int):
        self.capacity = _size(capacity, "capacity", 1)
        self._items: deque[Transition] = deque(maxlen=self.capacity)

    def __len__(self) -> int:
        return len(self._items)

    def push(self, t: Transition) -> None:
        self._items.append(t)

    def sample(self, batch_size: int, rng: np.random.Generator) -> list[Transition]:
        batch_size = _size(batch_size, "batch size", 1)
        if batch_size > len(self._items):
            raise ValueError(f"buffer holds {len(self._items)} < batch size {batch_size}")
        idx = rng.choice(len(self._items), size=batch_size, replace=False)
        return [self._items[int(i)] for i in idx]


@dataclass
class Model:
    """Encoder + decoder parameters plus the input/dropout mode switches."""

    encoder: EncoderParams
    decoder: DecoderParams
    feature_mode: str = "aggregate"
    dropout_profile: str = "reduced"

    def __post_init__(self):
        if self.feature_mode not in FEATURE_MODES:
            raise ValueError(f"unknown feature mode {self.feature_mode!r}")
        if self.dropout_profile not in DROPOUT_PROFILES:
            raise ValueError(f"unknown dropout profile {self.dropout_profile!r}")

    def parameters(self) -> list[ad.Tensor]:
        return self.encoder.parameters() + self.decoder.parameters()

    def features(self, g: Graph) -> np.ndarray:
        """Read-only ``n_alive x 4`` input matrix of ``g``, memoised on its state per feature mode.

        Models with the same ``feature_mode`` share one matrix per state. A
        state with no alive node raises ``ValueError``, before any encoding.
        """
        feats = g.memo.get(self.feature_mode)
        if feats is None:
            feats = degree_only_features(g) if self.feature_mode == "degree" else aggregate_features(g)
            feats.flags.writeable = False
            g.memo[self.feature_mode] = feats
        return feats

    def embed(self, batch: GraphBatch, training: bool = False, rng: np.random.Generator | None = None) -> ad.Tensor:
        features = np.concatenate([self.features(s) for s in batch.graphs])
        return encode(batch, features, self.encoder, training, rng, self.dropout_profile)

    def q_output(self, g: Graph | GraphBatch, training: bool = False, rng: np.random.Generator | None = None) -> QOutput:
        batch = g if isinstance(g, GraphBatch) else GraphBatch.of((g,))
        return q_from_embeddings(self.embed(batch, training, rng), self.decoder, batch.offsets)

    def q_full(self, g: Graph | GraphBatch) -> np.ndarray | list[np.ndarray]:
        """Inference-mode Q over all node ids; dead nodes are -inf.

        A ``GraphBatch`` gives one such array per state, from one forward
        over all of them.
        """
        batch = g if isinstance(g, GraphBatch) else GraphBatch.of((g,))
        with ad.no_grad():
            q = self.q_output(batch).q.data[:, 0]
        out = [scatter_alive(s, q[lo:hi]) for s, lo, hi in zip(batch.graphs, batch.offsets, batch.offsets[1:])]
        return out if batch is g else out[0]


def td_targets(batch: list[Transition], online: Model, target: Model, gamma: float) -> np.ndarray:
    """Double-DQN regression targets, one per transition.

    y = r + gamma * Q_target(s', argmax_a Q_online(s', a)), or y = r for a
    terminal transition. This is <= the vanilla target r + gamma * max_a
    Q_target(s', a), with equality when the two argmaxes agree or tie.
    The non-terminal next states go into one ``GraphBatch``, and each
    network scores them all in one ``q_full``; a batch of terminal
    transitions runs no forward. Next-state features come from the state's
    memo, so each is computed once per feature mode while any view of that
    state is alive: the buffered transition's own, the next transition's
    ``state()``, or the live episode view. A ``gamma`` outside [0, 1]
    raises, so does an online Q-value that ``select_action`` rejects (NaN
    or +inf), and so does a target value that is not finite, naming its
    batch index.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    ys = np.array([t.reward for t in batch], dtype=np.float64)
    live = [i for i, t in enumerate(batch) if not t.terminal]
    if not live:
        return ys
    states = GraphBatch.of(batch[i].next_state() for i in live)
    for i, q_online, q_target in zip(live, online.q_full(states), target.q_full(states)):
        value = q_target[select_action(q_online, 0.0, None)]
        if not np.isfinite(value):
            raise ValueError(f"target network value {value} for batch index {i} is not finite")
        ys[i] += gamma * value
    return ys
