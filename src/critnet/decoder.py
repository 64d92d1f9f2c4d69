"""Q-value head, action selection, replay buffer, and TD targets.

The dueling head decomposes Q into a state value V (a two-layer MLP on the
mean-pooled graph embedding) plus a per-node advantage A (the same MLP shape
applied to every node row), re-centered so the advantages average to zero
over the currently alive action set:

    Q(a) = V + A(a) - mean_over_alive(A)

The per-node stream alone (``value_head=None``) gives the plain,
non-dueling Q head used by the ablation. Targets are double-DQN: the online
network picks the argmax action in the next state, the target network
scores it.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from critnet import autodiff as ad
from critnet.encoder import DROPOUT_PROFILES, EMBEDDING_DIM, EncoderParams, encode
from critnet.features import aggregate_features, degree_only_features
from critnet.graph import Graph, with_alive_mask

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

    @property
    def dueling(self) -> bool:
        return self.value_head is not None

    def parameters(self) -> list[ad.Tensor]:
        out = self.node_head.parameters()
        if self.value_head is not None:
            out += self.value_head.parameters()
        return out

    def named_parameters(self) -> list[tuple[str, ad.Tensor]]:
        out = [(f"decoder.node_head.{k}", t) for k, t in zip(("w1", "b1", "w2", "b2"), self.node_head.parameters())]
        if self.value_head is not None:
            out += [(f"decoder.value_head.{k}", t) for k, t in zip(("w1", "b1", "w2", "b2"), self.value_head.parameters())]
        return out


def _init_mlp(rng: np.random.Generator, in_dim: int, hidden: int) -> MlpParams:
    def glorot(rows, cols):
        limit = np.sqrt(6.0 / (rows + cols))
        return ad.tensor(rng.uniform(-limit, limit, size=(rows, cols)), requires_grad=True)

    return MlpParams(
        w1=glorot(in_dim, hidden),
        b1=ad.tensor(np.zeros((1, hidden)), requires_grad=True),
        w2=glorot(hidden, 1),
        b2=ad.tensor(np.zeros((1, 1)), requires_grad=True),
    )


def init_decoder_params(rng: np.random.Generator, dueling: bool = True) -> DecoderParams:
    node = _init_mlp(rng, EMBEDDING_DIM, Q_HIDDEN_DIM)
    value = _init_mlp(rng, EMBEDDING_DIM, Q_HIDDEN_DIM) if dueling else None
    return DecoderParams(node_head=node, value_head=value)


def _mlp(x: ad.Tensor, p: MlpParams) -> ad.Tensor:
    h = ad.elu(ad.add_bias(ad.matmul(x, p.w1), p.b1))
    return ad.add_bias(ad.matmul(h, p.w2), p.b2)


class QOutput(NamedTuple):
    q: ad.Tensor  # (n_alive, 1), one row per alive node in id order
    value: ad.Tensor | None
    advantage: ad.Tensor | None


def q_from_embeddings(emb: ad.Tensor, params: DecoderParams) -> QOutput:
    """Differentiable Q over the alive rows of an embedding matrix."""
    if emb.shape[0] == 0:
        raise ValueError("no alive nodes to score")
    adv = _mlp(emb, params.node_head)
    if params.value_head is None:
        return QOutput(q=adv, value=None, advantage=None)
    value = _mlp(ad.mean_rows(emb), params.value_head)
    center = ad.add(value, ad.scale(ad.mean_rows(adv), -1.0))
    return QOutput(q=ad.add_bias(adv, center), value=value, advantage=adv)


def select_action(q: np.ndarray, epsilon: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy over alive nodes.

    Bit-equal maxima go to the lowest id, but structurally equivalent nodes can
    get Q-values that differ by rounding, so which of them is picked is not
    promised.
    """
    alive = np.flatnonzero(np.isfinite(q))
    if len(alive) == 0:
        raise ValueError("no alive nodes to act on")
    if epsilon > 0 and rng.random() < epsilon:
        return int(alive[rng.integers(len(alive))])
    return int(np.argmax(q))


@dataclass
class Transition:
    """One environment step, with residual states stored as alive masks."""

    graph: Graph
    alive_before: np.ndarray
    action: int
    reward: float
    alive_after: np.ndarray
    terminal: bool

    def __post_init__(self):
        if not self.alive_before[self.action]:
            raise ValueError(f"action {self.action} was not alive in its state")
        if self.reward < 0:
            raise ValueError("rewards are connectivity drops and cannot be negative")

    def state(self) -> Graph:
        return with_alive_mask(self.graph, self.alive_before)

    def next_state(self) -> Graph:
        return with_alive_mask(self.graph, self.alive_after)


class ReplayBuffer:
    """Bounded FIFO with uniform without-replacement sampling."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._items: deque[Transition] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._items)

    def push(self, t: Transition) -> None:
        self._items.append(t)

    def sample(self, batch_size: int, rng: np.random.Generator) -> list[Transition]:
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
        if self.feature_mode == "degree":
            return degree_only_features(g)
        return aggregate_features(g)

    def embed(self, g: Graph, training: bool = False, rng: np.random.Generator | None = None) -> ad.Tensor:
        if g.n_alive() == 0:
            raise ValueError("no alive nodes to score")
        return encode(g, self.features(g), self.encoder, training, rng, self.dropout_profile)

    def q_output(self, g: Graph, training: bool = False, rng: np.random.Generator | None = None) -> QOutput:
        return q_from_embeddings(self.embed(g, training, rng), self.decoder)

    def q_full(self, g: Graph) -> np.ndarray:
        """Inference-mode Q over all node ids; dead nodes are -inf."""
        with ad.no_grad():
            out = self.q_output(g)
        q = np.full(g.n, -np.inf)
        q[g.alive_ids()] = out.q.data[:, 0]
        return q


def td_targets(batch: list[Transition], online: Model, target: Model, gamma: float) -> np.ndarray:
    """Double-DQN regression targets, one per transition.

    y = r + gamma * Q_target(s', argmax_a Q_online(s', a)), or y = r for a
    terminal transition. This is <= the vanilla target r + gamma * max_a
    Q_target(s', a), with equality when the two argmaxes agree or tie.
    """
    ys = np.empty(len(batch))
    for i, t in enumerate(batch):
        if t.terminal:
            ys[i] = t.reward
            continue
        nxt = t.next_state()
        best = int(np.argmax(online.q_full(nxt)))
        ys[i] = t.reward + gamma * target.q_full(nxt)[best]
    return ys
