"""The three benchmark workloads, the checks on their outputs and a BFS oracle.

Each workload is built from the public pieces of ``critnet`` (there is no
env, trainer or solver yet). It is called through module attributes such as
``graph.remove_nodes`` so that the tracer's patches see every call.

* ``solve-ba``     - greedy agent rollout (epsilon 0) on a BA graph: pure
                     inference, dominated by the dense attention encoder.
* ``train-mix``    - double-DQN updates over small BA/ER/WS graphs: backward,
                     Adam and TD targets on top of the forward pass.
* ``dismantle-er`` - adaptive highest-degree removal on an ER graph: no
                     encoder, dominated by the graph layer.

Every operation repeats the same deterministic work: one K-step solve of
the workload's instance, or one short training cycle from the state left by
set-up. ``op()`` does that work and returns what it produced with its
timings; ``check()`` then inspects the output, outside the timed work, and
returns the failed checks. Repeats must agree exactly. README.md gives the
reasons for each workload and its sizes.
"""
from __future__ import annotations

import copy
import hashlib
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from critnet import autodiff as ad
from critnet import decoder, encoder, features, graph

# --- oracle and checks ----------------------------------------------------


def oracle_adjacency(g) -> list[list[int]]:
    """Adjacency lists rebuilt from the edge list, independent of ``g.adj``."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def oracle_connectivity(adj: list[list[int]], alive: np.ndarray) -> int:
    """Connected node pairs among ``alive`` nodes, by breadth-first search."""
    seen = ~np.asarray(alive, dtype=bool)
    total = 0
    for root in range(len(adj)):
        if seen[root]:
            continue
        seen[root] = True
        queue, size = deque([root]), 0
        while queue:
            u = queue.popleft()
            size += 1
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        total += size * (size - 1) // 2
    return total


def check_removals(g0, removed: list[int], k: int, residual_alive: np.ndarray) -> list[str]:
    """K distinct ids, each alive when picked, and the residual mask they imply."""
    fails = []
    if len(removed) != k:
        fails.append(f"{len(removed)} removals for budget {k}")
    alive = g0.alive.copy()
    for a in removed:
        if not (0 <= a < g0.n) or not alive[a]:
            fails.append(f"removed node {a} was not alive when picked")
            break
        alive[a] = False
    if not np.array_equal(alive, residual_alive):
        fails.append("residual alive mask does not match the removal sequence")
    return fails


def check_objective(adj, g0, removed: list[int], objective: int) -> list[str]:
    alive = g0.alive.copy()
    alive[removed] = False
    expect = oracle_connectivity(adj, alive)
    if objective != expect:
        return [f"objective {objective} differs from the BFS oracle's {expect}"]
    return []


def check_q(q: np.ndarray, alive: np.ndarray) -> list[str]:
    """q_full must be finite on alive nodes and -inf on dead ones."""
    if q.shape != alive.shape:
        return [f"q has shape {q.shape}, expected {alive.shape}"]
    fails = []
    if not np.all(np.isfinite(q[alive])):
        fails.append("q_full is not finite on an alive node")
    if not np.all(q[~alive] == -np.inf):
        fails.append("q_full is not -inf on a dead node")
    return fails


def _sha(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
        h.update(b";")
    return h.hexdigest()[:16]


@dataclass
class OpOutput:
    """What one operation produced, with its timings.

    ``part_s`` splits the operation's timed work into parts that are the
    same work on every repeat: each step and the final objective of a solve,
    each update of a training cycle. ``units`` is 1 for a solve and the
    number of updates for a cycle. ``step_s`` times each removal decision.
    """

    part_s: list[float] = field(default_factory=list)
    units: int = 1
    step_s: list[float] = field(default_factory=list)
    data: dict = field(default_factory=dict)


BA_M_ATTACH = 2
ER_MEAN_DEGREE = 4.0

# --- greedy solves --------------------------------------------------------


class _GreedySolve:
    """K greedy removal steps on one fixed instance, repeated every operation.

    The objective is ``pairwise_connectivity`` of the residual graph,
    checked against the BFS oracle.
    """

    def __init__(self, seed: int, n: int, k: int):
        self.seed, self.n, self.k = seed, n, k
        self.first_removed: list[int] | None = None
        self.objective: int | None = None
        self._adj = None

    def op(self) -> OpOutput:
        out = OpOutput()
        g = self.graph
        removed, qs, pcs = [], [], []
        for _ in range(self.k):
            t0 = perf_counter()
            a, g_next, q, pc = self.step(g)
            out.step_s.append(perf_counter() - t0)
            removed.append(a)
            qs.append((q, g.alive))
            pcs.append(pc)
            g = g_next
        t0 = perf_counter()
        objective = pcs[-1] if pcs[-1] is not None else graph.pairwise_connectivity(g)
        out.part_s = out.step_s + [perf_counter() - t0]
        out.data = {"removed": removed, "qs": qs, "pcs": pcs, "objective": objective, "alive": g.alive}
        return out

    def check(self, out: OpOutput) -> list[str]:
        d = out.data
        if self._adj is None:
            self._adj = oracle_adjacency(self.graph)
        fails = check_removals(self.graph, d["removed"], self.k, d["alive"])
        fails += check_objective(self._adj, self.graph, d["removed"], d["objective"])
        for q, alive in d["qs"]:
            if q is not None:
                fails += check_q(q, alive)
        prev = self.pc0
        for pc in d["pcs"]:
            if pc is not None:
                if pc > prev:
                    fails.append(f"connectivity rose from {prev} to {pc} on a removal")
                prev = pc
        if self.first_removed is None:
            self.first_removed, self.objective = d["removed"], d["objective"]
        elif d["removed"] != self.first_removed:
            fails.append("a repeated solve chose a different removal sequence")
        return fails

    def objective_frac(self) -> float:
        return self.objective / self.pc0

    def digest(self) -> dict:
        return {"removals": _sha(self.first_removed or []), "losses": _sha([])}


class SolveBA(_GreedySolve):
    """Greedy (epsilon 0) agent rollout on a BA graph with untrained weights."""

    name = "solve-ba"

    def __init__(self, seed: int, n: int = 1000, k: int = 5):
        super().__init__(seed, n, k)

    def setup(self) -> None:
        self.graph = graph.gen_ba(self.n, BA_M_ATTACH, self.seed)
        rng = np.random.default_rng(self.seed)
        self.model = decoder.Model(encoder.init_encoder_params(rng), decoder.init_decoder_params(rng))
        self.rng = rng
        self.pc0 = graph.pairwise_connectivity(self.graph)

    def warm_up(self) -> None:
        self.model.q_full(graph.gen_ba(8, 2, 0))

    def step(self, g):
        q = self.model.q_full(g)
        a = decoder.select_action(q, 0.0, self.rng)
        return a, graph.remove_nodes(g, [a]), q, None


class DismantleER(_GreedySolve):
    """Adaptive highest-degree removal on an ER graph, lowest id on ties."""

    name = "dismantle-er"

    def __init__(self, seed: int, n: int = 3000, k: int = 300):
        super().__init__(seed, n, k)

    def setup(self) -> None:
        self.graph = graph.gen_er(self.n, ER_MEAN_DEGREE / (self.n - 1), self.seed)
        self.pc0 = graph.pairwise_connectivity(self.graph)

    def warm_up(self) -> None:
        self.step(graph.gen_er(8, 0.5, 0))

    def step(self, g):
        deg = features.degree_vector(g)
        a = int(g.alive_ids()[int(np.argmax(deg))])
        g_next = graph.remove_nodes(g, [a])
        return a, g_next, None, graph.pairwise_connectivity(g_next)


# --- double-DQN training ----------------------------------------------------

EPSILON = 0.2
GAMMA = 0.99
LEARNING_RATE = 1e-3
BATCH = 8
REPLAY_FILL = 32
REPLAY_CAPACITY = 1000
SYNC_EVERY = 10
EPISODE_BUDGET = 4
FAMILIES = ("ba", "er", "ws")


def _gen(family: str, n: int, seed: int):
    if family == "ba":
        return graph.gen_ba(n, BA_M_ATTACH, seed)
    if family == "er":
        return graph.gen_er(n, ER_MEAN_DEGREE / (n - 1), seed)
    return graph.gen_ws(n, 4, 0.1, seed)


class TrainMix:
    """Double-DQN training cycles; each update takes one epsilon-greedy env step.

    A cycle runs one episode on each graph of a pool, in order, starting
    from the state set-up left: weights, target, Adam moments, replay buffer
    and random stream. An episode removes ``EPISODE_BUDGET`` nodes, one per
    update. The pool's families and sizes are fixed, so every seed does the
    same mix of work; the seed only draws the graphs, the weights and the
    random choices. Repeated cycles must give the same losses and removals.
    """

    name = "train-mix"

    def __init__(self, seed: int, sizes: tuple[int, ...] = (150, 150, 150)):
        self.seed, self.sizes = seed, sizes
        self.first: tuple[list, list] | None = None
        self._adj: dict[int, list[list[int]]] = {}

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        graph_seeds = rng.integers(2**31, size=len(self.sizes))
        self.pool = [
            _gen(FAMILIES[i % len(FAMILIES)], n, int(s)) for i, (n, s) in enumerate(zip(self.sizes, graph_seeds))
        ]
        self.pc0 = [graph.pairwise_connectivity(g) for g in self.pool]
        online = decoder.Model(encoder.init_encoder_params(rng), decoder.init_decoder_params(rng))
        buffer = decoder.ReplayBuffer(REPLAY_CAPACITY)
        # random-action episodes until the buffer can serve batches
        episode = 0
        while len(buffer) < REPLAY_FILL:
            i = episode % len(self.pool)
            g, pc = self.pool[i], self.pc0[i]
            for step in range(EPISODE_BUDGET):
                alive = g.alive_ids()
                a = int(alive[rng.integers(len(alive))])
                g_next = graph.remove_nodes(g, [a])
                pc_next = graph.pairwise_connectivity(g_next)
                buffer.push(self._transition(i, g, a, pc - pc_next, g_next, step + 1 == EPISODE_BUDGET))
                g, pc = g_next, pc_next
            episode += 1
        self.start = (online, copy.deepcopy(online), ad.AdamState(lr=LEARNING_RATE), buffer, rng)

    def _transition(self, i, g, a, reward, g_next, terminal):
        return decoder.Transition(self.pool[i], g.alive.copy(), a, float(reward), g_next.alive.copy(), terminal)

    def warm_up(self) -> None:
        self.start[0].q_full(graph.gen_ba(8, 2, 0))

    def op(self) -> OpOutput:
        online, target, adam, buffer, rng = copy.deepcopy(self.start)
        params = online.parameters()
        out = OpOutput()
        updates, episodes = [], []
        for i, g0 in enumerate(self.pool):
            g, pc, removed = g0, self.pc0[i], []
            for step in range(EPISODE_BUDGET):
                t0 = perf_counter()
                q = online.q_full(g)
                a = decoder.select_action(q, EPSILON, rng)
                g_next = graph.remove_nodes(g, [a])
                pc_next = graph.pairwise_connectivity(g_next)
                out.step_s.append(perf_counter() - t0)
                buffer.push(self._transition(i, g, a, pc - pc_next, g_next, step + 1 == EPISODE_BUDGET))

                batch = buffer.sample(BATCH, rng)
                ys = decoder.td_targets(batch, online, target, GAMMA)
                preds = []
                for t in batch:
                    state = t.state()
                    qo = online.q_output(state, training=True, rng=rng)
                    preds.append(ad.pick(qo.q, int(np.searchsorted(state.alive_ids(), t.action))))
                loss = ad.mse_loss(ad.concat(preds, axis=0), ys.reshape(-1, 1))
                loss.backward()
                ad.adam_step(params, adam)
                ad.zero_grads(params)
                if adam.step % SYNC_EVERY == 0:
                    for tp, p in zip(target.parameters(), params):
                        tp.data = p.data.copy()
                out.part_s.append(perf_counter() - t0)

                finite = all(np.all(np.isfinite(p.data)) for p in params)
                updates.append({"q": q, "alive": g.alive, "ys": ys, "loss": loss.item(), "finite": finite})
                removed.append(a)
                g, pc = g_next, pc_next
            episodes.append((i, removed, pc, g.alive))
        out.units = len(updates)
        out.data = {"updates": updates, "episodes": episodes}
        return out

    def check(self, out: OpOutput) -> list[str]:
        fails = []
        for u in out.data["updates"]:
            fails += check_q(u["q"], u["alive"])
            if not np.all(np.isfinite(u["ys"])):
                fails.append("a TD target is not finite")
            if not np.isfinite(u["loss"]):
                fails.append("the loss is not finite")
            if not u["finite"]:
                fails.append("a parameter is not finite after adam_step")
        for i, removed, objective, alive in out.data["episodes"]:
            g0 = self.pool[i]
            if i not in self._adj:
                self._adj[i] = oracle_adjacency(g0)
            fails += check_removals(g0, removed, EPISODE_BUDGET, alive)
            fails += check_objective(self._adj[i], g0, removed, objective)
        losses = [u["loss"] for u in out.data["updates"]]
        episodes = [(i, removed, objective) for i, removed, objective, _ in out.data["episodes"]]
        if self.first is None:
            self.first = (losses, episodes)
        elif (losses, episodes) != self.first:
            fails.append("a repeated training cycle gave different losses or removals")
        return fails

    def objective_frac(self) -> float:
        _, episodes = self.first
        return sum(obj for _, _, obj in episodes) / sum(self.pc0[i] for i, _, _ in episodes)

    def digest(self) -> dict:
        losses, episodes = self.first or ([], [])
        return {
            "removals": _sha([removed for _, removed, _ in episodes]),
            "losses": _sha([x.hex() for x in losses]),
        }


WORKLOADS = {w.name: w for w in (SolveBA, TrainMix, DismantleER)}
