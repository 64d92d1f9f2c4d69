import contextlib
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def data_dir() -> Path:
    return Path(os.environ.get("CRITNET_DATA_DIR", Path(__file__).resolve().parents[1] / "data"))


def benchmark_file(name: str) -> Path:
    """Locate a real benchmark edge list, or skip the calling test.

    The sandbox this package was developed in has no route to the public
    benchmark hosts, so the files cannot be vendored; drop them into data/
    (or point CRITNET_DATA_DIR at them) to activate the gated tests.
    """
    path = data_dir() / name
    if not path.exists():
        pytest.skip(
            f"benchmark file {name} not present; place it at {path} "
            "(or set CRITNET_DATA_DIR) to run this check"
        )
    return path


# --- shared graph builders and oracles -------------------------------------


def path_graph(k):
    from critnet.graph import build_graph

    return build_graph(k, [(i, i + 1) for i in range(k - 1)])


def complete_graph(k):
    from critnet.graph import build_graph

    return build_graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def cycle_graph(k):
    from critnet.graph import build_graph

    return build_graph(k, [(i, (i + 1) % k) for i in range(k)])


def star_graph(k):
    """Star on k nodes, node 0 at the center."""
    from critnet.graph import build_graph

    return build_graph(k, [(0, i) for i in range(1, k)])


def random_graph(rng, max_n=30):
    """One of ER/BA/WS with small random parameters (test corpus mix)."""
    from critnet.graph import gen_ba, gen_er, gen_ws

    kind = rng.integers(3)
    seed = int(rng.integers(2**31))
    if kind == 0:
        n = int(rng.integers(4, max_n + 1))
        return gen_er(n, float(rng.uniform(0.05, 0.4)), seed)
    if kind == 1:
        n = int(rng.integers(5, max_n + 1))
        return gen_ba(n, int(rng.integers(1, 4)), seed)
    n = int(rng.integers(6, max_n + 1))
    return gen_ws(n, 4, float(rng.uniform(0.0, 0.5)), seed)


@st.composite
def corpus_graphs(draw, max_n=40):
    """A seeded BA, ER or WS graph, full or with up to half its nodes removed."""
    from critnet.graph import gen_ba, gen_er, gen_ws, remove_nodes

    kind = draw(st.sampled_from(["ba", "er", "ws"]))
    n = draw(st.integers(6, max_n))
    seed = draw(st.integers(0, 2**31 - 1))
    if kind == "ba":
        g = gen_ba(n, draw(st.integers(1, 3)), seed)
    elif kind == "er":
        g = gen_er(n, draw(st.floats(0.0, 0.4)), seed)
    else:
        g = gen_ws(n, 4, draw(st.floats(0.0, 0.5)), seed)
    return remove_nodes(g, draw(st.lists(st.integers(0, n - 1), max_size=n // 2, unique=True)))


def neighbor_lists(g):
    """Adjacency lists rebuilt from ``g.edges`` alone, ignoring the alive mask."""
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs_components(g):
    """Independent BFS labeling used as the union-find oracle."""
    from collections import deque

    adj = neighbor_lists(g)
    seen = set()
    groups = []
    for s in range(g.n):
        if not g.alive[s] or s in seen:
            continue
        comp = []
        queue = deque([s])
        seen.add(s)
        while queue:
            v = queue.popleft()
            comp.append(v)
            for u in adj[v]:
                if g.alive[u] and u not in seen:
                    seen.add(u)
                    queue.append(u)
        groups.append(frozenset(comp))
    return set(groups)


def brute_pairwise(g, removed=()):
    """Count unordered reachable pairs by BFS from every alive node."""
    from collections import deque

    dead = set(removed)
    alive = [v for v in range(g.n) if g.alive[v] and v not in dead]
    alive_set = set(alive)
    adj = neighbor_lists(g)
    total = 0
    for s in alive:
        reach = {s}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if u in alive_set and u not in reach:
                    reach.add(u)
                    queue.append(u)
        total += len(reach) - 1
    return total // 2


# --- dense attention oracle -------------------------------------------------


def dense_adjacency(g):
    """Dense symmetric 0/1 adjacency of the alive subgraph, rows in alive-id order."""
    position = np.cumsum(g.alive) - 1
    a = np.zeros((g.n_alive(), g.n_alive()))
    for u, v in g.edges:
        if g.alive[u] and g.alive[v]:
            a[position[u], position[v]] = a[position[v], position[u]] = 1.0
    return a


def dense_attention_mask(g):
    """Closed-neighborhood mask as a dense 0/1 matrix: adjacency plus the identity."""
    mask = dense_adjacency(g)
    np.fill_diagonal(mask, 1.0)
    return mask


def dense_gat_layer(h, mask, layer, dropout_rate, training, rng=None):
    """The encoder's attention layer over dense n x n logits, masks and softmaxes."""
    from critnet import autodiff as ad
    from critnet.encoder import ATTENTION_SLOPE

    n = h.shape[0]
    ones_row = ad.tensor(np.ones((1, n)))
    ones_col = ad.tensor(np.ones((n, 1)))
    outputs = []
    for head in layer.heads:
        hw = ad.matmul(h, head.w)
        src = ad.matmul(hw, head.a_src)
        dst = ad.matmul(hw, head.a_dst)
        logits = ad.add(ad.matmul(src, ones_row), ad.matmul(ones_col, ad.transpose(dst)))
        att = ad.row_softmax_masked(ad.leaky_relu(logits, ATTENTION_SLOPE), mask)
        att = ad.dropout(att, dropout_rate, rng, training)
        outputs.append(ad.matmul(att, hw))
    return ad.elu(ad.concat(outputs, axis=1))


@contextlib.contextmanager
def dense_encoder():
    """Within the context, ``encode`` (and every model) uses the dense attention layer."""
    from critnet import encoder

    with mock.patch.object(encoder, "attention_mask", dense_attention_mask), mock.patch.object(
        encoder, "gat_layer", dense_gat_layer
    ):
        yield
