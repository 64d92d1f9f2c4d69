import contextlib
import functools
import importlib.util
import os
import sys
from pathlib import Path
from typing import NamedTuple
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


@functools.cache
def perfbench_module(name: str):
    """``perfbench/<name>.py`` loaded by path (perfbench is not a package), once per session.

    The module sits in ``sys.modules`` only while its file runs, where a
    dataclass looks it up. Left there, it would also join the local source
    files whose literals Hypothesis mixes into the examples it draws, and
    so change the examples of every property test in the session.
    """
    key = f"perfbench_{name}"
    spec = importlib.util.spec_from_file_location(key, Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[key] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[key]
    return module


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



# --- draw-by-draw generator oracles -------------------------------------------


def loop_gen_ba(n, m_attach, seed):
    """``gen_ba`` as one scalar ``integers`` call per draw, arrival by arrival."""
    from critnet.graph import build_graph

    rng = np.random.default_rng(seed)
    edges = [(0, i) for i in range(1, m_attach + 1)]
    # repeated-node list makes degree-proportional sampling O(1)
    repeated = []
    for u, v in edges:
        repeated.extend((u, v))
    for v in range(m_attach + 1, n):
        targets = set()
        while len(targets) < m_attach:
            targets.add(repeated[rng.integers(len(repeated))])
        for u in sorted(targets):
            edges.append((u, v))
            repeated.extend((u, v))
    return build_graph(n, edges)


def pairwise_gen_er(n, p_edge, seed):
    """``gen_er`` as one scalar ``random`` call per pair (u, v), u < v, in lexicographic order."""
    from critnet.graph import build_graph

    rng = np.random.default_rng(seed)
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p_edge])

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


def transpose(a):
    """``a.T`` as a tape op; only the dense oracle and the gradient tests need it."""
    from critnet import autodiff as ad

    def backward(g):
        a._adopt(g.T)

    return ad._make(a.data.T.copy(), (a,), backward)


def dense_adjacency(g):
    """Dense symmetric 0/1 adjacency of the alive subgraph, rows in alive-id order."""
    position = np.cumsum(g.alive) - 1
    a = np.zeros((g.n_alive(), g.n_alive()))
    for u, v in g.edges:
        if g.alive[u] and g.alive[v]:
            a[position[u], position[v]] = a[position[v], position[u]] = 1.0
    return a


def dense_attention_mask(batch):
    """A batch's closed-neighborhood masks as one dense 0/1 matrix: each state's adjacency, block-diagonally, plus the identity."""
    bounds = np.cumsum([0] + [g.n_alive() for g in batch.graphs])
    mask = np.zeros((bounds[-1], bounds[-1]))
    for g, lo, hi in zip(batch.graphs, bounds, bounds[1:]):
        mask[lo:hi, lo:hi] = dense_adjacency(g)
    np.fill_diagonal(mask, 1.0)
    return mask


def cut(a, index):
    """``a.data[index]`` for a basic (slice) index, as a tape op that routes the gradient back into place."""
    from critnet import autodiff as ad

    def backward(g):
        full = np.zeros_like(a.data)
        full[index] = g
        a._adopt(full)

    return ad._make(a.data[index].copy(), (a,), backward)


class HeadParams(NamedTuple):
    w: object
    a_src: object
    a_dst: object


def layer_heads(hw, layer):
    """Each head's tensors cut out of the layer's by tape ops: its n x d columns of ``hw`` and d x 1 attention vectors."""
    d = layer.a_src.shape[1]
    return [
        (
            cut(hw, (slice(None), slice(h * d, (h + 1) * d))),
            transpose(cut(layer.a_src, (slice(h, h + 1), slice(None)))),
            transpose(cut(layer.a_dst, (slice(h, h + 1), slice(None)))),
        )
        for h in range(layer.a_src.shape[0])
    ]


def layer_transform(x, hw, layer):
    """The transform ``encode`` formed for a layer, as a tape op: ``matmul`` on a recorded input, else ``hw`` itself."""
    from critnet import autodiff as ad

    return ad.tensor(hw) if x is None else ad.matmul(x, layer.w)


def dense_gat_layer(x, hw, mask, layer, dropout_rate, rng=None):
    """The encoder's attention layer over dense n x n logits, masks and softmaxes."""
    from critnet import autodiff as ad

    hw = layer_transform(x, hw, layer)
    n = hw.shape[0]
    ones_row = ad.tensor(np.ones((1, n)))
    ones_col = ad.tensor(np.ones((n, 1)))
    outputs = []
    for head_hw, a_src, a_dst in layer_heads(hw, layer):
        src = ad.matmul(head_hw, a_src)
        dst = ad.matmul(head_hw, a_dst)
        logits = ad.add(ad.matmul(src, ones_row), ad.matmul(ones_col, transpose(dst)))
        att = ad.row_softmax_masked(ad.leaky_relu(logits, ad.ATTENTION_SLOPE), mask)
        att = ad.dropout(att, dropout_rate, rng)
        outputs.append(ad.matmul(att, head_hw))
    return elu(ad.concat(outputs, axis=1))


@contextlib.contextmanager
def dense_encoder():
    """Within the context, ``encode`` (and every model) uses the dense attention layer."""
    from critnet import encoder

    with mock.patch.object(encoder, "attention_mask", dense_attention_mask), mock.patch.object(
        encoder, "gat_layer", dense_gat_layer
    ):
        yield


# --- the chain of separate GAT primitives ----------------------------------------
#
# The layer as it ran before ``attention`` and ``aggregate`` (below) fused
# it: every stage its own tape op, so the tape also held the gathered
# logits, their sum, the leaky-ReLU output and the sparse product.


def head_dots(x, a):
    """Block h of ``x``'s columns (n x H*d) dotted with row h of ``a`` (H x d): one product with a block-diagonal matrix."""
    from critnet import autodiff as ad

    heads, d = a.shape
    diagonal = (np.arange(heads * d), np.repeat(np.arange(heads), d))
    blocks = np.zeros((heads * d, heads))
    blocks[diagonal] = a.data.reshape(-1)

    def backward(g):
        x._adopt(g @ blocks.T)
        a._adopt((x.data.T @ g)[diagonal].reshape(heads, d))

    return ad._make(x.data @ blocks, (x, a), backward)


def gather_rows(a, pattern, columns=False):
    """Row ``rows[e]`` of ``a`` (``cols[e]`` with ``columns``) for every entry ``e``."""
    from critnet import autodiff as ad

    index = pattern.cols if columns else pattern.rows

    def backward(g):
        a._adopt(pattern.row_sums(np.take(g, pattern.transpose, axis=0) if columns else g))

    return ad._make(np.take(a.data, index, axis=0), (a,), backward)


def segment_softmax(logits, pattern):
    """Softmax of per-entry logits (E x H) over the entries of each row, per column."""
    from critnet import autodiff as ad

    x = logits.data
    p = np.take(pattern.row_max(x), pattern.rows, axis=0)
    np.subtract(x, p, out=p)
    np.exp(p, out=p)
    p /= np.take(pattern.row_sums(p), pattern.rows, axis=0)

    def backward(g):
        gp = np.take(pattern.row_sums(g * p), pattern.rows, axis=0)
        np.subtract(g, gp, out=gp)
        gp *= p
        logits._adopt(gp)

    return ad._make(p, (logits,), backward)


def spmm(values, pattern, x):
    """H sparse n x n matrices, one per column of ``values`` (E x H), times column blocks of ``x`` (n x H*d).

    It runs on the whole-slot product below and on one-shot entry dots, so the chain also checks the blocked kernels.
    """
    from critnet import autodiff as ad

    heads, w = values.shape[1], values.data

    def backward(g):
        values._adopt(entry_dots_at_once(pattern, g, x.data, heads))
        x._adopt(slot_weighted_row_sums(pattern, np.take(w, pattern.transpose, axis=0), g))

    return ad._make(slot_weighted_row_sums(pattern, w, x.data), (values, x), backward)


def elu(a):
    """ELU as a tape op of its own, with the slope read from its output."""
    from critnet import autodiff as ad

    out = np.minimum(a.data, 0.0)
    np.expm1(out, out=out)
    np.maximum(a.data, out, out=out)

    def backward(g):
        a._adopt(g * ad._elu_slope(out))

    return ad._make(out, (a,), backward)


def chain_attention(hw, a_src, a_dst, pattern, slope):
    """``attention`` as the chain it replaced: dots, gathers, a sum, a leaky ReLU and a softmax."""
    from critnet import autodiff as ad

    src = gather_rows(head_dots(hw, a_src), pattern)
    dst = gather_rows(head_dots(hw, a_dst), pattern, columns=True)
    return segment_softmax(ad.leaky_relu(ad.add(src, dst), slope), pattern)


def chain_aggregate(values, pattern, x):
    """``aggregate`` as the chain it replaced: a sparse product, then an ELU."""
    return elu(spmm(values, pattern, x))


def chain_gat_layer(x, hw, mask, layer, dropout_rate, rng=None):
    """The encoder's attention layer on the chain of separate primitives."""
    from critnet import autodiff as ad

    hw = layer_transform(x, hw, layer)
    att = chain_attention(hw, layer.a_src, layer.a_dst, mask, ad.ATTENTION_SLOPE)
    return chain_aggregate(ad.dropout(att, dropout_rate, rng), mask, hw)


# --- the two fused GAT primitives ------------------------------------------------
#
# ``autodiff.attention_layer`` as it ran before it became one primitive: a
# ``matmul`` for the transform, then ``attention`` -> ``dropout`` ->
# ``aggregate``, so the tape also held the transform and the dropped values.


def attention(hw, a_src, a_dst, pattern, slope):
    """Attention of H heads over the entries of each row of ``pattern``: E x H, from ``hw`` (n x H*d).

    Its rule keeps the result, a boolean "score > 0" mask, ``hw`` and the two block-diagonal matrices.
    """
    from critnet import autodiff as ad

    heads, d = a_src.shape
    diagonal = (np.arange(heads * d), np.repeat(np.arange(heads), d))
    b_src, b_dst = np.zeros((2, heads * d, heads))
    b_src[diagonal], b_dst[diagonal] = a_src.data.reshape(-1), a_dst.data.reshape(-1)
    p = np.take(hw.data @ b_src, pattern.rows, axis=0)
    p += np.take(hw.data @ b_dst, pattern.cols, axis=0)
    np.maximum(p, p * slope, out=p)
    positive = p > 0 if ad._records((hw, a_src, a_dst)) else None
    np.subtract(p, np.take(pattern.row_max(p), pattern.rows, axis=0), out=p)
    np.exp(p, out=p)
    p /= np.take(pattern.row_sums(p), pattern.rows, axis=0)

    def backward(g):
        gp = np.take(pattern.row_sums(g * p), pattern.rows, axis=0)
        np.subtract(g, gp, out=gp)
        gp *= p
        g = gp * slope
        np.copyto(g, gp, where=positive)
        sums = pattern.row_sums(np.concatenate((g, np.take(g, pattern.transpose, axis=0)), axis=1))
        for a, blocks, part in ((a_src, b_src, sums[:, :heads]), (a_dst, b_dst, sums[:, heads:])):
            part = np.ascontiguousarray(part)
            hw._adopt(part @ blocks.T)
            a._adopt((hw.data.T @ part)[diagonal].reshape(heads, d))

    return ad._make(p, (hw, a_src, a_dst), backward)


def aggregate(values, pattern, x):
    """ELU of H sparse n x n matrices, one per column of ``values`` (E x H), times column blocks of ``x`` (n x H*d).

    Its rule keeps the result, ``values`` and ``x``.
    """
    from critnet import autodiff as ad

    heads = values.shape[1]
    out = pattern.weighted_row_sums(values.data, x.data)
    ad._elu_in_place(out)

    def backward(g):
        slope = ad._elu_slope(out)
        g = np.multiply(g, slope, out=slope)
        values._adopt(pattern.entry_dots(g, x.data, heads))
        x._adopt(pattern.weighted_row_sums(np.take(values.data, pattern.transpose, axis=0), g))

    return ad._make(out, (values, x), backward)


# --- whole-slot and one-shot kernel oracles ------------------------------------
#
# ``SparsePattern.weighted_row_sums`` as it ran before the row blocks: each
# slot in one pass over all its rows, through two n x H*d buffers. Every value
# comes from the same numpy operations in the same order as the blocked
# kernel, so the two agree bit for bit. ``SparsePattern.entry_dots`` against
# one product over all E entries: BLAS sums each dot's d terms in one order
# for every block size when H is 4 or 8, and may sum a few in another order
# for an odd H.


def inverse(perm):
    """The inverse of a permutation: ``inverse(perm)[perm[i]] == i``."""
    out = np.empty_like(perm)
    out[perm] = np.arange(len(perm))
    return out


def slot_weighted_row_sums(pattern, w, x):
    lay, heads = pattern.layout, w.shape[1]
    x3 = x.reshape(pattern.n, heads, -1)
    w_slot = np.take(w, lay.perm, axis=0)[:, :, None]
    cols = np.take(pattern.cols, lay.perm)
    acc, part = np.empty(x3.shape), np.empty(x3.shape)
    for slot, (c, o) in enumerate(zip(lay.counts, lay.offsets)):  # slot 0 holds every row
        dst = part[:c] if slot else acc
        np.take(x3, cols[o : o + c], axis=0, out=dst, mode="clip")
        dst *= w_slot[o : o + c]
        if slot:
            acc[:c] += dst
    if len(lay.tail_starts):
        tail = np.take(x3, cols[lay.head :], axis=0)
        tail *= w_slot[lay.head :]
        acc[: len(lay.tail_starts)] += np.add.reduceat(tail, lay.tail_starts, axis=0)
    order = np.take(pattern.rows, lay.perm[: pattern.n])  # the row of rank r is rows[perm[r]]
    return np.take(acc, inverse(order), axis=0, out=part, mode="clip").reshape(x.shape)


def entry_dots_at_once(pattern, a, b, heads):
    e, d = len(pattern.rows), a.shape[1] // heads
    return (a[pattern.rows] * b[pattern.cols]).reshape(e, heads, d) @ np.ones(d)


def with_layout(pattern, cutoff):
    """A fresh copy of ``pattern`` whose slot layout is built under a ``TAIL_ROWS`` of ``cutoff``."""
    from critnet import graph

    fresh = graph.SparsePattern(*pattern)
    with mock.patch.object(graph, "TAIL_ROWS", cutoff):
        fresh.layout
    return fresh


# --- row-segment kernel oracles ------------------------------------------------
#
# The CSR kernels the slot layout replaced: one ``reduceat`` over each row's
# segment, and a sparse product run head by head on E x d gathers.


def reduceat_row_sums(pattern, values):
    return np.add.reduceat(values, pattern.indptr[:-1], axis=0)


def reduceat_row_max(pattern, values):
    return np.maximum.reduceat(values, pattern.indptr[:-1], axis=0)


def where_elu(a):
    """ELU in its two-branch form (it evaluates ``expm1`` everywhere)."""
    with np.errstate(over="ignore"):
        return np.where(a > 0, a, np.expm1(a))


def per_head_spmm(values, pattern, x):
    """``spmm`` as a tape op of E x d gathers and ``reduceat`` row sums, one head at a time."""
    from critnet import autodiff as ad

    heads = values.shape[1]
    d = x.shape[1] // heads
    blocks = [slice(k * d, (k + 1) * d) for k in range(heads)]
    w = values.data
    x_cols = x.data[pattern.cols]
    out = np.empty(x.shape)
    for k, b in enumerate(blocks):
        out[:, b] = reduceat_row_sums(pattern, w[:, k : k + 1] * x_cols[:, b])

    def backward(g):
        g_rows = g[pattern.rows]
        values._adopt((g_rows * x_cols).reshape(len(w), heads, d).sum(axis=2))
        w_t, g_cols = w[pattern.transpose], g[pattern.cols]
        gx = np.empty(x.shape)
        for k, b in enumerate(blocks):
            gx[:, b] = reduceat_row_sums(pattern, w_t[:, k : k + 1] * g_cols[:, b])
        x._adopt(gx)

    return ad._make(out, (values, x), backward)


@st.composite
def sparse_patterns(draw):
    """A residual closed-neighbourhood pattern that reaches the slot kernels' edge cases.

    A corpus graph large enough to fill the first slots, a star whose hub
    row runs past the slot cut-off, an edgeless graph, one node, or a graph
    with isolated rows.
    """
    from critnet.graph import TAIL_ROWS, build_graph, gen_er, residual

    kind = draw(st.sampled_from(["corpus", "star", "edgeless", "one-node", "isolated"]))
    if kind == "corpus":
        g = draw(corpus_graphs(max_n=4 * TAIL_ROWS))
    elif kind == "star":
        g = star_graph(draw(st.integers(TAIL_ROWS + 2, 4 * TAIL_ROWS)))
    elif kind == "edgeless":
        g = build_graph(draw(st.integers(1, 2 * TAIL_ROWS)), [])
    elif kind == "one-node":
        g = build_graph(1, [])
    else:
        n = draw(st.integers(TAIL_ROWS, 3 * TAIL_ROWS))
        g = gen_er(n, 1.0 / n, draw(st.integers(0, 2**31 - 1)))  # about a third of the rows hold only a self-loop
    return residual(g)


# --- per-head attention oracle ------------------------------------------------


def per_head_gat_layer(x, hw, mask, layer, dropout_rate, rng=None):
    """The encoder's attention layer run one head at a time, each with its own E x 1 chain and ``reduceat`` product."""
    from critnet import autodiff as ad

    if mask.n != hw.shape[0]:
        raise ValueError(f"attention pattern of {mask.n} rows does not match {hw.shape[0]} nodes")
    hw = layer_transform(x, hw, layer)
    outputs = []
    for head_hw, a_src, a_dst in layer_heads(hw, layer):
        src = gather_rows(ad.matmul(head_hw, a_src), mask)
        dst = gather_rows(ad.matmul(head_hw, a_dst), mask, columns=True)
        att = segment_softmax(ad.leaky_relu(ad.add(src, dst), ad.ATTENTION_SLOPE), mask)
        att = ad.dropout(att, dropout_rate, rng)
        outputs.append(per_head_spmm(att, mask, head_hw))
    return elu(ad.concat(outputs, axis=1))


def block_diag(parts):
    """The 2-D ``parts`` along the diagonal of one zero-filled matrix, as a tape op."""
    from critnet import autodiff as ad

    if not parts or any(p.data.ndim != 2 for p in parts):
        raise ValueError(f"block_diag needs 2-D parts, got shapes {[p.shape for p in parts]}")
    rows = np.cumsum([0] + [p.shape[0] for p in parts])
    cols = np.cumsum([0] + [p.shape[1] for p in parts])
    blocks = [(slice(r0, r1), slice(c0, c1)) for r0, r1, c0, c1 in zip(rows, rows[1:], cols, cols[1:])]
    out = np.zeros((rows[-1], cols[-1]))
    for p, b in zip(parts, blocks):
        out[b] = p.data

    def backward(g):
        for p, b in zip(parts, blocks):
            p._adopt(g[b])

    return ad._make(out, tuple(parts), backward)


def per_head_leaves(layer):
    """Copies of each head's parameters as leaves of their own: ``w`` in x d, ``a_src`` and ``a_dst`` d x 1."""
    from critnet import autodiff as ad

    d = layer.a_src.shape[1]
    return [
        HeadParams(
            ad.tensor(layer.w.data[:, h * d : (h + 1) * d].copy(), requires_grad=True),
            ad.tensor(layer.a_src.data[h : h + 1].T.copy(), requires_grad=True),
            ad.tensor(layer.a_dst.data[h : h + 1].T.copy(), requires_grad=True),
        )
        for h in range(layer.a_src.shape[0])
    ]


def concat_gat_layer(h, mask, heads, dropout_rate, rng=None):
    """The attention layer on per-head leaves: one product with their concatenated transforms, and block-diagonal attention vectors."""
    from critnet import autodiff as ad

    hw = ad.matmul(h, ad.concat([head.w for head in heads], axis=1))
    src = gather_rows(ad.matmul(hw, block_diag([head.a_src for head in heads])), mask)
    dst = gather_rows(ad.matmul(hw, block_diag([head.a_dst for head in heads])), mask, columns=True)
    att = segment_softmax(ad.leaky_relu(ad.add(src, dst), ad.ATTENTION_SLOPE), mask)
    att = ad.dropout(att, dropout_rate, rng)
    return elu(spmm(att, mask, hw))


@contextlib.contextmanager
def per_head_encoder():
    """Within the context, ``encode`` (and every model) runs its attention heads one by one."""
    from critnet import encoder

    with mock.patch.object(encoder, "gat_layer", per_head_gat_layer):
        yield


# --- eigenvector and PageRank oracles ------------------------------------------


def eigh_eigenvector(g, cluster=1e-9):
    """The uniform vector projected onto the top eigenspace of the alive adjacency, L2-normalised.

    Eigenvalues from ``np.linalg.eigh`` within ``cluster`` of the largest
    span the top eigenspace. With one top eigenvalue this is its
    eigenvector, signed non-negative; with a repeated one (equal
    components) it is where an iteration from the uniform vector ends.
    """
    a = dense_adjacency(g)
    n = len(a)
    if n == 0:
        return np.zeros(0)
    w, v = np.linalg.eigh(a)
    top = v[:, w >= w[-1] - cluster]
    x = top @ (top.T @ np.full(n, 1.0 / np.sqrt(n)))
    return x / np.linalg.norm(x)


def loop_pagerank(g, damping=0.85, tol=1e-8, max_iter=200):
    """``pagerank``'s power loop with the step it had first: a masked divide and the dangling mass added on every step."""
    from critnet.graph import residual

    sub = residual(g)
    n = sub.n
    if n == 0:
        return np.zeros(0), True
    deg = np.diff(sub.indptr) - 1.0
    dangling = deg == 0
    x = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        y = np.divide(x, deg, out=np.zeros(n), where=~dangling)
        walk = np.bincount(sub.rows, weights=y[sub.cols], minlength=n) - y
        nxt = damping * (walk + x[dangling].sum() / n) + (1.0 - damping) / n
        if np.abs(nxt - x).sum() < tol:
            return nxt, True
        x = nxt
    return x, False


# --- per-transition TD targets -------------------------------------------------


def loop_td_targets(batch, online, target, gamma):
    """``td_targets`` one transition at a time: an online and a target ``q_full`` on each non-terminal next state."""
    from critnet.decoder import select_action

    ys = np.empty(len(batch))
    for i, t in enumerate(batch):
        if t.terminal:
            ys[i] = t.reward
            continue
        nxt = t.next_state()
        best = select_action(online.q_full(nxt), 0.0, None)
        value = target.q_full(nxt)[best]
        if not np.isfinite(value):
            raise ValueError(f"target network value {value} for batch index {i} is not finite")
        ys[i] = t.reward + gamma * value
    return ys


# --- gradient checking and degree centrality ---------------------------------
#
# Only tests use these; the library computes degree centrality inside
# ``aggregate_features``.


def grad_check(scalar_fn, params, eps=1e-5, sample=None, rng=None, floor=1e-12):
    """Max relative error between tape gradients and central differences.

    ``scalar_fn`` must rebuild its forward pass from the current parameter
    values on every call. With ``sample`` set, only that many coordinates
    per parameter are perturbed (chosen by ``rng``), which keeps the check
    affordable on large parameter sets. A gradient smaller than ``floor``
    is compared as if it were ``floor``: the error becomes absolute there.
    """
    from critnet import autodiff as ad

    ad.zero_grads(params)
    scalar_fn().backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]
    worst = 0.0
    for p, an in zip(params, analytic):
        flat = p.data.reshape(-1)
        an_flat = an.reshape(-1)
        coords = range(flat.size)
        if sample is not None and flat.size > sample:
            gen = rng if rng is not None else np.random.default_rng(0)
            coords = gen.choice(flat.size, size=sample, replace=False)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + eps
            with ad.no_grad():
                f_plus = scalar_fn().item()
            flat[i] = orig - eps
            with ad.no_grad():
                f_minus = scalar_fn().item()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * eps)
            a = an_flat[i]
            worst = max(worst, abs(fd - a) / max(abs(fd), abs(a), floor))
    return worst


def degree_centrality(g):
    """Degree divided by (n_alive - 1); zeros when fewer than two nodes remain."""
    from critnet.features import degree_vector

    deg = degree_vector(g)
    return deg / (len(deg) - 1) if len(deg) > 1 else np.zeros(len(deg))
