"""Undirected simple graphs with incremental node removal.

A graph stores one sparse structure: the CSR pattern of its closed
neighbourhoods (every edge in both directions plus one self-loop per node),
built once by ``build_graph`` and shared, read-only, by every residual view.
The residual graph of a partially-dismantled network is that pattern plus a
per-node ``alive`` mask; removing nodes returns a new view with bits
cleared, so evaluation never mutates the original instance. ``residual`` is
the one place that applies the mask: it filters and renumbers the stored
pattern into the alive subgraph's CSR, which features, the encoder and the
objective all read. The module also holds edge-list ingestion, the
synthetic generators used for training data, connectivity analytics, and
the exact pairwise-connectivity objective.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, NamedTuple

import numpy as np


class GraphParseError(ValueError):
    """Raised for malformed or empty edge-list input."""


class SparsePattern(NamedTuple):
    """Sparsity pattern of a structurally symmetric n x n matrix, in CSR order.

    Entry ``e`` sits at ``(rows[e], cols[e])``; entries are sorted by row,
    then column, and row ``i`` owns entries ``indptr[i]:indptr[i + 1]``. Every
    row holds at least one entry. ``transpose[e]`` is the entry at
    ``(cols[e], rows[e])``: since the transposed matrix has the same pattern,
    ``values[transpose]`` lists its entries in the same CSR order.
    """

    indptr: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    transpose: np.ndarray

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    def row_sums(self, values: np.ndarray) -> np.ndarray:
        """Sum of per-entry ``values`` (one leading row per entry) over each row."""
        return np.add.reduceat(values, self.indptr[:-1], axis=0)


def symmetric_pattern(rows: np.ndarray, cols: np.ndarray, n: int) -> SparsePattern:
    """CSR pattern of the n x n matrix with entries at ``(rows[e], cols[e])``.

    Both sorts use the key ``row * n + col``, which orders in-range entries
    by row, then column.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    order = np.argsort(rows * n + cols)
    rows, cols = rows[order], cols[order]
    counts = np.bincount(rows, minlength=n)
    if len(counts) != n or not counts.all():
        raise ValueError(f"every row of an {n}-row sparse pattern needs an entry in range")
    if ((np.diff(rows) == 0) & (np.diff(cols) == 0)).any():
        raise ValueError("sparse pattern has a duplicate entry")
    transpose = np.argsort(cols * n + rows)
    if not (np.array_equal(rows[transpose], cols) and np.array_equal(cols[transpose], rows)):
        raise ValueError("sparse pattern is not symmetric")
    return SparsePattern(np.concatenate(([0], np.cumsum(counts))), rows, cols, transpose)


@dataclass
class Graph:
    """Undirected simple graph with dense 0-based node ids.

    ``pattern`` is the closed-neighbourhood CSR of the whole graph; its
    arrays are read-only and shared by every residual view. Only the
    ``alive`` mask changes between views (and always via copy, never in
    place on a shared instance).
    """

    n: int
    pattern: SparsePattern = field(repr=False)
    alive: np.ndarray = field(repr=False)

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Every edge once as ``(u, v)`` with ``u < v``, in CSR order."""
        upper = self.pattern.rows < self.pattern.cols
        return list(zip(self.pattern.rows[upper].tolist(), self.pattern.cols[upper].tolist()))

    @property
    def m(self) -> int:
        return (len(self.pattern.rows) - self.n) // 2

    def n_alive(self) -> int:
        return int(self.alive.sum())

    def alive_ids(self) -> np.ndarray:
        return np.flatnonzero(self.alive)

    def copy(self) -> "Graph":
        return Graph(self.n, self.pattern, self.alive.copy())


@dataclass
class Solution:
    """Ordered removal set plus the residual objective it achieves."""

    removed: list[int]
    objective: int


class ComponentPartition(NamedTuple):
    """Component labels over alive nodes; ``sizes`` sorted descending.

    ``component_id[v]`` is -1 for dead nodes and otherwise indexes into
    ``sizes`` (label 0 = largest component).
    """

    component_id: np.ndarray
    sizes: list[int]


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Assemble a Graph from an edge list and build its closed-neighbourhood CSR.

    Self-loops, ids outside ``0..n-1`` and duplicate edges (in either
    orientation) raise ``ValueError`` naming the edge.
    """
    edge_list = [(int(u), int(v)) for u, v in edges]
    seen: set[tuple[int, int]] = set()
    for u, v in edge_list:
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) outside id range 0..{n - 1}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"duplicate edge ({u}, {v})")
        seen.add(key)
    e = np.fromiter(chain.from_iterable(edge_list), dtype=np.int64, count=2 * len(edge_list)).reshape(-1, 2)
    loops = np.arange(n)
    pattern = symmetric_pattern(
        np.concatenate((e[:, 0], e[:, 1], loops)), np.concatenate((e[:, 1], e[:, 0], loops)), n
    )
    for a in pattern:
        a.flags.writeable = False
    return Graph(n=n, pattern=pattern, alive=np.ones(n, dtype=bool))


def residual(g: Graph) -> SparsePattern:
    """Closed-neighbourhood CSR of the alive subgraph, rows in alive-id order.

    Keeps the stored entries whose two ends are alive and renumbers them to
    positions among the alive ids. The kept entries stay in CSR order and
    the kept set is symmetric, so nothing is sorted or validated again.
    """
    p, alive = g.pattern, g.alive
    keep = alive[p.rows] & alive[p.cols]
    position = np.cumsum(alive) - 1
    rows = position[p.rows[keep]]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=g.n_alive()))))
    transpose = (np.cumsum(keep) - 1)[p.transpose[keep]]
    return SparsePattern(indptr, rows, position[p.cols[keep]], transpose)


class ParseResult(NamedTuple):
    graph: Graph
    dropped: int


def parse_edge_list(text: str) -> ParseResult:
    """Parse whitespace-separated ``u v`` lines into a Graph.

    Lines starting with ``#`` or ``%`` (and blank lines) are skipped. Input
    ids may be arbitrary non-negative integers; they are remapped to dense
    0-based ids in order of first appearance among *kept* edges. Duplicate
    edges and self-loops are dropped and counted in ``dropped``.
    """
    remap: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    dropped = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("%"):
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise GraphParseError(f"line {lineno}: expected two integer tokens, got {line!r}")
        try:
            a, b = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: non-integer token in {line!r}") from None
        if a < 0 or b < 0:
            raise GraphParseError(f"line {lineno}: negative node id in {line!r}")
        if a == b:
            dropped += 1
            continue
        key = (a, b) if a < b else (b, a)
        if key in seen:
            dropped += 1
            continue
        seen.add(key)
        for x in (a, b):
            if x not in remap:
                remap[x] = len(remap)
        edges.append((remap[a], remap[b]))
    if not edges:
        raise GraphParseError("empty graph: no edges found")
    return ParseResult(build_graph(len(remap), edges), dropped)


def format_edge_list(g: Graph) -> str:
    """Serialize to the one-edge-per-line text format parse_edge_list reads."""
    return "\n".join(f"{u} {v}" for u, v in g.edges) + "\n"


class _UnionFind:
    """Array-based union-find with path halving and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


def connected_components(g: Graph) -> ComponentPartition:
    """Label alive nodes by component, components ordered by decreasing size."""
    sub = residual(g)
    upper = sub.rows < sub.cols
    uf = _UnionFind(sub.n)
    for i, j in zip(sub.rows[upper].tolist(), sub.cols[upper].tolist()):
        uf.union(i, j)
    roots: dict[int, list[int]] = {}
    for i, v in enumerate(g.alive_ids().tolist()):
        roots.setdefault(uf.find(i), []).append(v)
    groups = sorted(roots.values(), key=lambda grp: (-len(grp), grp[0]))
    component_id = np.full(g.n, -1, dtype=np.int64)
    for label, grp in enumerate(groups):
        for v in grp:
            component_id[v] = label
    return ComponentPartition(component_id, [len(grp) for grp in groups])


def pairwise_connectivity(g: Graph, removed: Iterable[int] = ()) -> int:
    """Number of unordered still-connected node pairs after removing ``removed``.

    Sum over residual components of ``|C| * (|C| - 1) / 2``. The removal set
    is applied on top of the graph's current alive mask; the graph itself is
    untouched.
    """
    removed = list(removed)
    if removed:
        g = remove_nodes(g, removed)
    sizes = connected_components(g).sizes
    return sum(s * (s - 1) // 2 for s in sizes)


def with_alive_mask(g: Graph, alive: np.ndarray) -> Graph:
    """Residual view of ``g`` under a stored alive mask (mask is copied)."""
    if alive.shape != (g.n,):
        raise ValueError("alive mask length must equal node count")
    return Graph(g.n, g.pattern, alive.astype(bool).copy())


def remove_nodes(g: Graph, nodes: Iterable[int]) -> Graph:
    """Return a residual view with ``nodes`` marked dead; ``g`` is unchanged."""
    out = g.copy()
    for v in nodes:
        if not (0 <= v < g.n):
            raise ValueError(f"node id {v} out of range")
        if not out.alive[v]:
            raise ValueError(f"node {v} is already removed")
        out.alive[v] = False
    return out


# --- synthetic generators -------------------------------------------------
#
# All three are deterministic for a fixed seed. Conventions not pinned down
# by the model names themselves:
#   * gen_ba starts from a star on m_attach+1 nodes (node 0 = hub) and each
#     arriving node attaches to m_attach distinct degree-proportional
#     targets, so the final edge count is exactly m_attach * (n - m_attach).
#   * gen_ws builds the even-degree ring lattice, then rewires the far
#     endpoint of each clockwise edge with probability p_rewire, rejecting
#     self-loops and duplicates.
#   * gen_er draws each of the n(n-1)/2 pairs independently, row by row:
#     one uniform per pair (u, v), u < v, in (u, v) lexicographic order.


def gen_ba(n: int, m_attach: int, seed: int) -> Graph:
    """Preferential-attachment graph on n nodes, m_attach edges per arrival."""
    if m_attach < 1:
        raise ValueError("m_attach must be >= 1")
    if n < m_attach + 1:
        raise ValueError("need n >= m_attach + 1")
    rng = np.random.default_rng(seed)
    edges = [(0, i) for i in range(1, m_attach + 1)]
    # repeated-node list makes degree-proportional sampling O(1)
    repeated: list[int] = []
    for u, v in edges:
        repeated.extend((u, v))
    for v in range(m_attach + 1, n):
        targets: set[int] = set()
        while len(targets) < m_attach:
            targets.add(repeated[rng.integers(len(repeated))])
        for u in sorted(targets):
            edges.append((u, v))
            repeated.extend((u, v))
    return build_graph(n, edges)


def gen_ws(n: int, k_ring: int, p_rewire: float, seed: int) -> Graph:
    """Small-world graph: ring lattice of even degree k_ring, then rewiring."""
    if k_ring % 2 != 0 or k_ring < 2:
        raise ValueError("k_ring must be even and >= 2")
    if k_ring >= n:
        raise ValueError("need k_ring < n")
    if not 0.0 <= p_rewire <= 1.0:
        raise ValueError("p_rewire must be in [0, 1]")
    rng = np.random.default_rng(seed)
    present: set[tuple[int, int]] = set()
    for u in range(n):
        for j in range(1, k_ring // 2 + 1):
            v = (u + j) % n
            present.add((u, v) if u < v else (v, u))
    for u in range(n):
        for j in range(1, k_ring // 2 + 1):
            v = (u + j) % n
            key = (u, v) if u < v else (v, u)
            if key not in present or rng.random() >= p_rewire:
                continue
            w = int(rng.integers(n))
            attempts = 0
            while w == u or ((u, w) if u < w else (w, u)) in present:
                w = int(rng.integers(n))
                attempts += 1
                if attempts > 8 * n:  # node saturated; keep the lattice edge
                    w = -1
                    break
            if w >= 0:
                present.discard(key)
                present.add((u, w) if u < w else (w, u))
    return build_graph(n, sorted(present))


def gen_er(n: int, p_edge: float, seed: int) -> Graph:
    """Bernoulli random graph: each pair kept with probability p_edge."""
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0.0 <= p_edge <= 1.0:
        raise ValueError("p_edge must be in [0, 1]")
    rng = np.random.default_rng(seed)
    edges = []
    for u in range(n - 1):
        hits = np.flatnonzero(rng.random(n - 1 - u) < p_edge)
        edges.extend((u, u + 1 + int(j)) for j in hits)
    return build_graph(n, edges)
