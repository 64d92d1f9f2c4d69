"""Undirected simple graphs with incremental node removal.

A graph stores one sparse structure: the CSR pattern of its closed
neighbourhoods (every edge in both directions plus one self-loop per node).
``build_graph`` is the only code that builds one, and every residual view
shares it without copying. A pattern holds private read-only copies of its
arrays, so no pattern, stored, residual or batched, can change once built.
The residual graph of a partially-dismantled network is that pattern plus a
per-node ``alive`` mask. A view is immutable: its mask is read-only, and
removing nodes builds a new view with bits cleared, so evaluation never
mutates the original instance. Values derived from a residual state are
memoised per state, not per view: a pattern holds a table of memo dicts,
weakly and keyed by alive mask, so all live views of one pattern under one
mask share one memo, which lives as long as the last of them.
``residual`` is the only filter, the one place that applies the mask: it
renumbers the stored pattern's alive entries into the alive subgraph's CSR
once per state, into its memo, and features, the encoder and the objective
all read that object. A pattern also owns the attention kernels: row
reductions over a slot-major layout the first of them builds and keeps,
one permutation of the entries whose slot 0 holds every row, and
per-entry dots in CSR order. A ``GraphBatch`` lays states' residual
patterns side by side for one forward; one state is a batch of one.
One engine on that CSR, a numpy pointer-jumping fixpoint, finds the
components behind ``connected_components``, the exact pairwise-connectivity
objective, and, with a union-find that adds a removal order back, the
objective after every prefix of that order (``prefix_objectives``). The
module also holds edge-list ingestion and the synthetic generators.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple
from weakref import WeakValueDictionary

import numpy as np


class GraphParseError(ValueError):
    """Raised for malformed or empty edge-list input."""


# A slot after slot 0 holding fewer rows than this ends the slot loop: the
# rows still open finish with one ``reduceat`` over the rest of their entries.
# Per-slot numpy calls cost more than the work of that few rows, and a hub of
# degree n - 1 would otherwise take n slots. Measured on BA, ER and WS graphs
# (n = 150 to 5000, H = 8 heads), cut-offs 16 to 64 time alike; with none, the
# kernels take 1.4x as long at BA n = 1000 and 13x on a 1000-node star.
TAIL_ROWS = 32

# Rows per block of every loop over n x H*d or n x 256 rows, read at call
# time: ``weighted_row_sums`` walks the slot layout's ranks a block at a time,
# ``entry_dots`` the CSR entries, ``autodiff._elu_in_place`` a dense layer's
# output rows and ``decoder._mlp`` the node head's input rows, so each one's
# scratch is that many rows at any degree or graph size. Per call in ms for
# the two kernels, H = 8 heads of d = 12, one BLAS thread, best of 7 in two
# runs: BA n = 5000, 8.8 and 9.7-10.7 with blocks of 32, 5.1-5.8 and 3.7-3.8
# with 256, 5.0-5.4 and 3.6-3.8 with 512, 5.8 and 6.7-7.1 unblocked; 8 graphs
# of 150 nodes, 1.2 and 0.74-0.79 with 256, 1.2 and 0.66 with 512, 1.3-1.6 and
# 1.2-1.4 unblocked. A whole ``q_full`` forward, BA n = 150, 1000 and 5000,
# best of 9 in two runs, took 1.0-1.04, 5.1-5.2 and 26.4 ms with the dense
# loops at 128 rows, 0.95, 4.7-4.8 and 25.5-25.8 ms at 256.
# ``weighted_row_sums`` matches whole slots bit for bit at any block size and
# H, ``entry_dots`` one product over all entries at any block size for H = 4
# and 8; for an odd H, OpenBLAS may sum a few dots' d terms in another order.
BLOCK_ROWS = 256


class SlotLayout(NamedTuple):
    """A CSR pattern's entries in slot-major (jagged-diagonal) order (Saad, SIAM J. Sci. Stat. Comput. 1989).

    Rows are ranked by degree, descending and stable. Slot ``j`` holds entry
    ``j`` of every row with more than ``j`` entries, which are the
    ``counts[j]`` rows of lowest rank. ``perm`` lists the CSR entries slot by
    slot, each slot by rank from ``offsets[j]``. Every row holds its
    self-loop, so slot 0 holds every row, ``counts[0] == n``, and the row of
    rank ``r`` is ``rows[perm[r]]``; a kernel reads the row order, and the
    columns in slot order, through ``perm``. Slots after the first end at
    the first one with fewer than ``TAIL_ROWS`` rows. The
    ``len(tail_starts)`` rows still open then follow from
    ``head = sum(counts)``: the rest of each row, in CSR order, rank by rank,
    starting ``tail_starts[r]`` past ``head``. So every entry is in exactly
    one slot or one tail, and the layout's arrays hold one integer per entry
    and one per open row. The layout holds the pattern's structure only: how
    a kernel cuts its loop is the kernel's own. A state's ``residual``
    pattern keeps its layout, so each state's is built once.
    """

    counts: tuple[int, ...]
    offsets: tuple[int, ...]
    head: int
    perm: np.ndarray
    tail_starts: np.ndarray


def _slot_layout(p: "SparsePattern") -> SlotLayout:
    degree = np.diff(p.indptr)
    order = np.argsort(-degree, kind="stable")
    # counts[j]: rows with more than j entries, the lowest ranks; slot 0, all n rows, is kept at any n
    counts = p.n - np.cumsum(np.bincount(degree))[:-1]
    kept = counts[: max(1, np.count_nonzero(counts >= TAIL_ROWS))]
    slots = len(kept)
    offsets = np.concatenate(([0], np.cumsum(kept)))
    starts = p.indptr[order]
    rank_in_slot = np.arange(offsets[-1]) - np.repeat(offsets[:-1], kept)
    entries = starts[rank_in_slot] + np.repeat(np.arange(slots), kept)
    # the rows still open are the lowest ranks; each keeps its entries past the last slot
    tails = degree[order[: np.count_nonzero(degree > slots)]] - slots
    tail_starts = np.concatenate(([0], np.cumsum(tails)))[:-1]
    tail = np.repeat(starts[: len(tails)] + slots - tail_starts, tails) + np.arange(tails.sum())
    perm = np.concatenate((entries, tail))
    return SlotLayout(tuple(kept.tolist()), tuple(offsets[:-1].tolist()), int(offsets[-1]), perm, tail_starts)


class _Csr(NamedTuple):
    indptr: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    transpose: np.ndarray


class SparsePattern(_Csr):
    """Sparsity pattern of a structurally symmetric n x n matrix, in CSR order.

    Entry ``e`` sits at ``(rows[e], cols[e])``; entries are sorted by row,
    then column, and row ``i`` owns entries ``indptr[i]:indptr[i + 1]``. Every
    row holds at least one entry. ``transpose[e]`` is the entry at
    ``(cols[e], rows[e])``: since the transposed matrix has the same pattern,
    ``values[transpose]`` lists its entries in the same CSR order.

    The constructor keeps read-only copies of the four arrays it is given,
    so a pattern never changes, and nothing the caller still holds can
    change it. ``build_graph`` builds each graph's stored pattern, which its
    views share; ``residual`` filters it into the alive subgraph's pattern.

    ``autodiff.attention_layer`` runs the pattern's kernels in both passes.
    The row reductions (``row_sums``, ``row_max``, ``weighted_row_sums``)
    read it through its ``layout``, a ``SlotLayout``, which the first of
    them builds, once, and the pattern keeps: a state's ``residual`` pattern
    for as long as the state lives, a batch's union pattern for one forward.
    Nothing else builds one. It and ``memos``, the weak memo table of the
    views (see ``Graph``), are derived data, not among the four arrays, so a
    copy or a pickle leaves them out. Each row starts from its first entry,
    in slot 0, and adds the rest left to right in column order, one slot at
    a time; a row still open after the last slot adds the ``reduceat`` sum
    of its tail, in one step, ``_fold_tails``, shared by all three.
    ``weighted_row_sums``, whose products are n x H*d, walks the ranks
    ``BLOCK_ROWS`` at a time, writing each block's rows into its result,
    so its scratch is that many rows; ``row_sums`` and ``row_max`` (H
    columns) run each slot whole. ``entry_dots``, one dot per entry, walks
    the CSR entries in blocks.
    """

    def __new__(cls, indptr, rows, cols, transpose):
        arrays = [np.array(a) for a in (indptr, rows, cols, transpose)]
        for a in arrays:
            a.flags.writeable = False
        return super().__new__(cls, *arrays)

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    def __reduce__(self):
        return SparsePattern, tuple(self)

    @cached_property
    def layout(self) -> SlotLayout:
        return _slot_layout(self)

    @cached_property
    def memos(self) -> WeakValueDictionary:
        return WeakValueDictionary()

    def _fold_tails(self, ufunc, tail_values: np.ndarray, out: np.ndarray) -> None:
        """Fold each open row's tail, the ``ufunc.reduceat`` of its run of ``tail_values``, into its row of ``out``.

        ``tail_values`` are the kernel's values for the layout's entries past
        ``head``, and each open row of ``out`` holds its slots' result.
        """
        lay = self.layout
        if len(lay.tail_starts):
            rows = np.take(self.rows, lay.perm[: len(lay.tail_starts)])
            sums = ufunc.reduceat(tail_values, lay.tail_starts, axis=0)
            out[rows] = ufunc(out[rows], sums, out=sums)

    def _reduce(self, ufunc, values: np.ndarray) -> np.ndarray:
        lay = self.layout
        by_slot = np.take(values, lay.perm, axis=0)
        acc = by_slot[: self.n]  # slot 0, every row's first entry: the later slots fold into it in place
        for c, o in zip(lay.counts[1:], lay.offsets[1:]):
            ufunc(acc[:c], by_slot[o : o + c], out=acc[:c])
        out = np.empty_like(acc)
        out[np.take(self.rows, lay.perm[: self.n])] = acc
        self._fold_tails(ufunc, by_slot[lay.head :], out)
        return out

    def row_sums(self, values: np.ndarray) -> np.ndarray:
        """Sum of per-entry ``values`` (one leading row per entry) over each row."""
        return self._reduce(np.add, values)

    def row_max(self, values: np.ndarray) -> np.ndarray:
        """Largest of per-entry ``values`` (one leading row per entry) over each row."""
        return self._reduce(np.maximum, values)

    def weighted_row_sums(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Row ``i`` of H sparse matrices, one per column of ``w`` (E x H), times column blocks of ``x``.

        ``x`` (n x H*d) is split into H blocks of d columns; block h of row
        ``i`` is the sum over its entries ``e`` of ``w[e, h]`` times block h
        of row ``cols[e]`` of ``x``. The ranks go ``BLOCK_ROWS`` at a time:
        slot 0, which holds every rank, writes a block's products into
        scratch of that many rows, each later slot that reaches the block
        adds its piece to the leading ranks, and the block's rows go straight
        into the result. The open rows then add their tails' ``reduceat``
        sums, once. So the result is the one n x H*d array formed; the
        products of the tails, fewer than ``TAIL_ROWS`` rows, are the one
        array that grows with their degree.
        """
        lay, heads = self.layout, w.shape[1]
        x3 = x.reshape(self.n, heads, -1)
        w_slot = np.take(w, lay.perm, axis=0)[:, :, None]
        cols = np.take(self.cols, lay.perm)
        out = np.empty(x3.shape)
        acc, part = np.empty((2, min(BLOCK_ROWS, self.n)) + x3.shape[1:])
        for lo in range(0, self.n, BLOCK_ROWS):
            hi = min(lo + BLOCK_ROWS, self.n)
            for slot, (c, o) in enumerate(zip(lay.counts, lay.offsets)):
                if c <= lo:  # counts descend: no later slot reaches the block
                    break
                k = min(c, hi) - lo
                dst = part[:k] if slot else acc[:k]
                np.take(x3, cols[o + lo : o + lo + k], axis=0, out=dst, mode="clip")
                dst *= w_slot[o + lo : o + lo + k]
                if slot:
                    acc[:k] += dst
            out[np.take(self.rows, lay.perm[lo:hi])] = acc[: hi - lo]
        tails = np.take(x3, cols[lay.head :], axis=0)
        tails *= w_slot[lay.head :]
        self._fold_tails(np.add, tails, out)
        return out.reshape(x.shape)

    def entry_dots(self, a: np.ndarray, b: np.ndarray, heads: int) -> np.ndarray:
        """Per entry ``e`` and head h, block h of row ``rows[e]`` of ``a`` dotted with that of row ``cols[e]`` of ``b``.

        ``a`` and ``b`` are n x H*d, split into H blocks of d columns; the
        result is E x H. Each entry's dots depend on no other entry, so the
        entries go in CSR order, ``BLOCK_ROWS`` at a time, and a block's
        dots go straight into the result: the scratch holds that many rows
        of ``a`` and of ``b`` at any degree, and no layout is read.
        """
        a3, b3 = a.reshape(self.n, heads, -1), b.reshape(self.n, heads, -1)
        ones = np.ones(a3.shape[2])  # a product with it sums each head's d terms, several times faster than sum(axis=2)
        out = np.empty((len(self.rows), heads))
        by_row, part = np.empty((2, min(BLOCK_ROWS, len(out))) + a3.shape[1:])
        for lo in range(0, len(out), BLOCK_ROWS):
            k = min(BLOCK_ROWS, len(out) - lo)
            np.take(a3, self.rows[lo : lo + k], axis=0, out=by_row[:k], mode="clip")
            np.take(b3, self.cols[lo : lo + k], axis=0, out=part[:k], mode="clip")
            part[:k] *= by_row[:k]
            np.dot(part[:k].reshape(-1, len(ones)), ones, out=out[lo : lo + k].reshape(-1))
        return out


class _Memo(dict):
    """A dict a weak reference can point at (a plain dict cannot)."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph with dense 0-based node ids: an immutable residual view.

    ``pattern`` is the closed-neighbourhood CSR of the whole graph, as
    ``build_graph`` built it; every residual view shares it, and ``n`` is
    read from it. ``alive`` is the view's own read-only copy of the
    mask it was built with, checked to hold one entry per node, so nothing
    can change a view after it exists; removing nodes builds a new view.

    ``memo`` caches values derived from the residual state (``residual``
    keeps its CSR there, ``decoder.Model.features`` the input matrix, keyed
    by feature mode). It belongs to the state, not to the view: the
    pattern's ``memos`` table maps each alive mask, as bytes, weakly to its
    memo, so all live views of one pattern under one mask share one memo,
    and the entry goes with the last of them. A graph built on its own, or
    a view of a copied pattern, has a table of its own.
    """

    pattern: SparsePattern = field(repr=False)
    alive: np.ndarray = field(repr=False)
    memo: dict = field(init=False, repr=False)

    def __post_init__(self):
        given = np.asarray(self.alive)
        alive = np.array(given, dtype=bool)  # a private copy: no caller holds a writable alias
        if alive.shape != (self.n,):
            raise ValueError(f"alive mask of shape {alive.shape} does not match {self.n} nodes")
        bad = () if given.dtype == bool else np.flatnonzero(alive != given)  # a value other than 0 or 1
        if len(bad):
            raise ValueError(f"alive mask holds {given[bad[0]]} at node {bad[0]}; only 0 and 1 are allowed")
        alive.flags.writeable = False
        object.__setattr__(self, "alive", alive)
        object.__setattr__(self, "memo", self.pattern.memos.setdefault(alive.tobytes(), _Memo()))

    @property
    def n(self) -> int:
        return self.pattern.n

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

    def __repr__(self) -> str:
        return f"Graph(n={self.n})"

    def __deepcopy__(self, _memo) -> "Graph":
        # immutable, like a tuple: a deep copy would only build a second pattern and memo table
        return self

    def __reduce__(self):
        # rebuilt through the constructor, without the memo; views pickled together get one pattern back
        return Graph, (self.pattern, self.alive)


class ComponentPartition(NamedTuple):
    """Component labels over alive nodes; ``sizes`` sorted descending.

    ``component_id[v]`` is -1 for dead nodes and otherwise indexes into
    ``sizes`` (label 0 = largest component).
    """

    component_id: np.ndarray
    sizes: list[int]


def _index(value) -> int:
    if isinstance(value, (bool, np.bool_)):  # operator.index takes True as 1, but it is no node id or size
        raise TypeError(value)
    return operator.index(value)


def _size(value, name: str, least: int = 0) -> int:
    try:
        size = _index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if size < least:
        raise ValueError(f"{name} must be >= {least}, got {size}")
    return size


def build_graph(n: int, edges: Iterable[tuple[int, int]] | np.ndarray) -> Graph:
    """Assemble a Graph from an edge list and build its closed-neighbourhood CSR.

    ``edges`` is an iterable of ``(u, v)`` pairs or an ``(m, 2)`` integer
    ndarray, which is taken whole. A negative or non-integer ``n``, any
    other ndarray, non-integer ids, self-loops, ids outside ``0..n-1`` and
    duplicate edges (in either orientation) raise ``ValueError``, naming the
    first bad edge. Past that, every row holds its self-loop and no entry
    repeats, so the CSR needs no check of its own.
    """
    n = _size(n, "n")
    if isinstance(edges, np.ndarray):
        if edges.ndim != 2 or edges.shape[1] != 2 or not np.issubdtype(edges.dtype, np.integer):
            raise ValueError(f"an edge array must be (m, 2) of integers, got shape {edges.shape} of {edges.dtype}")
        # a uint64 id beyond int64 wraps to a negative one, so it is still flagged as out of range
        pairs, e = edges, edges.astype(np.int64, copy=False)
    else:
        pairs = []
        for u, v in edges:
            try:
                pairs.append((_index(u), _index(v)))
            except TypeError:
                raise ValueError(f"edge ({u!r}, {v!r}) has a non-integer node id") from None
        count = 2 * len(pairs)
        try:
            e = np.fromiter(chain.from_iterable(pairs), dtype=np.int64, count=count).reshape(-1, 2)
        except OverflowError:  # an id beyond int64 is out of range; clamped to n it is still flagged
            clamped = (min(max(x, -1), n) for x in chain.from_iterable(pairs))
            e = np.fromiter(clamped, dtype=np.int64, count=count).reshape(-1, 2)
    lo, hi = e.min(axis=1), e.max(axis=1)
    # keys of two different pairs collide only if one is a self-loop or out of range, flagged no later
    repeat = np.ones(len(e), dtype=bool)
    repeat[np.unique(lo * n + hi, return_index=True)[1]] = False
    bad = np.flatnonzero((lo == hi) | (lo < 0) | (hi >= n) | repeat)
    if len(bad):
        u, v = map(int, pairs[bad[0]])
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) outside id range 0..{n - 1}")
        raise ValueError(f"duplicate edge ({u}, {v})")
    loops = np.arange(n)
    rows = np.concatenate((e[:, 0], e[:, 1], loops))
    cols = np.concatenate((e[:, 1], e[:, 0], loops))
    order = np.argsort(rows * n + cols)  # by row, then column: the keys of in-range entries do not collide
    rows, cols = rows[order], cols[order]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    return Graph(SparsePattern(indptr, rows, cols, np.argsort(cols * n + rows)), np.ones(n, dtype=bool))


def residual(g: Graph) -> SparsePattern:
    """Closed-neighbourhood CSR of the alive subgraph, rows in alive-id order.

    Built once per state into its memo: the stored entries with both
    ends alive, renumbered to alive positions. They stay in CSR order and the
    kept set is symmetric, so nothing is sorted or validated again.
    """
    if "residual" not in g.memo:
        p, alive = g.pattern, g.alive
        keep = alive[p.rows] & alive[p.cols]
        position = np.cumsum(alive) - 1
        rows = position[p.rows[keep]]
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=g.n_alive()))))
        transpose = (np.cumsum(keep) - 1)[p.transpose[keep]]
        g.memo["residual"] = SparsePattern(indptr, rows, position[p.cols[keep]], transpose)
    return g.memo["residual"]


def disjoint_union(patterns: list[SparsePattern]) -> SparsePattern:
    """The patterns along the diagonal of one pattern: each one's rows, columns and entries follow the ones before it.

    One pattern is returned as it is.
    """
    if len(patterns) == 1:
        return patterns[0]
    rows = np.cumsum([0] + [p.n for p in patterns])
    entries = np.cumsum([0] + [len(p.rows) for p in patterns])
    return SparsePattern(
        np.concatenate([p.indptr[:-1] + e for p, e in zip(patterns, entries)] + [entries[-1:]]),
        np.concatenate([p.rows + r for p, r in zip(patterns, rows)]),
        np.concatenate([p.cols + r for p, r in zip(patterns, rows)]),
        np.concatenate([p.transpose + e for p, e in zip(patterns, entries)]),
    )


class GraphBatch(NamedTuple):
    """Residual states side by side, for one forward over all of them (disjoint-union batching).

    ``pattern`` is the ``disjoint_union`` of the states' ``residual``
    patterns: state i owns rows ``offsets[i]:offsets[i + 1]``, its alive
    nodes in id order, and no entry joins two states. A batch of one state
    holds that state's ``residual`` object itself, layout and all.
    """

    graphs: tuple[Graph, ...]
    pattern: SparsePattern
    offsets: np.ndarray

    @classmethod
    def of(cls, graphs: Iterable[Graph]) -> "GraphBatch":
        graphs = tuple(graphs)
        if not graphs:
            raise ValueError("a batch holds at least one state")
        patterns = [residual(g) for g in graphs]
        return cls(graphs, disjoint_union(patterns), np.cumsum([0] + [p.n for p in patterns]))


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
    """Serialize to the one-edge-per-line text format parse_edge_list reads.

    The text holds the stored graph, so a residual view, whose dead nodes'
    edges are still stored, raises ``ValueError``. A round trip through
    ``parse_edge_list`` keeps the edge count and the shape of the graph, not
    its ids: isolated nodes are not written, and ids come back renumbered in
    order of first appearance. ``gen_er(150, 4 / 149, 1)`` reads back with 145
    nodes, and ``gen_ba(50, 2, 1)`` with other ids.
    """
    if removed := g.n - g.n_alive():
        raise ValueError(f"cannot format a residual view: {removed} removed node(s) would come back")
    return "\n".join(f"{u} {v}" for u, v in g.edges) + "\n"


def _component_roots(sub: SparsePattern) -> np.ndarray:
    """The smallest position in each position's component of ``sub``.

    Each round hooks every position, and its tree's root, to the smallest
    pointer in its closed neighbourhood, then jumps pointers to their roots
    (Shiloach & Vishkin, J. Algorithms 1982). Pointers only decrease and
    never leave their component, and a fixed point leaves no edge between
    two pointers, so there every position points at the smallest position
    in its component.
    """
    parent = np.arange(sub.n)
    while True:
        low = np.minimum.reduceat(parent[sub.cols], sub.indptr[:-1])  # every row holds its self-loop
        nxt = np.minimum(parent, low)
        np.minimum.at(nxt, parent, low)
        while not np.array_equal(jumped := nxt[nxt], nxt):
            nxt = jumped
        if np.array_equal(nxt, parent):
            return parent
        parent = nxt


def connected_components(g: Graph) -> ComponentPartition:
    """Label alive nodes by residual component: by decreasing size, ties to the smaller least member id."""
    root = _component_roots(residual(g))
    counts = np.bincount(root, minlength=len(root))
    roots = np.flatnonzero(counts)  # least member positions, so the stable sort breaks ties by them
    order = roots[np.argsort(-counts[roots], kind="stable")]
    label = np.empty(len(root), dtype=np.int64)
    label[order] = np.arange(len(order))
    component_id = np.full(g.n, -1, dtype=np.int64)
    component_id[g.alive] = label[root]
    return ComponentPartition(component_id, counts[order].tolist())


def pairwise_connectivity(g: Graph) -> int:
    """Unordered still-connected node pairs: ``|C| * (|C| - 1) / 2`` summed over residual components."""
    sizes = connected_components(g).sizes
    return sum(s * (s - 1) // 2 for s in sizes)


def remove_nodes(g: Graph, nodes: Iterable[int]) -> Graph:
    """Return a new residual view with ``nodes`` marked dead; ``g`` is unchanged.

    A node id that is not an integer, lies outside ``0..n-1`` or is already
    dead raises ``ValueError`` naming it.
    """
    alive = g.alive.copy()
    for v in nodes:
        try:
            v = _index(v)
        except TypeError:
            raise ValueError(f"node id {v!r} is not an integer") from None
        if not (0 <= v < g.n):
            raise ValueError(f"node id {v} outside id range 0..{g.n - 1}")
        if not alive[v]:
            raise ValueError(f"node {v} is already removed")
        alive[v] = False
    return Graph(g.pattern, alive)


def prefix_objectives(g: Graph, order: Iterable[int]) -> list[int]:
    """Pairwise connectivity of ``g`` after each prefix of ``order``: entry j has ``order[:j]`` removed.

    ``remove_nodes`` builds the view with the whole order removed, and checks
    every id. The component engine labels that view once; then a union-find
    over component heads adds the removed nodes back in reverse order, each
    merge of two components adding the product of their sizes (union by
    size, path halving). It reads only the added nodes' rows of the stored
    CSR, so the ``len(order) + 1`` values cost one labelling and one pass
    over those rows.
    """
    order = list(order)
    last = remove_nodes(g, order)
    ids = last.alive_ids()
    root = _component_roots(residual(last))
    counts = np.bincount(root, minlength=len(root))
    parent, size = np.arange(g.n), np.ones(g.n, dtype=np.int64)
    parent[ids], size[ids] = ids[root], counts[root]  # alive nodes point at their component's head
    parent, size, alive = parent.tolist(), size.tolist(), last.alive.tolist()
    total = int(np.dot(counts, counts - 1)) // 2
    indptr, cols = g.pattern.indptr, g.pattern.cols
    curve = [total]
    for v in reversed(order):
        alive[v] = True
        for u in cols[indptr[v] : indptr[v + 1]].tolist():
            if not alive[u]:
                continue
            a, b = u, v
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                if size[a] < size[b]:
                    a, b = b, a
                total += size[a] * size[b]
                parent[b] = a
                size[a] += size[b]
        curve.append(total)
    return curve[::-1]


def scatter_alive(g: Graph, values: np.ndarray) -> np.ndarray:
    """``values``, one per alive node in id order, spread over all ``g.n`` ids, with -inf on dead nodes."""
    full = np.full(g.n, -np.inf)
    full[g.alive] = values
    return full


# --- synthetic generators -------------------------------------------------
#
# All three are deterministic for a fixed seed. Conventions not pinned down
# by the model names themselves:
#   * gen_ba starts from a star on m_attach+1 nodes (node 0 = hub) and each
#     arriving node attaches to m_attach distinct degree-proportional
#     targets, so the final edge count is exactly m_attach * (n - m_attach).
#     A draw is a uniform position in the repeated-node list, which holds
#     both ends of every edge so far, in order; an arrival draws until it
#     has m_attach distinct targets, then adds its edges by target.
#   * gen_ws builds the even-degree ring lattice, then rewires the far
#     endpoint of each clockwise edge with probability p_rewire, rejecting
#     self-loops and duplicates.
#   * gen_er draws each of the n(n-1)/2 pairs independently, row by row:
#     one uniform per pair (u, v), u < v, in (u, v) lexicographic order.
#
# gen_ba and gen_er draw in bulk, yet consume the stream exactly as one
# scalar call per draw would, so a seed gives the graph of the draw-by-draw
# loops the tests keep as oracles. ``random(k)`` is k consecutive scalar
# uniforms, so gen_er draws ``ER_CHUNK`` pairs per call. ``integers(0,
# highs)`` makes one bounded draw per entry of ``highs``, as scalar calls
# would, and gen_ba knows every bound in advance: arrival v draws from a
# list of 2 m_attach (v - m_attach) entries. So it draws m_attach positions
# for each arrival of a window at once and resolves them to nodes. At the
# first arrival in the window that draws some node twice, and so needs more
# draws, it restores the generator state saved at the window's start,
# replays the draws before that arrival, draws that arrival's targets one
# call at a time, and starts the next window after it.
# gen_ws interleaves ``random()`` and ``integers()`` draws, so it stays a loop.

# A BA window takes the next max(BA_WINDOW_MIN, v // 2) arrivals from arrival
# v. Repeats grow rarer as the graph grows (with m_attach = 2, 5 at n = 150,
# 11 at n = 1000, 20 at n = 20000), and each one ends a window early and
# wastes its later draws. Measured with m_attach = 2, seeds 1 to 3, one BLAS
# thread: growth v/2 with minimums of 4 to 32 times within noise of the best
# at every n from 150 to 20000; growth v is 1.3x to 1.6x slower at n = 20000,
# and 2v 2.6x.
BA_WINDOW_MIN = 16

# Pair uniforms gen_er draws per call: 1 MiB of float64.
ER_CHUNK = 1 << 17


def _resolve_targets(repeated: np.ndarray, draws: np.ndarray, targets: np.ndarray) -> None:
    """Fill ``targets``, a view of one window's target slots in ``repeated``, from the window's draws.

    ``draws`` holds positions in ``repeated``, one row of ``targets`` (an
    arrival) after another. Slots not yet filled hold -1. A draw at such a
    slot waits for the earlier arrival that owns it; each round fills the
    sorted targets of every arrival whose draws all resolved, and only the
    draws still waiting are read again.
    """
    rows, m = targets.shape
    nodes = repeated[draws]
    waiting = np.flatnonzero(nodes < 0)
    unfilled = np.ones(rows, dtype=bool)
    while True:
        ready = unfilled.copy()
        ready[waiting // m] = False
        done = np.flatnonzero(ready)
        targets[done] = np.sort(nodes.reshape(rows, m)[done], axis=1)
        unfilled[done] = False
        if not len(waiting):
            return
        nodes[waiting] = repeated[draws[waiting]]
        waiting = waiting[nodes[waiting] < 0]


def gen_ba(n: int, m_attach: int, seed: int) -> Graph:
    """Preferential-attachment graph on n nodes, m_attach edges per arrival."""
    n, m = _size(n, "n"), _size(m_attach, "m_attach", 1)
    if n < m + 1:
        raise ValueError("need n >= m_attach + 1")
    rng = np.random.default_rng(seed)
    # both ends of every edge in order, so also the flat edge list: 2m entries
    # for the star, then 2m per arrival, with its targets at the even ones
    repeated = np.full(2 * m * (n - m), -1, dtype=np.int64)
    repeated[: 2 * m : 2] = 0
    repeated[1::2] = np.concatenate((np.arange(1, m + 1), np.repeat(np.arange(m + 1, n), m)))
    v = m + 1
    while v < n:
        end = min(n, v + max(BA_WINDOW_MIN, v // 2))
        state = rng.bit_generator.state
        highs = np.repeat(2 * m * np.arange(v - m, end - m), m)
        targets = repeated[2 * m * (v - m) : 2 * m * (end - m)].reshape(-1, 2 * m)[:, ::2]
        _resolve_targets(repeated, rng.integers(0, highs), targets)
        repeats = np.flatnonzero((targets[:, 1:] == targets[:, :-1]).any(axis=1))
        if not len(repeats):
            v = end
            continue
        # arrival v + a drew a node twice: replay the draws before it, then draw its targets one by one
        a = int(repeats[0])
        rng.bit_generator.state = state
        rng.integers(0, highs[: a * m])
        targets[a:] = -1
        drawn: set[int] = set()
        while len(drawn) < m:
            drawn.add(int(repeated[rng.integers(highs[a * m])]))
        targets[a] = sorted(drawn)
        v += a + 1
    return build_graph(n, repeated.reshape(-1, 2))


def gen_ws(n: int, k_ring: int, p_rewire: float, seed: int) -> Graph:
    """Small-world graph: ring lattice of even degree k_ring, then rewiring."""
    n, k_ring = _size(n, "n"), _size(k_ring, "k_ring")
    if k_ring % 2 != 0 or k_ring < 2:
        raise ValueError("k_ring must be even and >= 2")
    if k_ring >= n:
        raise ValueError("need k_ring < n")
    if not 0.0 <= p_rewire <= 1.0:
        raise ValueError("p_rewire must be in [0, 1]")
    rng = np.random.default_rng(seed)
    lattice = [(u, (u + j) % n) for u in range(n) for j in range(1, k_ring // 2 + 1)]
    present = {(u, v) if u < v else (v, u) for u, v in lattice}
    for u, v in lattice:
        if rng.random() >= p_rewire:
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
            present.discard((u, v) if u < v else (v, u))
            present.add((u, w) if u < w else (w, u))
    return build_graph(n, sorted(present))


def gen_er(n: int, p_edge: float, seed: int) -> Graph:
    """Bernoulli random graph: each pair kept with probability p_edge."""
    n = _size(n, "n", 1)
    if not 0.0 <= p_edge <= 1.0:
        raise ValueError("p_edge must be in [0, 1]")
    rng = np.random.default_rng(seed)
    pairs = n * (n - 1) // 2
    hits = [np.zeros(0, dtype=np.int64)]
    for start in range(0, pairs, ER_CHUNK):
        hits.append(np.flatnonzero(rng.random(min(ER_CHUNK, pairs - start)) < p_edge) + start)
    k = np.concatenate(hits)
    # row u holds the pairs (u, u + 1), ..., (u, n - 1), from index first[u]
    first = np.concatenate(([0], np.cumsum(np.arange(n - 1, 1, -1))))
    u = np.searchsorted(first, k, side="right") - 1
    return build_graph(n, np.column_stack((u, k - first[u] + u + 1)))
