"""Per-node importance metrics and the aggregated input feature matrix.

Four metrics are computed on the residual (alive) subgraph — degree, degree
centrality, eigenvector centrality, and PageRank — then min-max normalized
per column and stacked into an ``n_alive x 4`` matrix. A degree-only variant
replicates the normalized degree column so downstream shapes are unchanged.

Each metric helper takes a ``Graph`` and reads the residual graph's
closed-neighbourhood CSR from ``graph.residual``: the degree is the row
length minus the self-loop, and the two power iterations multiply by
``A + I`` with one O(m) ``bincount`` over the CSR entries. Both run one loop
to the module's tolerances and caps and report ``converged``. PageRank, an L1
contraction with factor 0.85, converges within 118 of its 200 steps; the
eigenvector iteration can reach its cap on near-regular graphs.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from critnet.graph import Graph, residual

PAGERANK_DAMPING = 0.85
PAGERANK_TOL = 1e-8
PAGERANK_MAX_ITER = 200
EIGENVECTOR_TOL = 1e-8
EIGENVECTOR_MAX_ITER = 1000


def degree_vector(g: Graph) -> np.ndarray:
    """Degree of each alive node counting alive neighbors only."""
    return np.diff(residual(g).indptr) - 1.0


class PowerResult(NamedTuple):
    scores: np.ndarray
    converged: bool


def _power_iteration(step, x: np.ndarray, tol: float, max_iter: int) -> PowerResult:
    """Apply ``step`` from ``x``, at most ``max_iter`` times, until the L1 change between iterates is below ``tol``."""
    for _ in range(max_iter):
        nxt = step(x)
        if np.abs(nxt - x).sum() < tol:
            return PowerResult(nxt, True)
        x = nxt
    return PowerResult(x, False)


def eigenvector_centrality(g: Graph) -> PowerResult:
    """Dominant-eigenvector scores of the alive subgraph, L2-normalized.

    Iterates x <- normalize((A + I) x); the identity shift leaves the
    eigenvectors of A unchanged but keeps bipartite spectra (lambda pairs of
    opposite sign) from oscillating.
    """
    sub = residual(g)
    n = sub.n
    if n == 0:
        return PowerResult(np.zeros(0), True)

    def step(x):
        nxt = np.bincount(sub.rows, weights=x[sub.cols], minlength=n)
        # the L2 norm, as np.linalg.norm computes it for 1-D input, without its
        # dispatch; x > 0 gives (A + I)x >= x, so the norm is at least 1
        return nxt / np.sqrt(nxt @ nxt)

    return _power_iteration(step, np.full(n, 1.0 / np.sqrt(n)), EIGENVECTOR_TOL, EIGENVECTOR_MAX_ITER)


def pagerank(g: Graph) -> PowerResult:
    """PageRank over the alive subgraph, edges treated as bidirectional.

    Isolated (dangling) nodes redistribute their mass uniformly; the scores
    sum to 1 whenever any node is alive. With damping d the update is an L1
    contraction with factor d, and the first step moves the uniform start by
    at most 2d, so step k changes the scores by at most 2 d^k: below the
    1e-8 tolerance from k = 118 at d = 0.85, short of the 200-step cap.
    """
    sub = residual(g)
    n = sub.n
    if n == 0:
        return PowerResult(np.zeros(0), True)
    deg = np.diff(sub.indptr) - 1.0
    dangling = deg == 0

    def step(x):
        # P^T x for the row-stochastic walk P = D^-1 A on non-dangling rows,
        # as (A + I) y - y with y = D^-1 x
        y = np.divide(x, deg, out=np.zeros(n), where=~dangling)
        walk = np.bincount(sub.rows, weights=y[sub.cols], minlength=n) - y
        return PAGERANK_DAMPING * (walk + x[dangling].sum() / n) + (1.0 - PAGERANK_DAMPING) / n

    return _power_iteration(step, np.full(n, 1.0 / n), PAGERANK_TOL, PAGERANK_MAX_ITER)


def _minmax_column(col: np.ndarray) -> np.ndarray:
    lo, hi = col.min(), col.max()
    if hi - lo <= 0:
        return np.zeros_like(col)
    return (col - lo) / (hi - lo)


def aggregate_features(g: Graph) -> np.ndarray:
    """All four metrics on the residual graph, each column scaled to [0, 1].

    Constant columns (e.g. on regular graphs) map to all zeros. Rows follow
    alive node ids in increasing order. Min-max scaling removes degree
    centrality's 1 / (n_alive - 1) factor, so the first two columns are
    equal up to rounding; both are kept as the paper's four metrics.
    """
    if g.n_alive() == 0:
        return np.zeros((0, 4))
    deg = degree_vector(g)
    cols = [
        deg,
        deg / max(len(deg) - 1, 1),  # degree centrality; one alive node has degree 0
        eigenvector_centrality(g).scores,
        pagerank(g).scores,
    ]
    return np.column_stack([_minmax_column(c) for c in cols])


def degree_only_features(g: Graph) -> np.ndarray:
    """Normalized degree replicated into all four columns (ablation input)."""
    n = g.n_alive()
    if n == 0:
        return np.zeros((0, 4))
    col = _minmax_column(degree_vector(g))
    return np.column_stack([col, col, col, col])
