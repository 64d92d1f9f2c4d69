"""Per-node importance metrics and the aggregated input feature matrix.

Four metrics are computed on the residual (alive) subgraph — degree, degree
centrality, eigenvector centrality, and PageRank — then min-max normalized
per column and stacked into an ``n_alive x 4`` matrix. A degree-only variant
replicates the normalized degree column so downstream shapes are unchanged.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from critnet.graph import Graph, alive_edges

FEATURE_COLUMNS = ("degree", "degree_centrality", "eigenvector_centrality", "pagerank")

PAGERANK_DAMPING = 0.85
PAGERANK_TOL = 1e-8
PAGERANK_MAX_ITER = 200
EIGENVECTOR_TOL = 1e-8
EIGENVECTOR_MAX_ITER = 1000


def degree_vector(g: Graph) -> np.ndarray:
    """Degree of each alive node counting alive neighbors only."""
    return alive_edges(g).degrees().astype(float)


def degree_centrality(g: Graph) -> np.ndarray:
    """Degree divided by (n_alive - 1); zeros when fewer than two nodes remain."""
    deg = degree_vector(g)
    n = len(deg)
    if n <= 1:
        return np.zeros(n)
    return deg / (n - 1)


class EigenvectorResult(NamedTuple):
    scores: np.ndarray
    converged: bool


def eigenvector_centrality(
    g: Graph,
    tol: float = EIGENVECTOR_TOL,
    max_iter: int = EIGENVECTOR_MAX_ITER,
) -> EigenvectorResult:
    """Dominant-eigenvector scores of the alive subgraph, L2-normalized.

    Iterates x <- normalize((A + I) x); the identity shift leaves the
    eigenvectors of A unchanged but keeps bipartite spectra (lambda pairs of
    opposite sign) from oscillating. Converged when the L1 change between
    successive iterates drops below ``tol``; otherwise the last iterate is
    returned with ``converged=False``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = alive_edges(g).adjacency()
    n = len(a)
    if n == 0:
        return EigenvectorResult(np.zeros(0), True)
    x = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(max_iter):
        nxt = a @ x + x
        norm = np.linalg.norm(nxt)
        if norm == 0.0:
            return EigenvectorResult(np.zeros(n), True)
        nxt /= norm
        if np.abs(nxt - x).sum() < tol:
            return EigenvectorResult(nxt, True)
        x = nxt
    return EigenvectorResult(x, False)


def pagerank(
    g: Graph,
    damping: float = PAGERANK_DAMPING,
    tol: float = PAGERANK_TOL,
    max_iter: int = PAGERANK_MAX_ITER,
) -> np.ndarray:
    """PageRank over the alive subgraph, edges treated as bidirectional.

    Isolated (dangling) nodes redistribute their mass uniformly; the result
    sums to 1 whenever any node is alive.
    """
    a = alive_edges(g).adjacency()
    n = len(a)
    if n == 0:
        return np.zeros(0)
    deg = a.sum(axis=1)
    dangling = deg == 0
    # row-stochastic transition for non-dangling rows
    p = np.divide(a, deg[:, None], out=np.zeros_like(a), where=deg[:, None] > 0)
    x = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        nxt = damping * (p.T @ x + x[dangling].sum() / n) + (1.0 - damping) / n
        if np.abs(nxt - x).sum() < tol:
            return nxt
        x = nxt
    return x


def _minmax_column(col: np.ndarray) -> np.ndarray:
    lo, hi = col.min(), col.max()
    if hi - lo <= 0:
        return np.zeros_like(col)
    return (col - lo) / (hi - lo)


def aggregate_features(g: Graph) -> np.ndarray:
    """All four metrics on the residual graph, each column scaled to [0, 1].

    Constant columns (e.g. on regular graphs) map to all zeros. Rows follow
    alive node ids in increasing order.
    """
    n = g.n_alive()
    if n == 0:
        return np.zeros((0, 4))
    cols = [
        degree_vector(g),
        degree_centrality(g),
        eigenvector_centrality(g).scores,
        pagerank(g),
    ]
    return np.column_stack([_minmax_column(c) for c in cols])


def degree_only_features(g: Graph) -> np.ndarray:
    """Normalized degree replicated into all four columns (ablation input)."""
    n = g.n_alive()
    if n == 0:
        return np.zeros((0, 4))
    col = _minmax_column(degree_vector(g))
    return np.column_stack([col, col, col, col])
