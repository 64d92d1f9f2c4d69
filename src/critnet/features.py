"""Per-node importance metrics and the aggregated input feature matrix.

Four metrics are computed on the residual (alive) subgraph — degree, degree
centrality, eigenvector centrality, and PageRank — then min-max normalized
per column and stacked into an ``n_alive x 4`` matrix. A degree-only variant
replicates the normalized degree column so downstream shapes are unchanged.

Each metric helper takes a ``Graph`` and reads the residual graph's
closed-neighbourhood CSR from ``graph.residual``: the degree is the row
length minus the self-loop, and the power iterations multiply by ``A + I``
with one O(m) ``bincount`` over the CSR entries.
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


def _scaled_degree(deg: np.ndarray) -> np.ndarray:
    n = len(deg)
    if n <= 1:
        return np.zeros(n)
    return deg / (n - 1)


def degree_centrality(g: Graph) -> np.ndarray:
    """Degree divided by (n_alive - 1); zeros when fewer than two nodes remain."""
    return _scaled_degree(degree_vector(g))


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
    sub = residual(g)
    n = sub.n
    if n == 0:
        return EigenvectorResult(np.zeros(0), True)
    x = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(max_iter):
        nxt = np.bincount(sub.rows, weights=x[sub.cols], minlength=n)
        norm = np.linalg.norm(nxt)
        if norm == 0.0:
            return EigenvectorResult(np.zeros(n), True)
        nxt /= norm
        if np.abs(nxt - x).sum() < tol:
            return EigenvectorResult(nxt, True)
        x = nxt
    return EigenvectorResult(x, False)


class PagerankResult(NamedTuple):
    scores: np.ndarray
    converged: bool


def pagerank(
    g: Graph,
    damping: float = PAGERANK_DAMPING,
    tol: float = PAGERANK_TOL,
    max_iter: int = PAGERANK_MAX_ITER,
) -> PagerankResult:
    """PageRank over the alive subgraph, edges treated as bidirectional.

    Isolated (dangling) nodes redistribute their mass uniformly; the scores
    sum to 1 whenever any node is alive. Converged when the L1 change between
    successive iterates drops below ``tol``; otherwise the last iterate is
    returned with ``converged=False``.
    """
    sub = residual(g)
    n = sub.n
    if n == 0:
        return PagerankResult(np.zeros(0), True)
    deg = np.diff(sub.indptr) - 1.0
    dangling = deg == 0
    x = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        # P^T x for the row-stochastic walk P = D^-1 A on non-dangling rows,
        # as (A + I) y - y with y = D^-1 x
        y = np.divide(x, deg, out=np.zeros(n), where=~dangling)
        walk = np.bincount(sub.rows, weights=y[sub.cols], minlength=n) - y
        nxt = damping * (walk + x[dangling].sum() / n) + (1.0 - damping) / n
        if np.abs(nxt - x).sum() < tol:
            return PagerankResult(nxt, True)
        x = nxt
    return PagerankResult(x, False)


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
        _scaled_degree(deg),
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
