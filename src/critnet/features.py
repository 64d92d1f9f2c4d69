"""Per-node importance metrics and the aggregated input feature matrix.

Four metrics are computed on the residual (alive) subgraph — degree, degree
centrality, eigenvector centrality, and PageRank — then min-max normalized
per column and stacked into an ``n_alive x 4`` matrix. A degree-only variant
replicates the normalized degree column so downstream shapes are unchanged.

Each metric helper takes a ``Graph`` and reads the residual graph's
closed-neighbourhood CSR from ``graph.residual``: the degree is the row
length minus the self-loop, and both iterative metrics multiply by
``A + I`` with one O(m) ``bincount`` over the CSR entries. Both report
``converged``, and ``aggregate_features`` warns when either did not.
PageRank's power loop is an L1 contraction with factor 0.85 and converges
within 118 of its 200 steps. The eigenvector column runs
Lanczos (1950) with full reorthogonalisation from the uniform vector and
stops once the residual ``||(A + I)x - theta x||`` of its Ritz pair falls
to ``EIGENVECTOR_TOL * theta``, within ``EIGENVECTOR_MAX_STEPS`` steps.
Neither centrality is defined on a graph with no node, so every function
but ``degree_vector`` refuses a state with no alive node (``ValueError``).
"""
from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from critnet.graph import Graph, SparsePattern, residual

PAGERANK_DAMPING = 0.85
PAGERANK_TOL = 1e-8
PAGERANK_MAX_ITER = 200
# Lanczos stops when ||(A + I)x - theta x|| <= EIGENVECTOR_TOL * theta; measured on BA, ER
# and WS graphs (n = 150 to 5000), the scores are then within 2e-11 of the top eigenvector
EIGENVECTOR_TOL = 1e-11
EIGENVECTOR_MAX_STEPS = 200
# the first step whose Ritz pair is computed (BA, ER and WS graphs take 26 steps or more);
# each later check goes to the step where the residual's rate so far predicts convergence,
# at most twice as far
EIGENVECTOR_FIRST_CHECK = 20


def degree_vector(g: Graph) -> np.ndarray:
    """Degree of each alive node counting alive neighbors only; empty when no node is alive."""
    return np.diff(residual(g).indptr) - 1.0


def _scored(g: Graph) -> SparsePattern:
    """``residual(g)``, or ``ValueError`` when no node is alive: no metric is defined on an empty graph."""
    sub = residual(g)
    if sub.n == 0:
        raise ValueError("no alive nodes to score")
    return sub


class Centrality(NamedTuple):
    scores: np.ndarray
    converged: bool


def eigenvector_centrality(g: Graph) -> Centrality:
    """Dominant-eigenvector scores of the alive subgraph, L2-normalized and non-negative; refuses an empty one.

    Lanczos on A + I from the uniform vector: after the three-term
    recurrence, one classical Gram-Schmidt pass orthogonalises each new
    vector against the whole basis, so converged eigenvalues never return
    as spurious copies in the tridiagonal T. The scores are the top Ritz
    vector of T. When the top eigenvalue is repeated (equal components),
    they are the uniform vector projected onto its eigenspace, where a
    power iteration would end too. A start vector that is already an
    eigenvector (a regular graph) ends the recurrence at its first step.
    """
    sub = _scored(g)
    n = sub.n
    steps = min(n, EIGENVECTOR_MAX_STEPS)
    basis = np.empty((steps, n))
    basis[0] = 1.0 / math.sqrt(n)
    tri = np.zeros((steps, steps))  # T: the alphas on its diagonal, the betas beside it
    check, top, b = EIGENVECTOR_FIRST_CHECK, 0.0, 0.0
    rows, cols = sub.rows, sub.cols
    for j in range(steps):
        q, known = basis[j], basis[: j + 1]
        w = np.bincount(rows, weights=q[cols], minlength=n)
        tri[j, j] = a = q @ w
        w -= a * q
        if j:
            w -= b * basis[j - 1]
        w -= (known @ w) @ known
        b = math.sqrt(w @ w)
        k, top = j + 1, max(top, a)
        if j == 0:
            last = (1, b)  # the start vector as a Ritz vector: its residual is beta_0
        # T's top eigenvalue is at least every alpha, so b below the tolerance of ``top`` has converged
        if k >= check or k == steps or b <= EIGENVECTOR_TOL * top:
            theta, vectors = np.linalg.eigh(tri[:k, :k])
            s = vectors[:, -1]
            residual_norm, goal = b * abs(s[-1]), EIGENVECTOR_TOL * theta[-1]
            if residual_norm <= goal or k == steps:
                x = s @ known
                x /= math.sqrt(x @ x)
                return Centrality(-x if x.sum() < 0 else x, residual_norm <= goal)
            ahead = k
            if residual_norm < last[1]:
                rate = math.log(residual_norm / last[1]) / (k - last[0])
                ahead = math.ceil(math.log(goal / residual_norm) / rate)
            check, last = k + min(max(ahead, 2), k), (k, residual_norm)
        np.divide(w, b, out=basis[k])
        tri[j, k] = tri[k, j] = b


def pagerank(g: Graph) -> Centrality:
    """PageRank over the alive subgraph, edges treated as bidirectional.

    Isolated (dangling) nodes redistribute their mass uniformly; the scores
    sum to 1, and no alive node raises ``ValueError``. With damping d the
    update is an L1 contraction with factor d, and the first step moves the
    uniform start by at most 2d, so step k changes the scores by at most
    2 d^k: below the 1e-8 tolerance from k = 118 at d = 0.85, short of the
    200-step cap.
    """
    sub = _scored(g)
    n = sub.n
    deg = np.diff(sub.indptr) - 1.0
    dangling = deg == 0
    some_dangle = bool(dangling.any())
    divisor = np.where(dangling, 1.0, deg)
    x = np.full(n, 1.0 / n)
    for _ in range(PAGERANK_MAX_ITER):
        # P^T x for the row-stochastic walk P = D^-1 A on non-dangling rows,
        # as (A + I) y - y with y = D^-1 x; a dangling row's y, over a divisor
        # of 1, meets only its own self-loop, so it cancels to exactly 0
        y = x / divisor
        walk = np.bincount(sub.rows, weights=y[sub.cols], minlength=n)
        walk -= y
        if some_dangle:
            walk += x[dangling].sum() / n
        walk *= PAGERANK_DAMPING
        walk += (1.0 - PAGERANK_DAMPING) / n
        if np.abs(walk - x).sum() < PAGERANK_TOL:
            return Centrality(walk, True)
        x = walk
    return Centrality(x, False)


def _minmax_column(col: np.ndarray) -> np.ndarray:
    lo, hi = col.min(), col.max()
    if hi - lo <= 0:
        return np.zeros_like(col)
    return (col - lo) / (hi - lo)


def aggregate_features(g: Graph) -> np.ndarray:
    """All four metrics on the residual graph, each column scaled to [0, 1]; no alive node raises ``ValueError``.

    Constant columns (e.g. on regular graphs) map to all zeros. Rows follow
    alive node ids in increasing order. Min-max scaling removes degree
    centrality's 1 / (n_alive - 1) factor, so the first two columns are
    equal up to rounding; both are kept as the paper's four metrics. A
    centrality that did not converge keeps its last iterate and raises a
    ``RuntimeWarning`` naming it and the alive-node count.
    """
    deg = degree_vector(g)
    eigen, rank = eigenvector_centrality(g), pagerank(g)
    for name, c in (("eigenvector centrality", eigen), ("PageRank", rank)):
        if not c.converged:
            warnings.warn(f"{name} did not converge on {len(deg)} alive nodes", RuntimeWarning, stacklevel=2)
    cols = [
        deg,
        deg / max(len(deg) - 1, 1),  # degree centrality; one alive node has degree 0
        eigen.scores,
        rank.scores,
    ]
    return np.column_stack([_minmax_column(c) for c in cols])


def degree_only_features(g: Graph) -> np.ndarray:
    """Normalized degree replicated into all four columns (ablation input); no alive node raises ``ValueError``."""
    col = _minmax_column(np.diff(_scored(g).indptr) - 1.0)
    return np.column_stack([col, col, col, col])
