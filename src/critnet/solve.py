"""Greedy construction for the critical node problem: one loop, any scorer.

``solve_greedy(g, k, score)`` removes ``k`` nodes from ``g`` one at a
time. Before each removal it calls ``score(state)`` on the current residual
view and removes the best-scored node. The agent's scorer is
``Model.q_full``; ``degree_scores`` is the adaptive highest-degree baseline
(Arulselvan et al., 2009). A new heuristic is a new scorer, not a new loop.

The scorer contract: ``score(state)`` returns one value per node id, an
array of shape ``(state.n,)``, that is finite on alive nodes and -inf on
dead ones. The pick is ``decoder.select_action`` at epsilon 0, so bit-equal
maxima go to the lowest id. A NaN or +inf score, or a finite score that
makes a dead node the best, raises ``ValueError``.

There is no early stop at objective 0: a solve always makes ``k``
removals, so a budget gives one removal order whatever the graph. Once no
edge is left, every later removal keeps the objective at 0. A solution is
the removal order and its curve, the objective after each prefix of it,
so one solve answers every budget up to ``k``. ``graph.prefix_objectives``
computes the curve once, after the last removal; no step computes an
objective.

Library calls go through their module (``graph.remove_nodes``), so a
tracer that patches a module attribute sees every call a solve makes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from critnet import decoder, features, graph


@dataclass
class Solution:
    """A removal order and its curve: ``curve[j]`` is the pairwise connectivity with ``removed[:j]`` removed.

    ``curve[0]`` is the input's own connectivity, before any removal, and
    ``objective``, the value at the whole budget, is ``curve[-1]``.
    """

    removed: list[int]
    curve: list[int]

    @property
    def objective(self) -> int:
        return self.curve[-1]


def degree_scores(g: graph.Graph) -> np.ndarray:
    """Each alive node's degree in the residual graph; -inf on dead nodes."""
    return graph.scatter_alive(g, features.degree_vector(g))


def solve_greedy(g: graph.Graph, k: int, score: Callable[[graph.Graph], np.ndarray]) -> Solution:
    """Remove the best node under ``score`` ``k`` times; the solution is the removal order and its curve.

    ``k`` must be an integer in 1..n_alive-1, so that some node is left.
    """
    k = graph._size(k, "budget k", 1)
    if k >= g.n_alive():
        raise ValueError(f"budget k={k} must be below the {g.n_alive()} alive nodes")
    g0, removed = g, []
    for _ in range(k):
        q = np.asarray(score(g))
        if q.shape != (g.n,):
            raise ValueError(f"score gave shape {q.shape}; it must give one value per node id, shape ({g.n},)")
        a = decoder.select_action(q, 0.0, None)
        g = graph.remove_nodes(g, [a])
        removed.append(a)
    return Solution(removed, graph.prefix_objectives(g0, removed))
