"""critnet: critical node detection toolkit for sparse undirected networks."""

from critnet.graph import (
    ComponentPartition,
    Graph,
    GraphParseError,
    build_graph,
    connected_components,
    format_edge_list,
    gen_ba,
    gen_er,
    gen_ws,
    pairwise_connectivity,
    parse_edge_list,
    prefix_objectives,
    remove_nodes,
)
from critnet.solve import Solution, degree_scores, solve_greedy

__version__ = "0.1.0"

__all__ = [
    "ComponentPartition",
    "Graph",
    "GraphParseError",
    "Solution",
    "build_graph",
    "connected_components",
    "degree_scores",
    "format_edge_list",
    "gen_ba",
    "gen_er",
    "gen_ws",
    "pairwise_connectivity",
    "parse_edge_list",
    "prefix_objectives",
    "remove_nodes",
    "solve_greedy",
    "__version__",
]
