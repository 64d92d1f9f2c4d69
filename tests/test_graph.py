import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import (
    benchmark_file,
    bfs_components,
    brute_pairwise,
    complete_graph,
    cycle_graph,
    dense_attention_mask,
    neighbor_lists,
    path_graph,
    random_graph,
)
from critnet.encoder import attention_mask
from critnet.features import degree_vector
from critnet.graph import (
    GraphParseError,
    build_graph,
    connected_components,
    format_edge_list,
    gen_ba,
    gen_er,
    gen_ws,
    pairwise_connectivity,
    parse_edge_list,
    remove_nodes,
    residual,
    with_alive_mask,
)


class TestParse:
    def test_path(self):
        g, dropped = parse_edge_list("0 1\n1 2")
        assert (g.n, g.m, dropped) == (3, 2, 0)

    def test_dedup_and_self_loop(self):
        g, dropped = parse_edge_list("0 1\n0 1\n1 1")
        assert (g.n, g.m, dropped) == (2, 1, 2)

    def test_comments_and_arbitrary_ids(self):
        g, _ = parse_edge_list("# header\n% other comment\n10 20\n20 30\n")
        assert (g.n, g.m) == (3, 2)
        # first-appearance remap: 10->0, 20->1, 30->2
        assert sorted(neighbor_lists(g)[1]) == [0, 2]

    def test_malformed_token_reports_line(self):
        with pytest.raises(GraphParseError, match="line 2"):
            parse_edge_list("0 1\n2 x")

    def test_single_token_line(self):
        with pytest.raises(GraphParseError, match="line 1"):
            parse_edge_list("7")

    def test_empty_input(self):
        with pytest.raises(GraphParseError, match="empty"):
            parse_edge_list("# nothing\n")

    def test_bovine_benchmark_dimensions(self):
        g, _ = parse_edge_list(benchmark_file("Bovine.txt").read_text())
        assert (g.n, g.m) == (121, 190)

    def test_round_trip_preserves_structure(self):
        # parse -> serialize -> parse; parsed graphs never hold isolated
        # nodes (ids are minted from kept edges), so the cycle is stable
        rng = np.random.default_rng(7)
        for _ in range(20):
            raw = random_graph(rng)
            if raw.m == 0:
                continue
            g1, _ = parse_edge_list(format_edge_list(raw))
            g2, dropped = parse_edge_list(format_edge_list(g1))
            assert dropped == 0
            assert (g2.n, g2.m) == (g1.n, g1.m)
            assert sorted(map(len, neighbor_lists(g1))) == sorted(map(len, neighbor_lists(g2)))


class TestComponents:
    def test_path_all_alive(self):
        part = connected_components(path_graph(3))
        assert part.sizes == [3]
        assert set(part.component_id.tolist()) == {0}

    def test_path_with_dead_middle(self):
        g = remove_nodes(path_graph(3), [1])
        part = connected_components(g)
        assert part.sizes == [1, 1]
        assert part.component_id[1] == -1

    def test_sizes_sum_and_labels(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            g = random_graph(rng)
            kill = rng.choice(g.n, size=g.n // 4, replace=False)
            g = remove_nodes(g, kill.tolist())
            part = connected_components(g)
            assert sum(part.sizes) == g.n_alive()
            assert part.sizes == sorted(part.sizes, reverse=True)
            for label, size in enumerate(part.sizes):
                assert int((part.component_id == label).sum()) == size

    def test_matches_bfs_oracle_on_random_graphs(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = gen_er(int(rng.integers(2, 40)), float(rng.uniform(0, 0.3)), int(rng.integers(2**31)))
            part = connected_components(g)
            got = set()
            for label in range(len(part.sizes)):
                got.add(frozenset(np.flatnonzero(part.component_id == label).tolist()))
            assert got == bfs_components(g)


@st.composite
def residual_graphs(draw):
    """Node count, edges in either orientation and an alive mask, for a graph on 1..20 nodes."""
    n = draw(st.integers(1, 20))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    edges = {}
    for u, v in pairs:
        if u != v:
            edges.setdefault((min(u, v), max(u, v)), (u, v))
    alive = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return n, list(edges.values()), alive


def check_residual(n, edges, alive):
    """Compare residual(g) with the closed neighbourhoods rebuilt from the input edge list."""
    g = with_alive_mask(build_graph(n, edges), alive)
    ids = [v for v in range(n) if alive[v]]
    pos = {v: i for i, v in enumerate(ids)}
    k = len(ids)
    closed = {(i, i) for i in range(k)}
    deg = np.zeros(k, dtype=np.int64)
    for u, v in edges:
        if u in pos and v in pos:
            closed |= {(pos[u], pos[v]), (pos[v], pos[u])}
            deg[pos[u]] += 1
            deg[pos[v]] += 1
    sub = residual(g)
    assert sub.n == k
    assert list(zip(sub.rows.tolist(), sub.cols.tolist())) == sorted(closed)
    assert np.array_equal(sub.indptr, np.searchsorted(sub.rows, np.arange(k + 1)))
    assert np.array_equal(sub.rows[sub.transpose], sub.cols)
    assert np.array_equal(sub.cols[sub.transpose], sub.rows)
    assert np.array_equal(np.diff(sub.indptr) - 1, deg)
    assert np.array_equal(degree_vector(g), deg)
    dense = np.zeros((k, k))
    dense[sub.rows, sub.cols] = 1.0
    assert np.array_equal(dense_attention_mask(g), dense)
    assert all(np.array_equal(a, b) for a, b in zip(attention_mask(g), sub))
    # every residual view shares the stored pattern, so it must stay read-only
    for a in g.pattern:
        with pytest.raises(ValueError, match="read-only"):
            a[:1] = 0


class TestAliveEdges:
    """The alive subgraph's closed-neighbourhood CSR, as ``residual`` builds it."""

    @given(residual_graphs())
    def test_matches_edge_list_oracle(self, case):
        check_residual(*case)

    @pytest.mark.parametrize(
        "n, edges, dead",
        [
            (5, [], []),
            (4, [(0, 1), (1, 2), (2, 3)], [0, 1, 2, 3]),
            (1, [], []),
            (3, [(0, 1), (2, 0), (1, 2)], [1]),
        ],
        ids=["no-edges", "all-dead", "one-node", "one-dead"],
    )
    def test_edge_cases(self, n, edges, dead):
        alive = np.ones(n, dtype=bool)
        alive[dead] = False
        check_residual(n, edges, alive)


class TestBuildGraph:
    @pytest.mark.parametrize(
        "n, edges, message",
        [
            (3, [(0, 1), (2, 2)], "self-loop at node 2"),
            (3, [(0, 1), (1, 3)], "edge (1, 3) outside id range 0..2"),
            (3, [(-1, 1)], "edge (-1, 1) outside id range 0..2"),
            (3, [(0, 1), (1, 2), (0, 1)], "duplicate edge (0, 1)"),
            (3, [(0, 1), (1, 2), (2, 1)], "duplicate edge (2, 1)"),
        ],
        ids=["self-loop", "id-equals-n", "negative-id", "duplicate", "duplicate-reversed"],
    )
    def test_rejects_bad_edges(self, n, edges, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build_graph(n, edges)

    @given(residual_graphs())
    def test_edges_are_the_sorted_input_pairs(self, case):
        n, edges, _ = case
        g = build_graph(n, edges)
        assert g.edges == sorted((min(u, v), max(u, v)) for u, v in edges)
        assert g.m == len(edges)


class TestPairwiseConnectivity:
    def test_connected_121(self):
        assert pairwise_connectivity(path_graph(121)) == 7260

    def test_path_remove_middle(self):
        assert pairwise_connectivity(path_graph(3), [1]) == 0

    def test_component_sizes_3_and_2(self):
        g = build_graph(5, [(0, 1), (1, 2), (3, 4)])
        assert pairwise_connectivity(g) == 4

    def test_against_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            g = random_graph(rng)
            k = int(rng.integers(0, g.n // 3 + 1))
            removed = rng.choice(g.n, size=k, replace=False).tolist()
            assert pairwise_connectivity(g, removed) == brute_pairwise(g, removed)

    @given(st.integers(2, 25), st.integers(0, 2**31 - 1), st.floats(0.0, 0.5))
    def test_monotone_under_removal(self, n, seed, p):
        g = gen_er(n, p, seed)
        f0 = pairwise_connectivity(g)
        rng = np.random.default_rng(seed)
        v = int(rng.integers(n))
        comp_size = 0
        part = connected_components(g)
        comp_size = part.sizes[part.component_id[v]]
        f1 = pairwise_connectivity(g, [v])
        assert f1 <= f0 - (comp_size - 1) <= f0

    def test_full_connectivity_iff_connected(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            g = random_graph(rng)
            f = pairwise_connectivity(g)
            connected = len(connected_components(g).sizes) == 1
            assert (f == g.n * (g.n - 1) // 2) == connected


class TestRemoveNodes:
    def test_k4_minus_one_is_triangle(self):
        g = remove_nodes(complete_graph(4), [0])
        assert pairwise_connectivity(g) == 3

    def test_remove_nothing_is_identity(self):
        g = path_graph(5)
        g2 = remove_nodes(g, [])
        assert np.array_equal(g.alive, g2.alive)
        assert g2.pattern is g.pattern

    def test_original_untouched(self):
        g = path_graph(4)
        remove_nodes(g, [0, 2])
        assert g.alive.all()

    def test_remove_dead_node_errors(self):
        g = remove_nodes(path_graph(4), [1])
        with pytest.raises(ValueError, match="already removed"):
            remove_nodes(g, [1])

    def test_sequential_equals_batch(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            g = random_graph(rng)
            k = int(rng.integers(1, max(2, g.n // 3)))
            nodes = rng.choice(g.n, size=k, replace=False).tolist()
            seq = g
            for v in nodes:
                seq = remove_nodes(seq, [v])
            batch = remove_nodes(g, nodes)
            assert np.array_equal(seq.alive, batch.alive)
            assert pairwise_connectivity(seq) == pairwise_connectivity(batch)


class TestGenerators:
    def test_ba_edge_count_from_star_init(self):
        # star on m+1 nodes (m edges) plus m edges per arriving node
        for n, m_attach, seed in [(50, 2, 0), (50, 3, 1), (30, 1, 2)]:
            g = gen_ba(n, m_attach, seed)
            assert g.m == m_attach * (n - m_attach)

    def test_ba_connected(self):
        g = gen_ba(80, 2, 4)
        assert len(connected_components(g).sizes) == 1

    def test_ws_no_rewire_is_ring_lattice(self):
        g = gen_ws(50, 4, 0.0, 0)
        assert g.m == 100
        assert all(len(adj) == 4 for adj in neighbor_lists(g))

    def test_ws_rewire_preserves_edge_count(self):
        g = gen_ws(60, 4, 0.3, 7)
        assert g.m == 120

    def test_er_zero_probability(self):
        g = gen_er(100, 0.0, 3)
        assert (g.n, g.m) == (100, 0)

    def test_er_full_probability(self):
        g = gen_er(10, 1.0, 3)
        assert g.m == 45

    def test_reproducible(self):
        assert gen_ba(40, 2, 123).edges == gen_ba(40, 2, 123).edges
        assert gen_ws(40, 4, 0.2, 123).edges == gen_ws(40, 4, 0.2, 123).edges
        assert gen_er(40, 0.1, 123).edges == gen_er(40, 0.1, 123).edges

    def test_seed_changes_output(self):
        assert gen_er(40, 0.2, 1).edges != gen_er(40, 0.2, 2).edges

    @given(st.integers(1, 60), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    @example(1, 0.5, 0)
    @example(12, 0.0, 3)
    @example(12, 1.0, 3)
    def test_er_matches_pairwise_draws(self, n, p, seed):
        # oracle: one scalar rng.random() per pair (u, v), u < v, in lexicographic order
        rng = np.random.default_rng(seed)
        want = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        assert gen_er(n, p, seed).edges == want

    @pytest.mark.parametrize(
        "call",
        [
            lambda: gen_ba(3, 3, 0),
            lambda: gen_ba(5, 0, 0),
            lambda: gen_ws(10, 3, 0.1, 0),
            lambda: gen_ws(4, 4, 0.1, 0),
            lambda: gen_ws(10, 4, 1.5, 0),
            lambda: gen_er(10, -0.1, 0),
            lambda: gen_er(0, 0.5, 0),
        ],
    )
    def test_parameter_validation(self, call):
        with pytest.raises(ValueError):
            call()
