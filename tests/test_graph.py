import copy
import pickle
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import (
    benchmark_file,
    bfs_components,
    brute_pairwise,
    complete_graph,
    corpus_graphs,
    cycle_graph,
    dense_attention_mask,
    entry_dots_at_once,
    loop_gen_ba,
    neighbor_lists,
    pairwise_gen_er,
    path_graph,
    per_head_spmm,
    random_graph,
    reduceat_row_max,
    reduceat_row_sums,
    slot_weighted_row_sums,
    sparse_patterns,
    star_graph,
    with_layout,
)
from critnet import autodiff as ad
from critnet import graph as graph_module
from critnet.decoder import Model, init_decoder_params
from critnet.encoder import attention_mask, init_encoder_params
from critnet.features import aggregate_features, degree_vector
from critnet.graph import (
    BLOCK_ROWS,
    TAIL_ROWS,
    Graph,
    GraphBatch,
    GraphParseError,
    SparsePattern,
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
    residual,
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

    def test_negative_id_reports_line(self):
        with pytest.raises(GraphParseError, match="line 2: negative node id in '3 -1'"):
            parse_edge_list("0 1\n3 -1")

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

    def test_a_residual_view_is_not_formatted(self):
        # the stored graph holds dead nodes' edges: read back, it would have connectivity 15, not the view's 6
        g = remove_nodes(gen_ba(6, 2, 1), [0])
        assert pairwise_connectivity(g) == 6
        with pytest.raises(ValueError, match="1 removed node"):
            format_edge_list(g)
        with pytest.raises(ValueError, match="3 removed node"):
            format_edge_list(remove_nodes(g, [2, 4]))


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
            check_components(g)
            check_components(shuffled(g, rng, dead_fraction=0.3))
        # a path or ring with scattered ids takes the engine the most rounds
        n = 2000
        for ring in (False, True):
            chain = build_graph(n, [(i, (i + 1) % n) for i in range(n - 1 + ring)])
            check_components(shuffled(chain, rng))
            check_components(shuffled(chain, rng, dead_fraction=0.1))

    @given(corpus_graphs(), st.integers(0, 2**32 - 1))
    def test_matches_bfs_oracle_on_shuffled_residual_graphs(self, g, seed):
        check_components(g)
        check_components(shuffled(g, np.random.default_rng(seed)))


def shuffled(g, rng, dead_fraction=0.0):
    """``g`` with node ids permuted at random, then about ``dead_fraction`` of the alive nodes removed."""
    perm = rng.permutation(g.n)
    alive = np.empty(g.n, dtype=bool)
    alive[perm] = g.alive & (rng.random(g.n) >= dead_fraction)
    return Graph(build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges]).pattern, alive)


def check_components(g):
    """Components equal the BFS oracle's, labelled by size descending, then smallest member id."""
    part = connected_components(g)
    members = [np.flatnonzero(part.component_id == label) for label in range(len(part.sizes))]
    assert {frozenset(c.tolist()) for c in members} == bfs_components(g)
    assert part.sizes == [len(c) for c in members]
    order = [(-len(c), int(c[0])) for c in members]
    assert order == sorted(order)
    assert np.array_equal(part.component_id < 0, ~g.alive)


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
    g = Graph(build_graph(n, edges).pattern, alive)
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
    batch = GraphBatch.of([g])
    assert np.array_equal(dense_attention_mask(batch), dense)
    assert attention_mask(batch) is sub
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


class TestOneResidualPerState:
    """``residual`` builds a state's CSR once and hands every reader that one frozen object."""

    def test_every_live_view_of_a_state_returns_one_read_only_pattern(self):
        g = gen_ba(60, 2, 3)
        state = remove_nodes(g, [0, 7])
        sub = residual(state)
        assert all(not a.flags.writeable for a in sub)
        views = [
            Graph(g.pattern, state.alive.copy()),
            Graph(state.pattern, state.alive),
            remove_nodes(remove_nodes(g, [7]), [0]),
        ]
        assert all(residual(v) is sub for v in views)
        assert residual(g) is not sub and residual(remove_nodes(g, [0])) is not sub

    def test_features_q_full_objective_and_batch_build_the_csr_once(self):
        g = remove_nodes(gen_ba(60, 2, 4), [5])
        rng = np.random.default_rng(5)
        model = Model(init_encoder_params(rng), init_decoder_params(rng))
        spy = mock.Mock(wraps=SparsePattern)
        with mock.patch.object(graph_module, "SparsePattern", spy):
            aggregate_features(g)
            model.q_full(g)
            pairwise_connectivity(g)
            batch = GraphBatch.of([g])
        assert spy.call_count == 1
        assert batch.pattern is residual(g)


class TestBuildGraph:
    @pytest.mark.parametrize(
        "n, edges, message",
        [
            (3, [(0, 1), (2, 2)], "self-loop at node 2"),
            (3, [(0, 1), (1, 3)], "edge (1, 3) outside id range 0..2"),
            (3, [(-1, 1)], "edge (-1, 1) outside id range 0..2"),
            (3, [(0, 1), (1, 2), (0, 1)], "duplicate edge (0, 1)"),
            (3, [(0, 1), (1, 2), (2, 1)], "duplicate edge (2, 1)"),
            (3, [(0, 1), (0, 1), (2, 2)], "duplicate edge (0, 1)"),
            (3, [(2, 2), (0, 1), (0, 1)], "self-loop at node 2"),
            (3, [(0, 1), (1, 5), (1, 0)], "edge (1, 5) outside id range 0..2"),
            (3, [(0, 2**70)], f"edge (0, {2**70}) outside id range 0..2"),
            (3, [(0.5, 1)], "edge (0.5, 1) has a non-integer node id"),
            (3, [(0, 1), (1, "2")], "edge (1, '2') has a non-integer node id"),
            (3, [(True, 2)], "edge (True, 2) has a non-integer node id"),
            (-1, [], "n must be >= 0, got -1"),
            (3.0, [(0, 1)], "n must be an integer, got 3.0"),
            (-2, [(0, 1)], "n must be >= 0, got -2"),
        ],
        ids=[
            "self-loop",
            "id-equals-n",
            "negative-id",
            "duplicate",
            "duplicate-reversed",
            "duplicate-before-self-loop",
            "self-loop-before-duplicate",
            "range-before-duplicate",
            "id-beyond-int64",
            "float-id",
            "string-id",
            "bool-id",
            "negative-n",
            "float-n",
            "negative-n-with-an-edge",
        ],
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

    @given(residual_graphs(), st.sampled_from([np.int32, np.int64, np.uint8]))
    def test_an_integer_array_builds_the_list_graph(self, case, dtype):
        n, edges, _ = case
        want = build_graph(n, edges)
        got = build_graph(n, np.array(edges, dtype=dtype).reshape(-1, 2))
        assert all(np.array_equal(a, b) for a, b in zip(got.pattern, want.pattern))

    @pytest.mark.parametrize(
        "edges",
        [
            np.array([[0.0, 1.0]]),
            np.array([0, 1]),
            np.array([[0, 1, 2]]),
            np.array([[True, False]]),
            np.array([[0, 1]], dtype=object),
        ],
        ids=["float", "one-dimensional", "three-columns", "bool", "object"],
    )
    def test_rejects_an_array_that_is_not_m_by_2_integers(self, edges):
        with pytest.raises(ValueError, match="an edge array must be \\(m, 2\\) of integers"):
            build_graph(3, edges)

    @pytest.mark.parametrize(
        "edges, dtype, message",
        [
            ([(0, 1), (2, 2)], np.int64, "self-loop at node 2"),
            ([(0, 1), (1, 3)], np.int32, "edge (1, 3) outside id range 0..2"),
            ([(-1, 1)], np.int8, "edge (-1, 1) outside id range 0..2"),
            ([(0, 1), (1, 2), (2, 1)], np.uint8, "duplicate edge (2, 1)"),
            ([(0, 1), (1, 5), (1, 0)], np.int64, "edge (1, 5) outside id range 0..2"),
            ([(0, 2**63 + 5)], np.uint64, f"edge (0, {2**63 + 5}) outside id range 0..2"),
        ],
        ids=["self-loop", "id-equals-n", "negative-id", "duplicate-reversed", "range-before-duplicate", "id-beyond-int64"],
    )
    def test_an_array_names_its_first_bad_edge(self, edges, dtype, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build_graph(3, np.array(edges, dtype=dtype))


class TestPairwiseConnectivity:
    def test_connected_121(self):
        assert pairwise_connectivity(path_graph(121)) == 7260

    def test_path_remove_middle(self):
        assert pairwise_connectivity(remove_nodes(path_graph(3), [1])) == 0

    def test_component_sizes_3_and_2(self):
        g = build_graph(5, [(0, 1), (1, 2), (3, 4)])
        assert pairwise_connectivity(g) == 4

    def test_against_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            g = random_graph(rng)
            k = int(rng.integers(0, g.n // 3 + 1))
            removed = rng.choice(g.n, size=k, replace=False).tolist()
            assert pairwise_connectivity(remove_nodes(g, removed)) == brute_pairwise(g, removed)

    @given(st.integers(2, 25), st.integers(0, 2**31 - 1), st.floats(0.0, 0.5))
    def test_monotone_under_removal(self, n, seed, p):
        g = gen_er(n, p, seed)
        f0 = pairwise_connectivity(g)
        rng = np.random.default_rng(seed)
        v = int(rng.integers(n))
        comp_size = 0
        part = connected_components(g)
        comp_size = part.sizes[part.component_id[v]]
        f1 = pairwise_connectivity(remove_nodes(g, [v]))
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

    @pytest.mark.parametrize(
        "node, message",
        [
            (1.5, "node id 1.5 is not an integer"),
            (1.0, "node id 1.0 is not an integer"),
            ("1", "node id '1' is not an integer"),
            (True, "node id True is not an integer"),
            (np.True_, "node id np.True_ is not an integer"),
            (-1, "node id -1 outside id range 0..3"),
            (4, "node id 4 outside id range 0..3"),
        ],
        ids=["float", "integral-float", "string", "bool", "numpy-bool", "negative", "equals-n"],
    )
    def test_rejects_a_bad_node_id(self, node, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            remove_nodes(path_graph(4), [node])

    def test_accepts_numpy_integer_ids(self):
        assert remove_nodes(path_graph(4), [np.int64(1), np.int32(2)]).alive.tolist() == [True, False, False, True]

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


class TestPrefixObjectives:
    @given(corpus_graphs(), st.data())
    def test_every_prefix_matches_brute_force(self, g, data):
        order = data.draw(st.permutations(g.alive_ids().tolist()))  # every alive node of a residual view
        curve = prefix_objectives(g, order)
        assert curve == [brute_pairwise(g, order[:j]) for j in range(len(order) + 1)]
        assert curve[-1] == 0 and all(type(c) is int for c in curve)
        j = data.draw(st.integers(0, len(order)))
        assert prefix_objectives(g, order[:j]) == curve[: j + 1]
        assert prefix_objectives(g, []) == curve[:1]

    def test_takes_any_iterable_and_leaves_the_graph_alone(self):
        g = path_graph(5)
        assert prefix_objectives(g, iter(np.array([2, 0]))) == [10, 2, 1]
        assert g.alive.all()

    @pytest.mark.parametrize(
        "order, message",
        [
            ([3, 1, 3], "node 3 is already removed"),
            ([1, 0], "node 0 is already removed"),
            ([5], "node id 5 outside id range 0..4"),
            ([-1], "node id -1 outside id range 0..4"),
            ([1.0], "node id 1.0 is not an integer"),
            (["2"], "node id '2' is not an integer"),
            ([True], "node id True is not an integer"),
            ([np.True_], "node id np.True_ is not an integer"),
        ],
        ids=["duplicate", "dead", "equals-n", "negative", "float", "string", "bool", "numpy-bool"],
    )
    def test_a_bad_id_raises_remove_nodes_error(self, order, message):
        view = remove_nodes(path_graph(5), [0])
        with pytest.raises(ValueError, match=re.escape(message)):
            prefix_objectives(view, order)


CONSTRUCTORS = {
    "build_graph": lambda: build_graph(4, [(0, 1), (1, 2)]),
    "parse_edge_list": lambda: parse_edge_list("0 1\n1 2\n").graph,
    "gen_ba": lambda: gen_ba(10, 2, 0),
    "gen_er": lambda: gen_er(10, 0.3, 0),
    "gen_ws": lambda: gen_ws(10, 4, 0.2, 0),
    "remove_nodes": lambda: remove_nodes(path_graph(4), [1]),
    "Graph": lambda: Graph(path_graph(4).pattern, np.array([True, False, True, True])),
}


class TestImmutableViews:
    @pytest.mark.parametrize("make", CONSTRUCTORS.values(), ids=CONSTRUCTORS.keys())
    def test_alive_is_read_only(self, make):
        g = make()
        assert not g.alive.flags.writeable
        assert g.alive.dtype == bool
        with pytest.raises(ValueError, match="read-only"):
            g.alive[0] = not g.alive[0]
        with pytest.raises(ValueError, match="read-only"):
            g.alive[:] = True
        with pytest.raises(AttributeError):
            g.alive = np.ones(g.n, dtype=bool)
        assert all(not a.flags.writeable for a in g.pattern)

    def test_views_keep_their_own_mask(self):
        g = path_graph(4)
        mask = np.array([True, False, True, True])
        view = Graph(g.pattern, mask)
        mask[0] = False
        assert view.alive.tolist() == [True, False, True, True]
        assert remove_nodes(view, [2]).alive.tolist() == [True, False, False, True]
        assert view.alive.tolist() == [True, False, True, True]
        assert Graph(g.pattern, g.alive).alive is not g.alive

    @pytest.mark.parametrize("make", CONSTRUCTORS.values(), ids=CONSTRUCTORS.keys())
    def test_node_count_is_read_from_the_pattern(self, make):
        g = make()
        assert g.n == g.pattern.n == len(g.alive)
        assert Graph(g.pattern, g.alive).n == g.n

    @pytest.mark.parametrize("length", [3, 5])
    def test_mask_of_another_length_rejected(self, length):
        g = path_graph(4)
        mask = np.ones(length, dtype=bool)
        with pytest.raises(ValueError, match=rf"shape \({length},\) does not match 4 nodes"):
            Graph(g.pattern, mask)
        with pytest.raises(ValueError, match=r"shape \(1, 4\) does not match 4 nodes"):
            Graph(g.pattern, np.ones((1, 4), dtype=bool))

    @pytest.mark.parametrize("value", [0.5, 2, -1, np.nan])
    def test_mask_values_other_than_0_and_1_rejected(self, value):
        g = path_graph(4)
        mask = np.array([1, 0, value, value])
        with pytest.raises(ValueError, match=rf"alive mask holds {value} at node 2; only 0 and 1 are allowed"):
            Graph(g.pattern, mask)
        assert Graph(g.pattern, [1, 0, 1, 1]).memo is Graph(g.pattern, np.array([True, False, True, True])).memo

    def test_list_mask_accepted(self):
        g = path_graph(4)
        view = Graph(g.pattern, [True, False, True, True])
        assert view.alive.tolist() == [True, False, True, True]
        assert view.memo is Graph(g.pattern, np.array([True, False, True, True])).memo

    @pytest.mark.parametrize("make", CONSTRUCTORS.values(), ids=CONSTRUCTORS.keys())
    def test_pickle_round_trip_rebuilds_an_immutable_view(self, make):
        g = make()
        g.memo["aggregate"] = aggregate_features(g)
        loaded = pickle.loads(pickle.dumps(g))
        assert loaded.memo == {}
        assert not loaded.alive.flags.writeable
        assert all(not a.flags.writeable for a in loaded.pattern)
        with pytest.raises(ValueError, match="read-only"):
            loaded.alive[0] = not loaded.alive[0]
        assert loaded.n == g.n
        assert loaded.edges == g.edges
        assert np.array_equal(loaded.alive, g.alive)
        assert pairwise_connectivity(loaded) == pairwise_connectivity(g)
        assert np.array_equal(aggregate_features(loaded), aggregate_features(g))
        assert np.array_equal(aggregate_features(loaded), g.memo["aggregate"])
        assert remove_nodes(loaded, [loaded.alive_ids()[0]]).memo == {}

    def test_arrays_from_outside_are_copied_and_frozen(self):
        g = path_graph(4)
        outside = [np.array(a) for a in g.pattern]
        view = Graph(SparsePattern(*outside), g.alive)
        assert all(a.flags.writeable for a in outside)
        assert all(not a.flags.writeable and not np.shares_memory(a, b) for a, b in zip(view.pattern, outside))
        outside[2][:] = 0  # the caller's arrays stay its own
        assert view.edges == g.edges

    def test_batched_unions_and_hand_built_patterns_are_read_only(self):
        states = [gen_ba(30, 2, 1), remove_nodes(gen_er(20, 0.2, 2), [4])]
        batch = GraphBatch.of(states).pattern
        union = graph_module.disjoint_union([residual(s) for s in states])
        hand_built = SparsePattern(*(np.array(a) for a in path_graph(4).pattern))
        for p in (batch, union, hand_built):
            p.row_sums(np.ones(len(p.rows)))  # with its layout cached, a write would reach only some readers
            for a in p:
                with pytest.raises(ValueError, match="read-only"):
                    a[:1] = 0

    def test_deep_copies_share_the_immutable_view(self):
        g = remove_nodes(path_graph(4), [1])
        copied = copy.deepcopy({"state": g, "alive": g.alive})
        assert copied["state"] is g
        assert not copied["state"].alive.flags.writeable
        assert copied["alive"] is not g.alive


class TestMemoTable:
    """A pattern holds the memo table, so every live view of it under one mask finds one memo."""

    def test_a_view_of_another_graph_leaves_this_ones_memo_alone(self):
        a, b = gen_er(12, 0.2, 1), gen_er(12, 0.2, 5)
        assert np.array_equal(a.alive, b.alive) and a.edges != b.edges
        with pytest.raises(TypeError):
            Graph(b.pattern, b.alive, a.pattern.memos)  # a view takes no memo table
        view = Graph(b.pattern, b.alive)
        assert view.memo is b.memo and view.memo is not a.memo
        assert pairwise_connectivity(view) == pairwise_connectivity(b) == brute_pairwise(b)
        assert pairwise_connectivity(a) == brute_pairwise(a) == 46

    @pytest.mark.parametrize("nodes", [[0], [3, 1], [5, 0, 9]])
    def test_a_view_built_from_the_pattern_shares_the_memo_of_remove_nodes(self, nodes):
        g = gen_ba(20, 2, 6)
        mask = g.alive.copy()
        mask[nodes] = False
        state = remove_nodes(g, nodes)
        assert Graph(g.pattern, mask).memo is state.memo
        assert Graph(state.pattern, mask).memo is remove_nodes(Graph(g.pattern, g.alive), nodes[::-1]).memo
        assert state.memo is not g.memo

    def test_views_pickled_together_share_one_pattern_and_one_memo_per_state(self):
        g = gen_ba(200, 2, 7)
        views = [g, remove_nodes(g, [3]), remove_nodes(g, [3]), remove_nodes(g, [3, 8])]
        loaded = pickle.loads(pickle.dumps(views))
        assert all(v.pattern is loaded[0].pattern for v in loaded)
        assert all(not a.flags.writeable for a in loaded[0].pattern)
        assert loaded[1].memo is loaded[2].memo
        assert len({id(v.memo) for v in loaded}) == len(loaded[0].pattern.memos) == 3
        assert [pairwise_connectivity(v) for v in loaded] == [pairwise_connectivity(v) for v in views]


# the module's cut-off, and one that never cuts: every slot runs, there is no tail
CUTOFFS = {"module-cutoff": TAIL_ROWS, "no-tail": 1}
# sparse_patterns() stops at 4 * TAIL_ROWS rows, one module block: 1 and 7 reach later blocks,
# blocks that end inside a slot, and (with 7) blocks whose rank count is not a multiple of 4
BLOCKS = {"module-block": BLOCK_ROWS, "one-row": 1, "seven-rows": 7}


class TestSlotLayout:
    @pytest.mark.parametrize("cutoff", CUTOFFS.values(), ids=CUTOFFS.keys())
    @given(p=sparse_patterns())
    def test_every_entry_is_visited_exactly_once(self, cutoff, p):
        lay = with_layout(p, cutoff).layout
        # perm is a permutation of the entries; its first n, slot 0, name every row once, by degree
        assert np.array_equal(np.sort(lay.perm), np.arange(len(p.rows)))
        order = p.rows[lay.perm[: p.n]]
        degree = np.diff(p.indptr)
        assert np.array_equal(order, np.argsort(-degree, kind="stable"))
        assert lay.counts[0] == p.n and all(c >= cutoff for c in lay.counts[1:])
        assert list(lay.counts) == sorted(lay.counts, reverse=True) and lay.head == sum(lay.counts)
        for slot, (c, o) in enumerate(zip(lay.counts, lay.offsets)):
            # slot j holds entry j of the c rows of lowest rank, by rank
            assert np.array_equal(lay.perm[o : o + c], p.indptr[order[:c]] + slot)
        # each open row's tail is the rest of its entries, in column order
        bounds = np.append(lay.tail_starts, len(p.rows) - lay.head) + lay.head
        for rank, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            row = order[rank]
            assert np.array_equal(lay.perm[lo:hi], np.arange(p.indptr[row] + len(lay.counts), p.indptr[row + 1]))
        assert len(lay.tail_starts) == np.count_nonzero(degree > len(lay.counts)) < cutoff

    @given(p=sparse_patterns())
    def test_slot_0_holds_every_row_and_the_arrays_one_integer_per_entry(self, p):
        # edgeless, one-node and under-TAIL_ROWS patterns too: there is no layout without a slot
        lay = p.layout
        assert lay.counts[0] == p.n and lay.offsets[0] == 0
        assert np.array_equal(p.rows[lay.perm[: p.n]], np.argsort(-np.diff(p.indptr), kind="stable"))
        # perm, one per entry, and tail_starts, one per open row: fewer than TAIL_ROWS of them at any n
        sizes = [a.size for a in lay if isinstance(a, np.ndarray)]
        assert sum(sizes) <= len(p.rows) + TAIL_ROWS and len(sizes) == 2

    def test_the_blocked_kernels_form_no_n_by_hd_scratch(self):
        # a WS lattice: almost every row ends in the slots, so the tails are a few entries
        p = residual(gen_ws(3000, 4, 0.1, 11))
        rng = np.random.default_rng(12)
        w, (x, y) = rng.standard_normal((len(p.rows), 8)), rng.standard_normal((2, p.n, 96))
        p.layout
        block = 2 * BLOCK_ROWS * 96 * 8
        for kernel, result, scratch in (
            # w and the columns in slot order, acc and part
            (lambda: p.weighted_row_sums(w, x), x.nbytes, w.nbytes + p.cols.nbytes + block),
            (lambda: p.entry_dots(y, x, 8), w.nbytes, block),  # by_row and part
        ):
            tracemalloc.start()
            try:
                kernel()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # and numpy's 64 KB ufunc buffer for the broadcast weights: one more n x 96 array would exceed it
            assert peak < result + scratch + 128 * 1024

    def test_the_block_size_is_read_when_the_kernel_runs(self):
        # a layout built under the module's block size: a smaller one patched in later must bound the scratch
        p = residual(gen_ws(3000, 4, 0.1, 11))
        rng = np.random.default_rng(14)
        w, x = rng.standard_normal((len(p.rows), 8)), rng.standard_normal((p.n, 96))
        p.layout
        with mock.patch.object(graph_module, "BLOCK_ROWS", 16):
            tracemalloc.start()
            try:
                sums = p.weighted_row_sums(w, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert np.array_equal(sums, slot_weighted_row_sums(p, w, x))
        # w and the columns in slot order, acc and part of 16 rows each: blocks of BLOCK_ROWS rows would exceed it
        assert peak < sums.nbytes + w.nbytes + p.cols.nbytes + 2 * 16 * 96 * 8 + 128 * 1024

    @pytest.mark.parametrize("g", [path_graph(5), gen_ba(100, 2, 15)], ids=["under-cutoff", "slots"])
    def test_the_kernels_keep_their_sign_of_zero_on_every_path(self, g):
        # rows of -0.0: every kernel starts from the row's first entry, in slot 0, as reduceat does
        p = residual(g)
        zeros = np.full((len(p.rows), 8), -0.0)
        assert p.layout.counts[0] == p.n and len(p.layout.tail_starts)
        assert np.signbit(p.weighted_row_sums(zeros, np.ones((p.n, 16)))).all()
        assert np.signbit(p.row_sums(zeros)).all() and np.signbit(reduceat_row_sums(p, zeros)).all()
        assert np.signbit(p.row_max(zeros)).all()

    def test_a_star_hub_finishes_in_the_tail(self):
        p = residual(star_graph(3 * TAIL_ROWS))
        lay = p.layout
        assert lay.counts == (3 * TAIL_ROWS, 3 * TAIL_ROWS)  # every leaf holds the hub and itself
        assert p.rows[lay.perm[0]] == 0 and lay.tail_starts.tolist() == [0] and len(lay.perm) - lay.head == 3 * TAIL_ROWS - 2

    @pytest.mark.parametrize("cutoff", CUTOFFS.values(), ids=CUTOFFS.keys())
    @given(p=sparse_patterns(), heads=st.sampled_from([1, 8]), seed=st.integers(0, 2**31 - 1))
    def test_row_sums_and_row_max_match_reduceat(self, cutoff, p, heads, seed):
        p = with_layout(p, cutoff)
        values = np.random.default_rng(seed).standard_normal((len(p.rows), heads))
        np.testing.assert_allclose(p.row_sums(values), reduceat_row_sums(p, values), rtol=0, atol=1e-12)
        assert np.array_equal(p.row_max(values), reduceat_row_max(p, values))
        assert np.array_equal(p.row_sums(values[:, 0]), p.row_sums(values)[:, 0])

    @pytest.mark.parametrize("block", BLOCKS.values(), ids=BLOCKS.keys())
    @pytest.mark.parametrize("cutoff", CUTOFFS.values(), ids=CUTOFFS.keys())
    @pytest.mark.parametrize("d", [8, 12])
    @given(p=sparse_patterns(), seed=st.integers(0, 2**31 - 1))
    def test_weighted_row_sums_and_entry_dots_match_per_head_products(self, cutoff, block, d, p, seed):
        p = with_layout(p, cutoff)
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((len(p.rows), 8))
        x, y = rng.standard_normal((2, p.n, 8 * d))
        with mock.patch.object(graph_module, "BLOCK_ROWS", block):  # read at call time
            sums, dots = p.weighted_row_sums(w, x), p.entry_dots(y, x, 8)
        assert np.array_equal(sums, slot_weighted_row_sums(p, w, x))
        assert np.array_equal(dots, entry_dots_at_once(p, y, x, 8))
        want = per_head_spmm(ad.tensor(w), p, ad.tensor(x)).data
        np.testing.assert_allclose(sums, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dots, (y[p.rows] * x[p.cols]).reshape(len(p.rows), 8, d).sum(axis=2), rtol=0, atol=1e-12)

    def test_layout_is_built_once_by_the_first_kernel_call(self):
        spy = mock.Mock(wraps=graph_module._slot_layout)
        with mock.patch.object(graph_module, "_slot_layout", spy):
            g = remove_nodes(gen_ba(300, 2, 7), [0, 5])
            p = residual(g)
            pairwise_connectivity(g)
            aggregate_features(g)
            p.entry_dots(*np.ones((2, p.n, 8)), 8)  # a per-entry kernel: it walks the CSR entries
            assert spy.call_count == 0
            p.row_sums(np.ones(len(p.rows)))
            p.row_max(np.ones(len(p.rows)))
            assert spy.call_count == 1
            rng = np.random.default_rng(8)
            Model(init_encoder_params(rng), init_decoder_params(rng)).q_full(g)
            assert spy.call_count == 1  # the forward reads the state's own pattern, layout and all

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))])
    def test_copies_and_frozen_patterns_leave_the_layout_out(self, clone):
        g = gen_ba(100, 2, 9)
        g.pattern.row_sums(np.ones(len(g.pattern.rows)))
        assert "layout" in vars(g.pattern)
        copied = clone(g.pattern)
        assert "layout" not in vars(copied) and len(copied) == 4
        assert all(np.array_equal(a, b) for a, b in zip(copied, g.pattern))
        assert "layout" not in vars(pickle.loads(pickle.dumps(g)).pattern)


class TestEntryDots:
    """``entry_dots`` walks the CSR entries ``BLOCK_ROWS`` at a time and reads no slot layout."""

    @pytest.mark.parametrize("block", [1, 7, BLOCK_ROWS])
    @pytest.mark.parametrize("heads", [1, 3, 4, 5, 8])
    @given(p=sparse_patterns(), d=st.sampled_from([8, 12]), seed=st.integers(0, 2**31 - 1))
    def test_any_block_matches_one_product_over_all_entries(self, block, heads, p, d, seed):
        p = SparsePattern(*p)  # a fresh pattern, with no layout yet
        a, b = np.random.default_rng(seed).standard_normal((2, p.n, heads * d))
        with mock.patch.object(graph_module, "BLOCK_ROWS", block):
            dots = p.entry_dots(a, b, heads)
        want = entry_dots_at_once(p, a, b, heads)
        if heads % 4:  # OpenBLAS may sum a few dots' d terms in another order
            np.testing.assert_allclose(dots, want, rtol=0, atol=1e-12)
        else:
            assert np.array_equal(dots, want)
        assert "layout" not in vars(p)

    def test_a_hub_adds_no_scratch(self):
        p = residual(star_graph(3001))  # one row of 3001 entries
        a, b = np.random.default_rng(13).standard_normal((2, p.n, 96))
        tracemalloc.start()
        try:
            dots = p.entry_dots(a, b, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the result and two blocks of rows, by_row and part; the hub's 3001 rows of b alone would exceed it
        assert peak < dots.nbytes + 2 * BLOCK_ROWS * 96 * 8 + 128 * 1024


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
        assert gen_er(n, p, seed).edges == pairwise_gen_er(n, p, seed).edges

    @given(st.integers(2, 60), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1), st.integers(1, 40))
    def test_er_chunks_split_rows_anywhere(self, n, p, seed, chunk):
        with mock.patch.object(graph_module, "ER_CHUNK", chunk):
            assert gen_er(n, p, seed).edges == pairwise_gen_er(n, p, seed).edges

    def test_er_spans_several_draw_chunks(self):
        n = 1000  # 499500 pairs: three full chunks and part of a fourth
        assert n * (n - 1) // 2 > 3 * graph_module.ER_CHUNK
        assert gen_er(n, 4.0 / (n - 1), 5).edges == pairwise_gen_er(n, 4.0 / (n - 1), 5).edges

    @given(st.integers(1, 5).flatmap(lambda m: st.tuples(st.integers(m + 1, 400), st.just(m))), st.integers(0, 2**64 - 1))
    def test_ba_matches_scalar_draws(self, n_m, seed):
        n, m_attach = n_m
        assert gen_ba(n, m_attach, seed).edges == loop_gen_ba(n, m_attach, seed).edges

    def test_ba_matches_scalar_draws_on_every_small_case(self):
        for n in range(2, 60):
            for m_attach in range(1, min(n, 5)):
                for seed in range(4):
                    assert gen_ba(n, m_attach, seed).edges == loop_gen_ba(n, m_attach, seed).edges, (n, m_attach, seed)

    @pytest.mark.parametrize("n, seed", [(1000, 1), (1000, 2), (1000, 3), (5000, 1)])
    def test_ba_matches_scalar_draws_at_benchmark_sizes(self, n, seed):
        assert gen_ba(n, 2, seed).edges == loop_gen_ba(n, 2, seed).edges

    @pytest.mark.parametrize("window", [1, 10**6])
    def test_ba_does_not_depend_on_the_window(self, window):
        # one arrival per window, or one window up to each repeat
        with mock.patch.object(graph_module, "BA_WINDOW_MIN", window):
            for n, m_attach, seed in [(300, 2, 7), (200, 4, 8), (100, 1, 9)]:
                assert gen_ba(n, m_attach, seed).edges == loop_gen_ba(n, m_attach, seed).edges

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
            lambda: gen_ba(10, 2.0, 0),
            lambda: gen_er(10.0, 0.3, 0),
            lambda: gen_ws(10, 4.0, 0.1, 0),
        ],
    )
    def test_parameter_validation(self, call):
        with pytest.raises(ValueError):
            call()

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: gen_ba(10, 2.0, 0), "m_attach must be an integer, got 2.0"),
            (lambda: gen_ba("10", 2, 0), "n must be an integer, got '10'"),
            (lambda: gen_er(10.0, 0.3, 0), "n must be an integer, got 10.0"),
            (lambda: gen_ws(10, 4.0, 0.1, 0), "k_ring must be an integer, got 4.0"),
            (lambda: gen_ws(10.5, 4, 0.1, 0), "n must be an integer, got 10.5"),
            (lambda: gen_ba(10, True, 0), "m_attach must be an integer, got True"),
            (lambda: gen_er(np.True_, 0.3, 0), "n must be an integer, got np.True_"),
        ],
        ids=["ba-m_attach", "ba-n", "er-n", "ws-k_ring", "ws-n", "ba-bool-m_attach", "er-numpy-bool-n"],
    )
    def test_a_non_integer_size_is_named(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()

    def test_numpy_integer_sizes_are_accepted(self):
        assert gen_ba(np.int64(30), np.int32(2), 1).edges == gen_ba(30, 2, 1).edges
        assert gen_ws(np.int64(30), np.uint8(4), 0.2, 1).edges == gen_ws(30, 4, 0.2, 1).edges
        assert gen_er(np.int16(30), 0.2, 1).edges == gen_er(30, 0.2, 1).edges
