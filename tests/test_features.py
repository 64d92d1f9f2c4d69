import warnings

import numpy as np
import pytest

from hypothesis import given

from conftest import (
    complete_graph,
    corpus_graphs,
    cycle_graph,
    degree_centrality,
    dense_adjacency,
    eigh_eigenvector,
    loop_pagerank,
    path_graph,
    random_graph,
    star_graph,
)
from critnet import features
from critnet.features import (
    aggregate_features,
    degree_only_features,
    degree_vector,
    eigenvector_centrality,
    pagerank,
)
from critnet.graph import build_graph, gen_ba, gen_er, gen_ws, remove_nodes


def dense_dominant_eigenvector(g):
    """Oracle: dominant eigenvector from a full symmetric eigendecomposition."""
    ids = g.alive_ids()
    idx = {int(v): i for i, v in enumerate(ids)}
    a = np.zeros((len(ids), len(ids)))
    for u, v in g.edges:
        if g.alive[u] and g.alive[v]:
            a[idx[u], idx[v]] = a[idx[v], idx[u]] = 1.0
    w, vecs = np.linalg.eigh(a)
    vec = vecs[:, -1]
    if vec.sum() < 0:
        vec = -vec
    return w, vec


def dense_pagerank(g, damping=0.85, tol=1e-13, iters=5000):
    """Oracle: power method on the explicit dense Google matrix."""
    ids = g.alive_ids()
    idx = {int(v): i for i, v in enumerate(ids)}
    n = len(ids)
    a = np.zeros((n, n))
    for u, v in g.edges:
        if g.alive[u] and g.alive[v]:
            a[idx[u], idx[v]] = a[idx[v], idx[u]] = 1.0
    deg = a.sum(axis=1)
    m = np.empty((n, n))
    for i in range(n):
        m[i] = a[i] / deg[i] if deg[i] > 0 else 1.0 / n
    google = damping * m + (1.0 - damping) / n
    x = np.full(n, 1.0 / n)
    for _ in range(iters):
        nxt = google.T @ x
        if np.abs(nxt - x).sum() < tol:
            break
        x = nxt
    return x


def dense_matvec_pagerank(g, damping=0.85, tol=1e-8, max_iter=200):
    """Oracle: the same power iteration as ``pagerank`` with a dense transition matrix."""
    a = dense_adjacency(g)
    n = len(a)
    deg = a.sum(axis=1)
    dangling = deg == 0
    p = np.divide(a, deg[:, None], out=np.zeros_like(a), where=deg[:, None] > 0)
    x = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        nxt = damping * (p.T @ x + x[dangling].sum() / n) + (1.0 - damping) / n
        if np.abs(nxt - x).sum() < tol:
            return nxt, True
        x = nxt
    return x, False


class TestDegree:
    def test_path(self):
        assert degree_vector(path_graph(3)).tolist() == [1, 2, 1]

    def test_k4(self):
        assert degree_vector(complete_graph(4)).tolist() == [3, 3, 3, 3]

    def test_residual_isolated_nodes(self):
        g = remove_nodes(path_graph(3), [1])
        assert degree_vector(g).tolist() == [0, 0]


class TestEmptyState:
    """A state with no alive node has an empty degree vector and no other metric."""

    @staticmethod
    def empty():
        return remove_nodes(path_graph(3), [0, 1, 2])

    def test_degree_vector_is_empty(self):
        assert degree_vector(self.empty()).shape == (0,)

    @pytest.mark.parametrize("metric", [eigenvector_centrality, pagerank, aggregate_features, degree_only_features])
    def test_every_other_metric_refuses_it(self, metric):
        with pytest.raises(ValueError, match="no alive nodes to score"):
            metric(self.empty())


class TestDegreeCentrality:
    def test_path(self):
        assert degree_centrality(path_graph(3)).tolist() == [0.5, 1.0, 0.5]

    def test_star_center(self):
        assert degree_centrality(star_graph(5))[0] == 1.0

    def test_single_alive_node(self):
        g = remove_nodes(path_graph(3), [0, 1])
        assert degree_centrality(g).tolist() == [0.0]

    @given(corpus_graphs())
    def test_is_the_second_aggregate_column_before_scaling(self, g):
        col = degree_centrality(g)
        span = col.max() - col.min() if len(col) else 0.0
        want = (col - col.min()) / span if span > 0 else np.zeros_like(col)
        np.testing.assert_allclose(aggregate_features(g)[:, 1], want, rtol=0, atol=1e-12)


class TestEigenvectorCentrality:
    def test_regular_graph_uniform(self):
        for g in (complete_graph(4), cycle_graph(6)):
            scores, converged = eigenvector_centrality(g)
            assert converged
            assert np.allclose(scores, scores[0])

    def test_path_middle_dominates(self):
        scores, converged = eigenvector_centrality(path_graph(3))
        assert converged
        assert scores[1] > scores[0] and scores[1] > scores[2]
        # exact dominant eigenvector of P3 is (1, sqrt(2), 1) / 2
        assert np.allclose(scores, [0.5, np.sqrt(0.5), 0.5], atol=1e-6)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 20:
            g = gen_er(int(rng.integers(4, 16)), float(rng.uniform(0.2, 0.6)), int(rng.integers(2**31)))
            w, expect = dense_dominant_eigenvector(g)
            if len(w) < 2 or w[-1] - w[-2] < 0.05:
                continue  # skip near-degenerate spectra where the oracle is ambiguous
            scores, converged = eigenvector_centrality(g)
            assert converged
            cos = float(scores @ expect)
            assert 1.0 - abs(cos) < 1e-6
            checked += 1

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(23)
        g = gen_er(12, 0.3, 5)
        base = eigenvector_centrality(g).scores
        for _ in range(5):
            perm = rng.permutation(g.n)
            gp = build_graph(g.n, [(int(perm[u]), int(perm[v])) for u, v in g.edges])
            scores = eigenvector_centrality(gp).scores
            assert np.allclose(scores[perm], base, atol=1e-6)


class TestPagerank:
    def test_cycle_uniform(self):
        assert np.allclose(pagerank(cycle_graph(8)).scores, 1.0 / 8, atol=1e-9)

    def test_all_isolated(self):
        g = build_graph(4, [])
        assert np.allclose(pagerank(g).scores, 0.25)

    def test_matches_dense_oracle(self, monkeypatch):
        monkeypatch.setattr(features, "PAGERANK_TOL", 1e-13)
        monkeypatch.setattr(features, "PAGERANK_MAX_ITER", 5000)
        rng = np.random.default_rng(31)
        for _ in range(20):
            g = gen_er(int(rng.integers(3, 16)), float(rng.uniform(0.0, 0.5)), int(rng.integers(2**31)))
            got, converged = pagerank(g)
            assert converged
            assert np.abs(got - dense_pagerank(g)).sum() < 1e-8

    def test_sums_to_one_on_residual_graphs(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            g = random_graph(rng)
            kill = rng.choice(g.n, size=int(rng.integers(0, g.n // 2 + 1)), replace=False)
            g = remove_nodes(g, kill.tolist())
            if g.n_alive() == 0:
                continue
            assert abs(pagerank(g).scores.sum() - 1.0) < 1e-6

    def test_nonconvergence_reported(self, monkeypatch):
        monkeypatch.setattr(features, "PAGERANK_MAX_ITER", 2)
        scores, converged = pagerank(star_graph(6))
        assert not converged
        assert abs(scores.sum() - 1.0) < 1e-12
        monkeypatch.undo()
        assert pagerank(star_graph(6)).converged

    @staticmethod
    def check_converges_by_the_contraction_bound(g, monkeypatch):
        """Step k moves the scores by at most 2 d^k in L1, so the cap can drop to the first k below the tolerance."""
        bound = int(np.ceil(np.log(features.PAGERANK_TOL / 2) / np.log(features.PAGERANK_DAMPING)))
        assert bound == 118 < features.PAGERANK_MAX_ITER
        monkeypatch.setattr(features, "PAGERANK_MAX_ITER", bound)
        assert pagerank(g).converged

    @given(corpus_graphs())
    def test_converges_on_the_corpus(self, g):
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.check_converges_by_the_contraction_bound(g, monkeypatch)

    @pytest.mark.parametrize(
        "make",
        [lambda: gen_ba(1000, 2, 3), lambda: gen_er(1000, 0.004, 4), lambda: gen_ws(1000, 4, 0.1, 5)],
        ids=["ba-1000", "er-1000", "ws-1000"],
    )
    def test_converges_at_n_1000_with_nodes_removed(self, make, monkeypatch):
        g = make()
        g = remove_nodes(g, np.random.default_rng(6).choice(g.n, size=300, replace=False).tolist())
        self.check_converges_by_the_contraction_bound(g, monkeypatch)


class TestLanczosMatchesEigh:
    """The eigenvector column against ``eigh``: the top eigenvector, or the uniform start projected onto a repeated top eigenspace."""

    TOL = 1e-10

    def check(self, g):
        got = eigenvector_centrality(g)
        assert got.converged
        assert np.abs(got.scores - eigh_eigenvector(g)).max() <= self.TOL
        return got

    @given(corpus_graphs())
    def test_corpus_graphs(self, g):
        self.check(g)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: gen_ba(150, 2, 1),
            lambda: gen_ws(150, 4, 0.1, 2),
            lambda: gen_ws(300, 4, 0.1, 2),
            lambda: gen_ws(1000, 4, 0.1, 3),
        ],
        ids=["ba-150", "ws-150", "ws-300", "ws-1000"],
    )
    def test_training_sizes(self, make):
        self.check(make())

    def test_residual_graphs(self):
        # 90 training-sized states with up to a fifth of their nodes removed, often in several components
        rng = np.random.default_rng(50)
        for i in range(90):
            seed = int(rng.integers(2**31))
            g = (gen_ba(150, 2, seed), gen_er(150, 4 / 149, seed), gen_ws(150, 4, 0.1, seed))[i % 3]
            self.check(remove_nodes(g, rng.choice(150, size=int(rng.integers(0, 31)), replace=False).tolist()))

    @pytest.mark.parametrize("make", [lambda: complete_graph(5), lambda: cycle_graph(9), lambda: build_graph(4, [])])
    def test_regular_graph_stops_at_its_first_step(self, make, monkeypatch):
        # the uniform start is an eigenvector, so the recurrence breaks down at once
        monkeypatch.setattr(features, "EIGENVECTOR_MAX_STEPS", 1)
        g = make()
        scores = self.check(g).scores
        np.testing.assert_allclose(scores, 1.0 / np.sqrt(g.n), rtol=0, atol=1e-15)

    def test_repeated_top_eigenvalue_keeps_the_projected_start(self):
        # two cycles share the top eigenvalue 2, and two copies of one graph share all of theirs
        cycles = build_graph(12, [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 1) % 7) for i in range(7)])
        base = gen_ba(20, 2, 4)
        twins = build_graph(40, base.edges + [(u + 20, v + 20) for u, v in base.edges])
        for g in (cycles, twins):
            scores = self.check(g).scores
            assert (scores > 0).all()
        np.testing.assert_allclose(self.check(cycles).scores, 1.0 / np.sqrt(12), rtol=0, atol=self.TOL)

    def test_isolated_nodes_score_zero(self):
        g = build_graph(8, [(0, 1), (1, 2), (2, 0), (2, 3)])  # nodes 4..7 are isolated
        scores = self.check(g).scores
        assert np.abs(scores[4:]).max() <= self.TOL

    @pytest.mark.parametrize(
        "g, want",
        [
            (build_graph(1, []), [1.0]),
            (build_graph(2, []), [np.sqrt(0.5)] * 2),
            (build_graph(2, [(0, 1)]), [np.sqrt(0.5)] * 2),
        ],
        ids=["one-node", "two-isolated", "one-edge"],
    )
    def test_one_and_two_nodes(self, g, want):
        np.testing.assert_allclose(self.check(g).scores, want, rtol=0, atol=1e-15)

    def test_nonconvergence_reported(self, monkeypatch):
        monkeypatch.setattr(features, "EIGENVECTOR_MAX_STEPS", 5)
        assert not eigenvector_centrality(gen_ws(150, 4, 0.1, 2)).converged


class TestPowerIterationsMatchDenseOracle:
    @given(corpus_graphs())
    def test_pagerank(self, g):
        want, want_converged = dense_matvec_pagerank(g)
        got = pagerank(g)
        assert got.converged == want_converged
        np.testing.assert_allclose(got.scores, want, rtol=0, atol=1e-12)
        assert np.array_equal(got.scores, loop_pagerank(g)[0])

    def test_pagerank_step_is_bit_equal_on_residual_graphs(self):
        rng = np.random.default_rng(51)
        for i in range(90):
            seed = int(rng.integers(2**31))
            g = (gen_ba(150, 2, seed), gen_er(150, 4 / 149, seed), gen_ws(150, 4, 0.1, seed))[i % 3]
            g = remove_nodes(g, rng.choice(150, size=int(rng.integers(0, 60)), replace=False).tolist())
            want, want_converged = loop_pagerank(g)
            got = pagerank(g)
            assert got.converged == want_converged
            assert np.array_equal(got.scores, want)


class TestAggregateFeatures:
    def test_k4_all_columns_constant(self):
        assert np.array_equal(aggregate_features(complete_graph(4)), np.zeros((4, 4)))

    def test_path_degree_column(self):
        f = aggregate_features(path_graph(3))
        assert f[:, 0].tolist() == [0.0, 1.0, 0.0]

    def test_entries_bounded_through_episode(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            g = random_graph(rng)
            while True:
                f = aggregate_features(g)
                assert f.shape == (g.n_alive(), 4)
                assert np.isfinite(f).all()
                assert (f >= 0.0).all() and (f <= 1.0).all()
                if g.n_alive() <= 2:
                    break
                v = int(rng.choice(g.alive_ids()))
                g = remove_nodes(g, [v])


class TestAggregateFeaturesReportsNonconvergence:
    @pytest.mark.parametrize(
        "cap, value, g, name",
        [
            ("EIGENVECTOR_MAX_STEPS", 5, gen_ws(150, 4, 0.1, 2), "eigenvector centrality"),
            ("PAGERANK_MAX_ITER", 2, star_graph(6), "PageRank"),
        ],
        ids=["eigenvector", "pagerank"],
    )
    def test_a_capped_centrality_warns(self, cap, value, g, name, monkeypatch):
        monkeypatch.setattr(features, cap, value)
        with pytest.warns(RuntimeWarning, match=f"^{name} did not converge on {g.n} alive nodes$"):
            aggregate_features(g)

    @pytest.mark.parametrize(
        "g", [gen_ba(150, 2, 3), gen_er(150, 4 / 149, 4), gen_ws(150, 4, 0.1, 5)], ids=["ba", "er", "ws"]
    )
    def test_the_defaults_do_not_warn(self, g):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            aggregate_features(g)


class TestDegreeOnlyFeatures:
    def test_path_replicates_degree(self):
        f = degree_only_features(path_graph(3))
        for c in range(4):
            assert f[:, c].tolist() == [0.0, 1.0, 0.0]

    def test_k4_zeros(self):
        assert np.array_equal(degree_only_features(complete_graph(4)), np.zeros((4, 4)))

    def test_shape_matches_full_features(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            g = random_graph(rng)
            assert degree_only_features(g).shape == aggregate_features(g).shape
