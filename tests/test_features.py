import numpy as np
import pytest

from hypothesis import given

from conftest import complete_graph, corpus_graphs, cycle_graph, dense_adjacency, path_graph, random_graph, star_graph
from critnet.features import (
    aggregate_features,
    degree_centrality,
    degree_only_features,
    degree_vector,
    eigenvector_centrality,
    pagerank,
)
from critnet.graph import build_graph, gen_er, remove_nodes


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


def dense_matvec_eigenvector(g, tol=1e-8, max_iter=1000):
    """Oracle: the same power iteration as ``eigenvector_centrality`` with a dense matvec."""
    a = dense_adjacency(g)
    n = len(a)
    x = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(max_iter):
        nxt = a @ x + x
        nxt /= np.linalg.norm(nxt)
        if np.abs(nxt - x).sum() < tol:
            return nxt, True
        x = nxt
    return x, False


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


class TestDegreeCentrality:
    def test_path(self):
        assert degree_centrality(path_graph(3)).tolist() == [0.5, 1.0, 0.5]

    def test_star_center(self):
        assert degree_centrality(star_graph(5))[0] == 1.0

    def test_single_alive_node(self):
        g = remove_nodes(path_graph(3), [0, 1])
        assert degree_centrality(g).tolist() == [0.0]


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

    def test_invalid_tol(self):
        with pytest.raises(ValueError):
            eigenvector_centrality(path_graph(3), tol=0.0)


class TestPagerank:
    def test_cycle_uniform(self):
        assert np.allclose(pagerank(cycle_graph(8)).scores, 1.0 / 8, atol=1e-9)

    def test_all_isolated(self):
        g = build_graph(4, [])
        assert np.allclose(pagerank(g).scores, 0.25)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            g = gen_er(int(rng.integers(3, 16)), float(rng.uniform(0.0, 0.5)), int(rng.integers(2**31)))
            got, converged = pagerank(g, tol=1e-13, max_iter=5000)
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

    def test_nonconvergence_reported(self):
        scores, converged = pagerank(star_graph(6), max_iter=2)
        assert not converged
        assert abs(scores.sum() - 1.0) < 1e-12
        assert pagerank(star_graph(6)).converged


class TestPowerIterationsMatchDenseOracle:
    @given(corpus_graphs())
    def test_eigenvector_centrality(self, g):
        want, want_converged = dense_matvec_eigenvector(g)
        got = eigenvector_centrality(g)
        assert got.converged == want_converged
        np.testing.assert_allclose(got.scores, want, rtol=0, atol=1e-12)

    @given(corpus_graphs())
    def test_pagerank(self, g):
        want, want_converged = dense_matvec_pagerank(g)
        got = pagerank(g)
        assert got.converged == want_converged
        np.testing.assert_allclose(got.scores, want, rtol=0, atol=1e-12)


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
