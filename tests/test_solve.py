import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from hypothesis import given, strategies as st

from conftest import brute_pairwise, corpus_graphs, neighbor_lists, perfbench_module, star_graph
from critnet import Solution, degree_scores, graph, solve_greedy
from critnet.decoder import Model, init_decoder_params
from critnet.encoder import init_encoder_params
from critnet.graph import gen_ba, remove_nodes

workloads = perfbench_module("workloads")


def agent(seed=0):
    rng = np.random.default_rng(seed)
    return Model(init_encoder_params(rng), init_decoder_params(rng))


SCORERS = {"agent": agent().q_full, "degree": degree_scores}


class TestPerfbenchLoops:
    """``solve_greedy`` against the greedy loops the benchmark runs, in this process."""

    @staticmethod
    def check_loop(solution, workload):
        """Require the loop's removals and objective of ``solution``; return the loop's output."""
        out = workload.op().data
        assert (solution.removed, solution.objective) == (out["removed"], out["objective"])
        return out

    def test_the_agent_gives_the_solve_ba_workloads_solution(self):
        w = workloads.SolveBA(1)
        w.setup()
        solution = solve_greedy(w.graph, w.k, w.model.q_full)
        self.check_loop(solution, w)
        assert (workloads._sha(solution.removed), solution.objective) == ("646a67212245475e", 494515)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("family", workloads.FAMILIES)
    def test_the_agent_gives_the_solve_ba_loops_solution_on_each_family(self, family, seed):
        w = workloads.SolveBA(seed, n=200, k=20)
        w.setup()
        w.graph = workloads._gen(family, w.n, seed)
        self.check_loop(solve_greedy(w.graph, w.k, w.model.q_full), w)

    def test_degree_gives_the_dismantle_er_workloads_solution_and_its_per_step_curve(self):
        w = workloads.DismantleER(1)
        w.setup()
        solution = solve_greedy(w.graph, w.k, degree_scores)
        # the loop calls pairwise_connectivity after every removal: an independent curve at n=3000, K=300
        assert solution.curve == [w.pc0] + self.check_loop(solution, w)["pcs"]
        # the seed-1 digest and objective the benchmark has reported since its first run
        assert (workloads._sha(solution.removed), solution.objective) == ("dc760efe9920745c", 3275533)

    def test_one_train_mix_cycle_gives_the_seed_1_removals(self):
        # training runs both passes of every kernel; only removals are pinned, as loss bits may move with the BLAS build
        w = workloads.TrainMix(1)
        w.setup()
        assert w.check(w.op()) == []
        assert w.digest()["removals"] == "8ca6c10f9523dcba"


# One seeded library solve per case, as source a fresh process runs on its own
SEEDED_SOLVES = {
    "agent-ba": "g, k = gen_ba(200, 2, 1), 20; rng = np.random.default_rng(1); "
    "score = Model(init_encoder_params(rng), init_decoder_params(rng)).q_full",
    "degree-er": "g, k, score = gen_er(3000, 4.0 / 2999, 1), 300, degree_scores",
}
SOLVE_PRELUDE = (
    "import json; import numpy as np; from critnet import degree_scores, solve_greedy; "
    "from critnet.decoder import Model, init_decoder_params; from critnet.encoder import init_encoder_params; "
    "from critnet.graph import gen_ba, gen_er; "
)
SOLVE_REPORT = "; s = solve_greedy(g, k, score); print(json.dumps([s.removed, s.curve]))"


class TestDeterminismAcrossProcesses:
    """One seed gives one solution, whatever process computes it."""

    @staticmethod
    def solve_in_a_process(case, hash_seed):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = {**os.environ, "PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": path}
        script = SOLVE_PRELUDE + SEEDED_SOLVES[case] + SOLVE_REPORT
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        return json.loads(done.stdout)

    @pytest.mark.parametrize("case", sorted(SEEDED_SOLVES))
    def test_two_processes_with_different_hash_seeds_give_this_processs_solution(self, case):
        here = {}
        exec(SOLVE_PRELUDE + SEEDED_SOLVES[case], here)
        solution = solve_greedy(here["g"], here["k"], here["score"])
        runs = [self.solve_in_a_process(case, hash_seed) for hash_seed in (1, 2)]
        assert runs[0] == runs[1] == [solution.removed, solution.curve]


@given(corpus_graphs(), st.sampled_from(sorted(SCORERS)), st.data())
def test_a_solve_is_k_distinct_alive_removals_with_the_brute_force_objective(g, scorer, data):
    k = data.draw(st.integers(1, g.n_alive() - 1))
    solution = solve_greedy(g, k, SCORERS[scorer])
    assert len(solution.removed) == len(set(solution.removed)) == k
    assert g.alive[solution.removed].all()
    assert solution.curve == [brute_pairwise(g, solution.removed[:j]) for j in range(k + 1)]
    assert solution.objective == solution.curve[-1]
    assert solve_greedy(g, k, SCORERS[scorer]) == solution


@pytest.mark.parametrize("scorer", sorted(SCORERS))
def test_a_solve_computes_its_curve_once_and_no_objective_per_step(scorer):
    with (
        mock.patch.object(graph, "pairwise_connectivity", wraps=graph.pairwise_connectivity) as per_state,
        mock.patch.object(graph, "prefix_objectives", wraps=graph.prefix_objectives) as curve,
    ):
        solve_greedy(gen_ba(60, 2, 3), 10, SCORERS[scorer])
    assert (per_state.call_count, curve.call_count) == (0, 1)


@given(corpus_graphs(), st.data())
def test_degree_removes_the_highest_residual_degree_lowest_id_first(g, data):
    k = data.draw(st.integers(1, g.n_alive() - 1))
    adj, alive, expect = neighbor_lists(g), set(g.alive_ids().tolist()), []
    for _ in range(k):
        best = max(sorted(alive), key=lambda v: sum(u in alive for u in adj[v]))  # max keeps the first of equals
        alive.remove(best)
        expect.append(best)
    assert solve_greedy(g, k, degree_scores).removed == expect


def test_degree_scores_are_residual_degrees_with_minus_inf_on_dead_nodes():
    g = remove_nodes(star_graph(5), [2])
    assert degree_scores(g).tolist() == [3.0, 1.0, -np.inf, 1.0, 1.0]


def test_a_solve_makes_all_k_removals_after_the_objective_reaches_zero():
    # the hub leaves no edge; the ties after it go to the lowest ids
    assert solve_greedy(star_graph(6), 3, degree_scores) == Solution([0, 1, 2], [15, 0, 0, 0])


class TestBadInput:
    residual = remove_nodes(gen_ba(10, 2, 0), [0, 1, 2])  # 7 alive nodes

    @pytest.mark.parametrize("k", [2.5, "3", None, True, np.True_])
    def test_a_budget_that_is_not_an_integer_raises(self, k):
        with pytest.raises(ValueError, match="budget k must be an integer"):
            solve_greedy(self.residual, k, degree_scores)

    def test_a_zero_budget_raises(self):
        with pytest.raises(ValueError, match="budget k must be >= 1, got 0"):
            solve_greedy(self.residual, 0, degree_scores)

    @pytest.mark.parametrize("k", [7, 8, 10])
    def test_a_budget_that_leaves_no_alive_node_raises_on_a_residual_view(self, k):
        with pytest.raises(ValueError, match=f"budget k={k} must be below the 7 alive nodes"):
            solve_greedy(self.residual, k, degree_scores)
        assert len(solve_greedy(self.residual, 6, degree_scores).removed) == 6

    @pytest.mark.parametrize(
        "score, shape",
        [
            (lambda s: degree_scores(s)[:, None], r"\(10, 1\)"),
            (lambda s: degree_scores(s)[None, :], r"\(1, 10\)"),
            (lambda s: degree_scores(s)[s.alive], r"\(7,\)"),
        ],
    )
    def test_a_score_not_shaped_one_per_node_id_raises(self, score, shape):
        with pytest.raises(ValueError, match=rf"score gave shape {shape}; .* shape \(10,\)"):
            solve_greedy(self.residual, 2, score)

    @pytest.mark.parametrize("value, name", [(np.nan, "NaN"), (np.inf, r"\+inf")])
    def test_a_nan_or_plus_inf_score_raises(self, value, name):
        def score(s):
            q = degree_scores(s)
            q[5] = value
            return q

        with pytest.raises(ValueError, match=rf"Q-values are {name} at node\(s\) \[5\]"):
            solve_greedy(self.residual, 2, score)

    def test_a_finite_score_that_picks_a_dead_node_raises(self):
        with pytest.raises(ValueError, match="node 0 is already removed"):
            solve_greedy(self.residual, 2, lambda s: np.where(s.alive, 0.0, 1.0))
