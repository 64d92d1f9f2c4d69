"""Self-tests of the benchmark at tiny sizes: ``python3 -m pytest perfbench``."""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (str(ROOT / "src"), str(HERE)):
    if p not in sys.path:
        sys.path.insert(0, p)

import critnet.graph  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "solve-ba": {"n": 30, "k": 3},
    "train-mix": {"sizes": (40, 44, 48)},
    "dismantle-er": {"n": 60, "k": 6},
}


def run(name, trace=False, seed=3):
    return harness.run(name, seed, 0.0, trace, blas_threads=1, sizes=TINY[name])


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_passes_its_checks_and_reports_every_metric(name):
    info, result = run(name)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert info["failures"] == []
    metrics = result["metrics"]
    assert list(metrics) == list(harness.END_TO_END)
    for key, m in metrics.items():
        assert m["unit"] == harness.END_TO_END[key]
        assert math.isfinite(m["value"]) and m["value"] > 0, key


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_layer_metric(name):
    plain_info, _ = run(name)
    info, result = run(name, trace=True)
    assert result["correct"] and info["untraced_targets"] == []
    metrics = result["metrics"]
    assert list(metrics) == harness.PER_LAYER_NAMES
    wall = metrics["trace.wall_s"]["value"]
    gap = abs(wall - metrics["trace.self_sum_s"]["value"])
    assert gap <= max(abs(metrics["trace.overhead_frac"]["value"]), 1e-3) * wall
    # tracing must not change what the program computes
    assert info["digest"] == plain_info["digest"]


def test_layer_metrics_land_on_the_workloads_that_exercise_them():
    ba = run("solve-ba", trace=True)[1]["metrics"]
    er = run("dismantle-er", trace=True)[1]["metrics"]
    tm = run("train-mix", trace=True)[1]["metrics"]
    assert ba["decoder.Model.q_full.calls"]["value"] == TINY["solve-ba"]["k"]
    assert ba["encoder.gat_layer.l1.self_s"]["value"] > 0
    assert ba["autodiff.backward.self_s"]["value"] == 0
    assert er["features.degree_vector.calls"]["value"] == TINY["dismantle-er"]["k"]
    assert er["encoder.rows"]["value"] == 0 and er["graph.gen.s"]["value"] > 0
    assert tm["autodiff.backward.self_s"]["value"] > 0
    assert tm["decoder.td_targets.q_full_calls"]["value"] > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_gives_same_digest(name):
    first, second, other = run(name)[0], run(name)[0], run(name, seed=4)[0]
    assert first["digest"] == second["digest"]
    assert first["digest"]["removals"] != other["digest"]["removals"]


def test_oracle_rejects_a_corrupted_objective():
    wl = workloads.DismantleER(5, **TINY["dismantle-er"])
    wl.setup()
    out = wl.op()
    out.data["objective"] += 1
    fails = wl.check(out)
    assert any("oracle" in f for f in fails)


def test_checks_reject_a_reused_id_and_a_live_q_of_minus_inf():
    wl = workloads.SolveBA(5, **TINY["solve-ba"])
    wl.setup()
    out = wl.op()
    out.data["removed"][1] = out.data["removed"][0]
    q, alive = out.data["qs"][0]
    q[np.flatnonzero(alive)[0]] = -np.inf
    fails = wl.check(out)
    assert any("not alive when picked" in f for f in fails)
    assert any("not finite on an alive node" in f for f in fails)


def test_oracle_matches_program_objective():
    rng = np.random.default_rng(0)
    for seed in range(5):
        g = critnet.graph.gen_er(40, 0.08, seed)
        adj = workloads.oracle_adjacency(g)
        alive = rng.random(g.n) < 0.7
        residual = critnet.graph.remove_nodes(g, np.flatnonzero(~alive).tolist())
        assert workloads.oracle_connectivity(adj, alive) == critnet.graph.pairwise_connectivity(residual)


def test_missing_target_is_skipped_and_reads_zero():
    original = critnet.graph.remove_nodes
    tracer = tracing.Tracer(tracing.TARGETS + (("critnet.graph", "no_such_function", "graph.gone", None),))
    with tracer.installed():
        assert critnet.graph.remove_nodes is not original
        critnet.graph.remove_nodes(critnet.graph.gen_ba(6, 2, 0), [0])
    assert critnet.graph.remove_nodes is original
    assert tracer.missing == ["critnet.graph.no_such_function"]
    summary = tracing.summarize(tracer.spans)
    assert summary["graph.remove_nodes.calls"] == 1
    assert summary.get("graph.gone.calls", 0.0) == 0.0


def test_self_times_sum_to_top_level_durations():
    spans = [["a", 0.0, 10.0, -1, 0.0], ["b", 1.0, 4.0, 0, 0.0], ["c", 2.0, 3.0, 1, 0.0], ["d", 5.0, 9.0, 0, 0.0]]
    assert tracing.self_times(spans).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == harness.PER_LAYER_NAMES
    for m in spec["per_layer"]:
        assert m["unit"] == harness.per_layer_unit(m["name"])


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-ba", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
