"""Time one workload and assemble the benchmark's result.

Every operation of a workload repeats the same deterministic work, split
into the same parts (the steps of a solve, the updates of a training
cycle). Load outside the process slows whole stretches of a run, so a
part's time is the median over its repeats, and ``op_s`` is the sum of
those medians per unit of work (a solve, or one update). ``step_ms_p50`` is
the median over every removal decision of the run.

An untraced run sets the workload up at least ``MIN_SETUPS`` times and for
at least ``MIN_SETUP_S`` (``setup_s`` is the median), warms it up, then
runs operations until ``seconds`` have passed and ``MIN_OPS`` have
succeeded. A traced run sets up once under the tracer, then alternates
untraced and traced operations; the per-layer metrics are per traced
operation, and ``trace.overhead_frac`` compares the two kinds.
"""
from __future__ import annotations

import os
import platform
import resource
from time import perf_counter

import numpy as np

import tracing
from workloads import WORKLOADS

MIN_SETUPS = 3
MIN_SETUP_S = 1.0
MIN_OPS = 3
# a run whose operations keep failing stops this long after its deadline
GRACE_S = 60.0

END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "step_ms_p50": "ms",
    "objective_frac": "ratio",
    "peak_rss_mb": "MB",
}

# per-layer metric -> key in tracing.summarize(); per traced operation
PER_LAYER = {
    "graph.pairwise_connectivity.calls": None,
    "graph.pairwise_connectivity.self_s": None,
    "graph.connected_components.self_s": None,
    "graph.remove_nodes.calls": None,
    "graph.remove_nodes.self_s": None,
    "features.aggregate_features.calls": None,
    "features.aggregate_features.self_s": None,
    "features.eigenvector_centrality.self_s": None,
    "features.eigenvector_centrality.nonconverged": "features.eigenvector_centrality.note",
    "features.pagerank.self_s": None,
    "features.degree_vector.calls": None,
    "features.degree_vector.self_s": None,
    "encoder.attention_mask.self_s": None,
    "encoder.gat_layer.l1.self_s": None,
    "encoder.gat_layer.l2.self_s": None,
    "encoder.rows": "encoder.encode.note",
    "autodiff.matmul.calls": None,
    "autodiff.matmul.self_s": None,
    "autodiff.row_softmax_masked.calls": None,
    "autodiff.row_softmax_masked.self_s": None,
    "autodiff.leaky_relu.calls": None,
    "autodiff.leaky_relu.self_s": None,
    "autodiff.add.calls": None,
    "autodiff.add.self_s": None,
    "autodiff.backward.self_s": None,
    "autodiff.adam_step.self_s": None,
    "decoder.Model.q_full.calls": None,
    "decoder.Model.q_full.total_s": None,
    "decoder.q_from_embeddings.self_s": None,
    "decoder.select_action.calls": None,
    "decoder.td_targets.self_s": None,
    "decoder.td_targets.q_full_calls": None,
    "decoder.ReplayBuffer.sample.self_s": None,
    "bench.op.self_s": None,
    "trace.self_sum_s": "self_sum_s",
}


def per_layer_unit(name: str) -> str:
    if name == "graph.gen.s":
        return "s"
    if name == "trace.overhead_frac":
        return "ratio"
    return "s/op" if name.endswith("_s") else "count/op"


PER_LAYER_NAMES = ["graph.gen.s", *PER_LAYER, "trace.wall_s", "trace.overhead_frac"]


def environment(blas_threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


class _Counter:
    """Runs operations, times them and counts the failed ones."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = self.failed = 0
        self.messages: list[str] = []

    def run_op(self, tracer=None):
        """One operation's output and wall time, or None when it failed."""
        self.attempted += 1
        try:
            if tracer is None:
                t0 = perf_counter()
                out = self.wl.op()
                dt = perf_counter() - t0
            else:
                with tracer.installed(), tracer.span(tracing.OP_SPAN):
                    t0 = perf_counter()
                    out = self.wl.op()
                    dt = perf_counter() - t0
            fails = self.wl.check(out)
            out.data = {}  # keep only timings, so memory does not grow with the op count
        except Exception as exc:  # an operation that raises counts as failed
            fails = [f"{type(exc).__name__}: {exc}"]
        if fails:
            self.failed += 1
            self.messages = (self.messages + fails)[:5]
            return None
        return out, dt


def run(name: str, seed: int, seconds: float, trace: bool, blas_threads: int, sizes: dict | None = None):
    """Returns ``(info, result)``: diagnostics, and the result line's object."""

    def make():
        return WORKLOADS[name](seed, **(sizes or {}))

    if trace:
        tracer = tracing.Tracer()
        wl = make()
        with tracer.installed():
            wl.setup()
        gen_s = tracing.summarize(tracer.spans).get("graph.gen.total_s", 0.0)
        tracer.clear()
    else:
        setup_s = []
        while len(setup_s) < MIN_SETUPS or sum(setup_s) < MIN_SETUP_S:
            wl = make()
            t0 = perf_counter()
            wl.setup()
            setup_s.append(perf_counter() - t0)
    wl.warm_up()

    counter = _Counter(wl)
    plain, traced = [], []  # (output, wall time) of each successful operation
    need = (MIN_OPS - 1) if trace else MIN_OPS
    deadline = perf_counter() + seconds
    while True:
        now = perf_counter()
        enough = len(plain) >= need and (not trace or len(traced) >= need)
        if now >= deadline and (enough or now >= deadline + GRACE_S):
            break
        use_tracer = trace and len(traced) < len(plain)
        done = counter.run_op(tracer if use_tracer else None)
        if done is not None:
            (traced if use_tracer else plain).append(done)
    if not plain or (trace and not traced):
        raise RuntimeError(f"no operation succeeded: {counter.messages}")

    if trace:
        summary = tracing.summarize(tracer.spans)
        n = len(traced)
        metrics = {"graph.gen.s": _metric(gen_s, "s")}
        for metric, key in PER_LAYER.items():
            metrics[metric] = _metric(summary.get(key or metric, 0.0) / n, per_layer_unit(metric))
        metrics["trace.wall_s"] = _metric(sum(dt for _, dt in traced) / n, "s/op")
        overhead = np.median([dt for _, dt in traced]) / np.median([dt for _, dt in plain]) - 1.0
        metrics["trace.overhead_frac"] = _metric(overhead, "ratio")
    else:
        steps_ms = np.concatenate([out.step_s for out, _ in plain]) * 1e3
        values = {
            "setup_s": np.median(setup_s),
            "op_s": np.median([out.part_s for out, _ in plain], axis=0).sum() / plain[0][0].units,
            "step_ms_p50": np.median(steps_ms),
            "objective_frac": wl.objective_frac(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: _metric(v, END_TO_END[k]) for k, v in values.items()}

    info = {
        "workload": name,
        "seed": seed,
        "env": environment(blas_threads),
        "digest": wl.digest(),
        "samples": {
            "ops": len(plain) + len(traced),
            "traced_ops": len(traced),
            "units_per_op": plain[0][0].units,
            "steps_per_op": len(plain[0][0].step_s),
        },
        "failures": counter.messages,
        "untraced_targets": tracer.missing if trace else [],
    }
    result = {
        "correct": counter.failed == 0,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": metrics,
    }
    return info, result
