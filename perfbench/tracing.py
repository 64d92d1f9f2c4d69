"""In-memory span tracing of critnet's public functions, installed from outside.

The tracer replaces a public function with a timing wrapper in the module
(or on the class) that looks the name up at call time, so no file of the
program changes. ``critnet.decoder`` imports ``aggregate_features`` and
``encode`` by name, so those are patched in ``critnet.decoder``; the helpers
they call are patched in their home modules; methods are patched on their
classes. A target that no longer exists is skipped and its metrics read 0.

Each call becomes a span ``[name, start, end, parent, note]`` kept in a
list. Self time is a span's duration minus the durations of its direct
children, so the self times of all spans add up to the durations of the
top-level spans.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
from time import perf_counter

import numpy as np


def _encode_rows(args, result):
    return float(np.shape(args[1])[0])


def _nonconverged(args, result):
    return 0.0 if getattr(result, "converged", True) else 1.0


# (module, attribute path, span name, note taken from args and result)
TARGETS = (
    ("critnet.graph", "gen_ba", "graph.gen", None),
    ("critnet.graph", "gen_er", "graph.gen", None),
    ("critnet.graph", "gen_ws", "graph.gen", None),
    ("critnet.graph", "pairwise_connectivity", "graph.pairwise_connectivity", None),
    ("critnet.graph", "connected_components", "graph.connected_components", None),
    ("critnet.graph", "remove_nodes", "graph.remove_nodes", None),
    ("critnet.decoder", "aggregate_features", "features.aggregate_features", None),
    ("critnet.features", "degree_vector", "features.degree_vector", None),
    ("critnet.features", "eigenvector_centrality", "features.eigenvector_centrality", _nonconverged),
    ("critnet.features", "pagerank", "features.pagerank", None),
    ("critnet.decoder", "encode", "encoder.encode", _encode_rows),
    ("critnet.encoder", "attention_mask", "encoder.attention_mask", None),
    ("critnet.encoder", "gat_layer", "encoder.gat_layer", None),
    ("critnet.autodiff", "matmul", "autodiff.matmul", None),
    ("critnet.autodiff", "row_softmax_masked", "autodiff.row_softmax_masked", None),
    ("critnet.autodiff", "leaky_relu", "autodiff.leaky_relu", None),
    ("critnet.autodiff", "add", "autodiff.add", None),
    ("critnet.autodiff", "Tensor.backward", "autodiff.backward", None),
    ("critnet.autodiff", "adam_step", "autodiff.adam_step", None),
    ("critnet.decoder", "Model.q_full", "decoder.Model.q_full", None),
    ("critnet.decoder", "q_from_embeddings", "decoder.q_from_embeddings", None),
    ("critnet.decoder", "select_action", "decoder.select_action", None),
    ("critnet.decoder", "td_targets", "decoder.td_targets", None),
    ("critnet.decoder", "ReplayBuffer.sample", "decoder.ReplayBuffer.sample", None),
)

OP_SPAN = "bench.op"

NAME, START, END, PARENT, NOTE = range(5)


class Tracer:
    """Records spans while installed; ``clear`` drops them."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def clear(self) -> None:
        self.spans.clear()

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield
        finally:
            self._close(s)

    def _wrap(self, fn, name, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            if note is not None:
                s[NOTE] = note(args, result)
            return result

        return traced

    def install(self) -> None:
        self.missing = []
        for module_name, path, name, note in self.targets:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, note))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def self_times(spans: list[list]) -> np.ndarray:
    dur = np.array([s[END] - s[START] for s in spans])
    out = dur.copy()
    for s, d in zip(spans, dur):
        if s[PARENT] >= 0:
            out[s[PARENT]] -= d
    return out


def _has_ancestor(spans, i, name) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-name totals: ``<name>.calls``, ``.total_s``, ``.self_s`` and ``.note``.

    ``encoder.gat_layer`` spans are split by their order under one parent
    into ``encoder.gat_layer.l1``, ``.l2``; ``decoder.td_targets.q_full_calls``
    counts the q_full spans that run inside td_targets.
    """
    selfs = self_times(spans)
    out: dict[str, float] = {}
    seen_under: dict[tuple[int, str], int] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    for i, (s, self_s) in enumerate(zip(spans, selfs)):
        name = s[NAME]
        if name == "encoder.gat_layer":
            k = seen_under.get((s[PARENT], name), 0) + 1
            seen_under[(s[PARENT], name)] = k
            name = f"{name}.l{k}"
        add(f"{name}.calls", 1.0)
        add(f"{name}.total_s", s[END] - s[START])
        add(f"{name}.self_s", float(self_s))
        add(f"{name}.note", s[NOTE])
        if name == "decoder.Model.q_full" and _has_ancestor(spans, i, "decoder.td_targets"):
            add("decoder.td_targets.q_full_calls", 1.0)
    out["self_sum_s"] = float(selfs.sum())
    return out
