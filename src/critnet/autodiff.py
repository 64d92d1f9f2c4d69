"""Minimal tensor engine with reverse-mode differentiation.

Tensors wrap float64 numpy arrays. Each primitive records its backward rule
on the value it produces; ``Tensor.backward()`` walks the recorded graph in
reverse topological order and accumulates exact gradients into ``.grad``.
Only the primitives the attention encoder and Q-heads need are provided;
there is no broadcasting beyond the explicit bias/row cases below.

Graph attention runs over a residual graph's closed-neighbourhood CSR, a
``graph.SparsePattern``: one value per stored entry of a structurally
symmetric n x n matrix in CSR order. ``gather_rows``, ``segment_softmax``
and ``spmm`` work on those per-entry values, and their backward passes
scatter with ``np.add.reduceat`` over row segments, reading column-indexed
entries through the pattern's transpose permutation.

Evaluation-time forwards should run inside ``no_grad()`` so no graph is
retained.
"""
from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from critnet.graph import SparsePattern

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording within the context (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable leaf's ``.grad``."""
        if self.data.size != 1:
            raise ValueError("backward() starts from a scalar output")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad or p._parents for p in parents):
        out.requires_grad = any(p.requires_grad for p in parents)
        out._parents = parents
        out._backward = backward
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[-1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")

    def backward(g):
        a._accumulate(g @ b.data.T)
        b._accumulate(a.data.T @ g)

    return _make(a.data @ b.data, (a, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} + {b.shape}")

    def backward(g):
        a._accumulate(g)
        b._accumulate(g)

    return _make(a.data + b.data, (a, b), backward)


def add_bias(a: Tensor, bias: Tensor) -> Tensor:
    """Add a (1, d) row to every row of an (n, d) matrix."""
    if bias.shape != (1, a.shape[1]):
        raise ValueError(f"bias shape {bias.shape} incompatible with {a.shape}")

    def backward(g):
        a._accumulate(g)
        bias._accumulate(g.sum(axis=0, keepdims=True))

    return _make(a.data + bias.data, (a, bias), backward)


def scale(a: Tensor, c: float) -> Tensor:
    def backward(g):
        a._accumulate(g * c)

    return _make(a.data * c, (a,), backward)


def transpose(a: Tensor) -> Tensor:
    def backward(g):
        a._accumulate(g.T)

    return _make(a.data.T.copy(), (a,), backward)


def leaky_relu(a: Tensor, slope: float) -> Tensor:
    pos = a.data > 0

    def backward(g):
        a._accumulate(g * np.where(pos, 1.0, slope))

    return _make(np.where(pos, a.data, slope * a.data), (a,), backward)


def elu(a: Tensor, alpha: float = 1.0) -> Tensor:
    pos = a.data > 0
    out = np.where(pos, a.data, alpha * np.expm1(a.data))

    def backward(g):
        a._accumulate(g * np.where(pos, 1.0, out + alpha))

    return _make(out, (a,), backward)


def row_softmax_masked(logits: Tensor, mask: np.ndarray) -> Tensor:
    """Row-wise softmax restricted to ``mask`` (0/1, same shape).

    Masked entries get probability exactly 0 and receive no gradient; rows
    with no unmasked entry come out all-zero.
    """
    if mask.shape != logits.shape:
        raise ValueError(f"mask shape {mask.shape} != logits shape {logits.shape}")
    m = mask.astype(bool)
    shifted = np.where(m, logits.data, -np.inf)
    rowmax = shifted.max(axis=1, keepdims=True)
    rowmax = np.where(np.isfinite(rowmax), rowmax, 0.0)
    e = np.where(m, np.exp(shifted - rowmax), 0.0)
    denom = e.sum(axis=1, keepdims=True)
    p = np.divide(e, denom, out=np.zeros_like(e), where=denom > 0)

    def backward(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        logits._accumulate(p * (g - dot))

    return _make(p, (logits,), backward)


def gather_rows(a: Tensor, pattern: SparsePattern, columns: bool = False) -> Tensor:
    """Row ``rows[e]`` of ``a`` (``cols[e]`` with ``columns``) for every entry ``e``."""
    if a.shape[0] != pattern.n:
        raise ValueError(f"gather from {a.shape[0]} rows over a {pattern.n}-row pattern")
    index = pattern.cols if columns else pattern.rows

    def backward(g):
        a._accumulate(pattern.row_sums(g[pattern.transpose] if columns else g))

    return _make(a.data[index], (a,), backward)


def segment_softmax(logits: Tensor, pattern: SparsePattern) -> Tensor:
    """Softmax of per-entry logits (E x 1) over the entries of each row."""
    if logits.shape != (len(pattern.rows), 1):
        raise ValueError(f"logits shape {logits.shape} != ({len(pattern.rows)}, 1)")
    x = logits.data
    rowmax = np.maximum.reduceat(x, pattern.indptr[:-1], axis=0)
    e = np.exp(x - rowmax[pattern.rows])
    p = e / pattern.row_sums(e)[pattern.rows]

    def backward(g):
        dot = pattern.row_sums(g * p)
        logits._accumulate(p * (g - dot[pattern.rows]))

    return _make(p, (logits,), backward)


def spmm(values: Tensor, pattern: SparsePattern, x: Tensor) -> Tensor:
    """Sparse (n x n, per-entry ``values`` of shape E x 1) times dense (n x d)."""
    if values.shape != (len(pattern.rows), 1) or x.shape[0] != pattern.n:
        raise ValueError(f"spmm shape mismatch: values {values.shape}, x {x.shape}, pattern of {pattern.n} rows")
    w = values.data
    x_cols = x.data[pattern.cols]

    def backward(g):
        g_rows = g[pattern.rows]
        values._accumulate((g_rows * x_cols).sum(axis=1, keepdims=True))
        x._accumulate(pattern.row_sums((w * g_rows)[pattern.transpose]))

    return _make(pattern.row_sums(w * x_cols), (values, x), backward)


def dropout(a: Tensor, rate: float, rng: np.random.Generator | None, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or rate == 0."""
    if not training or rate <= 0.0:
        return a
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    keep = (rng.random(a.shape) >= rate) / (1.0 - rate)

    def backward(g):
        a._accumulate(g * keep)

    return _make(a.data * keep, (a,), backward)


def mean_rows(a: Tensor) -> Tensor:
    """Column means as a (1, d) row (mean pooling over rows)."""
    n = a.shape[0]

    def backward(g):
        a._accumulate(np.repeat(g / n, n, axis=0))

    return _make(a.data.mean(axis=0, keepdims=True), (a,), backward)


def concat(parts: list[Tensor], axis: int = 1) -> Tensor:
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if axis == 1:
                p._accumulate(g[:, lo:hi])
            else:
                p._accumulate(g[lo:hi, :])

    return _make(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), backward)


def pick(a: Tensor, row: int, col: int = 0) -> Tensor:
    """Extract one entry as a (1, 1) tensor."""

    def backward(g):
        full = np.zeros_like(a.data)
        full[row, col] = g[0, 0]
        a._accumulate(full)

    return _make(a.data[row, col].reshape(1, 1), (a,), backward)


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    diff = pred.data - np.asarray(target, dtype=np.float64)
    n = diff.size

    def backward(g):
        pred._accumulate((2.0 / n) * diff * g[0, 0])

    return _make(np.array([[float((diff * diff).mean())]]), (pred,), backward)


# --- optimizer --------------------------------------------------------------


@dataclass
class AdamState:
    """Bias-corrected Adam moments for one parameter list."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)


def adam_step(params: list[Tensor], state: AdamState) -> None:
    """One in-place Adam update; parameters with no gradient are skipped."""
    if not state.m:
        state.m = [np.zeros_like(p.data) for p in params]
        state.v = [np.zeros_like(p.data) for p in params]
    state.step += 1
    t = state.step
    for p, m, v in zip(params, state.m, state.v):
        if p.grad is None:
            continue
        g = p.grad
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        p.data -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


def zero_grads(params: list[Tensor]) -> None:
    for p in params:
        p.zero_grad()


# --- gradient checking ------------------------------------------------------


def grad_check(
    scalar_fn,
    params: list[Tensor],
    eps: float = 1e-5,
    sample: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative error between tape gradients and central differences.

    ``scalar_fn`` must rebuild its forward pass from the current parameter
    values on every call. With ``sample`` set, only that many coordinates
    per parameter are perturbed (chosen by ``rng``), which keeps the check
    affordable on large parameter sets.
    """
    zero_grads(params)
    out = scalar_fn()
    out.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]
    worst = 0.0
    for p, an in zip(params, analytic):
        flat = p.data.reshape(-1)
        an_flat = an.reshape(-1)
        coords = range(flat.size)
        if sample is not None and flat.size > sample:
            gen = rng if rng is not None else np.random.default_rng(0)
            coords = gen.choice(flat.size, size=sample, replace=False)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + eps
            with no_grad():
                f_plus = scalar_fn().item()
            flat[i] = orig - eps
            with no_grad():
                f_minus = scalar_fn().item()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * eps)
            a = an_flat[i]
            err = abs(fd - a) / max(abs(fd), abs(a), 1e-12)
            worst = max(worst, err)
    return worst
