"""Minimal tensor engine with reverse-mode differentiation.

Tensors wrap float64 numpy arrays. Each primitive records its backward rule
on the value it produces; ``Tensor.backward()`` walks the recorded graph in
reverse topological order and accumulates exact gradients into the
``.grad`` of each leaf that requires grad. A constant, or a parameter set to
``requires_grad=False``, gets none, so an update leaves a frozen one as it is.
Only the primitives the attention encoder and Q-heads need are provided;
there is no broadcasting beyond the explicit bias/row cases below.

A recorded graph is single-use. Backward frees it as it goes: once an
interior tensor's rule has run, it is spent: its gradient and rule are
dropped, its parents are ``None`` and its ``.data`` stays readable. A later
``backward()`` whose graph reaches a spent tensor raises ``ValueError``
before it touches any gradient, so rebuild the forward pass for each
backward. Leaves keep accumulating into ``.grad`` until it is zeroed.

Graph attention runs over a residual graph's closed-neighbourhood CSR, a
``graph.SparsePattern``: one value per stored entry of a structurally
symmetric n x n matrix in CSR order, one column per attention head (E x H).
A layer is one primitive, ``attention_layer``: it scores the layer's
transformed node rows into those per-entry values with the fixed leaky-ReLU
slope ``ATTENTION_SLOPE``, drops some at its rate, and sums them back into
node rows under a fixed ELU. Its rule keeps the layer's input, weights,
attention values, masks and output, and forms the n x H*d transform and
the dropped values again in backward, trading two cheap recomputations for
the tape's two largest arrays (Chen et al., "Training Deep Nets with
Sublinear Memory Cost", 2016). Every sum or max
over a row's entries, forward or backward, is one of the pattern's slot
kernels (``SparsePattern.row_sums`` and its siblings); the attention
gradient, one dot per entry and head, is ``SparsePattern.entry_dots``,
which walks the entries in CSR order. Column-indexed entries are read
through the pattern's transpose permutation.

Evaluation-time forwards should run inside ``no_grad()`` so no graph is
recorded.
"""
from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from critnet import graph
from critnet.graph import SparsePattern

_grad_enabled = True


def grad_enabled() -> bool:
    """Whether new ops record their backward rules (False inside ``no_grad()``)."""
    return _grad_enabled


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
        self._parents: tuple[Tensor, ...] | None = ()  # None once a backward() has spent the tensor
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        """The value of a tensor that holds exactly one; any other shape raises ``ValueError``."""
        if self.data.size != 1:
            raise ValueError(f"item() needs a tensor of one value, got shape {self.shape}")
        return self.data.item()

    def zero_grad(self) -> None:
        self.grad = None

    def _adopt(self, g: np.ndarray) -> None:
        """Add ``g`` to ``.grad`` if grad is required; the first one is kept uncopied, so no other tensor may hold it.

        Every rule hands each parent its gradient this way, copying only where two parents would share one.
        This is the one place that decides which tensors get one: a constant or a frozen parameter never does.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into the ``.grad`` of every reachable leaf that requires grad, freeing the graph.

        Every recorded tensor requires grad, so its consumers have handed it
        its whole gradient by the time its rule runs. Each interior tensor is
        spent once its rule has run: its gradient and rule are dropped and its
        parents become ``None``, so the graph is released as it is consumed. A
        graph that reaches a spent tensor, from an earlier ``backward()``,
        raises ``ValueError`` before any gradient changes, and so does an
        output that does not require grad (made under ``no_grad()`` or from
        constants only), which would leave every gradient unset.
        """
        if self.data.size != 1:
            raise ValueError("backward() starts from a scalar output")
        if not self.requires_grad:
            raise ValueError(
                "backward() from a tensor that recorded no graph: it was made under no_grad() or from constants only"
            )
        if not np.isfinite(self.data).all():
            raise ValueError(f"backward() from a non-finite value {self.item()}; the forward pass diverged")
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
            if node._parents is None:
                raise ValueError(
                    f"backward() reached a {node.shape} tensor whose graph an earlier backward() freed; "
                    "rebuild the forward pass"
                )
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._adopt(np.ones_like(self.data))
        while order:
            node = order.pop()  # the list lets go of each tensor as it is consumed
            if node._backward is None:
                continue
            node._backward(node.grad)
            node.grad, node._parents, node._backward = None, None, None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def glorot(rng: np.random.Generator, rows: int, cols: int) -> Tensor:
    """Trainable rows x cols weights, uniform on the Glorot range +-sqrt(6 / (rows + cols))."""
    limit = np.sqrt(6.0 / (rows + cols))
    return tensor(rng.uniform(-limit, limit, size=(rows, cols)), requires_grad=True)


def _records(parents: tuple[Tensor, ...]) -> bool:
    """Whether an op on ``parents`` records its rule: gradients are on, and one of them requires grad.

    A recorded output requires grad itself, so a parent with a rule always does.
    """
    return _grad_enabled and any(p.requires_grad for p in parents)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if _records(parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[-1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")

    def backward(g):
        a._adopt(g @ b.data.T)
        b._adopt(a.data.T @ g)

    return _make(a.data @ b.data, (a, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} + {b.shape}")

    def backward(g):
        a._adopt(g.copy())
        b._adopt(g)

    return _make(a.data + b.data, (a, b), backward)


def _segments(n: int, offsets) -> list[tuple[int, int]]:
    """The (start, stop) rows of each segment ``offsets[i]:offsets[i + 1]``; ``None`` is all ``n`` rows as one.

    An offset that is not an integer, a bool among them, raises ``ValueError`` rather than being truncated.
    """
    if offsets is None:
        return [(0, n)]
    try:
        offsets = [graph._index(o) for o in offsets]
    except TypeError:
        raise ValueError(f"row offsets {offsets} must be integers") from None
    bounds = list(zip(offsets[:-1], offsets[1:]))
    if not bounds or offsets[0] != 0 or offsets[-1] != n or any(hi <= lo for lo, hi in bounds):
        raise ValueError(f"row offsets {offsets} do not split {n} rows into non-empty segments")
    return bounds


def add_bias(a: Tensor, bias: Tensor, offsets=None) -> Tensor:
    """Add a (1, d) row to every row of an (n, d) matrix.

    With row ``offsets``, ``bias`` holds one row per segment, and row i goes
    to the rows ``offsets[i]:offsets[i + 1]``.
    """
    bounds = _segments(a.shape[0], offsets)
    if bias.shape != (len(bounds), a.shape[1]):
        raise ValueError(f"bias shape {bias.shape} incompatible with {a.shape} in {len(bounds)} segment(s)")
    rows = bias.data if offsets is None else np.repeat(bias.data, [hi - lo for lo, hi in bounds], axis=0)

    def backward(g):
        a._adopt(g)
        bias._adopt(np.concatenate([g[lo:hi].sum(axis=0, keepdims=True) for lo, hi in bounds]))

    return _make(a.data + rows, (a, bias), backward)


def _elu_in_place(out: np.ndarray, bias: np.ndarray | None = None) -> None:
    """Overwrite ``out`` with its ELU, after adding ``bias`` to each row, ``graph.BLOCK_ROWS`` rows at a time.

    A block's temporaries stay in cache, and none grows with the row count.
    """
    for start in range(0, len(out), graph.BLOCK_ROWS):
        block = out[start : start + graph.BLOCK_ROWS]
        if bias is not None:
            block += bias
        np.maximum(block, np.expm1(np.minimum(block, 0.0)), out=block)  # block > 0 keeps block; else expm1 >= block


def dense_elu(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """``elu(x @ w + bias)`` for a (1, d) ``bias`` row, in the product's own buffer.

    The product is a ``matmul`` node that only this op sees. The bias and
    the ELU overwrite that node's buffer in place, block by block, which is
    safe because ``matmul``'s rule reads its inputs, not its output. So the
    layer allocates one array of its output's size, and its rule one more.
    """
    if bias.shape != (1, w.shape[1]):
        raise ValueError(f"bias shape {bias.shape} incompatible with {w.shape}")
    product = matmul(x, w)
    out = product.data
    _elu_in_place(out, bias.data)

    def backward(g):
        slope = _elu_slope(out)
        g = np.multiply(g, slope, out=slope)
        bias._adopt(g.sum(axis=0, keepdims=True))
        product._adopt(g)

    return _make(out, (product, bias), backward)


def scale(a: Tensor, c: float) -> Tensor:
    def backward(g):
        a._adopt(g * c)

    return _make(a.data * c, (a,), backward)


def leaky_relu(a: Tensor, slope: float) -> Tensor:
    """``a`` where positive, else ``slope * a``, for a slope in (0, 1].

    In that range it is ``max(a, slope * a)``, formed in one array, and the
    output is positive exactly where ``a`` is, so the backward pass reads
    its mask from the output. At slope 0, ``0 * inf`` would turn +inf into NaN.
    """
    if not 0.0 < slope <= 1.0:
        raise ValueError(f"leaky_relu slope must be in (0, 1], got {slope}")
    out = a.data * slope
    np.maximum(a.data, out, out=out)

    def backward(g):
        grad = g * slope
        np.copyto(grad, g, where=out > 0)
        a._adopt(grad)

    return _make(out, (a,), backward)


def _elu_slope(out: np.ndarray) -> np.ndarray:
    """The ELU's derivative, read from its output: 1 where positive, else ``exp(a) = out + 1``.

    That is ``min(out + 1, 1)``, in one buffer: ``out > 0`` exactly where ``out + 1 > 1``.
    """
    slope = out + 1.0
    return np.minimum(slope, 1.0, out=slope)


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
        logits._adopt(p * (g - dot))

    return _make(p, (logits,), backward)


ATTENTION_SLOPE = 0.2  # attention_layer's leaky-ReLU slope, fixed as its ELU is (Velickovic et al., 2018)


def attention_layer(
    x: Tensor | None,
    w: Tensor,
    hw: np.ndarray,
    a_src: Tensor,
    a_dst: Tensor,
    pattern: SparsePattern,
    rate: float,
    rng: np.random.Generator | None,
) -> Tensor:
    """One H-head graph attention layer over ``pattern`` on its transform ``hw = x.data @ w.data``: n x H*d.

    ``hw`` is n x H*d, H blocks of d columns, and ``a_src`` and ``a_dst``
    are H x d. Head h's source and destination logits are block h of ``hw``
    dotted with row h of ``a_src`` and ``a_dst``, as one product with an
    H*d x H block-diagonal matrix each. Entry e's score is
    ``leaky_relu(src[rows[e]] + dst[cols[e]], ATTENTION_SLOPE)``, and each
    row's scores are softmaxed per head into E x H attention values. A
    ``rate`` above 0 drops them (``_keep_mask``); rate 0 needs no ``rng``.
    Block h of the output is the ELU of sparse matrix h, the kept values,
    times block h of ``hw``. The pattern's kernels do the row work, the
    products ``graph.BLOCK_ROWS`` rows at a time, and the ELU overwrites the
    product block by block.

    The rule keeps ``x``, ``w``, ``a_src``, ``a_dst``, the attention
    values, a boolean "score > 0" mask, the boolean dropout mask and the
    output; it does not keep ``hw`` or the dropped values. Backward forms
    both again with the forward's own expressions, then runs the steps of
    the chain this layer fuses (``matmul``, attention, dropout, aggregate)
    in reverse, so every value and gradient is bit-equal to that chain's.
    ``x`` is needed only for a recorded rule: pass ``None`` under
    ``no_grad()``, so the caller can free the input before the attention
    runs. An ``x`` that does not require grad, as layer 1's features do not,
    gets no gradient: its product is formed and dropped.
    """
    heads, d = a_src.shape
    if hw.ndim != 2 or hw.shape != (pattern.n, heads * d) or a_dst.shape != a_src.shape or heads == 0:
        shapes = f"hw {hw.shape}, a_src {a_src.shape}, a_dst {a_dst.shape}, pattern of {pattern.n} rows"
        raise ValueError(f"attention shape mismatch: {shapes}")
    parents = (w, a_src, a_dst) if x is None else (x, w, a_src, a_dst)
    records = _records(parents)
    if records and x is None:
        raise ValueError("a recorded attention layer needs its input x")
    keep, scale = _keep_mask((len(pattern.rows), heads), rate, rng), 1.0 / (1.0 - rate)
    diagonal = (np.arange(heads * d), np.repeat(np.arange(heads), d))
    b_src, b_dst = np.zeros((2, heads * d, heads))
    b_src[diagonal], b_dst[diagonal] = a_src.data.reshape(-1), a_dst.data.reshape(-1)
    p = np.take(hw @ b_src, pattern.rows, axis=0)
    p += np.take(hw @ b_dst, pattern.cols, axis=0)
    np.maximum(p, p * ATTENTION_SLOPE, out=p)  # the slope is in (0, 1]: positive exactly where the sum is
    positive = p > 0 if records else None
    np.subtract(p, np.take(pattern.row_max(p), pattern.rows, axis=0), out=p)
    np.exp(p, out=p)
    p /= np.take(pattern.row_sums(p), pattern.rows, axis=0)
    out = pattern.weighted_row_sums(p if keep is None else p * (keep * scale), hw)
    _elu_in_place(out)

    def backward(g):
        hw = x.data @ w.data
        dropped = p if keep is None else p * (keep * scale)
        # aggregate's step: the incoming gradient times the ELU's slope, in the slope's buffer
        slope_out = _elu_slope(out)
        g = np.multiply(g, slope_out, out=slope_out)
        g_att = pattern.entry_dots(g, hw, heads)
        # entry transpose[e] sits at (cols[e], rows[e]): its weight times g's row cols[e]
        g_hw = pattern.weighted_row_sums(np.take(dropped, pattern.transpose, axis=0), g)
        del g, dropped
        if keep is not None:
            g_att = g_att * (keep * scale)
        # the softmax's and the leaky ReLU's steps
        gp = np.take(pattern.row_sums(g_att * p), pattern.rows, axis=0)
        np.subtract(g_att, gp, out=gp)
        gp *= p
        g_att = gp * ATTENTION_SLOPE
        np.copyto(g_att, gp, where=positive)
        del gp
        # one pass for both ends: entry transpose[e] carries the gradient of dst[cols[e]]
        sums = pattern.row_sums(np.concatenate((g_att, np.take(g_att, pattern.transpose, axis=0)), axis=1))
        for a, blocks, part in ((a_src, b_src, sums[:, :heads]), (a_dst, b_dst, sums[:, heads:])):
            part = np.ascontiguousarray(part)  # with one head, a strided column would take another BLAS kernel
            g_hw += part @ blocks.T
            a._adopt((hw.T @ part)[diagonal].reshape(heads, d))
        del hw
        # the transform's step
        x._adopt(g_hw @ w.data.T)
        w._adopt(x.data.T @ g_hw)

    return _make(out, parents, backward)


def _keep_mask(shape: tuple[int, ...], rate: float, rng: np.random.Generator | None) -> np.ndarray | None:
    """Inverted dropout's boolean keep mask of ``shape``, drawn from ``rng``, or ``None`` at rate 0, which draws nothing.

    The uniforms fill the mask column after column, as H dropouts of E x 1 would for an E x H mask.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return None
    if rng is None:
        raise ValueError(f"dropout at rate {rate} needs an rng")
    return rng.random(shape[::-1]).T >= rate


def dropout(a: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout at ``rate``; ``a`` itself at rate 0, where ``rng`` may be ``None``."""
    keep = _keep_mask(a.shape, rate, rng)
    if keep is None:
        return a
    scale = 1.0 / (1.0 - rate)

    def backward(g):
        a._adopt(g * (keep * scale))  # the rule keeps a boolean mask, not the float one

    return _make(a.data * (keep * scale), (a,), backward)


def mean_rows(a: Tensor, offsets=None) -> Tensor:
    """Column means as a (1, d) row (mean pooling over rows).

    With row ``offsets``, one row per segment: row i averages the rows
    ``offsets[i]:offsets[i + 1]``, each segment on its own, exactly as a
    matrix of just those rows would be averaged.
    """
    bounds = _segments(a.shape[0], offsets)
    counts = [hi - lo for lo, hi in bounds]

    def backward(g):
        a._adopt(np.repeat(g / np.reshape(counts, (-1, 1)), counts, axis=0))

    return _make(np.concatenate([a.data[lo:hi].mean(axis=0, keepdims=True) for lo, hi in bounds]), (a,), backward)


def concat(parts: list[Tensor], axis: int = 1) -> Tensor:
    offsets = np.cumsum([0] + [p.shape[axis] for p in parts])

    def backward(g):
        for p, part in zip(parts, np.split(g, offsets[1:-1], axis=axis)):
            p._adopt(part.copy())

    return _make(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), backward)


def pick(a: Tensor, row: int, col: int = 0) -> Tensor:
    """Extract one entry of a matrix as a (1, 1) tensor; a negative, out-of-range or non-integer index raises."""
    try:
        row, col = graph._index(row), graph._index(col)
    except TypeError:
        raise ValueError(f"pick({row!r}, {col!r}) needs integer indices") from None
    if a.data.ndim != 2 or not (0 <= row < a.shape[0] and 0 <= col < a.shape[1]):
        raise ValueError(f"pick({row}, {col}) is outside a tensor of shape {a.shape}")

    def backward(g):
        full = np.zeros_like(a.data)
        full[row, col] = g[0, 0]
        a._adopt(full)

    return _make(a.data[row, col].reshape(1, 1), (a,), backward)


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    target = np.asarray(target, dtype=np.float64)
    if target.shape != pred.shape:
        raise ValueError(f"mse_loss target shape {target.shape} does not match prediction shape {pred.shape}")
    diff = pred.data - target
    n = diff.size

    def backward(g):
        pred._adopt((2.0 / n) * diff * g[0, 0])

    return _make(np.array([[float((diff * diff).mean())]]), (pred,), backward)


# --- optimizer --------------------------------------------------------------


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Bias-corrected Adam moments for one parameter list; ``lr`` must be finite and positive."""

    lr: float
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"Adam learning rate must be finite and > 0, got {self.lr}")


def adam_step(params: list[Tensor], state: AdamState) -> None:
    """One in-place Adam update of the list the first call was given; parameters with no gradient are skipped."""
    if not state.m:
        state.m = [np.zeros_like(p.data) for p in params]
        state.v = [np.zeros_like(p.data) for p in params]
    if len(params) != len(state.m):
        raise ValueError(f"adam_step got {len(params)} parameters, but its moments are for {len(state.m)}")
    state.step += 1
    t = state.step
    for p, m, v in zip(params, state.m, state.v):
        if p.grad is None:
            continue
        g = p.grad
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        p.data -= state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def zero_grads(params: list[Tensor]) -> None:
    for p in params:
        p.zero_grad()

