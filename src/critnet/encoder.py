"""Two-layer multi-head graph attention encoder over residual graphs.

Attention runs over each node's closed neighborhood: the alive edges in both
directions plus one self-loop per alive node, so an isolated residual node
still attends to itself. ``attention_mask`` is a ``GraphBatch``'s pattern,
its states' ``graph.residual`` CSRs side by side, with
E = 2 * m_alive + n_alive entries, and no n x n array is formed. Per head:
linear transform, per-entry logits ``src[row] + dst[col]`` through a leaky
ReLU of the fused op's slope ``autodiff.ATTENTION_SLOPE`` (0.2), a softmax
over each row's entries, dropout on the E attention values, then the sparse
attention-weighted sum. Head outputs are concatenated and passed through an
ELU. Each layer keeps one tensor per role: ``w`` (in x H*d) holds the heads'
transforms side by side, and ``a_src`` and ``a_dst`` (H x d) hold one
attention vector per row. So ``encode`` transforms a layer's input for all
heads with one product, and ``gat_layer`` runs the heads at once as one
recorded primitive, ``autodiff.attention_layer``. Its rule keeps the layer's
input, weights, E x H attention values, masks and output; backward forms the
transform and the dropped attention values again, so no n x H*d transform
and no per-head tensor sits on the tape. A seed draws the weights head after
head, as separate per-head tensors would, so the layout changes no value.
``encode`` runs once over all of a batch's states (a single graph is a batch
of one), and no attention crosses from one state to another.

``encode`` trains under one of two dropout profiles from ``DROPOUT_PROFILES``:

* ``"reduced"``  - no dropout on layer 1, attention dropout 0.3 on layer 2
                   (reduced variance, the Q-learning agent's default);
* ``"original"`` - the classic GAT profile with dropout 0.6 on the inputs
                   and attention coefficients of both layers.

An eval forward runs every rate at 0, under either profile. Attention
dropout draws E uniforms per head, one per closed-neighborhood entry in CSR
order and head after head (a dense layer would draw n^2), so a seeded
training run depends on that order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from critnet import autodiff as ad
from critnet.graph import GraphBatch, SparsePattern

IN_FEATURES = 4
N_HEADS = 8
# per-head widths 8 and 12 concatenate to hidden 64 and output 96
HIDDEN_PER_HEAD = 8
OUT_PER_HEAD = 12
HIDDEN_DIM = N_HEADS * HIDDEN_PER_HEAD
EMBEDDING_DIM = N_HEADS * OUT_PER_HEAD

# training-mode dropout rates: (layer-1 input, layer-1 attention,
# layer-2 input, layer-2 attention)
DROPOUT_PROFILES = {"reduced": (0.0, 0.0, 0.0, 0.3), "original": (0.6, 0.6, 0.6, 0.6)}


@dataclass
class LayerParams:
    """One attention layer: head h owns columns ``h*d:(h+1)*d`` of ``w`` and row h of ``a_src`` and ``a_dst``."""

    w: ad.Tensor
    a_src: ad.Tensor
    a_dst: ad.Tensor


@dataclass
class EncoderParams:
    layer1: LayerParams
    layer2: LayerParams

    def parameters(self) -> list[ad.Tensor]:
        return [t for _, t in self.named_parameters()]

    def named_parameters(self) -> list[tuple[str, ad.Tensor]]:
        return [
            (f"encoder.l{li}.{name}", getattr(layer, name))
            for li, layer in enumerate((self.layer1, self.layer2), start=1)
            for name in ("w", "a_src", "a_dst")
        ]


def _init_layer(rng: np.random.Generator, in_dim: int, per_head: int) -> LayerParams:
    """Glorot weights drawn head after head: a head's in x d transform, then its two d x 1 attention vectors."""
    w = np.empty((in_dim, N_HEADS * per_head))
    a_src, a_dst = np.empty((N_HEADS, per_head)), np.empty((N_HEADS, per_head))
    for h in range(N_HEADS):
        w[:, h * per_head : (h + 1) * per_head] = ad.glorot(rng, in_dim, per_head).data
        a_src[h] = ad.glorot(rng, per_head, 1).data[:, 0]
        a_dst[h] = ad.glorot(rng, per_head, 1).data[:, 0]
    return LayerParams(*(ad.tensor(t, requires_grad=True) for t in (w, a_src, a_dst)))


def init_encoder_params(rng: np.random.Generator) -> EncoderParams:
    return EncoderParams(
        layer1=_init_layer(rng, IN_FEATURES, HIDDEN_PER_HEAD),
        layer2=_init_layer(rng, HIDDEN_DIM, OUT_PER_HEAD),
    )


def attention_mask(batch: GraphBatch) -> SparsePattern:
    """Closed-neighborhood pattern of the batch's alive subgraphs (alive edges both ways plus self-loops), side by side."""
    if not isinstance(batch, GraphBatch):
        raise TypeError(f"expected a GraphBatch, got {type(batch).__name__}; GraphBatch.of([g]) is a batch of one")
    return batch.pattern


def gat_layer(
    x: ad.Tensor | None,
    hw: np.ndarray,
    mask: SparsePattern,
    layer: LayerParams,
    dropout_rate: float,
    rng: np.random.Generator | None = None,
) -> ad.Tensor:
    """One multi-head attention layer on its input ``x`` and transform ``hw``; returns elu(concat of head outputs).

    ``hw`` is ``x.data @ layer.w.data``: every head's transform side by side
    (n x H*d). ``autodiff.attention_layer`` scores it with the attention
    vectors into E x H attention values, drops them at ``dropout_rate``
    (drawing from ``rng`` head after head, as H per-head layers would), and
    takes the ELU of their weighted sums of ``hw``'s rows. Its rule keeps
    ``x``, not ``hw``, and forms ``hw`` and the dropped values again in backward.
    ``x`` may be ``None`` under ``no_grad()``, where no rule reads it.
    A ``mask`` whose row count is not ``hw``'s raises ``attention_layer``'s shape mismatch.
    """
    return ad.attention_layer(x, layer.w, hw, layer.a_src, layer.a_dst, mask, dropout_rate, rng)


def encode(
    batch: GraphBatch,
    features: np.ndarray,
    params: EncoderParams,
    training: bool = False,
    rng: np.random.Generator | None = None,
    profile: str = "reduced",
) -> ad.Tensor:
    """Per-node embeddings (n_alive x 96), at ``profile``'s dropout rates while ``training``, else drawing nothing.

    The rows, like those of ``features``, are every state's alive nodes,
    state after state; attention never crosses from one state to another.
    Each layer's transform is formed here, and the layer gets its input
    only while gradients are on, since only a recorded rule reads it. So in
    inference layer 1's n x 64 output is freed before layer 2's attention
    runs, and in training the tape keeps each layer's input and output but
    neither transform. ``encode`` alone turns ``training`` into rates.
    """
    if profile not in DROPOUT_PROFILES:
        raise ValueError(f"unknown dropout profile {profile!r}; known: {', '.join(DROPOUT_PROFILES)}")
    in1, att1, in2, att2 = DROPOUT_PROFILES[profile] if training else (0.0,) * 4
    mask = attention_mask(batch)
    h = ad.tensor(features)
    for layer, in_rate, att_rate in ((params.layer1, in1, att1), (params.layer2, in2, att2)):
        x = ad.dropout(h, in_rate, rng)
        del h
        hw = x.data @ layer.w.data
        if not ad.grad_enabled():
            x = None
        h = gat_layer(x, hw, mask, layer, att_rate, rng)
        del x, hw
    return h
