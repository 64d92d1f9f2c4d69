"""Two-layer multi-head graph attention encoder over residual graphs.

Attention runs over each node's closed neighborhood: the alive edges in
both directions plus one self-loop per alive node, so an isolated residual
node still attends to itself. ``attention_mask`` is the residual graph's
closed-neighbourhood CSR from ``graph.residual``, a ``SparsePattern`` with
E = 2 * m_alive + n_alive entries, and no n x n array is formed. Per head:
linear transform, per-entry logits ``src[row] + dst[col]`` through a
leaky-relu(0.2), a softmax over each row's entries, dropout on the E
attention values, then the sparse attention-weighted sum. Head outputs are
concatenated and passed through an ELU.

``encode`` takes one of two dropout profiles from ``DROPOUT_PROFILES``:

* ``"reduced"``  - no dropout on layer 1, attention dropout 0.3 on layer 2
                   while training (reduced-variance profile, the default for
                   the Q-learning agent);
* ``"original"`` - the classic GAT profile with dropout 0.6 on the inputs
                   and attention coefficients of both layers.

Training-mode attention dropout draws E uniforms, one per closed-neighborhood
entry in CSR order (a dense layer would draw n^2), so a seeded training run
depends on that order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from critnet import autodiff as ad
from critnet.graph import Graph, SparsePattern, residual

IN_FEATURES = 4
N_HEADS = 8
# per-head widths 8 and 12 concatenate to hidden 64 and output 96
HIDDEN_PER_HEAD = 8
OUT_PER_HEAD = 12
HIDDEN_DIM = N_HEADS * HIDDEN_PER_HEAD
EMBEDDING_DIM = N_HEADS * OUT_PER_HEAD

ATTENTION_SLOPE = 0.2
# training-mode dropout rates: (layer-1 input, layer-1 attention,
# layer-2 input, layer-2 attention)
DROPOUT_PROFILES = {"reduced": (0.0, 0.0, 0.0, 0.3), "original": (0.6, 0.6, 0.6, 0.6)}


@dataclass
class HeadParams:
    w: ad.Tensor
    a_src: ad.Tensor
    a_dst: ad.Tensor


@dataclass
class GatLayerParams:
    heads: list[HeadParams]


@dataclass
class EncoderParams:
    layer1: GatLayerParams
    layer2: GatLayerParams

    def parameters(self) -> list[ad.Tensor]:
        out = []
        for layer in (self.layer1, self.layer2):
            for head in layer.heads:
                out.extend([head.w, head.a_src, head.a_dst])
        return out

    def named_parameters(self) -> list[tuple[str, ad.Tensor]]:
        out = []
        for li, layer in enumerate((self.layer1, self.layer2), start=1):
            for hi, head in enumerate(layer.heads):
                out.append((f"encoder.l{li}.h{hi}.w", head.w))
                out.append((f"encoder.l{li}.h{hi}.a_src", head.a_src))
                out.append((f"encoder.l{li}.h{hi}.a_dst", head.a_dst))
        return out


def _glorot(rng: np.random.Generator, rows: int, cols: int) -> ad.Tensor:
    limit = np.sqrt(6.0 / (rows + cols))
    return ad.tensor(rng.uniform(-limit, limit, size=(rows, cols)), requires_grad=True)


def _init_layer(rng: np.random.Generator, in_dim: int, out_dim: int) -> GatLayerParams:
    heads = []
    for _ in range(N_HEADS):
        heads.append(
            HeadParams(
                w=_glorot(rng, in_dim, out_dim),
                a_src=_glorot(rng, out_dim, 1),
                a_dst=_glorot(rng, out_dim, 1),
            )
        )
    return GatLayerParams(heads)


def init_encoder_params(rng: np.random.Generator) -> EncoderParams:
    return EncoderParams(
        layer1=_init_layer(rng, IN_FEATURES, HIDDEN_PER_HEAD),
        layer2=_init_layer(rng, HIDDEN_DIM, OUT_PER_HEAD),
    )


def attention_mask(g: Graph) -> SparsePattern:
    """Closed-neighborhood pattern of the alive subgraph (alive edges both ways plus self-loops)."""
    return residual(g)


def gat_layer(
    h: ad.Tensor,
    mask: SparsePattern,
    layer: GatLayerParams,
    dropout_rate: float,
    training: bool,
    rng: np.random.Generator | None = None,
) -> ad.Tensor:
    """One multi-head attention layer; returns elu(concat of head outputs)."""
    if mask.n != h.shape[0]:
        raise ValueError(f"attention pattern of {mask.n} rows does not match {h.shape[0]} nodes")
    outputs = []
    for head in layer.heads:
        hw = ad.matmul(h, head.w)
        src = ad.gather_rows(ad.matmul(hw, head.a_src), mask)
        dst = ad.gather_rows(ad.matmul(hw, head.a_dst), mask, columns=True)
        att = ad.segment_softmax(ad.leaky_relu(ad.add(src, dst), ATTENTION_SLOPE), mask)
        att = ad.dropout(att, dropout_rate, rng, training)
        outputs.append(ad.spmm(att, mask, hw))
    return ad.elu(ad.concat(outputs, axis=1))


def encode(
    g: Graph,
    features: np.ndarray,
    params: EncoderParams,
    training: bool = False,
    rng: np.random.Generator | None = None,
    profile: str = "reduced",
) -> ad.Tensor:
    """Per-node embeddings (n_alive x 96) under a ``DROPOUT_PROFILES`` profile."""
    if profile not in DROPOUT_PROFILES:
        raise ValueError(f"unknown dropout profile {profile!r}; known: {', '.join(DROPOUT_PROFILES)}")
    in1, att1, in2, att2 = DROPOUT_PROFILES[profile]
    mask = attention_mask(g)
    h = ad.dropout(ad.tensor(features), in1, rng, training)
    h = gat_layer(h, mask, params.layer1, att1, training, rng)
    h = ad.dropout(h, in2, rng, training)
    return gat_layer(h, mask, params.layer2, att2, training, rng)
