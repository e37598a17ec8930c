"""Compressed cross-attention: the encoder output is linearly compressed
to a fixed row count before serving as keys/values, so cross-attention
cost is l_dec * l_comp no matter how long the encoder sequence gets.
Each decoder layer owns its own compression matrix, when it needs one."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .attention import OpCounter, multi_head_attention
from .tensor import ParameterSet, Tensor, linear, matmul, uniform_param, zero_row


@dataclass
class CcaLayerParams(ParameterSet):
    """Per-decoder-layer compression matrix plus Q/K/V/output projections.

    c is l_comp-by-l_enc and is never shared between layers.  It exists
    only when l_enc > l_comp; otherwise the encoder output is used as is."""

    c: Optional[Tensor]
    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    b_q: Tensor
    b_k: Tensor
    b_v: Tensor
    b_o: Tensor

    @classmethod
    def init(cls, d: int, l_enc: int, l_comp: int,
             rng: np.random.Generator) -> "CcaLayerParams":
        # drawn even when unused, so later tensors start at the same seed-stream point
        c = uniform_param(rng, (l_comp, l_enc), fan_in=l_enc)
        return cls(c if l_enc > l_comp else None,
                   *(uniform_param(rng, (d, d), fan_in=d) for _ in range(4)),
                   *(zero_row(d) for _ in range(4)))


def compress_encoder_output(h_enc: Tensor, c: Optional[Tensor]) -> Tensor:
    """C @ H_enc, shrinking l_enc rows to l_comp.  A layer whose encoder
    output is no longer than l_comp has no C, and the input passes through
    unchanged."""
    if c is None:
        return h_enc
    return matmul(c, h_enc)


def cca_op_count(l_dec: int, l_enc: int, l_comp: int, heads: int = 1) -> int:
    """Closed-form score-element count: each of the l_dec queries scores
    min(l_enc, l_comp) keys after compression, per head."""
    return heads * l_dec * min(l_enc, l_comp)


def cca_forward(h_dec: Tensor, h_enc: Tensor, params: CcaLayerParams,
                counter: OpCounter, heads: int = 1, *, compressed: bool = False) -> Tensor:
    """Queries from the decoder stream; keys/values projected from the
    compressed encoder output; canonical attention; output projection.
    With compressed=True, h_enc is already compress_encoder_output(encoder
    output, params.c), as the model passes it, and is used as is.  Q, K
    and V are dropped before the output projection runs.

    No mask: compressed rows are mixtures of all encoder positions, so a
    key-padding mask has nothing to point at.
    """
    q = linear(h_dec, params.w_q, params.b_q)
    h_c = h_enc if compressed else compress_encoder_output(h_enc, params.c)
    k = linear(h_c, params.w_k, params.b_k)
    v = linear(h_c, params.w_v, params.b_v)
    attended = multi_head_attention(q, k, v, heads, counter)
    del q, k, v
    return linear(attended, params.w_o, params.b_o)
