"""Compressed cross-attention: the encoder output is linearly compressed
to a fixed row count before serving as keys/values, so cross-attention
cost is l_dec * l_comp no matter how long the encoder sequence gets.
Each decoder layer owns its own compression matrix, when it needs one.
The compression is a matmul op of its own; the projections, attention and
output projection after it are one tape op whose rule rebuilds Q, K, V,
the probabilities and the attended rows.  Its attention is
attention.head_attention, as GSA's global path is: one head at a time,
forward and backward, a kernel call scoring one head's half tile of
queries against every key."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .attention import OpCounter, head_attention, head_view
from .tensor import (
    DimensionError,
    ParameterSet,
    Tensor,
    _record,
    accumulate_grad,
    affine,
    held_values,
    linear_backward,
    linear_input_grad,
    matmul,
    recording,
    tiles,
    uniform_param,
    zero_row,
)


@dataclass
class CcaLayerParams(ParameterSet):
    """Per-decoder-layer compression matrix plus Q/K/V/output projections.

    c is l_comp-by-l_enc and is never shared between layers.  It exists
    only when l_enc > l_comp; otherwise the encoder output is used as is.
    b_k is a constant zero row (requires_grad False): every key a query
    scores carries it, which shifts that query's scores alike, so softmax
    cancels it and it could learn nothing but rounding noise."""

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
                   zero_row(d), Tensor(np.zeros((1, d))), zero_row(d), zero_row(d))


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


def _head_keys(mem: np.ndarray, p: CcaLayerParams,
               heads: int) -> tuple[np.ndarray, np.ndarray]:
    """K transposed and V of the memory rows mem (linear's arithmetic) as
    contiguous (heads, d_h, l_k) and (heads, l_k, d_h) arrays: strided
    views would round some gradients differently."""
    return (np.ascontiguousarray(head_view(affine(mem, p.w_k, p.b_k), heads).swapaxes(-1, -2)),
            np.ascontiguousarray(head_view(affine(mem, p.w_v, p.b_v), heads)))


def cca_keys(memory: Tensor, params: CcaLayerParams, heads: int, counter: OpCounter,
             l_dec: int) -> tuple[np.ndarray, np.ndarray]:
    """_head_keys of memory for l_dec queries: the counter sees one
    l_dec-by-l_k call per head here, however the queries are then cut.
    A caller that runs cca_forward on row tiles of its queries projects
    them once, with the whole query count, and hands them to every
    tile's call."""
    if memory.shape[1] != params.w_k.shape[0]:
        raise DimensionError(f"cca: memory {memory.shape} for projections {params.w_k.shape}")
    keys = _head_keys(memory.data, params, heads)
    for _ in range(heads):
        counter.add_scores(l_dec, memory.shape[0])
    return keys


def cca_forward(h_dec: Tensor, h_enc: Optional[Tensor], params: CcaLayerParams,
                counter: OpCounter, heads: int = 1, *,
                keys: Optional[tuple[np.ndarray, np.ndarray]] = None) -> Tensor:
    """Queries from the decoder stream; keys/values projected from the
    compressed encoder output; canonical attention; output projection.
    h_enc is the encoder output (l_enc rows), which the call compresses,
    or its compress_encoder_output (l_comp rows), as the model passes it,
    which is used as is; the row count tells them apart, since a layer
    has a C only when l_enc > l_comp.  keys, when given, is cca_keys of
    that memory, made (and counted) once for a query sequence of which
    h_dec is a row tile; by default this call makes them for h_dec.  With
    keys, h_enc may be None for a call that does not record, so that the
    caller need not hold the memory: only the rule reads it.

    Everything after the compression is one tape op, bit for bit the
    linear q/k/v projections, attention on each head's column slab and
    the linear output projection composed, at every width a row tile cut
    does not change.  Each row tile of queries is projected, attended by
    head_attention on the head_view of its Q rows, which the attended
    rows overwrite, and output-projected, so Q and the attended rows are
    one tile big and the scores one head's of a half tile.  The rule
    holds h_dec, the memory (through held_values) and the parameters:
    the backward rebuilds Q (in the forward's tiles), K and V, then runs
    head_attention's backward, which rebuilds one head's l_dec-by-l_k
    probabilities at a time and the attended rows with the forward's
    arithmetic.  It adds into the memory's gradient v's share before
    k's, as the composed rules' replay would, and every score element it
    rebuilds to the counter's recomputed_score_elements.

    No mask: compressed rows are mixtures of all encoder positions, so a
    key-padding mask has nothing to point at.
    """
    p = params
    memory = h_enc
    if h_enc is not None and p.c is not None and h_enc.shape[0] != p.c.shape[0]:
        memory = compress_encoder_output(h_enc, p.c)
    if h_dec.shape[1] != p.w_q.shape[0]:
        raise DimensionError(f"cca: decoder {h_dec.shape} for projections {p.w_q.shape}")
    l_dec = h_dec.shape[0]
    if keys is None:
        keys = cca_keys(memory, p, heads, counter, l_dec)
    k_t, v = keys
    scale = 1.0 / np.sqrt(k_t.shape[1])
    cut = tiles(l_dec)
    out_data = np.empty((l_dec, p.w_o.shape[1]))
    for rows in cut:
        q = affine(h_dec.data[rows], p.w_q, p.b_q)
        q_heads = head_view(q, heads)
        head_attention(q_heads, k_t, v, scale, out=q_heads)
        affine(q, p.w_o, p.b_o, out_data[rows])
        del q, q_heads      # else two tiles of Q would be alive at once
    del keys, k_t, v
    out = Tensor(out_data)
    inputs = (h_dec, p.w_q, p.b_q, p.w_k, p.b_k, p.w_v, p.b_v, p.w_o, p.b_o)
    if memory is not None:
        inputs += (memory,)
    if not recording(inputs):
        return out
    if memory is None:
        raise ValueError("cca: a call that records needs the memory its rule reads")
    dec_slot, memory_slot, out_slot = h_dec.slot, memory.slot, out.slot
    dec_values, memory_values = held_values(h_dec), held_values(memory)

    def backward():
        g = out_slot.grad
        mem = memory_values()
        dec = dec_values()
        d_q = np.empty((l_dec, p.w_q.shape[1]))     # Q until head_attention's backward
        for rows in cut:
            affine(dec[rows], p.w_q, p.b_q, d_q[rows])
        del dec
        # the attended rows' gradient, until head_attention rebuilds them over it
        attended = linear_input_grad(g, p.w_o, p.b_o)
        k_t, v = _head_keys(mem, p, heads)      # K and V, then their gradients
        counter.add_recomputed(heads * l_dec, mem.shape[0])
        a_heads = head_view(attended, heads)
        head_attention(head_view(d_q, heads), k_t, v, scale, out=a_heads, g=a_heads)
        d_k, d_v = (np.ascontiguousarray(a.swapaxes(0, 1)).reshape(mem.shape)
                    for a in (k_t.swapaxes(-1, -2), v))
        del k_t, v, a_heads
        accumulate_grad(p.w_o, attended.T @ g, owned=True)
        del attended
        linear_backward(memory_slot, mem, p.w_v, p.b_v, d_v)
        linear_backward(memory_slot, mem, p.w_k, p.b_k, d_k)
        linear_backward(dec_slot, dec_values(), p.w_q, p.b_q, d_q)

    return _record("cca", out, inputs, backward)
