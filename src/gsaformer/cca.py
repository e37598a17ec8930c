"""Compressed cross-attention: the encoder output is linearly compressed
to a fixed row count before serving as keys/values, so cross-attention
cost is l_dec * l_comp no matter how long the encoder sequence gets.
Each decoder layer owns its own compression matrix, when it needs one.
The compression is a matmul op of its own; the projections, attention and
output projection after it are one tape op whose rule rebuilds Q, K, V,
the probabilities and the attended rows."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .attention import OpCounter, head_keys, multi_head_backward, multi_head_rows
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
    row_tiles,
    tile_rows,
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


def cca_keys(memory: Tensor, params: CcaLayerParams, heads: int, counter: OpCounter,
             l_dec: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each head's (K transposed, V) of memory (attention.head_keys of the
    K and V projections, with linear's arithmetic), for l_dec queries:
    the counter sees one l_dec-by-l_k call per head here, however the
    queries are then cut.  A caller that runs cca_forward on row tiles of
    its queries projects them once, with the whole query count, and hands
    them to every tile's call."""
    p = params
    if memory.shape[1] != p.w_k.shape[0]:
        raise DimensionError(f"cca: memory {memory.shape} for projections {p.w_k.shape}")
    keys = head_keys(affine(memory.data, p.w_k, p.b_k), affine(memory.data, p.w_v, p.b_v),
                     heads)
    for _ in range(heads):
        counter.add_scores(l_dec, memory.shape[0])
    return keys


def _attention_tiles(tiles: list[slice]) -> list[slice]:
    """The half tiles (tile_rows(half=True)) that cca_forward attends each
    of its query tiles in, in query rows: a half tile also holds a head's
    scores, a row per key."""
    return [slice(rows.start + half.start, rows.start + half.stop) for rows in tiles
            for half in row_tiles(rows.stop - rows.start, tile_rows(half=True))]


def cca_forward(h_dec: Tensor, h_enc: Optional[Tensor], params: CcaLayerParams,
                counter: OpCounter, heads: int = 1, *, compressed: bool = False,
                keys: Optional[list[tuple[np.ndarray, np.ndarray]]] = None) -> Tensor:
    """Queries from the decoder stream; keys/values projected from the
    compressed encoder output; canonical attention; output projection.
    With compressed=True, h_enc is already compress_encoder_output(encoder
    output, params.c), as the model passes it, and is used as is.  keys,
    when given, is cca_keys of that memory, made (and counted) once for a
    query sequence of which h_dec is a row tile; by default this call
    makes them for h_dec.  With keys, h_enc may be None for a call that
    does not record, so that the caller need not hold the memory: only the
    rule reads it.

    Everything after the compression is one tape op, bit for bit the
    linear q/k/v projections, multi-head attention and linear output
    projection composed, at every width a row tile cut does not change.
    Each row tile of queries is projected, attended one half tile at a
    time (attention.multi_head_rows writes a half tile's attended rows
    over its Q rows) and output-projected, so Q and the attended rows are
    one tile big and a head's scores one half tile.  The rule holds h_dec
    and the memory (through held_values) and the parameters: the backward
    rebuilds Q (in the forward's tiles), K, V, the probabilities (in its
    half tiles) and the attended rows with the forward's arithmetic, and
    adds into the memory's gradient v's share before k's, as the composed
    rules' replay would.

    No mask: compressed rows are mixtures of all encoder positions, so a
    key-padding mask has nothing to point at.
    """
    memory = h_enc if compressed or h_enc is None else compress_encoder_output(h_enc, params.c)
    p = params
    if h_dec.shape[1] != p.w_q.shape[0]:
        raise DimensionError(f"cca: decoder {h_dec.shape} for projections {p.w_q.shape}")
    l_dec = h_dec.shape[0]
    if keys is None:
        keys = cca_keys(memory, p, heads, counter, l_dec)
    tiles = row_tiles(l_dec, tile_rows())
    out_data = np.empty((l_dec, p.w_o.shape[1]))
    for rows in tiles:
        q = affine(h_dec.data[rows], p.w_q, p.b_q)
        for half in _attention_tiles([slice(0, q.shape[0])]):
            multi_head_rows(q[half], keys, out=q[half])
        affine(q, p.w_o, p.b_o, out_data[rows])
        del q       # else two tiles of Q would be alive at once
    del keys
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
        d_q = np.empty((l_dec, p.w_q.shape[1]))     # Q until multi_head_backward
        for rows in tiles:
            affine(dec[rows], p.w_q, p.b_q, d_q[rows])
        del dec
        attended = linear_input_grad(g, p.w_o, p.b_o)   # its gradient until then
        d_k, d_v = multi_head_backward(d_q, affine(mem, p.w_k, p.b_k),
                                       affine(mem, p.w_v, p.b_v), attended, heads, counter,
                                       _attention_tiles(tiles))
        accumulate_grad(p.w_o, attended.T @ g, owned=True)
        del attended
        linear_backward(memory_slot, mem, p.w_v, p.b_v, d_v)
        linear_backward(memory_slot, mem, p.w_k, p.b_k, d_k)
        linear_backward(dec_slot, dec_values(), p.w_q, p.b_q, d_q)

    return _record("cca", out, inputs, backward)
