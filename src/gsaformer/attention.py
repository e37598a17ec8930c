"""Attention kernel, multi-head attention, the canonical reference, masks,
and the score-element counter shared by every attention variant.

attention_probs/attention_forward/attention_backward are the one score ->
softmax -> value kernel (and its gradient) on plain arrays, batched over
leading axes; the fused tape ops cca.cca_forward (through
multi_head_rows/multi_head_backward, unmasked) and gsa.gsa_forward (which
builds its own boolean allow array) both run it.  cca_forward hands
multi_head_rows one half tile of queries at a time (tensor.tile_rows),
and multi_head_rows scores one head of it at a time;
multi_head_backward holds nothing from the forward and rebuilds the
probabilities in the same tiles with attention_probs, the forward's own
arithmetic.  scaled_dot_attention and row_softmax compose the same
arithmetic from separate tape ops: they are the canonical reference that
the acceptance gates and the loop oracles of the tests are built from.
Their mask argument, AttentionMask, is either none or a custom allow
matrix."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .tensor import (
    DimensionError,
    Tensor,
    _record,
    accumulate_grad,
    matmul,
    multiply,
    row_tiles,
    tile_rows,
    transpose,
)


class OpCounter:
    """Tracks attention cost in score elements.

    score_elements: cumulative count of score-matrix entries computed (one
    entry = one d-length query-key dot product).  peak_score_buffer: the
    largest logical score matrix, i.e. the max of the per-call sizes.  One
    call is one query block against one key block (one head of canonical
    attention, one group of one GSA head, or one head's summary rows); the
    fused GSA op reports each group's matrix separately even though it
    holds all groups of a layer in one array.

    recomputed_score_elements: the score entries that backward rules compute
    again from their op's inputs instead of holding them: every one, since
    no rule holds probabilities.  The per-forward fields never include it.
    """

    def __init__(self):
        self.score_elements = 0
        self.peak_score_buffer = 0
        self.recomputed_score_elements = 0

    def add_scores(self, rows: int, cols: int) -> None:
        n = rows * cols
        self.score_elements += n
        if n > self.peak_score_buffer:
            self.peak_score_buffer = n

    def add_recomputed(self, rows: int, cols: int) -> None:
        self.recomputed_score_elements += rows * cols


class AttentionMask:
    """Which score entries may carry weight (True = attend).

    Kinds: none (full attention) or a custom boolean matrix.  A masked
    position gets exactly zero weight after softmax; a fully masked row
    yields an all-zero output row.
    """

    def __init__(self, matrix: Optional[np.ndarray] = None):
        self._matrix = matrix

    @classmethod
    def none(cls) -> "AttentionMask":
        return cls()

    @classmethod
    def custom(cls, matrix: np.ndarray) -> "AttentionMask":
        return cls(np.asarray(matrix, dtype=bool))

    def matrix(self, n_q: int, n_k: int) -> Optional[np.ndarray]:
        """Boolean allow-matrix of shape (n_q, n_k), or None for no mask."""
        if self._matrix is None:
            return None
        if self._matrix.shape != (n_q, n_k):
            raise DimensionError(
                f"custom mask shape {self._matrix.shape} != scores ({n_q}, {n_k})")
        return self._matrix


def softmax_last_axis(s: np.ndarray, allow: Optional[np.ndarray] = None) -> np.ndarray:
    """Softmax over the last axis of s, overwriting s, with max-subtraction.

    allow (broadcast against s; None = all allowed) marks the entries that
    may carry weight: the others come out exactly 0, and a row with no
    allowed entry comes out all-zero.  Returns s.
    """
    if allow is not None:
        np.copyto(s, -np.inf, where=~allow)
    row_max = s.max(axis=-1, keepdims=True)
    if allow is not None:
        # rows with no allowed entry: shift by 0; exp(-inf) underflows to
        # exactly 0, which is what the mask contract wants
        row_max[~np.isfinite(row_max)] = 0.0
    s -= row_max
    np.exp(s, out=s)
    denom = s.sum(axis=-1, keepdims=True)
    denom[denom <= 0.0] = 1.0
    s /= denom
    return s


def softmax_last_axis_backward(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Score gradient P * (G - sum_j G_j P_j) of a last-axis softmax with
    output p and output gradient g, overwriting g; exact zeros in p kill
    masked entries.  Returns g.  Row sums are taken in row tiles, so G * P
    is one tile, not a whole score array; each row sums as in one piece."""
    inner = np.empty_like(g[..., :1])
    for rows in row_tiles(g.shape[-2], tile_rows(half=True)):
        inner[..., rows, :] = (g[..., rows, :] * p[..., rows, :]).sum(axis=-1, keepdims=True)
    g -= inner
    g *= p
    return g


def row_softmax(scores: Tensor, mask: AttentionMask) -> Tensor:
    """Row-wise softmax with max-subtraction; masked entries are exactly 0
    and fully masked rows come out all-zero."""
    p = softmax_last_axis(scores.data.copy(), mask.matrix(*scores.shape))
    out = Tensor(p)
    scores_slot, out_slot = scores.slot, out.slot

    def backward():
        accumulate_grad(scores_slot, softmax_last_axis_backward(p, out_slot.grad.copy()),
                        owned=True)

    return _record("row_softmax", out, (scores,), backward)


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor, mask: AttentionMask,
                         counter: OpCounter) -> Tensor:
    """softmax(Q Kᵀ / sqrt(d)) V; adds one score element per query-key pair
    to the counter once the output is computed, so a call that its matmuls
    reject counts nothing.  Fully differentiable."""
    scores = multiply(matmul(q, transpose(k)), 1.0 / np.sqrt(q.shape[1]))
    out = matmul(row_softmax(scores, mask), v)
    counter.add_scores(q.shape[0], k.shape[0])
    return out


def attention_probs(q: np.ndarray, k_t: np.ndarray, scale: float,
                    allow: Optional[np.ndarray] = None,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """softmax(q @ k_t * scale) over the last two axes, batched over any
    leading ones, written into out when given; k_t holds the keys
    transposed and allow masks scores as in softmax_last_axis.  A backward
    rule that calls it on the forward's operands gets the forward's
    probabilities bit for bit."""
    p = np.matmul(q, k_t, out=out)
    p *= scale
    return softmax_last_axis(p, allow)


def attention_forward(q: np.ndarray, k_t: np.ndarray, v: np.ndarray, scale: float,
                      allow: Optional[np.ndarray] = None,
                      out: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """attention_probs(q, k_t, scale, allow) @ v.  Returns (output,
    probabilities), the output written into out when given."""
    p = attention_probs(q, k_t, scale, allow)
    return np.matmul(p, v, out=out), p


def attention_backward(q: np.ndarray, k_t: np.ndarray, v: np.ndarray, p: np.ndarray,
                       g: np.ndarray, scale: float) -> tuple[np.ndarray, ...]:
    """(d_q, d_k_t, d_v) of attention_forward from its inputs, its
    probabilities p and the output gradient g, with the arithmetic of the
    matmul/multiply/row_softmax rules; changes none of its arguments."""
    d_p = np.matmul(g, v.swapaxes(-1, -2))
    d_v = np.matmul(p.swapaxes(-1, -2), g)
    softmax_last_axis_backward(p, d_p)
    d_p *= scale
    return np.matmul(d_p, k_t.swapaxes(-1, -2)), np.matmul(q.swapaxes(-1, -2), d_p), d_v


def _head_slabs(d: int, heads: int) -> list[slice]:
    return [slice(h * (d // heads), (h + 1) * (d // heads)) for h in range(heads)]


def head_keys(k: np.ndarray, v: np.ndarray, heads: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Contiguous (k transposed, v) of each of `heads` column slabs of the
    keys k and values v (arrays)."""
    d = k.shape[1]
    if d % heads != 0:
        raise DimensionError(f"feature dim {d} not divisible by {heads} heads")
    if v.shape != k.shape:
        raise DimensionError(f"attention: K {k.shape} and V {v.shape} do not line up")
    return [(np.ascontiguousarray(k[:, cols].T), np.ascontiguousarray(v[:, cols]))
            for cols in _head_slabs(d, heads)]


def multi_head_rows(q: np.ndarray, keys: list[tuple[np.ndarray, np.ndarray]],
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """Unmasked scaled_dot_attention of the query rows q over the keys and
    values of every head (head_keys, one per contiguous column slab of q),
    the head outputs side by side, written into out when given, which may
    be q itself: a head's queries are scored before its columns of out
    are written.  It runs one head at a time, so one rows-by-l_k block of
    scores is alive at once; softmax is row-wise, so a tile of queries
    gets the rows the whole query block would.

    Each head works on a contiguous copy of its query columns, not a
    strided view: BLAS rounds one-row products differently for strided
    operands, and the copies keep every product bit-identical to
    scaled_dot_attention."""
    d = q.shape[1]
    scale = 1.0 / np.sqrt(d // len(keys))
    out = np.empty(q.shape) if out is None else out
    for cols, (k_t, v_h) in zip(_head_slabs(d, len(keys)), keys):
        attention_forward(np.ascontiguousarray(q[:, cols]), k_t, v_h, scale, out=out[:, cols])
    return out


def multi_head_backward(q: np.ndarray, k: np.ndarray, v: np.ndarray, g: np.ndarray,
                        heads: int, counter: OpCounter,
                        tiles: list[slice]) -> tuple[np.ndarray, np.ndarray]:
    """The gradients of multi_head_rows(q[rows], head_keys(k, v, heads))
    over the query tiles `rows` in tiles, from the output gradient g,
    computed in place to spare two whole arrays: on return q holds d_q
    and g holds the forward's output, rebuilt from the same tiles' P @ V;
    returns (d_k, d_v).  A head's columns of q and g are copied out before
    they are overwritten.  It holds nothing from the forward: it rebuilds
    the probabilities in the forward's query tiles, with its arithmetic,
    one whole head at a time, and adds those score elements to the
    counter's recomputed_score_elements."""
    (l_q, d), l_k = q.shape, k.shape[0]
    scale = 1.0 / np.sqrt(d // heads)
    d_k, d_v = np.empty(k.shape), np.empty(v.shape)
    for cols, (k_t, v_h) in zip(_head_slabs(d, heads), head_keys(k, v, heads)):
        # contiguous copies (ascontiguousarray would return g itself for one
        # head, which the P @ V below overwrites)
        q_h, g_h = q[:, cols].copy(), g[:, cols].copy()
        counter.add_recomputed(l_q, l_k)
        p = np.empty((l_q, l_k))
        for rows in tiles:
            attention_probs(q_h[rows], k_t, scale, out=p[rows])
            np.matmul(p[rows], v_h, out=g[rows, cols])
        q[:, cols], d_k_t, d_v[:, cols] = attention_backward(q_h, k_t, v_h, p, g_h, scale)
        d_k[:, cols] = d_k_t.T
    return d_k, d_v
