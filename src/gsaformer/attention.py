"""Attention kernel, the head layout, the canonical reference, masks, and
the score-element counter shared by every attention variant.

attention_probs/attention_forward/attention_backward are the one score ->
softmax -> value kernel (and its gradient) on plain arrays, batched over
leading axes.  head_view is the one head layout: it views an (n, d) array
as (heads, n, d_h) blocks, head h being column slab h.  Both fused tape
ops run the kernel on it: gsa.gsa_forward on every head's groups at
once (it builds its own boolean allow array and cuts the rows into
groups), and head_attention, unmasked, on one head's block at a time, a
half tile of queries against every key per call, forward and backward:
it is the whole of GSA's global path over the summary rows and of
cca.cca_forward's attention.
scaled_dot_attention and row_softmax compose the same arithmetic from
separate tape ops: they are the canonical reference that the acceptance
gates and the loop oracles of the tests are built from.  Their mask
argument, AttentionMask, is either none or a custom allow matrix."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .tensor import (
    DimensionError,
    Tensor,
    _record,
    accumulate_grad,
    half_tiles,
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
    matmul/multiply/row_softmax rules; changes none of its arguments but
    p.  Once d_v has read p, the score gradient is written over p in
    half_tiles of its rows, so one half tile of it is alive beside p, not
    a second score array."""
    d_v = np.matmul(p.swapaxes(-1, -2), g)
    for rows in half_tiles(p.shape[-2]):
        p[..., rows, :] = softmax_last_axis_backward(
            p[..., rows, :], np.matmul(g[..., rows, :], v.swapaxes(-1, -2)))
    p *= scale
    return np.matmul(p, k_t.swapaxes(-1, -2)), np.matmul(q.swapaxes(-1, -2), p), d_v


def head_attention(q: np.ndarray, k_t: np.ndarray, v: np.ndarray, scale: float,
                   out: np.ndarray, g: Optional[np.ndarray] = None) -> None:
    """Unmasked attention of (heads, n, d_h) queries q on (heads, d_h, l_k)
    transposed keys k_t and (heads, l_k, d_h) values v, one head at a
    time, an attention_forward call per half tile of queries (half_tiles),
    so one head's half tile of scores is alive at a time.  Each head's
    output rows go into out, which may be q.

    With g, the output gradient, it is the backward of that forward: per
    head it rebuilds the probabilities with the forward's arithmetic
    (into one n-by-l_k array, the head's only one alive) and the output
    rows into out, which may be g, then overwrites q, k_t and v with
    their gradients.  It reads the head's q and g from contiguous copies,
    as at d_h = 1 BLAS rounds a strided q's products differently."""
    tiles = half_tiles(q.shape[1])
    for h in range(q.shape[0]):
        if g is None:
            for rows in tiles:
                attention_forward(q[h, rows], k_t[h], v[h], scale, out=out[h, rows])
            continue
        q_h, g_h = q[h].copy(), g[h].copy()
        p = np.empty((q.shape[1], k_t.shape[-1]))
        for rows in tiles:
            attention_probs(q_h[rows], k_t[h], scale, out=p[rows])
            np.matmul(p[rows], v[h], out=out[h, rows])
        q[h], k_t[h], v[h] = attention_backward(q_h, k_t[h], v[h], p, g_h, scale)
        del q_h, g_h, p     # else two heads' would be alive at once


def head_view(a: np.ndarray, heads: int) -> np.ndarray:
    """View an (n, d) array as (heads, n, d_h) blocks: head h is column
    slab h.  Every attention op that splits features into heads splits
    them here."""
    n, d = a.shape
    if d % heads != 0:
        raise DimensionError(f"feature dim {d} not divisible by {heads} heads")
    return a.reshape(n, heads, d // heads).transpose(1, 0, 2)
