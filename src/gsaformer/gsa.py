"""Grouped self-attention: local attention inside fixed-size groups plus a
global pass over per-group summary nodes, merged with learnable per-group
scalars.

The sequence is cut into m = ceil(l / l_g) groups, zero-padding the tail.
Each group attends within itself.  When the global path is on, every group
is projected down to l_s summary rows; the m*l_s summary rows attend to
each other, each group's summary output is average-pooled to one row, and
that row is blended back into the group's local output as
alpha_j * local + beta_j * pooled.  Score-element cost per head is
m*l_g^2 + (m*l_s)^2, linear in l for fixed l_g and l_s.

gsa_forward runs every group of every head through one batched tape op,
grouped_attention, with a hand-written backward.  partition_groups,
summarize_group, global_summary_attention and merge_outputs are the same
steps for a single group; tests build the loop-based reference from them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .attention import (
    AttentionMask,
    OpCounter,
    scaled_dot_attention,
    softmax_last_axis,
    softmax_last_axis_backward,
)
from .tensor import (
    DimensionError,
    Tensor,
    _record,
    accumulate_grad,
    active_tape,
    broadcast_add,
    matmul,
    mean_rows,
    multiply,
    pad_rows,
    slice_rows,
)


class ConfigError(ValueError):
    """Invalid layer or model configuration."""


class LengthError(ValueError):
    """Sequence longer than the configured maximum."""


@dataclass
class GsaConfig:
    l_g: int                    # group node length
    l_s: int                    # summarized node length
    d: int                      # model feature dimension
    heads: int
    m_max: int                  # group count at the configured max length
    causal: bool = False
    global_path: bool = True    # False reproduces the local-only ablation

    def __post_init__(self):
        if self.l_g <= 0 or self.l_s <= 0:
            raise ConfigError(f"group lengths must be positive: l_g={self.l_g}, l_s={self.l_s}")
        if self.l_s >= self.l_g:
            raise ConfigError(f"l_s must be < l_g, got l_s={self.l_s}, l_g={self.l_g}")
        if self.d % self.heads != 0:
            raise ConfigError(f"d={self.d} not divisible by heads={self.heads}")
        if self.m_max <= 0:
            raise ConfigError(f"m_max must be positive, got {self.m_max}")

    @property
    def uses_global(self) -> bool:
        # group summaries mix future positions inside the group, so the
        # global path would leak under a causal mask
        return self.global_path and not self.causal


@dataclass
class GsaLayerParams:
    """All learnable state of one grouped self-attention layer.

    The summary projections e_q/e_k/e_v are single tensors applied to every
    group (shared weights); alpha/beta hold one merge scalar per group slot.
    """

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    b_q: Tensor
    b_k: Tensor
    b_v: Tensor
    b_o: Tensor
    e_q: Tensor
    e_k: Tensor
    e_v: Tensor
    alpha: Tensor
    beta: Tensor

    @classmethod
    def init(cls, cfg: GsaConfig, rng: np.random.Generator) -> "GsaLayerParams":
        def proj():
            a = 1.0 / math.sqrt(cfg.d)
            return Tensor(rng.uniform(-a, a, size=(cfg.d, cfg.d)), requires_grad=True)

        def bias():
            return Tensor(np.zeros((1, cfg.d)), requires_grad=True)

        def summary():
            a = 1.0 / math.sqrt(cfg.l_g)
            return Tensor(rng.uniform(-a, a, size=(cfg.l_s, cfg.l_g)), requires_grad=True)

        # alpha=1, beta=0: the layer starts as pure local attention and the
        # gradient to beta is already nonzero, so the global path can learn on
        return cls(
            w_q=proj(), w_k=proj(), w_v=proj(), w_o=proj(),
            b_q=bias(), b_k=bias(), b_v=bias(), b_o=bias(),
            e_q=summary(), e_k=summary(), e_v=summary(),
            alpha=Tensor(np.ones((1, cfg.m_max)), requires_grad=True),
            beta=Tensor(np.zeros((1, cfg.m_max)), requires_grad=True),
        )

    def named(self, prefix: str = "") -> dict[str, Tensor]:
        return {
            f"{prefix}w_q": self.w_q, f"{prefix}w_k": self.w_k,
            f"{prefix}w_v": self.w_v, f"{prefix}w_o": self.w_o,
            f"{prefix}b_q": self.b_q, f"{prefix}b_k": self.b_k,
            f"{prefix}b_v": self.b_v, f"{prefix}b_o": self.b_o,
            f"{prefix}e_q": self.e_q, f"{prefix}e_k": self.e_k,
            f"{prefix}e_v": self.e_v,
            f"{prefix}alpha": self.alpha, f"{prefix}beta": self.beta,
        }


def partition_groups(x: Tensor, l_g: int) -> tuple[list[Tensor], int, int]:
    """Cut x into m = ceil(l / l_g) groups of l_g rows, zero-padding the
    tail; concatenating the groups and dropping the pad recovers x."""
    if l_g <= 0:
        raise ConfigError(f"l_g must be positive, got {l_g}")
    l = x.shape[0]
    m = math.ceil(l / l_g)
    pad = m * l_g - l
    padded = pad_rows(x, m * l_g)
    groups = [slice_rows(padded, j * l_g, (j + 1) * l_g) for j in range(m)]
    return groups, m, pad


def summarize_group(q_g: Tensor, k_g: Tensor, v_g: Tensor,
                    e_q: Tensor, e_k: Tensor, e_v: Tensor,
                    ) -> tuple[Tensor, Tensor, Tensor]:
    """Project a group's l_g rows down to l_s summary rows per stream."""
    if e_q.shape[1] != q_g.shape[0]:
        raise DimensionError(
            f"summary projection {e_q.shape} incompatible with group {q_g.shape}")
    return matmul(e_q, q_g), matmul(e_k, k_g), matmul(e_v, v_g)


def global_summary_attention(q_cat: Tensor, k_cat: Tensor, v_cat: Tensor,
                             l_s: int, counter: OpCounter) -> Tensor:
    """Canonical attention over all concatenated summary rows; the caller
    splits the result back into m segments of l_s rows."""
    if q_cat.shape[0] % l_s != 0:
        raise DimensionError(
            f"summary row count {q_cat.shape[0]} not divisible by l_s={l_s}")
    return scaled_dot_attention(q_cat, k_cat, v_cat, AttentionMask.none(), counter)


def merge_outputs(o_local: Tensor, o_summary_segment: Tensor,
                  alpha_j, beta_j) -> Tensor:
    """alpha_j * local output + beta_j * mean-pooled summary row, the pooled
    row broadcast onto every group row.  alpha_j/beta_j may be 1x1 tensors
    (learnable) or plain floats."""
    pooled = mean_rows(o_summary_segment)
    return broadcast_add(multiply(o_local, alpha_j), multiply(pooled, beta_j))


def gsa_op_count(l: int, l_g: int, l_s: int, global_path: bool = True) -> int:
    """Closed-form score-element count for one head: m*l_g^2 plus, with the
    global path on, (m*l_s)^2."""
    if l <= 0 or l_g <= 0 or l_s <= 0:
        raise ConfigError(f"lengths must be positive: l={l}, l_g={l_g}, l_s={l_s}")
    m = math.ceil(l / l_g)
    count = m * l_g * l_g
    if global_path:
        count += (m * l_s) ** 2
    return count


def _check_lengths(l: int, real_len: Optional[int], cfg: GsaConfig) -> tuple[int, int]:
    """(real_len, m): the real row count (default l) and the group count."""
    if l > cfg.m_max * cfg.l_g:
        raise LengthError(
            f"sequence length {l} exceeds configured maximum {cfg.m_max * cfg.l_g}")
    if real_len is None:
        real_len = l
    if not 1 <= real_len <= l:
        raise LengthError(f"real_len {real_len} outside [1, {l}]")
    m = math.ceil(real_len / cfg.l_g)
    if l > m * cfg.l_g:
        # extra whole groups of padding would change the group layout (and
        # add all-zero summary rows to the global pass); only completing
        # the final group is allowed
        raise LengthError(
            f"{l} rows with real_len {real_len} spans more than the "
            f"{m} groups the real rows occupy")
    return real_len, m


def _grouped(rows: np.ndarray, m: int, l_g: int, heads: int) -> np.ndarray:
    """View an (m*l_g, d) array as (heads, m, l_g, d_h) blocks."""
    d = rows.shape[1]
    return rows.reshape(m, l_g, heads, d // heads).transpose(2, 0, 1, 3)


def _to_groups(a: np.ndarray, m: int, l_g: int, heads: int, real_len: int) -> np.ndarray:
    """(l, d) rows as (heads, m, l_g, d_h) blocks with every row at index
    >= real_len zero: a view when all m*l_g rows are real, else a padded
    copy."""
    if real_len == m * l_g:
        return _grouped(a, m, l_g, heads)
    padded = np.zeros((m * l_g, a.shape[1]))
    padded[:real_len] = a[:real_len]
    return _grouped(padded, m, l_g, heads)


def _from_groups(blocks: np.ndarray, l: int, real_len: int) -> np.ndarray:
    """Inverse of _to_groups: the first l rows, rows >= real_len zeroed."""
    heads, m, l_g, dh = blocks.shape
    rows = np.empty((m * l_g, heads * dh))
    _grouped(rows, m, l_g, heads)[...] = blocks
    rows[real_len:] = 0.0
    return rows[:l]


def _local_allow(cfg: GsaConfig, m: int, real_len: int) -> Optional[np.ndarray]:
    """(m, l_g, l_g) allow array of the group scores: keys past real_len
    (in the last group) are masked, and so is the upper triangle when
    causal; None when nothing is masked."""
    valid = real_len - (m - 1) * cfg.l_g
    if valid == cfg.l_g and not cfg.causal:
        return None
    allow = np.ones((m, cfg.l_g, cfg.l_g), dtype=bool)
    allow[-1, :, valid:] = False
    if cfg.causal:
        allow &= np.tril(np.ones((cfg.l_g, cfg.l_g), dtype=bool))
    return allow


def _sum_last_to_first(parts: np.ndarray) -> np.ndarray:
    """Sum over the leading axis one term at a time, last index first: the
    order in which replaying a per-group loop's tape accumulates, so the
    fused gradients agree with that loop bit for bit."""
    return functools.reduce(np.add, parts[::-1])


def grouped_attention(q: Tensor, k: Tensor, v: Tensor, params: GsaLayerParams,
                      cfg: GsaConfig, real_len: Optional[int],
                      counter: OpCounter) -> Tensor:
    """Local attention in every group of every head, plus (when cfg.uses_global)
    the summary projection, global summary attention, pooling and alpha/beta
    merge, as one tape op with one backward rule.

    q, k, v are the projected l-by-d streams; rows at index >= real_len
    (default: all real) are treated as zero and masked as keys.  Returns the
    l-by-d head outputs side by side, ready for the output projection.  The
    counter sees one l_g-by-l_g matrix per head and group and one
    m*l_s-by-m*l_s matrix per head, although all of them are computed in
    one batched array.
    """
    l, d = q.shape
    if k.shape != (l, d) or v.shape != (l, d) or d != cfg.d:
        raise DimensionError(
            f"grouped attention: Q {q.shape}, K {k.shape}, V {v.shape} for d={cfg.d}")
    real_len, m = _check_lengths(l, real_len, cfg)
    heads, l_g, l_s = cfg.heads, cfg.l_g, cfg.l_s
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)
    use_global = cfg.uses_global
    inputs = (q, k, v)
    if use_global:
        inputs += (params.e_q, params.e_k, params.e_v, params.alpha, params.beta)
    taped = active_tape() is not None and any(t.requires_grad for t in inputs)

    qg, kg, vg = (_to_groups(t.data, m, l_g, heads, real_len) for t in (q, k, v))
    for _ in range(heads * m):
        counter.add_scores(l_g, l_g)
    p = np.matmul(qg, kg.swapaxes(-1, -2))
    p *= scale
    softmax_last_axis(p, _local_allow(cfg, m, real_len))
    out_rows = np.empty((m * l_g, d))
    o = _grouped(out_rows, m, l_g, heads)
    np.matmul(p, vg, out=o)
    if not taped:
        del p   # only the backward needs the probabilities

    if use_global:
        n_s = m * l_s
        # (heads, m*l_s, d_h): every group's l_s summary rows, in group order
        qs, ks, vs = (np.matmul(e.data, x).reshape(heads, n_s, dh)
                      for e, x in ((params.e_q, qg), (params.e_k, kg), (params.e_v, vg)))
        for _ in range(heads):
            counter.add_scores(n_s, n_s)
        pg = np.matmul(qs, ks.swapaxes(-1, -2))
        pg *= scale
        softmax_last_axis(pg)
        og = np.matmul(pg, vs).reshape(heads, m, l_s, dh)
        pooled = og.mean(axis=2)
        alpha = params.alpha.data[0, :m]
        beta = params.beta.data[0, :m]
        o_local = o.copy() if taped else None
        o *= alpha[:, None, None]
        o += (pooled * beta[:, None])[:, :, None, :]

    out = Tensor(out_rows[:l])
    if not taped:
        return out

    def backward():
        if out.grad is None:
            return
        g = _to_groups(out.grad, m, l_g, heads, l)
        d_local = g * alpha[:, None, None] if use_global else g
        # local attention inside every group
        d_p = np.matmul(d_local, vg.swapaxes(-1, -2))
        d_v = np.matmul(p.swapaxes(-1, -2), d_local)
        softmax_last_axis_backward(p, d_p)
        d_p *= scale
        d_q = np.matmul(d_p, kg)
        d_k = np.matmul(qg.swapaxes(-1, -2), d_p).swapaxes(-1, -2)
        if use_global:
            # merge: out_j = alpha_j * local_j + beta_j * pooled_j
            g_cols = g.sum(axis=2)
            slot_grads = ((g * o_local).reshape(heads, m, -1).sum(axis=-1),
                          (g_cols * pooled).sum(axis=-1))
            for param, d_slot in zip((params.alpha, params.beta), slot_grads):
                full = np.zeros(param.shape)
                full[0, :m] = _sum_last_to_first(d_slot)
                accumulate_grad(param, full)
            d_pooled = g_cols * beta[:, None] / l_s
            d_og = np.repeat(d_pooled[:, :, None, :], l_s, axis=2).reshape(heads, n_s, dh)
            # global summary attention
            d_pg = np.matmul(d_og, vs.swapaxes(-1, -2))
            d_vs = np.matmul(pg.swapaxes(-1, -2), d_og)
            softmax_last_axis_backward(pg, d_pg)
            d_pg *= scale
            d_qs = np.matmul(d_pg, ks)
            d_ks = np.matmul(qs.swapaxes(-1, -2), d_pg).swapaxes(-1, -2)
            # summary projections, shared by every group and head
            for e, x, d_s, d_x in ((params.e_q, qg, d_qs, d_q), (params.e_k, kg, d_ks, d_k),
                                   (params.e_v, vg, d_vs, d_v)):
                d_s = d_s.reshape(heads, m, l_s, dh)
                d_e = np.matmul(d_s, x.swapaxes(-1, -2)).reshape(-1, l_s, l_g)
                accumulate_grad(e, _sum_last_to_first(d_e))
                d_x += np.matmul(e.data.T, d_s)
        for t, d_t in ((q, d_q), (k, d_k), (v, d_v)):
            accumulate_grad(t, _from_groups(d_t, l, real_len))

    return _record("grouped_attention", out, inputs, backward)


def gsa_forward(x: Tensor, params: GsaLayerParams, cfg: GsaConfig,
                counter: OpCounter, real_len: Optional[int] = None) -> Tensor:
    """One grouped self-attention layer over an l-by-d sequence.

    Rows at index >= real_len (default: all rows real) are padding: their
    projected queries/keys/values are zeroed and they are masked out as
    keys, so outputs at real positions never depend on pad values.
    """
    d = x.shape[1]
    if d != cfg.d:
        raise DimensionError(f"input dim {d} != configured d {cfg.d}")
    q = broadcast_add(matmul(x, params.w_q), params.b_q)
    k = broadcast_add(matmul(x, params.w_k), params.b_k)
    v = broadcast_add(matmul(x, params.w_v), params.b_v)
    combined = grouped_attention(q, k, v, params, cfg, real_len, counter)
    return broadcast_add(matmul(combined, params.w_o), params.b_o)
