"""Grouped self-attention: local attention inside fixed-size groups plus a
global pass over per-group summary nodes, merged with learnable per-group
scalars.

The sequence is cut into m = ceil(l / l_g) groups, zero-padding the tail.
Each group attends within itself.  When the global path is on, every group
is projected down to l_s summary rows; the m*l_s summary rows attend to
each other, each group's summary output is average-pooled to one row, and
that row is blended back into the group's local output as
alpha_j * local + beta_j * pooled.  Score-element cost per head is
m*l_g^2 + (m*l_s)^2, linear in l for fixed l_g and l_s.  A causal layer
scores each group as two blocks (_stripes), split at h = l_g // 2: rows
[0, h) on keys [0, h) and rows [h, l_g) on every key, so the top-right
quarter its mask zeroes is never computed, and a group costs
h^2 + (l_g - h)*l_g.

gsa_forward runs the Q/K/V projections, every group of every head and
the output projection as one tape op, grouped_attention, with a
hand-written backward; the projections write straight into zero-padded
group buffers, viewed as (heads, groups, l_g, d_h) blocks (the
attention.head_view layout, its rows cut into groups), so the heads are
one more batch axis of every attention call.  A group's summary rows
are linear in its rows, so the op makes them from x first, without
projecting it, and runs the summary attention through
attention.head_attention, as CCA runs its attention: one head at a time,
a half tile of its queries per call; only the pooled rows outlive it.
Then it walks one cut, the half tiles of whole groups (tensor.half_tiles:
TILE_ROWS // 2 rows rounded down to whole groups), once: a half tile's Q
sits where its outputs will go, its K is projected, scored (block by
block) and dropped before its V is projected, and p @ V is written over
Q, then merged and output-projected, so a half tile each of Q, of K or V
and of every head's group probabilities (3/4 of them when causal) is
alive at a time: without a tape the op holds its input, its output and
one half tile.  A caller that does not record can pass a row-local
continuation instead, which gets each half tile's output rows; the op
then holds its input and one half tile, and no output.  The op's rule
holds only its input (through tensor.held_values, so a layer norm's
output is rebuilt, not held) and its parameters, and rebuilds Q, K and V
(in the forward's half tiles), the global path (one head's summary
probabilities at a time), every half tile's local probabilities and the
merged head outputs in the backward, which walks the same half tiles
once.
summarize_group, global_summary_attention and merge_outputs are the
global path's steps for a single group, composed from separate tape
ops; the model does not call them, and the tests build their loop-based
reference from them (cutting the sequence into groups is part of that
reference, in tests/helpers.py).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .attention import (
    AttentionMask,
    OpCounter,
    attention_backward,
    attention_forward,
    attention_probs,
    head_attention,
    head_view,
    scaled_dot_attention,
)
from .tensor import (
    DimensionError,
    ParameterSet,
    Tensor,
    _record,
    accumulate_grad,
    affine,
    broadcast_add,
    half_tiles,
    held_values,
    linear_backward,
    linear_input_grad,
    matmul,
    mean_rows,
    multiply,
    recording,
    uniform_param,
    zero_row,
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
        if self.heads < 1:
            raise ConfigError(f"heads must be >= 1, got {self.heads}")
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
class GsaLayerParams(ParameterSet):
    """All learnable state of one grouped self-attention layer.

    The summary projections e_q/e_k/e_v are single tensors applied to every
    group (shared weights); alpha/beta hold one merge scalar per group slot.
    These five exist only when cfg.uses_global: a causal or local-only
    layer never reads them.  Without the global path b_k is a constant zero
    row (requires_grad False): every key a query scores is in its own group
    and carries b_k, which shifts that query's scores alike, so softmax
    cancels it and it could learn nothing but rounding noise.  With the
    global path the summary keys carry b_k unequally, so it is learnable.
    """

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    b_q: Tensor
    b_k: Tensor
    b_v: Tensor
    b_o: Tensor
    e_q: Optional[Tensor] = None
    e_k: Optional[Tensor] = None
    e_v: Optional[Tensor] = None
    alpha: Optional[Tensor] = None
    beta: Optional[Tensor] = None

    @classmethod
    def init(cls, cfg: GsaConfig, rng: np.random.Generator) -> "GsaLayerParams":
        d = cfg.d
        b_k = zero_row(d) if cfg.uses_global else Tensor(np.zeros((1, d)))
        params = cls(*(uniform_param(rng, (d, d), fan_in=d) for _ in range(4)),
                     zero_row(d), b_k, zero_row(d), zero_row(d))
        # drawn even when unused, so later layers start at the same seed-stream point
        summaries = [uniform_param(rng, (cfg.l_s, cfg.l_g), fan_in=cfg.l_g) for _ in range(3)]
        if cfg.uses_global:
            params.e_q, params.e_k, params.e_v = summaries
            # alpha=1, beta=0: the layer starts as pure local attention and the
            # gradient to beta is already nonzero, so the global path can learn on
            params.alpha = Tensor(np.ones((1, cfg.m_max)), requires_grad=True)
            params.beta = zero_row(cfg.m_max)
        return params


def summarize_group(q_g: Tensor, k_g: Tensor, v_g: Tensor,
                    e_q: Tensor, e_k: Tensor, e_v: Tensor,
                    ) -> tuple[Tensor, Tensor, Tensor]:
    """Project a group's l_g rows down to l_s summary rows per stream."""
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


def gsa_op_count(l: int, l_g: int, l_s: int, global_path: bool = True,
                 causal: bool = False) -> int:
    """Closed-form score-element count for one head: m*l_g^2, or, when
    causal, m*(h^2 + (l_g - h)*l_g) with h = l_g // 2 (a group's top-right
    h-by-(l_g - h) quarter is masked and never scored), plus, with the
    global path on, (m*l_s)^2."""
    if l <= 0 or l_g <= 0 or l_s <= 0:
        raise ConfigError(f"lengths must be positive: l={l}, l_g={l_g}, l_s={l_s}")
    m = math.ceil(l / l_g)
    h = l_g // 2
    count = m * (h * h + (l_g - h) * l_g) if causal else m * l_g * l_g
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
    blocks = head_view(rows, heads)
    return blocks.reshape(heads, m, l_g, blocks.shape[-1])


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


def _stripes(cfg: GsaConfig) -> list[tuple[slice, slice]]:
    """The (query rows, keys) blocks of a group's scores that are computed:
    the whole l_g-by-l_g group, or, when causal, the group split at
    h = l_g // 2, rows [h, l_g) on every key first and then rows [0, h) on
    keys [0, h) only, since the causal mask zeroes the top-right quarter.
    Its first block scores every key."""
    l_g = cfg.l_g
    if not cfg.causal:
        return [(slice(0, l_g), slice(0, l_g))]
    h = l_g // 2
    return [(slice(h, l_g), slice(0, l_g)), (slice(0, h), slice(0, h))]


def _sum_last_to_first(parts: np.ndarray) -> np.ndarray:
    """Sum over the leading axis one term at a time, last index first: the
    order in which replaying a per-group loop's tape accumulates, so the
    fused gradients agree with that loop bit for bit."""
    return functools.reduce(np.add, parts[::-1])


def _tiles(l: int, l_g: int) -> list[tuple[slice, slice]]:
    """The one cut gsa_forward and its backward walk: tensor.half_tiles of
    whole groups, never one row high (a one-row product would go to
    gemv), as (rows, groups) slice pairs."""
    return [(rows, slice(rows.start // l_g, -(-rows.stop // l_g)))
            for rows in half_tiles(l, l_g)]


def _project(x: np.ndarray, w: Tensor, b: Tensor, m: int, l_g: int,
             real_len: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """x @ w + b, x an (l, d) array, by affine in the forward's half tiles,
    in one zero-padded (m*l_g, d) buffer (out when given) that the product
    is written straight into, every row at index >= real_len zero.  The
    forward projects Q, K and V a half tile at a time, so a backward that
    projects the whole x in the same cut gets the forward's bits at every
    width."""
    l = x.shape[0]
    rows = np.empty((m * l_g, w.shape[1])) if out is None else out
    for tile, _ in _tiles(l, l_g):
        affine(x[tile], w, b, rows[tile])
    rows[real_len:] = 0.0
    return rows


def _qkv(x: np.ndarray, params: GsaLayerParams, m: int, l_g: int,
         real_len: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The _project buffers of Q, K and V, all three in the forward's cut."""
    return tuple(_project(x, w, b, m, l_g, real_len)
                 for w, b in ((params.w_q, params.b_q), (params.w_k, params.b_k),
                              (params.w_v, params.b_v)))


def _summaries(x: np.ndarray, params: GsaLayerParams, m: int, l_g: int, real_len: int,
               heads: int) -> list[np.ndarray]:
    """Every group's Q, K and V summary rows, each (heads, m, l_s, d_h):
    e times the group's _project rows, made from x without projecting it.
    A group's rows are linear in its real rows, e.(x_g.w + b) =
    (e.x_g).w + (e.1)b, so e summarizes each group's real rows, the m*l_s
    summaries are projected through w, and each gets b weighted by the sum
    of e's columns over the group's real rows.  Whole groups are a view of
    x; only the group real_len ends in is copied, its pad rows zero."""
    d = x.shape[1]
    full, valid = divmod(real_len, l_g)
    groups = [x[:full * l_g].reshape(full, l_g, d)]
    if valid:
        last = np.zeros((1, l_g, d))
        last[0, :valid] = x[full * l_g:real_len]
        groups.append(last)
    out = []
    for e, w, b in ((params.e_q, params.w_q, params.b_q), (params.e_k, params.w_k, params.b_k),
                    (params.e_v, params.w_v, params.b_v)):
        weights = np.empty((m, e.shape[0], 1))
        weights[:full] = e.data.sum(axis=1, keepdims=True)
        weights[full:] = e.data[:, :valid].sum(axis=1, keepdims=True)
        s = np.concatenate([np.matmul(e.data, g) for g in groups]).reshape(-1, d) @ w.data
        s += weights.reshape(-1, 1) * b.data
        out.append(_grouped(s, m, e.shape[0], heads))
    return out


def _summary_attention(summaries: list[np.ndarray], scale: float,
                       g: Optional[np.ndarray] = None) -> np.ndarray:
    """The global path from every group's summary rows (_summaries, each
    (heads, m, l_s, d_h)): each group's mean-pooled summary output,
    (heads, m, d_h), attended by attention.head_attention.  With g, the
    (heads, m*l_s, d_h) gradient of the summary outputs, it runs
    head_attention's backward: the summaries come back as their gradients
    and g as the summary outputs."""
    heads, m, l_s, dh = summaries[0].shape
    qs, ks, vs = (a.reshape(heads, m * l_s, dh) for a in summaries)
    og = np.empty(qs.shape) if g is None else g
    head_attention(qs, ks.swapaxes(-1, -2), vs, scale, og, g)
    return og.reshape(heads, m, l_s, dh).mean(axis=2)


def _merge(o: np.ndarray, pooled: np.ndarray, params: GsaLayerParams, first: int) -> None:
    """out_j = alpha_j * local_j + beta_j * pooled_j, in place over the
    (heads, n, l_g, d_h) local outputs o of groups first..first+n-1, pooled
    their (heads, n, d_h) pooled rows."""
    at = slice(first, first + o.shape[1])
    o *= params.alpha.data[0, at, None, None]
    o += (pooled * params.beta.data[0, at, None])[:, :, None, :]


def gsa_forward(x: Tensor, params: GsaLayerParams, cfg: GsaConfig,
                counter: OpCounter, real_len: Optional[int] = None, *,
                then: Optional[Callable[[slice, np.ndarray], None]] = None) -> Optional[Tensor]:
    """One grouped self-attention layer over an l-by-d sequence: the Q/K/V
    projections of x, local attention in every group of every head, (when
    cfg.uses_global) the summary projection, global summary attention,
    pooling and alpha/beta merge, and the output projection, as one tape
    op, grouped_attention, with one backward rule.

    Rows of x at index >= real_len (default: all real) are padding: their
    projected queries, keys and values are zero and masked as keys, so
    outputs at real positions never depend on pad values.  With the
    global path the op first makes every group's summary rows from x
    (_summaries) and runs the summary attention (_summary_attention, by
    attention.head_attention).  Then it walks the half tiles of whole
    groups (_tiles, cut by tensor.half_tiles) once: it projects a half
    tile's Q (into the rows of the output buffer that its local outputs
    then overwrite) and its K, scores them (attention.attention_probs)
    and drops K, projects its V and writes p @ V over Q, then merges the
    half tile's groups with their pooled rows and output-projects them.
    Every group is computed alone, so the half tiles' results are the
    whole layer's.  A group's scores are computed in the blocks of
    _stripes: the whole group, or, when causal, two blocks that leave out
    the top-right quarter the mask zeroes.

    then, a row-local continuation, is for a caller that does not record
    and does not need the whole output at once: then(rows, f) gets each
    half tile's output rows f (a new array, the continuation's to
    overwrite) for the rows slice of x, in order, before the next half
    tile is projected, so then may write over the rows of x it is given.
    The op builds no whole-length output buffer and returns None; the
    bits are the same.

    The rule holds x and the parameters, nothing else: the backward gets x
    (from its recipe when x has one), projects Q, K and V again in the
    forward's cut (_qkv), makes the summary rows again from x and runs the
    summary attention's backward (head_attention's, one head's
    probabilities at a time), then walks the same half tiles once, every
    head at once, rebuilding each block's probabilities and local outputs
    with the forward's arithmetic for the local backward, alpha's
    gradient and (merged in place of the consumed output gradient) w_o's;
    a causal group's key and value gradients are the sum of its two
    blocks'.  It adds every score element it rebuilds to the counter's
    recomputed_score_elements.  The forward counter sees each block of
    _stripes (one l_g-by-l_g matrix, or a causal group's h-by-h and
    (l_g - h)-by-l_g ones) per head and group and one m*l_s-by-m*l_s
    matrix per head, however the groups are computed.
    """
    l, d = x.shape
    if d != cfg.d:
        raise DimensionError(f"grouped attention: input {x.shape} for d={cfg.d}")
    real_len, m = _check_lengths(l, real_len, cfg)
    heads, l_g, l_s = cfg.heads, cfg.l_g, cfg.l_s
    dh, n_s = d // heads, m * l_s
    scale = 1.0 / np.sqrt(dh)
    use_global = cfg.uses_global
    inputs = (x, params.w_q, params.b_q, params.w_k, params.b_k, params.w_v, params.b_v,
              params.w_o, params.b_o)
    if use_global:
        inputs += (params.e_q, params.e_k, params.e_v, params.alpha, params.beta)
    taped = recording(inputs)
    if taped and then is not None:
        raise ValueError("grouped attention: a continuation gets rows no tape records")

    allow, stripes = _local_allow(cfg, m, real_len), _stripes(cfg)
    for _ in range(heads * m):
        for rows, keys in stripes:
            counter.add_scores(rows.stop - rows.start, keys.stop - keys.start)
    if use_global:
        for _ in range(heads):
            counter.add_scores(n_s, n_s)
        pooled = _summary_attention(_summaries(x.data, params, m, l_g, real_len, heads), scale)
    out_rows = np.empty((m * l_g, d)) if then is None else None
    for rows, groups in _tiles(l, l_g):
        n, x_rows, pad = groups.stop - groups.start, x.data[rows], real_len - rows.start
        # Q where the half tile's local outputs will go; K scored and
        # dropped before V is made, so the two are never alive together
        local = out_rows[rows.start:groups.stop * l_g] if then is None else np.empty((n * l_g, d))
        qg = _grouped(_project(x_rows, params.w_q, params.b_q, n, l_g, pad, local), n, l_g, heads)
        kg = _grouped(_project(x_rows, params.w_k, params.b_k, n, l_g, pad), n, l_g, heads)
        ps = [attention_probs(qg[:, :, q_rows], kg[:, :, keys].swapaxes(-1, -2), scale,
                              None if allow is None else allow[groups, q_rows, keys])
              for q_rows, keys in stripes]
        del kg
        vg = _grouped(_project(x_rows, params.w_v, params.b_v, n, l_g, pad), n, l_g, heads)
        for (q_rows, keys), p in zip(stripes, ps):
            np.matmul(p, vg[:, :, keys], out=qg[:, :, q_rows])
        del ps, p, vg       # else they would outlive their half tile
        if use_global:
            _merge(qg, pooled[:, groups], params, groups.start)
        f = affine(local[:rows.stop - rows.start], params.w_o, params.b_o)
        del qg, local       # else the continuation would run beside them
        if then is None:
            out_rows[rows] = f
        else:
            then(rows, f)
        del f               # else it would outlive its half tile
    if then is not None:
        return None
    out = Tensor(out_rows[:l])
    if not taped:
        return out
    x_slot, out_slot = x.slot, out.slot
    x_values = held_values(x)

    def backward():
        x_data = x_values()
        # Q, K and V until the local backward overwrites their blocks with
        # their gradients
        grads = _qkv(x_data, params, m, l_g, real_len)
        if use_global:
            summaries = _summaries(x_data, params, m, l_g, real_len, heads)
        del x_data
        qg, kg, vg = (_grouped(a, m, l_g, heads) for a in grads)
        # the merged outputs' gradient, zero-padded to whole groups, until the walk
        d_rows = np.zeros((m * l_g, d))
        d_rows[:l] = linear_input_grad(out_slot.grad, params.w_o, params.b_o)
        d_out = _grouped(d_rows, m, l_g, heads)
        if use_global:
            g_cols = d_out.sum(axis=2)
            d_pooled = g_cols * params.beta.data[0, :m, None] / l_s
            d_og = np.repeat(d_pooled[:, :, None, :], l_s, axis=2).reshape(heads, n_s, dh)
            # global summary attention, one head's probabilities alive at a
            # time; the summaries become their gradients
            counter.add_recomputed(heads * n_s, n_s)
            pooled = _summary_attention(summaries, scale, d_og)
            d_beta = (g_cols * pooled).sum(axis=-1)
            # the key gradient in (heads, d_h, n_s) rows, the layout in
            # which e_k's product rounds as the composed ops' does
            d_ks = np.ascontiguousarray(summaries[1].reshape(heads, n_s, dh).swapaxes(-1, -2))
            d_summaries = [summaries[0], d_ks.swapaxes(-1, -2).reshape(heads, m, l_s, dh),
                           summaries[2]]
            del summaries, d_og, d_ks
            # summary projections, shared by every group and head
            for e, blocks, d_s in zip((params.e_q, params.e_k, params.e_v), (qg, kg, vg),
                                      d_summaries):
                d_e = np.matmul(d_s, blocks.swapaxes(-1, -2)).reshape(-1, l_s, l_g)
                accumulate_grad(e, _sum_last_to_first(d_e), owned=True)
            d_alpha = np.empty((heads, m))
        # local attention, every head's groups in half tiles (at full
        # height a tile's probabilities, outputs and gradients fall out of
        # cache and the walk runs slower), the probabilities and outputs
        # rebuilt with the forward's arithmetic
        for rows, keys in stripes:
            counter.add_recomputed(heads * m * (rows.stop - rows.start), keys.stop - keys.start)
        allow = _local_allow(cfg, m, real_len)
        for _, groups in _tiles(l, l_g):
            q_t, k_t, v_t = qg[:, groups], kg[:, groups].swapaxes(-1, -2), vg[:, groups]
            d_kv = None
            for rows, keys in stripes:
                q_s, k_s, v_s = q_t[:, :, rows], k_t[..., keys], v_t[:, :, keys]
                local, p = attention_forward(q_s, k_s, v_s, scale,
                                             None if allow is None else allow[groups, rows, keys])
                d_local = d_out[:, groups, rows]
                if use_global:
                    d_alpha[:, groups] = (d_local * local).reshape(
                        *local.shape[:2], -1).sum(axis=-1)
                    d_local = d_local * params.alpha.data[0, groups, None, None]
                d_q, d_k_t, d_v = attention_backward(q_s, k_s, v_s, p, d_local, scale)
                d_out[:, groups, rows] = local
                q_s[...] = d_q      # no other stripe reads these queries
                if d_kv is None:    # the first stripe's gradients span every key
                    d_kv = d_k_t.swapaxes(-1, -2), d_v
                else:
                    d_kv[0][:, :, keys] += d_k_t.swapaxes(-1, -2)
                    d_kv[1][:, :, keys] += d_v
                del p, local, d_local, d_q, d_k_t, d_v
            kg[:, groups], vg[:, groups] = d_kv
            if use_global:
                for e, blocks, d_s in zip((params.e_q, params.e_k, params.e_v), (qg, kg, vg),
                                          d_summaries):
                    blocks[:, groups] += np.matmul(e.data.T, d_s[:, groups])
            # else two tiles' arrays would be alive at once
            del d_kv
        if use_global:
            for param, d_slot in ((params.alpha, d_alpha), (params.beta, d_beta)):
                full = np.zeros(param.shape)
                full[0, :m] = _sum_last_to_first(d_slot)
                accumulate_grad(param, full, owned=True)
            _merge(d_out, pooled, params, 0)
        # the walk left the local outputs in d_rows: now the merged ones, as in the forward
        accumulate_grad(params.w_o, d_rows[:l].T @ out_slot.grad, owned=True)
        del d_rows, d_out
        x_data = x_values()
        # the projections, v first, as replaying three linear ops would
        for w, b, rows in ((params.w_v, params.b_v, grads[2]), (params.w_k, params.b_k, grads[1]),
                           (params.w_q, params.b_q, grads[0])):
            rows[real_len:] = 0.0
            linear_backward(x_slot, x_data, w, b, rows[:l])

    return _record("grouped_attention", out, inputs, backward)
