"""Hand-rolled oracles shared across the test suite.

These stay loop-based and independent of the library's vectorized paths on
purpose: they are the other side of every equivalence check.  The tape ops
that only these oracles need (column slices, row and column concatenation,
zero padding, cutting a sequence into groups, the layer norm of one input,
relu, a linear cut in row tiles, multi-head attention as one op,
subtraction, the sum of all entries and the MSE composed from them) live
here, not in the library, and so does multi_head_forward, the tiled
attention that op runs one head at a time, the per-head oracle of
attention.head_attention, which GSA's summary path and the CCA op run.
So do the whole-array forwards of the ops that work in tiles
(layer_norm, feed_forward, multi-head attention, gsa_forward): their
bodies from before the tiling, the oracle the tiled forwards must match
bit for bit; and the sublayers the model records as one op each (the
embedding, the feed-forward block, the CCA sublayer), composed from
separate tape ops that hold their intermediate values.
"""

import dataclasses
import math

import numpy as np

from gsaformer import gsa
from gsaformer.attention import (
    AttentionMask,
    attention_backward,
    attention_forward,
    attention_probs,
    scaled_dot_attention,
)
from gsaformer.cca import compress_encoder_output
from gsaformer.gsa import (
    ConfigError,
    global_summary_attention,
    gsa_forward,
    merge_outputs,
    summarize_group,
)
from gsaformer.tensor import (
    ComputationTape,
    DimensionError,
    Tensor,
    _broadcast_check,
    _record,
    _reduce_to,
    accumulate_grad,
    backward,
    affine,
    broadcast_add,
    half_tiles,
    linear,
    linear_backward,
    matmul,
    multiply,
    slice_rows,
    tiles,
    zero_grads,
)


def slice_cols(a, start, stop):
    """Columns [start, stop) of a, as a tape op."""
    out = Tensor(a.data[:, start:stop].copy())

    def backward_fn():
        g = np.zeros_like(a.data)
        g[:, start:stop] = out.grad
        accumulate_grad(a, g, owned=True)

    return _record("slice_cols", out, (a,), backward_fn)


def _concat(parts, axis, name):
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    bounds = np.cumsum([0] + [p.shape[axis] for p in parts])

    def backward_fn():
        for p, lo, hi in zip(parts, bounds[:-1], bounds[1:]):
            accumulate_grad(p, out.grad[lo:hi] if axis == 0 else out.grad[:, lo:hi])

    return _record(name, out, tuple(parts), backward_fn)


def layer_norm_of(x, gain, bias, eps=1e-6):
    """Row-wise layer normalization of x alone, as a tape op: the oracle
    for tensor.layer_norm, which normalizes a residual sum x + f."""
    d = x.shape[1]
    mu = x.data.mean(axis=1, keepdims=True)
    xhat = x.data - mu
    var = np.square(xhat).sum(axis=1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    data = xhat * gain.data
    data += bias.data
    out = Tensor(data)

    def backward_fn():
        g = out.grad
        accumulate_grad(gain, (g * xhat).sum(axis=0, keepdims=True), owned=True)
        accumulate_grad(bias, g.sum(axis=0, keepdims=True), owned=True)
        gx = g * gain.data
        dx = inv * (gx
                    - gx.mean(axis=1, keepdims=True)
                    - xhat * (gx * xhat).mean(axis=1, keepdims=True))
        accumulate_grad(x, dx, owned=True)

    return _record("layer_norm", out, (x, gain, bias), backward_fn)


def whole_layer_norm(x, f, gain, bias, eps=1e-6):
    """tensor.layer_norm's forward over whole (l, d) arrays, no tape."""
    d = x.shape[1]
    xhat = x + f
    xhat -= xhat.mean(axis=1, keepdims=True)
    var = np.square(xhat).sum(axis=1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    xhat *= gain
    xhat += bias
    return xhat


def whole_feed_forward(x, w1, b1, w2, b2):
    """tensor.feed_forward's forward over whole arrays, no tape."""
    h = x @ w1
    h += b1
    np.maximum(h, 0.0, out=h)
    out = h @ w2
    out += b2
    return out


def whole_multi_head_attention(q, k, v, heads):
    """multi_head_forward on arrays, every head's queries in one block."""
    l_q, d = q.shape
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)
    out = np.empty((l_q, d))
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        attention_forward(np.ascontiguousarray(q[:, cols]),
                          np.ascontiguousarray(k[:, cols].T),
                          np.ascontiguousarray(v[:, cols]), scale, out=out[:, cols])
    return out


def whole_grouped_attention(x, params, cfg, real_len=None):
    """gsa_forward's forward on an (l, d) array: Q, K and V of every group
    projected at once, then local attention one head at a time (in the
    op's score blocks, gsa._stripes, so a causal group in two), the
    summary path (its summary rows made from x, as the op makes them, and
    attended by every head's whole rows at once), the merge and the output
    projection."""
    l, d = x.shape
    real_len, m = gsa._check_lengths(l, real_len, cfg)
    heads, l_g = cfg.heads, cfg.l_g
    scale = 1.0 / np.sqrt(d // heads)
    blocks = []
    for w, b in ((params.w_q, params.b_q), (params.w_k, params.b_k), (params.w_v, params.b_v)):
        rows = np.empty((m * l_g, d))
        np.matmul(x, w.data, out=rows[:l])
        rows[:l] += b.data
        rows[real_len:] = 0.0
        blocks.append(gsa._grouped(rows, m, l_g, heads))
    qg, kg, vg = blocks
    allow = gsa._local_allow(cfg, m, real_len)
    out_rows = np.empty((m * l_g, d))
    o = gsa._grouped(out_rows, m, l_g, heads)
    for h in range(heads):
        for rows, keys in gsa._stripes(cfg):
            attention_forward(qg[h][:, rows], kg[h][:, keys].swapaxes(-1, -2), vg[h][:, keys],
                              scale, None if allow is None else allow[:, rows, keys],
                              out=o[h][:, rows])
    if cfg.uses_global:
        qs, ks, vs = (a.reshape(heads, m * cfg.l_s, -1)
                      for a in gsa._summaries(x, params, m, l_g, real_len, heads))
        og = attention_forward(qs, ks.swapaxes(-1, -2), vs, scale)[0]
        pooled = og.reshape(heads, m, cfg.l_s, -1).mean(axis=2)
        o *= params.alpha.data[0, :m, None, None]
        o += (pooled * params.beta.data[0, :m, None])[:, :, None, :]
    out = out_rows[:l] @ params.w_o.data
    out += params.b_o.data
    return out


def relu(a):
    """max(a, 0); the backward takes its mask from the output, since
    out > 0 exactly where a > 0, so a's values are not kept."""
    out = Tensor(np.maximum(a.data, 0.0))
    a_slot = a.slot

    def backward_fn():
        accumulate_grad(a_slot, out.grad * (out.data > 0.0), owned=True)

    return _record("relu", out, (a,), backward_fn)


def _head_slabs(d, heads):
    """The column slab of each of `heads` heads of a d-wide array."""
    if d % heads != 0:
        raise DimensionError(f"feature dim {d} not divisible by {heads} heads")
    return [slice(h * (d // heads), (h + 1) * (d // heads)) for h in range(heads)]


def multi_head_forward(q, k, v, heads, counter):
    """Unmasked multi-head attention on arrays, one head at a time on
    contiguous copies of its column slabs, one half tile of queries
    (half_tiles) at a time: the counter sees one l_q-by-l_k call per
    head.  The per-head oracle of attention.head_attention, which runs
    on head_view blocks."""
    (l_q, d), l_k = q.shape, k.shape[0]
    if k.shape[1] != d or v.shape != k.shape:
        raise DimensionError(f"attention: Q {q.shape}, K {k.shape} and V {v.shape} "
                             "do not line up")
    slabs = _head_slabs(d, heads)
    tiles = half_tiles(l_q)
    scale = 1.0 / np.sqrt(d // heads)
    for _ in range(heads):
        counter.add_scores(l_q, l_k)
    out = np.empty((l_q, d))
    for cols in slabs:
        k_t, v_h = np.ascontiguousarray(k[:, cols].T), np.ascontiguousarray(v[:, cols])
        for rows in tiles:
            attention_forward(np.ascontiguousarray(q[rows, cols]), k_t, v_h, scale,
                              out=out[rows, cols])
    return out


def multi_head_attention(q, k, v, heads, counter):
    """multi_head_forward as one tape op whose rule holds q, k and v and,
    one head at a time on contiguous copies of its column slabs, rebuilds
    the probabilities in the same query tiles and runs attention_backward:
    the op the CCA sublayer recorded between its projections before it
    became one op."""
    tiles = half_tiles(q.shape[0])
    out = Tensor(multi_head_forward(q.data, k.data, v.data, heads, counter))
    (l_q, d), l_k = q.shape, k.shape[0]
    scale = 1.0 / np.sqrt(d // heads)

    def backward_fn():
        grads = [np.empty(t.shape) for t in (q, k, v)]
        for cols in _head_slabs(d, heads):
            q_h, g_h, v_h = (np.ascontiguousarray(a[:, cols]) for a in (q.data, out.grad, v.data))
            k_t = np.ascontiguousarray(k.data[:, cols].T)
            counter.add_recomputed(l_q, l_k)
            p = np.empty((l_q, l_k))
            for rows in tiles:
                attention_probs(q_h[rows], k_t, scale, out=p[rows])
            d_q, d_k_t, d_v = attention_backward(q_h, k_t, v_h, p, g_h, scale)
            grads[0][:, cols], grads[1][:, cols], grads[2][:, cols] = d_q, d_k_t.T, d_v
        for t, g in zip((q, k, v), grads):
            accumulate_grad(t, g, owned=True)

    return _record("multi_head_attention", out, (q, k, v), backward_fn)


def tiled_linear(x, w, b, cut=None):
    """linear(x, w, b) with its product cut in row tiles cut (by default
    tensor.tiles, the tiles of feed_forward's products), as
    one op with linear's rule: the oracle of a projection that a fused op
    computes a tile at a time.  Tiles change no bit of a product 8 or 16
    columns wide, but may change some of a narrower or ragged one."""
    cut = tiles(x.shape[0]) if cut is None else cut
    data = np.empty((x.shape[0], w.shape[1]))
    for rows in cut:
        affine(x.data[rows], w, b, data[rows])
    out = Tensor(data)

    def backward_fn():
        linear_backward(x.slot, x.data, w, b, out.grad)

    return _record("tiled_linear", out, (x, w, b), backward_fn)


def composed_embedding(x, w, b, positions):
    """The embedding as two tape ops: linear, then the position add."""
    return broadcast_add(linear(x, w, b), Tensor(positions))


def composed_feed_forward(x, w1, b1, w2, b2):
    """The feed-forward block as three tape ops that hold their values, its
    products cut in the fused op's row tiles."""
    return tiled_linear(relu(tiled_linear(x, w1, b1)), w2, b2)


def composed_cca(h_dec, h_enc, params, counter, heads=1):
    """cca_forward as separate tape ops: the compression, the q, k and v
    linears, multi_head_attention and the output linear, the q and output
    projections cut in the fused op's query tiles."""
    memory = compress_encoder_output(h_enc, params.c)
    cut = tiles(h_dec.shape[0])
    q = tiled_linear(h_dec, params.w_q, params.b_q, cut)
    k = linear(memory, params.w_k, params.b_k)
    v = linear(memory, params.w_v, params.b_v)
    attended = multi_head_attention(q, k, v, heads, counter)
    return tiled_linear(attended, params.w_o, params.b_o, cut)


def composed_gsa(x, params, cfg, real_len, counter):
    """gsa_forward with its output projection as a separate linear, cut in
    the op's tiles of whole groups: the merged head outputs come from
    gsa_forward with an identity projection and zero bias, which return
    them exactly, up to the sign of a zero, and hold them for the linear's
    rule."""
    heads_only = dataclasses.replace(params, w_o=Tensor(np.eye(cfg.d)),
                                     b_o=Tensor(np.zeros((1, cfg.d))))
    merged = gsa_forward(x, heads_only, cfg, counter, real_len)
    return tiled_linear(merged, params.w_o, params.b_o,
                        [rows for rows, _ in gsa._tiles(x.shape[0], cfg.l_g)])


def subtract(a, b):
    """a - b; b broadcasts like in broadcast_add."""
    _broadcast_check(a, b, "subtract")
    out = Tensor(a.data - b.data)
    a_slot, b_slot, out_slot = a.slot, b.slot, out.slot

    def backward_fn():
        accumulate_grad(a_slot, out_slot.grad)
        accumulate_grad(b_slot, -_reduce_to(out_slot.grad, b_slot.shape), owned=True)

    return _record("subtract", out, (a, b), backward_fn)


def sum_all(a):
    """The sum of every entry of a, as a 1x1 tape op."""
    out = Tensor(np.array([[a.data.sum()]]))
    a_slot, out_slot = a.slot, out.slot

    def backward_fn():
        accumulate_grad(a_slot, np.full(a_slot.shape, out_slot.grad[0, 0]), owned=True)

    return _record("sum_all", out, (a,), backward_fn)


def composed_mse_loss(pred, target):
    """MSE as four tape nodes: the oracle for training.mse_loss, which
    must match it bit for bit, forward and backward."""
    diff = subtract(pred, target)
    return multiply(sum_all(multiply(diff, diff)), 1.0 / pred.data.size)


def concat_rows(parts):
    return _concat(parts, 0, "concat_rows")


def concat_cols(parts):
    return _concat(parts, 1, "concat_cols")


def pad_rows(a, total_rows):
    """a with zero rows appended up to total_rows rows."""
    pad = total_rows - a.shape[0]
    return concat_rows([a, Tensor(np.zeros((pad, a.shape[1])))]) if pad else a


def partition_groups(x, l_g):
    """Cut x into m = ceil(l / l_g) groups of l_g rows, zero-padding the
    tail; concatenating the groups and dropping the pad recovers x.
    Returns (groups, m, pad)."""
    if l_g <= 0:
        raise ConfigError(f"l_g must be positive, got {l_g}")
    l = x.shape[0]
    m = math.ceil(l / l_g)
    padded = pad_rows(x, m * l_g)
    groups = [slice_rows(padded, j * l_g, (j + 1) * l_g) for j in range(m)]
    return groups, m, m * l_g - l


def naive_matmul(a, b):
    r, s = a.shape
    _, t = b.shape
    out = np.zeros((r, t))
    for i in range(r):
        for j in range(t):
            acc = 0.0
            for k in range(s):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def naive_attention(q, k, v, allow=None, scale=True):
    """Explicit per-pair dot products and explicit softmax."""
    n_q, d = q.shape
    n_k = k.shape[0]
    scores = np.zeros((n_q, n_k))
    for i in range(n_q):
        for j in range(n_k):
            scores[i, j] = sum(q[i, c] * k[j, c] for c in range(d))
    if scale:
        scores /= math.sqrt(d)
    out = np.zeros((n_q, v.shape[1]))
    for i in range(n_q):
        cols = [j for j in range(n_k) if allow is None or allow[i, j]]
        if not cols:
            continue
        row = scores[i, cols]
        e = np.exp(row - row.max())
        w = e / e.sum()
        for wj, j in zip(w, cols):
            out[i] += wj * v[j]
    return out


def rel_err(a, n):
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


def fd_grad(loss_fn, param, eps=1e-6):
    """Central differences over every coordinate of param."""
    flat = param.data.reshape(-1)
    grad = np.zeros_like(flat)
    for c in range(flat.size):
        keep = flat[c]
        flat[c] = keep + eps
        f_plus = float(loss_fn().data[0, 0])
        flat[c] = keep - eps
        f_minus = float(loss_fn().data[0, 0])
        flat[c] = keep
        grad[c] = (f_plus - f_minus) / (2 * eps)
    return grad.reshape(param.data.shape)


def check_op_gradients(build_loss, params, tol=1e-5):
    """Analytic grads of a recorded op graph vs central differences."""
    zero_grads(params)
    with ComputationTape() as tape:
        loss = build_loss()
        backward(loss, tape)
    for p in params:
        numeric = fd_grad(build_loss, p)
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        worst = max(rel_err(a, n) for a, n in
                    zip(analytic.reshape(-1), numeric.reshape(-1)))
        assert worst < tol, f"gradient mismatch: {worst}"


def loop_multi_head_attention(q, k, v, heads, counter):
    """Multi-head attention as separate tape ops: unmasked
    scaled_dot_attention on each contiguous column slab, slab outputs
    joined by concat_cols.  The reference for the fused
    multi_head_attention op."""
    d = q.shape[1]
    if heads == 1:
        return scaled_dot_attention(q, k, v, AttentionMask.none(), counter)
    dh = d // heads
    outs = []
    for h in range(heads):
        lo, hi = h * dh, (h + 1) * dh
        outs.append(scaled_dot_attention(
            slice_cols(q, lo, hi), slice_cols(k, lo, hi), slice_cols(v, lo, hi),
            AttentionMask.none(), counter))
    return concat_cols(outs)


def loop_gsa_forward(x, params, cfg, counter, real_len=None):
    """Grouped self-attention one head and one group at a time, built from
    the single-group helpers and canonical attention on the tape, so its
    gradients are an oracle too.  A causal group is attended as the two
    score blocks gsa_forward computes: the first h = l_g // 2 rows on the
    first h keys, the other rows on every key, joined by concat_rows.
    Same contract as gsa_forward."""
    l, d = x.shape
    real_len = l if real_len is None else real_len
    m = math.ceil(real_len / cfg.l_g)
    q = broadcast_add(matmul(x, params.w_q), params.b_q)
    k = broadcast_add(matmul(x, params.w_k), params.b_k)
    v = broadcast_add(matmul(x, params.w_v), params.b_v)
    if real_len < m * cfg.l_g:
        keep = np.zeros((l, d))
        keep[:real_len] = 1.0
        q, k, v = (multiply(t, Tensor(keep)) for t in (q, k, v))
    dh = d // cfg.heads
    head_outs = []
    for h in range(cfg.heads):
        cols = [slice_cols(t, h * dh, (h + 1) * dh) for t in (q, k, v)]
        q_groups, k_groups, v_groups = (partition_groups(t, cfg.l_g)[0] for t in cols)
        local = []
        for j in range(m):
            # pad keys (in the last group) masked, and the future when causal
            allow = np.ones((cfg.l_g, cfg.l_g), dtype=bool)
            allow[:, real_len - j * cfg.l_g:] = False
            if not cfg.causal:
                local.append(scaled_dot_attention(
                    q_groups[j], k_groups[j], v_groups[j], AttentionMask.custom(allow),
                    counter))
                continue
            allow, h = np.tril(allow), cfg.l_g // 2
            top = scaled_dot_attention(
                *(slice_rows(t[j], 0, h) for t in (q_groups, k_groups, v_groups)),
                AttentionMask.custom(allow[:h, :h]), counter)
            bottom = scaled_dot_attention(
                slice_rows(q_groups[j], h, cfg.l_g), k_groups[j], v_groups[j],
                AttentionMask.custom(allow[h:]), counter)
            local.append(concat_rows([top, bottom]))
        merged = local
        if cfg.uses_global:
            summaries = [summarize_group(q_groups[j], k_groups[j], v_groups[j],
                                         params.e_q, params.e_k, params.e_v)
                         for j in range(m)]
            o_s = global_summary_attention(
                *(concat_rows([s[i] for s in summaries]) for i in range(3)),
                cfg.l_s, counter)
            merged = []
            for j in range(m):
                merged.append(merge_outputs(
                    local[j], slice_rows(o_s, j * cfg.l_s, (j + 1) * cfg.l_s),
                    slice_cols(params.alpha, j, j + 1),
                    slice_cols(params.beta, j, j + 1)))
        head_out = concat_rows(merged)
        if m * cfg.l_g > l:
            head_out = slice_rows(head_out, 0, l)
        head_outs.append(head_out)
    combined = concat_cols(head_outs) if cfg.heads > 1 else head_outs[0]
    return broadcast_add(matmul(combined, params.w_o), params.b_o)


def naive_gsa(x, params, cfg, real_len=None):
    """Loop-built numpy reference for the whole layer: project, zero the
    rows past real_len, partition with zero padding, per-group attention
    with pad keys masked, summary projection, global attention, pooled
    merge, output projection."""
    l, d = x.shape
    real_len = l if real_len is None else real_len
    m = math.ceil(real_len / cfg.l_g)
    padded = np.zeros((m * cfg.l_g, d))
    q, k, v = padded.copy(), padded.copy(), padded.copy()
    for rows, w, b in ((q, params.w_q, params.b_q), (k, params.w_k, params.b_k),
                       (v, params.w_v, params.b_v)):
        rows[:real_len] = (naive_matmul(x, w.data) + b.data)[:real_len]
    dh = d // cfg.heads
    head_outs = []
    for h in range(cfg.heads):
        sl = slice(h * dh, (h + 1) * dh)
        locals_, summaries = [], []
        for j in range(m):
            rows = slice(j * cfg.l_g, (j + 1) * cfg.l_g)
            valid = min(real_len - j * cfg.l_g, cfg.l_g)
            allow = np.zeros((cfg.l_g, cfg.l_g), dtype=bool)
            allow[:, :valid] = True
            if cfg.causal:
                allow &= np.tril(np.ones((cfg.l_g, cfg.l_g), dtype=bool))
            locals_.append(naive_attention(q[rows, sl], k[rows, sl],
                                           v[rows, sl], allow=allow))
            if cfg.uses_global:
                summaries.append((naive_matmul(params.e_q.data, q[rows, sl]),
                                  naive_matmul(params.e_k.data, k[rows, sl]),
                                  naive_matmul(params.e_v.data, v[rows, sl])))
        merged = locals_
        if cfg.uses_global:
            qs = np.vstack([s[0] for s in summaries])
            ks = np.vstack([s[1] for s in summaries])
            vs = np.vstack([s[2] for s in summaries])
            os_ = naive_attention(qs, ks, vs)
            merged = []
            for j in range(m):
                pooled = os_[j * cfg.l_s:(j + 1) * cfg.l_s].mean(axis=0)
                merged.append(params.alpha.data[0, j] * locals_[j]
                              + params.beta.data[0, j] * pooled)
        head_outs.append(np.vstack(merged)[:l])
    combined = np.hstack(head_outs)
    return naive_matmul(combined, params.w_o.data) + params.b_o.data


def old_layout_arrays(model):
    """The model's parameters plus the tensors every checkpoint written
    before unused parameters were dropped also held: the summary weights of
    each decoder layer's causal GSA, each CCA compression matrix and every
    key bias that softmax cancels (the decoder's, and the encoder's under
    the local-only ablation)."""
    cfg = model.cfg
    arrays = {name: p.data for name, p in model.parameters().items()}
    m_max = max(math.ceil(cfg.dec_len / cfg.l_g), 1)
    for i in range(cfg.d_l):
        for e in ("e_q", "e_k", "e_v"):
            arrays[f"dec{i}.gsa.{e}"] = np.zeros((cfg.l_s, cfg.l_g))
        arrays[f"dec{i}.gsa.alpha"] = np.ones((1, m_max))
        arrays[f"dec{i}.gsa.beta"] = np.zeros((1, m_max))
        arrays.setdefault(f"dec{i}.cca.c", np.zeros((cfg.l_comp, cfg.seq_len)))
        for attn in ("gsa", "cca"):
            arrays[f"dec{i}.{attn}.b_k"] = np.zeros((1, cfg.d))
    for i in range(cfg.e_l):
        arrays.setdefault(f"enc{i}.gsa.b_k", np.zeros((1, cfg.d)))
    return arrays
