"""Hand-rolled oracles shared across the test suite.

These stay loop-based and independent of the library's vectorized paths on
purpose: they are the other side of every equivalence check.
"""

import math

import numpy as np

from gsaformer.attention import AttentionMask, scaled_dot_attention
from gsaformer.gsa import (
    global_summary_attention,
    merge_outputs,
    partition_groups,
    summarize_group,
)
from gsaformer.tensor import (
    ComputationTape,
    Tensor,
    backward,
    broadcast_add,
    concat_cols,
    concat_rows,
    matmul,
    multiply,
    slice_cols,
    slice_rows,
)


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
    for p in params:
        p.zero_grad()
    with ComputationTape() as tape:
        loss = build_loss()
        backward(loss, tape)
    for p in params:
        numeric = fd_grad(build_loss, p)
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        worst = max(rel_err(a, n) for a, n in
                    zip(analytic.reshape(-1), numeric.reshape(-1)))
        assert worst < tol, f"gradient mismatch: {worst}"


def loop_gsa_forward(x, params, cfg, counter, real_len=None):
    """Grouped self-attention one head and one group at a time, built from
    the single-group helpers and canonical attention on the tape, so its
    gradients are an oracle too.  Same contract as gsa_forward."""
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
            valid = min(real_len - j * cfg.l_g, cfg.l_g)
            mask = (AttentionMask.key_padding(valid) if valid < cfg.l_g
                    else AttentionMask.none())
            if cfg.causal:
                mask = mask.combined_with(AttentionMask.causal(), cfg.l_g, cfg.l_g)
            local.append(scaled_dot_attention(
                q_groups[j], k_groups[j], v_groups[j], mask, counter))
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
