"""The ops that work in row tiles (layer_norm, feed_forward, multi-head
attention through the helpers' multi_head_attention op, gsa_forward)
against their whole-array arithmetic, bit for bit: the untaped and taped
forwards against the whole-array bodies in helpers.py, and the gradients
against the same op with tiling off (one tile).  Every op takes its tiles
from the one constant tensor.TILE_ROWS.

Every product these ops cut into row tiles is 8 or 16 columns wide here
(d, d / heads, the key count), as at every shipped config: OpenBLAS
computes each row of such a product the same way however the rows are
cut, but rounds the rows of narrower or ragged products (3 or 12 columns,
say) differently as the row count changes.  GSA's summary scores are the
exception, m*l_s columns wide: their query rows are cut too, and at the
few summary rows drawn here the cut has not been seen to change a bit
(at d_h = 64 and a few hundred summary rows it does)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    multi_head_attention,
    whole_feed_forward,
    whole_grouped_attention,
    whole_layer_norm,
    whole_multi_head_attention,
)

from gsaformer import tensor
from gsaformer.attention import OpCounter
from gsaformer.gsa import GsaConfig, GsaLayerParams, gsa_forward
from gsaformer.model import ForecasterModel, ModelConfig
from gsaformer.tensor import (
    ComputationTape,
    Tensor,
    backward,
    feed_forward,
    layer_norm,
    row_tiles,
)
from gsaformer.training import mse_loss

WHOLE = 10 ** 9     # a tile constant no input reaches: tiling off


def same(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def taped_run(module, constant, rows, forward, target, leaves):
    """With module.constant set to rows: the taped forward's output, its
    recipe's output (None without one) and the gradient of every leaf
    after backward(mse_loss(output, target))."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, constant, rows)
        for t in leaves:
            t.grad = None
        with ComputationTape() as tape:
            out = forward()
            loss = mse_loss(out, target)
        rebuilt = out.recipe() if out.recipe is not None else None
        backward(loss, tape)
    return out.data, rebuilt, [t.grad for t in leaves]


def untaped(module, constant, rows, forward):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, constant, rows)
        return forward().data


def check_tiled(module, constant, rows, forward, expected, target, leaves):
    """forward() at tile constant rows equals expected untaped and taped,
    and its gradients equal those of one whole tile."""
    assert same(untaped(module, constant, rows, forward), expected)
    tiled = taped_run(module, constant, rows, forward, target, leaves)
    whole = taped_run(module, constant, WHOLE, forward, target, leaves)
    assert same(tiled[0], expected) and same(whole[0], expected)
    if tiled[1] is not None:
        assert same(tiled[1], expected)
    for g_tiled, g_whole in zip(tiled[2], whole[2]):
        assert (g_tiled is None) == (g_whole is None)
        if g_tiled is not None:
            assert same(g_tiled, g_whole)


def random_tensor(rng, shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def row_count(draw, tile):
    """A row count that often leaves a one-row last tile."""
    if draw(st.booleans()):
        return draw(st.integers(1, 3)) * tile + 1
    return draw(st.integers(1, 4 * tile))


class TestRowTiles:
    @pytest.mark.parametrize("n, size, heights", [
        (0, 4, []), (1, 4, [1]), (4, 4, [4]), (5, 4, [5]), (6, 4, [4, 2]),
        (9, 4, [4, 5]), (10, 4, [4, 4, 2]), (3, 1, [3]), (5, 1, [2, 3])])
    def test_tiles_cover_the_rows_and_none_is_one_row_high(self, n, size, heights):
        tiles = row_tiles(n, size)
        assert [t.stop - t.start for t in tiles] == heights
        assert [t.start for t in tiles] == [sum(heights[:i]) for i in range(len(heights))]


@st.composite
def norm_cases(draw):
    tile = draw(st.integers(1, 6))
    return (row_count(draw, max(tile, 2)), draw(st.integers(1, 6)), tile,
            draw(st.integers(0, 2 ** 16)))


@settings(max_examples=40)
@given(norm_cases())
def test_layer_norm_tiles_match_whole_arrays(case):
    l, d, tile, seed = case
    rng = np.random.default_rng(seed)
    x, f = random_tensor(rng, (l, d)), random_tensor(rng, (l, d))
    gain, bias = random_tensor(rng, (1, d)), random_tensor(rng, (1, d))
    expected = whole_layer_norm(x.data, f.data, gain.data, bias.data)
    check_tiled(tensor, "TILE_ROWS", tile, lambda: layer_norm(x, f, gain, bias),
                expected, Tensor(rng.normal(size=(l, d))), [x, f, gain, bias])


@st.composite
def feed_forward_cases(draw):
    tile = draw(st.integers(2, 6))
    return (row_count(draw, tile), draw(st.sampled_from([8, 16])),
            draw(st.sampled_from([8, 16])), tile, draw(st.integers(0, 2 ** 16)))


@settings(max_examples=40)
@given(feed_forward_cases())
def test_feed_forward_tiles_match_whole_arrays(case):
    l, d, hidden, tile, seed = case
    rng = np.random.default_rng(seed)
    x = random_tensor(rng, (l, d))
    params = [random_tensor(rng, shape) for shape in ((d, hidden), (1, hidden), (hidden, d),
                                                       (1, d))]
    expected = whole_feed_forward(x.data, *(p.data for p in params))
    check_tiled(tensor, "TILE_ROWS", tile, lambda: feed_forward(x, *params),
                expected, Tensor(rng.normal(size=(l, d))), [x, *params])


@st.composite
def attention_cases(draw):
    tile = draw(st.integers(2, 6))
    heads = draw(st.integers(1, 3))
    return (row_count(draw, tile), draw(st.sampled_from([8, 16])), heads, 8 * heads, tile,
            draw(st.integers(0, 2 ** 16)))


@settings(max_examples=40)
@given(attention_cases())
def test_multi_head_attention_tiles_match_whole_arrays(case):
    l_q, l_k, heads, d, tile, seed = case
    rng = np.random.default_rng(seed)
    q = random_tensor(rng, (l_q, d))
    k, v = random_tensor(rng, (l_k, d)), random_tensor(rng, (l_k, d))
    expected = whole_multi_head_attention(q.data, k.data, v.data, heads)
    check_tiled(tensor, "TILE_ROWS", tile,
                lambda: multi_head_attention(q, k, v, heads, OpCounter()),
                expected, Tensor(rng.normal(size=(l_q, d))), [q, k, v])


@st.composite
def gsa_cases(draw):
    """A layer, a tile constant of one to three groups (plus a remainder
    that must not matter), a length that often leaves one real row in the
    last tile, a real_len often short of it, and a seed."""
    l_g = draw(st.integers(2, 6))
    groups_per_tile = draw(st.integers(1, 3))
    tile = groups_per_tile * l_g + draw(st.integers(0, l_g - 1))
    l = row_count(draw, groups_per_tile * l_g)
    m = math.ceil(l / l_g)
    heads = draw(st.sampled_from([1, 2]))
    cfg = GsaConfig(l_g=l_g, l_s=draw(st.integers(1, l_g - 1)),
                    d=draw(st.sampled_from([8, 16])), heads=heads, m_max=m,
                    causal=draw(st.booleans()), global_path=draw(st.booleans()))
    real_len = draw(st.integers((m - 1) * l_g + 1, l))
    return cfg, l, real_len, tile, draw(st.integers(0, 2 ** 16))


@settings(max_examples=60)
@given(gsa_cases())
# a one-row last tile (causal, local-only, global), and pad rows (global, causal)
@example((GsaConfig(l_g=4, l_s=2, d=8, heads=2, m_max=5, causal=True), 17, 17, 8, 1))
@example((GsaConfig(l_g=4, l_s=2, d=8, heads=2, m_max=5, global_path=False), 17, 17, 9, 2))
@example((GsaConfig(l_g=3, l_s=1, d=8, heads=1, m_max=5), 13, 13, 6, 3))
@example((GsaConfig(l_g=4, l_s=2, d=16, heads=2, m_max=3), 11, 9, 4, 4))
@example((GsaConfig(l_g=4, l_s=2, d=8, heads=1, m_max=3, causal=True), 12, 10, 4, 5))
# 17 = 2 * 8 + 1 rows in one tile of 16: its last half tile of x holds a
# one-row tail, which K and V must be projected with, not alone (gemv)
@example((GsaConfig(l_g=4, l_s=1, d=16, heads=2, m_max=5), 17, 17, 16, 0))
@example((GsaConfig(l_g=4, l_s=1, d=16, heads=2, m_max=5, causal=True), 17, 17, 16, 0))
def test_grouped_attention_tiles_match_whole_arrays(case):
    cfg, l, real_len, tile, seed = case
    rng = np.random.default_rng(seed)
    params = GsaLayerParams.init(cfg, rng)
    for t in params.named().values():
        t.data[:] = rng.normal(size=t.shape)
    x = random_tensor(rng, (l, cfg.d))
    expected = whole_grouped_attention(x.data, params, cfg, real_len)
    check_tiled(tensor, "TILE_ROWS", tile,
                lambda: gsa_forward(x, params, cfg, OpCounter(), real_len),
                expected, Tensor(rng.normal(size=(l, cfg.d))),
                [x, *params.named().values()])

    def streamed():
        # the rows a continuation gets, one tile after another, in order
        parts = []
        assert gsa_forward(x, params, cfg, OpCounter(), real_len,
                           then=lambda rows, f: parts.append((rows, f))) is None
        assert [rows.start for rows, _ in parts] == [0] + [rows.stop for rows, _ in parts[:-1]]
        return Tensor(np.concatenate([f for _, f in parts]))
    assert same(untaped(tensor, "TILE_ROWS", tile, streamed), expected)


@pytest.mark.parametrize("overrides", [dict(seq_len=19, l_comp=8),
                                       dict(seq_len=16, ablation_local_only=True)])
def test_model_with_small_tiles_matches_one_tile(overrides):
    # 19 encoder and 13 decoder rows: tiles of 3 rows (one group for GSA)
    # leave a one-row tail; CCA compresses 19 rows to 8 keys, or reads all 16
    cfg = ModelConfig(pred_len=10, label_len=3, n_features_in=2, n_features_out=2, d=8,
                      heads=1, e_l=2, d_l=2, l_g=3, l_s=1, ffn_hidden=6, **overrides)
    model = ForecasterModel(cfg, seed=5)
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(cfg.seq_len, 2)))
    y = Tensor(rng.normal(size=(cfg.pred_len, 2)))
    runs, counts = [], []
    for small in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensor, "TILE_ROWS", 3 if small else WHOLE)
            counter = OpCounter()
            forecast = model.forward(x, counter).data
            for p in model.parameters().values():
                p.grad = None
            with ComputationTape() as tape:
                loss = mse_loss(model.forward(x), y)
            backward(loss, tape)
            runs.append([forecast, loss.data] + [p.grad for p in model.parameters().values()])
            counts.append((counter.score_elements, counter.peak_score_buffer))
    assert all(same(a, b) for a, b in zip(*runs))
    # the untaped decoder streams tiles of 3 rows, but its cross-attention
    # counts one 13-row score matrix per layer, as in one piece
    assert counts[0] == counts[1]
