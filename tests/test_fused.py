"""Each sublayer the model records as one tape op against its composed
oracle in helpers.py, bit for bit: the output, its recipe where it has one,
and every gradient, over random shapes (widths that are not a multiple of
8 included), partial requires_grad, inputs with and without a recipe (a
layer norm's output, a plain tensor), and two windows whose gradients
accumulate on one tape, scaled by 1/2 as training.train scales a batch of
two.  The oracles hold their intermediate values, so a fused rule that
rebuilt one with other arithmetic or other row tiles would show here.
Last, no op that works in row tiles may change the tensors it reads."""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import composed_cca, composed_embedding, composed_feed_forward, composed_gsa

from gsaformer import tensor
from gsaformer.attention import OpCounter
from gsaformer.cca import CcaLayerParams, cca_forward, compress_encoder_output
from gsaformer.gsa import GsaConfig, GsaLayerParams, gsa_forward
from gsaformer.tensor import (
    ComputationTape,
    Tensor,
    backward,
    feed_forward,
    layer_norm,
    linear,
    multiply,
)
from gsaformer.training import mse_loss


def same(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class Window:
    """One window's input rows: a plain tensor, or a layer norm's output
    (which the fused rules read through its recipe)."""

    def __init__(self, rng, shape, normed, requires_grad):
        self.x = Tensor(rng.normal(size=shape), requires_grad=requires_grad)
        self.normed = normed
        if normed:
            self.f = Tensor(rng.normal(size=shape))
            self.gain = Tensor(rng.normal(size=(1, shape[1])), requires_grad=True)
            self.bias = Tensor(rng.normal(size=(1, shape[1])), requires_grad=True)

    def tensor(self):
        if self.normed:
            return layer_norm(self.x, self.f, self.gain, self.bias)
        return self.x

    def leaves(self):
        return [self.x, self.gain, self.bias] if self.normed else [self.x]


def run(op, windows, targets, leaves):
    """Outputs, output recipes and leaf gradients after every window's
    forward and backward on one tape, each loss scaled by 1/len(windows)."""
    for t in leaves:
        t.grad = None
    outs = []
    with ComputationTape() as tape:
        for window, target in zip(windows, targets):
            out = op(window)
            rebuilt = out.recipe() if out.recipe is not None else None
            outs.append((out.data, rebuilt))
            backward(multiply(mse_loss(out, target), 1.0 / len(windows)), tape)
    return outs, [t.grad for t in leaves]


def check_fused(fused, composed, windows, targets, leaves, equal=same):
    """fused equals composed on every window's output (and the fused
    output's recipe, when it has one, equals its output) and on every leaf
    gradient after both windows."""
    (outs, grads), (ref_outs, ref_grads) = (run(op, windows, targets, leaves)
                                            for op in (fused, composed))
    for (out, rebuilt), (ref_out, _) in zip(outs, ref_outs):
        assert equal(out, ref_out)
        if rebuilt is not None:
            assert same(rebuilt, out)
    for i, (g, ref) in enumerate(zip(grads, ref_grads)):
        assert (g is None) == (ref is None), i
        if g is not None:
            assert equal(g, ref), i


def freeze(rng, tensors):
    """Turn off requires_grad on a random subset of tensors, all but the
    first at most, so that something records."""
    tensors = list(tensors)
    for t in tensors[1:]:
        t.requires_grad = bool(rng.integers(0, 3))


def windows_and_targets(rng, draw, shape, out_cols):
    normed = draw(st.booleans())
    x_grad = draw(st.booleans())
    windows = [Window(rng, shape, normed, x_grad) for _ in range(draw(st.integers(1, 2)))]
    targets = [Tensor(rng.normal(size=(shape[0], out_cols))) for _ in windows]
    return windows, targets


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_embedding_is_linear_plus_position_add(data):
    draw = data.draw
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    l, n_in, d = draw(st.integers(1, 30)), draw(st.integers(1, 9)), draw(st.integers(1, 20))
    w = Tensor(rng.normal(size=(n_in, d)), requires_grad=True)
    b = Tensor(rng.normal(size=(1, d)), requires_grad=True)
    freeze(rng, [w, b])
    positions = rng.normal(size=(l, d))
    windows, targets = windows_and_targets(rng, draw, (l, n_in), d)
    leaves = [w, b] + [t for win in windows for t in win.leaves()]
    check_fused(lambda win: linear(win.tensor(), w, b, positions),
                lambda win: composed_embedding(win.tensor(), w, b, positions),
                windows, targets, leaves)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_feed_forward_is_linear_relu_linear(data):
    draw = data.draw
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    l, d, hidden = draw(st.integers(1, 30)), draw(st.integers(1, 20)), draw(st.integers(1, 20))
    params = [Tensor(rng.normal(size=shape), requires_grad=True)
              for shape in ((d, hidden), (1, hidden), (hidden, d), (1, d))]
    freeze(rng, params)
    windows, targets = windows_and_targets(rng, draw, (l, d), d)
    leaves = params + [t for win in windows for t in win.leaves()]
    with pytest.MonkeyPatch.context() as mp:
        # row tiles of a few rows: the rebuilt hidden activations must come
        # from the forward's tiles at every width
        mp.setattr(tensor, "TILE_ROWS", draw(st.integers(2, 8)))
        check_fused(lambda win: feed_forward(win.tensor(), *params),
                    lambda win: composed_feed_forward(win.tensor(), *params),
                    windows, targets, leaves)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cca_is_projections_attention_and_output_projection(data):
    draw = data.draw
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    heads = draw(st.integers(1, 3))
    d = heads * draw(st.integers(1, 5))
    l_dec, l_enc = draw(st.integers(1, 40)), draw(st.integers(1, 20))
    l_comp = draw(st.integers(1, 20))     # compressed when l_enc > l_comp
    params = CcaLayerParams.init(d, l_enc, l_comp, rng)
    for t in params.named().values():
        t.data[:] = rng.normal(size=t.shape)
    freeze(rng, params.named().values())
    windows, targets = windows_and_targets(rng, draw, (l_dec, d), d)
    enc = [Window(rng, (l_enc, d), draw(st.booleans()), draw(st.booleans())) for _ in windows]
    by_dec = {id(win): e for win, e in zip(windows, enc)}
    leaves = (list(params.named().values())
              + [t for win in windows + enc for t in win.leaves()])
    # the model passes the memory compressed; the default compresses itself
    pre = draw(st.booleans())

    def fused(win):
        h_enc = by_dec[id(win)].tensor()
        if pre:
            h_enc = compress_encoder_output(h_enc, params.c)
        return cca_forward(win.tensor(), h_enc, params, OpCounter(), heads, compressed=pre)

    def reference(win):
        return composed_cca(win.tensor(), by_dec[id(win)].tensor(), params, OpCounter(),
                            heads)

    with pytest.MonkeyPatch.context() as mp:
        # query tiles of a few rows: the rebuilt probabilities and attended
        # rows must come from the forward's tiles at every width
        mp.setattr(tensor, "TILE_ROWS", draw(st.integers(2, 4)))
        check_fused(fused, reference, windows, targets, leaves)


def test_cca_rebuilds_q_in_the_forward_tiles():
    # d = 18 in query tiles of 3 rows: OpenBLAS rounds some rows of
    # h_dec[tile] @ w_q differently from the same rows of h_dec @ w_q here,
    # so a backward that projected Q whole would show
    rng = np.random.default_rng(2)
    d, heads, l_dec, l_enc = 18, 2, 40, 12
    params = CcaLayerParams.init(d, l_enc, 5, rng)
    for t in params.named().values():
        t.data[:] = rng.normal(size=t.shape)
    windows = [Window(rng, (l_dec, d), normed, True) for normed in (False, True)]
    targets = [Tensor(rng.normal(size=(l_dec, d))) for _ in windows]
    h_enc = Tensor(rng.normal(size=(l_enc, d)), requires_grad=True)
    leaves = list(params.named().values()) + [h_enc] + [t for win in windows
                                                        for t in win.leaves()]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "TILE_ROWS", 3)
        check_fused(lambda win: cca_forward(win.tensor(), h_enc, params, OpCounter(), heads),
                    lambda win: composed_cca(win.tensor(), h_enc, params, OpCounter(), heads),
                    windows, targets, leaves)


def check_gsa(rng, cfg, l, real_len, tile_rows, windows, targets):
    """gsa_forward against composed_gsa at tensor.TILE_ROWS = tile_rows,
    with random parameters of which rng freezes some."""
    params = GsaLayerParams.init(cfg, rng)
    for t in params.named().values():
        t.data[:] = rng.normal(size=t.shape)
    freeze(rng, params.named().values())
    leaves = list(params.named().values()) + [t for win in windows for t in win.leaves()]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "TILE_ROWS", tile_rows)
        # the oracle's identity projection may turn a -0.0 into 0.0
        check_fused(lambda win: gsa_forward(win.tensor(), params, cfg, OpCounter(), real_len),
                    lambda win: composed_gsa(win.tensor(), params, cfg, real_len, OpCounter()),
                    windows, targets, leaves, equal=np.array_equal)


@st.composite
def gsa_cases(draw):
    """A layer, a length and real_len, a tile of one or two groups, whether
    the windows are normed and x records, the window count and a seed."""
    l_g, heads = draw(st.integers(2, 6)), draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    real_len = draw(st.integers((m - 1) * l_g + 1, m * l_g))
    l = draw(st.integers(real_len, m * l_g))
    cfg = GsaConfig(l_g=l_g, l_s=draw(st.integers(1, l_g - 1)),
                    d=heads * draw(st.integers(1, 5)), heads=heads, m_max=m,
                    causal=draw(st.booleans()), global_path=draw(st.booleans()))
    return (cfg, l, real_len, l_g * draw(st.integers(1, 2)), draw(st.booleans()),
            draw(st.booleans()), draw(st.integers(1, 2)), draw(st.integers(0, 2 ** 16)))


@settings(max_examples=40, deadline=None)
@given(gsa_cases())
# d = 18 in tiles of 6 rows, where OpenBLAS rounds some rows of x[tile] @ w
# differently from the same rows of x @ w: few random shapes do
@example((GsaConfig(l_g=3, l_s=1, d=18, heads=2, m_max=14), 40, 40, 6, False, True, 2, 17))
def test_gsa_output_projection_rebuilds_the_merged_head_outputs(case):
    cfg, l, real_len, tile_rows, normed, x_grad, count, seed = case
    rng = np.random.default_rng(seed)
    windows = [Window(rng, (l, cfg.d), normed, x_grad) for _ in range(count)]
    targets = [Tensor(rng.normal(size=(l, cfg.d))) for _ in windows]
    # the rebuilt Q, K and V and merged outputs must come from the
    # forward's tiles at every width
    check_gsa(rng, cfg, l, real_len, tile_rows, windows, targets)


@pytest.mark.parametrize("causal", [False, True])
def test_gsa_rebuilds_q_k_v_in_the_forward_tiles(causal):
    # d = 18 in tiles of 6 rows: OpenBLAS rounds some rows of x[tile] @ w
    # differently from the same rows of x @ w here, so a backward that
    # projected Q, K and V in other tiles than the forward would show.
    # Whether a differing row reaches a gradient depends on the draw:
    # seed 1's does in both the causal and the full case
    rng = np.random.default_rng(1)
    cfg = GsaConfig(l_g=3, l_s=1, d=18, heads=2, m_max=14, causal=causal)
    windows = [Window(rng, (40, cfg.d), normed, True) for normed in (False, True)]
    targets = [Tensor(rng.normal(size=(40, cfg.d))) for _ in windows]
    check_gsa(rng, cfg, 40, 40, 6, windows, targets)


@st.composite
def op_calls(draw):
    """One of the ops that work in row tiles, at random small shapes, as
    (a zero-argument call, every tensor it reads, the output's width), and
    a tile constant of a few rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    name = draw(st.sampled_from(["layer_norm", "feed_forward", "cca_forward", "gsa_forward"]))
    heads = draw(st.integers(1, 2))
    d = heads * draw(st.integers(1, 4))
    l = draw(st.integers(1, 20))

    def tensor_of(shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    x = tensor_of((l, d))
    if name == "layer_norm":
        inputs = [x, tensor_of((l, d)), tensor_of((1, d)), tensor_of((1, d))]
        call = functools.partial(layer_norm, *inputs)
    elif name == "feed_forward":
        hidden = draw(st.integers(1, 10))
        inputs = [x] + [tensor_of(shape) for shape in ((d, hidden), (1, hidden), (hidden, d),
                                                        (1, d))]
        call = functools.partial(feed_forward, *inputs)
    elif name == "cca_forward":
        l_enc = draw(st.integers(1, 12))
        params = CcaLayerParams.init(d, l_enc, draw(st.integers(1, 12)), rng)
        h_enc = tensor_of((l_enc, d))
        inputs = [x, h_enc, *params.named().values()]
        call = functools.partial(cca_forward, x, h_enc, params, OpCounter(), heads)
    else:
        l_g = draw(st.integers(2, 5))
        m = -(-l // l_g)
        real_len = draw(st.integers((m - 1) * l_g + 1, l))
        cfg = GsaConfig(l_g=l_g, l_s=draw(st.integers(1, l_g - 1)), d=d, heads=heads,
                        m_max=m, causal=draw(st.booleans()), global_path=draw(st.booleans()))
        params = GsaLayerParams.init(cfg, rng)
        for t in params.named().values():
            t.data[:] = rng.normal(size=t.shape)
        inputs = [x, *params.named().values()]
        call = functools.partial(gsa_forward, x, params, cfg, OpCounter(), real_len)
    return call, inputs, d, draw(st.integers(2, 6))


@settings(max_examples=60, deadline=None)
@given(op_calls(), st.booleans())
def test_no_op_changes_its_inputs(case, taped):
    # the ops write over arrays of their own only: a second call on the same
    # tensors (as a gradient check makes) gets the same bytes, and every
    # input keeps its values through the forward and, on a tape, the
    # backward
    call, inputs, width, tile = case
    before = [t.data.tobytes() for t in inputs]
    outputs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "TILE_ROWS", tile)
        for _ in range(2):
            if taped:
                with ComputationTape() as tape:
                    out = call()
                    target = Tensor(np.zeros((out.shape[0], width)))
                    backward(mse_loss(out, target), tape)
            else:
                out = call()
            outputs.append(out.data.tobytes())
    assert outputs[0] == outputs[1]
    assert [t.data.tobytes() for t in inputs] == before
