import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsaformer import tensor
from gsaformer.attention import (
    AttentionMask,
    OpCounter,
    attention_probs,
    head_attention,
    head_view,
    row_softmax,
    scaled_dot_attention,
    softmax_last_axis_backward,
)
from gsaformer.cca import CcaLayerParams, cca_forward
from gsaformer.tensor import (
    ComputationTape,
    DimensionError,
    Tensor,
    backward,
    multiply,
)

from helpers import loop_multi_head_attention, multi_head_attention, naive_attention, sum_all


class TestRowSoftmax:
    def test_uniform_row(self):
        out = row_softmax(Tensor([[0.0, 0.0, 0.0, 0.0]]), AttentionMask.none())
        npt.assert_allclose(out.data, [[0.25, 0.25, 0.25, 0.25]], atol=1e-15)

    def test_log_two_forces_two_thirds(self):
        out = row_softmax(Tensor([[math.log(2.0), 0.0]]), AttentionMask.none())
        npt.assert_allclose(out.data, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-15)

    def test_scores_left_untouched(self):
        scores = Tensor([[5.0, 3.0, 1.0]])
        row_softmax(scores, AttentionMask.custom(np.array([[True, True, False]])))
        npt.assert_array_equal(scores.data, [[5.0, 3.0, 1.0]])

    def test_single_survivor(self):
        allow = np.array([[True, False]])
        out = row_softmax(Tensor([[5.0, 3.0]]), AttentionMask.custom(allow))
        npt.assert_array_equal(out.data, [[1.0, 0.0]])

    def test_masked_entries_exactly_zero(self):
        rng = np.random.default_rng(0)
        allow = rng.uniform(size=(6, 8)) > 0.4
        out = row_softmax(Tensor(rng.normal(size=(6, 8))),
                          AttentionMask.custom(allow))
        assert np.all(out.data[~allow] == 0.0)

    def test_fully_masked_row_is_all_zero(self):
        allow = np.array([[False, False], [True, True]])
        out = row_softmax(Tensor([[1.0, 2.0], [1.0, 2.0]]),
                          AttentionMask.custom(allow))
        npt.assert_array_equal(out.data[0], [0.0, 0.0])
        npt.assert_allclose(out.data[1].sum(), 1.0, atol=1e-12)

    def test_unmasked_rows_sum_to_one_randomized(self):
        # the property suite: >= 1000 rows across random shapes and masks
        rng = np.random.default_rng(1)
        rows_checked = 0
        while rows_checked < 1000:
            r = int(rng.integers(1, 40))
            c = int(rng.integers(2, 30))
            scores = rng.normal(scale=rng.uniform(0.5, 30.0), size=(r, c))
            if rng.uniform() < 0.5:
                mask = AttentionMask.none()
                allow = np.ones((r, c), dtype=bool)
            else:
                allow = rng.uniform(size=(r, c)) > 0.3
                mask = AttentionMask.custom(allow)
            out = row_softmax(Tensor(scores), mask)
            for i in range(r):
                if allow[i].any():
                    assert abs(out.data[i].sum() - 1.0) <= 1e-12
                    rows_checked += 1

    def test_gradient_through_mask(self):
        rng = np.random.default_rng(2)
        s = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        allow = np.array([[True, True, False, True]] * 3)
        w = Tensor(rng.normal(size=(3, 4)))
        with ComputationTape() as tape:
            loss = sum_all(multiply(row_softmax(s, AttentionMask.custom(allow)), w))
            backward(loss, tape)
        eps = 1e-6
        flat = s.data.reshape(-1)
        for c in range(flat.size):
            keep = flat[c]
            flat[c] = keep + eps
            f_plus = float((row_softmax(s, AttentionMask.custom(allow)).data * w.data).sum())
            flat[c] = keep - eps
            f_minus = float((row_softmax(s, AttentionMask.custom(allow)).data * w.data).sum())
            flat[c] = keep
            numeric = (f_plus - f_minus) / (2 * eps)
            analytic = s.grad.reshape(-1)[c]
            assert abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8) < 1e-5


class TestSoftmaxBackward:
    @pytest.mark.parametrize("batched", [False, True])
    def test_row_tiles_give_the_whole_array_bits(self, batched):
        # batched: probabilities of strided group views, as GSA makes
        # them, whose head axis is not the outermost in memory; both
        # cases span more than one tile of rows
        rng = np.random.default_rng(6)
        if batched:
            q = rng.normal(size=(2 * 300, 32)).reshape(2, 300, 4, 8).transpose(2, 0, 1, 3)
            p = attention_probs(q, q.swapaxes(-1, -2), 0.3)
        else:
            p = attention_probs(rng.normal(size=(700, 8)), rng.normal(size=(8, 90)), 0.3)
        g = rng.normal(size=p.shape)
        expected = (g - (g * p).sum(axis=-1, keepdims=True)) * p
        npt.assert_array_equal(softmax_last_axis_backward(p, g.copy()), expected)

    def test_temporaries_stay_one_tile(self):
        # 2048 rows, so a whole-array G * P temporary would be eight tiles
        rng = np.random.default_rng(7)
        p = attention_probs(rng.normal(size=(2048, 8)), rng.normal(size=(8, 128)), 0.3)
        g = rng.normal(size=p.shape)
        tracemalloc.start()
        try:
            softmax_last_axis_backward(p, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * p.nbytes


class TestScaledDotAttention:
    def test_single_key_returns_value_row(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=(1, 6))
        out = scaled_dot_attention(Tensor(rng.normal(size=(1, 6))),
                                   Tensor(rng.normal(size=(1, 6))),
                                   Tensor(v), AttentionMask.none(), OpCounter())
        npt.assert_allclose(out.data, v, atol=1e-15)

    def test_uniform_weights_average_values(self):
        out = scaled_dot_attention(Tensor([[0.0]]), Tensor([[0.0], [0.0]]),
                                   Tensor([[1.0], [3.0]]), AttentionMask.none(),
                                   OpCounter())
        npt.assert_allclose(out.data, [[2.0]], atol=1e-15)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(4)
        q, k, v = (rng.normal(size=(4, 8)) for _ in range(3))
        out = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v),
                                   AttentionMask.none(), OpCounter())
        npt.assert_allclose(out.data, naive_attention(q, k, v), atol=1e-12)

    def test_divides_by_sqrt_d(self):
        rng = np.random.default_rng(5)
        q, k, v = (rng.normal(size=(3, 16)) for _ in range(3))
        out = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v),
                                   AttentionMask.none(), OpCounter())
        scaled = naive_attention(q, k, v, scale=True)
        unscaled = naive_attention(q, k, v, scale=False)
        npt.assert_allclose(out.data, scaled, atol=1e-12)
        assert np.abs(out.data - unscaled).max() > 1e-3

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        q, k, v = (rng.normal(size=(5, 8)) for _ in range(3))
        base = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v),
                                    AttentionMask.none(), OpCounter())
        perm = rng.permutation(5)
        permuted = scaled_dot_attention(Tensor(q), Tensor(k[perm]), Tensor(v[perm]),
                                        AttentionMask.none(), OpCounter())
        npt.assert_allclose(base.data, permuted.data, atol=1e-12)

    def test_counter_counts_l_squared(self):
        rng = np.random.default_rng(7)
        for l in (3, 9, 17):
            counter = OpCounter()
            x = rng.normal(size=(l, 4))
            scaled_dot_attention(Tensor(x), Tensor(x), Tensor(x),
                                 AttentionMask.none(), counter)
            assert counter.score_elements == l * l
            assert counter.peak_score_buffer == l * l

    def test_counter_accumulates_and_resets(self):
        rng = np.random.default_rng(8)
        counter = OpCounter()
        x = Tensor(rng.normal(size=(4, 4)))
        scaled_dot_attention(x, x, x, AttentionMask.none(), counter)
        scaled_dot_attention(x, x, x, AttentionMask.none(), counter)
        assert counter.score_elements == 32
        assert counter.peak_score_buffer == 16
        counter = OpCounter()               # a reset is a fresh counter
        assert counter.score_elements == counter.peak_score_buffer == 0

    def test_dimension_errors(self):
        rng = np.random.default_rng(9)
        q = Tensor(rng.normal(size=(2, 4)))
        counter = OpCounter()
        with pytest.raises(DimensionError):
            scaled_dot_attention(q, Tensor(rng.normal(size=(3, 5))),
                                 Tensor(rng.normal(size=(3, 5))),
                                 AttentionMask.none(), counter)
        with pytest.raises(DimensionError):
            scaled_dot_attention(q, Tensor(rng.normal(size=(3, 4))),
                                 Tensor(rng.normal(size=(2, 4))),
                                 AttentionMask.none(), counter)
        kv = Tensor(rng.normal(size=(3, 4)))
        with pytest.raises(DimensionError):
            scaled_dot_attention(q, kv, kv, AttentionMask.custom(np.ones((3, 3))), counter)
        # a rejected call counts nothing
        assert counter.score_elements == counter.peak_score_buffer == 0


class TestMultiHead:
    def test_heads_partition_feature_dim(self):
        rng = np.random.default_rng(10)
        q, k, v = (rng.normal(size=(6, 8)) for _ in range(3))
        counter = OpCounter()
        out = multi_head_attention(Tensor(q), Tensor(k), Tensor(v), 2, counter)
        left = naive_attention(q[:, :4], k[:, :4], v[:, :4])
        right = naive_attention(q[:, 4:], k[:, 4:], v[:, 4:])
        npt.assert_allclose(out.data, np.concatenate([left, right], axis=1),
                            atol=1e-12)
        assert counter.score_elements == 2 * 36


@st.composite
def mha_cases(draw):
    """(l_q, l_k, heads, d_h, seed); one-row and one-column shapes
    included, where BLAS takes its vector paths."""
    return (draw(st.integers(1, 9)), draw(st.integers(1, 9)), draw(st.integers(1, 3)),
            draw(st.integers(1, 4)), draw(st.integers(0, 2**16)))


def passthrough_cca(d):
    """CCA parameters (no compression) whose projections return their
    input rows exactly, but for w_v, which reverses their columns: so
    cca_forward(q, memory) is multi-head attention of q over the keys
    memory and the values memory[:, ::-1], each head's values taken from
    other columns than its keys."""
    params = CcaLayerParams.init(d, 1, 1, np.random.default_rng(0))
    for w in (params.w_q, params.w_k, params.w_o):
        w.data[:] = np.eye(d)
    params.w_v.data[:] = np.eye(d)[:, ::-1]
    return params


def _attend_and_grads(op, arrays, weights):
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    counter = OpCounter()
    with ComputationTape() as tape:
        out = op(*tensors, counter)
        backward(sum_all(multiply(out, weights)), tape)
    return (out.data, *(t.grad for t in tensors)), (counter.score_elements,
                                                     counter.peak_score_buffer)


class TestFusedMultiHead:
    """cca_forward's attention, on head_view blocks, against the per-head
    composition of slice_cols, scaled_dot_attention and concat_cols, bit
    for bit."""

    @settings(max_examples=30)
    @given(mha_cases())
    def test_matches_per_head_composition_bit_for_bit(self, case):
        l_q, l_k, heads, dh, seed = case
        rng = np.random.default_rng(seed)
        q, memory = (rng.normal(size=(n, heads * dh)) for n in (l_q, l_k))
        weights = Tensor(rng.normal(size=(l_q, heads * dh)))
        params = passthrough_cca(heads * dh)
        (out, d_q, d_memory), fused_counts = _attend_and_grads(
            lambda q, memory, counter: cca_forward(q, memory, params, counter, heads),
            (q, memory), weights)
        (ref, ref_d_q, d_k, d_v), loop_counts = _attend_and_grads(
            lambda q, k, v, counter: loop_multi_head_attention(q, k, v, heads, counter),
            (q, memory, memory[:, ::-1]), weights)
        npt.assert_array_equal(out, ref)
        npt.assert_array_equal(d_q, ref_d_q)
        # the memory's gradient is v's share, its columns reversed back, plus k's
        npt.assert_array_equal(d_memory, d_v[:, ::-1] + d_k)
        assert fused_counts == loop_counts
        untaped = cca_forward(Tensor(q), Tensor(memory), params, OpCounter(), heads)
        npt.assert_array_equal(untaped.data, out)

    def test_one_tape_node(self):
        q = Tensor(np.random.default_rng(20).normal(size=(5, 8)), requires_grad=True)
        with ComputationTape() as tape:
            cca_forward(q, q, passthrough_cca(8), OpCounter(), 4)
        assert len(tape) == 1

    def test_indivisible_heads_rejected(self):
        x = Tensor(np.zeros((2, 6)))
        counter = OpCounter()
        with pytest.raises(DimensionError):
            cca_forward(x, x, passthrough_cca(6), counter, 4)
        # a rejected call counts nothing
        assert counter.score_elements == counter.peak_score_buffer == 0

    def test_memory_of_another_width_rejected(self):
        counter = OpCounter()
        with pytest.raises(DimensionError):
            cca_forward(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 6))),
                        passthrough_cca(4), counter, 2)
        assert counter.score_elements == counter.peak_score_buffer == 0


@st.composite
def head_attention_cases(draw):
    """(TILE_ROWS, heads, d_h, n, l_k, GSA's layout or CCA's, seed): n
    runs from one row to past a whole tile, so calls cover one, several
    and joined half tiles.  GSA's summary rows attend to each other, so
    its layout has l_k = n."""
    tile = draw(st.integers(2, 12))
    n, gsa_layout = draw(st.integers(1, tile + 2)), draw(st.booleans())
    l_k = n if gsa_layout else draw(st.integers(1, 8))
    return (tile, draw(st.integers(1, 3)), draw(st.integers(1, 5)), n, l_k, gsa_layout,
            draw(st.integers(0, 2**16)))


class TestHeadAttention:
    """attention.head_attention, forward and backward, against the
    helpers' per-head oracle, multi_head_attention, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(head_attention_cases())
    def test_matches_the_per_head_oracle_bit_for_bit(self, case):
        tile, heads, dh, n, l_k, gsa_layout, seed = case
        rng = np.random.default_rng(seed)
        q, k, v, g = (rng.normal(size=(rows, heads * dh)) for rows in (n, l_k, l_k, n))
        scale = 1.0 / np.sqrt(dh)

        def operands():
            """head_view blocks of copies of q, K transposed and v: GSA's
            summary path hands strided views of its rows, CCA contiguous
            keys and values."""
            q_h, k_h, v_h = (head_view(a.copy(), heads) for a in (q, k, v))
            if gsa_layout:
                return q_h, k_h.swapaxes(-1, -2), v_h
            return q_h, np.ascontiguousarray(k_h.swapaxes(-1, -2)), np.ascontiguousarray(v_h)

        def bits(blocks):
            """The bytes of (heads, rows, d_h) blocks as (rows, d) rows."""
            return np.ascontiguousarray(blocks.swapaxes(0, 1)).tobytes()

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensor, "TILE_ROWS", tile)
            (out, d_q, d_k, d_v), _ = _attend_and_grads(
                lambda q, k, v, counter: multi_head_attention(q, k, v, heads, counter),
                (q, k, v), Tensor(g))
            q_h, k_t, v_h = operands()
            head_attention(q_h, k_t, v_h, scale, q_h)      # out may be q
            assert bits(q_h) == out.tobytes()
            for aliased in (False, True):
                q_h, k_t, v_h = operands()
                g_h = head_view(g.copy(), heads)
                into = g_h if aliased else np.empty(g_h.shape)
                head_attention(q_h, k_t, v_h, scale, into, g_h)
                assert bits(into) == out.tobytes()
                assert bits(q_h) == d_q.tobytes()
                assert bits(k_t.swapaxes(-1, -2)) == d_k.tobytes()
                assert bits(v_h) == d_v.tobytes()


class TestExtremeMagnitudes:
    def test_softmax_stays_finite_at_1e6_scores(self):
        rng = np.random.default_rng(11)
        scores = rng.uniform(-1e6, 1e6, size=(8, 12))
        out = row_softmax(Tensor(scores), AttentionMask.none())
        assert np.all(np.isfinite(out.data))
        npt.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)

    def test_attention_stays_finite_at_large_inputs(self):
        rng = np.random.default_rng(12)
        q, k, v = (Tensor(rng.uniform(-1e3, 1e3, size=(6, 8))) for _ in range(3))
        out = scaled_dot_attention(q, k, v, AttentionMask.none(), OpCounter())
        assert np.all(np.isfinite(out.data))

    def test_masked_softmax_stays_finite_at_1e6(self):
        rng = np.random.default_rng(13)
        scores = rng.uniform(-1e6, 1e6, size=(8, 12))
        allow = rng.uniform(size=(8, 12)) > 0.4
        out = row_softmax(Tensor(scores), AttentionMask.custom(allow))
        assert np.all(np.isfinite(out.data))
        assert np.all(out.data[~allow] == 0.0)
