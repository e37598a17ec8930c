import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from helpers import naive_attention, naive_matmul, sum_all

from gsaformer import tensor
from gsaformer.attention import AttentionMask, OpCounter, scaled_dot_attention
from gsaformer.cca import (
    CcaLayerParams,
    cca_forward,
    cca_keys,
    cca_op_count,
    compress_encoder_output,
)
from gsaformer.tensor import ComputationTape, DimensionError, Tensor, broadcast_add, matmul


def make_params(d, l_enc, l_comp, seed=0):
    return CcaLayerParams.init(d, l_enc, l_comp, np.random.default_rng(seed))


class TestCompress:
    def test_bypass_when_short(self):
        h = Tensor(np.random.default_rng(0).normal(size=(128, 4)))
        out = compress_encoder_output(h, None)
        assert out is h

    def test_identity_row_selection(self):
        rng = np.random.default_rng(1)
        h = rng.normal(size=(4, 3))
        c = Tensor(np.eye(4)[[0, 2]])
        out = compress_encoder_output(Tensor(h), c)
        npt.assert_array_equal(out.data, h[[0, 2]])

    def test_matches_naive_matmul(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(10, 4))
        c = rng.normal(size=(3, 10))
        out = compress_encoder_output(Tensor(h), Tensor(c))
        npt.assert_allclose(out.data, naive_matmul(c, h), atol=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            compress_encoder_output(Tensor(np.ones((10, 4))),
                                    Tensor(np.ones((3, 9))))


class TestOpCount:
    def test_compressed_vs_uncompressed(self):
        assert cca_op_count(720, 1440, 256) == 720 * 256 == 184320
        assert 720 * 1440 == 1036800

    def test_constant_in_encoder_length(self):
        counts = {cca_op_count(64, l_enc, 256) for l_enc in (512, 1024, 2048)}
        assert counts == {64 * 256}


class TestCcaForward:
    def test_instrumented_count_matches_closed_form(self):
        rng = np.random.default_rng(3)
        for l_enc in (48, 96):
            params = make_params(8, l_enc, 16, seed=3)
            counter = OpCounter()
            cca_forward(Tensor(rng.normal(size=(12, 8))),
                        Tensor(rng.normal(size=(l_enc, 8))), params, counter)
            assert counter.score_elements == cca_op_count(12, l_enc, 16) == 12 * 16

    def test_single_encoder_row(self):
        rng = np.random.default_rng(4)
        params = make_params(6, 1, 8, seed=4)
        h_enc = rng.normal(size=(1, 6))
        out = cca_forward(Tensor(rng.normal(size=(5, 6))), Tensor(h_enc),
                          params, OpCounter())
        # single key: attention returns the (projected) value row for
        # every query, then the output projection
        v = h_enc @ params.w_v.data + params.b_v.data
        expected = np.tile(v @ params.w_o.data + params.b_o.data, (5, 1))
        npt.assert_allclose(out.data, expected, atol=1e-12)

    def test_matches_naive_pipeline(self):
        rng = np.random.default_rng(5)
        d, l_enc, l_comp, l_dec = 6, 10, 4, 5
        params = make_params(d, l_enc, l_comp, seed=5)
        h_dec = rng.normal(size=(l_dec, d))
        h_enc = rng.normal(size=(l_enc, d))
        out = cca_forward(Tensor(h_dec), Tensor(h_enc), params, OpCounter())
        compressed = naive_matmul(params.c.data, h_enc)
        q = naive_matmul(h_dec, params.w_q.data) + params.b_q.data
        k = naive_matmul(compressed, params.w_k.data) + params.b_k.data
        v = naive_matmul(compressed, params.w_v.data) + params.b_v.data
        attended = naive_attention(q, k, v)
        expected = naive_matmul(attended, params.w_o.data) + params.b_o.data
        npt.assert_allclose(out.data, expected, atol=1e-12)

    def test_identity_compression_equals_uncompressed(self):
        rng = np.random.default_rng(6)
        d, l_enc = 8, 12
        params = make_params(d, l_enc, l_enc, seed=6)
        assert params.c is None
        h_dec = Tensor(rng.normal(size=(7, d)))
        h_enc = Tensor(rng.normal(size=(l_enc, d)))
        out = cca_forward(h_dec, h_enc, params, OpCounter())
        q = broadcast_add(matmul(h_dec, params.w_q), params.b_q)
        k = broadcast_add(matmul(h_enc, params.w_k), params.b_k)
        v = broadcast_add(matmul(h_enc, params.w_v), params.b_v)
        attended = scaled_dot_attention(q, k, v, AttentionMask.none(), OpCounter())
        expected = broadcast_add(matmul(attended, params.w_o), params.b_o)
        assert np.abs(out.data - expected.data).max() < 1e-10

    def test_compressed_input_is_used_as_is_and_a_raw_one_compressed(self):
        rng = np.random.default_rng(12)
        params = make_params(8, 20, 6, seed=12)
        h_dec = Tensor(rng.normal(size=(5, 8)))
        h_enc = Tensor(rng.normal(size=(20, 8)))
        results = []
        for memory in (h_enc, compress_encoder_output(h_enc, params.c)):
            counter = OpCounter()
            out = cca_forward(h_dec, memory, params, counter, heads=2)
            results.append((out.data.tobytes(), counter.score_elements,
                            counter.peak_score_buffer))
        assert results[0] == results[1]
        # neither l_enc nor l_comp rows
        counter = OpCounter()
        with pytest.raises(DimensionError):
            cca_forward(h_dec, Tensor(rng.normal(size=(7, 8))), params, counter, heads=2)
        assert counter.score_elements == 0

    def test_multi_head_count(self):
        rng = np.random.default_rng(7)
        params = make_params(8, 20, 6, seed=7)
        counter = OpCounter()
        cca_forward(Tensor(rng.normal(size=(5, 8))),
                    Tensor(rng.normal(size=(20, 8))), params, counter, heads=2)
        assert counter.score_elements == 2 * 5 * 6

    def test_parameter_gradients(self):
        from gsaformer.training import grad_check, mse_loss
        rng = np.random.default_rng(8)
        params = make_params(8, 12, 4, seed=8)
        h_dec = Tensor(rng.normal(size=(6, 8)))
        h_enc = Tensor(rng.normal(size=(12, 8)))
        y = Tensor(rng.normal(size=(6, 8)))
        report = grad_check(
            lambda: mse_loss(cca_forward(h_dec, h_enc, params, OpCounter(),
                                         heads=2), y),
            params.named("cca."), seed=8)
        assert report.ok, report.lines()

    def test_keys_made_beforehand_need_no_memory_unless_the_call_records(self):
        rng = np.random.default_rng(11)
        params = make_params(8, 12, 4, seed=11)
        h_dec = Tensor(rng.normal(size=(6, 8)))
        memory = compress_encoder_output(Tensor(rng.normal(size=(12, 8))), params.c)
        keys = cca_keys(memory, params, 2, OpCounter(), 6)
        expected = cca_forward(h_dec, memory, params, OpCounter(), heads=2)
        out = cca_forward(h_dec, None, params, OpCounter(), heads=2, keys=keys)
        assert out.data.tobytes() == expected.data.tobytes()
        with ComputationTape(), pytest.raises(ValueError, match="memory"):
            cca_forward(h_dec, None, params, OpCounter(), heads=2, keys=keys)

    def test_distinct_layers_hold_distinct_matrices(self):
        a = make_params(4, 10, 3, seed=9)
        b = make_params(4, 10, 3, seed=10)
        assert a.c is not b.c
        assert np.abs(a.c.data - b.c.data).max() > 0


class TestCcaMemory:
    def test_no_tape_call_holds_one_query_tile_of_scores_at_a_time(self):
        d, heads, l_dec, l_enc = 16, 4, 2048, 256
        rng = np.random.default_rng(9)
        params = make_params(d, l_enc, l_enc)
        h_dec = Tensor(rng.normal(size=(l_dec, d)))
        h_enc = Tensor(rng.normal(size=(l_enc, d)))
        one_head = l_dec * l_enc * 8     # bytes of one head's score matrix
        one_tile = tensor.TILE_ROWS // 2 * l_enc * 8     # one call: a head's half tile
        activation = l_dec * d * 8      # bytes of one l_dec-by-d array
        q_tile = tensor.TILE_ROWS // 2 * d * 8     # bytes of one tile of Q or attended rows
        keys = l_enc * d * 8
        tracemalloc.start()
        try:
            cca_forward(h_dec, h_enc, params, OpCounter(), heads=heads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output, one tile of scores, a few tile-high arrays (Q, the
        # attended rows, a head's queries) and K and V with their head
        # copies; a whole Q or whole attended rows would need an
        # activation more than that slack, and a whole head's scores more
        assert activation + one_tile <= peak < activation + one_tile + 4 * q_tile + 4 * keys
        assert 4 * q_tile + 4 * keys <= activation and one_tile + activation < one_head

    def test_backward_holds_one_heads_probabilities_at_a_time(self):
        d, heads, l_dec, l_enc = 16, 4, 4096, 256
        rng = np.random.default_rng(10)
        params = make_params(d, l_enc, l_enc)
        h_dec = Tensor(rng.normal(size=(l_dec, d)), requires_grad=True)
        h_enc = Tensor(rng.normal(size=(l_enc, d)), requires_grad=True)
        one_head = l_dec * l_enc * 8     # bytes of one head's probabilities
        one_tile = tensor.TILE_ROWS // 2 * l_enc * 8     # a head's half tile of them
        activation = l_dec * d * 8      # bytes of one l_dec-by-d array
        with ComputationTape() as tape:
            loss = sum_all(cca_forward(h_dec, h_enc, params, OpCounter(), heads=heads))
        tracemalloc.start()
        try:
            tensor.backward(loss, tape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one head's probabilities, their gradient written over them, a
        # half tile of the softmax backward's products, and a few
        # l_dec-by-d arrays (the output's gradient, Q and the attended rows
        # with their gradients, a head's copies of them, h_dec's gradient);
        # a second head's probabilities, or a whole score gradient beside
        # them, would need more than that slack
        bound = one_head + one_tile + 8 * activation
        assert one_head <= peak < bound
        assert bound < 2 * one_head
