import contextlib
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsaformer import gsa, tensor
from gsaformer.attention import AttentionMask, OpCounter, scaled_dot_attention
from gsaformer.gsa import (
    ConfigError,
    _grouped,
    _project,
    _summaries,
    GsaConfig,
    GsaLayerParams,
    LengthError,
    gsa_forward,
    gsa_op_count,
    global_summary_attention,
    merge_outputs,
    summarize_group,
)
from gsaformer.tensor import (
    ComputationTape,
    Tensor,
    backward,
    linear,
    matmul,
    multiply,
    zero_grads,
)
from helpers import loop_gsa_forward, naive_gsa, partition_groups, sum_all


def make_params(cfg, seed=0, beta=0.0):
    params = GsaLayerParams.init(cfg, np.random.default_rng(seed))
    if params.beta is not None:
        params.beta.data[:] = beta
    return params


def randomize_merge(params, cfg, rng):
    """Random alpha/beta merge scalars.  They are drawn even for a layer
    without a global path, so later draws from rng stay the same."""
    alpha = rng.uniform(0.5, 1.5, (1, cfg.m_max))
    beta = rng.uniform(-0.5, 0.5, (1, cfg.m_max))
    if params.alpha is not None:
        params.alpha.data[:] = alpha
        params.beta.data[:] = beta


def plain_projection_params(cfg, seed=0):
    """Random Q/K/V, identity output projection, zero biases."""
    params = make_params(cfg, seed=seed)
    params.w_o.data = np.eye(cfg.d)
    for b in (params.b_q, params.b_k, params.b_v, params.b_o):
        b.data[:] = 0.0
    return params


class TestPartitionGroups:
    def test_exact_division(self):
        groups, m, pad = partition_groups(Tensor(np.ones((128, 4))), 64)
        assert (m, pad) == (2, 0)
        assert all(g.shape == (64, 4) for g in groups)

    def test_padding(self):
        x = Tensor(np.arange(100.0 * 3).reshape(100, 3))
        groups, m, pad = partition_groups(x, 64)
        assert (m, pad) == (2, 28)
        npt.assert_array_equal(groups[1].data[-28:], np.zeros((28, 3)))
        stacked = np.concatenate([g.data for g in groups])[:100]
        npt.assert_array_equal(stacked, x.data)

    def test_single_group(self):
        _, m, pad = partition_groups(Tensor(np.ones((64, 2))), 64)
        assert (m, pad) == (1, 0)

    def test_non_positive_length_rejected(self):
        with pytest.raises(ConfigError):
            partition_groups(Tensor(np.ones((4, 2))), 0)


class TestSummarizeGroup:
    def test_averaging_projector(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=(8, 4))
        e = Tensor(np.full((2, 8), 1.0 / 8.0))
        qs, ks, vs = summarize_group(Tensor(g), Tensor(g), Tensor(g), e, e, e)
        for s in (qs, ks, vs):
            npt.assert_allclose(s.data, np.tile(g.mean(axis=0), (2, 1)), atol=1e-12)

    def test_selection_projector(self):
        rng = np.random.default_rng(1)
        g = rng.normal(size=(8, 4))
        e = Tensor(np.eye(8)[:2])
        qs, _, _ = summarize_group(Tensor(g), Tensor(g), Tensor(g), e, e, e)
        npt.assert_array_equal(qs.data, g[:2])

    def test_matches_naive_matmul(self):
        rng = np.random.default_rng(2)
        q, k, v = (rng.normal(size=(8, 4)) for _ in range(3))
        eq, ek, ev = (rng.normal(size=(3, 8)) for _ in range(3))
        qs, ks, vs = summarize_group(
            Tensor(q), Tensor(k), Tensor(v), Tensor(eq), Tensor(ek), Tensor(ev))
        for out, e, x in ((qs, eq, q), (ks, ek, k), (vs, ev, v)):
            naive = np.array([[sum(e[i, c] * x[c, j] for c in range(8))
                               for j in range(4)] for i in range(3)])
            npt.assert_allclose(out.data, naive, atol=1e-12)

    def test_shape_mismatch(self):
        from gsaformer.tensor import DimensionError
        with pytest.raises(DimensionError):
            summarize_group(Tensor(np.ones((8, 4))), Tensor(np.ones((8, 4))),
                            Tensor(np.ones((8, 4))), Tensor(np.ones((2, 6))),
                            Tensor(np.ones((2, 6))), Tensor(np.ones((2, 6))))


class TestGlobalSummaryAttention:
    def test_single_group_reduction(self):
        rng = np.random.default_rng(3)
        q, k, v = (Tensor(rng.normal(size=(2, 4))) for _ in range(3))
        out = global_summary_attention(q, k, v, 2, OpCounter())
        expected = scaled_dot_attention(q, k, v, AttentionMask.none(), OpCounter())
        npt.assert_allclose(out.data, expected.data, atol=1e-15)

    def test_identical_keys_average_values(self):
        rng = np.random.default_rng(4)
        q = Tensor(rng.normal(size=(6, 4)))
        k = Tensor(np.tile(rng.normal(size=(1, 4)), (6, 1)))
        v = Tensor(rng.normal(size=(6, 4)))
        out = global_summary_attention(q, k, v, 2, OpCounter())
        npt.assert_allclose(out.data, np.tile(v.data.mean(axis=0), (6, 1)),
                            atol=1e-12)

    def test_matches_naive_oracle(self):
        from helpers import naive_attention
        rng = np.random.default_rng(5)
        q, k, v = (rng.normal(size=(6, 4)) for _ in range(3))
        counter = OpCounter()
        out = global_summary_attention(Tensor(q), Tensor(k), Tensor(v), 2, counter)
        npt.assert_allclose(out.data, naive_attention(q, k, v), atol=1e-12)
        assert counter.score_elements == 36

    def test_indivisible_rows_rejected(self):
        from gsaformer.tensor import DimensionError
        x = Tensor(np.ones((5, 4)))
        with pytest.raises(DimensionError):
            global_summary_attention(x, x, x, 2, OpCounter())


class TestMergeOutputs:
    def test_alpha_one_beta_zero_is_local_only(self):
        rng = np.random.default_rng(6)
        local = rng.normal(size=(4, 3))
        seg = rng.normal(size=(2, 3))
        out = merge_outputs(Tensor(local), Tensor(seg), 1.0, 0.0)
        npt.assert_allclose(out.data, local, atol=1e-15)

    def test_alpha_zero_beta_one_is_pooled_row(self):
        rng = np.random.default_rng(7)
        seg = rng.normal(size=(2, 3))
        out = merge_outputs(Tensor(np.zeros((4, 3))), Tensor(seg), 0.0, 1.0)
        npt.assert_allclose(out.data, np.tile(seg.mean(axis=0), (4, 1)), atol=1e-15)

    def test_arithmetic_example(self):
        out = merge_outputs(Tensor(np.ones((2, 2))),
                            Tensor([[1.0, 1.0], [3.0, 3.0]]), 2.0, 3.0)
        npt.assert_array_equal(out.data, [[8.0, 8.0], [8.0, 8.0]])


class TestOpCount:
    def test_reference_values(self):
        assert gsa_op_count(512, 64, 4, True) == 33792
        assert gsa_op_count(64, 64, 4, True) == 4096 + 16
        assert gsa_op_count(512, 64, 4, False) == 32768

    def test_canonical_comparison_at_512(self):
        assert 512 * 512 == 262144
        assert gsa_op_count(512, 64, 4, True) / 262144 < 0.13

    def test_padding_case(self):
        assert gsa_op_count(100, 64, 4, True) == 2 * 64 * 64 + (2 * 4) ** 2

    @settings(max_examples=200)
    @given(st.integers(2, 1024), st.data())
    def test_doubling_ratio_is_the_closed_form_in_r(self, l_g, data):
        # with r = L/l*, l* = l_g^3/l_s^2 (where the global term equals the
        # local one), doubling a whole-group L multiplies the count by
        # exactly 2(1 + 2r)/(1 + r): inside gate 03's [2, 9/4] band while
        # r <= 1/7, above it beyond
        l_s = data.draw(st.integers(1, l_g - 1))
        l = data.draw(st.integers(1, 10 ** 6)) * l_g
        r = Fraction(l * l_s ** 2, l_g ** 3)
        ratio = Fraction(gsa_op_count(2 * l, l_g, l_s), gsa_op_count(l, l_g, l_s))
        assert ratio == 2 * (1 + 2 * r) / (1 + r)
        assert 2 <= ratio and (ratio <= Fraction(9, 4)) == (r <= Fraction(1, 7))


class TestGsaForward:
    def test_reduces_to_canonical_with_one_group(self):
        rng = np.random.default_rng(8)
        cfg = GsaConfig(l_g=64, l_s=4, d=16, heads=1, m_max=1, global_path=False)
        params = plain_projection_params(cfg, seed=8)
        x = Tensor(rng.normal(size=(64, 16)))
        out = gsa_forward(x, params, cfg, OpCounter())
        q = matmul(x, params.w_q)
        k = matmul(x, params.w_k)
        v = matmul(x, params.w_v)
        oracle = scaled_dot_attention(q, k, v, AttentionMask.none(), OpCounter())
        assert np.abs(out.data - oracle.data).max() < 1e-10

    def test_instrumented_count_512(self):
        cfg = GsaConfig(l_g=64, l_s=4, d=8, heads=1, m_max=8)
        params = make_params(cfg, beta=0.3)
        counter = OpCounter()
        x = Tensor(np.random.default_rng(9).normal(size=(512, 8)))
        gsa_forward(x, params, cfg, counter)
        assert counter.score_elements == 8 * 64 ** 2 + (8 * 4) ** 2 == 33792

    @pytest.mark.parametrize("l,l_g,l_s", [(512, 64, 4), (1024, 64, 4),
                                           (720, 90, 8), (100, 64, 4)])
    def test_counter_matches_closed_form(self, l, l_g, l_s):
        m_max = -(-l // l_g)
        cfg = GsaConfig(l_g=l_g, l_s=l_s, d=8, heads=1, m_max=m_max)
        params = make_params(cfg, beta=0.25)
        counter = OpCounter()
        gsa_forward(Tensor(np.random.default_rng(10).normal(size=(l, 8))),
                    params, cfg, counter)
        assert counter.score_elements == gsa_op_count(l, l_g, l_s, True)

    def test_peak_buffer_is_one_group_at_a_time(self):
        cfg = GsaConfig(l_g=64, l_s=4, d=8, heads=1, m_max=8)
        params = make_params(cfg, beta=0.25)
        counter = OpCounter()
        gsa_forward(Tensor(np.random.default_rng(11).normal(size=(512, 8))),
                    params, cfg, counter)
        assert counter.peak_score_buffer == max(64 ** 2, (8 * 4) ** 2) == 4096
        assert counter.peak_score_buffer < 512 ** 2

    def test_pad_invariance(self):
        rng = np.random.default_rng(12)
        cfg = GsaConfig(l_g=64, l_s=4, d=8, heads=2, m_max=2)
        params = make_params(cfg, beta=0.5)
        x = rng.normal(size=(100, 8))
        base = gsa_forward(Tensor(x), params, cfg, OpCounter())
        padded = np.zeros((128, 8))
        padded[:100] = x
        padded[100:] = rng.uniform(-10.0, 10.0, size=(28, 8))
        out = gsa_forward(Tensor(padded), params, cfg, OpCounter(), real_len=100)
        assert np.abs(out.data[:100] - base.data).max() < 1e-12

    def test_locality_without_global_path(self):
        rng = np.random.default_rng(13)
        cfg = GsaConfig(l_g=8, l_s=2, d=8, heads=1, m_max=4, global_path=False)
        params = make_params(cfg, seed=13)
        x = rng.normal(size=(32, 8))
        base = gsa_forward(Tensor(x), params, cfg, OpCounter())
        bumped = x.copy()
        bumped[10] += 1.0   # group 1
        out = gsa_forward(Tensor(bumped), params, cfg, OpCounter())
        diff = np.abs(out.data - base.data).max(axis=1)
        assert diff[8:16].max() > 0.0
        assert diff[:8].max() < 1e-12
        assert diff[16:].max() < 1e-12

    def test_global_path_propagates_across_groups(self):
        rng = np.random.default_rng(14)
        cfg = GsaConfig(l_g=8, l_s=2, d=8, heads=1, m_max=4, global_path=True)
        params = make_params(cfg, seed=14, beta=0.7)
        x = rng.normal(size=(32, 8))
        base = gsa_forward(Tensor(x), params, cfg, OpCounter())
        bumped = x.copy()
        bumped[10] += 1.0
        out = gsa_forward(Tensor(bumped), params, cfg, OpCounter())
        diff = np.abs(out.data - base.data).max(axis=1)
        assert diff[:8].max() > 0.0
        assert diff[24:].max() > 0.0

    def test_scaling_ratio_in_linear_regime(self):
        counts = [gsa_op_count(l, 64, 4, True) for l in (512, 1024, 2048, 4096)]
        for small, big in zip(counts, counts[1:]):
            assert 2.0 <= big / small <= 2.25

    def test_causal_mode_blocks_future_within_group(self):
        rng = np.random.default_rng(15)
        cfg = GsaConfig(l_g=8, l_s=2, d=8, heads=1, m_max=2, causal=True,
                        global_path=True)   # causal must force the global path off
        params = make_params(cfg, seed=15, beta=0.9)
        x = rng.normal(size=(16, 8))
        base = gsa_forward(Tensor(x), params, cfg, OpCounter())
        bumped = x.copy()
        bumped[5] += 1.0
        out = gsa_forward(Tensor(bumped), params, cfg, OpCounter())
        diff = np.abs(out.data - base.data).max(axis=1)
        assert diff[:5].max() < 1e-12        # earlier rows unaffected
        assert diff[5:8].max() > 0.0         # same group, at or after the bump
        assert diff[8:].max() < 1e-12        # later group untouched (no global)

    def test_length_error(self):
        cfg = GsaConfig(l_g=8, l_s=2, d=8, heads=1, m_max=2)
        params = make_params(cfg)
        with pytest.raises(LengthError):
            gsa_forward(Tensor(np.zeros((17, 8))), params, cfg, OpCounter())

    def test_parameter_gradients_match_finite_differences(self):
        from gsaformer.training import grad_check, mse_loss
        rng = np.random.default_rng(16)
        cfg = GsaConfig(l_g=8, l_s=2, d=8, heads=2, m_max=3)
        params = make_params(cfg, seed=16, beta=0.4)
        x = Tensor(rng.normal(size=(20, 8)))
        y = Tensor(rng.normal(size=(20, 8)))
        report = grad_check(
            lambda: mse_loss(gsa_forward(x, params, cfg, OpCounter()), y),
            params.named("gsa."), seed=16)
        assert report.ok, report.lines()

    def test_shared_summary_projections_are_same_objects(self):
        cfg = GsaConfig(l_g=8, l_s=2, d=8, heads=1, m_max=4)
        params = make_params(cfg)
        named = params.named()
        assert named["e_q"] is params.e_q
        # one gradient tensor accumulates across every group
        rng = np.random.default_rng(17)
        x = Tensor(rng.normal(size=(32, 8)))
        params.beta.data[:] = 0.5
        with ComputationTape() as tape:
            out = gsa_forward(x, params, cfg, OpCounter())
            backward(sum_all(out), tape)
        assert params.e_q.grad is not None and np.abs(params.e_q.grad).max() > 0


class TestBackwardMemory:
    def test_rule_runs_the_local_backward_one_tile_at_a_time(self):
        # 2040 rows in four tiles of 32 groups (the last one padded): the
        # rule's own arrays, Q/K/V, the padded output gradient (which the
        # walk overwrites with the local outputs), w_o's input gradient and
        # x's gradient, are six l-by-d arrays, and one backward tile's score
        # arrays of every head a quarter of one.  All of a head's groups at once would
        # add two l-by-d arrays per score array: such a rule read 14.0
        # arrays, the tiled one 7.6.  Rebuilding the local outputs into a
        # buffer of their own instead would add one more l-by-d array
        rng = np.random.default_rng(2)
        cfg = GsaConfig(l_g=16, l_s=1, d=16, heads=2, m_max=128)
        l = 2040
        params = make_params(cfg, beta=0.3)
        x = Tensor(rng.normal(size=(l, cfg.d)), requires_grad=True)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            with ComputationTape() as tape:
                out = gsa_forward(x, params, cfg, OpCounter())
            # the rule holds x and the parameters, which were there before:
            # all the forward leaves is its output and a few small objects
            kept = tracemalloc.get_traced_memory()[0] - entry - out.data.nbytes
            (_, slot, rule), = tape._nodes
            slot.grad = rng.normal(size=out.shape)
            del out
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rule()
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert kept < 0.1 * l * cfg.d * 8
        assert peak < 9 * l * cfg.d * 8

    def test_rule_holds_one_heads_summary_probabilities_at_a_time(self):
        # at d = 8 with l_g 8 and l_s 4 the summary attention dominates:
        # 2048 rows make 1024 summary rows, so one head's probabilities are
        # 8 MiB and an l-by-d array 128 KiB.  The rule rebuilds one head's
        # probabilities at a time and writes their gradient over them a
        # half tile at a time: its peak is under two heads' probabilities
        # (1.65; 4.63 when every head's probabilities and score gradients
        # were alive at once)
        cfg = GsaConfig(l_g=8, l_s=4, d=8, heads=2, m_max=256)
        l = 2048
        one_head = (l // cfg.l_g * cfg.l_s) ** 2 * 8
        params = make_params(cfg, beta=0.3)
        x = Tensor(np.random.default_rng(3).normal(size=(l, cfg.d)), requires_grad=True)
        with ComputationTape() as tape:
            loss = sum_all(gsa_forward(x, params, cfg, OpCounter()))
        tracemalloc.start()
        try:
            backward(loss, tape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * one_head


class TestConfigValidation:
    def test_l_s_must_be_smaller(self):
        with pytest.raises(ConfigError):
            GsaConfig(l_g=4, l_s=4, d=8, heads=1, m_max=1)

    def test_heads_must_divide_d(self):
        with pytest.raises(ConfigError):
            GsaConfig(l_g=8, l_s=2, d=9, heads=2, m_max=1)

    def test_heads_must_be_positive(self):
        with pytest.raises(ConfigError, match="heads"):
            GsaConfig(l_g=8, l_s=2, d=8, heads=0, m_max=1)


class TestRealLenContract:
    def test_causal_with_padded_tail_matches_unpadded(self):
        rng = np.random.default_rng(20)
        cfg = GsaConfig(l_g=8, l_s=2, d=8, heads=1, m_max=2, causal=True)
        params = make_params(cfg, seed=20)
        x = rng.normal(size=(10, 8))
        base = gsa_forward(Tensor(x), params, cfg, OpCounter())
        padded = np.zeros((16, 8))
        padded[:10] = x
        padded[10:] = rng.uniform(-10, 10, size=(6, 8))
        out = gsa_forward(Tensor(padded), params, cfg, OpCounter(), real_len=10)
        assert np.all(np.isfinite(out.data))
        assert np.abs(out.data[:10] - base.data[:10]).max() < 1e-12

    def test_pad_invariance_with_global_path(self):
        rng = np.random.default_rng(21)
        cfg = GsaConfig(l_g=8, l_s=2, d=8, heads=2, m_max=2)
        params = make_params(cfg, seed=21, beta=0.6)
        x = rng.normal(size=(10, 8))
        base = gsa_forward(Tensor(x), params, cfg, OpCounter())
        padded = np.zeros((16, 8))
        padded[:10] = x
        padded[10:] = rng.uniform(-10, 10, size=(6, 8))
        out = gsa_forward(Tensor(padded), params, cfg, OpCounter(), real_len=10)
        assert np.abs(out.data[:10] - base.data[:10]).max() < 1e-12

    def test_whole_group_padding_rejected(self):
        # 24 rows but only 10 real ones: the third group would be pure
        # padding, which silently changes the summary-node layout
        cfg = GsaConfig(l_g=8, l_s=2, d=8, heads=1, m_max=3)
        params = make_params(cfg, seed=22)
        with pytest.raises(LengthError):
            gsa_forward(Tensor(np.zeros((24, 8))), params, cfg, OpCounter(),
                        real_len=10)

    def test_real_len_bounds_checked(self):
        cfg = GsaConfig(l_g=8, l_s=2, d=8, heads=1, m_max=2)
        params = make_params(cfg, seed=23)
        with pytest.raises(LengthError):
            gsa_forward(Tensor(np.zeros((8, 8))), params, cfg, OpCounter(),
                        real_len=0)


class TestConfigToggles:
    def test_per_group_merge_uses_group_slot(self):
        rng = np.random.default_rng(32)
        cfg = GsaConfig(l_g=8, l_s=2, d=8, heads=1, m_max=2)
        params = make_params(cfg, seed=32)
        params.w_o.data = np.eye(8)
        params.b_o.data[:] = 0.0
        params.alpha.data[:] = [[1.0, 0.0]]   # second group muted entirely
        x = Tensor(rng.normal(size=(16, 8)))
        out = gsa_forward(x, params, cfg, OpCounter())
        assert np.abs(out.data[:8]).max() > 0
        npt.assert_allclose(out.data[8:], np.zeros((8, 8)), atol=1e-15)


class TestEndToEndOracle:
    @pytest.mark.parametrize("l,heads,causal,global_path", [
        (20, 1, False, True),
        (24, 2, False, True),
        (13, 1, False, True),
        (20, 2, True, False),
        (16, 2, True, True),   # causal forces global off
        (7, 1, False, False),
    ])
    def test_matches_naive_reference(self, l, heads, causal, global_path):
        rng = np.random.default_rng(l * 7 + heads)
        cfg = GsaConfig(l_g=8, l_s=2, d=8, heads=heads,
                        m_max=int(np.ceil(l / 8)), causal=causal,
                        global_path=global_path)
        params = make_params(cfg, seed=l, beta=0.45)
        randomize_merge(params, cfg, rng)
        x = rng.normal(size=(l, 8))
        out = gsa_forward(Tensor(x), params, cfg, OpCounter())
        expected = naive_gsa(x, params, cfg)
        npt.assert_allclose(out.data, expected, atol=1e-12)


@st.composite
def gsa_cases(draw):
    """A random layer shape, padding and toggle setting, with a seed."""
    l_g = draw(st.integers(2, 8))
    m = draw(st.integers(1, 4))
    real_len = draw(st.integers((m - 1) * l_g + 1, m * l_g))
    heads = draw(st.sampled_from([1, 2, 4]))
    cfg = GsaConfig(
        l_g=l_g, l_s=draw(st.integers(1, l_g - 1)),
        d=heads * draw(st.integers(1, 3)), heads=heads,
        m_max=m + draw(st.integers(0, 1)), causal=draw(st.booleans()),
        global_path=draw(st.booleans()))
    l = draw(st.integers(real_len, m * l_g))
    return cfg, l, real_len, draw(st.integers(0, 2 ** 16))


@st.composite
def causal_cases(draw):
    """A random causal layer shape and padding, a row t to perturb, a seed."""
    cfg, l, real_len, seed = draw(gsa_cases())
    return replace(cfg, causal=True), l, real_len, draw(st.integers(0, l - 1)), seed


@st.composite
def locality_cases(draw):
    """A non-causal layer over m >= 2 groups, one group i, a seed."""
    l_g = draw(st.integers(2, 8))
    m = draw(st.integers(2, 4))
    heads = draw(st.sampled_from([1, 2, 4]))
    cfg = GsaConfig(l_g=l_g, l_s=draw(st.integers(1, l_g - 1)),
                    d=heads * draw(st.integers(1, 3)), heads=heads, m_max=m)
    l = draw(st.integers((m - 1) * l_g + 1, m * l_g))
    return cfg, l, draw(st.integers(0, m - 1)), draw(st.integers(0, 2 ** 16))


def _forward_and_grads(forward, x, params, weights):
    """Output and every input and parameter gradient of sum(forward * weights)."""
    zero_grads([x, *params.named().values()])
    with ComputationTape() as tape:
        out = forward()
        backward(sum_all(multiply(out, weights)), tape)
    grads = {name: t.grad for name, t in params.named().items()}
    grads["x"] = x.grad
    return out.data, grads


class TestFusedOpProperties:
    """gsa_forward (one fused op) against the per-head, per-group loop."""

    @settings(max_examples=30)
    @given(gsa_cases(), st.frozensets(st.sampled_from(
        ["x", "w_q", "w_k", "w_v", "b_q", "b_k", "b_v"])))
    def test_matches_loop_oracle_forward_and_gradients(self, case, frozen):
        cfg, l, real_len, seed = case
        rng = np.random.default_rng(seed)
        params = make_params(cfg, seed=seed)
        randomize_merge(params, cfg, rng)
        x = Tensor(rng.normal(size=(l, cfg.d)), requires_grad=True)
        for name in frozen:
            (x if name == "x" else getattr(params, name)).requires_grad = False
        weights = Tensor(rng.normal(size=(l, cfg.d)))
        fused_counter, loop_counter = OpCounter(), OpCounter()
        out, grads = _forward_and_grads(
            lambda: gsa_forward(x, params, cfg, fused_counter, real_len=real_len),
            x, params, weights)
        loop_out, loop_grads = _forward_and_grads(
            lambda: loop_gsa_forward(x, params, cfg, loop_counter, real_len=real_len),
            x, params, weights)
        assert np.abs(out - loop_out).max() < 1e-12
        npt.assert_allclose(out, naive_gsa(x.data, params, cfg, real_len), atol=1e-12)
        assert grads.keys() == loop_grads.keys()
        assert [name for name in frozen if grads[name] is not None] == []
        for name, g in grads.items():
            expected = loop_grads[name]
            if expected is None:
                assert g is None, name
            else:
                assert np.abs(g - expected).max() < 1e-12, name
        assert fused_counter.score_elements == loop_counter.score_elements
        assert fused_counter.peak_score_buffer == loop_counter.peak_score_buffer

    @settings(max_examples=30)
    @given(causal_cases())
    def test_causal_layer_never_reads_later_rows(self, case):
        cfg, l, real_len, t, seed = case
        rng = np.random.default_rng(seed)
        params = make_params(cfg, seed=seed)
        randomize_merge(params, cfg, rng)
        x = rng.normal(size=(l, cfg.d))
        base = gsa_forward(Tensor(x), params, cfg, OpCounter(), real_len=real_len)
        x[t] += rng.uniform(-10.0, 10.0, size=cfg.d)
        out = gsa_forward(Tensor(x), params, cfg, OpCounter(), real_len=real_len)
        npt.assert_array_equal(out.data[:t], base.data[:t])

    @settings(max_examples=30)
    @given(locality_cases())
    def test_group_reads_other_groups_only_through_the_global_path(self, case):
        cfg, l, i, seed = case
        group = np.zeros(l, dtype=bool)
        group[i * cfg.l_g:(i + 1) * cfg.l_g] = True
        for global_path in (False, True):
            layer = replace(cfg, global_path=global_path)
            rng = np.random.default_rng(seed)
            params = make_params(layer, seed=seed)
            randomize_merge(params, layer, rng)
            x = rng.normal(size=(l, cfg.d))
            base = gsa_forward(Tensor(x), params, layer, OpCounter()).data[group]
            x[~group] += rng.uniform(-10.0, 10.0, size=(l - group.sum(), cfg.d))
            out = gsa_forward(Tensor(x), params, layer, OpCounter()).data[group]
            if global_path:
                assert not np.array_equal(out, base)
            else:
                npt.assert_array_equal(out, base)

    @settings(max_examples=30)
    @given(gsa_cases().filter(lambda case: case[2] < case[1]))
    def test_pad_rows_reach_no_gradient(self, case):
        # the backward projects Q, K and V again from x, so it must zero
        # their pad rows again, as the forward does
        cfg, l, real_len, seed = case
        rng = np.random.default_rng(seed)
        params = make_params(cfg, seed=seed)
        randomize_merge(params, cfg, rng)
        for b in (params.b_q, params.b_k, params.b_v):
            b.data[:] = rng.normal(size=b.shape)
        rows = rng.normal(size=(l, cfg.d))
        weights = Tensor(rng.normal(size=(l, cfg.d)))
        runs = []
        for _ in range(2):
            x = Tensor(rows.copy(), requires_grad=True)
            runs.append(_forward_and_grads(
                lambda: gsa_forward(x, params, cfg, OpCounter(), real_len=real_len),
                x, params, weights))
            rows[real_len:] += rng.uniform(-10.0, 10.0, size=(l - real_len, cfg.d))
        (out, grads), (pad_out, pad_grads) = runs
        npt.assert_array_equal(pad_out[:real_len], out[:real_len])
        npt.assert_array_equal(pad_grads.pop("x")[:real_len], grads.pop("x")[:real_len])
        assert pad_grads.keys() == grads.keys()
        for name, g in grads.items():
            npt.assert_array_equal(pad_grads[name], g, err_msg=name)

    def test_tape_length_independent_of_group_count(self):
        lengths = {}
        for l in (32, 128):
            cfg = GsaConfig(l_g=8, l_s=2, d=8, heads=2, m_max=16)
            params = make_params(cfg, beta=0.5)
            x = Tensor(np.random.default_rng(l).normal(size=(l, 8)))
            with ComputationTape() as tape:
                gsa_forward(x, params, cfg, OpCounter())
            lengths[l] = len(tape)
        assert lengths[32] == lengths[128]

    @pytest.mark.parametrize("l, real_len, l_g, d, heads",
                             [(20, 18, 8, 8, 2), (1, 1, 8, 12, 3), (1440, 1410, 64, 256, 8)])
    def test_projections_are_linear_bit_for_bit(self, l, real_len, l_g, d, heads):
        # the fused op writes each projection into a padded buffer; its
        # real rows must be linear's output exactly, its pad rows zero
        rng = np.random.default_rng(l)
        x, w, b = (Tensor(rng.normal(size=shape)) for shape in ((l, d), (d, d), (1, d)))
        m = -(-real_len // l_g)
        rows = np.zeros((m * l_g, d))
        rows[:real_len] = linear(x, w, b).data[:real_len]
        npt.assert_array_equal(_grouped(_project(x.data, w, b, m, l_g, real_len), m, l_g, heads),
                               _grouped(rows, m, l_g, heads))

    def test_continuation_rejected_under_a_tape(self):
        cfg = GsaConfig(l_g=4, l_s=2, d=8, heads=2, m_max=3)
        x = Tensor(np.random.default_rng(41).normal(size=(12, 8)), requires_grad=True)
        with ComputationTape(), pytest.raises(ValueError, match="continuation"):
            gsa_forward(x, make_params(cfg), cfg, OpCounter(), then=lambda rows, f: None)

    def test_no_tape_leaves_inputs_untouched(self):
        cfg = GsaConfig(l_g=8, l_s=2, d=8, heads=2, m_max=3)
        params = make_params(cfg, beta=0.5)
        x = np.random.default_rng(40).normal(size=(20, 8))
        before = {name: t.data.copy() for name, t in params.named().items()}
        first = gsa_forward(Tensor(x), params, cfg, OpCounter()).data
        second = gsa_forward(Tensor(x), params, cfg, OpCounter()).data
        npt.assert_array_equal(first, second)
        for name, t in params.named().items():
            npt.assert_array_equal(t.data, before[name])


def global_cases():
    """gsa_cases with the global path on."""
    return gsa_cases().map(
        lambda case: (replace(case[0], causal=False, global_path=True), *case[1:]))


def random_params(cfg, rng):
    params = make_params(cfg)
    for t in params.named().values():
        t.data[:] = rng.normal(size=t.shape)
    return params


class TestSummaries:
    """_summaries makes every group's summary rows from x, without
    projecting it; the forward projects each row of x once."""

    @settings(max_examples=60, deadline=None)
    @given(global_cases())
    def test_rows_are_e_times_the_projected_rows_and_ignore_pad_rows(self, case):
        cfg, l, real_len, seed = case
        rng = np.random.default_rng(seed)
        params = random_params(cfg, rng)
        x = rng.normal(size=(l, cfg.d))
        m, l_g, heads = -(-real_len // cfg.l_g), cfg.l_g, cfg.heads
        rows = _summaries(x, params, m, l_g, real_len, heads)
        for s, e, w, b in zip(rows, (params.e_q, params.e_k, params.e_v),
                              (params.w_q, params.w_k, params.w_v),
                              (params.b_q, params.b_k, params.b_v)):
            expected = np.matmul(e.data, _grouped(_project(x, w, b, m, l_g, real_len),
                                                  m, l_g, heads))
            assert s.shape == expected.shape
            assert np.abs(s - expected).max() <= 1e-12 * np.abs(expected).max()
        x[real_len:] = rng.uniform(-10.0, 10.0, size=(l - real_len, cfg.d))
        for s, padded in zip(rows, _summaries(x, params, m, l_g, real_len, heads)):
            npt.assert_array_equal(padded, s)

    @pytest.mark.parametrize("call", ["taped", "untaped", "continuation"])
    def test_forward_projects_each_row_of_x_once(self, call):
        # 43 rows of 4-row groups in tiles of 8 rows: six tiles, the last
        # one three rows of the group that real_len ends in, one a pad row.
        # Q is projected a tile at a time, K and V a half tile (4 rows) at
        # a time: two per tile but the last, which is one half tile
        cfg = GsaConfig(l_g=4, l_s=2, d=8, heads=2, m_max=12)
        rng = np.random.default_rng(42)
        params = random_params(cfg, rng)
        x = Tensor(rng.normal(size=(43, 8)))
        streams = {id(params.w_q): "q", id(params.w_k): "k", id(params.w_v): "v"}
        projected, parts, project = {"q": [], "k": [], "v": []}, [], gsa._project

        def spy(rows, w, *args, **kwargs):
            projected[streams[id(w)]].append(rows.copy())
            return project(rows, w, *args, **kwargs)

        tape = ComputationTape() if call == "taped" else contextlib.nullcontext()
        with pytest.MonkeyPatch.context() as mp, tape:
            mp.setattr(tensor, "TILE_ROWS", 8)
            mp.setattr(gsa, "_project", spy)
            gsa_forward(x, params, cfg, OpCounter(), real_len=42,
                        then=(lambda rows, f: parts.append(rows))
                        if call == "continuation" else None)
        assert len(parts) == (6 if call == "continuation" else 0)
        assert [len(projected[s]) for s in "qkv"] == [6, 11, 11]
        for s in "qkv":
            npt.assert_array_equal(np.concatenate(projected[s]), x.data)


class TestPropertiesOverRandomShapes:
    """Pad invariance and the one-group reduction, over gsa_cases."""

    @settings(max_examples=40, deadline=None)
    @given(gsa_cases().filter(lambda case: case[2] < case[1]), st.integers(0, 2 ** 16))
    def test_pad_invariance_over_random_shapes(self, case, pad_seed):
        # real rows are what the unpadded sequence gives, to 1e-12 (the
        # projections' products have another row count), and bit for bit
        # the same whatever the pad rows hold
        cfg, l, real_len, seed = case
        rng = np.random.default_rng(seed)
        params = make_params(cfg, seed=seed)
        randomize_merge(params, cfg, rng)
        x = rng.normal(size=(real_len, cfg.d))
        base = gsa_forward(Tensor(x), params, cfg, OpCounter())
        outs = []
        for pad_rng in (rng, np.random.default_rng(pad_seed)):
            padded = np.concatenate(
                [x, pad_rng.uniform(-10.0, 10.0, size=(l - real_len, cfg.d))])
            out = gsa_forward(Tensor(padded), params, cfg, OpCounter(), real_len=real_len)
            outs.append(out.data[:real_len])
        npt.assert_array_equal(outs[0], outs[1])
        npt.assert_allclose(outs[0], base.data, rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(gsa_cases().filter(lambda case: case[2] <= case[0].l_g))
    def test_one_group_reduces_to_projections_and_canonical_attention(self, case):
        # one group, alpha = 1 and beta = 0: each head is scaled_dot_attention
        # over the real rows (the causal mask when causal), then w_o
        cfg, l, real_len, seed = case
        rng = np.random.default_rng(seed)
        params = make_params(cfg, seed=seed)
        for t in (params.b_q, params.b_k, params.b_v, params.b_o):
            t.data[:] = rng.normal(size=t.shape)
        x = Tensor(rng.normal(size=(l, cfg.d)))
        out = gsa_forward(x, params, cfg, OpCounter(), real_len=real_len)
        real = Tensor(x.data[:real_len])
        q, k, v = (linear(real, w, b) for w, b in ((params.w_q, params.b_q),
                                                    (params.w_k, params.b_k),
                                                    (params.w_v, params.b_v)))
        allow = np.ones((real_len, real_len), dtype=bool)
        mask = AttentionMask.custom(np.tril(allow) if cfg.causal else allow)
        dh = cfg.d // cfg.heads
        heads = [scaled_dot_attention(*(Tensor(t.data[:, h * dh:(h + 1) * dh]) for t in (q, k, v)),
                                      mask, OpCounter()).data for h in range(cfg.heads)]
        expected = np.hstack(heads) @ params.w_o.data + params.b_o.data
        npt.assert_allclose(out.data[:real_len], expected, rtol=0, atol=1e-12)
