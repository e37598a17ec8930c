import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsaformer.attention import AttentionMask, OpCounter, scaled_dot_attention
from gsaformer.gsa import (
    ConfigError,
    GsaConfig,
    GsaLayerParams,
    LengthError,
    gsa_forward,
    gsa_op_count,
    global_summary_attention,
    merge_outputs,
    partition_groups,
    summarize_group,
)
from gsaformer.tensor import ComputationTape, Tensor, backward, matmul, multiply, sum_all
from helpers import loop_gsa_forward, naive_gsa


def make_params(cfg, seed=0, beta=0.0):
    params = GsaLayerParams.init(cfg, np.random.default_rng(seed))
    params.beta.data[:] = beta
    return params


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
            params.named("gsa."), max_coords=16, seed=16)
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
            from gsaformer.tensor import sum_all
            backward(sum_all(out), tape)
        assert params.e_q.grad is not None and np.abs(params.e_q.grad).max() > 0


class TestConfigValidation:
    def test_l_s_must_be_smaller(self):
        with pytest.raises(ConfigError):
            GsaConfig(l_g=4, l_s=4, d=8, heads=1, m_max=1)

    def test_heads_must_divide_d(self):
        with pytest.raises(ConfigError):
            GsaConfig(l_g=8, l_s=2, d=9, heads=2, m_max=1)


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
        params.alpha.data[:] = rng.uniform(0.5, 1.5, params.alpha.shape)
        params.beta.data[:] = rng.uniform(-0.5, 0.5, params.beta.shape)
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


def _forward_and_grads(forward, x, params, weights):
    """Output and every input and parameter gradient of sum(forward * weights)."""
    for t in [x, *params.named().values()]:
        t.zero_grad()
    with ComputationTape() as tape:
        out = forward()
        backward(sum_all(multiply(out, weights)), tape)
    grads = {name: t.grad for name, t in params.named().items()}
    grads["x"] = x.grad
    return out.data, grads


class TestFusedOpProperties:
    """gsa_forward (one fused op) against the per-head, per-group loop."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(gsa_cases())
    def test_matches_loop_oracle_forward_and_gradients(self, case):
        cfg, l, real_len, seed = case
        rng = np.random.default_rng(seed)
        params = make_params(cfg, seed=seed)
        params.alpha.data[:] = rng.uniform(0.5, 1.5, params.alpha.shape)
        params.beta.data[:] = rng.uniform(-0.5, 0.5, params.beta.shape)
        x = Tensor(rng.normal(size=(l, cfg.d)), requires_grad=True)
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
        for name, g in grads.items():
            expected = loop_grads[name]
            if expected is None:
                assert g is None, name
            else:
                assert np.abs(g - expected).max() < 1e-12, name
        assert fused_counter.score_elements == loop_counter.score_elements
        assert fused_counter.peak_score_buffer == loop_counter.peak_score_buffer

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
