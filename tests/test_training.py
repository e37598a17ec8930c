import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import check_op_gradients, composed_mse_loss, sum_all

from gsaformer import tensor, training
from gsaformer.attention import OpCounter
from gsaformer.benchmark import BenchConfig, model_config_for
from gsaformer.data import DataError, make_windows, synthetic_series
from gsaformer.model import ForecasterModel, ModelConfig
from gsaformer.tensor import (
    ComputationTape,
    ContractError,
    DimensionError,
    Tensor,
    _record,
    accumulate_grad,
    backward,
    layer_norm,
    matmul,
    multiply,
)
from gsaformer.training import (
    AdamState,
    GradCheckEntry,
    GradCheckReport,
    TrainConfig,
    adam_step,
    evaluate,
    grad_check,
    mse_loss,
    train,
)


def smoke_setup(f=1, dseed=13, mseed=0, stride=1):
    series = synthetic_series("sine_mix", 2000, f, seed=dseed)
    train_set, val_set, _ = make_windows(series, 96, 24, stride=stride)
    cfg = ModelConfig(seq_len=96, pred_len=24, n_features_in=f,
                      n_features_out=f, d=32, heads=2, e_l=1, d_l=1,
                      ffn_hidden=64, l_g=64, l_s=4)
    return ForecasterModel(cfg, seed=mseed), train_set, val_set


@st.composite
def mse_cases(draw):
    """(rows, cols, which of pred and target require a gradient, target is
    pred, the two windows' loss scales, seed)."""
    flags = draw(st.tuples(st.booleans(), st.booleans()))
    same = draw(st.booleans())
    if same:
        flags = (flags[0] or flags[1],) * 2
    scales = draw(st.tuples(*[st.floats(1e-3, 10.0)] * 2))
    return (draw(st.integers(1, 12)), draw(st.integers(1, 8)), flags, same, scales,
            draw(st.integers(0, 2**32 - 1)))


def _mse_losses_and_grads(loss_fn, arrays, flags, same, scales):
    """The losses of two windows of training.train's form, each scaled and
    replayed on one tape, and the gradients they accumulate into pred and
    target."""
    pred, target = (Tensor(a.copy(), requires_grad=r) for a, r in zip(arrays, flags))
    target = pred if same else target
    losses = []
    with ComputationTape() as tape:
        for scale in scales:
            loss = loss_fn(pred, target)
            losses.append(loss.data)
            if any(flags):
                backward(multiply(loss, scale), tape)
    return losses + [pred.grad, target.grad]


class TestMseLoss:
    def test_zero_when_equal(self):
        x = Tensor(np.arange(6.0).reshape(3, 2))
        assert mse_loss(x, Tensor(x.data.copy())).data[0, 0] == 0.0

    def test_scalar_example(self):
        assert mse_loss(Tensor([[1.0]]), Tensor([[3.0]])).data[0, 0] == 4.0

    def test_gradient_is_two_diff_over_n(self):
        rng = np.random.default_rng(0)
        pred = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        target = Tensor(rng.normal(size=(4, 3)))
        check_op_gradients(lambda: mse_loss(pred, target), [pred])
        npt.assert_allclose(pred.grad, 2.0 * (pred.data - target.data) / 12.0,
                            atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            mse_loss(Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2))))

    @settings(max_examples=60)
    @given(mse_cases())
    def test_matches_composed_loss_bit_for_bit(self, case):
        rows, cols, flags, same, scales, seed = case
        rng = np.random.default_rng(seed)
        arrays = (rng.normal(0.0, 3.0, size=(rows, cols)), rng.normal(size=(rows, cols)))
        fused = _mse_losses_and_grads(mse_loss, arrays, flags, same, scales)
        composed = _mse_losses_and_grads(composed_mse_loss, arrays, flags, same, scales)
        for got, expected in zip(fused, composed):
            assert (got is None) == (expected is None)
            if got is not None:
                assert got.tobytes() == expected.tobytes()
        pred, target = (Tensor(a, requires_grad=r) for a, r in zip(arrays, flags))
        target = pred if same else target
        untaped = mse_loss(pred, target)
        assert not untaped.requires_grad            # nothing recorded
        assert untaped.data.tobytes() == fused[0].tobytes()
        with ComputationTape() as tape:
            mse_loss(pred, target)
        assert len(tape) == (1 if any(flags) else 0)


class TestAdam:
    def test_first_step_is_lr_times_sign(self):
        cfg = TrainConfig(learning_rate=0.01)
        p = Tensor([[1.0, -1.0]], requires_grad=True)
        grads = {"p": np.array([[250.0, -0.004]])}
        adam_step({"p": p}, grads, AdamState(), cfg)
        npt.assert_allclose(p.data, [[1.0 - 0.01, -1.0 + 0.01]], rtol=1e-4)

    def test_zero_grad_leaves_parameter(self):
        cfg = TrainConfig()
        p = Tensor([[2.0]], requires_grad=True)
        adam_step({"p": p}, {"p": np.zeros((1, 1))}, AdamState(), cfg)
        npt.assert_array_equal(p.data, [[2.0]])

    def test_two_steps_reduce_quadratic(self):
        cfg = TrainConfig(learning_rate=0.05)
        p = Tensor([[3.0]], requires_grad=True)
        state = AdamState()
        for _ in range(2):
            adam_step({"p": p}, {"p": 2.0 * p.data}, state, cfg)
        assert float(p.data[0, 0] ** 2) < 9.0

    def test_in_place_update_matches_the_textbook_formula_bit_for_bit(self):
        cfg = TrainConfig(learning_rate=0.003)
        rng = np.random.default_rng(21)
        # starting at 0, the parameter shows the update's last bit
        p = Tensor(np.zeros((5, 7)), requires_grad=True)
        data, m, v = p.data.copy(), np.zeros((5, 7)), np.zeros((5, 7))
        state = AdamState()
        for t in range(1, 4):
            g = rng.normal(size=(5, 7))
            m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
            v = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
            m_hat = m / (1.0 - cfg.beta1 ** t)
            v_hat = v / (1.0 - cfg.beta2 ** t)
            data = data - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
            adam_step({"p": p}, {"p": g.copy()}, state, cfg)
            npt.assert_array_equal(p.data, data)
            npt.assert_array_equal(state.m["p"], m)
            npt.assert_array_equal(state.v["p"], v)

    def test_missing_grad_names_parameter(self):
        # a clip is set, so a call that scaled before it checked would show
        cfg = TrainConfig(grad_clip=1e-3)
        params = {name: Tensor(np.ones((2, 3)), requires_grad=True) for name in "abc"}
        grads = {"a": np.full((2, 3), 5.0), "b": np.full((2, 3), -5.0)}
        with pytest.raises(ContractError, match="'c'"):
            adam_step(params, grads, AdamState(), cfg)
        # a rejected call consumes nothing
        assert list(grads) == ["a", "b"]
        npt.assert_array_equal(grads["a"], np.full((2, 3), 5.0))
        npt.assert_array_equal(grads["b"], np.full((2, 3), -5.0))

    def test_frees_each_gradient_as_it_applies_it(self):
        # each gradient is freed before the next parameter's moments are
        # allocated, so the step adds about one copy of the gradients (two
        # moments less the freed gradients), not two
        rng = np.random.default_rng(3)
        params = {f"p{i}": Tensor(rng.normal(size=(64, 64)), requires_grad=True)
                  for i in range(32)}
        tracemalloc.start()
        try:
            # traced, so that freeing them shows
            grads = {name: rng.normal(size=p.shape) for name, p in params.items()}
            size = sum(g.nbytes for g in grads.values())
            tracemalloc.reset_peak()
            entry = tracemalloc.get_traced_memory()[0]
            adam_step(params, grads, AdamState(), TrainConfig())
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * size, (peak, size)
        assert grads == {}

    def test_first_step_needs_one_temporary_besides_the_moments(self):
        # the update's denominator reuses the buffer of the gradient it has
        # just applied, and the parameter is updated a tile at a time: the
        # first step allocates both moments and one tile-sized temporary,
        # 2.25 copies of this parameter, where a whole-size temporary made
        # three and a separate denominator too four
        p = Tensor(np.zeros((512, 512)), requires_grad=True)
        tracemalloc.start()
        try:
            grads = {"p": np.random.default_rng(4).normal(size=p.shape)}
            tracemalloc.reset_peak()
            entry = tracemalloc.get_traced_memory()[0]
            adam_step({"p": p}, grads, AdamState(), TrainConfig())
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * p.data.nbytes, (peak, p.data.nbytes)

    @pytest.mark.parametrize("grad_clip", [None, 0.5])
    def test_tiles_change_no_bit(self, grad_clip, monkeypatch):
        # at TILE_ROWS = 2 a step updates 256 elements at a time: p in
        # tiles of 8 rows, its one-row tail joining the tile before it,
        # and q in tiles of 64 rows; at TILE_ROWS = 10**6 each is one tile
        rng = np.random.default_rng(22)
        shapes = {"p": (17, 32), "q": (70, 4), "r": (1, 5)}
        start = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        steps = [{name: rng.normal(size=shape) for name, shape in shapes.items()}
                 for _ in range(2)]
        cfg = TrainConfig(learning_rate=0.01, grad_clip=grad_clip)
        update, heights = training._adam_update, []

        def counted(p, *args):
            heights.append(p.shape[0])
            update(p, *args)

        monkeypatch.setattr(training, "_adam_update", counted)
        results = []
        for tile in (2, 10**6):
            monkeypatch.setattr(tensor, "TILE_ROWS", tile)
            params = {name: Tensor(a.copy(), requires_grad=True) for name, a in start.items()}
            state = AdamState()
            for grads in steps:
                adam_step(params, {name: g.copy() for name, g in grads.items()}, state, cfg)
            results.append([a for name in shapes
                            for a in (params[name].data, state.m[name], state.v[name])])
        assert heights == 2 * [8, 9, 64, 6, 1] + 2 * [17, 70, 1]
        for tiled, whole in zip(*results):
            npt.assert_array_equal(tiled, whole)

    def test_learning_rate_must_be_positive(self):
        with pytest.raises(ContractError):
            TrainConfig(learning_rate=0.0)

    @pytest.mark.parametrize("name, value", [
        ("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.0), ("beta2", -0.5),
        ("grad_clip", -1.0), ("grad_clip", 0.0), ("lr_decay", 0.0), ("lr_decay", -0.5),
        ("max_iterations", 0), ("max_iterations", -3), ("epochs", -1), ("patience", -1),
        ("epsilon", 0.0), ("epsilon", -1e-8),
        # nan <= 0 is False, so a sign check alone lets NaN through (a NaN
        # grad_clip turns clipping off), and inf through everywhere
        *[(name, value) for name in ("learning_rate", "epsilon", "grad_clip", "lr_decay")
          for value in (math.nan, math.inf, -math.inf)],
    ])
    def test_out_of_range_setting_rejected_naming_it(self, name, value):
        with pytest.raises(ContractError, match=name):
            TrainConfig(**{name: value})


class TestTrainLoop:
    def test_smoke_halves_train_mse(self):
        model, train_set, _ = smoke_setup()
        initial = evaluate(model, train_set, limit=48)
        cfg = TrainConfig(learning_rate=1e-4, batch_size=4, epochs=1000,
                          max_iterations=200, seed=0)
        history = train(model, train_set, cfg, val_set=None)
        final = evaluate(model, train_set, limit=48)
        assert len(history.iteration_losses) == 200
        assert final < 0.5 * initial

    def test_zero_epochs_changes_nothing(self):
        model, train_set, _ = smoke_setup()
        before = {n: p.data.copy() for n, p in model.parameters().items()}
        history = train(model, train_set, TrainConfig(epochs=0))
        assert history.epochs == [] and history.iteration_losses == []
        for name, p in model.parameters().items():
            npt.assert_array_equal(p.data, before[name])

    def test_same_seed_bit_identical_history(self):
        runs = []
        for _ in range(2):
            model, train_set, val_set = smoke_setup()
            cfg = TrainConfig(learning_rate=1e-4, batch_size=4, epochs=2,
                              max_iterations=20, seed=5)
            runs.append(train(model, train_set, cfg, val_set=val_set))
        assert runs[0].iteration_losses == runs[1].iteration_losses
        assert runs[0].epochs == runs[1].epochs

    def test_empty_window_set_rejected(self):
        model, train_set, _ = smoke_setup()
        train_set.clear()
        with pytest.raises(DataError):
            train(model, train_set, TrainConfig())

    @pytest.mark.parametrize("limit", [0, -1])
    def test_evaluate_limit_below_one_rejected(self, limit):
        # a falsy 0 used to score every window and -1 to drop the last one
        model, train_set, _ = smoke_setup()
        with pytest.raises(ContractError, match="limit"):
            evaluate(model, train_set, limit=limit)

    def test_evaluate_limit_none_scores_every_window(self):
        model, train_set, _ = smoke_setup(stride=200)
        n = len(train_set)
        assert evaluate(model, train_set) == evaluate(model, train_set, limit=n)

    def test_adam_phase_peaks_no_higher_than_forward_and_backward(self, monkeypatch):
        cfg = model_config_for("grouped", 256, BenchConfig(d=64, heads=2, ffn_hidden=64,
                                                           l_comp=32))
        model = ForecasterModel(cfg, seed=0)
        rng = np.random.default_rng(0)
        windows = [(rng.normal(size=(cfg.seq_len, cfg.n_features_in)),
                    rng.normal(size=(cfg.pred_len, cfg.n_features_out)))]
        peaks = {}
        inner = training.adam_step

        def adam_step(*args, **kwargs):
            peaks["forward_backward"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            inner(*args, **kwargs)
            peaks["adam"] = tracemalloc.get_traced_memory()[1]

        monkeypatch.setattr(training, "adam_step", adam_step)
        tracemalloc.start()
        try:
            train(model, windows, TrainConfig(batch_size=1, max_iterations=1))
        finally:
            tracemalloc.stop()
        assert peaks["adam"] <= peaks["forward_backward"], peaks
        assert all(p.grad is None for p in model.parameters().values())

    def test_best_val_checkpoint_written(self, tmp_path):
        model, train_set, val_set = smoke_setup()
        path = tmp_path / "best.ckpt"
        train(model, train_set,
              TrainConfig(epochs=1, max_iterations=5, batch_size=4),
              val_set=val_set, checkpoint_path=path)
        assert path.exists()


class TestGradCheck:
    def test_tiny_gsa_model_passes(self):
        from gsaformer.gsa import GsaConfig, GsaLayerParams, gsa_forward
        rng = np.random.default_rng(1)
        cfg = GsaConfig(l_g=8, l_s=2, d=8, heads=1, m_max=2)
        params = GsaLayerParams.init(cfg, rng)
        params.beta.data[:] = 0.3
        x = Tensor(rng.normal(size=(12, 8)))
        y = Tensor(rng.normal(size=(12, 8)))
        report = grad_check(
            lambda: mse_loss(gsa_forward(x, params, cfg, OpCounter()), y),
            params.named(), seed=1)
        assert report.ok, report.lines()

    def test_corrupted_backward_rule_is_flagged(self):
        rng = np.random.default_rng(2)
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        x = Tensor(rng.normal(size=(4, 3)))
        y = Tensor(rng.normal(size=(4, 3)))

        def broken_double(a):
            # forward computes 2a but the recorded rule claims 3a
            out = Tensor(a.data * 2.0)
            return _record("broken_double", out, (a,),
                           lambda: accumulate_grad(a, out.grad * 3.0))

        report = grad_check(
            lambda: mse_loss(broken_double(matmul(x, w)), y),
            {"w": w}, seed=2)
        assert not report.ok
        assert report.failures[0].name == "w"

    @pytest.mark.parametrize("setting", [dict(epsilon=0.0), dict(epsilon=-1e-6),
                                         dict(epsilon=math.inf), dict(tolerance=math.nan),
                                         dict(tolerance=0.0), dict(tolerance=-math.inf)])
    def test_non_finite_or_non_positive_setting_rejected(self, setting):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ContractError, match=f"{next(iter(setting))} must be finite"):
            grad_check(lambda: sum_all(w), {"w": w}, **setting)

    def test_nan_error_fails_in_the_lines_and_the_failures_alike(self):
        report = GradCheckReport(entries=[GradCheckEntry("w", math.nan, 4),
                                          GradCheckEntry("b", 1e-9, 2)], tolerance=1e-5)
        assert [line.split()[:2] for line in report.lines()] == [["FAIL", "w"], ["ok", "b"]]
        assert [e.name for e in report.failures] == ["w"] and not report.ok

    def test_epsilon_sweep_is_v_shaped(self):
        # layer norm on a small-variance row has a huge third-derivative to
        # first-derivative ratio, so the truncation arm shows at eps=1e-5
        # while the roundoff arm dominates at 1e-7
        rng = np.random.default_rng(2)
        g = Tensor(np.ones((1, 8)))
        b = Tensor(np.zeros((1, 8)))
        zero = Tensor(np.zeros((1, 8)))
        t = Tensor(rng.normal(size=(1, 8)))
        a = Tensor(rng.normal(size=(8, 8)))
        w = Tensor(rng.normal(size=(1, 8)) * 0.1, requires_grad=True)

        def loss_fn():
            return mse_loss(layer_norm(matmul(w, a), zero, g, b), t)

        errs = [grad_check(loss_fn, {"w": w}, epsilon=eps, seed=0).worst
                for eps in (1e-5, 1e-6, 1e-7)]
        assert errs[1] < errs[0] and errs[1] < errs[2], errs

    def test_every_layer_type_in_isolation(self):
        from gsaformer.cca import CcaLayerParams, cca_forward
        from gsaformer.gsa import GsaConfig, GsaLayerParams, gsa_forward
        from gsaformer.model import _FeedForward, _LayerNorm, _Linear
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(12, 8)))
        y = Tensor(rng.normal(size=(12, 8)))

        # grouped self-attention, global path on and off
        for global_path in (True, False):
            cfg = GsaConfig(l_g=8, l_s=2, d=8, heads=2, m_max=2,
                            global_path=global_path)
            params = GsaLayerParams.init(cfg, rng)
            if params.beta is not None:
                params.beta.data[:] = 0.4
            report = grad_check(
                lambda: mse_loss(gsa_forward(x, params, cfg, OpCounter()), y),
                params.named(), seed=3)
            assert report.ok, (global_path, report.lines())

        # compressed cross-attention
        cca = CcaLayerParams.init(8, 12, 5, rng)
        h_enc = Tensor(rng.normal(size=(12, 8)))
        report = grad_check(
            lambda: mse_loss(cca_forward(x, h_enc, cca, OpCounter()), y),
            cca.named(), seed=3)
        assert report.ok, report.lines()

        # feed-forward, embedding-style linear, and layer norm
        ffn = _FeedForward(8, 16, rng)
        report = grad_check(lambda: mse_loss(ffn(x), y), ffn.named("ffn."), seed=3)
        assert report.ok, report.lines()

        lin = _Linear(8, 8, rng)
        report = grad_check(lambda: mse_loss(lin(x), y), lin.named("lin."), seed=3)
        assert report.ok, report.lines()

        norm = _LayerNorm(8)
        norm.b.data[:] = rng.normal(size=(1, 8))
        f = Tensor(rng.normal(size=(12, 8)))
        report = grad_check(lambda: mse_loss(norm(x, f), y), norm.named("norm."), seed=3)
        assert report.ok, report.lines()


class TestTrainingFlags:
    def test_patience_stops_early(self, monkeypatch):
        model, train_set, val_set = smoke_setup(stride=64)
        cfg = TrainConfig(learning_rate=1e-4, batch_size=8, epochs=50,
                          max_iterations=None, seed=1, patience=0)
        monkeypatch.setattr(training, "VAL_WINDOWS", 4)
        history = train(model, train_set, cfg, val_set=val_set)
        # stops as soon as val fails to improve, far before 50 epochs
        assert len(history.epochs) < 50

    def test_grad_clip_bounds_update(self):
        model, train_set, _ = smoke_setup(stride=64)
        before = {n: p.data.copy() for n, p in model.parameters().items()}
        tcfg = TrainConfig(learning_rate=1e-4, batch_size=2, epochs=1,
                           max_iterations=1, seed=0, grad_clip=1e-12)
        train(model, train_set, tcfg)
        # with the gradient clipped to nothing, Adam still takes ~lr-sized
        # steps only where moments are nonzero; total drift stays tiny
        drift = max(np.abs(p.data - before[n]).max()
                    for n, p in model.parameters().items())
        assert drift <= 2e-4, drift

    def test_lr_decay_shrinks_updates(self):
        model, train_set, _ = smoke_setup(stride=64)
        cfg = TrainConfig(learning_rate=1e-4, batch_size=8, epochs=3,
                          max_iterations=None, seed=2, lr_decay=0.1)
        history = train(model, train_set, cfg)
        assert len(history.epochs) == 3
