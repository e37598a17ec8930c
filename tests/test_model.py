import tracemalloc
import types
import weakref
from collections import Counter
from dataclasses import fields

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import loop_multi_head_attention, old_layout_arrays

import gsaformer.cca as cca_module
import gsaformer.gsa as gsa_module
import gsaformer.model as model_module
import gsaformer.tensor as tensor_module
from gsaformer.attention import OpCounter
from gsaformer.benchmark import BenchConfig, model_config_for
from gsaformer.cli import GRADCHECK_PRESETS, config_from_mapping
from gsaformer.gsa import ConfigError, gsa_forward
from gsaformer.model import (
    ForecasterModel,
    ModelConfig,
    build_decoder_input,
    model_config_to_text,
    sinusoidal_table,
)
from gsaformer.tensor import (
    ComputationTape,
    ParameterSet,
    Tensor,
    backward,
    broadcast_add,
    matmul,
    multiply,
    row_tiles,
    save_checkpoint,
    slice_rows,
    tile_rows,
)
from gsaformer.training import mse_loss


def tiny_config(**overrides):
    base = dict(seq_len=24, pred_len=8, n_features_in=2, n_features_out=2,
                d=16, heads=2, e_l=1, d_l=1, l_g=8, l_s=2, l_comp=256,
                ffn_hidden=16)
    base.update(overrides)
    return ModelConfig(**base)


class TestBuildDecoderInput:
    def test_warm_start_plus_zeros(self):
        cfg = ModelConfig(seq_len=4, pred_len=2, label_len=2,
                          n_features_in=1, n_features_out=1, d=4, heads=1,
                          l_g=2, l_s=1, e_l=1, d_l=1)
        x = Tensor(np.arange(4.0).reshape(4, 1))
        out = build_decoder_input(x, cfg)
        npt.assert_array_equal(out.data, [[2.0], [3.0], [0.0], [0.0]])

    def test_zero_label_length(self):
        cfg = ModelConfig(seq_len=4, pred_len=3, label_len=0,
                          n_features_in=1, n_features_out=1, d=4, heads=1,
                          l_g=2, l_s=1, e_l=1, d_l=1)
        out = build_decoder_input(Tensor(np.ones((4, 1))), cfg)
        npt.assert_array_equal(out.data, np.zeros((3, 1)))

    def test_zero_pred_length(self):
        # a model that forecasts nothing is a config error, not a forward one
        with pytest.raises(ConfigError, match="pred_len=0"):
            ModelConfig(seq_len=4, pred_len=0, label_len=3,
                        n_features_in=1, n_features_out=1, d=4, heads=1,
                        l_g=2, l_s=1, e_l=1, d_l=1)

    def test_label_exceeding_seq_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(seq_len=4, pred_len=2, label_len=5,
                        n_features_in=1, n_features_out=1, d=4, heads=1,
                        l_g=2, l_s=1, e_l=1, d_l=1)


class TestEncoderForward:
    @pytest.mark.parametrize("seq_len", [96, 168, 336])
    def test_output_shape(self, seq_len):
        cfg = tiny_config(seq_len=seq_len, pred_len=8, d=8, heads=1,
                          ffn_hidden=8, l_g=64, l_s=4)
        model = ForecasterModel(cfg, seed=0)
        out = model.encoder_forward(Tensor(np.random.default_rng(0).normal(
            size=(seq_len, 2))))
        assert out.shape == (seq_len, cfg.d)

    def test_zero_layers_returns_embedding(self):
        cfg = tiny_config(e_l=0)
        model = ForecasterModel(cfg, seed=0)
        x = Tensor(np.random.default_rng(1).normal(size=(24, 2)))
        out = model.encoder_forward(x)
        expected = x.data @ model.embed.w.data + model.embed.b.data \
            + model.pos_table[:24]
        npt.assert_allclose(out.data, expected, atol=1e-12)

    def test_instrumented_count_three_layers_512(self):
        cfg = ModelConfig(seq_len=512, pred_len=8, n_features_in=2,
                          n_features_out=2, d=8, heads=1, e_l=3, d_l=1,
                          l_g=64, l_s=4, ffn_hidden=8)
        model = ForecasterModel(cfg, seed=0)
        counter = OpCounter()
        model.encoder_forward(Tensor(np.random.default_rng(2).normal(
            size=(512, 2))), counter)
        assert counter.score_elements == 3 * 33792 == 101376

    def test_wrong_feature_count_rejected(self):
        model = ForecasterModel(tiny_config(), seed=0)
        with pytest.raises(ConfigError):
            model.encoder_forward(Tensor(np.zeros((24, 5))))


@st.composite
def decoder_cases(draw):
    """A small random model with 1-3 decoder layers, compressed CCA
    (seq_len > l_comp) or bypass CCA, a decoder row t and a seed."""
    heads = draw(st.sampled_from([1, 2]))
    l_g = draw(st.integers(2, 6))
    seq_len = draw(st.integers(2, 20))
    cfg = ModelConfig(seq_len=seq_len, pred_len=draw(st.integers(1, 12)),
                      label_len=draw(st.integers(0, seq_len)),
                      n_features_in=2, n_features_out=2, d=heads * draw(st.integers(1, 4)),
                      heads=heads, e_l=0, d_l=draw(st.integers(1, 3)), l_g=l_g,
                      l_s=draw(st.integers(1, l_g - 1)),
                      l_comp=draw(st.integers(1, 2 * seq_len)),
                      ffn_hidden=draw(st.integers(1, 8)))
    return cfg, draw(st.integers(0, cfg.dec_len - 1)), draw(st.integers(0, 2 ** 16))


class TestModelForward:
    def test_output_shape(self):
        cfg = ModelConfig(seq_len=96, pred_len=96, n_features_in=7,
                          n_features_out=7, d=8, heads=1, e_l=1, d_l=1,
                          l_g=64, l_s=4, ffn_hidden=8)
        model = ForecasterModel(cfg, seed=0)
        out = model.forward(Tensor(np.random.default_rng(3).normal(size=(96, 7))))
        assert out.shape == (96, 7)

    def test_zero_head_gives_zero_prediction(self):
        cfg = tiny_config()
        model = ForecasterModel(cfg, seed=0)
        model.head.w.data[:] = 0.0
        model.head.b.data[:] = 0.0
        out = model.forward(Tensor(np.zeros((24, 2))))
        npt.assert_array_equal(out.data, np.zeros((8, 2)))

    def test_total_count_matches_closed_form(self):
        for kwargs in (dict(), dict(ablation_local_only=True),
                       dict(heads=4, e_l=2, d_l=2),
                       dict(seq_len=40, pred_len=12, l_comp=8)):
            cfg = tiny_config(**kwargs)
            model = ForecasterModel(cfg, seed=0)
            counter = OpCounter()
            model.forward(Tensor(np.random.default_rng(4).normal(
                size=(cfg.seq_len, 2))), counter)
            assert counter.score_elements == model.closed_form_score_elements()

    def test_ablation_flag_equals_frozen_beta(self):
        x = Tensor(np.random.default_rng(5).normal(size=(24, 2)))
        local_only = ForecasterModel(tiny_config(ablation_local_only=True), seed=3)
        with_global = ForecasterModel(tiny_config(), seed=3)
        # same seed, same parameter draws; beta starts at zero, so skipping
        # the global path entirely must not change the numbers
        out_a = local_only.encoder_forward(x)
        out_b = with_global.encoder_forward(x)
        assert np.abs(out_a.data - out_b.data).max() < 1e-12

    def test_decoder_causality_at_group_granularity(self):
        from gsaformer.gsa import gsa_forward
        cfg = tiny_config(seq_len=24, pred_len=8, label_len=8, l_g=4)
        model = ForecasterModel(cfg, seed=6)
        layer = model.decoder_layers[0]
        assert layer.gsa_cfg.causal and not layer.gsa_cfg.uses_global
        rng = np.random.default_rng(6)
        dec_in = rng.normal(size=(cfg.dec_len, cfg.d))   # 16 rows, groups of 4
        base = gsa_forward(Tensor(dec_in), layer.gsa, layer.gsa_cfg, OpCounter())
        bumped = dec_in.copy()
        bumped[6] += 0.5   # group 1 (rows 4..7)
        out = gsa_forward(Tensor(bumped), layer.gsa, layer.gsa_cfg, OpCounter())
        diff = np.abs(out.data - base.data).max(axis=1)
        assert diff[:4].max() < 1e-12          # group 0 untouched
        assert diff[4:8].max() > 0             # perturbed group changes
        assert diff[8:].max() < 1e-12          # later groups untouched

    @settings(max_examples=40, deadline=None)
    @given(decoder_cases())
    def test_causal_no_leak_through_the_whole_decoder(self, case):
        cfg, t, seed = case
        model = ForecasterModel(cfg, seed=seed)
        rng = np.random.default_rng(seed)
        enc_out = Tensor(rng.normal(size=(cfg.seq_len, cfg.d)))
        stream = rng.normal(size=(cfg.dec_len, cfg.d))

        def decoder(rows):
            h = Tensor(rows)
            for layer in model.decoder_layers:
                for block in layer.blocks(layer.memory(enc_out), OpCounter()):
                    h = block(h)
            return h.data

        base = decoder(stream)
        stream[t] += rng.uniform(-10.0, 10.0, size=cfg.d)
        assert decoder(stream)[:t].tobytes() == base[:t].tobytes()


@st.composite
def bypass_cases(draw):
    """A small model whose CCA reads the whole encoder output (seq_len <=
    l_comp), with 1-2 decoder layers, and a seed."""
    heads = draw(st.sampled_from([1, 2]))
    seq_len = draw(st.integers(1, 12))
    l_g = draw(st.integers(2, 5))
    cfg = ModelConfig(seq_len=seq_len, pred_len=draw(st.integers(1, 8)),
                      label_len=draw(st.integers(0, seq_len)),
                      n_features_in=2, n_features_out=2, d=heads * draw(st.integers(1, 3)),
                      heads=heads, e_l=draw(st.integers(0, 1)), d_l=draw(st.integers(1, 2)),
                      l_g=l_g, l_s=draw(st.integers(1, l_g - 1)),
                      l_comp=draw(st.integers(seq_len, 2 * seq_len)),
                      ffn_hidden=draw(st.integers(1, 6)))
    return cfg, draw(st.integers(0, 2 ** 16))


def attention_over_the_encoder_output(h, enc_out, cca, heads, counter):
    """CCA without compression, composed from separate tape ops."""
    q, k, v = (broadcast_add(matmul(src, w), b) for src, w, b in
               ((h, cca.w_q, cca.b_q), (enc_out, cca.w_k, cca.b_k), (enc_out, cca.w_v, cca.b_v)))
    return broadcast_add(matmul(loop_multi_head_attention(q, k, v, heads, counter), cca.w_o),
                         cca.b_o)


class TestCcaBypass:
    @settings(max_examples=30)
    @given(bypass_cases())
    def test_decoder_equals_attention_over_the_uncompressed_encoder_output(self, case):
        cfg, seed = case
        model = ForecasterModel(cfg, seed=seed)
        assert all(layer.cca.c is None for layer in model.decoder_layers)
        rng = np.random.default_rng(seed)
        for p in model.parameters().values():
            p.data = rng.normal(size=p.shape)
        x = Tensor(rng.normal(size=(cfg.seq_len, 2)))
        y = Tensor(rng.normal(size=(cfg.pred_len, 2)))

        def reference(counter):
            enc_out = model.encoder_forward(x, counter)
            h = model._embed(build_decoder_input(x, cfg))
            for layer in model.decoder_layers:
                h = layer.norm1(h, gsa_forward(h, layer.gsa, layer.gsa_cfg, counter))
                h = layer.norm2(h, attention_over_the_encoder_output(h, enc_out, layer.cca,
                                                                     cfg.heads, counter))
                h = layer.norm3(h, layer.ffn(h))
            return model.head(slice_rows(h, cfg.label_len, cfg.dec_len)
                              if cfg.label_len > 0 else h)

        runs = []
        for forward in (lambda counter: model.forward(x, counter), reference):
            counter = OpCounter()
            for p in model.parameters().values():
                p.grad = None
            with ComputationTape() as tape:
                pred = forward(counter)
                loss = mse_loss(pred, y)
            backward(loss, tape)
            runs.append((pred.data, counter.score_elements,
                         {n: p.grad for n, p in model.parameters().items()}))
        (pred, count, grads), (ref_pred, ref_count, ref_grads) = runs
        npt.assert_array_equal(pred, ref_pred)
        assert count == ref_count == model.closed_form_score_elements()
        for name, g in grads.items():
            npt.assert_array_equal(g, ref_grads[name], err_msg=name)


def untaped_forward_peak(cfg):
    """tracemalloc's peak over one untaped forward of a fresh model, in
    l-by-d arrays."""
    model = ForecasterModel(cfg, seed=0)
    x = Tensor(np.random.default_rng(0).normal(size=(cfg.seq_len, cfg.n_features_in)))
    tracemalloc.start()
    try:
        model.forward(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (cfg.seq_len * cfg.d * 8)


class TestForwardMemory:
    def test_untaped_forward_holds_a_few_full_width_arrays(self):
        # the encoder output is dropped once compressed, a block's input
        # once the next block has it, every op works in row tiles and each
        # block's norm writes over its sublayer's output: the peak is under
        # 4 l-by-d arrays (3.75; it read 8 when every op held whole-length
        # temporaries, and 4.5 when each sublayer still made whole-length
        # intermediates)
        cfg = model_config_for("grouped", 1440, BenchConfig(d=128, ffn_hidden=128))
        assert untaped_forward_peak(cfg) < 4

    def test_untaped_bench_forward_holds_its_input_its_output_and_tiles(self):
        # at the bench width a block holds its input, its output and one
        # row tile of its sublayer, plus the decoder's compressed memories:
        # under 3 l-by-d arrays (2.76; 3.6 when each sublayer still made
        # whole-length intermediates)
        assert untaped_forward_peak(model_config_for("grouped", 2880, BenchConfig())) < 3


class TestCheckpoint:
    def test_roundtrip_bit_identical_predictions(self, tmp_path):
        cfg = tiny_config()
        model = ForecasterModel(cfg, seed=8)
        x = Tensor(np.random.default_rng(8).normal(size=(24, 2)))
        before = model.forward(x).data.copy()
        path = tmp_path / "model.ckpt"
        model.save(path)
        restored = ForecasterModel(cfg, seed=99)   # different init
        restored.load(path)
        after = restored.forward(x).data
        npt.assert_array_equal(before, after)

    def test_registry_covers_everything_once(self):
        model = ForecasterModel(tiny_config(e_l=2, d_l=2), seed=9)
        params = model.parameters()
        ids = [id(p) for p in params.values()]
        assert len(ids) == len(set(ids))
        # mutating any registry tensor must change the next forward
        x = Tensor(np.random.default_rng(9).normal(size=(24, 2)))
        base = model.forward(x).data.copy()
        params["embed.w"].data += 0.1
        assert np.abs(model.forward(x).data - base).max() > 0

    def test_mismatched_checkpoint_rejected(self, tmp_path):
        model = ForecasterModel(tiny_config(), seed=10)
        path = tmp_path / "model.ckpt"
        model.save(path)
        other = ForecasterModel(tiny_config(e_l=2), seed=10)
        with pytest.raises(ConfigError):
            other.load(path)

    @pytest.mark.parametrize("shape", [(16, 2), (2, 4, 4)], ids=["transposed", "three-axis"])
    def test_wrong_shape_rejected_naming_file_and_entry(self, tmp_path, shape):
        model = ForecasterModel(tiny_config(), seed=10)      # embed.w is (2, 16)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {**model.parameters(), "embed.w": np.zeros(shape)})
        with pytest.raises(ConfigError) as err:
            model.load(path)
        assert str(path) in str(err.value) and f"embed.w: {shape} vs (2, 16)" in str(err.value)

    @pytest.mark.parametrize("name, value, entry", [
        ("head.w", np.zeros((2, 16)), "head.w: (2, 16) vs (16, 2)"),
        ("head.b", None, "missing=['head.b']"),
        ("stray", np.zeros((1, 1)), "extra=['stray']"),
    ], ids=["last-entry-shape", "missing-parameter", "extra-entry"])
    def test_mismatch_named_before_any_parameter_is_set(self, tmp_path, name, value, entry):
        model = ForecasterModel(tiny_config(), seed=10)
        path = tmp_path / "model.ckpt"
        arrays = {n: p.data + 1.0 for n, p in model.parameters().items() if n != name}
        if value is not None:               # None: the entry is left out
            arrays[name] = value
        save_checkpoint(path, arrays)
        before = {n: p.data for n, p in model.parameters().items()}
        with pytest.raises(ConfigError) as err:
            model.load(path)
        assert str(path) in str(err.value) and entry in str(err.value)
        assert all(p.data is before[n] for n, p in model.parameters().items())

    def test_old_layout_with_unused_tensors_rejected(self, tmp_path):
        model = ForecasterModel(tiny_config(), seed=10)
        path = tmp_path / "old.ckpt"
        save_checkpoint(path, old_layout_arrays(model))
        with pytest.raises(ConfigError) as err:
            model.load(path)
        message = str(err.value)
        assert str(path) in message
        assert "'dec0.gsa.e_q'" in message and "'dec0.cca.c'" in message


# the verbs' configs: train's defaults with 2 synthetic features, its local-only
# ablation, the bench's train_long at L=1440 and the tiny gradcheck preset
TRAIN_DEFAULTS = dict(seq_len=96, pred_len=24, n_features_in=2, n_features_out=2)
NARROW_BENCH = BenchConfig(d=8, heads=2, ffn_hidden=8, n_features=2)
GRADIENT_CONFIGS = {
    "train": ModelConfig(**TRAIN_DEFAULTS),
    "train_local_only": ModelConfig(**TRAIN_DEFAULTS, ablation_local_only=True),
    "train_long": model_config_for("grouped", 1440, NARROW_BENCH),
    "gradcheck_tiny": ModelConfig(**GRADCHECK_PRESETS["tiny"]),
}


class TestEveryParameterReachesTheLoss:
    @pytest.mark.parametrize("name", sorted(GRADIENT_CONFIGS))
    def test_one_backward_gives_every_parameter_a_gradient(self, name):
        cfg = GRADIENT_CONFIGS[name]
        model = ForecasterModel(cfg, seed=0)
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(cfg.seq_len, cfg.n_features_in)))
        y = Tensor(rng.normal(size=(cfg.pred_len, cfg.n_features_out)))
        with ComputationTape() as tape:
            backward(mse_loss(model.forward(x), y), tape)
        missing = [n for n, p in model.parameters().items() if p.grad is None]
        assert missing == []

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", sorted(GRADIENT_CONFIGS))
    def test_only_the_key_biases_softmax_cancels_get_rounding_noise(self, name, seed):
        # a key bias that every key of a softmax row carries shifts that row's
        # scores alike, so only rounding noise (~1e-17) reaches it: every
        # decoder GSA and CCA b_k, and the encoder GSA b_k unless a global
        # path reads it (its summary keys mix rows, so carry b_k unequally)
        cfg = GRADIENT_CONFIGS[name]
        model = ForecasterModel(cfg, seed=seed)
        rng = np.random.default_rng(seed)
        for p in model.parameters().values():       # every parameter off its init
            p.data += rng.uniform(-0.1, 0.1, p.shape)
        x = Tensor(rng.normal(size=(cfg.seq_len, cfg.n_features_in)))
        y = Tensor(rng.normal(size=(cfg.pred_len, cfg.n_features_out)))
        with ComputationTape() as tape:
            backward(mse_loss(model.forward(x), y), tape)
        noise_only = {n for n, p in model.parameters().items() if np.abs(p.grad).max() < 1e-12}
        expected = {f"dec{i}.{attn}.b_k" for i in range(cfg.d_l) for attn in ("gsa", "cca")}
        if cfg.ablation_local_only:
            expected |= {f"enc{i}.gsa.b_k" for i in range(cfg.e_l)}
        assert noise_only == expected

    def test_narrow_bench_has_the_bench_parameter_names(self):
        # width changes no parameter's existence, so the narrow model above
        # stands for the full-width train_long model
        full = ForecasterModel(model_config_for("grouped", 1440, BenchConfig()))
        narrow = ForecasterModel(GRADIENT_CONFIGS["train_long"])
        assert list(full.parameters()) == list(narrow.parameters())

    def test_unused_paths_allocate_nothing(self):
        model = ForecasterModel(ModelConfig(**TRAIN_DEFAULTS), seed=0)
        names = model.parameters()
        assert "enc0.gsa.e_q" in names and "enc0.gsa.beta" in names
        causal_unused = {f"dec0.gsa.{n}" for n in ("e_q", "e_k", "e_v", "alpha", "beta")}
        assert not causal_unused & names.keys()
        # seq_len 96 <= l_comp 256: no compression
        assert "dec0.cca.c" not in names


PROJECTIONS = ["w_q", "w_k", "w_v", "w_o", "b_q", "b_k", "b_v", "b_o"]
GLOBAL_PATH = ["e_q", "e_k", "e_v", "alpha", "beta"]
FFN = ["ffn.lin1.w", "ffn.lin1.b", "ffn.lin2.w", "ffn.lin2.b"]


def train_parameter_names(encoder_gsa):
    """The checkpoint names of the default train model (3+3 layers, no
    compression matrix), in order, given the encoder GSA tensor names."""
    names = ["embed.w", "embed.b"]
    for i in range(3):
        names += [f"enc{i}.gsa.{n}" for n in encoder_gsa]
        names += [f"enc{i}.{n}" for n in ["norm1.g", "norm1.b", *FFN, "norm2.g", "norm2.b"]]
    for i in range(3):
        names += [f"dec{i}.gsa.{n}" for n in PROJECTIONS]
        names += [f"dec{i}.{n}" for n in ["norm1.g", "norm1.b",
                                            *(f"cca.{p}" for p in PROJECTIONS),
                                            "norm2.g", "norm2.b", *FFN,
                                            "norm3.g", "norm3.b"]]
    return names + ["head.w", "head.b"]


class TestParameterNames:
    """Checkpoints are keyed by these names, so their order is pinned."""

    def test_train_default_names_in_order(self):
        names = list(ForecasterModel(GRADIENT_CONFIGS["train"]).parameters())
        assert len(names) == 145
        assert names == train_parameter_names(PROJECTIONS + GLOBAL_PATH)

    def test_train_local_only_names_in_order(self):
        names = list(ForecasterModel(GRADIENT_CONFIGS["train_local_only"]).parameters())
        assert len(names) == 130
        assert names == train_parameter_names(PROJECTIONS)


class TestTapeNodes:
    def test_train_long_step_records_one_node_per_projection_and_attention(self):
        # one train_long window at narrow width: forward, loss and the batch
        # scaling of training.train; each sublayer is one node
        cfg = GRADIENT_CONFIGS["train_long"]
        model = ForecasterModel(cfg, seed=0)
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(cfg.seq_len, cfg.n_features_in)))
        y = Tensor(rng.normal(size=(cfg.pred_len, cfg.n_features_out)))
        with ComputationTape() as tape:
            multiply(mse_loss(model.forward(x), y), 1.0)
        counts = Counter(name for name, _, _ in tape._nodes)
        assert counts == {
            "linear": 3,                # 2 embeds with their position add, the head
            "layer_norm": 15,           # each with its residual add
            "grouped_attention": 6,     # with its output projection
            "feed_forward": 6,
            "matmul": 3,                # CCA compression
            "cca": 3,
            "mse_loss": 1, "multiply": 1}   # the loss, the batch scaling
        assert len(tape) == 38

    def test_replay_drops_every_op_output_gradient_and_keeps_the_leaves(self):
        # a default train step: forward, loss, batch scaling and backward
        cfg = GRADIENT_CONFIGS["train"]
        model = ForecasterModel(cfg, seed=0)
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(cfg.seq_len, cfg.n_features_in)))
        y = Tensor(rng.normal(size=(cfg.pred_len, cfg.n_features_out)))
        with ComputationTape() as tape:
            loss = multiply(mse_loss(model.forward(x), y), 1.0 / 16)
            outputs = [(name, out) for name, out, _ in tape._nodes]
            backward(loss, tape)
        assert len(outputs) == 36
        assert [name for name, out in outputs if out.grad is not None] == []
        assert [n for n, p in model.parameters().items() if p.grad is None] == []

    def test_nothing_a_rule_saved_outlives_backward(self):
        # the tape object lives on, as it does across the windows of a batch
        cfg = GRADIENT_CONFIGS["train_long"]
        model = ForecasterModel(cfg, seed=0)
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(cfg.seq_len, cfg.n_features_in)))
        y = Tensor(rng.normal(size=(cfg.pred_len, cfg.n_features_out)))
        leaves = {id(t.data) for t in (x, y, *model.parameters().values())}
        with ComputationTape() as tape:
            pred = model.forward(x)
            loss = multiply(mse_loss(pred, y), 1.0)
            saved = _saved_array_refs(tape, leaves)
            backward(loss, tape)
        del pred, loss
        assert len(saved) > 38      # more arrays than nodes
        assert [name for name, ref in saved if ref() is not None] == []

    def test_no_value_that_no_rule_reads_outlives_the_forward(self, monkeypatch):
        # the residual branches the norms add and every array a fused
        # sublayer makes on the way (the embeddings, the FFN's hidden
        # activations, GSA's merged head outputs, CCA's Q, K, V and
        # attended rows) are read only by the forward, or rebuilt by the
        # backward, so a recorded forward must not keep them
        refs = []

        def spy(module, name, picks):
            op = getattr(module, name)

            def wrapped(*args, **kwargs):
                out = op(*args, **kwargs)
                refs.extend((name, weakref.ref(_root(a))) for a in picks(out, *args))
                return out
            monkeypatch.setattr(module, name, wrapped)

        # an affine given an array to write into returns a view of it: of
        # the op's output, whose root the next norm writes over
        spy(model_module, "layer_norm", lambda out, x, f, gain, bias: [f.data])
        spy(tensor_module, "affine", lambda out, x, w, b, *into: [out])   # linear, feed_forward
        spy(gsa_module, "affine", lambda out, x, w, b: [out, x])    # x: the merged outputs
        spy(cca_module, "affine", lambda out, x, w, b, *into: [out])
        spy(cca_module, "multi_head_rows", lambda out, *args: [out])
        cfg = GRADIENT_CONFIGS["train_long"]
        # the encoder and the decoder are cut into the same row tiles, for
        # every op (GSA's tiles of whole groups too), CCA's queries into
        # half tiles
        tiles = len(row_tiles(cfg.seq_len, tile_rows()))
        cca_tiles = len(row_tiles(cfg.seq_len, tile_rows(half=True)))
        assert cfg.dec_len == cfg.seq_len and tiles > 1
        assert len(row_tiles(cfg.seq_len, tile_rows(cfg.l_g))) == tiles
        model = ForecasterModel(cfg, seed=0)
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(cfg.seq_len, cfg.n_features_in)))
        y = Tensor(rng.normal(size=(cfg.pred_len, cfg.n_features_out)))
        with ComputationTape() as tape:
            loss = multiply(mse_loss(model.forward(x), y), 1.0)
            # affine: 2 embeds and the head; per tile 2 per FFN and 1 (2
            # refs) per GSA; per CCA K, V and 2 per half tile
            assert Counter(name for name, _ in refs) == {
                "layer_norm": 15,
                "affine": 3 + tiles * (2 * 6 + 2 * 6) + 3 * (2 + 2 * cca_tiles),
                "multi_head_rows": 3 * cca_tiles}
            assert [name for name, ref in refs if ref() is not None] == []
            backward(loss, tape)
        assert [n for n, p in model.parameters().items() if p.grad is None] == []

    @pytest.mark.parametrize("name", ["train_long", "train"])   # compressed, bypass CCA
    def test_no_norm_output_outlives_the_forward(self, name, monkeypatch):
        # the FFN, CCA (its queries, or its memory when it reads the encoder
        # output uncompressed) or compression, the next GSA layer and the
        # head read a norm's output in their backward; each holds the
        # output's recipe, not its values
        refs = []
        op = model_module.layer_norm

        def wrapped(*args, **kwargs):
            out = op(*args, **kwargs)
            refs.append(weakref.ref(out.data))
            return out
        monkeypatch.setattr(model_module, "layer_norm", wrapped)
        cfg = GRADIENT_CONFIGS[name]
        model = ForecasterModel(cfg, seed=0)
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(cfg.seq_len, cfg.n_features_in)))
        y = Tensor(rng.normal(size=(cfg.pred_len, cfg.n_features_out)))
        with ComputationTape() as tape:
            loss = multiply(mse_loss(model.forward(x), y), 1.0)
            assert len(refs) == 15
            assert [i for i, ref in enumerate(refs) if ref() is not None] == []
            backward(loss, tape)
        assert [n for n, p in model.parameters().items() if p.grad is None] == []


def _reachable_arrays(value):
    """Every ndarray value reaches: itself, a Tensor's values and whatever
    its recipe holds, the items of a list or tuple, the tensors of a
    ParameterSet and, for a function, whatever its closure holds.  Gradient
    slots hold no values."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, Tensor):
        yield value.data
        yield from _reachable_arrays(value.recipe)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _reachable_arrays(item)
    elif isinstance(value, ParameterSet):
        yield from _reachable_arrays(tuple(value.named().values()))
    elif isinstance(value, types.FunctionType):
        for cell in value.__closure__ or ():
            try:
                contents = cell.cell_contents
            except ValueError:      # a variable the op never set on this path
                continue
            yield from _reachable_arrays(contents)


def _saved_array_refs(tape, leaves):
    """(op name, weak reference) for every array a node's rule reaches,
    leaving out the arrays whose ids are in leaves.  A node holds only its
    output's gradient slot and its rule, so these are the arrays it keeps."""
    return [(name, weakref.ref(a)) for name, _, rule in tape._nodes
            for a in _reachable_arrays(rule) if id(a) not in leaves]


def _root(a):
    """The array that owns a's memory."""
    while a.base is not None:
        a = a.base
    return a


class TestAttentionRulesHoldOnlyWhatTheyCannotRebuild:
    """Each sublayer is one op that rebuilds its projections, hidden
    activations and attention probabilities in the backward, so its rule
    keeps nothing an input does not own."""

    SUBLAYERS = ("linear", "grouped_attention", "cca", "feed_forward")

    @pytest.mark.parametrize("name", ["train_long", "train"])   # compressed, bypass CCA
    def test_every_array_a_rule_reaches_is_an_input_or_a_view_of_one(self, name, monkeypatch):
        calls = []

        def spy(module, op_name, inputs_of, tape_name=None):
            op = getattr(module, op_name)

            def wrapped(*args, **kwargs):
                calls.append((tape_name or op_name, inputs_of(*args)))
                return op(*args, **kwargs)
            monkeypatch.setattr(module, op_name, wrapped)

        spy(model_module, "linear", lambda x, w, b, shift=None: (x, w, b, shift))
        spy(model_module, "gsa_forward", lambda x, params, cfg, counter, real_len=None: (
            x, params), tape_name="grouped_attention")
        spy(model_module, "cca_forward", lambda h_dec, memory, params, counter: (
            h_dec, memory, params), tape_name="cca")
        spy(model_module, "feed_forward", lambda *args: args)
        cfg = GRADIENT_CONFIGS[name]
        model = ForecasterModel(cfg, seed=0)
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(cfg.seq_len, cfg.n_features_in)))
        y = Tensor(rng.normal(size=(cfg.pred_len, cfg.n_features_out)))
        with ComputationTape() as tape:
            loss = multiply(mse_loss(model.forward(x), y), 1.0)
            rules = [(op, rule) for op, _, rule in tape._nodes if op in self.SUBLAYERS]
            assert [op for op, _ in rules] == [op for op, _ in calls]
            assert len(rules) == 3 + 2 * cfg.e_l + 3 * cfg.d_l
            for (op, rule), (_, inputs) in zip(rules, calls):
                owners = {id(_root(a)) for a in _reachable_arrays(inputs)}
                held = [a.shape for a in _reachable_arrays(rule) if id(_root(a)) not in owners]
                assert held == [], op
            backward(loss, tape)

    @pytest.mark.parametrize("overrides", [
        dict(seq_len=48, l_comp=16),            # compressed CCA
        dict(),                                 # bypass CCA: seq_len <= l_comp
        dict(ablation_local_only=True),
    ])
    def test_backward_recomputes_every_score_element_it_does_not_hold(self, overrides):
        cfg = tiny_config(**overrides)
        model = ForecasterModel(cfg, seed=0)
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(cfg.seq_len, cfg.n_features_in)))
        y = Tensor(rng.normal(size=(cfg.pred_len, cfg.n_features_out)))
        counter = OpCounter()
        model.forward(x, counter)
        assert counter.recomputed_score_elements == 0
        with ComputationTape() as tape:
            backward(mse_loss(model.forward(x, counter), y), tape)
        closed_form = model.closed_form_score_elements()
        assert counter.score_elements == 2 * closed_form
        assert counter.recomputed_score_elements == closed_form


class TestConfigFile:
    def test_text_roundtrip(self):
        cfg = ModelConfig(seq_len=30, pred_len=6, n_features_in=3,
                          n_features_out=1, d=12, heads=3, e_l=2, d_l=1,
                          l_g=10, l_s=3, l_comp=20, label_len=5,
                          ffn_hidden=24, ablation_local_only=True)
        defaults = ModelConfig(seq_len=1, pred_len=1, n_features_in=2,
                               n_features_out=2)
        assert all(getattr(cfg, f.name) != getattr(defaults, f.name)
                   for f in fields(ModelConfig))
        text = model_config_to_text(cfg)
        parsed = config_from_mapping(ModelConfig, dict(
            line.split("=", 1) for line in text.strip().splitlines()))
        assert parsed == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            config_from_mapping(ModelConfig, {"seq_len": "8", "pred_len": "2",
                                              "n_features_in": "1",
                                              "n_features_out": "1",
                                              "bogus": "1"})


class TestShapeRules:
    @pytest.mark.parametrize("setting", [
        {"d": 0, "heads": 1}, {"l_g": 0}, {"l_comp": 0}, {"ffn_hidden": 0},
        {"e_l": -1}, {"d_l": -1}, {"heads": 0}, {"heads": 3}, {"l_s": 0}, {"l_s": 8},
    ], ids=["d=0", "l_g=0", "l_comp=0", "ffn_hidden=0", "e_l=-1", "d_l=-1",
            "heads=0", "heads=3", "l_s=0", "l_s=l_g"])
    def test_bad_setting_rejected_at_construction_naming_it(self, setting):
        name = next(iter(setting))
        with pytest.raises(ConfigError, match=name):
            tiny_config(**setting)

    def test_zero_layers_allowed(self):
        assert tiny_config(e_l=0, d_l=0).e_l == 0

    # the lengths are checked before label_len is resolved from seq_len
    @pytest.mark.parametrize("setting, named", [
        ({"seq_len": -5}, "seq_len=-5"), ({"seq_len": 0}, "seq_len=0"),
        ({"seq_len": -5, "label_len": 0}, "seq_len=-5"), ({"pred_len": -1}, "pred_len=-1"),
    ])
    def test_bad_length_rejected_naming_it(self, setting, named):
        with pytest.raises(ConfigError, match=named):
            tiny_config(**setting)


class TestPositionalTable:
    def test_first_row_is_sin_zero_cos_zero(self):
        table = sinusoidal_table(4, 6)
        npt.assert_allclose(table[0, 0::2], 0.0, atol=1e-15)
        npt.assert_allclose(table[0, 1::2], 1.0, atol=1e-15)

    def test_values_bounded(self):
        table = sinusoidal_table(512, 32)
        assert np.abs(table).max() <= 1.0
