from dataclasses import fields

import numpy as np
import numpy.testing as npt
import pytest

from gsaformer.attention import OpCounter
from gsaformer.cli import config_from_mapping
from gsaformer.gsa import ConfigError
from gsaformer.model import (
    ForecasterModel,
    ModelConfig,
    build_decoder_input,
    model_config_to_text,
    sinusoidal_table,
)
from gsaformer.tensor import Tensor


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
        cfg = ModelConfig(seq_len=4, pred_len=0, label_len=3,
                          n_features_in=1, n_features_out=1, d=4, heads=1,
                          l_g=2, l_s=1, e_l=1, d_l=1)
        x = Tensor(np.arange(4.0).reshape(4, 1))
        out = build_decoder_input(x, cfg)
        npt.assert_array_equal(out.data, [[1.0], [2.0], [3.0]])

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


class TestPositionalTable:
    def test_first_row_is_sin_zero_cos_zero(self):
        table = sinusoidal_table(4, 6)
        npt.assert_allclose(table[0, 0::2], 0.0, atol=1e-15)
        npt.assert_allclose(table[0, 1::2], 1.0, atol=1e-15)

    def test_values_bounded(self):
        table = sinusoidal_table(512, 32)
        assert np.abs(table).max() <= 1.0
