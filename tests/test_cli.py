from dataclasses import fields

import pytest

from helpers import old_layout_arrays

from gsaformer.benchmark import BenchConfig
from gsaformer.cli import build_parser, config_from_mapping, main
from gsaformer.data import DataConfig, load_csv
from gsaformer.gsa import ConfigError
from gsaformer.model import ForecasterModel, ModelConfig, model_config_to_text
from gsaformer.tensor import save_checkpoint
from gsaformer.training import TrainConfig


def run(argv):
    return main(argv)


class TestBenchVerb:
    def test_writes_csv_with_four_rows(self, tmp_path, capsys):
        code = run(["bench", "--lengths", "32,64",
                    "--mechanisms", "grouped,canonical",
                    "--no-timing", "--out", str(tmp_path),
                    "--set", "d=8", "--set", "heads=1", "--set", "e_l=1",
                    "--set", "d_l=1", "--set", "l_g=16", "--set", "l_s=2",
                    "--set", "l_comp=8", "--set", "ffn_hidden=8"])
        assert code == 0
        lines = (tmp_path / "bench.csv").read_text().strip().splitlines()
        assert len(lines) == 5   # header + 4 data rows

    def test_unknown_mechanism_is_usage_error(self, tmp_path, capsys):
        code = run(["bench", "--mechanisms", "probsparse", "--out", str(tmp_path)])
        assert code == 1
        assert "probsparse" in capsys.readouterr().err

    def test_non_integer_length_is_usage_error(self, tmp_path, capsys):
        code = run(["bench", "--lengths", "32,abc", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "--lengths" in err and "'abc'" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_min_cell_seconds_is_usage_error_before_making_out(self, tmp_path, capsys,
                                                                   value):
        out = tmp_path / "run"
        code = run(["bench", "--min-cell-seconds", value, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "--min-cell-seconds" in err and repr(value) in err
        assert not out.exists()

    # a repeated value would run its cells once per copy and write each row twice
    @pytest.mark.parametrize("flag, value", [("--lengths", "64,32,64"),
                                             ("--mechanisms", "grouped,grouped")])
    def test_repeated_value_is_usage_error_before_making_out(self, tmp_path, capsys,
                                                             flag, value):
        out = tmp_path / "run"
        code = run(["bench", flag, value, "--no-timing", "--out", str(out)])
        assert code == 1
        assert f"{flag} names a value twice" in capsys.readouterr().err
        assert not out.exists()

    def test_non_positive_length_exits_2_naming_it_before_making_out(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run(["bench", "--lengths", "-5", "--no-timing", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "seq_len=-5" in err and "label_len" not in err
        assert not out.exists()


class TestTrainVerb:
    def test_missing_config_names_path(self, tmp_path, capsys):
        code = run(["train", "--config", "missing.cfg", "--out", str(tmp_path)])
        assert code == 1
        assert "missing.cfg" in capsys.readouterr().err

    def test_synthetic_training_run(self, tmp_path, capsys):
        code = run(["train", "--out", str(tmp_path), "--seed", "1",
                    "--set", "epochs=1", "--set", "max_iterations=3",
                    "--set", "d=8", "--set", "heads=1", "--set", "e_l=1",
                    "--set", "d_l=1", "--set", "ffn_hidden=8",
                    "--set", "seq_len=32", "--set", "pred_len=8",
                    "--set", "l_g=16", "--set", "l_s=2",
                    "--set", "synth_rows=400", "--set", "batch_size=4"])
        assert code == 0
        assert (tmp_path / "history.csv").exists()
        assert (tmp_path / "final.ckpt").exists()
        assert (tmp_path / "best.ckpt").exists()
        assert (tmp_path / "model.cfg").exists()

    def test_out_of_range_optimizer_setting_exits_2_writing_nothing(self, tmp_path, capsys):
        code = run(["train", "--out", str(tmp_path), "--set", "beta1=1",
                    "--set", "max_iterations=1", "--set", "split_train=0.8",
                    "--set", "split_val=0", "--set", "split_test=0.2"])
        assert code == 2
        assert "beta1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    # a negative count, a model that forecasts nothing, or a feature count
    # the series sets
    @pytest.mark.parametrize("setting", ["epochs=-1", "patience=-1", "pred_len=0",
                                         "n_features_in=3", "n_features_out=1"])
    def test_rejected_setting_exits_2_before_making_out(self, tmp_path, capsys, setting):
        out = tmp_path / "run"
        code = run(["train", "--out", str(out), "--set", setting])
        assert code == 2
        assert setting.split("=")[0] in capsys.readouterr().err
        assert not out.exists()

    def test_negative_split_ratio_exits_2_naming_it_before_making_out(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run(["train", "--out", str(out), "--set", "split_train=0.9",
                    "--set", "split_val=-0.1"])
        assert code == 2
        assert "val split ratio must be >= 0, got -0.1" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_train_split_exits_2_naming_it_before_making_out(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run(["train", "--out", str(out), "--set", "split_train=0",
                    "--set", "split_val=0.2", "--set", "split_test=0.8"])
        assert code == 2
        assert "train split ratio must be > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_csv_cell_exits_2_naming_it_before_making_out(self, tmp_path, capsys):
        csv_path = tmp_path / "gap.csv"
        rows = [f"d{i},{i * 0.5},{i * 0.25}" for i in range(600)]
        rows[41] = "d41,nan,10.25"
        csv_path.write_text("\n".join(["date,HUFL,OT"] + rows) + "\n", encoding="utf-8")
        out = tmp_path / "run"
        code = run(["train", "--csv", str(csv_path), "--out", str(out),
                    "--set", "seq_len=32", "--set", "pred_len=8"])
        assert code == 2
        err = capsys.readouterr().err
        assert str(csv_path) in err and "row 43" in err and "'HUFL'" in err
        assert not out.exists()

    def test_unknown_set_key_rejected(self, tmp_path, capsys):
        code = run(["train", "--out", str(tmp_path), "--set", "nonsense=1"])
        assert code == 2
        assert "nonsense" in capsys.readouterr().err


class TestEvalVerb:
    def test_eval_after_train(self, tmp_path, capsys):
        train_args = ["train", "--out", str(tmp_path), "--seed", "1",
                      "--set", "epochs=1", "--set", "max_iterations=2",
                      "--set", "d=8", "--set", "heads=1", "--set", "e_l=1",
                      "--set", "d_l=1", "--set", "ffn_hidden=8",
                      "--set", "seq_len=32", "--set", "pred_len=8",
                      "--set", "l_g=16", "--set", "l_s=2",
                      "--set", "synth_rows=400", "--set", "batch_size=4"]
        assert run(train_args) == 0
        code = run(["eval", "--checkpoint", str(tmp_path / "best.ckpt"),
                    "--out", str(tmp_path), "--seed", "1",
                    "--set", "synth_rows=400"])
        assert code == 0
        out = capsys.readouterr().out
        assert "test_mse=" in out
        assert (tmp_path / "eval.csv").exists()

    @staticmethod
    def _saved_model(tmp_path):
        cfg = ModelConfig(seq_len=32, pred_len=8, n_features_in=2, n_features_out=2,
                          d=8, heads=1, e_l=1, d_l=1, l_g=16, l_s=2, ffn_hidden=8)
        (tmp_path / "model.cfg").write_text(model_config_to_text(cfg), encoding="utf-8")
        return ForecasterModel(cfg, seed=1)

    def test_old_layout_checkpoint_fails_naming_it(self, tmp_path, capsys):
        ckpt = tmp_path / "best.ckpt"
        save_checkpoint(ckpt, old_layout_arrays(self._saved_model(tmp_path)))
        code = run(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path),
                    "--set", "synth_rows=400"])
        assert code == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "dec0.gsa.e_q" in err and "dec0.cca.c" in err

    def test_malformed_checkpoint_exits_2_naming_it(self, tmp_path, capsys):
        ckpt = tmp_path / "best.ckpt"
        self._saved_model(tmp_path).save(ckpt)
        blob = ckpt.read_bytes()
        magic_end = blob.index(b"\n") + 1
        ckpt.write_bytes(blob[:magic_end] + b"\n" + blob[magic_end:])   # a blank header line
        code = run(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path),
                    "--set", "synth_rows=400"])
        assert code == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "blank header line" in err
        assert not (tmp_path / "eval.csv").exists()

    def test_bad_model_cfg_key_names_the_file(self, tmp_path, capsys):
        ckpt = tmp_path / "best.ckpt"
        self._saved_model(tmp_path).save(ckpt)
        with open(tmp_path / "model.cfg", "a", encoding="utf-8") as fh:
            fh.write("pool_mode=mean\n")
        code = run(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path),
                    "--set", "synth_rows=400"])
        assert code == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "model.cfg") in err and "pool_mode" in err

    def test_zero_train_split_exits_2_naming_it_before_making_out(self, tmp_path, capsys):
        ckpt = tmp_path / "best.ckpt"
        self._saved_model(tmp_path).save(ckpt)
        out = tmp_path / "run"
        code = run(["eval", "--checkpoint", str(ckpt), "--out", str(out),
                    "--set", "split_train=0", "--set", "split_val=0.2",
                    "--set", "split_test=0.8"])
        assert code == 2
        assert "train split ratio must be > 0" in capsys.readouterr().err
        assert not out.exists()


class TestGradcheckVerb:
    def test_tiny_preset_all_under_tolerance(self, tmp_path, capsys):
        code = run(["gradcheck", "--preset", "tiny", "--out", str(tmp_path)])
        assert code == 0
        report = (tmp_path / "gradcheck_report.txt").read_text()
        assert "FAIL" not in report
        assert "gradcheck ok" in capsys.readouterr().out

    def test_unknown_preset(self, tmp_path, capsys):
        assert run(["gradcheck", "--preset", "huge", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("flag, value", [("--tolerance", "nan"), ("--tolerance", "0"),
                                             ("--epsilon", "0"), ("--epsilon", "inf")])
    def test_bad_epsilon_or_tolerance_exits_2_before_making_out(self, tmp_path, capsys,
                                                                flag, value):
        out = tmp_path / "run"
        code = run(["gradcheck", flag, value, "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert f"{flag[2:]} must be finite and > 0" in captured.err
        assert "gradcheck ok" not in captured.out
        assert not out.exists()


class TestSynthVerb:
    def test_writes_loadable_csv(self, tmp_path, capsys):
        code = run(["synth", "--kind", "sine_mix", "--rows", "100",
                    "--features", "3", "--out", str(tmp_path), "--seed", "9"])
        assert code == 0
        ts = load_csv(tmp_path / "synth.csv", "OT")
        assert ts.values.shape == (100, 3)


class TestDispatch:
    def test_no_verb_is_usage_error(self, capsys):
        assert run([]) == 1
        assert "train" in capsys.readouterr().err

    def test_unknown_verb_lists_choices(self, capsys):
        assert run(["dance"]) == 1
        err = capsys.readouterr().err
        assert "bench" in err

    @pytest.mark.parametrize("verb", ["train", "eval", "bench", "gradcheck", "synth"])
    def test_help_lists_flags(self, verb, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([verb, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--out" in out and "--seed" in out and "--set" in out

    def test_determinism_synth_byte_identical(self, tmp_path):
        blobs = []
        for i in range(2):
            out = tmp_path / f"run{i}"
            assert run(["synth", "--rows", "64", "--features", "2",
                        "--out", str(out), "--seed", "4"]) == 0
            blobs.append((out / "synth.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestConfigFile:
    def test_train_reads_config_file(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            "# toy setup\n"
            "seq_len=32\npred_len=8\nd=8\nheads=1\ne_l=1\nd_l=1\n"
            "ffn_hidden=8\nl_g=16\nl_s=2\n"
            "epochs=1\nmax_iterations=2\nbatch_size=4\nsynth_rows=400\n",
            encoding="utf-8")
        out = tmp_path / "out"
        assert run(["train", "--config", str(cfg_path), "--out", str(out),
                    "--seed", "2"]) == 0
        cfg_text = (out / "model.cfg").read_text()
        assert "seq_len=32" in cfg_text and "l_g=16" in cfg_text

    def test_set_overrides_config_file(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            "seq_len=32\npred_len=8\nd=8\nheads=1\ne_l=1\nd_l=1\n"
            "ffn_hidden=8\nl_g=16\nl_s=2\n"
            "epochs=1\nmax_iterations=2\nbatch_size=4\nsynth_rows=400\n",
            encoding="utf-8")
        out = tmp_path / "out"
        assert run(["train", "--config", str(cfg_path), "--out", str(out),
                    "--seed", "2", "--set", "l_g=8"]) == 0
        assert "l_g=8" in (out / "model.cfg").read_text()

    def test_config_file_unknown_key_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("mystery_knob=3\n", encoding="utf-8")
        assert run(["train", "--config", str(cfg_path),
                    "--out", str(tmp_path / "out")]) == 2
        assert "mystery_knob" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("seq_len 32\n", encoding="utf-8")
        assert run(["train", "--config", str(cfg_path),
                    "--out", str(tmp_path / "out")]) == 2


class TestSettingsReachTheVerb:
    TINY_BENCH = ["--lengths", "32", "--mechanisms", "grouped", "--no-timing",
                  "--set", "d=8", "--set", "heads=1", "--set", "e_l=1",
                  "--set", "d_l=1", "--set", "l_g=16", "--set", "l_s=2",
                  "--set", "l_comp=8", "--set", "ffn_hidden=8"]

    def test_synth_applies_synth_rows_and_features(self, tmp_path, capsys):
        assert run(["synth", "--out", str(tmp_path), "--set", "synth_rows=5",
                    "--set", "synth_features=3"]) == 0
        assert load_csv(tmp_path / "synth.csv", "OT").values.shape == (5, 3)

    def test_synth_flag_beats_setting(self, tmp_path, capsys):
        assert run(["synth", "--out", str(tmp_path), "--rows", "7",
                    "--set", "synth_rows=5"]) == 0
        assert load_csv(tmp_path / "synth.csv", "OT").values.shape[0] == 7

    def test_gradcheck_applies_local_only_ablation(self, tmp_path, capsys):
        assert run(["gradcheck", "--out", str(tmp_path),
                    "--set", "ablation_local_only=true"]) == 0
        report = (tmp_path / "gradcheck_report.txt").read_text().splitlines()
        # with the global path off, the layer has no summary projections
        assert any("enc0.gsa.w_q" in line for line in report)
        assert not any("enc0.gsa.e_q" in line for line in report)

    def test_bench_applies_label_len(self, tmp_path, capsys):
        counts = []
        for label_len in ("0", "5"):
            out = tmp_path / label_len
            assert run(["bench", "--out", str(out), "--set",
                        f"label_len={label_len}"] + self.TINY_BENCH) == 0
            row = (out / "bench.csv").read_text().splitlines()[1].split(",")
            assert row[2] == row[5]   # instrumented == closed form
            counts.append(int(row[2]))
        # 32 decoder rows fill two groups of 16; 37 need a third
        assert counts[1] > counts[0]

    @pytest.mark.parametrize("argv,key", [
        (["synth", "--set", "window_stride=2"], "window_stride"),
        (["bench", "--set", "epochs=2"], "epochs"),
        (["gradcheck", "--set", "batch_size=2"], "batch_size"),
        (["eval", "--checkpoint", "absent.ckpt", "--set", "d=8"], "d"),
        (["train", "--csv", "absent.csv", "--set", "synth_rows=5"], "synth_rows"),
        (["train", "--set", "target=OT"], "target"),
    ])
    def test_unused_set_key_rejected(self, argv, key, tmp_path, capsys):
        assert run(argv + ["--out", str(tmp_path)]) == 2
        assert f"does not use config key {key!r}" in capsys.readouterr().err

    def test_config_file_keys_for_other_verbs_skipped(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("epochs=3\nd=8\nsynth_rows=9\n", encoding="utf-8")
        assert run(["synth", "--config", str(cfg_path),
                    "--out", str(tmp_path)]) == 0
        assert load_csv(tmp_path / "synth.csv", "OT").values.shape[0] == 9

    @pytest.mark.parametrize("setting,field", [
        ("seq_len=abc", "seq_len"),
        ("patience=abc", "patience"),
        ("heads=0", "heads"),
        ("batch_size=0", "batch_size"),
        ("l_g=0", "l_g"),
        ("l_comp=0", "l_comp"),
    ])
    def test_bad_value_names_field(self, setting, field, tmp_path, capsys):
        assert run(["train", "--out", str(tmp_path), "--set", "synth_rows=200",
                    "--set", setting]) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err


class TestConfigFromMapping:
    @pytest.mark.parametrize("cfg", [
        ModelConfig(seq_len=30, pred_len=6, n_features_in=3, n_features_out=1,
                    d=12, heads=3, e_l=2, d_l=1, l_g=10, l_s=3, l_comp=20,
                    label_len=5, ffn_hidden=24, ablation_local_only=True),
        TrainConfig(learning_rate=0.25, batch_size=3, epochs=4, beta1=0.5,
                    beta2=0.75, epsilon=1e-6, seed=9, patience=2,
                    max_iterations=11, grad_clip=1.5, lr_decay=0.125),
        TrainConfig(patience=None, grad_clip=None),
        DataConfig(target="HUFL", split_train=0.5, split_val=0.25,
                   split_test=0.25, window_stride=3, synth_kind="white_noise",
                   synth_rows=40, synth_features=5),
    ], ids=["model", "train", "train-none", "data"])
    def test_every_field_parses_from_its_string_form(self, cfg):
        text = {f.name: str(getattr(cfg, f.name)) for f in fields(cfg)}
        assert config_from_mapping(type(cfg), text) == cfg

    def test_booleans_accept_the_usual_spellings(self):
        for raw, value in (("true", True), ("Yes", True), ("0", False), ("False", False)):
            assert config_from_mapping(BenchConfig, {"timing": raw}).timing is value

    @pytest.mark.parametrize("key,raw", [
        ("timing", "maybe"), ("seed", "1.5"), ("min_cell_seconds", "nan"),
    ])
    def test_bad_string_raises_config_error(self, key, raw):
        with pytest.raises(ConfigError, match=key):
            config_from_mapping(BenchConfig, {key: raw})

    def test_missing_required_field_named(self):
        with pytest.raises(ConfigError, match="n_features_in"):
            config_from_mapping(ModelConfig, {"seq_len": "8", "pred_len": "2",
                                              "n_features_out": "1"})
