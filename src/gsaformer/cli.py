"""Single entry point dispatching to train, eval, bench, gradcheck, and
synth workflows.

Exit codes: 0 success, 1 usage error, 2 runtime failure.  Every output
lands under the --out directory.  GSA_LOG in {quiet, info, debug} controls
verbosity.
"""

from __future__ import annotations

import argparse
import csv
import logging
import math
import os
import sys
import typing
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from .benchmark import (
    MECHANISMS,
    BenchConfig,
    emit_csv_report,
    run_scaling_benchmark,
)
from .data import DataConfig, DataError, load_csv, make_windows, synthetic_series, write_csv
from .gsa import ConfigError
from .model import ForecasterModel, ModelConfig, model_config_to_text
from .tensor import Tensor
from .training import TrainConfig, evaluate, grad_check, mse_loss, train

log = logging.getLogger("gsaformer")


def _names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


_MODEL_KEYS = _names(ModelConfig)
_TRAIN_KEYS = _names(TrainConfig)
_DATA_KEYS = _names(DataConfig)
_SYNTH_KEYS = {"synth_kind", "synth_rows", "synth_features"}
_KNOWN_KEYS = _MODEL_KEYS | _TRAIN_KEYS | _DATA_KEYS
# model shape, label_len and seed: the BenchConfig fields that are settings
_BENCH_KEYS = _names(BenchConfig) & _KNOWN_KEYS


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def _setup_logging() -> None:
    level = {"quiet": logging.WARNING, "info": logging.INFO,
             "debug": logging.DEBUG}.get(os.environ.get("GSA_LOG", "info"), logging.INFO)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def read_config_file(path: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            mapping[key.strip()] = value.strip()
    return mapping


def _parse_value(key: str, kind, raw: str):
    """raw converted to kind: bool, int, float, str or Optional[one of them]."""
    if type(None) in typing.get_args(kind):
        if raw == "None":
            return None
        kind = typing.get_args(kind)[0]
    if kind is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
    elif kind in (int, float):
        try:
            value = kind(raw)
        except ValueError:
            pass
        else:
            if math.isfinite(value):
                return value
    else:
        return raw
    raise ConfigError(f"{key}: expected {kind.__name__}, got {raw!r}")


def config_from_mapping(cls, mapping: dict[str, str], **given):
    """The config dataclass cls built from key=value strings, each converted
    to its field's declared type; keyword arguments fill in fields the
    mapping does not set.  Unknown keys and missing required fields raise
    ConfigError."""
    types = typing.get_type_hints(cls)
    kwargs = dict(given)
    for key, raw in mapping.items():
        if key not in types:
            raise ConfigError(
                f"unknown {cls.__name__} key {key!r}; known: {sorted(types)}")
        kwargs[key] = _parse_value(key, types[key], raw)
    missing = [f.name for f in fields(cls) if f.name not in kwargs
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{cls.__name__} needs {missing}")
    return cls(**kwargs)


def _build(cls, mapping: dict[str, str], **given):
    """config_from_mapping over the keys of mapping that are fields of cls."""
    names = _names(cls)
    return config_from_mapping(cls, {k: v for k, v in mapping.items() if k in names},
                               **given)


def _data_keys(args) -> set[str]:
    """DataConfig keys of a verb that reads a series: target for a --csv
    file, the synth_* keys for synthetic data."""
    return _DATA_KEYS - (_SYNTH_KEYS if args.csv else {"target"})


def build_settings(args, used: set[str]) -> dict[str, str]:
    """The settings of the keys in used, from the config file and then the
    --set overrides.  An unknown key is an error, and so is a --set key the
    verb does not use; a config file may hold keys for other verbs, and
    those are skipped."""
    mapping: dict[str, str] = {}
    if args.config:
        if not Path(args.config).exists():
            raise UsageError(f"config file not found: {args.config}")
        mapping.update(read_config_file(args.config))
    overrides: dict[str, str] = {}
    for item in args.set or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    mapping.update(overrides)
    for key in mapping:
        if key not in _KNOWN_KEYS:
            raise ConfigError(
                f"unknown config key {key!r}; known keys: {sorted(_KNOWN_KEYS)}")
    for key in overrides:
        if key not in used:
            raise ConfigError(f"{args.verb} does not use config key {key!r} "
                              f"here; it uses: {sorted(used)}")
    return {k: v for k, v in mapping.items() if k in used}


def _load_series(args, data_cfg: DataConfig, seed: int):
    if args.csv:
        if not Path(args.csv).exists():
            raise UsageError(f"csv file not found: {args.csv}")
        return load_csv(args.csv, data_cfg.target)
    log.info("no --csv given; using synthetic %s series", data_cfg.synth_kind)
    return synthetic_series(data_cfg.synth_kind, data_cfg.synth_rows,
                            data_cfg.synth_features, seed)


def cmd_train(args) -> int:
    mapping = build_settings(args, _MODEL_KEYS | _TRAIN_KEYS | _data_keys(args))
    train_cfg = _build(TrainConfig, mapping, seed=args.seed)
    data_cfg = _build(DataConfig, mapping)
    series = _load_series(args, data_cfg, train_cfg.seed)
    n_features = series.values.shape[1]
    cfg = _build(ModelConfig, mapping, seq_len=96, pred_len=24,
                 n_features_in=n_features, n_features_out=n_features)
    train_set, val_set, _ = make_windows(series, cfg.seq_len, cfg.pred_len,
                                         split_ratios=data_cfg.split_ratios,
                                         stride=data_cfg.window_stride)
    log.info("training on %d windows, validating on %d", len(train_set), len(val_set))
    model = ForecasterModel(cfg, seed=train_cfg.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    history = train(model, train_set, train_cfg, val_set=val_set,
                    checkpoint_path=out / "best.ckpt")
    history.write_csv(out / "history.csv")
    model.save(out / "final.ckpt")
    (out / "model.cfg").write_text(model_config_to_text(cfg), encoding="utf-8")
    last = history.epochs[-1] if history.epochs else (0, math.nan, math.nan)
    print(f"trained {len(history.iteration_losses)} iterations; "
          f"final train_mse={last[1]:.6f} val_mse={last[2]:.6f}")
    return 0


def cmd_eval(args) -> int:
    mapping = build_settings(args, {"seed"} | _data_keys(args))
    train_cfg = _build(TrainConfig, mapping, seed=args.seed)
    data_cfg = _build(DataConfig, mapping)
    ckpt_dir = Path(args.checkpoint).parent
    cfg_path = Path(args.model_config) if args.model_config else ckpt_dir / "model.cfg"
    if not Path(args.checkpoint).exists():
        raise UsageError(f"checkpoint not found: {args.checkpoint}")
    if not cfg_path.exists():
        raise UsageError(f"model config not found: {cfg_path}")
    cfg = config_from_mapping(ModelConfig, read_config_file(cfg_path))
    model = ForecasterModel(cfg, seed=train_cfg.seed)
    model.load(args.checkpoint)
    series = _load_series(args, data_cfg, train_cfg.seed)
    _, _, test_set = make_windows(series, cfg.seq_len, cfg.pred_len,
                                  split_ratios=data_cfg.split_ratios,
                                  stride=data_cfg.window_stride)
    test_mse = evaluate(model, test_set)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "eval.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["split", "mse", "windows"])
        writer.writerow(["test", repr(test_mse), len(test_set)])
    print(f"test_mse={test_mse:.6f} over {len(test_set)} windows")
    return 0


def cmd_bench(args) -> int:
    mapping = build_settings(args, _BENCH_KEYS)
    lengths = sorted(int(x) for x in args.lengths.split(","))
    mechanisms = [m.strip() for m in args.mechanisms.split(",")]
    for m in mechanisms:
        if m not in MECHANISMS:
            raise UsageError(f"unknown mechanism {m!r}; choose from {MECHANISMS}")
    bench_cfg = _build(BenchConfig, mapping, seed=args.seed, timing=not args.no_timing,
                       min_cell_seconds=args.min_cell_seconds)
    report = run_scaling_benchmark(lengths, mechanisms, bench_cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    emit_csv_report(report, out / "bench.csv")
    for row in report.rows:
        print(f"{row.mechanism:20s} l={row.seq_len:6d} "
              f"score_elements={row.score_elements:12d} "
              f"peak_buffer={row.peak_score_buffer:10d}")
    return 0


GRADCHECK_PRESETS = {
    "tiny": dict(seq_len=24, pred_len=8, n_features_in=2, n_features_out=2,
                 d=16, heads=2, e_l=1, d_l=1, l_g=8, l_s=2, l_comp=256,
                 ffn_hidden=16),
    "small": dict(seq_len=48, pred_len=16, n_features_in=3, n_features_out=3,
                  d=32, heads=4, e_l=2, d_l=2, l_g=16, l_s=4, l_comp=24,
                  ffn_hidden=32),
}


def cmd_gradcheck(args) -> int:
    mapping = build_settings(args, _MODEL_KEYS | {"seed"})
    if args.preset not in GRADCHECK_PRESETS:
        raise UsageError(f"unknown preset {args.preset!r}; "
                         f"choose from {sorted(GRADCHECK_PRESETS)}")
    cfg = _build(ModelConfig, mapping, **GRADCHECK_PRESETS[args.preset])
    seed = _build(TrainConfig, mapping, seed=args.seed).seed
    model = ForecasterModel(cfg, seed=seed)
    # wake the global summary path so its parameters carry real gradients
    for name, p in model.parameters().items():
        if name.endswith(".beta"):
            p.data[:] = 0.37
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(cfg.seq_len, cfg.n_features_in)))
    y = Tensor(rng.normal(size=(cfg.pred_len, cfg.n_features_out)))
    report = grad_check(lambda: mse_loss(model.forward(x), y),
                        model.parameters(), epsilon=args.epsilon,
                        tolerance=args.tolerance, seed=seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report_text = "\n".join(report.lines()) + "\n"
    (out / "gradcheck_report.txt").write_text(report_text, encoding="utf-8")
    print(report_text, end="")
    if not report.ok:
        print(f"gradcheck FAILED: {len(report.failures)} tensors over "
              f"tolerance {report.tolerance}")
        return 2
    print(f"gradcheck ok: {len(report.entries)} tensors, "
          f"worst rel err {report.worst:.3e}")
    return 0


def cmd_synth(args) -> int:
    mapping = build_settings(args, _SYNTH_KEYS | {"seed"})
    seed = _build(TrainConfig, mapping, seed=args.seed).seed
    data_cfg = _build(DataConfig, mapping)
    # an explicit flag beats the setting
    kind = args.kind if args.kind is not None else data_cfg.synth_kind
    rows = args.rows if args.rows is not None else data_cfg.synth_rows
    features = args.features if args.features is not None else data_cfg.synth_features
    series = synthetic_series(kind, rows, features, seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "synth.csv"
    write_csv(series, path)
    print(f"wrote {series.length} rows x {len(series.feature_names)} features "
          f"to {path}")
    return 0


def _add_common(sub) -> None:
    sub.add_argument("--config", default=None,
                     help="flat key=value config file (default: none)")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a config field (repeatable)")
    sub.add_argument("--out", default="out",
                     help="output directory (default: ./out)")
    sub.add_argument("--seed", type=int, default=0,
                     help="global random seed (default: 0)")


def build_parser() -> _Parser:
    parser = _Parser(prog="gsaformer",
                     description="grouped-attention forecaster workflows")
    subs = parser.add_subparsers(dest="verb", metavar="{train,eval,bench,gradcheck,synth}")
    p_train = subs.add_parser("train", help="fit a forecaster", add_help=True)
    _add_common(p_train)
    p_train.add_argument("--csv", default=None,
                         help="ETT-style CSV (default: synthetic data)")
    p_eval = subs.add_parser("eval", help="score a checkpoint on the test split")
    _add_common(p_eval)
    p_eval.add_argument("--csv", default=None)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--model-config", default=None,
                        help="model.cfg path (default: next to the checkpoint)")
    p_bench = subs.add_parser("bench", help="run the scaling benchmark")
    _add_common(p_bench)
    p_bench.add_argument("--lengths", default="180,360,720,1440,2880",
                         help="comma-separated sequence lengths (default: %(default)s)")
    p_bench.add_argument("--mechanisms", default="grouped,canonical",
                         help="comma-separated subset of "
                              "grouped,grouped_local_only,canonical")
    p_bench.add_argument("--no-timing", action="store_true",
                         help="skip wall-clock timing for reproducible output")
    p_bench.add_argument("--min-cell-seconds", type=float, default=0.5,
                         help="minimum time spent per benchmark cell (default: 0.5)")
    p_grad = subs.add_parser("gradcheck", help="finite-difference gradient check")
    _add_common(p_grad)
    p_grad.add_argument("--preset", default="tiny",
                        help="model preset: tiny or small (default: tiny)")
    p_grad.add_argument("--epsilon", type=float, default=1e-6)
    p_grad.add_argument("--tolerance", type=float, default=1e-5)
    p_synth = subs.add_parser("synth", help="write a synthetic CSV")
    _add_common(p_synth)
    p_synth.add_argument("--kind", default=None,
                         help="sine_mix, trend_plus_season, or white_noise "
                              "(default: the synth_kind setting, sine_mix)")
    p_synth.add_argument("--rows", type=int, default=None,
                         help="default: the synth_rows setting, 2000")
    p_synth.add_argument("--features", type=int, default=None,
                         help="default: the synth_features setting, 2")
    return parser


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "bench": cmd_bench,
    "gradcheck": cmd_gradcheck,
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.verb:
            raise UsageError(f"missing verb; choose from {sorted(_COMMANDS)}\n"
                             f"{parser.format_usage()}")
        return _COMMANDS[args.verb](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, DataError, OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
