"""Print a sha256 of every array a forward, a backward and an Adam step
produce, so two checkouts can be compared bit for bit with one diff.

    PYTHONPATH=src python tests/bitcheck.py > after.txt
    PYTHONPATH=<other checkout>/src python tests/bitcheck.py > before.txt
    diff before.txt after.txt

For each config it hashes the forecast of an untaped forward, then, under a
tape, the forecast, the MSE loss and every parameter gradient after one
backward, and prints the OpCounter totals of that taped forward and
backward (score_elements, recomputed_score_elements, peak_score_buffer),
so a change of work shows in the same diff as a change of bits.  It then
hashes every parameter gradient after two windows accumulate on one
tape, each loss scaled by 1/2 as training.train scales a batch of two (so
the order in which the backward rules add into shared gradients shows
across a batch too).  Last, it hashes every parameter after training.train
runs 2 Adam steps of batch 2 on 4 seeded windows, once without clipping
and once with grad_clip=0.5, so the optimizer's in-place update and the
clip's in-place scaling show too.  Every GSA beta is set to 0.3, so the
global path carries forecast and gradient.  The configs are the bench
config at the train_long length, with its 4 heads and with 8 (so the head
axis the GSA op batches over shows at two widths), the `gsaformer train`
defaults, a compressed-CCA config with label_len=20, the local-only
ablation, the bench config at lengths one row past a multiple of the
256- and 512-row tiles (513 = 2 * 256 + 1, 1025 = 2 * 512 + 1), and the 1025 one at
d = 12 with 3 heads and 12 hidden units, whose products are 12, 4 and 7
columns wide: OpenBLAS may round the rows of such products differently
once they are cut, so a change of tile cuts shows in the same diff.
"""

from __future__ import annotations

import hashlib

import numpy as np

from gsaformer.attention import OpCounter
from gsaformer.benchmark import BenchConfig, model_config_for
from gsaformer.data import WindowSet
from gsaformer.model import ForecasterModel, ModelConfig
from gsaformer.tensor import ComputationTape, Tensor, backward, multiply, zero_grads
from gsaformer.training import TrainConfig, mse_loss, train

TRAIN_DEFAULTS = dict(seq_len=96, pred_len=24, n_features_in=2, n_features_out=2)


def configs() -> dict[str, ModelConfig]:
    bench = BenchConfig()
    return {
        "train_long": model_config_for("grouped", 1440, bench),
        "train_long_8heads": model_config_for("grouped", 1440, BenchConfig(heads=8)),
        "train_defaults": ModelConfig(**TRAIN_DEFAULTS),
        "compressed_label20": ModelConfig(**TRAIN_DEFAULTS, label_len=20, l_comp=48),
        "local_only": ModelConfig(**TRAIN_DEFAULTS, ablation_local_only=True),
        "bench_513": model_config_for("grouped", 513, bench),
        "bench_1025": model_config_for("grouped", 1025, bench),
        "bench_1025_d12": model_config_for("grouped", 1025,
                                           BenchConfig(d=12, heads=3, ffn_hidden=12)),
    }


def digest(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a, dtype="<f8")
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()[:16]


def build(cfg: ModelConfig) -> ForecasterModel:
    model = ForecasterModel(cfg, seed=0)
    for pname, p in model.parameters().items():
        if pname.endswith(".beta"):
            p.data[:] = 0.3     # so the global path reaches the forecast
    return model


def check(name: str, cfg: ModelConfig) -> list[str]:
    model = build(cfg)
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(cfg.seq_len, cfg.n_features_in)))
    y = Tensor(rng.normal(size=(cfg.pred_len, cfg.n_features_out)))
    lines = [f"{name} forecast.untaped {digest(model.forward(x).data)}"]
    counter = OpCounter()
    with ComputationTape() as tape:
        pred = model.forward(x, counter)
        loss = mse_loss(pred, y)
    lines.append(f"{name} forecast.taped {digest(pred.data)}")
    lines.append(f"{name} loss {digest(loss.data)}")
    backward(loss, tape)
    for field in ("score_elements", "recomputed_score_elements", "peak_score_buffer"):
        lines.append(f"{name} counter.{field} {getattr(counter, field)}")
    for pname, p in model.parameters().items():
        lines.append(f"{name} grad.{pname} {digest(p.grad) if p.grad is not None else 'none'}")
    params = model.parameters()
    zero_grads(params.values())
    x2 = Tensor(rng.normal(size=(cfg.seq_len, cfg.n_features_in)))
    y2 = Tensor(rng.normal(size=(cfg.pred_len, cfg.n_features_out)))
    with ComputationTape() as tape:
        for window_x, window_y in ((x, y), (x2, y2)):
            backward(multiply(mse_loss(model.forward(window_x), window_y), 1.0 / 2), tape)
    for pname, p in params.items():
        lines.append(f"{name} batch2.grad.{pname} "
                     f"{digest(p.grad) if p.grad is not None else 'none'}")
    windows = WindowSet([(rng.normal(size=(cfg.seq_len, cfg.n_features_in)),
                          rng.normal(size=(cfg.pred_len, cfg.n_features_out)))
                         for _ in range(4)], split="train")
    for clip in (None, 0.5):
        model = build(cfg)
        train(model, windows, TrainConfig(batch_size=2, max_iterations=2, grad_clip=clip))
        for pname, p in model.parameters().items():
            lines.append(f"{name} adam.clip{clip}.{pname} {digest(p.data)}")
    return lines


def main() -> None:
    for name, cfg in configs().items():
        print("\n".join(check(name, cfg)), flush=True)


if __name__ == "__main__":
    main()
