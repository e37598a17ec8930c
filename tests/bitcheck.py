"""Print a sha256 of every array a forward, a backward and an Adam step
produce, so two checkouts can be compared bit for bit with one diff.

    PYTHONPATH=src python tests/bitcheck.py > after.txt
    PYTHONPATH=<other checkout>/src python tests/bitcheck.py > before.txt
    diff before.txt after.txt

For each config it hashes the forecast of an untaped forward and prints
that forward's OpCounter totals (score_elements,
recomputed_score_elements, peak_score_buffer), then, under a tape, hashes
the forecast, the MSE loss and every parameter gradient after one
backward, and prints the OpCounter totals of that taped forward and
backward, so a change of work shows in the same diff as a change of bits.
It then hashes every parameter gradient after two windows accumulate on
one tape, each loss scaled by 1/2 as training.train scales a batch of two
(so the order in which the backward rules add into shared gradients shows
across a batch too).  Last, it hashes every parameter after training.train
runs 2 Adam steps of batch 2 on 4 seeded windows, once without clipping
and once with grad_clip=0.5, so the optimizer's in-place update and the
clip's in-place scaling show too.  Every GSA beta is set to 0.3, so the
global path carries forecast and gradient.  The configs are the bench
config at the train_long length, with its 4 heads and with 8 (so the
head_view layout that the GSA and CCA ops both run on shows at two
widths), the `gsaformer train` defaults, a compressed-CCA config with label_len=20, the local-only
ablation, the bench config at lengths one row past a multiple of the 256-
and 512-row tiles (513 = 2 * 256 + 1, 1025 = 2 * 512 + 1), the 1025 one at
d = 12 with 3 heads and 12 hidden units, whose products are 12, 4 and 7
columns wide: OpenBLAS may round the rows of such products differently
once they are cut, so a change of tile cuts shows in the same diff; and
the 1025 one with label_len = 300, whose label rows end inside a row tile
of the untaped decoder.

The grad.* and adam.* lines walk ForecasterModel.parameters(), which
leaves out the constants a model holds: the key biases that softmax
cancels (each decoder GSA and CCA b_k, and each encoder GSA b_k under the
local-only ablation) are fixed zero rows with no gradient, so they get no
line.  Against a checkout in which they were parameters, their
lines are the only ones removed; the adam.* lines differ there too,
because Adam stepped those biases by their rounding-noise gradients.
arrays() returns every value check() prints, keyed by line name.  A
change that alters rounding on purpose compares numerically instead:

    PYTHONPATH=src python tests/bitcheck.py --compare <parent checkout>/src

runs arrays() over the same configs for the parent's src and this
checkout's, each in its own process, under 1 and 2 BLAS threads, and
reports each line as identical (the same bits as the parent's under both
thread counts), within the noise floor or beyond it.  A line's deviation
is max |change - parent| relative to the parent array's largest |value|,
the worse of the two thread counts; its floor is the larger of
NOISE_MULTIPLE (10) times the parent's own deviation between 1 and 2
threads on that array and ABSOLUTE_FLOOR (1e-12), the floor of an array
whose bits the thread count does not change.
Counter totals, missing gradients, shapes and the set of lines must be
identical.  It prints every line that is not identical, then per config
and family (forecast, loss, grad, adam, counter) the count of each
verdict and the worst deviation, and exits 1 if any line is beyond the
floor.  Adam's lines need the loose floors: Adam steps each coordinate
by m/sqrt(v), so a small gradient coordinate's rounding reaches the
parameter at full step size; the parent alone differs there by up to
7.5e-12 between thread counts, against 1e-15 in forecasts.  With these
floors, summing every bias gradient's rows in reverse order read within
them at train_defaults, compressed_label20, local_only and train_long
(gradients moved by up to 2.8e-14, Adam's parameters by up to 5.3e-12),
and adding 1e-9 to every forecast row read beyond them on every
forecast, loss and gradient line.
tests/test_bitcheck.py runs check() on one tiny config as a smoke test,
and compares this checkout's src with itself on it.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import pickle
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

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
        "bench_1025_label300": model_config_for("grouped", 1025, BenchConfig(label_len=300)),
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


def counter_values(prefix: str, counter: OpCounter) -> dict[str, int]:
    return {f"{prefix}.{field}": getattr(counter, field)
            for field in ("score_elements", "recomputed_score_elements", "peak_score_buffer")}


def arrays(name: str, cfg: ModelConfig) -> dict[str, np.ndarray | int | None]:
    """Every value check() prints, keyed by its line's name, in line order:
    the arrays it hashes (None for a parameter with no gradient) and the
    counter totals."""
    model = build(cfg)
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(cfg.seq_len, cfg.n_features_in)))
    y = Tensor(rng.normal(size=(cfg.pred_len, cfg.n_features_out)))
    counter = OpCounter()
    values = {f"{name} forecast.untaped": model.forward(x, counter).data}
    values.update(counter_values(f"{name} untaped.counter", counter))
    counter = OpCounter()
    with ComputationTape() as tape:
        pred = model.forward(x, counter)
        loss = mse_loss(pred, y)
    values[f"{name} forecast.taped"] = pred.data
    values[f"{name} loss"] = loss.data
    backward(loss, tape)
    values.update(counter_values(f"{name} counter", counter))
    for pname, p in model.parameters().items():
        values[f"{name} grad.{pname}"] = p.grad
    params = model.parameters()
    zero_grads(params.values())
    x2 = Tensor(rng.normal(size=(cfg.seq_len, cfg.n_features_in)))
    y2 = Tensor(rng.normal(size=(cfg.pred_len, cfg.n_features_out)))
    with ComputationTape() as tape:
        for window_x, window_y in ((x, y), (x2, y2)):
            backward(multiply(mse_loss(model.forward(window_x), window_y), 1.0 / 2), tape)
    for pname, p in params.items():
        values[f"{name} batch2.grad.{pname}"] = p.grad
    windows = WindowSet([(rng.normal(size=(cfg.seq_len, cfg.n_features_in)),
                          rng.normal(size=(cfg.pred_len, cfg.n_features_out)))
                         for _ in range(4)], split="train")
    for clip in (None, 0.5):
        model = build(cfg)
        train(model, windows, TrainConfig(batch_size=2, max_iterations=2, grad_clip=clip))
        for pname, p in model.parameters().items():
            values[f"{name} adam.clip{clip}.{pname}"] = p.data
    return values


def line_value(value: np.ndarray | int | None) -> str:
    """What a line prints of its value: an array's digest, 'none' for a
    missing gradient, a counter total as it is."""
    if value is None:
        return "none"
    return str(value) if isinstance(value, int) else digest(value)


def check(name: str, cfg: ModelConfig) -> list[str]:
    return [f"{line} {line_value(value)}" for line, value in arrays(name, cfg).items()]


TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
THREADS = (1, 2)
NOISE_MULTIPLE = 10     # the floor: this many times the parent's own thread-count deviation
ABSOLUTE_FLOOR = 1e-12  # the floor of an array the thread count does not change


def dump(name: str, fields: str, out_path: str) -> None:
    """Pickle arrays(name, ModelConfig(**json.loads(fields))) into out_path."""
    with open(out_path, "wb") as f:
        pickle.dump(arrays(name, ModelConfig(**json.loads(fields))), f)


def run_arrays(src: Path, name: str, cfg: ModelConfig, threads: int, out_path: str) -> dict:
    """arrays(name, cfg) from a new process that imports gsaformer from
    src and runs BLAS on `threads` threads."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(TESTS)]),
               OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               MKL_NUM_THREADS=str(threads))
    subprocess.run([sys.executable, "-c", "import sys, bitcheck; bitcheck.dump(*sys.argv[1:])",
                    name, json.dumps(dataclasses.asdict(cfg)), out_path], env=env, check=True)
    with open(out_path, "rb") as f:
        return pickle.load(f)


def same(a, b) -> bool:
    """a and b are the same value: arrays of one shape and the same bits,
    or equal counter totals, or both None."""
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    return type(a) is type(b) and a == b


def deviation(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| relative to b's largest |value| (inf when b is all zero
    and a is not)."""
    diff, scale = np.abs(a - b).max(initial=0.0), np.abs(b).max(initial=0.0)
    return float(diff / scale) if scale > 0 else float("inf") if diff > 0 else 0.0


def verdict(change: list, parent: list) -> tuple[str, float, float]:
    """(verdict, deviation, floor) of one line from its values under each
    thread count of THREADS: 'identical' when every value is the parent's
    under the same thread count; else 'within' when the worse deviation
    is at most the floor, max(NOISE_MULTIPLE times the parent's deviation
    between 1 and 2 threads, ABSOLUTE_FLOOR), and 'beyond' when it is
    larger.  A counter total, a missing gradient or a shape that differs
    is beyond."""
    if all(same(c, p) for c, p in zip(change, parent)):
        return "identical", 0.0, 0.0
    values = change + parent
    if not all(isinstance(v, np.ndarray) and v.shape == values[0].shape for v in values):
        return "beyond", float("inf"), 0.0
    floor = max(NOISE_MULTIPLE * deviation(parent[1], parent[0]), ABSOLUTE_FLOOR)
    worst = max(deviation(c, p) for c, p in zip(change, parent))
    return ("within" if worst <= floor else "beyond"), worst, floor


def family(line: str) -> str:
    """The kind of value a line prints: forecast, loss, grad, adam or counter."""
    what = line.split(" ", 1)[1]
    if "counter" in what:
        return "counter"
    return "grad" if what.startswith("batch2.") else what.split(".")[0]


def compare(parent_src: Path, cfgs: dict[str, ModelConfig]) -> dict[str, tuple]:
    """verdict() of every line of each config's arrays(), this checkout's
    src against parent_src, under 1 and 2 BLAS threads, one config at a
    time; a line only one side prints is 'only in parent' or 'only in
    change'."""
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "arrays.pkl")
        for name, cfg in cfgs.items():
            parent, change = ([run_arrays(src, name, cfg, n, out) for n in THREADS]
                              for src in (Path(parent_src), SRC))
            for line in {**parent[0], **change[0]}:
                if line not in change[0]:
                    result[line] = ("only in parent", float("inf"), 0.0)
                elif line not in parent[0]:
                    result[line] = ("only in change", float("inf"), 0.0)
                else:
                    result[line] = verdict([run[line] for run in change],
                                           [run[line] for run in parent])
    return result


def report(result: dict[str, tuple]) -> list[str]:
    """Every line that is not identical, then per config and family the
    number of lines of each verdict and the worst deviation."""
    out = [f"{line} {v} {dev:.2e} (floor {floor:.2e})"
           for line, (v, dev, floor) in result.items() if v != "identical"]
    groups = {}
    for line, (v, dev, floor) in result.items():
        groups.setdefault((line.split(" ", 1)[0], family(line)), []).append((dev, floor, line, v))
    for (name, fam), rows in groups.items():
        counts = Counter(v for *_, v in rows)
        dev, floor, line, _ = max(rows, key=lambda row: row[0])
        worst = f"; worst {dev:.2e} (floor {floor:.2e}) at {line}" if dev > 0 else ""
        out.append(f"{name} {fam}: " + ", ".join(f"{n} {v}" for v, n in counts.items()) + worst)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", metavar="PARENT_SRC", type=Path,
                        help="compare every line with the checkout whose src/ this is")
    args = parser.parse_args()
    if args.compare is None:
        for name, cfg in configs().items():
            print("\n".join(check(name, cfg)), flush=True)
        return
    result = compare(args.compare, configs())
    print("\n".join(report(result)))
    counts = Counter(v for v, _, _ in result.values())
    print(f"{len(result)} lines: " + ", ".join(f"{n} {v}" for v, n in counts.items()))
    sys.exit(0 if set(counts) <= {"identical", "within"} else 1)


if __name__ == "__main__":
    main()
