"""The three benchmark workloads and the closed-loop runner that drives them.

Each workload takes the seed, makes its series and model from it, and
hands the package only the generated windows.  Work is done in rounds:
a round starts from a freshly built model and runs a fixed schedule
(``training.train`` for a fixed number of optimizer steps, or
``training.evaluate`` over a fixed set of windows), so every round of a
run repeats the same arithmetic and must end on the same ``final_mse``,
bit for bit.  Rounds repeat for about the requested seconds.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import tempfile
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from gsaformer import data, tensor, training
from gsaformer.attention import OpCounter
from gsaformer.benchmark import BenchConfig, model_config_for
from gsaformer.model import ForecasterModel, ModelConfig

from tracing import Tracer, layer_metrics

SETUPS = 3          # set-ups per untraced run; setup_s is their median


@dataclass(frozen=True)
class Workload:
    name: str
    model: ModelConfig
    series_rows: int
    n_features: int
    split: tuple[float, float, float]
    stride: int
    train: bool             # False: forward-only through training.evaluate
    batch_size: int         # windows per optimizer step (train only)
    round_steps: int        # optimizer steps, or windows forecast, per round
    validate: bool          # per-epoch val pass (train only)
    checkpoint: bool        # train writes its checkpoint, read back and checked


def _long_series_rows(seq_len: int, windows: int, stride: int) -> int:
    return 2 * seq_len + (windows - 1) * stride


def workloads(tiny: bool = False) -> dict[str, Workload]:
    """Full-size workloads, or the same code paths at tiny shapes."""
    if tiny:
        bench = BenchConfig(d=16, heads=2, ffn_hidden=16, e_l=2, d_l=2,
                            l_g=8, l_s=2, l_comp=16, n_features=3)
        long_len, infer_len, stride = 40, 48, 4
        small = ModelConfig(seq_len=12, pred_len=4, n_features_in=2, n_features_out=2,
                            d=8, heads=2, e_l=1, d_l=1, l_g=8, l_s=2, ffn_hidden=8)
        small_rows, small_batch, small_steps = 200, 4, 2
    else:
        bench = BenchConfig()
        long_len, infer_len, stride = 1440, 2880, 96
        # the `gsaformer train` defaults
        small = ModelConfig(seq_len=96, pred_len=24, n_features_in=2, n_features_out=2)
        small_rows, small_batch, small_steps = 2000, 16, 8
    train_long_steps, infer_windows = 3, (2 if tiny else 4)
    out = [
        Workload("train_long", model_config_for("grouped", long_len, bench),
                 _long_series_rows(long_len, train_long_steps, stride), bench.n_features,
                 (1.0, 0.0, 0.0), stride, train=True, batch_size=1,
                 round_steps=train_long_steps, validate=False, checkpoint=True),
        Workload("train_small", small, small_rows, 2, (0.7, 0.1, 0.2), 1,
                 train=True, batch_size=small_batch, round_steps=small_steps,
                 validate=True, checkpoint=True),
        Workload("infer_long", model_config_for("grouped", infer_len, bench),
                 _long_series_rows(infer_len, infer_windows, stride), bench.n_features,
                 (1.0, 0.0, 0.0), stride, train=False, batch_size=0,
                 round_steps=infer_windows, validate=False, checkpoint=False),
    ]
    return {w.name: w for w in out}


class StepLog:
    """Step counter, per-step wall times and failed checks of one run.

    A step is one optimizer iteration, or one window forecast when the
    workload only infers.  A check that fails marks the step in progress
    (or a given step) as failed; a step counts once however many of its
    checks fail."""

    def __init__(self):
        self.done = 0
        self.failed: set[int] = set()
        self.messages: list[str] = []
        self.nonfinite = 0
        self.forwards = 0
        self.score_elements = 0     # counter total of the latest forward
        self._stamps: Optional[list[float]] = None

    def tick(self) -> None:
        self.done += 1
        if self._stamps is not None:
            self._stamps.append(time.perf_counter())

    def fail(self, message: str, step: Optional[int] = None) -> None:
        self.failed.add(self.done if step is None else step)
        if len(self.messages) < 20:
            self.messages.append(message)

    @contextlib.contextmanager
    def timed(self, start: float):
        """Collects the ticks inside the block as per-step durations."""
        durations: list[float] = []
        self._stamps = []
        try:
            yield durations
        finally:
            stamps = [start] + self._stamps
            durations.extend(b - a for a, b in zip(stamps, stamps[1:]))
            self._stamps = None


def _checked_model(cfg: ModelConfig, seed: int, log: StepLog, infer: bool) -> ForecasterModel:
    """A fresh model whose forward checks every window: the score-element
    counter must equal the closed form and the forecast must be finite."""
    m = ForecasterModel(cfg, seed=seed)
    closed_form = m.closed_form_score_elements()

    def forward(x):
        counter = OpCounter()
        # looked up per call, so a tracer installed later is honoured
        pred = type(m).forward(m, x, counter)
        log.forwards += 1
        log.score_elements = counter.score_elements
        if counter.score_elements != closed_form:
            log.fail(f"score elements {counter.score_elements} != closed form {closed_form}")
        if not np.all(np.isfinite(pred.data)):
            log.fail("non-finite forecast")
        if infer:
            log.tick()
        return pred

    m.forward = forward
    return m


@contextlib.contextmanager
def _adam_clock(log: StepLog):
    """Ticks the step log after every optimizer step, wrapping whatever
    ``training.adam_step`` is on entry (the traced one in a traced round)."""
    inner = training.adam_step

    def adam_step(*args, **kwargs):
        inner(*args, **kwargs)
        log.tick()

    training.adam_step = adam_step
    try:
        yield
    finally:
        training.adam_step = inner


@dataclass
class Prepared:
    train_set: data.WindowSet
    val_set: Optional[data.WindowSet]
    warmup_mse: float


def setup(w: Workload, seed: int, log: StepLog) -> Prepared:
    """Series, windows, model and one warm-up step."""
    series = data.synthetic_series("sine_mix", w.series_rows, w.n_features, seed)
    train_set, val_set, _ = data.make_windows(
        series, w.model.seq_len, w.model.pred_len, split_ratios=w.split, stride=w.stride)
    model = _checked_model(w.model, seed, log, infer=not w.train)
    if w.train:
        cfg = training.TrainConfig(seed=seed, batch_size=w.batch_size, max_iterations=1)
        with _adam_clock(log):
            warmup = training.train(model, train_set, cfg).iteration_losses[-1]
    else:
        warmup = training.evaluate(model, train_set, limit=1)
    return Prepared(train_set, val_set if w.validate else None, warmup)


@dataclass
class Round:
    busy_s: float
    windows: int
    step_s: list[float]
    final_mse: float


def run_round(w: Workload, seed: int, prep: Prepared, log: StepLog, tmp_dir: Path) -> Round:
    """One fixed schedule from a fresh model, with its checks."""
    model = _checked_model(w.model, seed, log, infer=not w.train)
    first_step = log.done
    start = time.perf_counter()
    with log.timed(start) as step_s:
        if w.train:
            ckpt = tmp_dir / "model.ckpt" if w.checkpoint else None
            cfg = training.TrainConfig(seed=seed, batch_size=w.batch_size,
                                       max_iterations=w.round_steps)
            with _adam_clock(log):
                history = training.train(model, prep.train_set, cfg, val_set=prep.val_set,
                                         checkpoint_path=ckpt)
            losses = history.iteration_losses
            final = history.epochs[-1][1]       # train_mse, as `gsaformer train` reports it
            if ckpt is not None:
                _check_checkpoint(model, tensor.load_checkpoint(ckpt), log)
        else:
            losses = [training.evaluate(model, prep.train_set, limit=w.round_steps)]
            final = losses[0]
    busy = time.perf_counter() - start
    for i, loss in enumerate(losses):
        if not math.isfinite(loss):
            log.nonfinite += 1
            log.fail(f"non-finite loss {loss}", step=first_step + i)
    if len(step_s) != w.round_steps:
        log.fail(f"round ran {len(step_s)} steps, expected {w.round_steps}")
    windows = w.round_steps * (w.batch_size if w.train else 1)
    return Round(busy, windows, step_s, final)


def _check_checkpoint(model: ForecasterModel, saved: dict, log: StepLog) -> None:
    """The checkpoint train wrote holds the trained parameters bit for bit
    (a round has at most one val pass, so its best checkpoint is the last)."""
    params = model.parameters()
    if set(saved) != set(params):
        log.fail("checkpoint names differ from the model's", step=log.done - 1)
        return
    for name, p in params.items():
        a = np.ascontiguousarray(p.data, dtype="<f8")
        if saved[name].shape != a.shape or saved[name].astype("<f8").tobytes() != a.tobytes():
            log.fail(f"checkpoint round trip changed {name}", step=log.done - 1)
            return


def peak_step_mb(w: Workload, seed: int, prep: Prepared, log: StepLog) -> float:
    """tracemalloc peak over one untimed step on a freshly built model."""
    model = _checked_model(w.model, seed, log, infer=not w.train)
    tracemalloc.start()
    try:
        if w.train:
            cfg = training.TrainConfig(seed=seed, batch_size=w.batch_size, max_iterations=1)
            with _adam_clock(log):
                training.train(model, prep.train_set, cfg)
        else:
            training.evaluate(model, prep.train_set, limit=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def _guarded(log: StepLog, fn, *args):
    """Run fn; an exception fails the step in progress instead of ending
    the run, so a broken program shows as failed steps."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        if isinstance(exc, tensor.NumericsError):
            log.nonfinite += 1
        log.fail(f"{type(exc).__name__}: {exc}")
        log.done += 1
        return None


def _another(start: float, seconds: float, done: int) -> bool:
    """Whether to start another round: always a first one, then while the
    next is expected to end less than half a round past the deadline, so
    that the timed phase lasts the requested seconds on average."""
    if not done:
        return True
    now = time.perf_counter()
    return now + (now - start) / done / 2 < start + seconds


def _same(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@dataclass
class Result:
    metrics: dict[str, tuple[float, str, int]]    # name -> (value, unit, samples)
    attempted: int
    failed: int
    messages: list[str]
    self_ms: dict[str, float]


def measure(w: Workload, seed: int, seconds: float, tmp_dir: Path) -> Result:
    """The untraced run: end-to-end metrics."""
    log = StepLog()
    setup_s, warm = [], []
    for _ in range(SETUPS):
        start = time.perf_counter()
        prep = setup(w, seed, log)
        setup_s.append(time.perf_counter() - start)
        warm.append(prep.warmup_mse)
    if not all(_same(v, warm[0]) for v in warm):
        log.fail(f"same-seed warm-up steps differ: {warm}", step=log.done - 1)

    rounds: list[Round] = []
    attempts = 0
    start = time.perf_counter()
    while _another(start, seconds, attempts):
        attempts += 1
        r = _guarded(log, run_round, w, seed, prep, log, tmp_dir)
        if r is None:
            continue
        if rounds and not _same(r.final_mse, rounds[0].final_mse):
            log.fail(f"same-seed rounds end on different final_mse: "
                     f"{r.final_mse!r} vs {rounds[0].final_mse!r}", step=log.done - 1)
        rounds.append(r)
    peak = _guarded(log, peak_step_mb, w, seed, prep, log)

    steps = [s for r in rounds for s in r.step_s]
    # median over rounds, so one round caught in a slow spell of the host
    # does not move the run's figure
    rates = [r.windows / r.busy_s for r in rounds if r.busy_s > 0]
    metrics = {
        "windows_per_s": (statistics.median(rates) if rates else math.nan, "1/s", len(rates)),
        "step_ms_p50": (statistics.median(steps) * 1e3 if steps else math.nan, "ms", len(steps)),
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "peak_alloc_mb": (peak if peak is not None else math.nan, "MB", 1),
        "score_elements_per_window": (float(log.score_elements), "elements", log.forwards),
        "final_mse": (rounds[-1].final_mse if rounds else math.nan, "mse", len(rounds)),
        "error_rate": (len(log.failed) / max(log.done, 1), "fraction", log.done),
    }
    return Result(metrics, log.done, len(log.failed), log.messages, {})


def measure_traced(w: Workload, seed: int, seconds: float, tmp_dir: Path,
                   dump_path: Path, extra: dict) -> Result:
    """The traced run: untraced and traced rounds alternate, so the
    overhead compares like with like, and every traced round must end on
    the untraced final_mse bit for bit."""
    log = StepLog()
    setup_tracer = Tracer()
    with setup_tracer:
        prep = setup(w, seed, log)

    tracer = Tracer()
    plain: list[Round] = []
    traced: list[Round] = []
    traced_steps = pairs = 0
    start = time.perf_counter()
    while _another(start, seconds, pairs):
        pairs += 1
        r = _guarded(log, run_round, w, seed, prep, log, tmp_dir)
        if r is not None:
            plain.append(r)
        before = log.done
        with tracer, tracer.span("perfbench.round"):
            r = _guarded(log, run_round, w, seed, prep, log, tmp_dir)
        traced_steps += log.done - before
        if r is not None:
            traced.append(r)
    reference = plain[0].final_mse if plain else math.nan
    for r in traced:
        if not _same(r.final_mse, reference):
            log.fail(f"traced final_mse {r.final_mse!r} != untraced {reference!r}",
                     step=log.done - 1)

    def rate(rounds: list[Round]) -> float:
        busy = sum(r.busy_s for r in rounds)
        return sum(r.windows for r in rounds) / busy if busy else math.nan

    values = layer_metrics(tracer, max(traced_steps, 1))
    values["training.nonfinite_steps"] = (float(log.nonfinite), "count")
    values["trace.overhead_pct"] = ((1.0 - rate(traced) / rate(plain)) * 100.0, "%")
    metrics = {name: (v, unit, traced_steps) for name, (v, unit) in values.items()}
    windows_s = sum(s.dur for s in setup_tracer.spans if s.name == "data.make_windows")
    metrics["data.make_windows_ms"] = (windows_s * 1e3, "ms", 1)    # per set-up
    tracer.dump(dump_path, dict(extra, steps=traced_steps,
                                setup_spans=[[s.name, s.dur * 1e6] for s in setup_tracer.spans]))
    return Result(metrics, log.done, len(log.failed), log.messages, tracer.self_times_ms())


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool, out_dir: Path,
        extra: dict) -> Result:
    """One benchmark run; a traced run writes its spans under out_dir."""
    w = workloads(tiny)[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="tmp-") as tmp:
        if trace:
            dump = out_dir / f"trace-{name}-seed{seed}.json"
            return measure_traced(w, seed, seconds, Path(tmp), dump, extra)
        return measure(w, seed, seconds, Path(tmp))
