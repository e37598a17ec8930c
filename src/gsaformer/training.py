"""MSE loss, Adam, training/eval loops, and a finite-difference gradient
checker."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from .data import DataError, WindowSet
from .model import ForecasterModel
from .tensor import (
    ComputationTape,
    ContractError,
    DimensionError,
    Tensor,
    backward,
    load_checkpoint,
    multiply,
    save_checkpoint,
    subtract,
    sum_all,
    zero_grads,
)


@dataclass
class TrainConfig:
    learning_rate: float = 0.0001
    batch_size: int = 16
    epochs: int = 1
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    seed: int = 0
    patience: Optional[int] = None      # early stop on val loss, if set
    max_iterations: Optional[int] = None
    grad_clip: Optional[float] = None   # global-norm clip, off by default
    lr_decay: Optional[float] = None    # per-epoch multiplier, off by default

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ContractError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ContractError(f"batch_size must be >= 1, got {self.batch_size}")


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean over all entries of squared differences; differentiable."""
    if pred.shape != target.shape:
        raise DimensionError(
            f"mse_loss: shapes differ: {pred.shape} vs {target.shape}")
    diff = subtract(pred, target)
    return multiply(sum_all(multiply(diff, diff)), 1.0 / pred.data.size)


class AdamState:
    """First/second moment estimates plus the step count."""

    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def named_arrays(self) -> dict[str, np.ndarray]:
        out = {"adam.t": np.array([[float(self.t)]])}
        for name, arr in self.m.items():
            out[f"adam.m.{name}"] = arr
        for name, arr in self.v.items():
            out[f"adam.v.{name}"] = arr
        return out

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "AdamState":
        state = cls()
        state.t = int(arrays["adam.t"][0, 0])
        for name, arr in arrays.items():
            if name.startswith("adam.m."):
                state.m[name[len("adam.m."):]] = arr.copy()
            elif name.startswith("adam.v."):
                state.v[name[len("adam.v."):]] = arr.copy()
        return state


def adam_step(params: Mapping[str, Tensor],
              grads: Mapping[str, np.ndarray],
              state: AdamState,
              cfg: TrainConfig,
              learning_rate: Optional[float] = None) -> None:
    """One Adam update with bias correction over every named parameter."""
    for name in params:
        if name not in grads or grads[name] is None:
            raise ContractError(f"adam_step: no gradient for parameter {name!r}")
    lr = cfg.learning_rate if learning_rate is None else learning_rate
    state.t += 1
    t = state.t
    correct1 = 1.0 - cfg.beta1 ** t
    correct2 = 1.0 - cfg.beta2 ** t
    for name, p in params.items():
        g = grads[name]
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
        state.m[name] = m
        state.v[name] = v
        m_hat = m / correct1
        v_hat = v / correct2
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + cfg.epsilon)


def _clip_grads(grads: dict[str, np.ndarray], max_norm: float) -> None:
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale


def evaluate(model: ForecasterModel, window_set: WindowSet,
             limit: Optional[int] = None) -> float:
    """Mean MSE over (at most limit) windows, no gradients recorded."""
    windows = window_set.windows[:limit] if limit else window_set.windows
    if not windows:
        raise DataError("evaluate: empty window set")
    total = 0.0
    for x, y in windows:
        pred = model.forward(Tensor(x))
        total += float(((pred.data - y) ** 2).mean())
    return total / len(windows)


@dataclass
class TrainHistory:
    epochs: list[tuple[int, float, float]] = field(default_factory=list)
    iteration_losses: list[float] = field(default_factory=list)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_mse", "val_mse"])
            for epoch, train_mse, val_mse in self.epochs:
                writer.writerow([epoch, repr(train_mse),
                                 repr(val_mse) if not math.isnan(val_mse) else ""])


def train(model: ForecasterModel, train_set: WindowSet, cfg: TrainConfig,
          val_set: Optional[WindowSet] = None,
          checkpoint_path=None,
          val_limit: Optional[int] = 64) -> TrainHistory:
    """Deterministic training given the seed: per-epoch shuffling comes from
    one seeded generator, batches average window losses, and the best-val
    parameters are checkpointed when a path is given."""
    if not train_set.windows:
        raise DataError("train: empty window set")
    params = model.parameters()
    state = AdamState()
    rng = np.random.default_rng(cfg.seed)
    history = TrainHistory()
    best_val = math.inf
    bad_epochs = 0
    iterations = 0
    lr = cfg.learning_rate
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(train_set.windows))
        epoch_losses = []
        for lo in range(0, len(order), cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            zero_grads(params.values())
            batch_loss = 0.0
            with ComputationTape() as tape:
                for idx in batch:
                    x, y = train_set.windows[idx]
                    window_loss = mse_loss(model.forward(Tensor(x)), Tensor(y))
                    batch_loss += float(window_loss.data[0, 0]) / len(batch)
                    # scale so accumulated grads form the batch-mean gradient
                    backward(multiply(window_loss, 1.0 / len(batch)), tape)
                    tape.clear()
            grads = {name: p.grad if p.grad is not None else np.zeros_like(p.data)
                     for name, p in params.items()}
            if cfg.grad_clip is not None:
                _clip_grads(grads, cfg.grad_clip)
            adam_step(params, grads, state, cfg, learning_rate=lr)
            epoch_losses.append(batch_loss)
            history.iteration_losses.append(batch_loss)
            iterations += 1
            if cfg.max_iterations is not None and iterations >= cfg.max_iterations:
                break
        train_mse = float(np.mean(epoch_losses)) if epoch_losses else math.nan
        val_mse = evaluate(model, val_set, limit=val_limit) if val_set else math.nan
        history.epochs.append((epoch, train_mse, val_mse))
        if val_set and val_mse < best_val:
            best_val = val_mse
            bad_epochs = 0
            if checkpoint_path is not None:
                model.save(checkpoint_path)
        elif val_set:
            bad_epochs += 1
            if cfg.patience is not None and bad_epochs > cfg.patience:
                break
        if cfg.lr_decay is not None:
            lr *= cfg.lr_decay
        if cfg.max_iterations is not None and iterations >= cfg.max_iterations:
            break
    if checkpoint_path is not None and not val_set:
        model.save(checkpoint_path)
    return history


def save_training_state(path, params: Mapping[str, Tensor], state: AdamState) -> None:
    arrays: dict[str, np.ndarray] = {name: p.data for name, p in params.items()}
    arrays.update(state.named_arrays())
    save_checkpoint(path, arrays)


def load_training_state(path, params: Mapping[str, Tensor]) -> AdamState:
    arrays = load_checkpoint(path)
    for name, p in params.items():
        p.data = arrays[name].copy()
    return AdamState.from_arrays(arrays)


@dataclass
class GradCheckEntry:
    name: str
    max_rel_err: float
    checked: int


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry]
    tolerance: float

    @property
    def failures(self) -> list[GradCheckEntry]:
        return [e for e in self.entries if e.max_rel_err >= self.tolerance]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def worst(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)

    def lines(self) -> list[str]:
        out = []
        for e in self.entries:
            status = "ok" if e.max_rel_err < self.tolerance else "FAIL"
            out.append(f"{status:4s} {e.name:40s} max_rel_err={e.max_rel_err:.3e} "
                       f"({e.checked} coords)")
        return out


def relative_error(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


def grad_check(loss_fn: Callable[[], Tensor],
               params: Mapping[str, Tensor],
               epsilon: float = 1e-6,
               tolerance: float = 1e-5,
               max_coords: int = 32,
               seed: int = 0,
               loss_scale: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients against central differences.

    loss_fn must rebuild the forward pass from the current parameter values
    each call.  Per tensor, at most max_coords randomly sampled coordinates
    are perturbed by +/- epsilon.

    The loss is multiplied by loss_scale before differencing: an O(1) loss
    carries ~1 ulp of forward roundoff, which at epsilon=1e-6 shows up as
    ~5e-11 of difference noise, above the 1e-8 comparison floor for
    coordinates whose true gradient is (near) zero.  Scaling shrinks the
    noise and the gradients together, so agreement checks are unaffected
    while the floor does its job.  Pass 1.0 to disable.
    """
    rng = np.random.default_rng(seed)

    def scaled_loss() -> Tensor:
        return multiply(loss_fn(), loss_scale)

    zero_grads(params.values())
    with ComputationTape() as tape:
        loss = scaled_loss()
        backward(loss, tape)
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in params.items()}
    entries = []
    for name, p in params.items():
        size = p.data.size
        coords = (np.arange(size) if size <= max_coords
                  else rng.choice(size, size=max_coords, replace=False))
        flat = p.data.reshape(-1)
        worst = 0.0
        for c in coords:
            keep = flat[c]
            flat[c] = keep + epsilon
            f_plus = float(scaled_loss().data[0, 0])
            flat[c] = keep - epsilon
            f_minus = float(scaled_loss().data[0, 0])
            flat[c] = keep
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            worst = max(worst, relative_error(analytic[name].reshape(-1)[c], numeric))
        entries.append(GradCheckEntry(name=name, max_rel_err=worst,
                                      checked=len(coords)))
    return GradCheckReport(entries=entries, tolerance=tolerance)
