"""MSE loss, Adam, training/eval loops, and a finite-difference gradient
checker."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from . import tensor
from .data import DataError, WindowSet
from .model import ForecasterModel
from .tensor import (
    ComputationTape,
    ContractError,
    DimensionError,
    Tensor,
    _record,
    accumulate_grad,
    atomic_write,
    backward,
    multiply,
    row_tiles,
    zero_grads,
)


VAL_WINDOWS = 64                # validation windows train scores each epoch


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
        for name, low in (("batch_size", 1), ("epochs", 0), ("patience", 0),
                          ("max_iterations", 1)):
            if getattr(self, name) is not None and getattr(self, name) < low:
                raise ContractError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ContractError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        for name in ("learning_rate", "epsilon", "grad_clip", "lr_decay"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ContractError(f"{name} must be finite and > 0, got {value}")


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean over all entries of squared differences: one tape node, whose
    rule holds only d = pred - target, bit for bit the composed
    multiply(sum_all(multiply(d, d)), 1/n), forward and backward."""
    if pred.shape != target.shape:
        raise DimensionError(
            f"mse_loss: shapes differ: {pred.shape} vs {target.shape}")
    d = pred.data - target.data
    scale = 1.0 / d.size
    out = Tensor(np.array([[(d * d).sum()]]) * scale)
    pred_slot, target_slot, out_slot = pred.slot, target.slot, out.slot

    def backward_fn():
        # as composed: d * d's rule feeds each of its two factors full * d
        full = np.full(d.shape, (out_slot.grad * scale)[0, 0])
        gd = full * d
        gd += full * d
        accumulate_grad(pred_slot, gd, owned=True)
        accumulate_grad(target_slot, -gd, owned=True)

    return _record("mse_loss", out, (pred, target), backward_fn)


class AdamState:
    """First/second moment estimates plus the step count."""

    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0


def adam_step(params: Mapping[str, Tensor],
              grads: dict[str, np.ndarray],
              state: AdamState,
              cfg: TrainConfig,
              learning_rate: Optional[float] = None) -> None:
    """One Adam update with bias correction over every named parameter,
    after clipping the gradients' global norm to cfg.grad_clip when set.

    Consumes grads: each parameter's gradient is popped as it is applied,
    its buffer reused for the update's denominator (a caller must not read
    it afterwards) and freed before the next parameter's moments are
    allocated, and grads comes back empty.  Each parameter is updated a
    row tile of about 128 * tensor.TILE_ROWS elements (0.5 MiB), read
    when it runs, at a time, so the update's one temporary is a tile big;
    the arithmetic is elementwise, so the tiles change no bit.  Every
    name is checked (and the clip applied) first, so a rejected call
    leaves grads untouched."""
    for name in params:
        if name not in grads or grads[name] is None:
            raise ContractError(f"adam_step: no gradient for parameter {name!r}")
    if cfg.grad_clip is not None:
        _clip_grads(grads, cfg.grad_clip)
    lr = cfg.learning_rate if learning_rate is None else learning_rate
    state.t += 1
    t = state.t
    correct1 = 1.0 - cfg.beta1 ** t
    correct2 = 1.0 - cfg.beta2 ** t
    for name, p in params.items():
        g = grads.pop(name)
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        for rows in row_tiles(p.shape[0], tensor.TILE_ROWS * 128 // p.shape[1]):
            _adam_update(p.data[rows], m[rows], v[rows], g[rows], cfg, lr, correct1, correct2)


def _adam_update(p: np.ndarray, m: np.ndarray, v: np.ndarray, g: np.ndarray,
                 cfg: TrainConfig, lr: float, correct1: float, correct2: float) -> None:
    """adam_step's update of the values p, in place, with the arithmetic and
    order of
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        p -= lr * (m / correct1) / (sqrt(v / correct2) + epsilon)
    and one temporary: the denominator is written over g."""
    tmp = np.multiply(g, 1.0 - cfg.beta1)
    m *= cfg.beta1
    m += tmp
    np.multiply(g, 1.0 - cfg.beta2, out=tmp)
    tmp *= g
    v *= cfg.beta2
    v += tmp
    denom = np.divide(v, correct2, out=g)
    np.sqrt(denom, out=denom)
    denom += cfg.epsilon
    np.divide(m, correct1, out=tmp)
    tmp *= lr
    tmp /= denom
    p -= tmp


def _clip_grads(grads: dict[str, np.ndarray], max_norm: float) -> None:
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale


def evaluate(model: ForecasterModel, windows: WindowSet,
             limit: Optional[int] = None) -> float:
    """Mean MSE over the first limit (input, target) pairs of windows (all
    when limit is None), no gradients recorded."""
    if limit is not None and limit < 1:
        raise ContractError(f"limit must be None or >= 1, got {limit}")
    windows = windows[:limit]
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
        with atomic_write(path, newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_mse", "val_mse"])
            for epoch, train_mse, val_mse in self.epochs:
                writer.writerow([epoch, repr(train_mse),
                                 repr(val_mse) if not math.isnan(val_mse) else ""])


def train(model: ForecasterModel, train_set: WindowSet, cfg: TrainConfig,
          val_set: Optional[WindowSet] = None,
          checkpoint_path=None) -> TrainHistory:
    """Deterministic training given the seed: per-epoch shuffling comes from
    one seeded generator, batches average window losses, and the best-val
    parameters are checkpointed when a path is given.  Each batch's
    gradients move from the parameters into the dict adam_step consumes,
    so none outlives its update and every p.grad is None on return.  Each
    epoch's validation MSE is that of the first VAL_WINDOWS windows of
    val_set."""
    if not train_set:
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
        order = rng.permutation(len(train_set))
        epoch_losses = []
        for lo in range(0, len(order), cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            zero_grads(params.values())
            batch_loss = 0.0
            with ComputationTape() as tape:
                for idx in batch:
                    x, y = train_set[idx]
                    window_loss = mse_loss(model.forward(Tensor(x)), Tensor(y))
                    batch_loss += float(window_loss.data[0, 0]) / len(batch)
                    # scale so accumulated grads form the batch-mean gradient
                    backward(multiply(window_loss, 1.0 / len(batch)), tape)
            grads = {name: p.grad for name, p in params.items()}
            zero_grads(params.values())     # so adam_step frees each one
            adam_step(params, grads, state, cfg, learning_rate=lr)
            epoch_losses.append(batch_loss)
            history.iteration_losses.append(batch_loss)
            iterations += 1
            if cfg.max_iterations is not None and iterations >= cfg.max_iterations:
                break
        train_mse = float(np.mean(epoch_losses)) if epoch_losses else math.nan
        val_mse = evaluate(model, val_set, limit=VAL_WINDOWS) if val_set else math.nan
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


@dataclass
class GradCheckEntry:
    name: str
    max_rel_err: float
    checked: int


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry]
    tolerance: float

    def passes(self, e: GradCheckEntry) -> bool:
        """The one pass rule: a NaN error never passes."""
        return e.max_rel_err < self.tolerance

    @property
    def failures(self) -> list[GradCheckEntry]:
        return [e for e in self.entries if not self.passes(e)]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def worst(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)

    def lines(self) -> list[str]:
        out = []
        for e in self.entries:
            status = "ok" if self.passes(e) else "FAIL"
            out.append(f"{status:4s} {e.name:40s} max_rel_err={e.max_rel_err:.3e} "
                       f"({e.checked} coords)")
        return out


def relative_error(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


GRAD_CHECK_LOSS_SCALE = 1e-4    # why: see grad_check
GRAD_CHECK_COORDS = 32          # coordinates grad_check perturbs per tensor, at most


def grad_check(loss_fn: Callable[[], Tensor],
               params: Mapping[str, Tensor],
               epsilon: float = 1e-6,
               tolerance: float = 1e-5,
               seed: int = 0) -> GradCheckReport:
    """Compare analytic gradients against central differences.

    loss_fn must rebuild the forward pass from the current parameter values
    each call.  Per tensor, at most GRAD_CHECK_COORDS randomly sampled
    coordinates are perturbed by +/- epsilon.

    The loss is multiplied by GRAD_CHECK_LOSS_SCALE before differencing: an
    O(1) loss carries ~1 ulp of forward roundoff, which at epsilon=1e-6
    shows up as ~5e-11 of difference noise, above the 1e-8 comparison floor
    for coordinates whose true gradient is (near) zero.  Scaling shrinks the
    noise and the gradients together, so agreement checks are unaffected
    while the floor does its job.

    epsilon and tolerance must be finite and > 0, else ContractError.
    """
    for name, value in (("epsilon", epsilon), ("tolerance", tolerance)):
        if not (math.isfinite(value) and value > 0):
            raise ContractError(f"grad_check: {name} must be finite and > 0, got {value}")
    rng = np.random.default_rng(seed)

    def scaled_loss() -> Tensor:
        return multiply(loss_fn(), GRAD_CHECK_LOSS_SCALE)

    zero_grads(params.values())
    with ComputationTape() as tape:
        loss = scaled_loss()
        backward(loss, tape)
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in params.items()}
    entries = []
    for name, p in params.items():
        size = p.data.size
        coords = (np.arange(size) if size <= GRAD_CHECK_COORDS
                  else rng.choice(size, size=GRAD_CHECK_COORDS, replace=False))
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
