"""Scaling benchmark: sweep sequence lengths per attention mechanism,
recording instrumented score-element counts, peak score-buffer sizes, and
wall-clock time per training iteration, as plot-ready CSV.

Memory is reported as score-buffer elements, not process RSS: the peak is
the largest logical score matrix (one group of one head for GSA, the
larger of a causal group's two blocks, one head for canonical attention),
so it reflects the mechanism's working-set claim and is deterministic.
The real buffers differ.  The fused GSA op holds the probabilities of a
half tile of every head's groups at a time (4 heads x 4 groups at
l_g = 64, forward and backward; a causal group's two blocks, 3/4 of its
l_g^2), and its summary rows' of one head's half tile of queries at a
time forward, a whole head backward.  CCA holds 256 queries of one head
forward and a whole head backward.  No rule keeps scores on the tape.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass

import numpy as np

from .attention import OpCounter
from .data import DataError, synthetic_series
from .model import ForecasterModel, ModelConfig
from .tensor import ComputationTape, Tensor, atomic_write, backward, zero_grads
from .training import mse_loss

MECHANISMS = ("grouped", "grouped_local_only", "canonical")

CSV_HEADER = ["mechanism", "seq_len", "score_elements", "peak_score_buffer",
              "wall_ms_per_iter", "closed_form_elements"]

@dataclass
class BenchConfig:
    d: int = 256
    heads: int = 4
    ffn_hidden: int = 256
    e_l: int = 3
    d_l: int = 3
    l_g: int = 64
    l_s: int = 4
    l_comp: int = 256
    n_features: int = 7
    label_len: int = 0
    seed: int = 0
    min_cell_seconds: float = 0.5
    timing: bool = True


@dataclass
class BenchRow:
    mechanism: str
    seq_len: int
    score_elements: int
    peak_score_buffer: int
    wall_ms_per_iter: float
    closed_form_elements: int


def model_config_for(mechanism: str, seq_len: int, cfg: BenchConfig) -> ModelConfig:
    if mechanism not in MECHANISMS:
        raise DataError(f"unknown mechanism {mechanism!r}; choose from {MECHANISMS}")
    common = dict(
        seq_len=seq_len, pred_len=seq_len,
        n_features_in=cfg.n_features, n_features_out=cfg.n_features,
        d=cfg.d, heads=cfg.heads, e_l=cfg.e_l, d_l=cfg.d_l,
        label_len=cfg.label_len, ffn_hidden=cfg.ffn_hidden,
    )
    if mechanism == "canonical":
        # one group covering the whole sequence degenerates to full
        # attention; matching l_comp to l_enc bypasses compression
        if cfg.label_len != 0:
            raise DataError("canonical mechanism needs label_len=0 so one "
                            "group covers encoder and decoder exactly")
        return ModelConfig(l_g=seq_len, l_s=max(1, cfg.l_s), l_comp=seq_len,
                           ablation_local_only=True, **common)
    return ModelConfig(l_g=cfg.l_g, l_s=cfg.l_s, l_comp=cfg.l_comp,
                       ablation_local_only=(mechanism == "grouped_local_only"),
                       **common)


def _one_iteration(model: ForecasterModel, x: np.ndarray, y: np.ndarray) -> None:
    params = model.parameters()
    zero_grads(params.values())
    with ComputationTape() as tape:
        loss = mse_loss(model.forward(Tensor(x)), Tensor(y))
        backward(loss, tape)


def run_scaling_benchmark(lengths: list[int], mechanisms: list[str],
                          cfg: BenchConfig) -> list[BenchRow]:
    """One row per (mechanism, length), ordered by (mechanism, length):
    counters from one instrumented forward, wall time averaged over enough
    iterations to fill min_cell_seconds.  An out-of-memory cell is recorded
    as a row with -1 counts and no wall time instead of aborting the
    sweep."""
    if sorted(set(lengths)) != list(lengths):
        raise DataError(f"lengths must be distinct and sorted ascending, got {lengths}")
    if len(set(mechanisms)) != len(mechanisms):
        raise DataError(f"mechanisms must be distinct, got {mechanisms}")
    rows = []
    for mechanism in mechanisms:
        for seq_len in lengths:
            model_cfg = model_config_for(mechanism, seq_len, cfg)
            closed_form = None
            try:
                model = ForecasterModel(model_cfg, seed=cfg.seed)
                closed_form = model.closed_form_score_elements()
                series = synthetic_series("sine_mix", seq_len * 2,
                                          cfg.n_features, cfg.seed)
                x = series.values[:seq_len]
                y = series.values[seq_len:seq_len * 2]
                counter = OpCounter()
                model.forward(Tensor(x), counter)
                wall_ms = math.nan
                if cfg.timing:
                    _one_iteration(model, x, y)   # warm-up
                    start = time.perf_counter()
                    _one_iteration(model, x, y)
                    once = time.perf_counter() - start
                    n = max(1, math.ceil(cfg.min_cell_seconds / max(once, 1e-9)) - 1)
                    start = time.perf_counter()
                    for _ in range(n):
                        _one_iteration(model, x, y)
                    wall_ms = (once + time.perf_counter() - start) / (n + 1) * 1000.0
                rows.append(BenchRow(
                    mechanism=mechanism, seq_len=seq_len,
                    score_elements=counter.score_elements,
                    peak_score_buffer=counter.peak_score_buffer,
                    wall_ms_per_iter=wall_ms,
                    closed_form_elements=closed_form))
            except MemoryError:
                rows.append(BenchRow(
                    mechanism=mechanism, seq_len=seq_len,
                    score_elements=-1, peak_score_buffer=-1,
                    wall_ms_per_iter=math.nan,
                    closed_form_elements=closed_form if closed_form else -1))
    rows.sort(key=lambda r: (r.mechanism, r.seq_len))
    return rows


def emit_csv_report(rows: list[BenchRow], path) -> None:
    """Fixed header, one line per row, ordered by (mechanism, length)."""
    if not rows:
        raise DataError("emit_csv_report: empty report")
    with atomic_write(path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in sorted(rows, key=lambda r: (r.mechanism, r.seq_len)):
            wall = "" if math.isnan(r.wall_ms_per_iter) else repr(r.wall_ms_per_iter)
            writer.writerow([r.mechanism, r.seq_len, r.score_elements,
                             r.peak_score_buffer, wall, r.closed_form_elements])
