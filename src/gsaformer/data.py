"""CSV ingestion for ETT-style series, standardization, sliding-window
example construction, and synthetic series generation."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta

import numpy as np


class DataError(ValueError):
    """Bad input data or an impossible windowing request."""


@dataclass
class DataConfig:
    """Where a series comes from and how it is split into windows."""
    target: str = "OT"             # target column of a CSV file
    split_train: float = 0.7
    split_val: float = 0.1
    split_test: float = 0.2
    window_stride: int = 1
    synth_kind: str = "sine_mix"   # the synthetic series used without a CSV
    synth_rows: int = 2000
    synth_features: int = 2

    @property
    def split_ratios(self) -> tuple[float, float, float]:
        return (self.split_train, self.split_val, self.split_test)


@dataclass
class TimeSeries:
    timestamps: list[str]
    values: np.ndarray            # T x F, float64
    feature_names: list[str]
    target_index: int

    @property
    def length(self) -> int:
        return self.values.shape[0]


@dataclass
class NormStats:
    mean: np.ndarray              # per-feature
    std: np.ndarray               # per-feature, degenerate features clamped to 1

    @classmethod
    def from_values(cls, values: np.ndarray) -> "NormStats":
        mean = values.mean(axis=0)
        std = values.std(axis=0)
        std = np.where(std > 1e-12, std, 1.0)
        return cls(mean=mean, std=std)

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std

    def invert(self, values: np.ndarray) -> np.ndarray:
        return values * self.std + self.mean


@dataclass
class WindowSet:
    windows: list[tuple[np.ndarray, np.ndarray]]   # (seq_len x F, pred_len x F)
    split: str                                      # train | val | test
    stats: NormStats = field(repr=False, default=None)

    def __len__(self) -> int:
        return len(self.windows)


def load_csv(path, target_name: str) -> TimeSeries:
    """Parse a `date,<feature>,...` CSV into a TimeSeries.

    The first column is an opaque date string kept only for ordering; every
    other column must be numeric in every row.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if len(header) < 2:
            raise DataError(f"{path}: need a date column plus at least one feature")
        feature_names = header[1:]
        if target_name not in feature_names:
            raise DataError(
                f"{path}: target column {target_name!r} not found; "
                f"available: {feature_names}")
        timestamps = []
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}: row {line_no} has {len(row)} cells, "
                                f"expected {len(header)}")
            timestamps.append(row[0])
            try:
                rows.append([float(cell) for cell in row[1:]])
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric cell in row {line_no}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    return TimeSeries(
        timestamps=timestamps,
        values=np.asarray(rows, dtype=np.float64),
        feature_names=feature_names,
        target_index=feature_names.index(target_name),
    )


def write_csv(ts: TimeSeries, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date"] + ts.feature_names)
        for stamp, row in zip(ts.timestamps, ts.values):
            writer.writerow([stamp] + [repr(float(v)) for v in row])


def standardize(ts: TimeSeries, stats: "NormStats | WindowSet | None" = None,
                ) -> tuple[TimeSeries, NormStats]:
    """(x - mean) / std per feature; stats come from a WindowSet (its train
    statistics), an explicit NormStats, or default to the series itself.
    NormStats.invert undoes the transform exactly (up to rounding)."""
    if isinstance(stats, WindowSet):
        stats = stats.stats
    if stats is None:
        stats = NormStats.from_values(ts.values)
    return TimeSeries(
        timestamps=list(ts.timestamps),
        values=stats.apply(ts.values),
        feature_names=list(ts.feature_names),
        target_index=ts.target_index,
    ), stats


def window_count(t: int, seq_len: int, pred_len: int, stride: int = 1) -> int:
    usable = t - (seq_len + pred_len) + 1
    return 0 if usable <= 0 else (usable + stride - 1) // stride


def _slice_windows(values: np.ndarray, seq_len: int, pred_len: int,
                   stride: int) -> list[tuple[np.ndarray, np.ndarray]]:
    out = []
    total = seq_len + pred_len
    for start in range(0, values.shape[0] - total + 1, stride):
        out.append((values[start:start + seq_len].copy(),
                    values[start + seq_len:start + total].copy()))
    return out


def make_windows(ts: TimeSeries, seq_len: int, pred_len: int,
                 split_ratios: tuple[float, float, float] = (0.7, 0.1, 0.2),
                 stride: int = 1,
                 ) -> tuple[WindowSet, WindowSet, WindowSet]:
    """Chronological split, then stride-windowed (input, target) pairs.

    All three splits are normalized with statistics computed from the train
    split only, so nothing leaks backward from val/test.
    """
    if stride < 1:
        raise DataError(f"stride must be >= 1, got {stride}")
    if not math.isclose(sum(split_ratios), 1.0, abs_tol=1e-9):
        raise DataError(f"split ratios must sum to 1, got {split_ratios}")
    t = ts.length
    n_train = int(t * split_ratios[0])
    n_val = int(t * split_ratios[1])
    bounds = {
        "train": (0, n_train),
        "val": (n_train, n_train + n_val),
        "test": (n_train + n_val, t),
    }
    minimum = seq_len + pred_len
    ratios = dict(zip(("train", "val", "test"), split_ratios))
    for split, (lo, hi) in bounds.items():
        if ratios[split] > 0.0 and hi - lo < minimum:
            raise DataError(
                f"{split} split has {hi - lo} rows; needs at least "
                f"{minimum} (seq_len + pred_len)")
    stats = NormStats.from_values(ts.values[:n_train])
    sets = []
    for split, (lo, hi) in bounds.items():
        normalized = stats.apply(ts.values[lo:hi])
        sets.append(WindowSet(
            windows=_slice_windows(normalized, seq_len, pred_len, stride),
            split=split, stats=stats))
    return tuple(sets)


def synthetic_series(kind: str, t: int, f: int, seed: int) -> TimeSeries:
    """Deterministic synthetic series: sine_mix (incommensurate sinusoids
    plus small noise), trend_plus_season, or white_noise."""
    if t <= 0 or f <= 0:
        raise DataError(f"T and F must be positive, got T={t}, F={f}")
    rng = np.random.default_rng(seed)
    steps = np.arange(t, dtype=np.float64)
    values = np.zeros((t, f))
    if kind == "sine_mix":
        base_period = 24.0
        for j in range(f):
            phases = rng.uniform(0, 2 * np.pi, size=3)
            # irrational period ratios keep the components incommensurate
            values[:, j] = (
                1.0 * np.sin(2 * np.pi * steps / base_period + phases[0])
                + 0.4 * np.sin(2 * np.pi * steps / (base_period * np.sqrt(2)) + phases[1])
                + 0.25 * np.sin(2 * np.pi * steps / (base_period * np.e / 2.0) + phases[2])
                + rng.normal(0.0, 0.05, size=t)
            )
    elif kind == "trend_plus_season":
        for j in range(f):
            slope = rng.uniform(-0.01, 0.01)
            phase = rng.uniform(0, 2 * np.pi)
            values[:, j] = (slope * steps
                            + np.sin(2 * np.pi * steps / 24.0 + phase)
                            + rng.normal(0.0, 0.05, size=t))
    elif kind == "white_noise":
        values = rng.normal(0.0, 1.0, size=(t, f))
    else:
        raise DataError(f"unknown synthetic kind {kind!r}; "
                        "use sine_mix, trend_plus_season, or white_noise")
    names = [f"f{j}" for j in range(f - 1)] + ["OT"]
    start = datetime(2020, 1, 1)
    stamps = [(start + timedelta(hours=i)).strftime("%Y-%m-%d %H:%M:%S")
              for i in range(t)]
    return TimeSeries(timestamps=stamps, values=values,
                      feature_names=names, target_index=f - 1)
