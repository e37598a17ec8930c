import csv
import math
import tracemalloc

import numpy as np
import pytest

import gsaformer.benchmark as benchmark
from gsaformer.benchmark import (
    BenchConfig,
    BenchRow,
    CSV_HEADER,
    emit_csv_report,
    model_config_for,
    run_scaling_benchmark,
)
from gsaformer.data import DataError
from gsaformer.gsa import gsa_op_count
from gsaformer.model import ForecasterModel
from gsaformer.tensor import ComputationTape, Tensor, backward
from gsaformer.training import mse_loss


def tiny_bench_cfg(timing=False):
    return BenchConfig(d=8, heads=1, ffn_hidden=8, e_l=1, d_l=1,
                       l_g=16, l_s=2, l_comp=8, n_features=2, label_len=0,
                       seed=0, timing=timing, min_cell_seconds=0.05)


class TestClosedForms:
    def test_grouped_examples_from_count_formula(self):
        assert gsa_op_count(512, 64, 4, True) == 33792
        assert gsa_op_count(1024, 64, 4, True) == 69632
        ratio = 69632 / 33792
        assert abs(ratio - 2.06) < 0.01
        # the whole bench model (train_long and infer_long), whose causal
        # decoder groups score 3,072 of their 4,096 elements
        assert [ForecasterModel(model_config_for("grouped", l, BenchConfig()))
                .closed_form_score_elements() for l in (1440, 2880)] == [6503616, 13106880]

    def test_canonical_examples(self):
        assert 512 ** 2 == 262144
        assert 1024 ** 2 == 1048576
        assert 1048576 / 262144 == 4.0

    def test_grouped_local_only_at_512(self):
        assert gsa_op_count(512, 64, 4, False) == 32768


class TestRunScalingBenchmark:
    def test_instrumented_equals_closed_form_per_row(self):
        rows = run_scaling_benchmark(
            [32, 64], ["grouped", "grouped_local_only", "canonical"],
            tiny_bench_cfg())
        assert len(rows) == 6
        for row in rows:
            assert row.score_elements == row.closed_form_elements, row

    def test_rows_sorted_by_mechanism_then_length(self):
        rows = run_scaling_benchmark([32, 64], ["grouped", "canonical"],
                                       tiny_bench_cfg())
        keys = [(r.mechanism, r.seq_len) for r in rows]
        assert keys == sorted(keys)

    def test_canonical_grows_quadratically_grouped_linearly(self):
        rows = run_scaling_benchmark([32, 64, 128], ["grouped", "canonical"],
                                       tiny_bench_cfg())
        by_mech = {}
        for row in rows:
            by_mech.setdefault(row.mechanism, []).append(row.score_elements)
        canonical = by_mech["canonical"]
        grouped = by_mech["grouped"]
        assert canonical[1] / canonical[0] == pytest.approx(4.0, rel=0.05)
        assert grouped[2] / grouped[1] < 2.6

    def test_unsorted_lengths_rejected(self):
        with pytest.raises(DataError):
            run_scaling_benchmark([64, 32], ["grouped"], tiny_bench_cfg())

    @pytest.mark.parametrize("lengths, mechanisms", [([32, 32], ["grouped"]),
                                                     ([32], ["grouped", "grouped"])])
    def test_repeated_length_or_mechanism_rejected(self, lengths, mechanisms):
        # a repeat would give its cells twice: [32, 32] x ["grouped",
        # "grouped"] gave four rows
        with pytest.raises(DataError):
            run_scaling_benchmark(lengths, mechanisms, tiny_bench_cfg(timing=False))

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(DataError):
            model_config_for("probsparse", 64, tiny_bench_cfg())

    def test_out_of_memory_cell_gives_marker_row_and_the_sweep_goes_on(self, monkeypatch):
        # canonical at 32 fails before its model exists, grouped at 64 after
        # its closed form is known; the cells after each still run
        cfg = tiny_bench_cfg(timing=True)
        real_model, real_series = benchmark.ForecasterModel, benchmark.synthetic_series
        series_calls = []

        def model(model_cfg, seed):
            if model_cfg.l_g == model_cfg.seq_len == 32:
                raise MemoryError
            return real_model(model_cfg, seed=seed)

        def series(kind, t, f, seed):
            series_calls.append(t)
            if t == 128 and series_calls.count(t) == 1:
                raise MemoryError
            return real_series(kind, t, f, seed)

        monkeypatch.setattr(benchmark, "ForecasterModel", model)
        monkeypatch.setattr(benchmark, "synthetic_series", series)
        rows = run_scaling_benchmark([32, 64], ["grouped", "canonical"], cfg)
        assert [(r.mechanism, r.seq_len) for r in rows] == [
            ("canonical", 32), ("canonical", 64), ("grouped", 32), ("grouped", 64)]
        grouped_64 = real_model(model_config_for("grouped", 64, cfg), seed=0)
        failed = {(r.mechanism, r.seq_len): r for r in rows if r.score_elements == -1}
        assert failed.keys() == {("canonical", 32), ("grouped", 64)}
        assert failed["canonical", 32].closed_form_elements == -1
        assert (failed["grouped", 64].closed_form_elements
                == grouped_64.closed_form_score_elements())
        for r in rows:
            if (r.mechanism, r.seq_len) in failed:
                assert r.peak_score_buffer == -1 and math.isnan(r.wall_ms_per_iter)
            else:
                assert r.score_elements == r.closed_form_elements > 0
                assert r.wall_ms_per_iter > 0.0

    def test_timing_populates_wall_clock(self):
        rows = run_scaling_benchmark([32], ["grouped"], tiny_bench_cfg(timing=True))
        assert rows[0].wall_ms_per_iter > 0.0


class TestEmitCsv:
    def test_header_and_row_count(self, tmp_path):
        rows = run_scaling_benchmark([32, 64], ["grouped"], tiny_bench_cfg())
        path = tmp_path / "bench.csv"
        emit_csv_report(rows, path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 3

    def test_roundtrip_parse_recovers_numbers(self, tmp_path):
        rows = run_scaling_benchmark([32], ["grouped", "canonical"],
                                       tiny_bench_cfg())
        path = tmp_path / "bench.csv"
        emit_csv_report(rows, path)
        with open(path, newline="", encoding="utf-8") as fh:
            parsed_rows = list(csv.DictReader(fh))
        assert len(parsed_rows) == 2
        for parsed, row in zip(parsed_rows, rows):
            assert parsed["mechanism"] == row.mechanism
            assert int(parsed["seq_len"]) == row.seq_len
            assert int(parsed["score_elements"]) == row.score_elements
            assert int(parsed["peak_score_buffer"]) == row.peak_score_buffer
            assert int(parsed["closed_form_elements"]) == row.closed_form_elements

    def test_empty_report_is_an_error_and_no_file(self, tmp_path):
        path = tmp_path / "bench.csv"
        with pytest.raises(DataError):
            emit_csv_report([], path)
        assert not path.exists()

    def test_no_timing_output_is_deterministic(self, tmp_path):
        blobs = []
        for i in range(2):
            rows = run_scaling_benchmark([32, 64], ["grouped"], tiny_bench_cfg())
            path = tmp_path / f"bench{i}.csv"
            emit_csv_report(rows, path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_failure_marker_row_serializes(self, tmp_path):
        rows = [BenchRow(
            mechanism="canonical", seq_len=99999, score_elements=-1,
            peak_score_buffer=-1, wall_ms_per_iter=math.nan,
            closed_form_elements=-1)]
        path = tmp_path / "bench.csv"
        emit_csv_report(rows, path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 2 and lines[1].startswith("canonical,99999,-1")


SPACE_BENCH = BenchConfig(d=16, heads=2, ffn_hidden=16, e_l=1, d_l=1,
                          l_g=16, l_s=2, l_comp=32, label_len=0)


def training_peak_bytes(mechanism, seq_len):
    """tracemalloc peak of one recorded forward and backward, above what the
    model and the window hold before it."""
    cfg = model_config_for(mechanism, seq_len, SPACE_BENCH)
    model = ForecasterModel(cfg, seed=0)
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(cfg.seq_len, cfg.n_features_in)))
    y = Tensor(rng.normal(size=(cfg.pred_len, cfg.n_features_out)))
    tracemalloc.start()
    try:
        with ComputationTape() as tape:
            backward(mse_loss(model.forward(x), y), tape)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSpaceScaling:
    # the paper's O(l) space claim in real bytes: measured grouped x1.87 and
    # x1.94 per doubling, canonical x3.37 and x3.65 (quadratic score buffers)
    def test_training_peak_grows_linearly_grouped_quadratically_canonical(self):
        def doubling_ratios(mechanism):
            peaks = [training_peak_bytes(mechanism, n) for n in (128, 256, 512)]
            return [b / a for a, b in zip(peaks, peaks[1:])]

        grouped, canonical = doubling_ratios("grouped"), doubling_ratios("canonical")
        assert max(grouped) <= 2.2, (grouped, canonical)
        assert min(canonical) >= 2.5, (grouped, canonical)


@pytest.mark.slow
class TestWallClockScaling:
    def test_doubling_ratio_grouped_below_canonical_above(self):
        # timing-based, so tolerances are deliberately loose; run with
        # `pytest -m slow` on an otherwise idle machine
        cfg = BenchConfig(d=32, heads=1, ffn_hidden=32, e_l=1, d_l=1,
                          l_g=64, l_s=4, l_comp=256, n_features=2,
                          label_len=0, seed=0, timing=True,
                          min_cell_seconds=0.4)
        rows = run_scaling_benchmark([1024, 2048], ["grouped", "canonical"], cfg)
        wall = {(r.mechanism, r.seq_len): r.wall_ms_per_iter for r in rows}
        grouped_ratio = wall[("grouped", 2048)] / wall[("grouped", 1024)]
        canonical_ratio = wall[("canonical", 2048)] / wall[("canonical", 1024)]
        assert grouped_ratio < 3.0, (grouped_ratio, canonical_ratio)
        assert canonical_ratio > 3.0, (grouped_ratio, canonical_ratio)
