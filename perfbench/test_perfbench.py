"""Checks of the benchmark itself, at tiny shapes so that every workload's
code path runs, untraced and traced, in a few seconds:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 1


def _run(capsys, tmp_path: Path, workload: str, trace: int):
    argv = ["--workload", workload, "--seed", str(SEED), "--seconds", "0.3",
            "--trace", str(trace)]
    assert run.main(argv, tiny=True, out_dir=tmp_path) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _printed(table: list[str], name: str, unit: str) -> bool:
    return any(line.split()[:1] == [name] and line.split()[2] == unit for line in table)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_are_printed_with_units(capsys, tmp_path, workload):
    table, result = _run(capsys, tmp_path, workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in {**declared, "error_rate": "fraction"}.items():
        assert _printed(table, name, unit), name
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_per_layer_metrics_and_backward_rules_fit_in_backward(capsys, tmp_path, workload):
    import gsaformer.gsa
    import gsaformer.model
    table, result = _run(capsys, tmp_path, workload, trace=1)
    # correct implies every traced round ended on the untraced final_mse
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert _printed(table, name, unit), name

    dump = json.loads((tmp_path / f"trace-{workload}-seed{SEED}.json").read_text())
    fields = dump["span_fields"]
    name_at, dur_at = fields.index("name"), fields.index("dur_us")
    backward_spans = [s for s in dump["spans"] if s[name_at] == "tensor.backward"]
    backward_us = sum(s[dur_at] for s in backward_spans)
    per_op_us = sum(op["bwd_ms"] for op in dump["backward_ops"].values()) * 1e3
    # span durations are rounded to 0.1 us each
    assert per_op_us <= backward_us + 0.05 * len(backward_spans)
    if workload != "infer_long":
        assert per_op_us > 0
    # the tracer put every original back
    assert gsaformer.model.gsa_forward is gsaformer.gsa.gsa_forward
    assert not hasattr(gsaformer.model.gsa_forward, "__wrapped__")


def test_failed_checks_are_counted(capsys, tmp_path, monkeypatch):
    from gsaformer.model import ForecasterModel
    closed_form = ForecasterModel.closed_form_score_elements
    monkeypatch.setattr(ForecasterModel, "closed_form_score_elements",
                        lambda self: closed_form(self) + 1)
    _, result = _run(capsys, tmp_path, "infer_long", trace=0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_exits_nonzero_without_the_sources(tmp_path):
    """With only BENCHMARK.json and the benchmark's files, no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    bench_dir = Path(run.__file__).resolve().parent
    shutil.copytree(bench_dir, tmp_path / bench_dir.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{bench_dir.name}/run.py", "--workload", "train_small",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
