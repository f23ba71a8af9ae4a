"""Result definitions and the refusal to run without a program."""
import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parents[2]


def test_tail_is_the_highest_ladder_percentile_with_ten_beyond():
    values = [float(i) for i in range(1, 101)]
    pct, value, beyond = run.tail(values)
    assert (pct, value, beyond) == (80.0, 80.0, 20)
    assert run.nearest_rank(values, 50.0) == (50.0, 50)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tube_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_run_reports_every_per_layer_metric(capsys):
    args = argparse.Namespace(workload="splitting_algebra", seed=3, seconds=0.5, trace=1)
    result = run.traced_run(args)
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert list(result["metrics"]) == names
    assert result["failed"] == 0 and result["attempted"] >= 1
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert 0.0 < metrics["trace.unattributed_share"] < 1.0
    assert metrics["torsion.derive_calls_per_op"] > 0
