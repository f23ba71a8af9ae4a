"""``tools/ab.py`` run on this checkout against itself.

Both sides are the same source, so the tool must exit 0 and report every
answer identical.  It runs in a child process: it imports each side's
``folbend`` afresh, which would replace the modules these tests hold.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["tube_sweep", "splitting_algebra"])
def test_checkout_against_itself(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), workload, str(ROOT), str(ROOT),
         "--seeds", "1", "--requests", "40"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    (result,) = json.loads(proc.stdout.splitlines()[-1])
    assert result["workload"] == workload and result["requests"] == 40
    assert result["identical_answers"] is True
    assert result["base"]["causes"] == result["change"]["causes"] == {}
    assert ("calls_per_op" in result["base"]) == (workload == "tube_sweep")
    # Nearest-rank p99 of the wall times: at 40 requests rank 40, the slowest.
    for side in ("base", "change"):
        assert max(result[side]["mean_ms"], result[side]["p50_ms"]) <= result[side]["p99_ms"]
    assert result["p99_ms_change_over_base"] == result["change"]["p99_ms"] / result["base"]["p99_ms"]


def test_cli_sessions_reports_child_cpu_by_command():
    # Eight requests are one full command deck: each subcommand runs once per side.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), "cli_sessions", str(ROOT), str(ROOT),
         "--seeds", "1", "--requests", "8"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    (result,) = json.loads(lines[-1])
    assert result["identical_answers"] is True
    commands = {"table1", "check-integral", "bending", "minimizer", "complex-radial", "torus",
                "bounds", "selfcheck"}
    for side in ("base", "change"):
        by_command = result[side]["cpu_ms_by_command"]
        assert set(by_command) == commands and all(ms > 0 for ms in by_command.values())
    assert lines[1].startswith("  median child cpu_ms by command: bending ")


def test_a_reader_that_closes_early_ends_the_run_quietly():
    # As in ``tools/ab.py ... | head -1``: the pipe closes after the first
    # seed's line, so a later line cannot be written.
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "tools" / "ab.py"), "splitting_algebra", str(ROOT),
         str(ROOT), "--seeds", "1", "2", "3", "--requests", "40"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert proc.stdout.readline().startswith("splitting_algebra seed 1: ")
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=120) == 0, stderr
    assert "Traceback" not in stderr
