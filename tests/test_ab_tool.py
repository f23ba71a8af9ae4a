"""``tools/ab.py`` run on this checkout against itself, and on bad arguments.

Both sides are the same source, so the tool must exit 0 and report every
answer identical; a bad argument is a usage error, exit 2.  It runs in a
child process: it imports each side's ``folbend`` afresh, which would
replace the modules these tests hold.
"""
import json
import os
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
    lines = proc.stdout.splitlines()
    (result,) = json.loads(lines[-1])
    assert result["workload"] == workload and result["requests"] == 40
    assert result["identical_answers"] is True
    assert result["base"]["causes"] == result["change"]["causes"] == {}
    assert ("calls_per_op" in result["base"]) == (workload == "tube_sweep")
    assert ("latency_ms_by_kind" in result["base"]) == (workload == "tube_sweep")
    # Nearest-rank p99 of the wall times: at 40 requests rank 40, the slowest.
    for side in ("base", "change"):
        assert max(result[side]["mean_ms"], result[side]["p50_ms"]) <= result[side]["p99_ms"]
        # The first 40 requests of seed 1 hold every kind; the slowest of all is of one of them.
        by_kind = result[side].get("latency_ms_by_kind", {})
        if by_kind:
            assert set(by_kind) == {"bending", "epsilon", "complex_radial", "torus"}
            assert all(0 < ms["p50_ms"] <= ms["p99_ms"] for ms in by_kind.values())
            assert max(ms["p99_ms"] for ms in by_kind.values()) == result[side]["p99_ms"]
    assert result["p99_ms_change_over_base"] == result["change"]["p99_ms"] / result["base"]["p99_ms"]
    assert lines[1].startswith("  p50 / p99 ms by kind: bending ") == (workload == "tube_sweep")


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
    with subprocess.Popen(
        [sys.executable, str(ROOT / "tools" / "ab.py"), "splitting_algebra", str(ROOT),
         str(ROOT), "--seeds", "1", "2", "3", "--requests", "40"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        assert proc.stdout.readline().startswith("splitting_algebra seed 1: ")
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=120) == 0, stderr
    assert "Traceback" not in stderr


@pytest.mark.parametrize("workload", ["tube_sweep", "splitting_algebra", "cli_sessions"])
def test_a_checkout_without_folbend_is_a_usage_error(workload, tmp_path):
    # With this checkout's src on PYTHONPATH, as in the tier-1 command, an
    # empty directory once ran this checkout's folbend as its side and
    # reported identical answers.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for sides in ((ROOT, tmp_path), (tmp_path / "missing", ROOT)):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "ab.py"), workload, *map(str, sides),
             "--seeds", "1", "--requests", "1"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 2, proc.stdout
        assert proc.stdout == "" and "Traceback" not in proc.stderr
        assert "holds no src/folbend/__init__.py" in proc.stderr


@pytest.mark.parametrize("requests", ["0", "-5", "2.5"])
def test_requests_must_be_a_positive_integer(requests):
    # 0 once ran the default 3000 requests, and -5 ended in a traceback.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), "splitting_algebra", str(ROOT),
         str(ROOT), "--requests", requests],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stdout
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert "argument --requests: must be a positive integer" in proc.stderr
