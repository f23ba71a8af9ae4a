"""Is the benchmark steady on this machine?  Run it several times and look.

    python3 perfbench/steady.py --workload tube_sweep --seeds 1 2 --repeat 3
    python3 perfbench/steady.py --workload cli_sessions --seeds 1 2 3 4 5 6 7 8 9 10

Each seed is run ``--repeat`` times, one run after the other, untraced and
for ``run_seconds`` from BENCHMARK.json, as the benchmark is defined.  For every
end-to-end metric the report gives, per seed and over all runs, the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json.  A
spread under a third of the bound is marked ``steady``.  The header records
the Python and numpy versions, the processor count and the load average,
because a spread means little without them.  All runs are also written as
JSON lines to ``.bench_out/steady-<workload>.jsonl``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> str:
    import numpy

    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"nproc {os.cpu_count()}, load average {' '.join(f'{x:.2f}' for x in os.getloadavg())}")


def report(runs: list[tuple[int, dict]], spec: dict) -> None:
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seeds = sorted({seed for seed, _ in runs})
    names = list(runs[0][1]["metrics"])
    for name in names:
        groups = [(f"seed {s}", [r["metrics"][name]["value"] for t, r in runs if t == s])
                  for s in seeds] if len(seeds) > 1 else []
        groups.append(("all", [r["metrics"][name]["value"] for _, r in runs]))
        bound = bounds.get(name)
        for label, values in groups:
            median, q1, q3, rel = spread(values)
            verdict = ""
            if bound is not None and label == "all":
                verdict = "steady" if rel < bound / 3 else "NOT steady"
                verdict = f"  bound {bound:g}  {verdict}"
            print(f"{name:>18} {label:>8} n={len(values):<3} median {median:<12.6g} "
                  f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {rel:.4f}{verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    print(f"{args.workload}: seeds {args.seeds} x {args.repeat}, {seconds} s per run")
    print(environment())
    out = ROOT / ".bench_out" / f"steady-{args.workload}.jsonl"
    out.parent.mkdir(exist_ok=True)
    runs = []
    with out.open("a") as log:
        for seed in args.seeds:
            for _ in range(args.repeat):
                result = run_once(args.workload, seed, seconds)
                runs.append((seed, result))
                log.write(json.dumps({"seed": seed, **result}) + "\n")
                print(f"  seed {seed}: attempted {result['attempted']}, failed {result['failed']}, "
                      + ", ".join(f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()),
                      flush=True)
    print(environment())
    report(runs, spec)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
