"""Benchmark entry point: one seeded workload, timed or traced.

    python3 perfbench/run.py --workload tube_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program under test is
``src/folbend`` of that checkout.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The lines before it say the same for people,
with the tail percentile, the sample counts and the failure breakdown.
See README.md in this directory for the definitions.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("tube_sweep", "cli_sessions", "splitting_algebra")
TAIL_LADDER = (50.0, 80.0, 95.0, 99.0)
SETUP_REPEATS = 7
PROBE_REPEATS = 5


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: import, run one warm-up request, exit")
    return parser.parse_args(argv)


def _spec(section: str) -> list[tuple[str, str]]:
    """(name, unit) of each metric in a section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[section]]


def _report(values: dict[str, float], section: str) -> dict:
    """Every metric of the section, by name with its unit; prints them too."""
    metrics = {}
    for name, unit in _spec(section):
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name} = {values[name]:.6g} {unit}")
    return metrics


def make_workload(name: str):
    if name == "tube_sweep":
        return workloads.TubeSweep()
    if name == "splitting_algebra":
        return workloads.SplittingAlgebra()
    return workloads.CliSessions(ROOT)


def nearest_rank(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """(value at percentile pct, number of samples above its rank)."""
    n = len(sorted_values)
    rank = max(1, math.ceil(n * pct / 100.0))
    return sorted_values[rank - 1], n - rank


def tail(sorted_values: list[float]) -> tuple[float, float, int]:
    """Highest ladder percentile with at least 10 samples beyond it."""
    best = (TAIL_LADDER[0],) + nearest_rank(sorted_values, TAIL_LADDER[0])
    for pct in TAIL_LADDER:
        value, beyond = nearest_rank(sorted_values, pct)
        if beyond >= 10:
            best = (pct, value, beyond)
    return best


def _cpu() -> float:
    """CPU seconds of this process and of every child it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _subprocess_wall(argv: list[str], env: dict, ok_codes=(0,)) -> float:
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=120)
    wall = time.perf_counter() - start
    if proc.returncode not in ok_codes:
        raise RuntimeError(f"{' '.join(argv)} exited with {proc.returncode}")
    return wall


def setup_seconds(wl, args) -> float:
    """Median wall time of fresh interpreters that import and serve one request.

    In-process workloads import the harness and folbend and serve the first
    request of the stream.  For the command line the fresh interpreter is a
    folbend process itself, one for each of the first requests, so that the
    median does not hang on which command a seed happens to draw first.
    """
    env = workloads.child_env(ROOT)
    if wl.name == "cli_sessions":
        first = itertools.islice(wl.requests(args.seed), SETUP_REPEATS)
        # Exit 1 is a report that did not reproduce: still an answer.
        walls = [_subprocess_wall([sys.executable, "-m", "folbend", *req.args[0]], env, (0, 1))
                 for req in first]
    else:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
        walls = [_subprocess_wall(argv, env) for _ in range(SETUP_REPEATS)]
    return statistics.median(walls)


def _run_one(wl, req):
    inp = wl.prepare(req)
    cpu0, t0 = _cpu(), time.perf_counter()
    out = wl.execute(inp)
    t1, cpu1 = time.perf_counter(), _cpu()
    return t1 - t0, cpu1 - cpu0, wl.judge(req, inp, out)


def _warm_up(wl, seed: int):
    """Serve the first request of the stream once, untimed; return it."""
    req = next(wl.requests(seed))
    wl.execute(wl.prepare(req))
    return req


def _failure_counts(causes) -> dict[str, int]:
    return {cause: sum(1 for c in causes if c == cause) for cause in workloads.CAUSES}


def timed_run(args) -> dict:
    wl = make_workload(args.workload)
    _warm_up(wl, args.seed)
    lat, cpu, causes = [], [], []
    start = time.perf_counter()
    for req in wl.requests(args.seed):
        if lat and time.perf_counter() - start >= args.seconds:
            break
        wall, used, cause = _run_one(wl, req)
        lat.append(wall)
        cpu.append(used)
        causes.append(cause)
    usage = resource.RUSAGE_CHILDREN if wl.name == "cli_sessions" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    setup = setup_seconds(wl, args)

    n = len(lat)
    ok = sum(1 for c in causes if c is None)
    ordered = sorted(lat)
    pct, tail_value, beyond = tail(ordered)
    values = {
        "ok_per_s": ok / math.fsum(lat),
        "latency_p50_ms": 1e3 * nearest_rank(ordered, 50.0)[0],
        "latency_tail_ms": 1e3 * tail_value,
        "cpu_ms_per_op": 1e3 * math.fsum(cpu) / n,
        "ok_share": ok / n,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup,
    }
    counts = _failure_counts(causes)
    print(f"{wl.name} seed {args.seed}: {n} operations in {args.seconds:g} s, {ok} correct, "
          f"failed_share {(n - ok) / n:.4f}")
    print("failures by cause: " + ", ".join(f"{k} {v}" for k, v in counts.items()))
    print(f"latency_tail_ms is p{pct:g} of {n} samples ({beyond} beyond it)")
    return _result(n, causes, _report(values, "end_to_end"))


def _result(n: int, causes, metrics: dict) -> dict:
    failed = sum(1 for c in causes if c in workloads.HARD)
    return {"correct": failed == 0, "attempted": n, "failed": failed, "metrics": metrics}


def _cli_probes() -> dict[str, float]:
    """Interpreter start, numpy import and folbend.cli import, as fresh processes."""
    env = workloads.child_env(ROOT)

    def median_ms(code: str) -> float:
        argv = [sys.executable, "-c", code]
        return 1e3 * statistics.median(_subprocess_wall(argv, env) for _ in range(PROBE_REPEATS))

    bare = median_ms("pass")
    return {
        "cli.numpy_floor_ms": median_ms("import numpy") - bare,
        "cli.import_ms": median_ms("import folbend.cli") - bare,
    }


def traced_run(args) -> dict:
    """Every request once as in the timed run, then untraced and traced.

    The untraced and the traced call of a request run straight after each
    other, and which goes first alternates, so the tracing overhead (the
    median of the per-request ratios) does not follow the drift of a shared
    machine.  For the command line both calls are ``cli.main`` in this
    process; the subprocess before them is the answer that is judged.
    """
    wl = make_workload(args.workload)
    cli = wl.name == "cli_sessions"
    first = _warm_up(wl, args.seed)
    call = (lambda inp: wl.main_in_process(inp.args[0])) if cli else wl.execute
    call(wl.prepare(first))
    tracer = tracing.Tracer()

    def plain(inp) -> float:
        t0 = time.perf_counter()
        call(inp)
        return time.perf_counter() - t0

    def traced(inp) -> float:
        with tracer.installed():
            t0 = time.perf_counter()
            with tracer.span("op"):
                call(inp)
            return time.perf_counter() - t0

    causes, plain_walls, ratios, startup = [], [], [], []
    start = time.perf_counter()
    for req in wl.requests(args.seed):
        if causes and time.perf_counter() - start >= args.seconds:
            break
        wall, _, cause = _run_one(wl, req)
        causes.append(cause)
        if len(causes) % 2:
            untraced, with_trace = plain(wl.prepare(req)), traced(wl.prepare(req))
        else:
            with_trace, untraced = traced(wl.prepare(req)), plain(wl.prepare(req))
        plain_walls.append(untraced)
        ratios.append(with_trace / untraced)
        startup.append(wall - untraced)
    tracer.write(ROOT / ".bench_out" / f"spans-{wl.name}-{args.seed}.csv.gz")

    n = len(causes)
    stats = tracer.stats(n)
    stats.update(_cli_probes())
    stats["cli.main_ms"] = 1e3 * statistics.median(plain_walls) if cli else 0.0
    stats["cli.startup_ms"] = 1e3 * statistics.median(startup) if cli else 0.0
    for cause, count in _failure_counts(causes).items():
        stats[f"fail.{cause}"] = count / n
    stats["trace.overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)
    stats["trace.unattributed_share"] = tracer.unattributed_share("op")

    print(f"{wl.name} seed {args.seed}: {n} operations traced, {len(tracer.names)} spans, "
          f"tracing overhead {stats['trace.overhead_pct']:.1f}%, "
          f"{100 * stats['trace.unattributed_share']:.1f}% of traced time outside every layer")
    return _result(n, causes, _report(stats, "per_layer"))


def setup_probe(args) -> int:
    _warm_up(make_workload(args.workload), args.seed)
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "folbend" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'folbend'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)
    result = traced_run(args) if args.trace else timed_run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
