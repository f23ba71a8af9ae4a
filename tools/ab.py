"""Time two folbend checkouts against each other on one workload, request by request.

    python tools/ab.py tube_sweep BASE CHANGE [--seeds 11 12] [--requests 3000]
    python tools/ab.py cli_sessions BASE CHANGE [--seeds 61] [--requests 200]
    python tools/ab.py splitting_algebra BASE CHANGE [--seeds 1 2] [--requests 3000]

BASE and CHANGE are source checkouts (directories holding ``src/folbend``);
each side runs that checkout's ``folbend`` and no other.
The requests of the workload's stream in ``perfbench/workloads.py`` (read,
not changed) are served by both sides in turn, the first side alternating
from one request to the next.  Both sides thus run on the same machine
state, which separate 35 s benchmark runs on a shared machine do not give.

``tube_sweep`` and ``splitting_algebra`` import both checkouts into this
process as separate module objects.  Each side builds the input of a
request with its own ``prepare``, outside the timed span, so a
``splitting_algebra`` side times its own ``TorsionCoefficients`` class on a
fresh object.  Per side the tool prints the mean, the median and the
nearest-rank 99th percentile (``p99_ms``, as ``perfbench/run.py`` ranks its
tail) of the wall time per operation, and for ``tube_sweep``, from a second,
untimed pass, the integrand calls and nodes per operation.  For
``tube_sweep`` it prints on a second line the median and the 99th
percentile of the wall time per request kind (``latency_ms_by_kind``:
bending, epsilon, complex_radial, torus), which shows which requests a
change moved.
``cli_sessions`` runs one fresh ``python -m folbend`` process of the side's
checkout per request.  Per side it prints the median wall
time and the mean CPU time of the child process (user plus system, from
``getrusage(RUSAGE_CHILDREN)``) per operation, and on a second line the
median child CPU time per subcommand (``cpu_ms_by_command``), which shows
which commands a change moved.

Every answer of both sides is judged with the workload's ``judge``, and
each side's failure causes are printed.  The tool also reports whether
every answer is the same on both sides: the ``repr`` of the value or the
exception in process, the standard output of the CLI.  A change that alters
answers on purpose need not keep that.  The last line is all of it as JSON.
The exit status is 1 when either side has a HARD cause (an exception, a bad
exit or a wrong verdict), and 0 otherwise, also when the reader of stdout
closes it early.  It is 2 for a usage error: a checkout without
``src/folbend/__init__.py`` or a ``--requests`` that is not a positive integer.
"""
from __future__ import annotations

import argparse
import collections
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py)

WORKLOADS = {"tube_sweep": workloads.TubeSweep, "cli_sessions": workloads.CliSessions,
             "splitting_algebra": workloads.SplittingAlgebra}
WARM_UP = {"tube_sweep": 60, "cli_sessions": 4, "splitting_algebra": 60}
REQUESTS = {"tube_sweep": 3000, "cli_sessions": 200, "splitting_algebra": 3000}


def _load(workload: str, checkout: str):
    """The workload bound to the folbend package of ``checkout``.

    Raises ValueError for a checkout without ``src/folbend``, or whose
    ``folbend`` is not the one imported: the side would otherwise run
    whichever ``folbend`` the interpreter finds first.
    """
    src = Path(checkout).resolve() / "src"
    if not (src / "folbend" / "__init__.py").is_file():
        raise ValueError(f"{checkout} holds no src/folbend/__init__.py")
    if workload == "cli_sessions":
        return workloads.CliSessions(src.parent)

    def forget():
        for name in [m for m in sys.modules if m == "folbend" or m.startswith("folbend.")]:
            del sys.modules[name]

    forget()
    sys.path.insert(0, str(src))
    try:
        wl = WORKLOADS[workload]()
        imported = Path(sys.modules["folbend"].__file__).resolve()
        if not imported.is_relative_to(src):
            raise ValueError(f"{checkout}: folbend was imported from {imported}")
        return wl
    finally:
        sys.path.pop(0)
        forget()


def _answer(out: workloads.Outcome) -> str:
    if isinstance(out.value, str):  # the standard output of a CLI process
        return out.value
    return repr(out.value if out.error is None else out.error)


def _child_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def alternate(sides: tuple, requests: list) -> tuple[list[dict], bool]:
    """Serve every request on both sides, the first side alternating.

    Returns per side the wall times, the child CPU times and the failure
    causes, and whether every answer was the same on both sides.
    """
    runs = [{"wall": [], "cpu": [], "causes": collections.Counter()} for _ in sides]
    same = True
    for i, req in enumerate(requests):
        answers = []
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            wl, run = sides[side], runs[side]
            inp = wl.prepare(req)
            cpu0, t0 = _child_cpu(), time.perf_counter()
            out = wl.execute(inp)
            run["wall"].append(time.perf_counter() - t0)
            run["cpu"].append(_child_cpu() - cpu0)
            answers.append(_answer(out))
            cause = wl.judge(req, inp, out)
            if cause is not None:
                run["causes"][cause] += 1
        same = same and answers[0] == answers[1]
    return runs, same


def _nearest_rank(values: list, share: float) -> float:
    """The smallest value with at least ``share`` of ``values`` at or below it."""
    return sorted(values)[math.ceil(share * len(values)) - 1]


def _counts(wl: workloads.TubeSweep, requests: list) -> dict:
    """Integrand calls and nodes per operation, counted around ``quadrature._gk15``."""
    quad = wl.quadrature
    kernel = quad._gk15
    seen = [0, 0]

    def counting(f, a, b):
        def g(x):
            seen[0] += 1
            seen[1] += x.size
            return f(x)
        return kernel(g, a, b)

    quad._gk15 = counting
    try:
        for req in requests:
            wl.execute(req)
    finally:
        quad._gk15 = kernel
    return {"calls_per_op": seen[0] / len(requests), "nodes_per_op": seen[1] / len(requests)}


def compare(workload: str, sides: tuple, seed: int, n: int) -> dict:
    requests = list(itertools.islice(sides[0].requests(seed), n))
    for req in requests[:WARM_UP[workload]]:
        for wl in sides:
            wl.execute(wl.prepare(req))
    runs, same = alternate(sides, requests)
    result = {"workload": workload, "seed": seed, "requests": n, "identical_answers": same}
    for name, wl, run in zip(("base", "change"), sides, runs):
        side = {"p50_ms": 1e3 * statistics.median(run["wall"])}
        if workload == "cli_sessions":
            side["cpu_ms_per_op"] = 1e3 * statistics.fmean(run["cpu"])
            by_command = collections.defaultdict(list)
            for req, cpu in zip(requests, run["cpu"]):
                by_command[req.kind].append(cpu)
            side["cpu_ms_by_command"] = {command: 1e3 * statistics.median(cpus)
                                         for command, cpus in sorted(by_command.items())}
        else:
            side["mean_ms"] = 1e3 * statistics.fmean(run["wall"])
            side["p99_ms"] = 1e3 * _nearest_rank(run["wall"], 0.99)
        if workload == "tube_sweep":
            side.update(_counts(wl, requests))
            by_kind = collections.defaultdict(list)
            for req, wall in zip(requests, run["wall"]):
                by_kind[req.kind].append(wall)
            side["latency_ms_by_kind"] = {
                kind: {"p50_ms": 1e3 * statistics.median(walls),
                       "p99_ms": 1e3 * _nearest_rank(walls, 0.99)}
                for kind, walls in sorted(by_kind.items())}
        result[name] = {**side, "causes": dict(run["causes"])}
    for key in result["base"]:
        if key.endswith("_ms") or key.endswith("_op"):
            result[f"{key}_change_over_base"] = result["change"][key] / result["base"][key]
    return result


def _line(res: dict) -> str:
    b, c = res["base"], res["change"]
    parts = [f"{key} {b[key]:.4g} -> {c[key]:.4g} ({res[f'{key}_change_over_base']:.3f}x)"
             for key in b if key not in ("causes", "cpu_ms_by_command", "latency_ms_by_kind")]
    line = (f"{res['workload']} seed {res['seed']}: " + ", ".join(parts)
            + f", identical answers: {res['identical_answers']}, causes "
            f"{b['causes'] or 'none'} -> {c['causes'] or 'none'}")
    if "cpu_ms_by_command" in b:
        line += "\n  median child cpu_ms by command: " + ", ".join(
            f"{command} {ms:.4g} -> {c['cpu_ms_by_command'][command]:.4g}"
            for command, ms in b["cpu_ms_by_command"].items())
    if "latency_ms_by_kind" in b:
        line += "\n  p50 / p99 ms by kind: " + ", ".join(
            f"{kind} {ms['p50_ms']:.4g} / {ms['p99_ms']:.4g} -> "
            f"{c['latency_ms_by_kind'][kind]['p50_ms']:.4g} / "
            f"{c['latency_ms_by_kind'][kind]['p99_ms']:.4g}"
            for kind, ms in b["latency_ms_by_kind"].items())
    return line


def _positive(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--seeds", type=int, nargs="+", default=[11])
    parser.add_argument("--requests", type=_positive,
                        help="per seed; 3000 in process, 200 for the CLI")
    args = parser.parse_args(argv)
    n = args.requests or REQUESTS[args.workload]
    try:
        sides = (_load(args.workload, args.base), _load(args.workload, args.change))
    except ValueError as exc:
        parser.error(str(exc))
    results = []
    try:
        for seed in args.seeds:
            results.append(compare(args.workload, sides, seed, n))
            print(_line(results[-1]), flush=True)
        print(json.dumps(results), flush=True)
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull so the
        # interpreter's final flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    hard = [cause for r in results for side in ("base", "change")
            for cause in r[side]["causes"] if cause in workloads.HARD]
    return 1 if hard else 0


if __name__ == "__main__":
    raise SystemExit(main())
