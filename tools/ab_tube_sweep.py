"""Time two folbend checkouts against each other on the tube_sweep requests, in one process.

    python tools/ab_tube_sweep.py BASE CHANGE [--seeds 11 12] [--requests 3000]

BASE and CHANGE are source checkouts (directories holding ``src/folbend``).
Both are imported into this process as separate module objects, and the
requests of ``perfbench/workloads.py``'s ``TubeSweep`` stream (read, not
changed) are served by both in turn, the first side alternating from one
request to the next.  Both sides thus run on the same machine state, which
separate 35 s benchmark runs on a shared machine do not give.

For each seed it prints, per side, the mean and median wall time per
operation, and from a second, untimed pass the integrand calls and nodes per
operation.  It judges every answer of both sides with ``TubeSweep.judge``
and prints each side's failure causes; it also reports whether every answer
has the same ``repr`` on both sides (exceptions included), which a change
that alters answers on purpose need not keep.  The last line is all of it as
JSON.  The exit status is 1 when either side has a HARD cause (an
exception, a bad exit or a wrong verdict), and 0 otherwise.
"""
from __future__ import annotations

import argparse
import collections
import itertools
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py)

WARM_UP = 60


def _load(checkout: str) -> workloads.TubeSweep:
    """A TubeSweep bound to the folbend package of ``checkout``."""
    def forget():
        for name in [m for m in sys.modules if m == "folbend" or m.startswith("folbend.")]:
            del sys.modules[name]

    forget()
    sys.path.insert(0, str(Path(checkout) / "src"))
    try:
        return workloads.TubeSweep()
    finally:
        sys.path.pop(0)
        forget()


def _answer(out) -> str:
    return repr(out.value if out.error is None else out.error)


def _counts(wl: workloads.TubeSweep, requests: list) -> tuple[float, float]:
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
    return seen[0] / len(requests), seen[1] / len(requests)


def _side(times: list[float], counts: tuple[float, float], causes: collections.Counter) -> dict:
    return {"mean_ms": 1e3 * statistics.fmean(times), "p50_ms": 1e3 * statistics.median(times),
            "calls_per_op": counts[0], "nodes_per_op": counts[1], "causes": dict(causes)}


def compare(base: workloads.TubeSweep, change: workloads.TubeSweep, seed: int, n: int) -> dict:
    requests = list(itertools.islice(base.requests(seed), n))
    for req in requests[:WARM_UP]:
        base.execute(req)
        change.execute(req)
    times = ([], [])
    causes = (collections.Counter(), collections.Counter())
    same = True
    for i, req in enumerate(requests):
        answers = [None, None]
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            wl = (base, change)[side]
            t0 = time.perf_counter()
            out = wl.execute(req)
            times[side].append(time.perf_counter() - t0)
            answers[side] = _answer(out)
            cause = wl.judge(req, req, out)
            if cause is not None:
                causes[side][cause] += 1
        same = same and answers[0] == answers[1]
    result = {"seed": seed, "requests": n, "identical_answers": same,
              "base": _side(times[0], _counts(base, requests), causes[0]),
              "change": _side(times[1], _counts(change, requests), causes[1])}
    for key in ("mean_ms", "p50_ms"):
        result[f"{key}_change_over_base"] = result["change"][key] / result["base"][key]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--seeds", type=int, nargs="+", default=[11])
    parser.add_argument("--requests", type=int, default=3000)
    args = parser.parse_args(argv)
    base, change = _load(args.base), _load(args.change)
    results = []
    for seed in args.seeds:
        res = compare(base, change, seed, args.requests)
        results.append(res)
        b, c = res["base"], res["change"]
        print(f"seed {seed}: mean {b['mean_ms']:.3f} -> {c['mean_ms']:.3f} ms "
              f"({res['mean_ms_change_over_base']:.3f}x), p50 {b['p50_ms']:.3f} -> "
              f"{c['p50_ms']:.3f} ms ({res['p50_ms_change_over_base']:.3f}x), calls/op "
              f"{b['calls_per_op']:.3f} -> {c['calls_per_op']:.3f}, nodes/op "
              f"{b['nodes_per_op']:.1f} -> {c['nodes_per_op']:.1f}, identical answers: "
              f"{res['identical_answers']}, causes {b['causes'] or 'none'} -> "
              f"{c['causes'] or 'none'}")
    print(json.dumps(results))
    hard = [cause for r in results for side in ("base", "change")
            for cause in r[side]["causes"] if cause in workloads.HARD]
    return 1 if hard else 0


if __name__ == "__main__":
    raise SystemExit(main())
