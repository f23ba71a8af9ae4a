"""Request streams are seeded and the checks catch wrong answers."""
import dataclasses
import itertools
from collections import Counter

import pytest

import workloads


def _take(stream, n):
    return list(itertools.islice(stream, n))


@pytest.fixture(scope="module")
def tube():
    return workloads.TubeSweep()


@pytest.fixture(scope="module")
def splitting():
    return workloads.SplittingAlgebra()


@pytest.fixture(scope="module")
def cli():
    return workloads.CliSessions(workloads.Path(__file__).resolve().parents[2])


def _causes(wl, reqs):
    out = []
    for req in reqs:
        inp = wl.prepare(req)
        out.append(wl.judge(req, inp, wl.execute(inp)))
    return out


def test_same_seed_same_stream(tube, splitting, cli):
    for wl in (tube, splitting, cli):
        assert _take(wl.requests(7), 300) == _take(wl.requests(7), 300)
        assert _take(wl.requests(7), 300) != _take(wl.requests(8), 300)


def test_same_seed_same_counts_and_failed_share(tube, splitting):
    for wl, n in ((tube, 120), (splitting, 64)):
        first = _causes(wl, _take(wl.requests(3), n))
        second = _causes(wl, _take(wl.requests(3), n))
        assert first == second
        assert Counter(first) == Counter(second)


def test_blocks_hold_the_stated_mix(tube, splitting, cli):
    kinds = Counter(r.kind for r in _take(tube.requests(1), 60))
    assert kinds == {"bending": 45, "epsilon": 6, "complex_radial": 6, "torus": 3}
    tols = Counter(r.args[-1] for r in _take(tube.requests(1), 60))
    assert set(tols.values()) == {20}
    umbilical = [r.args[2] is not None for r in _take(splitting.requests(1), 32)]
    assert sum(umbilical) == 8
    assert sorted(r.kind for r in _take(cli.requests(1), 8)) == sorted(workloads.COMMANDS)


def test_tube_checks_catch_wrong_answers(tube):
    req = workloads.Request("bending", ("S:5", "sub:S:2", 2.0, 1e-8))
    out = tube.execute(req)
    assert tube.judge(req, req, out) is None
    off = dataclasses.replace(out.value, value_per_volume=out.value.value_per_volume * (1 + 1e-6))
    assert tube.judge(req, req, workloads.Outcome(off)) == "outside_bar"
    wide = dataclasses.replace(off, error_estimate=1.0)
    assert tube.judge(req, req, workloads.Outcome(wide)) == "tol_miss"
    flipped = dataclasses.replace(out.value, status="divergent")
    assert tube.judge(req, req, workloads.Outcome(flipped)) == "wrong_verdict"
    assert tube.judge(req, req, workloads.Outcome(error=RuntimeError())) == "exception"


def test_not_computable_is_a_correct_verdict(tube):
    req = workloads.Request("bending", ("CP:4", "sub:RP:4", 1.0, 1e-8))
    assert tube.judge(req, req, tube.execute(req)) is None


def test_splitting_checks_catch_wrong_answers(splitting):
    req = next(splitting.requests(5))
    coeffs = splitting.prepare(req)
    out = splitting.execute(coeffs)
    assert splitting.judge(req, coeffs, out) is None
    derived, *rest = out.value
    bad = dataclasses.replace(derived, mu_v=derived.mu_v + 1e-3)
    assert splitting.judge(req, coeffs, workloads.Outcome((bad, *rest))) == "tol_miss"
    flags = dataclasses.replace(rest[0], v_geodesic=not rest[0].v_geodesic)
    assert splitting.judge(req, coeffs,
                           workloads.Outcome((derived, flags, *rest[1:]))) == "wrong_verdict"


def test_one_block_of_cli_sessions_is_answered(cli):
    causes = _causes(cli, _take(cli.requests(2), len(workloads.COMMANDS)))
    assert not set(causes) & set(workloads.HARD)


def test_cli_exit_codes(cli):
    req = workloads.Request("selfcheck", (["selfcheck"], {}))
    assert cli.judge(req, req, workloads.Outcome("", extra={"code": 9, "stderr": ""})) == "bad_exit"
    assert cli.judge(req, req, workloads.Outcome("", extra={"code": 3, "stderr": ""})) == "exception"
    crashed = workloads.Outcome("", extra={"code": 1, "stderr": "Traceback (most recent..."})
    assert cli.judge(req, req, crashed) == "exception"
