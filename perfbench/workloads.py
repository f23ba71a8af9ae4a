"""The three seeded workloads: request streams, the timed call, the check.

Each workload is a closed loop with one caller.  ``requests(seed)`` is an
endless, deterministic stream; ``execute`` is the only part that is timed;
``judge`` compares the outcome with ``oracle`` and returns ``None`` for a
correct answer or the failure cause.

Streams are drawn in shuffled blocks that cover every stratum of the input
distributions once (operation kind, log-dimension, log-curvature,
tolerance), so that two seeds give the same mix and the run-to-run spread
comes from the machine, not from the draw.

Failure causes, checked in this order:

``exception``      an exception the request did not call for, or a CLI
                   usage/undecided exit (2, 3) or traceback;
``bad_exit``       a CLI exit code outside the documented 0-3;
``wrong_verdict``  finite vs divergent vs not computable, the divergent
                   endpoint, a flag, or a sign that must hold;
``outside_bar``    the exact value lies outside the reported error bar;
``tol_miss``       the true error exceeds the requested
                   max(abs_tol, rel_tol * |exact|), with an honest bar.

Every cause counts against ``ok_share``.  The first three (``HARD``) are
operations that failed outright; they make a run report ``correct: false``.
The last two are numbers less accurate than promised: the run still
completes, and the share of each is reported beside it.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

import oracle

HARD = ("exception", "bad_exit", "wrong_verdict")
CAUSES = HARD + ("outside_bar", "tol_miss")

ABS_TOL = 1e-12
REL_TOLS = (1e-6, 1e-8, 1e-10)


@dataclass(frozen=True)
class Request:
    kind: str
    args: tuple


@dataclass
class Outcome:
    value: object = None
    error: Optional[BaseException] = None
    extra: dict = field(default_factory=dict)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _strata(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """k log-uniform draws in [lo, hi], one per equal-probability stratum, shuffled."""
    u = [(i + rng.random()) / k for i in range(k)]
    rng.shuffle(u)
    return [math.exp(math.log(lo) + x * (math.log(hi) - math.log(lo))) for x in u]


class _Deck:
    """Draws without replacement from ``refill()``, refilling when empty.

    Cycling through a shuffled deck instead of drawing independently keeps
    the mix of a short run close to the mix of a long one.
    """

    def __init__(self, refill) -> None:
        self._refill = refill
        self._cards: list = []

    def draw(self):
        if not self._cards:
            self._cards = list(self._refill())
        return self._cards.pop()


def _space_with_dim(rng: random.Random, dim: int) -> oracle.Space:
    families = ["S", "RP"]
    if dim % 2 == 0 and dim >= 4:
        families.append("CP")
    if dim % 4 == 0 and dim >= 8:
        families.append("HP")
    if dim == 16:
        families.append("CaP")
    family = rng.choice(families)
    return oracle.Space(family, 2 if family == "CaP" else dim // oracle._DIM_FACTOR[family])


def _torus_radii(rng: random.Random) -> tuple[float, float]:
    small = _log_uniform(rng, 0.1, 2.0)
    return small * (1.0 + _log_uniform(rng, 0.05, 20.0)), small


def _close(got: float, want: float, rel: float = 1e-13) -> bool:
    return abs(got - want) <= rel * abs(want) + 4.0 * math.ulp(want)


def _judge_value(value, bar, exact, uncertainty, rel_tol) -> Optional[str]:
    """Bar and tolerance checks of one finite answer; ``uncertainty`` is the oracle's."""
    slack = uncertainty + 4.0 * math.ulp(exact)
    err = abs(value - exact)
    if bar is not None and err > bar + slack:
        return "outside_bar"
    if err > max(ABS_TOL, rel_tol * abs(exact)) + slack:
        return "tol_miss"
    return None


# ------------------------------------------------------------------ tube_sweep

class TubeSweep:
    """In-process library calls, one fresh profile and curvature scale each."""

    name = "tube_sweep"
    BLOCK = (("bending", 45), ("epsilon", 6), ("complex_radial", 6), ("torus", 3))

    def __init__(self) -> None:
        import folbend.bending
        import folbend.quadrature
        import folbend.spaces
        import folbend.tubes

        self.bending = folbend.bending
        self.quadrature = folbend.quadrature
        self.spaces = folbend.spaces
        self.not_computable = folbend.tubes.NotComputableError

    def requests(self, seed: int) -> Iterator[Request]:
        rng = random.Random(seed)
        while True:
            kinds = [kind for kind, count in self.BLOCK for _ in range(count)]
            rng.shuffle(kinds)
            pairs = sum(1 for k in kinds if k in ("bending", "epsilon"))
            dims = iter(_strata(rng, pairs, 1.5, 200.5))
            lams = iter(_strata(rng, pairs + kinds.count("complex_radial"), 1e-3, 1e3))
            tols = list(REL_TOLS) * (len(kinds) // len(REL_TOLS))
            rng.shuffle(tols)
            for kind, rel_tol in zip(kinds, tols):
                # The requested rel_tol is always the last argument.
                if kind == "torus":
                    big, small = _torus_radii(rng)
                    yield Request(kind, (big, small, rng.random() < 0.5, rel_tol))
                elif kind == "complex_radial":
                    m = round(_log_uniform(rng, 2, 100))
                    yield Request(kind, (m, next(lams), rel_tol))
                else:
                    space = _space_with_dim(rng, round(next(dims)))
                    focal = rng.choice(oracle.focal_varieties(space))
                    args = (space.label, focal, next(lams))
                    if kind == "epsilon":
                        args += (rng.uniform(1e-9, math.pi / 2 - 1e-9),)
                    yield Request(kind, args + (rel_tol,))

    def prepare(self, req: Request) -> Request:
        return req

    def execute(self, req: Request) -> Outcome:
        quad = self.quadrature.QuadratureConfig(rel_tol=req.args[-1], abs_tol=ABS_TOL)
        try:
            if req.kind == "torus":
                big, small, weighted, _ = req.args
                return Outcome(self.bending.torus_bending(big, small, quad, area_weighted=weighted))
            if req.kind == "complex_radial":
                m, lam, _ = req.args
                return Outcome(self.bending.complex_radial_bending(m, lam, quad))
            space = self.spaces.parse_space(req.args[0], req.args[2])
            focal = self.spaces.parse_focal(req.args[1])
            if req.kind == "epsilon":
                return Outcome(self.bending.epsilon_deformed_bending(space, focal, req.args[3], quad))
            return Outcome(self.bending.total_bending(space, focal, quad))
        except Exception as exc:  # judged: an exception is an answer too
            return Outcome(error=exc)

    @staticmethod
    def expected(req: Request) -> tuple[str, Optional[float], float, Optional[str]]:
        """(verdict, exact value, oracle uncertainty, divergent endpoint) of a request."""
        if req.kind == "torus":
            return "finite", oracle.torus(*req.args[:3]), 0.0, None
        if req.kind == "complex_radial":
            return "finite", oracle.complex_radial(req.args[1]), 0.0, None
        space, focal, lam = req.args[:3]
        answer = oracle.tube_answer(space, focal)
        if answer.kind == "not-computable":
            return answer.kind, None, 0.0, None
        if req.kind == "epsilon":
            # The window is interior, so even a divergent base gives a finite value.
            return ("finite", *oracle.deformation(space, focal, req.args[3], lam), None)
        if answer.kind == "divergent":
            return answer.kind, None, 0.0, answer.endpoint
        return "finite", float(answer.bending) * lam, 0.0, None

    def judge(self, req: Request, inp: Request, out: Outcome) -> Optional[str]:
        verdict, exact, unc, endpoint = self.expected(req)
        if out.error is not None:
            if isinstance(out.error, self.not_computable):
                return None if verdict == "not-computable" else "wrong_verdict"
            return "exception"
        if verdict == "not-computable":
            return "wrong_verdict"
        res = out.value
        if req.kind == "torus":
            return _judge_value(res.value, res.error_estimate, exact, unc, req.args[-1])
        if res.status != verdict:
            return "wrong_verdict"
        if verdict == "divergent":
            return None if res.divergent_endpoint == endpoint else "wrong_verdict"
        return _judge_value(res.value_per_volume, res.error_estimate, exact, unc, req.args[-1])


# ------------------------------------------------------------------ splitting_algebra

def _block_reference(block: np.ndarray) -> dict:
    swapped = block.transpose(1, 0, 2)
    trace = np.einsum("aaj->j", block)
    mean = float(trace @ trace)
    return {
        "sigma": float(np.einsum("abj,abj->", block, block)),
        "sff": 0.25 * float(np.einsum("abj,abj->", block + swapped, block + swapped)),
        "skew": 0.25 * float(np.einsum("abj,abj->", block - swapped, block - swapped)),
        "mean": mean,
        "mu": 0.5 * (mean - float(np.einsum("abj,baj->", block, block))),
    }


def _flags_reference(block: np.ndarray, thresh: float) -> tuple[bool, bool, bool]:
    d = block.shape[0]
    swapped = block.transpose(1, 0, 2)
    sym = np.abs(block + swapped)
    skew = np.abs(block - swapped)
    off = ~np.eye(d, dtype=bool)
    diag = np.einsum("aaj->aj", block)
    off_sym = float(sym[off].max()) if d > 1 else 0.0
    spread = float((diag.max(axis=0) - diag.min(axis=0)).max())
    limit = 2.0 * thresh
    return (float(sym.max()) <= limit, float(skew.max()) <= limit,
            off_sym <= limit and spread <= limit)


class SplittingAlgebra:
    """Pointwise invariants of one orthogonal splitting per operation."""

    name = "splitting_algebra"
    BLOCK = 32  # a quarter of each block is built umbilical

    def __init__(self) -> None:
        import folbend.torsion

        self.torsion = folbend.torsion

    def requests(self, seed: int) -> Iterator[Request]:
        rng = random.Random(seed)
        while True:
            umbilical = [i < self.BLOCK // 4 for i in range(self.BLOCK)]
            rng.shuffle(umbilical)
            for n_real, umb in zip(_strata(rng, self.BLOCK, 2.5, 32.5), umbilical):
                n = round(n_real)
                q = rng.randint(1, n - 1)
                flags = (rng.random() < 0.5, rng.random() < 0.5) if umb else None
                yield Request("splitting", (n, q, flags, rng.getrandbits(63)))

    def prepare(self, req: Request):
        """Coefficient blocks for a request; input generation, not timed."""
        n, q, flags, seed = req.args
        dims = self.torsion.SplitDims(n, q)
        if flags is None:
            return self.torsion.random_coefficients(dims, seed)
        return self.torsion.umbilical_coefficients(
            dims, seed, integrable_v=flags[0], integrable_h=flags[1])

    def execute(self, coeffs) -> Outcome:
        t = self.torsion
        try:
            return Outcome((
                t.derive(coeffs),
                t.classify(coeffs),
                t.mu_identity_residual(coeffs),
                t.sigma_inequality_slack(coeffs),
                t.mean_curvature_bound_slack(coeffs),
                t.block_mean_curvature_slacks(coeffs),
            ))
        except Exception as exc:  # judged: an exception is an answer too
            return Outcome(error=exc)

    def judge(self, req: Request, coeffs, out: Outcome) -> Optional[str]:
        if out.error is not None:
            return "exception"
        derived, flags, residual, sigma_slack, mean_slack, block_slacks = out.value
        n, q = req.args[0], req.args[1]
        v, h = _block_reference(coeffs.vertical), _block_reference(coeffs.horizontal)
        tol = 1e-13 * (n + 2) ** 2 * (1.0 + v["sigma"] + h["sigma"])

        scale = max(float(np.abs(coeffs.vertical).max()), float(np.abs(coeffs.horizontal).max()))
        want_flags = (_flags_reference(coeffs.vertical, 1e-12 * scale)
                      + _flags_reference(coeffs.horizontal, 1e-12 * scale))
        got_flags = (flags.v_geodesic, flags.v_integrable, flags.v_umbilical,
                     flags.h_geodesic, flags.h_integrable, flags.h_umbilical)
        if got_flags != want_flags:
            return "wrong_verdict"
        if req.args[2] is not None and not (flags.v_umbilical and flags.h_umbilical):
            return "wrong_verdict"
        signs = [*sigma_slack, mean_slack, *block_slacks]
        if max(abs(r) for r in residual) > tol or min(signs) < -tol:
            return "wrong_verdict"

        def sigma_slack_ref(ref, d):
            return ref["sigma"] if d < 2 else ref["sigma"] - 2.0 * ref["mu"] / (d - 1)

        pairs = [
            (derived.sigma_v, v["sigma"]), (derived.sigma_h, h["sigma"]),
            (derived.norm_sq, 2.0 * (v["sigma"] + h["sigma"])),
            (derived.sff_v_sq, v["sff"]), (derived.sff_h_sq, h["sff"]),
            (derived.skew_v_sq, v["skew"]), (derived.skew_h_sq, h["skew"]),
            (derived.mean_v_sq, v["mean"]), (derived.mean_h_sq, h["mean"]),
            (derived.mu_v, v["mu"]), (derived.mu_h, h["mu"]),
            (sigma_slack[0], sigma_slack_ref(v, q)), (sigma_slack[1], sigma_slack_ref(h, n - q)),
            (mean_slack, (n + 2) ** 2 / 8.0 * 2.0 * (v["sigma"] + h["sigma"]) - v["mean"] - h["mean"]),
            (block_slacks[0], (q + 1) * v["sigma"] - v["mean"]),
            (block_slacks[1], (n - q + 1) * h["sigma"] - h["mean"]),
        ]
        if any(abs(got - want) > tol for got, want in pairs):
            return "tol_miss"
        return None


# ------------------------------------------------------------------ cli_sessions

REFERENCE_PAIRS = (
    ("S:2", "point"), ("S:3", "point"), ("S:4", "point"), ("S:5", "point"),
    ("S:6", "point"), ("S:4", "sub:S:2"), ("S:5", "sub:S:2"), ("S:5", "sub:S:3"),
    ("RP:3", "point"), ("RP:4", "point"), ("CP:2", "point"), ("CP:3", "point"),
    ("CP:3", "sub:CP:1"), ("HP:2", "point"), ("HP:3", "point"), ("HP:3", "sub:HP:1"),
    ("CaP2", "point"), ("CP:2", "sub:RP:2"), ("HP:2", "sub:CP:2"),
)
MINIMIZER_SPACES = ("S:3", "S:4", "S:5", "S:8", "RP:3", "RP:5", "CP:2", "CP:3", "HP:2", "CaP2")
BOUND_SPACES = ("S:3", "S:6", "S:9", "RP:4", "CP:2", "CP:3", "HP:2", "CaP2")
COMMANDS = ("table1", "check-integral", "bending", "minimizer", "complex-radial",
            "torus", "bounds", "selfcheck")


def _quad_flags(rel_tol: float) -> list[str]:
    return ["--rel-tol", repr(rel_tol), "--abs-tol", repr(ABS_TOL)]


def _bound_request(rng: random.Random) -> tuple:
    space = oracle.parse_space(rng.choice(BOUND_SPACES))
    n = space.dim
    cases = ["I", "I'", "III-", "III+"] + (["II"] if n % 2 == 0 else [])
    case = rng.choice(cases)
    q = {"I": 1, "I'": n - 1, "II": n // 2}.get(case)
    if case == "III-":
        q = rng.randint(1, n - 2)
    elif case == "III+":
        q = rng.randint(2, n - 1)
    return space.label, q, case


def _bound_coefficient(case: str, n: int, q: int) -> Fraction:
    if case in ("I", "I'"):
        return Fraction(1, 2 * (n - 2))
    if case == "II":
        return Fraction(1, n - 2)
    return Fraction(1, 2 * (n - q - 1) if case == "III-" else 2 * (q - 1))


def child_env(root: Path) -> dict:
    """Environment of a child Python process: the checkout's folbend, no FOLBEND_* settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FOLBEND_")}
    env["PYTHONPATH"] = str(root / "src")
    return env


class CliSessions:
    """One fresh ``python -m folbend <cmd>`` process per request."""

    name = "cli_sessions"

    def __init__(self, root: Path) -> None:
        self.root = root
        self.env = child_env(root)

    def requests(self, seed: int) -> Iterator[Request]:
        rng = random.Random(seed)
        decks = {
            "commands": _Deck(lambda: rng.sample(COMMANDS, len(COMMANDS))),
            "lam": _Deck(lambda: _strata(rng, 4, 1e-3, 1e3)),
            "pair": _Deck(lambda: rng.sample(REFERENCE_PAIRS, len(REFERENCE_PAIRS))),
            "minimizer": _Deck(lambda: rng.sample(MINIMIZER_SPACES, len(MINIMIZER_SPACES))),
        }
        while True:
            yield self._request(rng, decks, decks["commands"].draw())

    def _request(self, rng: random.Random, decks: dict, cmd: str) -> Request:
        rel_tol = 1e-8
        if cmd == "table1":
            lam = decks["lam"].draw()
            argv = ["table1", "--lambda", repr(lam), *_quad_flags(rel_tol), "--json"]
            return Request(cmd, (argv, {"lam": lam, "rel_tol": rel_tol}))
        if cmd == "check-integral":
            return Request(cmd, (["check-integral", *_quad_flags(rel_tol), "--json"],
                                 {"lam": 1.0, "rel_tol": rel_tol}))
        if cmd == "bending":
            space, focal = decks["pair"].draw()
            argv = ["bending", "--space", space, "--focal", focal, *_quad_flags(rel_tol), "--json"]
            eps = rng.uniform(1e-9, math.pi / 2 - 1e-9) if rng.random() < 1 / 3 else None
            if eps is not None:
                argv[5:5] = ["--epsilon", repr(eps)]
            return Request(cmd, (argv, {"space": space, "focal": focal, "eps": eps,
                                        "lam": 1.0, "rel_tol": rel_tol}))
        if cmd == "minimizer":
            space = decks["minimizer"].draw()
            return Request(cmd, (["minimizer", "--space", space, *_quad_flags(rel_tol), "--json"],
                                 {"space": space, "lam": 1.0, "rel_tol": rel_tol}))
        if cmd == "complex-radial":
            m = round(_log_uniform(rng, 2, 100))
            return Request(cmd, (["complex-radial", "--m", str(m), *_quad_flags(rel_tol), "--json"],
                                 {"lam": 1.0, "rel_tol": rel_tol}))
        if cmd == "torus":
            big, small = _torus_radii(rng)
            weighted = rng.random() < 0.5
            argv = ["torus", "--R", repr(big), "--r", repr(small), *_quad_flags(rel_tol), "--json"]
            if weighted:
                argv.insert(-1, "--area-weighted")
            return Request(cmd, (argv, {"big": big, "small": small, "weighted": weighted,
                                        "rel_tol": rel_tol}))
        if cmd == "bounds":
            space, q, case = _bound_request(rng)
            argv = ["bounds", "--space", space, "--q", str(q), "--case", case, "--json"]
            return Request(cmd, (argv, {"space": space, "q": q, "case": case, "lam": 1.0}))
        return Request(cmd, (["selfcheck", "--seed", str(rng.randrange(2**31))], {}))

    def prepare(self, req: Request) -> Request:
        return req

    def execute(self, req: Request) -> Outcome:
        proc = subprocess.run(
            [sys.executable, "-m", "folbend", *req.args[0]],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120,
        )
        return Outcome(proc.stdout, extra={"code": proc.returncode, "stderr": proc.stderr})

    @staticmethod
    def main_in_process(argv: list[str]) -> int:
        """``cli.main`` on the same argv inside this process, output discarded."""
        import folbend.cli

        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return folbend.cli.main(list(argv))

    def judge(self, req: Request, inp: Request, out: Outcome) -> Optional[str]:
        code, stderr = out.extra["code"], out.extra["stderr"]
        if code not in (0, 1, 2, 3):
            return "bad_exit"
        if "Traceback" in stderr or code in (2, 3):
            return "exception"
        params = req.args[1]
        if req.kind == "selfcheck":
            ok = code == 0 and "all internal checks passed" in out.value
            return None if ok else "wrong_verdict"
        try:
            payload = json.loads(out.value)
        except ValueError:
            return "exception"
        check = getattr(self, "_check_" + req.kind.replace("-", "_"))
        return check(payload, code, params)

    @staticmethod
    def _check_table1(payload, code, p) -> Optional[str]:
        lam, rel_tol = p["lam"], p["rel_tol"]
        rows = {(r["space"], r["focal"]): r for r in payload["rows"]}
        if set(rows) != set(REFERENCE_PAIRS):
            return "wrong_verdict"
        causes = []
        for (space, focal), row in rows.items():
            answer = oracle.tube_answer(space, focal)
            if answer.kind == "not-computable":
                causes.append(None if row["status"] == "NotComputable" else "wrong_verdict")
            elif answer.kind == "divergent":
                ok = row["status"] == "DivergenceConfirmed" and row["divergent_endpoint"] == answer.endpoint
                causes.append(None if ok else "wrong_verdict")
            elif row["computed"] is None or not _close(row["expected"], float(answer.bending) * lam):
                causes.append("wrong_verdict")
            else:
                causes.append(_judge_value(row["computed"], None, float(answer.bending) * lam,
                                           0.0, rel_tol))
        all_ok = all(r["status"] != "Failed" for r in rows.values())
        if payload["all_ok"] != all_ok or code != (0 if all_ok else 1):
            causes.append("wrong_verdict")
        return _first(causes)

    @staticmethod
    def _check_check_integral(payload, code, p) -> Optional[str]:
        causes = []
        for r in payload["results"]:
            answer = oracle.tube_answer(r["space"], r["focal"])
            applicable = answer.kind == "finite"
            if (r["status"] == "applicable") != applicable:
                causes.append("wrong_verdict")
                continue
            if not _close(r["lhs"], oracle.ricci(r["space"], p["lam"])):
                causes.append("wrong_verdict")
            elif applicable:
                if not r["holds"]:
                    causes.append("wrong_verdict")
                else:
                    exact = float(answer.identity_rhs) * p["lam"]
                    causes.append(_judge_value(r["rhs"], None, exact, 0.0, p["rel_tol"]))
        holds = all(r["holds"] for r in payload["results"] if r["status"] == "applicable")
        if not payload["results"] or code != (0 if holds else 1):
            causes.append("wrong_verdict")
        return _first(causes)

    @staticmethod
    def _check_bending(payload, code, p) -> Optional[str]:
        answer = oracle.tube_answer(p["space"], p["focal"])
        if code != 0:
            return "wrong_verdict"
        if answer.kind == "not-computable":
            return None if payload["status"] == "not-computable" else "wrong_verdict"
        if p["eps"] is None and answer.kind == "divergent":
            ok = payload["status"] == "divergent" and payload["divergent_endpoint"] == answer.endpoint
            return None if ok else "wrong_verdict"
        if payload["status"] != "finite":
            return "wrong_verdict"
        if p["eps"] is None:
            exact, unc = float(answer.bending) * p["lam"], 0.0
        else:
            exact, unc = oracle.deformation(p["space"], p["focal"], p["eps"], p["lam"])
        return _judge_value(payload["value_per_volume"], payload["error_estimate"],
                            exact, unc, p["rel_tol"])

    @staticmethod
    def _check_minimizer(payload, code, p) -> Optional[str]:
        answer = oracle.tube_answer(p["space"], "point")
        n = oracle.parse_space(p["space"]).dim
        bound = Fraction(n - 1, 2 * (n - 2))
        if code != 0 or not _close(payload["bound_value"], float(bound) * p["lam"]):
            return "wrong_verdict"
        if payload["bending_status"] != answer.kind:
            return "wrong_verdict"
        if answer.kind != "finite":
            return None if not payload["attains_bound"] else "wrong_verdict"
        if payload["attains_bound"] != (answer.bending == bound):
            return "wrong_verdict"
        return _judge_value(payload["value_per_volume"], None, float(answer.bending) * p["lam"],
                            0.0, p["rel_tol"])

    @staticmethod
    def _check_complex_radial(payload, code, p) -> Optional[str]:
        if code != 0 or payload["status"] != "finite":
            return "wrong_verdict"
        return _judge_value(payload["value_per_volume"], payload["error_estimate"],
                            oracle.complex_radial(p["lam"]), 0.0, p["rel_tol"])

    @staticmethod
    def _check_torus(payload, code, p) -> Optional[str]:
        if code != 0 or payload["area_weighted"] != p["weighted"]:
            return "wrong_verdict"
        exact = oracle.torus(p["big"], p["small"], p["weighted"])
        return _judge_value(payload["value"], payload["error_estimate"], exact, 0.0, p["rel_tol"])

    @staticmethod
    def _check_bounds(payload, code, p) -> Optional[str]:
        space = oracle.parse_space(p["space"])
        n, q, lam = space.dim, p["q"], p["lam"]
        coeff = _bound_coefficient(p["case"], n, q)
        einstein = (n - 1 + 3 * space.nu) * lam / (2 * (n - 2))
        ok = (code == 0 and payload["case"] == p["case"] and payload["coefficient"] == str(coeff)
              and _close(payload["value"], float(coeff) * q * (n - q) * lam)
              and _close(payload["einstein_value"], einstein))
        return None if ok else "wrong_verdict"


def _first(causes) -> Optional[str]:
    """The most severe cause in a multi-part answer."""
    present = [c for c in causes if c is not None]
    return min(present, key=CAUSES.index) if present else None
