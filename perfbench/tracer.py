"""Outside-in tracing: spans around the calls into each folbend layer.

Nothing inside ``folbend`` changes.  While a ``Tracer`` is installed, every
module attribute that refers to one of the layer functions below is
replaced by a wrapper that records a span; on exit the originals are put
back.  Replacing the attribute in every module matters: ``bending`` and
``bounds`` do ``from .quadrature import integrate_open``, so patching only
``folbend.quadrature`` would miss every call they make.

The integrand passed to ``integrate_open`` / ``adaptive_quadrature`` is
wrapped as well; the quadrature calls it once per Kronrod panel, so its
spans count panels, and the length of its argument counts nodes.

A span is (name, parent, start, end, value, error).  ``value`` carries one
count per kind of span: nodes for an integrand, ladder levels for
``integrate_open``, 1 for an adaptive call on the volume density, entries
of the coefficient blocks for ``derive``, the verdict for a bending call.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import math
import time
from collections import defaultdict
from pathlib import Path

LAYERS = {
    "quadrature": ("integrate_open", "adaptive_quadrature"),
    "tubes": ("tube_profile",),
    "bending": ("total_bending", "epsilon_deformed_bending", "complex_radial_bending",
                "torus_bending"),
    "bounds": ("table1_report", "integral_formula_check", "minimizer_report"),
    "spaces": ("parse_space", "parse_focal"),
    "torsion": ("derive", "classify", "mu_identity_residual", "sigma_inequality_slack",
                "mean_curvature_bound_slack", "block_mean_curvature_slacks"),
}
SLACKS = ("torsion.mu_identity_residual", "torsion.sigma_inequality_slack",
          "torsion.mean_curvature_bound_slack", "torsion.block_mean_curvature_slacks")
MODULES = ("folbend", "folbend.quadrature", "folbend.tubes", "folbend.bending",
           "folbend.bounds", "folbend.spaces", "folbend.torsion", "folbend.cli")
INTEGRAND = "tubes.integrand"
VERDICTS = {"finite": 0, "divergent": 1}


class Tracer:
    """Keeps spans in memory; ``stats`` derives per-layer numbers from them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.values: list[int] = []
        self.errors: list[str] = []
        self._stack: list[int] = []

    # ------------------------------------------------------------ recording

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self.values.append(0)
        self.errors.append("")
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int, value: int = 0, error: str = "") -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()
        self.values[idx] = value
        self.errors[idx] = error

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _counted(self, f):
        if getattr(f, "_traced", False):
            return f

        def integrand(x):
            idx = self._open(INTEGRAND)
            try:
                y = f(x)
            finally:
                self._close(idx, getattr(x, "size", 1))
            return y

        integrand._traced = True
        return integrand

    def _wrap(self, name: str, fn):
        short = name.split(".", 1)[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            value = 0
            if short in ("integrate_open", "adaptive_quadrature"):
                value = int(getattr(args[0], "__name__", "") == "theta")
                args = (self._counted(args[0]),) + args[1:]
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, value, type(exc).__name__)
                raise
            if short == "integrate_open":
                value = result.lower.levels + result.upper.levels
            elif short == "derive":
                q, h = args[0].dims.q, args[0].dims.horiz
                value = q * q * h + h * h * q
            elif name.startswith("bending."):
                value = VERDICTS.get(getattr(result, "status", "finite"), 0)
            self._close(idx, value)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every module attribute that names a layer function; restore on exit."""
        modules = [importlib.import_module(m) for m in MODULES]
        wrappers = {}
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"folbend.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrappers[id(original)] = (original, self._wrap(f"{layer}.{fname}", original))
        patched = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
                    patched.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    # ------------------------------------------------------------ analysis

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct children."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        selfs = list(durations)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                selfs[parent] -= durations[idx]
        return selfs

    def unattributed_share(self, root: str) -> float:
        """Share of the ``root`` spans' time that no layer span covers."""
        selfs = self.self_times()
        roots = [idx for idx, name in enumerate(self.names) if name == root]
        total = math.fsum(self.ends[idx] - self.starts[idx] for idx in roots)
        return math.fsum(selfs[idx] for idx in roots) / total if total else 0.0

    def _ancestor_named(self, idx: int, name: str) -> int:
        idx = self.parents[idx]
        while idx >= 0 and self.names[idx] != name:
            idx = self.parents[idx]
        return idx

    def stats(self, ops: int) -> dict[str, float]:
        """Per-layer metrics, normalised per traced operation."""
        selfs = self.self_times()
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        dur = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        total = defaultdict(int)
        for name, d, s, v in zip(self.names, durations, selfs, self.values):
            dur[name] += d
            own[name] += s
            calls[name] += 1
            total[name] += v

        central = window = 0
        undecided = 0
        verdicts = [0, 0, 0]
        for idx, name in enumerate(self.names):
            parent = self.parents[idx]
            parent_name = self.names[parent] if parent >= 0 else ""
            if name == INTEGRAND and parent_name == "quadrature.adaptive_quadrature":
                grandparent = self.parents[parent]
                if grandparent >= 0 and self.names[grandparent] == "quadrature.integrate_open":
                    central += 1
                else:
                    window += 1
            elif name.startswith("quadrature.") and not parent_name.startswith("quadrature."):
                undecided += self.errors[idx] == "UndecidedError"
            elif name.startswith("bending."):
                if self.errors[idx] == "NotComputableError":
                    verdicts[2] += 1
                elif not self.errors[idx]:
                    verdicts[self.values[idx]] += 1

        checks = calls["bounds.integral_formula_check"]
        check_volumes = sum(
            1 for idx, name in enumerate(self.names)
            if name == "quadrature.adaptive_quadrature" and self.values[idx] == 1
            and self._ancestor_named(idx, "bounds.integral_formula_check") >= 0
        )
        panels = calls[INTEGRAND]
        quad_self = own["quadrature.integrate_open"] + own["quadrature.adaptive_quadrature"]
        bending_names = [n for n in dur if n.startswith("bending.")]
        derive_calls = calls["torsion.derive"]
        per = 1.0 / max(ops, 1)
        return {
            "quadrature.panels": panels * per,
            "quadrature.nodes": total[INTEGRAND] * per,
            "quadrature.ladder_panels": total["quadrature.integrate_open"] * per,
            "quadrature.central_panels": central * per,
            "quadrature.window_panels": window * per,
            "quadrature.open_s": dur["quadrature.integrate_open"] * per,
            "quadrature.ladder_self_s": own["quadrature.integrate_open"] * per,
            "quadrature.adaptive_self_s": own["quadrature.adaptive_quadrature"] * per,
            "quadrature.us_per_panel": 1e6 * quad_self / panels if panels else 0.0,
            "quadrature.undecided": undecided * per,
            "tubes.profile_calls": calls["tubes.tube_profile"] * per,
            "tubes.profile_s": dur["tubes.tube_profile"] * per,
            "tubes.integrand_s": dur[INTEGRAND] * per,
            "tubes.ns_per_node": 1e9 * dur[INTEGRAND] / total[INTEGRAND] if total[INTEGRAND] else 0.0,
            "bending.calls": sum(calls[n] for n in bending_names) * per,
            "bending.finite": verdicts[0] * per,
            "bending.divergent": verdicts[1] * per,
            "bending.not_computable": verdicts[2] * per,
            "bending.self_s": sum(own[n] for n in bending_names) * per,
            "bounds.table1_s": dur["bounds.table1_report"] * per,
            "bounds.check_integral_s": dur["bounds.integral_formula_check"] * per,
            "bounds.minimizer_s": dur["bounds.minimizer_report"] * per,
            "bounds.volume_integrals_per_pair": check_volumes / checks if checks else 0.0,
            "torsion.derive_s": dur["torsion.derive"] * per,
            "torsion.classify_s": dur["torsion.classify"] * per,
            "torsion.slack_s": sum(own[n] for n in SLACKS) * per,
            "torsion.derive_calls_per_op": derive_calls * per,
            "torsion.ns_per_entry": (1e9 * dur["torsion.derive"] / total["torsion.derive"]
                                     if total["torsion.derive"] else 0.0),
            "spaces.parse_s": (dur["spaces.parse_space"] + dur["spaces.parse_focal"]) * per,
        }

    def write(self, path: Path) -> None:
        """All spans as gzip CSV: name, parent, start_ns, end_ns, value, error."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name,parent,start_ns,end_ns,value,error\n")
            for row in zip(self.names, self.parents, self.starts, self.ends, self.values,
                           self.errors):
                name, parent, start, end, value, error = row
                out.write(f"{name},{parent},{round((start - origin) * 1e9)},"
                          f"{round((end - origin) * 1e9)},{value},{error}\n")
