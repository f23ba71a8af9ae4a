"""Command line front end.

Every subcommand prints a human-readable summary by default and a stable
JSON document with --json (schema_version 1, keys sorted, floats in
shortest round-trip form, so dumps(loads(text)) reproduces the bytes).

Each ``_cmd_*`` checks its own flag combinations, computes, and returns
``(code, context, result, lines)``: the exit code, the JSON keys echoing its
inputs, the result (a dataclass or a dict) and the text summary's lines.
``main`` does the rest once: it resolves ``args.quad`` and ``args.lam`` from
the flags or the FOLBEND_* variables, and prints the one form asked for: the
JSON document (adding ``schema_version`` and ``command``), the CSV row or the text.

Exit codes: 0 for an answered computation (divergence and catalog
verdicts included, and also when the reader of stdout closes it early),
1 when the reference table fails to reproduce or a self check fails, 2
for usage errors (every ValueError: an invalid option or FOLBEND_* value,
a case whose condition fails, an --emit-profile that cannot be written),
3 when the answer is not decided (every UndecidedError: the quadrature
misses its tolerance, or a density, volume, bar, torus value, Ricci curvature or
bound is not finite, or a bound, Ricci curvature or B/Vol is below the normal range).  The
README lists the cases.  ``torus`` and ``complex-radial`` evaluate closed
forms: they accept and check --rel-tol and --abs-tol but do not use them.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from enum import Enum
from fractions import Fraction
from typing import Optional

from .bending import (
    complex_radial_bending,
    epsilon_deformed_bending,
    torus_bending,
    total_bending,
)
from .bounds import (
    DEFAULT_CHECK_PAIRS,
    einstein_lower_bound,
    integral_formula_check,
    lower_bound,
    minimizer_report,
    table1_report,
)
from .quadrature import QuadratureConfig, UndecidedError
from .spaces import parse_focal, parse_space
from .tubes import NotComputableError, tube_profile, write_profile_csv

SCHEMA_VERSION = 1


def _setting(flag, name: str, fallback: float) -> float:
    """A flag's value, else the environment variable ``name``, else ``fallback``."""
    if flag is not None:
        return flag
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return float(raw)
    except ValueError as exc:
        raise ValueError(f"invalid {name}={raw!r}") from exc


def _plain(obj):
    """JSON-ready form of a result: dataclass fields by name, enums by value,
    fractions as strings, tuples as lists."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (tuple, list)):
        return [_plain(item) for item in obj]
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


def _divergent_line(res) -> str:
    # Every cataloged divergence is logarithmic (exponent_estimate 1.0).
    return f"Divergent (log) at r={res.divergent_endpoint}"


def _not_computable(label: str, exc: NotComputableError):
    """The result and the text line of a pair the tube catalog does not determine."""
    return {"status": "not-computable", "reason": str(exc)}, [f"{label}: not computable ({exc})"]


_CSV_COLUMNS = ("space", "focal", "lambda", "status", "value_per_volume",
                "error_estimate", "divergent_endpoint", "exponent_estimate", "epsilon")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def _cmd_bending(args):
    if args.csv and args.json:
        raise ValueError("--csv and --json are mutually exclusive")
    space = parse_space(args.space, args.lam)
    focal = parse_focal(args.focal)
    context = {"space": space.label, "focal": focal.label, "lambda": args.lam}
    label = f"{space.label} / {focal.label}"
    if args.epsilon is not None:
        context["epsilon"] = args.epsilon
    if args.emit_profile:
        try:
            write_profile_csv(tube_profile(space, focal), args.emit_profile)
        except (OSError, NotComputableError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise ValueError(f"cannot write {args.emit_profile}: {reason}") from exc
    try:
        if args.epsilon is not None:
            res = epsilon_deformed_bending(space, focal, args.epsilon, args.quad)
        else:
            res = total_bending(space, focal, args.quad)
    except NotComputableError as exc:
        return (0, context, *_not_computable(label, exc))
    if args.epsilon is not None:
        label += f" (epsilon = {args.epsilon:g})"
    if res.status == "divergent":
        line = f"{label}: {_divergent_line(res)}"
    else:
        line = (f"{label}: B/Vol = {res.value_per_volume:.6f} "
                f"(error estimate {res.error_estimate:.1e})")
        if res.value is not None:
            line += f"; absolute B = {res.value:.6f}, Vol = {res.volume:.6f}"
    return 0, context, res, [line]


def _cmd_torus(args):
    res = torus_bending(args.big_radius, args.small_radius, args.quad,
                        area_weighted=args.area_weighted)
    return 0, {"big_radius": args.big_radius, "small_radius": args.small_radius}, res, [
        f"torus R={args.big_radius:g}, r={args.small_radius:g}: "
        f"B = {res.value:.6f} < {res.upper_bound:.6f} (upper bound)"]


def _cmd_complex_radial(args):
    res = complex_radial_bending(args.m, args.lam, args.quad)
    return 0, {"m": args.m, "lambda": args.lam}, res, [
        f"complex radial on CP:{args.m}: B/Vol = {res.value_per_volume:.6f} "
        f"(closed form: 2 * lam = {res.value_per_volume:.6f})"]


def _table1_line(row) -> str:
    label = f"{row.space} / {row.focal}"
    if row.kind == "finite" and row.computed is not None:
        return (f"{label}: B/Vol = {row.computed:.6f} (closed form: {row.closed_form} * lam"
                f" = {row.expected:.6f}) [{row.status}]")
    if row.kind == "divergent" and row.divergent_endpoint is not None:
        return f"{label}: {_divergent_line(row)} [{row.status}]"
    if row.kind == "not-computable":
        return f"{label}: not determined by the tube catalog [{row.status}]"
    return f"{label}: [{row.status}]"


def _cmd_table1(args):
    rows = table1_report(lam=args.lam, rtol=args.rtol, quad=args.quad)
    all_ok = all(row.ok for row in rows)
    lines = [_table1_line(row) for row in rows]
    lines.append(f"table {'reproduced' if all_ok else 'FAILED'} "
                 f"(lam={args.lam:g}, rtol={args.rtol:g})")
    return (0 if all_ok else 1,
            {"lambda": args.lam, "rtol": args.rtol, "all_ok": all_ok},
            {"rows": rows}, lines)


def _check_line(r) -> str:
    label = f"{r.space} / {r.focal}"
    if r.status == "not-applicable":
        tail = "" if r.rhs is None else f" (integral mean = {r.rhs:.6f})"
        return f"{label}: not applicable, bending diverges{tail}"
    return (f"{label}: Ric = {r.lhs:.6f}, integral mean = {r.rhs:.6f}, "
            f"gap = {r.relative_gap:.2e} [{'ok' if r.holds else 'FAILED'}]")


def _cmd_check_integral(args):
    if args.focal is not None and not args.space:
        raise ValueError("--focal needs --space")
    names = [(args.space, args.focal or "point")] if args.space else DEFAULT_CHECK_PAIRS
    pairs = [(parse_space(s, args.lam), parse_focal(f)) for s, f in names]
    context = {"lambda": args.lam}
    try:
        results = [integral_formula_check(space, focal, args.quad) for space, focal in pairs]
    except NotComputableError as exc:  # only a --space pair can be outside the catalog
        space, focal = pairs[0]
        return (0, context, *_not_computable(f"{space.label} / {focal.label}", exc))
    holds = all(r.holds for r in results if r.status == "applicable")
    return 0 if holds else 1, context, {"results": results}, [_check_line(r) for r in results]


def _cmd_bounds(args):
    space = parse_space(args.space, args.lam)
    bound = lower_bound(space, args.q, args.case)
    einstein = einstein_lower_bound(space)
    return 0, {"space": space.label, "lambda": args.lam, "q": args.q}, {
        "case": bound.case, "coefficient": bound.coefficient, "value": bound.value,
        "einstein_value": einstein}, [
        f"{space.label}, q={args.q}, case {bound.case.value}: "
        f"B/Vol >= {bound.coefficient} * q(n-q) * lam = {bound.value:.6f}",
        f"scalar-curvature variant: B/Vol >= {einstein:.6f}"]


def _cmd_minimizer(args):
    rep = minimizer_report(parse_space(args.space, args.lam), args.quad)
    tail = (f"B/Vol = {rep.bending.value_per_volume:.6f} (slack {rep.slack:.2e})"
            if rep.bending.is_finite else _divergent_line(rep.bending))
    lines = [f"{rep.space}: bound = {rep.bound.value:.6f}", f"radial foliation: {tail}", rep.note]
    return 0, {"space": rep.space, "lambda": args.lam}, {
        "bound_value": rep.bound.value, "bending_status": rep.bending.status,
        "value_per_volume": rep.bending.value_per_volume, "slack": rep.slack,
        "attains_bound": rep.attains_bound, "leaves_umbilical": rep.leaves_umbilical,
        "leaves_integrable": rep.leaves_integrable, "note": rep.note}, lines


def _cmd_selfcheck(args):
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    from .torsion import SplitDims, mu_identity_residual, random_coefficients

    # Table 1 and the default identity survey at lam = 1, through the library's own paths.
    failures = [f"table 1 row {_table1_line(row)}" for row in table1_report()
                if not row.ok]
    checks = (integral_formula_check(parse_space(space), parse_focal(focal))
              for space, focal in DEFAULT_CHECK_PAIRS)
    failures += [f"integral identity {_check_line(r)}" for r in checks if not r.holds]

    # algebraic identity between the invariants of random coefficient blocks
    for k in range(5):
        dims = SplitDims(4 + (k % 3), 1 + (k % 3))
        coeffs = random_coefficients(dims, seed=args.seed + k)
        res_v, res_h = mu_identity_residual(coeffs)
        if max(abs(res_v), abs(res_h)) > 1e-12:
            failures.append(f"invariant identity residual too large at {dims}")
            break

    if failures:
        return 1, {}, {}, [f"FAILED: {line}" for line in failures]
    return 0, {}, {}, ["all internal checks passed"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="folbend",
        description="Bending and energy of singular foliations on model spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    quad_parent = argparse.ArgumentParser(add_help=False)
    quad_parent.add_argument("--rel-tol", type=float, default=None,
                             help="relative quadrature tolerance (FOLBEND_REL_TOL)")
    quad_parent.add_argument("--abs-tol", type=float, default=None,
                             help="absolute tolerance on B/Vol (FOLBEND_ABS_TOL); torus and "
                                  "complex-radial use closed forms and ignore both tolerances")

    lam_parent = argparse.ArgumentParser(add_help=False)
    lam_parent.add_argument("--lambda", dest="lam", type=float, default=None,
                            help="curvature scale (FOLBEND_LAMBDA, default 1)")

    json_parent = argparse.ArgumentParser(add_help=False)
    json_parent.add_argument("--json", action="store_true",
                             help="print a machine-readable JSON document")

    p = sub.add_parser("bending", parents=[quad_parent, lam_parent, json_parent],
                       help="total bending of a radial/tubular foliation",
                       description="B/Vol of a radial/tubular foliation, or the verdict that "
                       "it diverges, decided by the exact endpoint orders of the tube "
                       "(exponent_estimate 1.0: every cataloged divergence is logarithmic).")
    p.add_argument("--space", required=True, help="ambient space label, e.g. S:5 or CaP2")
    p.add_argument("--focal", default="point", help="focal variety: point or sub:S:2")
    p.add_argument("--epsilon", type=float, default=None,
                   help="deformation half-width in [0, pi/2]")
    p.add_argument("--csv", action="store_true", help="print the result row as CSV")
    p.add_argument("--emit-profile", metavar="PATH",
                   help="also write the sampled tube profile to PATH as CSV")
    p.set_defaults(func=_cmd_bending)

    p = sub.add_parser("torus", parents=[quad_parent, json_parent],
                       help="bending of the circle foliation of a torus of revolution")
    p.add_argument("--R", dest="big_radius", type=float, required=True)
    p.add_argument("--r", dest="small_radius", type=float, required=True)
    p.add_argument("--area-weighted", action="store_true",
                   help="weight the integrand by the surface area element")
    p.set_defaults(func=_cmd_torus)

    p = sub.add_parser("complex-radial", parents=[quad_parent, lam_parent, json_parent],
                       help="bending of the complex radial foliation on CP:m")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_complex_radial)

    p = sub.add_parser("table1", parents=[quad_parent, lam_parent, json_parent],
                       help="recompute the reference bending table")
    p.add_argument("--rtol", type=float, default=1e-5,
                   help="relative tolerance for reproduction (default 1e-5)")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("check-integral", parents=[quad_parent, lam_parent, json_parent],
                       help="verify the mean-curvature integral identity")
    p.add_argument("--space", default=None, help="restrict to one ambient space")
    p.add_argument("--focal", default=None, help="focal variety for --space")
    p.set_defaults(func=_cmd_check_integral)

    p = sub.add_parser("bounds", parents=[lam_parent, json_parent],
                       help="lower bounds for B/Vol by leaf dimension")
    p.add_argument("--space", required=True)
    p.add_argument("--q", type=int, required=True, help="leaf dimension")
    p.add_argument("--case", required=True,
                   help="bound case: I, II or III, or an explicit I', III- or III+")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("minimizer", parents=[quad_parent, lam_parent, json_parent],
                       help="compare the radial foliation against the q=n-1 bound")
    p.add_argument("--space", required=True)
    p.set_defaults(func=_cmd_minimizer)

    p = sub.add_parser("selfcheck", help="run fast internal consistency checks")
    p.add_argument("--seed", type=int, default=20240817)
    p.set_defaults(func=_cmd_selfcheck)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if "rel_tol" in vars(args):
            default = QuadratureConfig()
            args.quad = QuadratureConfig(
                rel_tol=_setting(args.rel_tol, "FOLBEND_REL_TOL", default.rel_tol),
                abs_tol=_setting(args.abs_tol, "FOLBEND_ABS_TOL", default.abs_tol))
        if "lam" in vars(args):
            # An invalid scale is rejected, as a ValueError, by the space or report it builds.
            args.lam = _setting(args.lam, "FOLBEND_LAMBDA", 1.0)
        code, context, result, lines = args.func(args)
        row = {"schema_version": SCHEMA_VERSION, "command": args.command, **context,
               **_plain(result)}
        if vars(args).get("json"):
            print(json.dumps(row, sort_keys=True, indent=2))
        elif vars(args).get("csv"):
            csv.writer(sys.stdout).writerows(
                [_CSV_COLUMNS, [_csv_cell(row.get(key)) for key in _CSV_COLUMNS]])
        else:
            print(*lines, sep="\n")
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early; the answer was computed.  Point
        # stdout at devnull so the interpreter's final flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except UndecidedError as exc:
        print(f"folbend: undecided: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"folbend: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
