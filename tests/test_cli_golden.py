"""Golden outputs of the command line: every --json document, the CSV row
and the main human summaries, pinned against files under tests/golden/.

The files were written by running this module as a script,

    PYTHONPATH=src python tests/test_cli_golden.py [NAME ...]

on the commit before the JSON documents were built by one generic
serializer (x86-64, Python 3.11, numpy 2.4).  Running it again rewrites
the named files, or all of them without a name, from the current code; do
that only for a deliberate change of the output contract, and check with
``git diff`` that nothing else in a rewritten file moved.

Keys, strings, ints, bools and nulls must match exactly.  Floats must
match to 1e-12 relative, with an absolute floor of 1e-14 for quantities
that are pure round-off (a slack or a gap next to zero): vectorized
sin/tan may differ in the last ulp on other CPUs.  Human lines that print
round-off are masked before comparison.
"""
import contextlib
import csv
import io
import json
import math
import re
import sys
from pathlib import Path

import pytest

from folbend import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> (argv, exit code); the suffix of the name's file says how to compare.
CASES = {
    "bending_finite.json": (["bending", "--space", "S:3", "--json"], 0),
    "bending_divergent.json": (["bending", "--space", "S:2", "--json"], 0),
    "bending_not_computable.json":
        (["bending", "--space", "CP:2", "--focal", "sub:RP:2", "--json"], 0),
    "bending_epsilon.json": (["bending", "--space", "S:2", "--epsilon", "0.5", "--json"], 0),
    "bending_lambda.json":
        (["bending", "--space", "S:5", "--focal", "sub:S:2", "--lambda", "2.5", "--json"], 0),
    "torus.json": (["torus", "--R", "2", "--r", "1", "--json"], 0),
    "torus_area_weighted.json":
        (["torus", "--R", "2", "--r", "1", "--area-weighted", "--json"], 0),
    "complex_radial.json": (["complex-radial", "--m", "3", "--json"], 0),
    "table1.json": (["table1", "--json"], 0),
    "table1_lambda3.json": (["table1", "--lambda", "3", "--json"], 0),
    "table1_unreachable.json": (["table1", "--rtol", "1e-18", "--json"], 1),
    "check_integral.json": (["check-integral", "--json"], 0),
    "check_integral_divergent.json":
        (["check-integral", "--space", "CP:2", "--focal", "point", "--json"], 0),
    "bounds.json": (["bounds", "--space", "CP:2", "--q", "2", "--case", "II", "--json"], 0),
    "minimizer_S3.json": (["minimizer", "--space", "S:3", "--json"], 0),
    "minimizer_CP3.json": (["minimizer", "--space", "CP:3", "--json"], 0),
    "bending_S4.csv": (["bending", "--space", "S:4", "--csv"], 0),
    "table1.txt": (["table1"], 0),
    "check_integral.txt": (["check-integral"], 0),
    "bending_S2.txt": (["bending", "--space", "S:2"], 0),
    "bending_S5_sub.txt": (["bending", "--space", "S:5", "--focal", "sub:S:2"], 0),
    "minimizer_CP3.txt": (["minimizer", "--space", "CP:3"], 0),
}

_ROUND_OFF = re.compile(r"gap = \S+")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _float_close(got, want):
    return math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-14)


def _assert_same(got, want, where="$"):
    if isinstance(want, float) and type(got) is float:
        assert _float_close(got, want), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), f"{where}: keys differ"
        for key in want:
            _assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def _csv_cell(text):
    try:
        return float(text)
    except ValueError:
        return text


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    argv, exit_code = CASES[name]
    code, out, err = _run(argv)
    assert (code, err) == (exit_code, "")
    want = (GOLDEN / name).read_bytes().decode()
    if name.endswith(".json"):
        _assert_same(json.loads(out), json.loads(want))
    elif name.endswith(".csv"):
        rows = [[_csv_cell(c) for c in row] for row in csv.reader(io.StringIO(out))]
        golden = [[_csv_cell(c) for c in row] for row in csv.reader(io.StringIO(want))]
        _assert_same(rows, golden)
        assert out.count("\r\n") == want.count("\r\n")
    else:
        assert _ROUND_OFF.sub("gap = ~", out) == _ROUND_OFF.sub("gap = ~", want)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sys.argv[1:] or CASES:
        if name not in CASES:
            sys.exit(f"{name}: not a golden file name; one of {', '.join(CASES)}")
        argv, exit_code = CASES[name]
        code, out, err = _run(argv)
        if (code, err) != (exit_code, ""):
            sys.exit(f"{name}: exit {code}, stderr {err!r}")
        (GOLDEN / name).write_text(out, newline="")
