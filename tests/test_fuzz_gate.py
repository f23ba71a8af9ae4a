"""Domain-wide fuzz gate: the CLI in process over the whole input domain.

``bending --json``: every catalog pair up to dimension 200, with each of its
focal varieties, at a curvature scale log-uniform over the whole positive
float range and with both tolerances drawn log-uniform in (0, 1), must end
in exit 0 with a strict JSON document whose verdict and endpoint are those
of ``oracles.exact_bending`` and whose finite bar contains R * lam exactly,
or in exit 3 (undecided) with one line on stderr.  Exit 3 is not yet limited
to the scales where R * lam is not a normal float: the quadrature still
overflows or underflows at some scales where it is.

``torus --json``: radii across the float range, with both weightings, end in
exit 2 exactly when 0 < r < R fails, and otherwise in exit 0 with a bar that
contains ``oracles.torus_reference`` or in exit 3.  ``complex-radial --json``
ends in exit 2 exactly when m < 2, in exit 3 exactly where 4 lam overflows,
and otherwise in B/Vol == 2 lam with the bar 0.0.

``bounds --json``: catalog spaces up to dimension 200, q in [-2, n + 1], every
case label and a curvature scale over the whole float range end in exit 2
exactly when ``oracles.exact_bounds`` finds no bound, and otherwise in exit 0
with both bounds within 4 ulps of their exact values, or in exit 3 only where
one of those, widened by 4 ulps, leaves the normal float range.

``table1 --json`` and ``check-integral --json`` (one catalog pair up to
dimension 200) at a curvature scale over the whole float range end in exit 3,
or in exit 0 with every table row reproduced and every applicable identity row
holding, and with each Ricci side within 4 ulps of (n - 1 + 3 nu) * lam.
Exit 1 (a row or the identity fails) is never allowed.  Exit 3 is common at
both ends of the range until the catalog answers are exact.
"""
import contextlib
import io
import json
import math
import sys
from decimal import Decimal
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from folbend import cli
from oracles import catalog_labels, exact_bending, exact_bounds, ricci_per_lam, torus_reference

PAIRS = list(catalog_labels())
SPACES = list(dict.fromkeys(space for space, _ in PAIRS))
# log10 of the smallest and largest floats that 10.0 ** x reaches.
LOG_LAM = (-323.3, 308.25)


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def _run(argv):
    """(exit code, stdout, stderr) of ``cli.main`` in process, with no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue(), err.getvalue()


def _document(code, out, err):
    """The strict JSON document of an answered call; None for exit 3 with one stderr line."""
    if code == 3:
        assert out == "" and err.startswith("folbend: undecided: ") and err.count("\n") == 1
        return None
    assert (code, err) == (0, "")
    return json.loads(out, parse_constant=_no_constant)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pair=st.sampled_from(PAIRS),
       log_lam=st.floats(*LOG_LAM),
       log_rel=st.floats(-14.0, -0.5),
       log_abs=st.floats(-16.0, -0.5))
def test_bending_json_ends_in_the_exact_answer_or_undecided(pair, log_lam, log_rel, log_abs):
    space, focal = pair
    lam = 10.0 ** log_lam
    argv = ["bending", "--space", space, "--focal", focal, "--lambda", repr(lam),
            "--rel-tol", repr(10.0 ** log_rel), "--abs-tol", repr(10.0 ** log_abs), "--json"]
    doc = _document(*_run(argv))
    if doc is None:
        return
    verdict, exact, endpoint = exact_bending(space, focal)
    assert (doc["status"], doc.get("divergent_endpoint")) == (verdict, endpoint)
    if verdict == "finite":
        value, bar = doc["value_per_volume"], doc["error_estimate"]
        assert math.isfinite(bar)
        assert abs(Fraction(value) - exact * Fraction(lam)) <= Fraction(bar)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(log_big=st.floats(*LOG_LAM),
       ratio=st.one_of(st.floats(0.0, 2.0, exclude_min=True),  # and narrow gaps:
                       st.floats(-17.0, -1.0).map(lambda log_gap: 1.0 - 10.0 ** log_gap)),
       weighted=st.booleans())
def test_torus_json_holds_the_closed_form_or_is_undecided(log_big, ratio, weighted):
    big = 10.0 ** log_big
    small = big * ratio
    argv = ["torus", "--R", repr(big), "--r", repr(small), "--json"]
    if weighted:
        argv.insert(-1, "--area-weighted")
    code, out, err = _run(argv)
    if not 0.0 < small < big:
        assert (code, out) == (2, "") and err.startswith("folbend: ")
        return
    doc = _document(code, out, err)
    if doc is not None:
        exact = torus_reference(big, small, area_weighted=weighted)
        assert abs(Decimal(doc["value"]) - exact) <= Decimal(doc["error_estimate"])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(m=st.integers(-3, 200), log_lam=st.floats(*LOG_LAM))
def test_complex_radial_json_is_twice_lambda(m, log_lam):
    lam = 10.0 ** log_lam
    code, out, err = _run(["complex-radial", "--m", str(m), "--lambda", repr(lam), "--json"])
    if m < 2:
        assert (code, out) == (2, "") and err.startswith("folbend: ")
        return
    doc = _document(code, out, err)
    assert (doc is None) == math.isinf(4.0 * lam)
    if doc is not None:
        assert (doc["value_per_volume"], doc["error_estimate"]) == (2.0 * lam, 0.0)


def _normal(exact):
    """Whether a positive exact value lies 4 ulps inside the normal float range."""
    margin = 1 - 8 * Fraction(sys.float_info.epsilon)
    low, high = Fraction(sys.float_info.min), Fraction(sys.float_info.max)
    return low <= margin * exact and exact <= margin * high


@settings(max_examples=300, deadline=None, derandomize=True)
@given(space=st.sampled_from(SPACES), case=st.sampled_from(["I", "II", "III", "I'", "III-", "III+"]),
       log_lam=st.floats(*LOG_LAM), data=st.data())
def test_bounds_json_is_the_exact_bound_or_undecided(space, case, log_lam, data):
    n = exact_bounds(space, 1, case)[0]
    q = data.draw(st.integers(-2, n + 1), label="q")
    lam = 10.0 ** log_lam
    code, out, err = _run(["bounds", "--space", space, "--q", str(q), "--case", case,
                           "--lambda", repr(lam), "--json"])
    _, coefficient, einstein = exact_bounds(space, q, case)
    if coefficient is None:
        assert (code, out) == (2, "") and err.startswith("folbend: ")
        return
    exact = (coefficient * q * (n - q) * Fraction(lam), einstein * Fraction(lam))
    doc = _document(code, out, err)
    if doc is None:
        assert not all(map(_normal, exact))
        return
    assert Fraction(doc["coefficient"]) == coefficient
    for value, want in zip((doc["value"], doc["einstein_value"]), exact):
        assert abs(Fraction(value) - want) <= 4 * Fraction(math.ulp(value))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(log_lam=st.floats(*LOG_LAM))
def test_table1_json_reproduces_every_row_or_is_undecided(log_lam):
    doc = _document(*_run(["table1", "--lambda", repr(10.0 ** log_lam), "--json"]))
    if doc is not None:
        assert doc["all_ok"] is True
        assert all(row["status"] != "Failed" for row in doc["rows"])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pair=st.sampled_from(PAIRS), log_lam=st.floats(*LOG_LAM))
def test_check_integral_json_holds_or_is_undecided(pair, log_lam):
    space, focal = pair
    lam = 10.0 ** log_lam
    doc = _document(*_run(["check-integral", "--space", space, "--focal", focal,
                           "--lambda", repr(lam), "--json"]))
    if doc is None or doc.get("status") == "not-computable":
        return
    (row,) = doc["results"]
    assert row["status"] == ("applicable" if exact_bending(space, focal)[0] == "finite"
                             else "not-applicable")
    assert row["holds"] or row["status"] == "not-applicable"
    exact = ricci_per_lam(space) * Fraction(lam)
    assert abs(Fraction(row["lhs"]) - exact) <= 4 * Fraction(math.ulp(row["lhs"]))
