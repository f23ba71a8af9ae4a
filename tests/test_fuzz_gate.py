"""Domain-wide fuzz gate: ``bending --json`` in process over the catalog.

Every catalog pair up to dimension 200, with each of its focal varieties, at
a curvature scale log-uniform over the whole positive float range and with
both tolerances drawn log-uniform in (0, 1), must end in exit 0 with a
strict JSON document whose verdict and endpoint are those of
``oracles.exact_bending`` and whose finite bar contains R * lam exactly, or
in exit 3 (undecided) with one line on stderr.  Exit 3 is not yet limited to
the scales where R * lam is not a normal float: the quadrature still
overflows or underflows at some scales where it is.
"""
import contextlib
import io
import json
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from folbend import cli
from oracles import catalog_labels, exact_bending

PAIRS = list(catalog_labels())
# log10 of the smallest and largest floats that 10.0 ** x reaches.
LOG_LAM = (-323.3, 308.25)


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert "Traceback" not in err.getvalue()
    if code == 3:
        assert out.getvalue() == "" and err.getvalue().startswith("folbend: undecided: ")
        return
    assert (code, err.getvalue()) == (0, "")
    doc = json.loads(out.getvalue(), parse_constant=_no_constant)
    verdict, exact, endpoint = exact_bending(space, focal)
    assert (doc["status"], doc.get("divergent_endpoint")) == (verdict, endpoint)
    if verdict == "finite":
        value, bar = doc["value_per_volume"], doc["error_estimate"]
        assert math.isfinite(bar)
        assert abs(Fraction(value) - exact * Fraction(lam)) <= Fraction(bar)
