"""Command line behavior: output formats, exit codes, environment knobs."""
import csv
import dataclasses
import gc
import io
import json
import os
import subprocess
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import pytest

from folbend import bending, bounds, cli
from folbend.quadrature import UndecidedError
from folbend.spaces import parse_focal, parse_space
from oracles import BOUND_SPACES, label_reading, torus_reference
from test_cli_golden import CASES as GOLDEN_CASES


def run_main(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def run_subprocess(argv, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "folbend", *argv],
        capture_output=True, text=True, env=full_env,
    )


def assert_json_round_trips(text):
    payload = json.loads(text)
    assert payload["schema_version"] == 1
    assert json.dumps(payload, sort_keys=True, indent=2) == text.strip()
    return payload


class TestBendingCommand:
    def test_human_output(self, capsys):
        code, out, _ = run_main(["bending", "--space", "S:5", "--focal", "sub:S:2"], capsys)
        assert code == 0
        assert "B/Vol = 6.000000" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run_main(["bending", "--space", "S:3", "--json"], capsys)
        assert code == 0
        payload = assert_json_round_trips(out)
        assert payload["status"] == "finite"
        assert payload["value_per_volume"] == pytest.approx(1.0, rel=1e-7)
        assert payload["space"] == "S:3"

    def test_divergent_verdict_exits_zero(self, capsys):
        code, out, _ = run_main(["bending", "--space", "CP:2", "--json"], capsys)
        assert code == 0
        payload = assert_json_round_trips(out)
        assert payload["status"] == "divergent"
        assert payload["divergent_endpoint"] == "mu"
        assert 0.9 <= payload["exponent_estimate"] <= 1.1

    def test_divergent_human_wording(self, capsys):
        code, out, _ = run_main(["bending", "--space", "S:2"], capsys)
        assert code == 0
        assert "Divergent (log) at r=both" in out

    def test_epsilon_window(self, capsys):
        code, out, _ = run_main(
            ["bending", "--space", "S:2", "--epsilon", "0.5", "--json"], capsys)
        assert code == 0
        payload = assert_json_round_trips(out)
        assert payload["epsilon"] == 0.5
        assert payload["status"] == "finite"
        assert payload["value"] > 0

    def test_window_below_the_float_resolution_exits_three(self, capsys):
        # The edges of this window round to the same float; it printed 0.0 +- 0.0.
        code, out, err = run_main(["bending", "--space", "S:3", "--epsilon", "1e-16", "--json"],
                                  capsys)
        assert (code, out) == (3, "")
        assert err.startswith("folbend: undecided: ") and err.count("\n") == 1

    @pytest.mark.parametrize("space", ["S:2", "CP:2"])
    def test_window_next_to_a_divergent_end_is_answered(self, space, capsys):
        code, out, _ = run_main(["bending", "--space", space, "--epsilon", "1.57079632679",
                                 "--json"], capsys)
        assert code == 0
        payload = json.loads(out, parse_constant=_no_constant)
        assert payload["status"] == "finite"
        assert 0.0 < payload["error_estimate"] < 1e-4 * payload["value_per_volume"]

    def test_csv_output(self, capsys):
        code, out, _ = run_main(["bending", "--space", "S:4", "--csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("space,focal,lambda,status,value_per_volume")
        fields = lines[1].split(",")
        assert fields[0] == "S:4" and fields[3] == "finite"
        assert float(fields[4]) == pytest.approx(0.75, rel=1e-7)

    def test_emit_profile(self, tmp_path, capsys):
        target = tmp_path / "profile.csv"
        code, _, _ = run_main(
            ["bending", "--space", "S:5", "--focal", "sub:S:2",
             "--emit-profile", str(target)], capsys)
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "r,alpha_1,alpha_2,theta"
        assert len(lines) == 201

    def test_unwritable_profile_path_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "profile.csv"
        code, out, err = run_main(
            ["bending", "--space", "S:3", "--emit-profile", str(target)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("folbend: ") and str(target) in err

    def test_csv_with_json_is_usage_error(self, capsys):
        code, out, err = run_main(["bending", "--space", "S:4", "--csv", "--json"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("folbend: ")

    def test_not_computable_pair(self, capsys):
        code, out, _ = run_main(
            ["bending", "--space", "CP:2", "--focal", "sub:RP:2", "--json"], capsys)
        assert code == 0
        payload = assert_json_round_trips(out)
        assert payload["status"] == "not-computable"

    def test_not_computable_pair_as_csv(self, capsys):
        code, out, _ = run_main(
            ["bending", "--space", "CP:2", "--focal", "sub:RP:2", "--csv"], capsys)
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("space,focal,lambda,status,value_per_volume")
        assert row == "CP:2,sub:RP:2,1.0,not-computable,,,,"

    def test_profile_of_not_computable_pair_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "nc.csv"
        code, out, err = run_main(
            ["bending", "--space", "CP:2", "--focal", "sub:RP:2",
             "--emit-profile", str(target)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"folbend: cannot write {target}: ")
        assert "not computable" in err
        assert not target.exists()

    def test_bad_space_is_usage_error(self, capsys):
        code, _, err = run_main(["bending", "--space", "K:4"], capsys)
        assert code == 2
        assert "folbend" in err

    def test_undecided_maps_to_exit_three(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise UndecidedError("cannot reach the requested tolerance")
        monkeypatch.setattr(cli, "total_bending", boom)
        code, _, err = run_main(["bending", "--space", "S:3"], capsys)
        assert code == 3
        assert "undecided" in err


class TestTableCommand:
    def test_reproduces_and_exits_zero(self, capsys):
        code, out, _ = run_main(["table1"], capsys)
        assert code == 0
        assert "table reproduced" in out
        assert "closed form:" in out
        assert "paper" not in out.lower()

    def test_json_payload(self, capsys):
        code, out, _ = run_main(["table1", "--json"], capsys)
        assert code == 0
        payload = assert_json_round_trips(out)
        assert payload["all_ok"] is True
        assert len(payload["rows"]) == 19
        by_key = {(r["space"], r["focal"]): r for r in payload["rows"]}
        assert by_key[("CaP2", "point")]["closed_form"] == "139/21"
        assert by_key[("S:2", "point")]["status"] == "DivergenceConfirmed"

    def test_unreachable_tolerance_exits_one(self, capsys):
        code, out, _ = run_main(["table1", "--rtol", "1e-18"], capsys)
        assert code == 1
        assert "FAILED" in out

    def test_lambda_flag(self, capsys):
        code, out, _ = run_main(["table1", "--lambda", "2", "--json"], capsys)
        assert code == 0
        payload = assert_json_round_trips(out)
        row = [r for r in payload["rows"]
               if (r["space"], r["focal"]) == ("S:5", "sub:S:2")][0]
        assert row["expected"] == pytest.approx(12.0)
        assert row["status"] == "Reproduced"


class TestOtherCommands:
    def test_torus_json(self, capsys):
        code, out, _ = run_main(["torus", "--R", "2", "--r", "1", "--json"], capsys)
        assert code == 0
        payload = assert_json_round_trips(out)
        assert payload["value"] < payload["upper_bound"]

    def test_torus_rejects_bad_radii(self, capsys):
        code, _, err = run_main(["torus", "--R", "1", "--r", "2"], capsys)
        assert code == 2

    @pytest.mark.parametrize("radii", [["--R", "3e-154", "--r", "1e-154"],
                                       ["--R", "2e-155", "--r", "1e-155"],
                                       ["--R", "1e300", "--r", "1"]], ids=" ".join)
    @pytest.mark.parametrize("weighted", [[], ["--area-weighted"]], ids=["flat", "weighted"])
    def test_torus_past_the_float_range_is_undecided(self, radii, weighted, capsys):
        # 3e-154: the bound 2 (pi/(R-r))^2 overflows (the flat value, about
        # 1.197e308, does not); 2e-155: (R - r)(R + r) underflows; 1e300: it
        # overflows, and the bound underflows
        code, out, err = run_main(["torus", *radii, *weighted, "--json"], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("folbend: undecided: ") and err.count("\n") == 1

    def test_torus_at_small_finite_radii(self, capsys):
        code, out, _ = run_main(["torus", "--R", "1e-150", "--r", "5e-151", "--json"], capsys)
        assert code == 0
        assert assert_json_round_trips(out)["value"] == pytest.approx(1.2214664915510e301,
                                                                     rel=1e-12)

    @pytest.mark.parametrize("weighted", [False, True], ids=["flat", "weighted"])
    def test_torus_on_a_narrow_gap(self, weighted, capsys):
        argv = ["torus", "--R", "1", "--r", "0.9999999999", "--json"]
        code, out, _ = run_main(argv + ["--area-weighted"] * weighted, capsys)
        assert code == 0
        payload = assert_json_round_trips(out)
        exact = torus_reference(1.0, 0.9999999999, weighted)
        assert abs(Decimal(payload["value"]) - exact) <= payload["error_estimate"]

    def test_torus_with_a_subnormal_tube(self, capsys):
        argv = ["torus", "--R", "1e-100", "--r", "5e-324", "--area-weighted", "--json"]
        code, out, _ = run_main(argv, capsys)
        assert code == 0
        payload = assert_json_round_trips(out)
        exact = torus_reference(1e-100, 5e-324, True)
        assert abs(Decimal(payload["value"]) - exact) <= payload["error_estimate"]

    def test_complex_radial(self, capsys):
        code, out, _ = run_main(["complex-radial", "--m", "3", "--json"], capsys)
        assert code == 0
        payload = assert_json_round_trips(out)
        assert payload["value_per_volume"] == pytest.approx(2.0, rel=1e-7)

    def test_check_integral_all_rows(self, capsys):
        code, out, _ = run_main(["check-integral"], capsys)
        assert code == 0
        assert out.count("[ok]") >= 8

    def test_check_integral_single_divergent_pair(self, capsys):
        code, out, _ = run_main(
            ["check-integral", "--space", "CP:2", "--focal", "point"], capsys)
        assert code == 0
        assert "not applicable" in out

    def test_check_integral_not_computable_pair(self, capsys):
        # the same answer as bending gives for the pair, in either form, exit 0
        pair = ["--space", "CP:2", "--focal", "sub:RP:2"]
        for form in ([], ["--json"]):
            code, out, err = run_main(["check-integral", *pair, *form], capsys)
            want = run_main(["bending", *pair, *form], capsys)[1]
            assert (code, err) == (0, "")
            if form:
                assert json.loads(out)["reason"] == json.loads(want)["reason"]
            else:
                assert out == want and out.startswith("CP:2 / sub:RP:2: not computable (")

    def test_check_integral_focal_needs_space(self, capsys):
        code, out, err = run_main(["check-integral", "--focal", "sub:S:2"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("folbend: ")

    def test_bounds_output(self, capsys):
        code, out, _ = run_main(["bounds", "--space", "CP:2", "--q", "2",
                                 "--case", "II", "--json"], capsys)
        assert code == 0
        payload = assert_json_round_trips(out)
        assert payload["value"] == pytest.approx(2.0)
        assert payload["coefficient"] == "1/2"

    def test_bounds_case_mismatch_is_usage_error(self, capsys):
        code, _, err = run_main(["bounds", "--space", "S:5", "--q", "2",
                                 "--case", "II"], capsys)
        assert code == 2

    @pytest.mark.parametrize("label", ["I", "III"])
    def test_bounds_label_prints_the_explicit_document(self, label, capsys):
        for space in BOUND_SPACES:
            n = parse_space(space).dim
            for q in range(n + 1):
                argv = ["bounds", "--space", space, "--q", str(q), "--json", "--case"]
                want = run_main(argv + [label_reading(label, n, q)], capsys)
                assert run_main(argv + [label], capsys)[:2] == want[:2], (space, q)

    def test_bounds_label_without_reading_is_usage_error(self, capsys):
        code, out, err = run_main(["bounds", "--space", "S:6", "--q", "3",
                                   "--case", "I"], capsys)
        assert (code, out) == (2, "")
        assert err == "folbend: case I requires q = 1 or q = n - 1\n"

    def test_bounds_past_the_float_range_is_undecided(self, capsys):
        code, out, err = run_main(["bounds", "--space", "CaP2", "--q", "8", "--case", "II",
                                   "--lambda", "1e308", "--json"], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("folbend: undecided: ")

    def test_bounds_below_the_normal_range_is_undecided(self, capsys):
        # the exact bound 5/8 * 5e-324 is about 3.1e-324; rounded, it printed 5e-324
        code, out, err = run_main(["bounds", "--space", "S:6", "--q", "2", "--case", "III-",
                                   "--lambda", "5e-324", "--json"], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("folbend: undecided: ") and err.count("\n") == 1

    def test_bounds_at_the_largest_scale(self, capsys):
        code, out, _ = run_main(["bounds", "--space", "S:3", "--q", "1", "--case", "I",
                                 "--lambda", "1e308", "--json"], capsys)
        assert code == 0
        payload = assert_json_round_trips(out)
        assert payload["value"] == payload["einstein_value"] == 1e308

    def test_minimizer(self, capsys):
        code, out, _ = run_main(["minimizer", "--space", "S:3", "--json"], capsys)
        assert code == 0
        payload = assert_json_round_trips(out)
        assert payload["attains_bound"] is True
        assert payload["slack"] == pytest.approx(0.0, abs=1e-8)

    def test_selfcheck(self, capsys):
        code, out, _ = run_main(["selfcheck"], capsys)
        assert code == 0
        assert "all internal checks passed" in out

    def test_selfcheck_rejects_a_negative_seed_before_computing(self, capsys, monkeypatch):
        def computed(*args, **kwargs):
            raise AssertionError("selfcheck computed before checking --seed")

        monkeypatch.setattr(cli, "table1_report", computed)
        code, out, err = run_main(["selfcheck", "--seed", "-1"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("folbend: ") and "--seed" in err

    def test_selfcheck_reports_a_row_that_fails(self, capsys, monkeypatch):
        rows = tuple((space, focal, Fraction(7) if (space, focal) == ("S:3", "point") else form)
                     for space, focal, form in bounds.DEFAULT_TABLE_ROWS)
        monkeypatch.setattr(bounds, "DEFAULT_TABLE_ROWS", rows)
        code, out, _ = run_main(["selfcheck"], capsys)
        assert code == 1
        assert out.splitlines() == ["FAILED: table 1 row S:3 / point: B/Vol = 1.000000 "
                                    "(closed form: 7 * lam = 7.000000) [Failed]"]


class TestProcessLevel:
    def test_module_entry_point(self):
        proc = run_subprocess(["table1", "--rtol", "1e-4"])
        assert proc.returncode == 0
        assert "table reproduced" in proc.stdout

    def test_missing_subcommand_is_usage_error(self):
        proc = run_subprocess([])
        assert proc.returncode == 2

    def test_unknown_flag_is_usage_error(self):
        proc = run_subprocess(["torus", "--R", "2", "--r", "1", "--bogus"])
        assert proc.returncode == 2

    def test_environment_curvature_scale(self):
        proc = run_subprocess(["bending", "--space", "S:3", "--json"],
                              env={"FOLBEND_LAMBDA": "2.0"})
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["value_per_volume"] == pytest.approx(2.0, rel=1e-7)
        assert payload["lambda"] == 2.0

    def test_environment_tolerances_accepted(self):
        proc = run_subprocess(["bending", "--space", "S:3", "--json"],
                              env={"FOLBEND_REL_TOL": "1e-10",
                                   "FOLBEND_ABS_TOL": "1e-13"})
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["error_estimate"] < 1e-9

    def test_flag_overrides_environment(self):
        proc = run_subprocess(["bending", "--space", "S:3", "--lambda", "1.0",
                               "--json"], env={"FOLBEND_LAMBDA": "3.0"})
        payload = json.loads(proc.stdout)
        assert payload["lambda"] == 1.0

    def test_reader_closing_stdout_early_is_quiet(self):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "folbend", "check-integral", "--space", "S:3",
                 "--focal", "sub:S:1", "--json"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_invalid_environment_value(self):
        proc = run_subprocess(["bending", "--space", "S:3"],
                              env={"FOLBEND_LAMBDA": "banana"})
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr


def _child(code, **env):
    """(threads, OPENBLAS_NUM_THREADS) of a child Python after ``code``, with
    this process's environment less OPENBLAS_NUM_THREADS, plus ``env``."""
    full_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    full_env.update(env)
    probe = ("; import os; print(len(os.listdir('/proc/self/task')),"
             " os.environ.get('OPENBLAS_NUM_THREADS'))")
    out = subprocess.run([sys.executable, "-c", code + probe], capture_output=True, text=True,
                         env=full_env, check=True).stdout.split()
    return int(out[0]), out[1]


@pytest.fixture(scope="module")
def blas_pool():
    if not sys.platform.startswith("linux") or (os.cpu_count() or 1) < 2:
        pytest.skip("threads are counted in /proc on a Linux machine with two or more CPUs")
    if _child("import numpy")[0] == 1:
        pytest.skip("this numpy starts no BLAS thread pool")


def _imported_modules(argv):
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "folbend", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    return {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def _python(code):
    """Standard output of a child Python that runs ``code``."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True).stdout


class TestEntryPoint:
    # The entry point loads no numpy itself; the child imports it, as an integrating command does.
    def test_cli_runs_blas_on_one_thread(self, blas_pool):
        assert _child("import folbend.__main__, numpy") == (1, "1")

    def test_callers_thread_setting_wins(self, blas_pool):
        threads, setting = _child("import folbend.__main__, numpy", OPENBLAS_NUM_THREADS="2")
        assert setting == "2" and threads > 1

    def test_library_leaves_the_thread_setting_alone(self):
        assert _child("import folbend.cli")[1] == "None"

    def test_torsion_is_imported_only_by_selfcheck(self):
        for argv in (["bending", "--space", "S:3", "--json"], ["table1", "--json"]):
            assert "folbend.torsion" not in _imported_modules(argv)
        assert "folbend.torsion" in _imported_modules(["selfcheck"])

    def test_numpy_is_imported_only_by_the_commands_that_integrate(self):
        for argv in (["torus", "--R", "2", "--r", "1"], ["complex-radial", "--m", "3"],
                     ["bounds", "--space", "S:5", "--q", "2", "--case", "III"]):
            assert "numpy" not in _imported_modules(argv)
        for argv in (["table1", "--json"], ["bending", "--space", "S:3", "--epsilon", "0.5"]):
            assert "numpy" in _imported_modules(argv)

    def test_library_import_loads_no_numpy(self):
        assert _python("import sys, folbend.cli; print('numpy' in sys.modules)") == "False\n"

    def test_library_and_in_process_main_leave_the_collector_alone(self, capsys):
        assert _python("import gc, folbend.__main__; print(gc.isenabled())") == "True\n"
        assert run_main(["torus", "--R", "2", "--r", "1"], capsys)[0] == 0
        assert gc.isenabled()

    def test_entry_point_runs_without_collections_and_freezes(self):
        out = _python("import gc, sys; from folbend.__main__ import main; "
                      "sys.argv = ['folbend', 'complex-radial', '--m', '3']; code = main(); "
                      "print(code, gc.isenabled(), gc.get_freeze_count() > 0)")
        assert out.splitlines()[-1] == "0 False True"

    @pytest.mark.parametrize("flag, value", [("--emit-profile", "p.csv"), ("--epsilon", "0.5")])
    def test_overflow_leaks_no_runtime_warning(self, flag, value, tmp_path):
        if flag == "--emit-profile":
            value = str(tmp_path / value)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "folbend", "bending",
             "--space", "S:200", "--lambda", "1e-5", flag, value, "--json"],
            capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.startswith("folbend: undecided: ") and proc.stderr.count("\n") == 1


BENDING_KEYS = {"branches", "divergent_endpoint", "error_estimate", "exponent_estimate",
                "mu", "status", "value", "value_per_volume", "volume"}
BRANCH_KEYS = {"init", "kappa", "multiplicity"}


@pytest.mark.parametrize("argv,top,nested", [
    (["bending", "--space", "S:3"],
     BENDING_KEYS | {"command", "space", "focal", "lambda"}, {"branches": BRANCH_KEYS}),
    (["bending", "--space", "S:2"],
     BENDING_KEYS | {"command", "space", "focal", "lambda"}, {"branches": BRANCH_KEYS}),
    (["bending", "--space", "CP:2", "--focal", "sub:RP:2"],
     {"command", "space", "focal", "lambda", "status", "reason"}, {}),
    (["bending", "--space", "S:2", "--epsilon", "0.5"],
     BENDING_KEYS | {"command", "space", "focal", "lambda", "epsilon"},
     {"branches": BRANCH_KEYS}),
    (["torus", "--R", "2", "--r", "1"],
     {"command", "big_radius", "small_radius", "area_weighted", "value",
      "error_estimate", "upper_bound"}, {}),
    (["complex-radial", "--m", "3"],
     BENDING_KEYS | {"command", "m", "lambda"}, {"branches": BRANCH_KEYS}),
    (["table1"], {"command", "lambda", "rtol", "all_ok", "rows"},
     {"rows": {"space", "focal", "kind", "closed_form", "expected", "computed",
               "relative_error", "divergent_endpoint", "exponent_estimate", "status"}}),
    (["check-integral"], {"command", "lambda", "results"},
     {"results": {"space", "focal", "status", "lhs", "rhs", "relative_gap", "holds"}}),
    (["bounds", "--space", "CP:2", "--q", "2", "--case", "II"],
     {"command", "space", "lambda", "q", "case", "coefficient", "value",
      "einstein_value"}, {}),
    (["minimizer", "--space", "S:3"],
     {"command", "space", "lambda", "bound_value", "bending_status", "value_per_volume",
      "slack", "attains_bound", "leaves_umbilical", "leaves_integrable", "note"}, {}),
    (["bending", "--space", "CP:2", "--focal", "sub:RP:2", "--epsilon", "0.5"],
     {"command", "space", "focal", "lambda", "epsilon", "status", "reason"}, {}),
    (["check-integral", "--space", "CP:2", "--focal", "sub:RP:2"],
     {"command", "lambda", "status", "reason"}, {}),
])
def test_json_key_sets(argv, top, nested, capsys):
    # The --json documents are a contract: pin every key of every document.
    _, out, _ = run_main(argv + ["--json"], capsys)
    payload = assert_json_round_trips(out)
    assert set(payload) == top | {"schema_version"}
    for key, entry_keys in nested.items():
        assert payload[key]
        for entry in payload[key]:
            assert set(entry) == entry_keys


LAMBDA_COMMANDS = [
    ["bending", "--space", "S:3"],
    ["complex-radial", "--m", "3"],
    ["table1"],
    ["check-integral"],
    ["bounds", "--space", "CP:2", "--q", "2", "--case", "II"],
    ["minimizer", "--space", "S:3"],
]


@pytest.mark.parametrize("lam", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("argv", LAMBDA_COMMANDS, ids=[a[0] for a in LAMBDA_COMMANDS])
def test_invalid_lambda_is_usage_error(argv, lam, capsys):
    code, _, err = run_main(argv + ["--lambda", lam], capsys)
    assert code == 2
    assert err.startswith("folbend: ") and "Traceback" not in err


@pytest.mark.parametrize("rtol", ["-1", "nan", "inf"])
def test_invalid_rtol_is_usage_error(rtol, capsys):
    code, _, err = run_main(["table1", "--rtol", rtol], capsys)
    assert code == 2
    assert err.startswith("folbend: ") and "Traceback" not in err


TOLERANCE_COMMANDS = [
    ["bending", "--space", "S:3"],
    ["torus", "--R", "2", "--r", "1"],
    ["complex-radial", "--m", "3"],
    ["table1"],
    ["check-integral"],
    ["minimizer", "--space", "S:3"],
]
# Commands that evaluate closed forms and accept the tolerances without using them.
CLOSED_FORM_COMMANDS = ("torus", "complex-radial")
ENV_READERS = ([("FOLBEND_LAMBDA", argv) for argv in LAMBDA_COMMANDS]
               + [(name, argv) for name in ("FOLBEND_REL_TOL", "FOLBEND_ABS_TOL")
                  for argv in TOLERANCE_COMMANDS])


@pytest.mark.parametrize("name,argv", [
    pytest.param(name, argv, id=name if argv[0] == "bending" else f"{name}-{argv[0]}")
    for name, argv in ENV_READERS])
def test_unparseable_environment_is_usage_error(name, argv, capsys, monkeypatch):
    monkeypatch.setenv(name, "banana")
    code, out, err = run_main(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"folbend: invalid {name}='banana'\n"


# (variables, the flags they stand for, other values of the variables)
SETTINGS = {
    "lambda": ({"FOLBEND_LAMBDA": "2.5"}, ["--lambda", "2.5"], {"FOLBEND_LAMBDA": "3.0"}),
    "tolerances": ({"FOLBEND_REL_TOL": "1e-10", "FOLBEND_ABS_TOL": "1e-13"},
                   ["--rel-tol", "1e-10", "--abs-tol", "1e-13"],
                   {"FOLBEND_REL_TOL": "1e-3", "FOLBEND_ABS_TOL": "1e-3"}),
}


@pytest.mark.parametrize("setting,argv", [
    pytest.param(setting, argv, id=f"{setting}-{argv[0]}")
    for setting, commands in (("lambda", LAMBDA_COMMANDS), ("tolerances", TOLERANCE_COMMANDS))
    for argv in commands])
def test_environment_stands_for_its_flags(setting, argv, capsys, monkeypatch):
    env, flags, other = SETTINGS[setting]
    want = run_main(argv + flags + ["--json"], capsys)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert run_main(argv + ["--json"], capsys) == want
    for name, value in other.items():
        monkeypatch.setenv(name, value)
    if setting == "tolerances" and argv[0] in CLOSED_FORM_COMMANDS:
        # The answer does not depend on the tolerances, but they are read and checked.
        assert run_main(argv + ["--json"], capsys) == want
        monkeypatch.setenv("FOLBEND_REL_TOL", "1.5")
        assert run_main(argv + ["--json"], capsys)[0] == 2
    else:
        assert run_main(argv + ["--json"], capsys) != want  # the variables are read
    assert run_main(argv + flags + ["--json"], capsys) == want  # and a flag overrides them


@pytest.mark.parametrize("argv", [
    ["bending", "--space", "S:3", "--lambda", "1e300"],
    ["bending", "--space", "S:3", "--epsilon", "0.5", "--lambda", "1e300"],
    ["check-integral", "--lambda", "1e300"],
    ["table1", "--lambda", "1e200"],
])
def test_underflowing_volume_is_undecided(argv):
    # At these curvature scales the volume integral underflows to zero.
    proc = run_subprocess(argv)
    assert proc.returncode == 3
    assert "undecided" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["bending", "--space", "S:200", "--lambda", "1e-5"],
    ["bending", "--space", "S:200", "--lambda", "1e-5", "--epsilon", "0.5"],
    ["check-integral", "--space", "S:200", "--lambda", "1e-5"],
    ["minimizer", "--space", "S:200", "--lambda", "1e-5"],
    ["bending", "--space", "HP:3", "--lambda", "1e-200"],
    ["table1", "--lambda", "1e-300"],
    ["check-integral", "--space", "S:3", "--lambda", "1e-300"],
    ["bending", "--space", "S:3", "--lambda", "1e-300"],
    ["bending", "--space", "S:150", "--focal", "sub:S:148", "--lambda", "2.299678078840782e+283",
     "--epsilon", "1.5707963267941152"],
    ["check-integral", "--space", "CP:2", "--lambda", "4e307"],
    ["check-integral", "--space", "CP:2", "--lambda", "3.5e307"],
])
def test_overflowing_density_is_undecided(argv, capsys):
    # The density or its panel integrals overflow at these curvature scales, or
    # the density at a window edge (the bar was NaN), or Ric = 6 lam on CP:2.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_main(argv, capsys)
    assert code == 3
    assert err.startswith("folbend: undecided: ") and err.count("\n") == 1
    assert caught == []


@pytest.mark.parametrize("m, lam", [
    ("3", "1e300"), ("50", "1e-100"), ("3", "1e-300"), ("2", "1e300"), ("200", "1e5"),
    ("100000", "1"),
])
def test_complex_radial_is_twice_lambda_at_any_scale(m, lam, capsys):
    # the closed form 2 lam integrates nothing, so no scale in the float range
    # is undecided unless the branch curvature 4 lam overflows
    code, out, _ = run_main(["complex-radial", "--m", m, "--lambda", lam, "--json"], capsys)
    assert code == 0
    payload = assert_json_round_trips(out)
    assert (payload["value_per_volume"], payload["error_estimate"]) == (2.0 * float(lam), 0.0)


@pytest.mark.parametrize("argv, pair", [
    (["bending", "--space", "CaP2", "--lambda", "1.7e308"], "CaP2 / point"),
    (["complex-radial", "--m", "20", "--lambda", "1.7e308"], "CP:20 / point"),
])
def test_overflowing_branch_curvature_is_undecided(argv, pair, capsys):
    # A valid lambda whose 4*lambda branch curvature is past the float range.
    code, _, err = run_main(argv, capsys)
    assert code == 3
    assert err.startswith("folbend: undecided: ") and pair in err


def test_high_dimensional_sphere(capsys):
    # gamma(n/2) overflows a float here; the unit-sphere area must not.
    code, out, _ = run_main(["bending", "--space", "S:400", "--json"], capsys)
    assert code == 0
    payload = assert_json_round_trips(out)
    # geodesic spheres around a point of S^m: (m - 1) / (2 (m - 2))
    assert abs(payload["value_per_volume"] - 399 / 796) <= payload["error_estimate"]


HUGE = "S:1" + "0" * 400      # past the float range
LGAMMA = "S:1" + "0" * 307    # lgamma(n / 2) overflows
EDGE = f"S:{2**53}"           # the largest dimension accepted


@pytest.mark.parametrize("argv, code", [
    (["bounds", "--space", HUGE, "--q", "1", "--case", "I"], 2),
    (["check-integral", "--space", HUGE], 2),
    (["bending", "--space", LGAMMA], 2),
    (["check-integral", "--space", LGAMMA], 2),
    (["minimizer", "--space", LGAMMA], 2),
    (["bounds", "--space", f"S:{2**53 + 1}", "--q", "1", "--case", "I"], 2),
    (["complex-radial", "--m", str(2**52 + 1)], 2),
    (["bounds", "--space", EDGE, "--q", "1", "--case", "I"], 0),
    (["complex-radial", "--m", str(2**52)], 0),
    (["bending", "--space", EDGE], 3),
    (["check-integral", "--space", EDGE], 3),
    (["minimizer", "--space", EDGE], 3),
    (["bending", "--space", EDGE, "--emit-profile", "p.csv"], 3),
], ids=["bounds-1e400", "check-integral-1e400", "bending-1e307", "check-integral-1e307",
         "minimizer-1e307", "bounds-2**53+1", "complex-radial-2**52+1", "bounds-2**53",
         "complex-radial-2**52", "bending-2**53", "check-integral-2**53", "minimizer-2**53",
         "emit-profile-2**53"])
def test_dimension_past_2_to_the_53_is_usage_error(argv, code, tmp_path, monkeypatch, capsys):
    # Up to 2**53, n, q, n - q and every multiplicity convert to float exactly.
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run_main(argv + ["--json"], capsys)
    assert got == code
    if code == 0:
        json.loads(out, parse_constant=_no_constant)
    else:
        assert out == "" and err.count("\n") == 1
    if code == 2:
        assert err == "folbend: the dimension must be at most 2**53\n"


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


EDGE_JSON = [
    ["torus", "--R", "1e-150", "--r", "5e-151", "--json"],
    ["torus", "--R", "1e-150", "--r", "5e-151", "--area-weighted", "--json"],
    ["torus", "--R", "1", "--r", "0.9999999999", "--json"],
    ["complex-radial", "--m", "3", "--lambda", "1e-300", "--json"],
    ["bounds", "--space", "S:3", "--q", "1", "--case", "I", "--lambda", "1e308", "--json"],
    ["bounds", "--space", "CaP2", "--q", "1", "--case", "III", "--lambda", "1e308", "--json"],
    ["bending", "--space", "S:3", "--epsilon", "0.3", "--json"],
    ["bending", "--space", "S:400", "--json"],
    ["bending", "--space", "S:3", "--lambda", "4.818305117709074e-206", "--json"],
]


@pytest.mark.parametrize("argv", [argv for argv, _ in GOLDEN_CASES.values()
                                  if "--json" in argv] + EDGE_JSON, ids=" ".join)
def test_json_documents_hold_no_infinity_or_nan(argv, capsys):
    # RFC 8259 JSON has no Infinity or NaN: a value past the float range is exit 3
    _, out, _ = run_main(argv, capsys)
    json.loads(out, parse_constant=_no_constant)


def _results():
    s3, point = parse_space("S:3"), parse_focal("point")
    yield bending.total_bending(s3, point)
    yield bending.total_bending(parse_space("S:2"), point)
    yield bending.total_bending(parse_space("S:5", 2.5), parse_focal("sub:S:2"))
    yield bending.epsilon_deformed_bending(s3, point, 0.3)
    yield bending.epsilon_deformed_bending(parse_space("S:2"), point, 0.5)
    yield bending.torus_bending(2.0, 1.0)
    yield bending.torus_bending(2.0, 1.0, area_weighted=True)
    yield bending.complex_radial_bending(3)
    yield bounds.lower_bound(parse_space("CP:3", 2.5), 3, "III")
    yield bounds.integral_formula_check(s3, point)
    yield bounds.table1_report()
    yield bounds.minimizer_report(parse_space("CP:3"))


def _floats(obj):
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _floats(getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _floats(item)
    elif isinstance(obj, float):
        yield obj


def test_result_floats_are_builtin():
    # a numpy.float64 prints as np.float64(...) in a CSV cell under numpy >= 2
    types = {type(v).__name__ for res in _results() for v in _floats(res)}
    assert types == {"float"}


@pytest.mark.parametrize("argv", [
    ["bending", "--space", "S:3", "--epsilon", "0.3"],
    ["bending", "--space", "S:2", "--epsilon", "0.5"],
    ["bending", "--space", "S:5", "--focal", "sub:S:2", "--lambda", "2.5"],
    ["bending", "--space", "S:2"],
    ["bending", "--space", "CP:2", "--focal", "sub:RP:2"],
], ids=" ".join)
def test_csv_numbers_parse_as_floats(argv, capsys):
    code, out, _ = run_main(argv + ["--csv"], capsys)
    assert code == 0
    for row in csv.DictReader(io.StringIO(out)):
        for key in ("lambda", "value_per_volume", "error_estimate", "exponent_estimate"):
            if row[key]:
                float(row[key])  # "np.float64(...)" raises ValueError
