import math
import warnings

import numpy as np
import pytest

import folbend.bending
from folbend import quadrature
from folbend.bending import total_bending
from folbend.quadrature import (
    QuadratureConfig,
    UndecidedError,
    adaptive_quadrature,
    integrate_open,
    ratio_quadrature,
)
from folbend.spaces import parse_focal, parse_space
from oracles import kronrod_panel as _scalar_gk15
from oracles import reference_adaptive, reference_open, reference_ratio

TIGHT = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-14)


class TestAdaptive:
    def test_polynomial_exact(self):
        # Kronrod-15 integrates degree <= 22 exactly; one panel suffices.
        val, err = adaptive_quadrature(lambda x: 7 * x**6, 0.0, 1.0, TIGHT)
        assert abs(val - 1.0) < 1e-14
        assert err < 1e-12

    def test_sine(self):
        val, _ = adaptive_quadrature(np.sin, 0.0, math.pi, TIGHT)
        assert abs(val - 2.0) < 1e-13

    def test_gaussian(self):
        val, _ = adaptive_quadrature(lambda x: np.exp(-(x**2)), -8.0, 8.0, TIGHT)
        assert abs(val - math.sqrt(math.pi)) < 1e-12

    def test_peaked(self):
        # Narrow Lorentzian forces real adaptivity.
        val, err = adaptive_quadrature(
            lambda x: 1e-3 / (x**2 + 1e-6), -1.0, 1.0, TIGHT
        )
        exact = 2 * math.atan(1e3)
        assert abs(val - exact) < 1e-11
        assert abs(val - exact) < max(err, 1e-13)

    def test_empty_interval(self):
        assert adaptive_quadrature(np.sin, 1.0, 1.0, TIGHT) == (0.0, 0.0)

    def test_error_estimate_honest(self):
        f = lambda x: np.sqrt(np.abs(np.sin(3 * x))) + x**2
        loose = QuadratureConfig(rel_tol=1e-6, abs_tol=1e-12)
        tight = QuadratureConfig(rel_tol=5e-7, abs_tol=1e-12)
        v1, e1 = adaptive_quadrature(f, 0.0, 2.0, loose)
        v2, _ = adaptive_quadrature(f, 0.0, 2.0, tight)
        assert abs(v1 - v2) < e1

    def test_undecided_when_budget_too_small(self):
        # Each of the 318 jumps needs about 45 bisections to meet the tolerance:
        # more panels than MAX_PANELS in all.
        cfg = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-16)
        with pytest.raises(UndecidedError, match="refinement budget"):
            adaptive_quadrature(lambda x: np.sign(np.sin(1000.0 * x)), 0.0, 1.0, cfg)

    @pytest.mark.parametrize("f", [lambda x: x ** -0.5, lambda x: (1.0 - x) ** -0.5],
                             ids=["at a", "at b"])
    def test_end_singularity_refines_past_the_width_floor(self, f):
        # The panel at the singular end meets the default tolerance only about
        # 50 bisections down: below 2**-MAX_DEPTH of the interval, above the
        # float resolution of its edges.
        val, err = adaptive_quadrature(f, 0.0, 1.0)
        assert abs(val - 2.0) <= err < 1e-7

    @pytest.mark.parametrize("quad", [
        lambda f: adaptive_quadrature(f, 0.0, 1.0),
        lambda f: reference_adaptive(f, 0.0, 1.0),
        lambda f: ratio_quadrature(lambda x: np.stack([f(x), np.ones_like(x)]), (0.0, 1.0)),
        lambda f: reference_ratio(lambda x: np.stack([f(x), np.ones_like(x)]), (0.0, 1.0)),
        lambda f: integrate_open(f, 0.0, 1.0),
        lambda f: reference_open(f, 0.0, 1.0),
    ], ids=["adaptive", "reference adaptive", "ratio", "reference ratio", "open", "reference open"])
    def test_spike_that_cancels_the_running_total_is_undecided(self, quad):
        # A node lands on the 1e300 spike (true integral about 1380): bisecting
        # away its panel, whose estimate is about 1e285, leaves a running error
        # total of pure rounding noise.  Only a recount shows the tolerance unmet.
        with pytest.raises(UndecidedError, match="refinement budget"):
            quad(lambda x: 1.0 / (np.abs(x - 1.0 / math.pi) + 1e-300))

    def test_nonfinite_integrand_rejected(self):
        with pytest.raises(ValueError):
            adaptive_quadrature(lambda x: np.full_like(x, np.inf), 0.0, 1.0, TIGHT)

    def test_overflowing_panel_is_undecided(self):
        # Every value is finite, but the panel integral is not.
        with np.errstate(all="ignore"), pytest.raises(UndecidedError, match="not finite"):
            adaptive_quadrature(lambda x: np.full_like(x, 1e308), 0.0, 10.0)

    def test_bisected_overflowing_panel_is_refined(self):
        # The root panel's Gauss sum overflows (error inf) and its Kronrod sum
        # does not; bisecting it takes the running error through inf - inf,
        # which must not end the refinement.
        f = lambda x: 0.85e308 * np.exp(-(((x - 8.0) / 0.05) ** 2))
        with np.errstate(all="ignore"):
            val, err = adaptive_quadrature(f, 0.0, 16.0)
        exact = 0.85e308 * 0.05 * math.sqrt(math.pi)
        assert abs(val - exact) <= 1e-8 * exact
        assert abs(val - exact) <= err

    def test_panel_sums_past_the_float_maximum(self):
        # The Kronrod and Gauss sums of the panels next to x = 4 overflow before
        # the half-width scales them; the integral is representable.
        f = lambda x: 1.5e308 * np.exp(-(((x - 4.0) / 0.05) ** 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val, err = adaptive_quadrature(f, 0.0, 8.0)
        exact = 1.5e308 * 0.05 * math.sqrt(math.pi)
        assert abs(val - exact) <= 1e-8 * exact
        assert abs(val - exact) <= err

    def test_nonfinite_integrand_warns_nothing(self):
        with warnings.catch_warnings(), pytest.raises(ValueError, match="non-finite"):
            warnings.simplefilter("error")
            adaptive_quadrature(lambda x: np.where(x > 0.5, np.inf, -np.inf), 0.0, 1.0)


class TestOpenInterval:
    def test_integrable_power_singularity(self):
        # integral of x**-0.5 over (0, 1] is 2; exponent fit must stay finite.
        res = integrate_open(lambda x: x**-0.5, 0.0, 1.0, TIGHT)
        assert res.status == "finite"
        assert abs(res.value - 2.0) < 1e-9
        assert res.lower.exponent == pytest.approx(0.5, abs=1e-3)
        assert not res.lower.divergent and not res.upper.divergent

    def test_log_singularity_is_finite(self):
        res = integrate_open(lambda x: np.log(x), 0.0, 1.0, TIGHT)
        assert res.status == "finite"
        assert abs(res.value - (-1.0)) < 1e-9

    def test_log_divergence(self):
        res = integrate_open(lambda x: 1.0 / x, 0.0, 1.0, TIGHT)
        assert res.status == "divergent"
        assert res.lower.divergent and not res.upper.divergent
        assert res.exponent_estimate == pytest.approx(1.0, abs=1e-3)

    def test_quadratic_divergence(self):
        res = integrate_open(lambda x: x**-2.0, 0.0, 1.0, TIGHT)
        assert res.status == "divergent"
        assert res.exponent_estimate == pytest.approx(2.0, abs=1e-3)

    def test_upper_endpoint_divergence(self):
        res = integrate_open(lambda x: 1.0 / (2.0 - x), 0.0, 2.0, TIGHT)
        assert res.status == "divergent"
        assert res.upper.divergent and not res.lower.divergent
        assert res.exponent_estimate == pytest.approx(1.0, abs=1e-3)

    def test_both_endpoints_divergent(self):
        res = integrate_open(lambda x: 1.0 / (x * (1.0 - x)), 0.0, 1.0, TIGHT)
        assert res.status == "divergent"
        assert res.lower.divergent and res.upper.divergent

    def test_smooth_function_matches_closed_rule(self):
        res = integrate_open(np.cos, 0.0, 1.0, TIGHT)
        assert res.status == "finite"
        assert abs(res.value - math.sin(1.0)) < 1e-12

    def test_slowly_varying_prefactor_still_log(self):
        # 1/x times an analytic factor: the fit must still land near s = 1.
        res = integrate_open(lambda x: (1.0 + x) / x, 0.0, 1.0, TIGHT)
        assert res.status == "divergent"
        assert res.exponent_estimate == pytest.approx(1.0, abs=1e-2)

    def test_overflowing_panel_is_undecided(self):
        with np.errstate(all="ignore"), pytest.raises(UndecidedError, match="not finite"):
            integrate_open(lambda x: np.full_like(x, 1e308), 0.0, 10.0)

    def test_overflowing_ladder_sum_is_undecided(self):
        # Each ladder panel sum is finite; their exact sum is past the float range.
        with pytest.raises(UndecidedError, match="not finite"):
            integrate_open(lambda x: np.where(x < 3, 0.8e308, 0.0), 0.0, 300.0)

    def test_zero_ladder_panel_before_the_last(self):
        # Nonzero on ladder levels L-4 and L-1 only (and away from the ladder):
        # the sliver extrapolation sees zero panel sums next to nonzero ones.
        lows, highs = quadrature._ladder(0.0, +1, quadrature.DIVERGENCE_WINDOW)
        levels = len(lows)

        def f(x):
            on = x > 0.02
            for k in (levels - 4, levels - 1):
                on |= (x > lows[k]) & (x < highs[k])
            return on.astype(float)

        res = integrate_open(f, 0.0, 1.0)
        assert res.status == "finite"
        assert res.lower.exponent is None and res.lower.levels == levels
        exact = 0.98 + (highs[levels - 4] - lows[levels - 4]) + (highs[-1] - lows[-1])
        assert abs(res.value - exact) <= res.error

    def test_determinism(self):
        f = lambda x: np.sqrt(x) * np.cos(5 * x)
        first = integrate_open(f, 0.0, 1.0, TIGHT)
        second = integrate_open(f, 0.0, 1.0, TIGHT)
        assert first.value == second.value
        assert first.error == second.error


class TestConfigValidation:
    def test_bad_tolerances(self):
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=2.0)

    def test_defaults(self):
        cfg = QuadratureConfig()
        assert cfg.rel_tol == 1e-8
        assert cfg.abs_tol == 1e-12
        assert quadrature.MAX_DEPTH == 40
        assert quadrature.DIVERGENCE_WINDOW == 1e-2


def _panel_loop(f, a, b):
    """Stand-in for quadrature._gk15 that calls the reference kernel panel by panel."""
    pairs = [_scalar_gk15(f, pa, pb) for pa, pb in zip(a, b)]
    return [p[0] for p in pairs], [p[1] for p in pairs]


class _Counting:
    """Integrand wrapper that counts calls and nodes."""

    def __init__(self, f):
        self.f = f
        self.sizes = []

    def __call__(self, x):
        self.sizes.append(x.size)
        return self.f(x)


def _recording(monkeypatch):
    """(value, error) by bounds of every panel the library's kernel evaluates."""
    log = {}
    kernel = quadrature._gk15

    def run(f, a, b):
        values, errors = kernel(f, a, b)
        log.update(zip(zip(list(a), list(b)), zip(values, errors)))
        return values, errors

    monkeypatch.setattr(quadrature, "_gk15", run)
    return log


def _same_panels(log, reference_log):
    """Every panel the reference evaluates, with the library's (value, error) for it."""
    return {bounds: log.get(bounds) for bounds in reference_log} == reference_log


def _later_calls(intervals, steps, batched=True):
    """Node counts of the integrand calls after the first, replayed from the
    reference's bisection ``steps``.

    The first call evaluates each interval and the two generations below it.
    A bisection whose halves are not evaluated yet makes a call for the two
    generations (6 panels, 90 nodes) below that panel and, ``batched``, below
    every other panel in the heap whose own weight exceeds the tolerance and
    whose halves are not evaluated either.  Unbatched, one panel per call, a
    call is made only at a bisection at an even depth >= 2, and each such panel
    needs a bisection at the odd depth above it, which yields two: at most
    2 (bisections - 1) / 3 calls.
    """
    known = set()

    def below(lo, hi):
        mid = 0.5 * (lo + hi)
        left, right = 0.5 * (lo + mid), 0.5 * (mid + hi)
        known.update({(lo, mid), (mid, hi), (lo, left), (left, mid), (mid, right), (right, hi)})

    for lo, hi in intervals:
        below(lo, hi)
    sizes = []
    for (lo, hi), tolerance, heap in steps:
        if (lo, 0.5 * (lo + hi)) not in known:
            roots = [(lo, hi)] + [(a, b) for weight, a, b in heap if batched and weight > tolerance
                                  and (a, 0.5 * (a + b)) not in known]
            for root in roots:
                below(*root)
            sizes.append(90 * len(roots))
    return sizes


def _unbatched_calls(intervals, steps):
    """``_later_calls`` of one panel per call, which meet their bound."""
    sizes = _later_calls(intervals, steps, batched=False)
    assert len(sizes) <= 2 * max(len(steps) - 1, 0) // 3
    return sizes


class TestBatchedPanels:
    @pytest.mark.parametrize("panels", [1, 2, 12, 48, 96])
    def test_rows_reduce_like_their_own_dot(self, panels):
        rng = np.random.default_rng(panels)
        a = np.sort(rng.uniform(-1.0, 1.0, panels))
        b = a + rng.uniform(1e-6, 1.0, panels)
        values = rng.standard_normal(30 * panels) * 10.0 ** rng.uniform(-10, 10, 30 * panels)
        # The integrand hands back a non-contiguous view; the reference reads its copy.
        kron, err = quadrature._gk15(lambda x: values[::2], a, b)
        rows = np.ascontiguousarray(values[::2]).reshape(panels, 15)
        for i, row in enumerate(rows):
            half = 0.5 * (b[i] - a[i])
            k = half * float(quadrature._KRONROD_W @ row)
            g = half * float(quadrature._GAUSS_W @ row)
            assert kron[i] == k and err[i] == abs(k - g)

    def test_overflowing_rows_leave_the_others_bits(self):
        # Panel 1 overflows its sums, panel 2 holds an inf; panels 0 and 3 are plain.
        a, b = np.array([0.0, 1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0, 4.0])
        rows = np.random.default_rng(7).standard_normal((4, 15))
        rows[1] = 1.7e308
        rows[2, 4] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kron, err = quadrature._gk15(lambda x: rows.reshape(-1), a, b)
        for i in (0, 3):
            k = 0.5 * float(quadrature._KRONROD_W @ rows[i])
            g = 0.5 * float(quadrature._GAUSS_W @ rows[i])
            assert kron[i] == k and err[i] == abs(k - g)
        assert kron[1] == pytest.approx(1.7e308) and math.isfinite(err[1])
        assert kron[2] is None

    @pytest.mark.parametrize("rows", [1, 2])
    def test_a_panel_has_the_same_bits_in_any_call(self, rows):
        # Each panel of 64 subtrees alone, and inside calls of the first 1 to 64 subtrees.
        rng = np.random.default_rng(64 + rows)
        lows = rng.uniform(-3.0, 3.0, 64)
        roots = list(zip(lows.tolist(), (lows + 10.0 ** rng.uniform(-6.0, 0.5, 64)).tolist()))
        peak = lambda x: np.exp(np.sin(17.0 * x)) / (x * x + 1e-4)
        f = peak if rows == 1 else lambda x: np.array((peak(x), np.cos(x)))
        alone = {}
        for lo, hi in quadrature._panels(f, roots, rows):
            (value,), (error,) = quadrature._gk15(f, [lo], [hi])
            alone[lo, hi] = ((value, 0.0), (error, 0.0)) if rows == 1 else (value, error)
        for k in range(1, 65):
            for below in (False, True):
                panels = quadrature._panels(f, roots[:k], rows, below)
                assert len(panels) == (6 + (not below)) * k
                assert panels == {bounds: alone[bounds] for bounds in panels}

    @pytest.mark.parametrize("space, focal, rel_tol, calls", [
        ("S:60", "point", 1e-10, 2), ("S:200", "point", 1e-10, 3),
        ("CP:50", "sub:CP:20", 1e-10, 2), ("HP:25", "point", 1e-8, 2), ("S:5", "point", 1e-8, 1)])
    def test_catalog_answers_take_fewer_calls(self, space, focal, rel_tol, calls, monkeypatch):
        # One panel per call took 5, 7, 4, 3 and 1 calls for these answers.
        sizes, steps, breaks = [], [], []
        kernel = quadrature._gk15
        monkeypatch.setattr(quadrature, "_gk15",
                            lambda f, a, b: kernel(lambda x: sizes.append(x.size) or f(x), a, b))
        args = parse_space(space, 1.0), parse_focal(focal), QuadratureConfig(rel_tol, 1e-12)
        result = total_bending(*args)

        def reference(f, breakpoints, config):
            breaks.extend(breakpoints)
            return reference_ratio(f, breakpoints, config, None, steps)

        monkeypatch.setattr(folbend.bending, "ratio_quadrature", reference)
        assert total_bending(*args) == result
        intervals = list(zip(breaks[:-1], breaks[1:]))
        later = _later_calls(intervals, steps)
        assert sizes == [105 * len(intervals)] + later and len(sizes) <= calls
        unbatched = _unbatched_calls(intervals, steps)
        assert len(later) < len(unbatched) or later == unbatched == []

    def test_one_call_per_endpoint_ladder(self, monkeypatch):
        f = _Counting(np.cos)
        log, reference_log, steps = _recording(monkeypatch), {}, []
        res = integrate_open(f, 0.0, 1.0, TIGHT)
        assert res == reference_open(np.cos, 0.0, 1.0, TIGHT, reference_log, steps)
        assert _same_panels(log, reference_log)
        levels = res.lower.levels + res.upper.levels
        assert res.lower.levels > 30 and res.upper.levels > 30
        # Both ladders share the first call.  Then adaptive_quadrature's on the
        # central interval: its panel and two generations below it, and each
        # later call two generations below each panel it must split.
        assert f.sizes[:2] == [15 * levels, 15 * 7]
        central = [(quadrature.DIVERGENCE_WINDOW, 1.0 - quadrature.DIVERGENCE_WINDOW)]
        assert f.sizes[2:] == _later_calls(central, steps)
        assert len(f.sizes[2:]) <= len(_unbatched_calls(central, steps))

    def test_divergent_ladder_calls_only_the_ladders(self, monkeypatch):
        # The integrand is not finite at the centre, which no ladder panel sees.
        f = lambda x: np.where(x == 0.5, np.inf, 1.0 / x)
        nodes = []
        counted = _Counting(lambda x: nodes.append(x.copy()) or f(x))
        log, reference_log = _recording(monkeypatch), {}
        res = integrate_open(counted, 0.0, 1.0, TIGHT)
        assert res.status == "divergent"
        assert res == reference_open(lambda x: 1.0 / x, 0.0, 1.0, TIGHT, reference_log)
        assert _same_panels(log, reference_log)
        # One call, and no node between the ladders: the central interval is untouched.
        assert counted.sizes == [15 * (res.lower.levels + res.upper.levels)]
        window = quadrature.DIVERGENCE_WINDOW
        assert np.all((nodes[0] <= window) | (nodes[0] >= 1.0 - window))

    def test_empty_ladder_makes_no_call(self):
        # Relative to 1e10 even the widest ladder panel is below the width floor.
        f = _Counting(np.cos)
        res = integrate_open(f, 1e10, 1e10 + 1e-3, TIGHT)
        assert res.lower.levels == res.upper.levels == 0
        assert 0 not in f.sizes

    def test_adaptive_one_call_per_refinement_round(self, monkeypatch):
        f = lambda x: 1e-3 / (x**2 + 1e-6)
        batched = _Counting(f)
        log, reference_log, steps = _recording(monkeypatch), {}, []
        result = adaptive_quadrature(batched, -1.0, 1.0, TIGHT)
        assert result == reference_adaptive(f, -1.0, 1.0, TIGHT, reference_log, steps)
        assert _same_panels(log, reference_log)
        assert len(steps) > 10
        # The peak's panels pass the tolerance one by one at first, and then
        # several at once: later calls cover four panels' generations.
        later = _later_calls([(-1.0, 1.0)], steps)
        assert batched.sizes == [15 * 7] + later and max(later) == 4 * 90
        assert len(later) < len(_unbatched_calls([(-1.0, 1.0)], steps))

    @pytest.mark.parametrize("f", [lambda x: x**-0.5, np.log, lambda x: 1.0 / x, np.cos],
                             ids=["x^-0.5", "log", "1/x", "cos"])
    def test_bit_identical_to_panel_loop(self, f, monkeypatch):
        counted = _Counting(f)
        log, reference_log, steps = _recording(monkeypatch), {}, []
        result = integrate_open(counted, 0.0, 1.0, TIGHT)
        reference = reference_open(f, 0.0, 1.0, TIGHT, reference_log, steps)
        # Ladder sums and errors, every central panel, and the fitted exponents.
        assert _same_panels(log, reference_log)
        assert result == reference
        assert reference.lower.exponent is not None
        # One call for both ladders, then adaptive_quadrature's, unless a ladder diverges.
        levels = result.lower.levels + result.upper.levels
        central = [] if result.status == "divergent" else [15 * 7]
        assert counted.sizes[:2] == [15 * levels] + central
        window = quadrature.DIVERGENCE_WINDOW
        inner = [(window, 1.0 - window)]
        assert counted.sizes[2:] == _later_calls(inner, steps)
        assert len(counted.sizes[2:]) <= len(_unbatched_calls(inner, steps))

    def test_bad_value_in_an_unused_lookahead_panel_raises_nothing(self):
        # 7 x**6 is exact on one panel, so no bisection uses the panels below
        # it; the integrand is NaN at one node of the grandchild [0, 0.25].
        bad = 0.125 + 0.125 * quadrature._NODES[3]
        f = lambda x: np.where(x == bad, np.nan, 7 * x**6)
        nodes = []
        seen = lambda x: nodes.append(x.copy()) or f(x)
        assert adaptive_quadrature(seen, 0.0, 1.0, TIGHT) == reference_adaptive(f, 0.0, 1.0, TIGHT)
        assert bad in np.concatenate(nodes)

    def test_first_bad_ladder_panel_is_named(self, monkeypatch):
        # NaN below 1e-4: many ladder panels hold bad nodes; the outermost is named.
        f = lambda x: np.where(x < 1e-4, np.nan, 1.0)
        with pytest.raises(ValueError) as batched:
            integrate_open(f, 0.0, 1.0, TIGHT)
        monkeypatch.setattr(quadrature, "_gk15", _panel_loop)
        with pytest.raises(ValueError) as reference:
            integrate_open(f, 0.0, 1.0, TIGHT)
        assert str(batched.value) == str(reference.value)

    def test_first_bad_child_is_named(self, monkeypatch):
        # The centers of both halves are bad; the whole panel's nodes miss them.
        f = lambda x: np.where(np.isin(x, [0.25, 0.75]), np.inf, np.abs(x - 1 / 3))
        with pytest.raises(ValueError, match=r"inside \[0\.0, 0\.5\]") as batched:
            adaptive_quadrature(f, 0.0, 1.0, TIGHT)
        monkeypatch.setattr(quadrature, "_gk15", _panel_loop)
        with pytest.raises(ValueError) as reference:
            adaptive_quadrature(f, 0.0, 1.0, TIGHT)
        assert str(batched.value) == str(reference.value)


def _lorentz_rows(x):
    """A peaked numerator over a smooth denominator."""
    return np.array((1e-3 / ((x - 0.3) ** 2 + 1e-6), 1.0 + x ** 2))


class TestRatio:
    def test_ratio_of_two_closed_forms(self):
        ratio, error, num, den = ratio_quadrature(_lorentz_rows, (-1.0, 1.0), TIGHT)
        exact_num = math.atan(1.3e3) + math.atan(0.7e3)
        assert abs(num - exact_num) <= 1e-12 * exact_num
        assert abs(den - 8.0 / 3.0) <= 1e-12
        assert abs(ratio - exact_num / (8.0 / 3.0)) <= error

    def test_bit_identical_to_panel_loop(self, monkeypatch):
        counted = _Counting(_lorentz_rows)
        log, reference_log, steps = _recording(monkeypatch), {}, []
        breakpoints = (-1.0, 0.25, 1.0)
        result = ratio_quadrature(counted, breakpoints, TIGHT)
        assert result == reference_ratio(_lorentz_rows, breakpoints, TIGHT, reference_log, steps)
        assert _same_panels(log, reference_log)
        assert len(steps) > 10
        # Both starting panels and two generations below each share the first
        # call; each later call covers every panel that must be split.
        intervals = list(zip(breakpoints[:-1], breakpoints[1:]))
        later = _later_calls(intervals, steps)
        assert counted.sizes == [15 * 14] + later and max(later) == 4 * 90
        assert len(later) < len(_unbatched_calls(intervals, steps))

    def test_abs_tol_bounds_the_ratio_at_any_scale(self):
        # A ratio of 4.4e-10 to abs_tol = 1e-12, whatever the scale of both
        # integrals; powers of two scale exactly, so the refinement is the same.
        quad = QuadratureConfig(rel_tol=1e-6, abs_tol=1e-12)
        exact = 1e-9 * (math.atan(1.3e3) + math.atan(0.7e3)) / (8.0 / 3.0)
        results = set()
        for scale in (2.0 ** -70, 1.0, 2.0 ** 70):
            rows = lambda x, c=scale: c * _lorentz_rows(x) * np.array([[1e-9], [1.0]])
            results.add(ratio_quadrature(rows, (-1.0, 1.0), quad)[:2])
        (ratio, error), = results
        assert abs(ratio - exact) <= error <= 1.001e-12

    def test_denominator_meets_rel_tol_alone(self):
        # The ratio is zero, so its own tolerance asks nothing of the
        # denominator; the denominator must still meet rel_tol.
        rows = lambda x: np.array((np.zeros_like(x), 1e-3 / ((x - 0.3) ** 2 + 1e-6)))
        _, _, num, den = ratio_quadrature(rows, (-1.0, 1.0), TIGHT)
        exact = math.atan(1.3e3) + math.atan(0.7e3)
        assert num == 0.0
        assert abs(den - exact) <= 1e-12 * exact

    def test_zero_denominator_is_undecided(self):
        with pytest.raises(UndecidedError, match="denominator"):
            ratio_quadrature(lambda x: np.array((np.ones_like(x), np.zeros_like(x))), (0.0, 1.0))

    @pytest.mark.parametrize("breakpoints", [(1.0,), (0.0, 2.0, 1.0), (0.0, math.nan)])
    def test_rejects_bad_breakpoints(self, breakpoints):
        with pytest.raises(ValueError, match="breakpoints"):
            ratio_quadrature(_lorentz_rows, breakpoints)

    @pytest.mark.parametrize("f", [np.cos, lambda x: np.array((x, x, x))], ids=["one", "three"])
    def test_rejects_other_row_counts(self, f):
        with pytest.raises(ValueError, match="row"):
            ratio_quadrature(f, (0.0, 1.0))
        with pytest.raises(ValueError, match="row"):
            adaptive_quadrature(lambda x: np.array((x, x)), 0.0, 1.0)
