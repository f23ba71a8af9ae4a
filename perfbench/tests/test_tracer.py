"""The tracer's bookkeeping: self times add up, originals come back."""
import importlib
import itertools
import math

import folbend.bending
import folbend.bounds
import folbend.quadrature
import folbend.torsion
import tracer as tracing
import workloads


def _traced(wl, n, seed=4):
    tracer = tracing.Tracer()
    with tracer.installed():
        for req in itertools.islice(wl.requests(seed), n):
            inp = wl.prepare(req)
            with tracer.span("op"):
                wl.execute(inp)
    return tracer


def test_self_times_add_up_to_the_span_totals():
    tracer = _traced(workloads.TubeSweep(), 40)
    selfs = tracer.self_times()
    roots = [e - s for name, s, e in zip(tracer.names, tracer.starts, tracer.ends)
             if name == "op"]
    assert min(selfs) >= -1e-9
    assert math.isclose(math.fsum(selfs), math.fsum(roots), rel_tol=1e-9)
    assert all(p == -1 for name, p in zip(tracer.names, tracer.parents) if name == "op")


def test_unattributed_share_is_the_root_self_time_over_the_root_time():
    tracer = tracing.Tracer()
    with tracer.span("op"):
        sum(range(20000))
        with tracer.span("quadrature.integrate_open"):
            sum(range(20000))
    op, layer = (e - s for s, e in zip(tracer.starts, tracer.ends))
    assert math.isclose(tracer.unattributed_share("op"), (op - layer) / op, rel_tol=1e-9)
    assert 0.0 < tracer.unattributed_share("op") < 1.0
    assert tracing.Tracer().unattributed_share("op") == 0.0


def test_ladder_levels_match_the_integrand_calls_under_the_ladder():
    tracer = _traced(workloads.TubeSweep(), 40)
    under_open = sum(
        1 for name, parent in zip(tracer.names, tracer.parents)
        if name == tracing.INTEGRAND and tracer.names[parent] == "quadrature.integrate_open")
    levels = sum(v for name, v in zip(tracer.names, tracer.values)
                 if name == "quadrature.integrate_open")
    assert levels == under_open > 0
    stats = tracer.stats(40)
    assert stats["quadrature.panels"] == (
        stats["quadrature.ladder_panels"] + stats["quadrature.central_panels"]
        + stats["quadrature.window_panels"])


def test_every_module_reference_is_wrapped():
    # bending and bounds import quadrature functions by name; those copies
    # must be wrapped too, or the calls they make would go unseen.
    originals = {id(getattr(importlib.import_module(f"folbend.{layer}"), name))
                 for layer, names in tracing.LAYERS.items() for name in names}
    tracer = tracing.Tracer()
    with tracer.installed():
        leftovers = [(module, attr) for module in tracing.MODULES
                     for attr, value in vars(importlib.import_module(module)).items()
                     if id(value) in originals]
        bending_copy = folbend.bending.integrate_open
    assert leftovers == []
    assert bending_copy is not folbend.bending.integrate_open


def test_originals_are_restored():
    before = (folbend.bending.integrate_open, folbend.bounds.total_bending,
              folbend.quadrature.adaptive_quadrature, folbend.torsion.derive)
    _traced(workloads.TubeSweep(), 2)
    after = (folbend.bending.integrate_open, folbend.bounds.total_bending,
             folbend.quadrature.adaptive_quadrature, folbend.torsion.derive)
    assert before == after
