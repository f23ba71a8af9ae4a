"""The folbend names that the benchmark's tracer resolves.

``perfbench/tracer.py`` looks each layer function up with ``getattr`` before
a traced run starts, so a missing name ends that run with exit 1.  These
tests read the tracer's ``LAYERS`` and ``MODULES`` and fail first.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("module", tracer.MODULES)
def test_every_traced_module_imports(module):
    importlib.import_module(module)


@pytest.mark.parametrize("layer,name", [(layer, name) for layer, names in tracer.LAYERS.items()
                                        for name in names])
def test_every_traced_name_resolves(layer, name):
    assert callable(getattr(importlib.import_module(f"folbend.{layer}"), name, None))
