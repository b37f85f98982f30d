"""The traced benchmark run binds skone functions and methods by name.

perfbench/tracer.py is imported read-only here, so a rename that breaks
``perfbench/run.py --trace 1`` fails in the test suite as well.
"""

import importlib.util
from pathlib import Path

import skone.poly as poly

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    tracer_mod = _load_tracer()
    divmod_before = poly.Poly.__dict__["divmod"]
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install(tracer)
        assert poly.Poly.__dict__["divmod"] is not divmod_before
    finally:
        tracer.disable()
    assert poly.Poly.__dict__["divmod"] is divmod_before
    assert tracer._patches
