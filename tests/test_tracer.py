"""The benchmark's tracer wraps package attributes by name.

``perfbench/tracer.py`` looks its spans up at import paths such as
``rsmlqr.lqr.solve_care``; a renamed or dropped import there would only
show up as a crash of ``perfbench/run.py --trace 1``.  Installing the
tracer once here turns that into a test failure.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_the_package():
    tracer_module = load_tracer()
    import rsmlqr.lqr

    original = rsmlqr.lqr.solve_care
    with tracer_module.Tracer().installed():
        pass
    assert rsmlqr.lqr.solve_care is original
