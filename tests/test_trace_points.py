"""The benchmark tracer patches program functions by name; each must exist."""

import importlib.util
import sys
from pathlib import Path

from nlsoptics import experiments_cli, profile_dynamics, wkb_pipeline

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_trace_point_names_a_function():
    points = load_spans().trace_points(experiments_cli, profile_dynamics, wkb_pipeline)
    assert points
    for mod, attr, name, _ in points:
        assert callable(getattr(mod, attr, None)), f"{mod.__name__}.{attr} ({name}) is gone"
