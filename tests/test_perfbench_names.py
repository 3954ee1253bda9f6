"""Every lexmap function the benchmark's traced run wraps still exists.

``perfbench/spans.py`` names the functions it replaces as (module, name)
pairs. A rename or deletion in lexmap would otherwise fail only the traced
benchmark run, not this suite.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_resolves():
    spans = _spans_module()
    pairs = [pair for layer in spans.LAYERS.values() for pair in layer]
    pairs += list(spans.COUNTED.values())
    missing = [(module, name) for module, name in pairs
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert pairs and not missing
