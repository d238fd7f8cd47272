"""The benchmark's tracer finds every function it names.

``perfbench/spans.py`` wraps package functions by (module, attribute
path); a rename in the package would make ``--trace 1`` fail, so each
name is resolved here the way the tracer resolves it.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = load_spans()
    targets = [target for group in spans.LAYERS.values() for target in group]
    assert targets
    for module_name, path in targets:
        _, function = spans._resolve(module_name, path)
        assert callable(function), (module_name, path)
