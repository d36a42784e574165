"""The functions the benchmark tracer wraps must exist in ``mmdist``.

``perfbench/layers.py`` names every function it wraps by module and
attribute.  A rename in ``src/`` would otherwise surface only when the
benchmark runs with ``--trace 1``; this reads the tables without editing
that file and resolves each name.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _tables():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return [(module, attribute) for module, attribute, _ in layers.LAYERS + layers.ITEM_COUNTERS]


@pytest.mark.parametrize("module,attribute", _tables())
def test_wrapped_name_resolves(module, attribute):
    obj = importlib.import_module(module)
    for part in attribute.split("."):  # "Lip1Set.vertices" names a method
        assert hasattr(obj, part), f"{module}.{attribute} no longer exists"
        obj = getattr(obj, part)
    assert callable(obj)
