"""Every name the benchmark's tracer binds still exists in ptcache.

``perfbench/spans.py`` wraps ``(module, attribute)`` pairs of ``ptcache``
by name; a deleted or renamed binding would only show when the benchmark
runs.  The file is loaded by path, as it is, without importing the rest of
``perfbench``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = load_targets()


def test_targets_found():
    # An empty parametrization would skip silently.
    assert TARGETS


@pytest.mark.parametrize("module_name,attr", [(m, a) for m, a, _, _ in TARGETS],
                         ids=[f"{m}.{a}" for m, a, _, _ in TARGETS])
def test_binding_resolves_to_a_callable(module_name, attr):
    module = importlib.import_module(f"ptcache.{module_name}")
    assert callable(getattr(module, attr, None)), f"ptcache.{module_name}.{attr}"
