"""The benchmark tracer's lookup names still exist in the library.

``perfbench/tracing.py`` wraps each layer function where its caller looks
it up, by module and attribute name.  A rename in ``src/`` would make that
patch fail or, worse, wrap a stale name and read zero for the layer, so
every ``LAYER_FUNCTIONS`` target must resolve to a callable exactly the way
``Tracer.installed`` resolves it.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYER_FUNCTIONS = _load_tracing().LAYER_FUNCTIONS


@pytest.mark.parametrize(
    "span, module_name, owner_name, attribute",
    LAYER_FUNCTIONS,
    ids=[f"{m}.{o + '.' if o else ''}{a}" for _, m, o, a in LAYER_FUNCTIONS],
)
def test_layer_function_resolves_to_a_callable(span, module_name, owner_name, attribute):
    owner = importlib.import_module(module_name)
    if owner_name is not None:
        owner = getattr(owner, owner_name)
    # The tracer reads the attribute from the owner's own namespace.
    assert attribute in vars(owner), f"{span}: {module_name} lost {attribute}"
    assert callable(vars(owner)[attribute]), span


def test_core_model_layers_are_traced():
    """The cold-compute layers this file guards are among the targets."""
    targets = {(m, o, a) for _, m, o, a in LAYER_FUNCTIONS}
    assert ("repro.core.model", None, "simulate_1f1b") in targets
    assert ("repro.core.model", "Optimus", "evaluate_inference") in targets
    assert ("repro.core.model", "Optimus", "evaluate_training") in targets
