"""The benchmark tracer's hook points exist in the package.

``bench/tracer.py`` wraps idemkit's functions and methods by name from
outside the package; a renamed or deleted one breaks only the traced
benchmark run, so these tests name them all.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from idemkit.core import AlgebraInstance, Certificate
from idemkit.deloop import EndOperator
from idemkit.instances import Tower

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("idemkit_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in tracer.FUNCTIONS])
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize(
    "owner, attr",
    [(Tower, "push"), (Certificate, "add"), (EndOperator, "compose")]
    + [(AlgebraInstance, meth) for meth in tracer.INSTANCE_METHODS],
)
def test_traced_method_exists(owner, attr):
    assert callable(getattr(owner, attr))


def test_tracer_installs_and_restores_every_hook():
    originals = (Tower.push, Certificate.add, EndOperator.compose)
    t = tracer.Tracer()
    try:
        t.install()
        assert EndOperator.compose is not originals[2]
    finally:
        t.uninstall()
    assert (Tower.push, Certificate.add, EndOperator.compose) == originals
