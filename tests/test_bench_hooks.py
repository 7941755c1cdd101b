"""The benchmark tracer's hook points exist in the package.

``bench/tracer.py`` wraps idemkit's functions and methods by name from
outside the package; a renamed or deleted one breaks only the traced
benchmark run, so these tests name them all.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from idemkit import calculus, core
from idemkit.core import AlgebraInstance, Certificate
from idemkit.deloop import EndOperator
from idemkit.instances import Tower

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"idemkit_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


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


@pytest.mark.parametrize(
    "cached",
    [core._min_term_cost, calculus.printed_coefficient, calculus.corrected_coefficient],
    ids=lambda fn: fn.__name__,
)
def test_benchmark_clears_the_memo_cache(cached):
    # a cache missing here would let cli-readme time a warm table
    assert any(fn is cached for fn in workloads.MEMO_CACHES)


@pytest.mark.parametrize("seed", [*range(1, 11), 9001])
def test_mc_trials_warm_up_ops_run_and_pass_their_checks(seed):
    # a worker exits on any exception outside a timed op, warm-up included
    for op in workloads.McTrials._ops(np.random.default_rng([seed, 2]), 0):
        assert op.check(op.run()), op.label
