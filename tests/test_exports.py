"""Every name a holobc module lists in ``__all__`` resolves on that module,
and every name the benchmark rebinds still exists."""

import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import holobc
import holobc.pairing
import holobc.quadrature
from holobc.geometry import ChartCover

MODULES = ["holobc"] + [f"holobc.{info.name}"
                        for info in pkgutil.iter_modules(holobc.__path__)
                        if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ())
               if not hasattr(module, entry)]
    assert missing == []


def _benchmark_module(name):
    """Load holobench/<name>.py, the benchmark's tracer or lap marks."""
    path = Path(__file__).resolve().parents[1] / "holobench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"holobench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # resolves every function it names
    return module


def test_names_the_benchmark_rebinds_exist():
    spans = _benchmark_module("spans")
    laps = _benchmark_module("laps")
    for _, fn, _ in spans._FUNCTIONS:
        module = importlib.import_module(fn.__module__)
        assert getattr(module, fn.__name__) is fn
    owners = [(cls, attr) for _, cls, attr, _ in spans._METHODS] + laps.CUTS
    assert (ChartCover, "partition_weight") in owners
    assert (holobc.pairing, "stokes_oracle") in owners
    for owner, attr in owners:
        assert callable(getattr(owner, attr))
    # the tracer wraps the engine as (eval_fn, box, ...) and reads the points
    # of partition_weight from its last argument
    engine = inspect.signature(holobc.quadrature.adaptive_integrate)
    assert list(engine.parameters)[:2] == ["eval_fn", "box"]
    assert list(inspect.signature(ChartCover.partition_weight).parameters)[-1] == "z"
