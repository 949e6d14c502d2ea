"""The public surface: exported names resolve, and errors keep their
diagnostic numbers across a pickle round trip (as between processes)."""

import importlib
import pickle
import pkgutil
import types

import pytest

import circjacobi
from circjacobi import ldp, specfun


def _modules():
    return [
        importlib.import_module(f"circjacobi.{info.name}")
        for info in pkgutil.iter_modules(circjacobi.__path__)
        if info.name != "__main__"
    ]


def test_every_exported_name_resolves():
    exported = set()
    for module in _modules():
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
        exported.update(module.__all__)
    # the package re-exports only names some module exports
    public = {
        name
        for name, value in vars(circjacobi).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public and public <= exported


@pytest.mark.parametrize(
    "error, field, text",
    [
        (ldp.SolverError("x", 1.0), "residual", "x (residual 1.000e+00)"),
        (
            specfun.QuadratureError("y", 2e-3),
            "achieved",
            "y (achieved tolerance 2.000e-03)",
        ),
    ],
    ids=["SolverError", "QuadratureError"],
)
def test_errors_with_numbers_survive_pickling(error, field, text):
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error) == text
    assert getattr(back, field) == getattr(error, field)
