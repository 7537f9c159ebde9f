"""The ``hyperstat`` namespace: eager closed-form modules, the rest on first access."""

import importlib
import inspect
import pkgutil
import subprocess
import sys

import pytest

import hyperstat
from hyperstat import geometry

_SUBMODULES = {"geometry", "specfun", "poincare", "hyperboloid", "sampling", "montecarlo", "mixtures"}
_HOME = {
    **dict.fromkeys(
        ["ConeError", "DimensionError", "DualDomainError", "FitError", "SpdParam2", "UpperHalfPoint",
         "Moment2", "LorentzParam", "HyperboloidPoint", "Mobius", "LorentzTransform", "InvariantTriple"],
        "geometry",
    ),
    **dict.fromkeys(["RngStream", "GigParams"], "sampling"),
    **dict.fromkeys(["FGenerator", "Proposal", "McEstimate"], "montecarlo"),
    **dict.fromkeys(["Mixture", "EmTrace", "em_fit"], "mixtures"),
}


def _expected(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"hyperstat.{name}")
    return vars(importlib.import_module(f"hyperstat.{_HOME[name]}"))[name]


def test_all_is_the_submodules_and_their_names():
    assert set(hyperstat.__all__) == _SUBMODULES | set(_HOME) | {"__version__"}


@pytest.mark.parametrize("name", sorted(_SUBMODULES | set(_HOME)))
def test_each_name_is_the_defining_module_object(name):
    assert getattr(hyperstat, name) is _expected(name)


# Every submodule but __main__, which runs the command line on import.
_MODULES = [importlib.import_module(f"hyperstat.{m.name}") for m in pkgutil.iter_modules(hyperstat.__path__)
            if not m.name.startswith("_")]


@pytest.mark.parametrize("module", [m for m in _MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__)
def test_module_all_is_its_public_surface(module):
    # Each listed name resolves, and the list is exactly the module's own
    # public functions and classes: none missing, none deleted but still listed.
    for name in module.__all__:
        assert hasattr(module, name), name
    own = {
        name for name, obj in vars(module).items()
        if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert sorted(module.__all__) == sorted(own)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from hyperstat import *", namespace)
    assert set(hyperstat.__all__) <= set(namespace)
    for name in _SUBMODULES | set(_HOME):
        assert namespace[name] is _expected(name)


def test_dir_lists_every_name():
    assert set(hyperstat.__all__) <= set(dir(hyperstat))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hyperstat.no_such_name  # noqa: B018
    assert not hasattr(hyperstat, "no_such_name")


def test_fit_error_is_one_class():
    from hyperstat import mixtures

    assert hyperstat.FitError is geometry.FitError is mixtures.FitError


def test_import_loads_no_sampler_estimator_or_em():
    code = (
        "import sys, hyperstat\n"
        "print(sorted(m for m in ('hyperstat.sampling', 'hyperstat.montecarlo', 'hyperstat.mixtures',"
        " 'concurrent.futures', 'logging', 'numpy', 'scipy', 'dataclasses') if m in sys.modules))\n"
        "hyperstat.em_fit\n"
        "print(sorted(m for m in ('hyperstat.sampling', 'hyperstat.montecarlo', 'hyperstat.mixtures')"
        " if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "['hyperstat.mixtures', 'hyperstat.sampling']"]


def test_inverse_moment_map_and_conjugate_load_no_numpy():
    # The conjugate's record is evaluated with math, as the cumulant's is.
    code = (
        "import sys\n"
        "from hyperstat import poincare as pc\n"
        "from hyperstat.geometry import Moment2\n"
        "eta = Moment2(-2.0, 0.25, -1.5)\n"
        "print(pc.grad_conjugate(eta).a > 0.0, pc.conjugate(eta) < 0.0, 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True", "False"]
