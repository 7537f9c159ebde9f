"""Hyperbolic exponential families: closed-form information measures, exact
samplers, Monte Carlo divergence estimators, and EM mixture fitting, for the
upper-half-plane and Minkowski-hyperboloid models.

``import hyperstat`` loads the closed-form modules (``geometry``, ``specfun``,
``poincare``, ``hyperboloid``) and their names.  The modules ``sampling``,
``montecarlo`` and ``mixtures``, and the names re-exported from them
(``RngStream``, ``GigParams``, ``FGenerator``, ``Proposal``, ``McEstimate``,
``Mixture``, ``EmTrace``, ``em_fit``), are imported on first access as
attributes of the package, so a process that only evaluates closed forms
never loads them.
"""

import importlib

from . import geometry, hyperboloid, poincare, specfun
from .geometry import (
    ConeError,
    DimensionError,
    DualDomainError,
    FitError,
    HyperboloidPoint,
    InvariantTriple,
    LorentzParam,
    LorentzTransform,
    Mobius,
    Moment2,
    SpdParam2,
    UpperHalfPoint,
)

__version__ = "0.1.0"

# Name -> the module that defines it, for the modules imported on first access.
_LAZY = {
    **dict.fromkeys(["sampling", "RngStream", "GigParams"], "sampling"),
    **dict.fromkeys(["montecarlo", "FGenerator", "Proposal", "McEstimate"], "montecarlo"),
    **dict.fromkeys(["mixtures", "Mixture", "EmTrace", "em_fit"], "mixtures"),
}


def __getattr__(name: str):
    # PEP 562: called only for names not already in the package namespace.
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    return module if _LAZY[name] == name else getattr(module, name)


def __dir__() -> list:
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "geometry",
    "specfun",
    "poincare",
    "hyperboloid",
    "sampling",
    "montecarlo",
    "mixtures",
    "ConeError",
    "DimensionError",
    "DualDomainError",
    "SpdParam2",
    "UpperHalfPoint",
    "Moment2",
    "LorentzParam",
    "HyperboloidPoint",
    "Mobius",
    "LorentzTransform",
    "InvariantTriple",
    "RngStream",
    "GigParams",
    "FGenerator",
    "Proposal",
    "McEstimate",
    "Mixture",
    "EmTrace",
    "FitError",
    "em_fit",
    "__version__",
]
