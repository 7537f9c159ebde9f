"""Hyperbolic exponential families: closed-form information measures, exact
samplers, Monte Carlo divergence estimators, and EM mixture fitting, for the
upper-half-plane and Minkowski-hyperboloid models."""

from . import geometry, hyperboloid, mixtures, montecarlo, poincare, sampling, specfun
from .geometry import (
    ConeError,
    DimensionError,
    DualDomainError,
    HyperboloidPoint,
    InvariantTriple,
    LorentzParam,
    LorentzTransform,
    Mobius,
    Moment2,
    SpdParam2,
    UpperHalfPoint,
)
from .mixtures import EmTrace, FitError, Mixture, em_fit
from .montecarlo import FGenerator, McEstimate, Proposal
from .sampling import GigParams, RngStream

__version__ = "0.1.0"

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
