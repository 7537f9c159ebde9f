"""Exponential families as one record each: divergences, MLE and EM read it.

A family is given on natural-parameter vectors by its cumulant F, the
gradient of F, and the quadratic form q whose sheet {v_0 > 0, q(v) > 0} is the
parameter cone; on points by its log density, its sufficient statistics, the
inverse moment map from their mean, and its sampler.  With densities
exp(-<v, s(x)> - F(v)) h(x), every divergence is a functional of F (Nielsen &
Nock 2010); Chernoff information is the maximum of the skew Jensen divergence
(Nielsen 2013); the MLE is the inverse moment map at the mean statistic, and
EM is Bregman soft clustering (Banerjee et al. 2005).  The module also holds
the library's one golden-section search.
"""

from __future__ import annotations

import math
from typing import Any, Callable, NamedTuple

import numpy as np

from .geometry import _CONE_RTOL, DualDomainError

__all__ = [
    "Family",
    "mle",
    "kld",
    "skew_jensen",
    "hellinger_sq",
    "neyman_chi2",
    "jeffreys",
    "chernoff",
    "golden_section_min",
]


class Family(NamedTuple):
    """One exponential family.

    ``cumulant``, ``grad`` and ``quad`` act on coefficient vectors.  The rest
    act on cone parameters and (n, d) point arrays: ``log_density(theta, pts)``,
    ``stats(pts)`` (one row per point), ``from_moment(eta)`` (the parameter
    whose mean statistic is eta) and ``sample(theta, n, rng)``.  The fields
    are lambdas that look their module's functions up when called, so a
    replaced module attribute (a tracing wrapper) is seen through the record.
    """

    cumulant: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    quad: Callable[[np.ndarray], float]
    log_density: Callable[[Any, np.ndarray], np.ndarray]
    stats: Callable[[np.ndarray], np.ndarray]
    from_moment: Callable[[np.ndarray], Any]
    sample: Callable[[Any, int, Any], np.ndarray]


def mle(fam: Family, pts: np.ndarray):
    """Maximum-likelihood estimate from at least two points: from_moment(mean statistic).

    The means use compensated summation, so the result does not depend on how
    callers order or shard the data.
    """
    n = pts.shape[0]
    if n < 2:
        raise DualDomainError(f"MLE needs at least 2 points, got {n}")
    stats = fam.stats(pts)
    return fam.from_moment(np.array([math.fsum(col) / n for col in stats.T.tolist()]))


def kld(fam: Family, v: np.ndarray, v2: np.ndarray) -> float:
    """KL[p_v : p_v2] = F(v2) - F(v) - <v2 - v, grad F(v)>."""
    return fam.cumulant(v2) - fam.cumulant(v) - float(fam.grad(v) @ (v2 - v))


def skew_jensen(fam: Family, v: np.ndarray, v2: np.ndarray, alpha: float) -> float:
    """J_alpha = (1-alpha) F(v) + alpha F(v2) - F((1-alpha) v + alpha v2)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return _skew_jensen(fam, v, v2, alpha, fam.cumulant(v), fam.cumulant(v2))


def _skew_jensen(fam: Family, v: np.ndarray, v2: np.ndarray, alpha: float, f_v: float, f_v2: float) -> float:
    # J_alpha given F(v) and F(v2), which do not depend on alpha.
    w = 1.0 - alpha
    return w * f_v + alpha * f_v2 - fam.cumulant(w * v + alpha * v2)


def hellinger_sq(fam: Family, v: np.ndarray, v2: np.ndarray) -> float:
    """1 - Bhattacharyya coefficient = -expm1(-J_1/2)."""
    return -math.expm1(-skew_jensen(fam, v, v2, 0.5))


def neyman_chi2(fam: Family, v: np.ndarray, v2: np.ndarray) -> float:
    """expm1(F(2 v2 - v) - 2 F(v2) + F(v)); +inf when 2 v2 - v leaves the cone."""
    m = 2.0 * v2 - v
    scale = float(np.max(np.abs(m)))
    # The same relative margin as the cone check on parameters: closer to the
    # boundary, F(m) would be evaluated at a numerically zero q.
    if not (m[0] > 0.0 and fam.quad(m) > _CONE_RTOL * scale * scale):
        return math.inf
    return math.expm1(fam.cumulant(m) - 2.0 * fam.cumulant(v2) + fam.cumulant(v))


def jeffreys(fam: Family, v: np.ndarray, v2: np.ndarray) -> float:
    """KL both ways: <v2 - v, grad F(v2) - grad F(v)>."""
    return float((v2 - v) @ (fam.grad(v2) - fam.grad(v)))


def chernoff(fam: Family, v: np.ndarray, v2: np.ndarray) -> tuple:
    """(alpha*, J_alpha*): J_alpha is strictly concave in alpha, so golden section finds its max."""
    if np.array_equal(v, v2):
        return (0.5, 0.0)
    f_v, f_v2 = fam.cumulant(v), fam.cumulant(v2)
    alpha = golden_section_min(
        lambda a: -_skew_jensen(fam, v, v2, a, f_v, f_v2), 1e-12, 1.0 - 1e-12, 1e-8
    )
    return (alpha, _skew_jensen(fam, v, v2, alpha, f_v, f_v2))


def golden_section_min(fn: Callable[[float], float], lo: float, hi: float, width: float) -> float:
    """Midpoint of the bracket once golden section has shrunk it below ``width``.

    ``fn`` must be unimodal on (lo, hi); ties keep the left part.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > width:
        if f1 > f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = fn(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = fn(x1)
    return 0.5 * (lo + hi)
