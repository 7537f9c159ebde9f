"""Shared numeric oracles for the test suite.

Everything here deliberately avoids the closed-form code paths under test:
divergences are computed by adaptive quadrature of their defining integrals,
derivatives by central finite differences, mixture fits by unaccelerated EM.  Density evaluations themselves
are shared with the library; the density is pinned separately by exact
normalization and pointwise checks, so the oracle routes stay independent of
the cumulant algebra they are used to verify.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from scipy.special import logsumexp

from hyperstat import hyperboloid as hb
from hyperstat import poincare as pc
from hyperstat.geometry import LorentzParam, Moment2, SpdParam2
from hyperstat.mixtures import Mixture

# ---------------------------------------------------------------------------
# 2-D adaptive quadrature
# ---------------------------------------------------------------------------


def quad2d(f, xlo, xhi, ylo, yhi, epsabs=1e-10, limit=200):
    """Nested 1-D adaptive quadrature of f(x, y) over a rectangle."""

    def inner(y):
        val, _ = integrate.quad(lambda x: f(x, y), xlo, xhi, epsabs=epsabs, limit=limit)
        return val

    val, _ = integrate.quad(inner, ylo, yhi, epsabs=epsabs, limit=limit)
    return val


def poincare_integral(func, epsabs=1e-10):
    """Integral of func(x, y) over the upper-half plane via y = exp(v)."""

    def transformed(x, v):
        y = math.exp(v)
        return func(x, y) * y

    return quad2d(transformed, -np.inf, np.inf, -40.0, 40.0, epsabs=epsabs)


def hyperboloid_integral(func, epsabs=1e-10):
    """Integral of func(x1, x2) over the plane (d = 2 chart)."""
    return quad2d(func, -np.inf, np.inf, -np.inf, np.inf, epsabs=epsabs)


# ---------------------------------------------------------------------------
# Divergence oracles (defining integrals)
# ---------------------------------------------------------------------------


# Stable pointwise integrands p * f(q/p) written directly in (log p, log q);
# the naive route overflows where one density underflows.


def integrand_kl(lp: float, lq: float) -> float:
    return math.exp(lp) * (lp - lq)


def integrand_hellinger(lp: float, lq: float) -> float:
    # p (sqrt(q/p) - 1)^2 / 2 = p/2 + q/2 - sqrt(p q)
    return 0.5 * math.exp(lp) + 0.5 * math.exp(lq) - math.exp(0.5 * (lp + lq))


def integrand_neyman(lp: float, lq: float) -> float:
    # p (q/p - 1)^2 = q^2/p - 2q + p
    return math.exp(2.0 * lq - lp) - 2.0 * math.exp(lq) + math.exp(lp)


def integrand_tv(lp: float, lq: float) -> float:
    return 0.5 * abs(math.exp(lq) - math.exp(lp))


INTEGRANDS = {
    "kl": integrand_kl,
    "hellinger": integrand_hellinger,
    "neyman": integrand_neyman,
    "tv": integrand_tv,
}


def poincare_divergence_quad(kind: str, theta: SpdParam2, theta2: SpdParam2, epsabs=1e-10):
    """D_f by direct quadrature of  p * f(q/p)  over the upper-half plane."""
    point = INTEGRANDS[kind]

    def integrand(x, y):
        lp = float(pc.log_density_xy(theta, x, y))
        lq = float(pc.log_density_xy(theta2, x, y))
        return point(lp, lq)

    return poincare_integral(integrand, epsabs=epsabs)


def hyperboloid_divergence_quad(kind: str, theta: LorentzParam, theta2: LorentzParam, epsabs=1e-10):
    """D_f by direct quadrature over the d = 2 chart."""
    point = INTEGRANDS[kind]

    def integrand(x1, x2):
        pt = np.array([[x1, x2]])
        lp = float(hb.log_density_chart(theta, pt)[0])
        lq = float(hb.log_density_chart(theta2, pt)[0])
        return point(lp, lq)

    return hyperboloid_integral(integrand, epsabs=epsabs)


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------


def _diff_along(func, i: int, step: float):
    # central first difference along axis i, returned as a new callable
    def g(x: np.ndarray) -> float:
        up, dn = x.copy(), x.copy()
        up[i] += step
        dn[i] -= step
        return (func(up) - func(dn)) / (2.0 * step)

    return g


def central_gradient(func, x0: np.ndarray, h: float = 1e-6) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    out = np.empty_like(x0)
    for i in range(x0.size):
        step = h * max(1.0, abs(x0[i]))
        out[i] = _diff_along(func, i, step)(x0)
    return out


def _hessian_entry(func, x0: np.ndarray, i: int, j: int, h: float) -> float:
    steps = [h * max(1.0, abs(x0[m])) for m in range(x0.size)]
    return _diff_along(_diff_along(func, j, steps[j]), i, steps[i])(x0)


def central_hessian(func, x0: np.ndarray, h: float = 4e-4) -> np.ndarray:
    """Hessian by Richardson-extrapolated composed central differences (~1e-9)."""
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    out = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            coarse = _hessian_entry(func, x0, i, j, h)
            fine = _hessian_entry(func, x0, i, j, 0.5 * h)
            out[i, j] = out[j, i] = (4.0 * fine - coarse) / 3.0
    return out


def _third_entry(func, x0: np.ndarray, i: int, j: int, k: int, h: float) -> float:
    steps = [h * max(1.0, abs(x0[m])) for m in range(x0.size)]
    d = _diff_along(
        _diff_along(_diff_along(func, k, steps[k]), j, steps[j]), i, steps[i]
    )
    return d(x0)


def central_third(func, x0: np.ndarray, h: float = 2e-3) -> np.ndarray:
    """Third-derivative tensor by Richardson-extrapolated composed differences.

    The h and h/2 composed stencils are combined as (4 T_{h/2} - T_h)/3,
    cancelling the O(h^2) truncation term; accuracy ~1e-8 relative for
    smooth O(1) functions.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    out = np.empty((n, n, n))
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                coarse = _third_entry(func, x0, i, j, k, h)
                fine = _third_entry(func, x0, i, j, k, 0.5 * h)
                val = (4.0 * fine - coarse) / 3.0
                for perm in {(i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)}:
                    out[perm] = val
    return out


def poincare_cumulant_of_vec(v: np.ndarray) -> float:
    return pc.cumulant(SpdParam2(v[0], v[1], v[2])).reduced


def hyperboloid_cumulant_of_vec(v: np.ndarray) -> float:
    return hb.cumulant(LorentzParam(v))


# ---------------------------------------------------------------------------
# Plain EM (the map the library's fit accelerates)
# ---------------------------------------------------------------------------


_EM_FAMILIES = {
    "poincare": (
        lambda pts: pc.suff_stats_xy(pts),
        lambda eta: pc.grad_conjugate(Moment2(*eta)),
        lambda theta, pts: pc.log_density_xy(theta, pts[:, 0], pts[:, 1]),
    ),
    "hyperboloid": (
        lambda pts: hb.suff_stats_chart(pts),
        lambda eta: hb.mle_from_moment(eta, eta.size - 1),
        lambda theta, pts: hb.log_density_chart(theta, pts),
    ),
}


def plain_em(pts: np.ndarray, family: str, init_resp: np.ndarray, tol: float = 1e-8, max_iter: int = 100_000):
    """Unaccelerated EM from fixed responsibilities, one map at a time.

    Stops once a map gains less than ``tol`` in average log-likelihood.
    Returns the mixture whose log-likelihood was evaluated last and the trace
    of average log-likelihoods.
    """
    stats_of, from_moment, log_density = _EM_FAMILIES[family]
    stats = stats_of(pts)
    resp = init_resp
    loglik = []
    for _ in range(max_iter):
        counts = resp.sum(axis=0)
        etas = (resp.T @ stats) / counts[:, None]
        mix = Mixture(family, tuple(counts / counts.sum()), tuple(from_moment(e) for e in etas))
        logs = np.stack([log_density(c, pts) for c in mix.components], axis=1) + np.log(counts / counts.sum())
        per_point = logsumexp(logs, axis=1)
        loglik.append(float(np.mean(per_point)))
        resp = np.exp(logs - per_point[:, None])
        if len(loglik) > 1 and loglik[-1] - loglik[-2] < tol:
            break
    return mix, loglik
