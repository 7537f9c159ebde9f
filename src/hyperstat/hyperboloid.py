"""The exponential family on the forward hyperboloid sheet.

In chart coordinates (x_1..x_d) the density against Lebesgue measure is

    p(x) = c_d(|theta|) exp(-[theta, lift(x)]) / sqrt(1 + |x|^2),

with [.,.] the Minkowski form, |theta| = [theta,theta]^(1/2), and
c_d(t) = t^((d-1)/2) / (2 (2 pi)^((d-1)/2) K_((d-1)/2)(t)).  At d = 2,
K_(1/2) is elementary and c_2(t) = t e^t / (2 pi), so no d = 2 path evaluates
a Bessel function or imports scipy.

The cumulant F = g(u) = -log c_d(sqrt(u)) depends on theta only through the
Minkowski square u = [theta, theta] = theta^T Q theta / 2 with
Q = 2 diag(1, -1, ..., -1).  The family record carries g, Q and the scaled
derivatives r_k = u^k g^(k)(u): r_1 = -t (log c_d)'(t)/2 with t = sqrt(u),
and at d = 2 (where alone r_2 and r_3 exist) -1/2 - t/2, 1/2 + t/4 and
-1 - 3t/8.  :mod:`hyperstat.expfam` derives from them the gradient, the Fisher
information (d = 2 only) and the divergences (KL, squared Hellinger, Neyman
chi-squared, Jeffreys, skew Jensen) once for every d, and the MLE, the
inverse moment map at the mean statistic, from the conjugate's rho_1 at
q = [eta, eta] / 4: r_1(t^2) at the norm t with -F'(t) = 2 sqrt(q).

The closed forms evaluate the parameter as its float tuple and import no
NumPy; the densities, statistics, MLE and matrix-valued forms import it when
called.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from . import expfam
from .geometry import DimensionError, DualDomainError, HyperboloidPoint, LorentzParam
from .specfun import bessel_k, bessel_k_logderiv

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "log_normalizer_c",
    "log_density",
    "log_density_chart",
    "log_ratio_chart",
    "cumulant",
    "grad_cumulant",
    "kld",
    "hellinger_sq",
    "neyman_chi2",
    "jeffreys",
    "skew_jensen",
    "fim2",
    "modified_entropy2",
    "suff_stats_chart",
    "mle_from_moment",
    "mle",
]

_LOG_2PI = math.log(2.0 * math.pi)


def log_normalizer_c(d: int, t: float) -> float:
    """log c_d(t), the log of the density normalizing constant at norm t (log t + t - log 2 pi at d = 2)."""
    if d == 2:
        return math.log(t) + t - _LOG_2PI
    nu = 0.5 * (d - 1)
    return nu * math.log(t) - math.log(2.0) - nu * _LOG_2PI - bessel_k(nu, t).log_value


def _fprime(d: int, t: float) -> float:
    # F'(t) = (log K_nu)'(t) - nu/t, the derivative of -log c_d for d >= 3.
    nu = 0.5 * (d - 1)
    return bessel_k_logderiv(nu, t) - nu / t


def _radial(u: float, d: int, order: int) -> float:
    # g(u) = -log c_d(t), t = sqrt(u), or r_k = u^k g^(k)(u) for k = order; r_1 = t F'(t) / 2.
    t = math.sqrt(u)
    if order == 0:
        return -log_normalizer_c(d, t)
    if order == 1:
        return -0.5 - 0.5 * t if d == 2 else 0.5 * t * _fprime(d, t)
    if d != 2:
        raise DimensionError(f"closed-form FIM needs d=2, got d={d}")
    return 0.5 + 0.25 * t if order == 2 else -1.0 - 0.375 * t


def _dual_radial(q: float, d: int, order: int) -> float:
    # rho_1 = r_1(t^2) (the one order written) at the root of -F'(t) = m = 2 sqrt(q), t < 1e12.
    m = 2.0 * math.sqrt(max(q, 0.0))
    hi = 1.0
    while d > 2 and m > 1.0 + 1e-13 and hi <= 1e12 and not -_fprime(d, hi) <= m:
        hi *= 2.0
    if not (m > 1.0 + 1e-13 and hi <= 1e12):
        raise DualDomainError(
            f"moment vector has Minkowski norm {m!r}, the moment of no parameter: that needs a norm above "
            "1 + 1e-13 (the points do not all coincide) and a parameter norm t below 1e12"
        )
    if d == 2:
        return -0.5 - 0.5 / (m - 1.0)
    from scipy.optimize import brentq

    t = brentq(lambda s: -_fprime(d, s) - m, 0.5 * hi if hi > 1.0 else 1e-10, hi, xtol=1e-14, rtol=1e-14)
    return -0.5 * t * m


def cumulant(theta: LorentzParam) -> float:
    """Log-normalizer F(theta) = -log c_d(|theta|); for d=2 this is -log t - t + log(2 pi)."""
    return expfam.cumulant(_FAMILY, theta.theta)


def grad_cumulant(theta: LorentzParam) -> np.ndarray:
    """Gradient of the cumulant; equals the mean of the sufficient statistic (-x0~, x1..xd)."""
    return expfam.grad(_FAMILY, theta.theta)


def _lift_pairing(vec: np.ndarray, points) -> tuple:
    # (x0, [vec, lift(x)]) at chart points, x0 = sqrt(1 + |x|^2).  Both sums
    # run column by column in NumPy, so no value depends on the memory layout
    # of the points; at d = 2, |x|^2 has the bits of a row-wise einsum.
    import numpy as np

    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != vec.size - 1:
        raise ValueError(f"points have dimension {pts.shape[1]}, parameter has d={vec.size - 1}")
    cols = pts.T
    x0 = cols[0] * cols[0]
    spatial = cols[0] * vec[1]
    term = np.empty_like(x0)
    for col, coef in zip(cols[1:], vec[2:]):
        x0 += np.multiply(col, col, out=term)
        spatial += np.multiply(col, coef, out=term)
    x0 += 1.0
    np.sqrt(x0, out=x0)
    pairing = x0 * vec[0]
    pairing -= spatial
    return x0, pairing


def log_density_chart(theta: LorentzParam, points) -> np.ndarray:
    """Log density at chart coordinates; ``points`` is an (n, d) array (or a single row)."""
    import numpy as np

    x0, out = _lift_pairing(theta.vec, points)
    np.subtract(log_normalizer_c(theta.d, theta.minkowski_norm()), out, out=out)
    out -= np.log(x0, out=x0)
    return out


def log_ratio_chart(theta: LorentzParam, theta2: LorentzParam, points) -> np.ndarray:
    """log p_theta2 - log p_theta at chart coordinates, as kappa - [theta2 - theta, lift(x)].

    kappa = log c_d(|theta2|) - log c_d(|theta|).  The log x0 terms of the two
    densities cancel, so a point costs one sqrt and no log.
    """
    import numpy as np

    _, out = _lift_pairing(theta2.vec - theta.vec, points)
    kappa = log_normalizer_c(theta2.d, theta2.minkowski_norm()) - log_normalizer_c(
        theta.d, theta.minkowski_norm()
    )
    np.subtract(kappa, out, out=out)
    return out


def log_density(theta: LorentzParam, p: HyperboloidPoint) -> float:
    return float(log_density_chart(theta, p.vec)[0])


# ---------------------------------------------------------------------------
# The family record; divergences, MLE and EM are derived from it in expfam
# ---------------------------------------------------------------------------


def _sample(theta: LorentzParam, n: int, rng) -> np.ndarray:
    # The sampler module is loaded by the first draw, not with the closed forms.
    from .sampling import hyperboloid_sample

    return hyperboloid_sample(theta, n, rng)


def _metric(size: int) -> tuple:
    # Q = 2 diag(1, -1, ..., -1), as rows.
    return tuple(
        tuple((2.0 if i == 0 else -2.0) if i == j else 0.0 for j in range(size)) for i in range(size)
    )


_FAMILY = expfam.Family(
    radial=lambda u, d, order: _radial(u, d, order),
    metric=_metric,
    # Summed as LorentzParam sums it, so a vector passing the cone test is a parameter.
    quad=lambda v: v[0] * v[0] - sum(x * x for x in v[1:]),
    dual_radial=lambda q, d, order: _dual_radial(q, d, order),
    dual_quad=lambda e: 0.25 * (e[0] * e[0] - sum(x * x for x in e[1:])),
    log_density=lambda theta, pts: log_density_chart(theta, pts),
    stats=lambda pts: suff_stats_chart(pts),
    from_moment=lambda eta: mle_from_moment(eta, eta.size - 1),
    sample=_sample,
    vector=lambda theta: theta.theta,
    paired=lambda v: v,
    reference=lambda d: LorentzParam((1.0,) + (0.0,) * d),  # the apex
)


def kld(theta: LorentzParam, theta2: LorentzParam) -> float:
    """KL divergence as the Bregman divergence of the cumulant (reverse argument order).

    For d = 2 this agrees with the explicit form
    log(t/t') - t' + [th,th']/[th,th] + [th,th']/t - 1.
    """
    return expfam.kld(_FAMILY, theta.theta, theta2.theta)


def hellinger_sq(theta: LorentzParam, theta2: LorentzParam) -> float:
    """Squared Hellinger divergence, 1 - sqrt(c_d(t) c_d(t')) / c_d(|theta+theta2|/2)."""
    return expfam.hellinger_sq(_FAMILY, theta.theta, theta2.theta)


def neyman_chi2(theta: LorentzParam, theta2: LorentzParam) -> float:
    """Neyman chi-squared divergence; +inf when 2*theta2 - theta leaves the cone."""
    return expfam.neyman_chi2(_FAMILY, theta.theta, theta2.theta)


def jeffreys(theta: LorentzParam, theta2: LorentzParam) -> float:
    return expfam.jeffreys(_FAMILY, theta.theta, theta2.theta)


def skew_jensen(theta: LorentzParam, theta2: LorentzParam, alpha: float) -> float:
    """Skew Jensen divergence of the cumulant at the mix (1-alpha) theta + alpha theta2."""
    return expfam.skew_jensen(_FAMILY, theta.theta, theta2.theta, alpha)


# ---------------------------------------------------------------------------
# d = 2 closed forms
# ---------------------------------------------------------------------------


def fim2(theta: LorentzParam) -> np.ndarray:
    """Fisher information matrix for d = 2 in closed form.

    Equals (1/t^4) [ (2+t) (G theta)(G theta)^T - t^2 (1+t) G ] with
    G = diag(1,-1,-1); this is the Hessian of the cumulant.
    """
    return expfam.fim(_FAMILY, theta.theta)


def modified_entropy2(theta: LorentzParam) -> float:
    """Entropy against the invariant measure on the d = 2 sheet: 1 + log(2 pi / |theta|)."""
    if theta.d != 2:
        raise DimensionError(f"closed-form entropy needs d=2, got d={theta.d}")
    return 1.0 + _LOG_2PI - math.log(theta.minkowski_norm())


# ---------------------------------------------------------------------------
# MLE
# ---------------------------------------------------------------------------


def _as_chart_array(points) -> np.ndarray:
    import numpy as np

    if isinstance(points, np.ndarray):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"expected an (n, d) array, got shape {pts.shape}")
        return pts
    rows = [p.vec if isinstance(p, HyperboloidPoint) else np.asarray(p, float) for p in points]
    return np.array(rows, dtype=float)


def suff_stats_chart(points) -> np.ndarray:
    """Sufficient-statistic vectors (-x0~, x1..xd), one row per chart point.

    Raises ValueError for a non-finite chart coordinate or a point whose
    statistics overflow.
    """
    import numpy as np

    pts = _as_chart_array(points)
    if not np.isfinite(pts).all():
        raise ValueError("chart points need finite coordinates")
    x0 = np.sqrt(1.0 + np.einsum("ij,ij->i", pts, pts))  # einsum sets no overflow flag, so this warns of none
    return expfam.finite_stats(np.column_stack((-x0, pts)), pts)


def mle_from_moment(eta: np.ndarray, d: int) -> LorentzParam:
    """Invert the moment map: the parameter whose mean statistic is eta (d = eta.size - 1)."""
    return LorentzParam(expfam._grad(*expfam.dual(_FAMILY, eta)))


def mle(points) -> LorentzParam:
    """Maximum-likelihood estimate from at least two distinct chart points."""
    return expfam.mle(_FAMILY, _as_chart_array(points))
