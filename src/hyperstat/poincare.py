"""The trivariate exponential family on the upper-half plane.

Densities have the form

    p(x, y) = (D e^{2D} / pi) exp(-(a(x^2+y^2) + 2bx + c)/y) / y^2,

with natural parameter the SPD matrix [[a,b],[b,c]] and D = sqrt(ac - b^2).
This module carries the cumulant and its conjugate, the moment map and its
inverse, closed-form divergences (KL, squared Hellinger, Neyman chi-squared,
Jeffreys, skew Jensen, Chernoff), entropy, the Fisher information matrix, the
cubic tensor, and the maximum-likelihood estimator.  The divergences and the
MLE are not written out here: :mod:`hyperstat.expfam` derives each of them,
and the cumulant's gradient, Fisher information and cubic tensor, once from
this module's family record: phi(u) = -log(u)/2 - 2 sqrt(u), the reduced
cumulant at u = ac - b^2 = (a, b, c) Q (a, b, c)^T / 2, the constant Q and
r_k = u^k phi^(k)(u) = -1/2 - sqrt(u), 1/2 + sqrt(u)/2, -1 - 3 sqrt(u)/4.
The conjugate's radial function is h(q) = log D - 1 at q = det eta, with
D = 1/(2 (sqrt(q) - 1)), rho_1 = -1/2 - D and rho_2 = (1 + D)(1 + 2D)/2.

The cumulant is exposed in two equivalent normalizations: the full
log-normalizer ``log pi - log D - 2D`` and the reduced Bregman generator
``-log D - 2D`` (they differ by the constant log pi, which cancels in every
divergence).  The conjugate machinery runs on the reduced form.

The closed forms evaluate the parameter as the float tuple (a, b, c) and
import no NumPy; the densities, statistics, MLE and matrix-valued forms
import it when called.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from . import expfam
from .geometry import DualDomainError, Moment2, SpdParam2, UpperHalfPoint, _set, _Value
from .specfun import exp_gamma0

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CumulantPair",
    "log_density",
    "log_density_xy",
    "cumulant",
    "grad_cumulant",
    "conjugate",
    "grad_conjugate",
    "kld",
    "hellinger_sq",
    "neyman_chi2",
    "jeffreys",
    "skew_jensen",
    "chernoff",
    "entropy",
    "expected_log_y",
    "modified_entropy",
    "fim",
    "fim_dual",
    "cubic_tensor",
    "suff_stats_xy",
    "mle",
]

_LOG_PI = math.log(math.pi)


class CumulantPair(_Value):
    """Full and reduced log-normalizer; full - reduced = log(pi) exactly."""

    __slots__ = ("full", "reduced")

    def __init__(self, full: float, reduced: float) -> None:
        _set(self, "full", full)
        _set(self, "reduced", reduced)


# ---------------------------------------------------------------------------
# Density and cumulant
# ---------------------------------------------------------------------------


def log_density_xy(theta: SpdParam2, x, y):
    """Log density at chart coordinates; accepts scalars or numpy arrays."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = theta.sqrt_det()
    # A far point's quadratic form overflows to +inf, its log density to -inf.
    with np.errstate(over="ignore"):
        quad = (theta.a * (x * x + y * y) + 2.0 * theta.b * x + theta.c) / y
    return math.log(d) + 2.0 * d - _LOG_PI - quad - 2.0 * np.log(y)


def log_density(theta: SpdParam2, z: UpperHalfPoint) -> float:
    return float(log_density_xy(theta, z.x, z.y))


def cumulant(theta: SpdParam2) -> CumulantPair:
    reduced = expfam.cumulant(_FAMILY, _vector(theta))
    return CumulantPair(full=_LOG_PI + reduced, reduced=reduced)


def grad_cumulant(theta: SpdParam2) -> Moment2:
    """Moment parameter eta = -(1/2 + D) theta^{-1}; identical for both normalizations."""
    # The vector gradient's middle entry is 2 m12: b appears twice in the matrix pairing.
    m11, m12_twice, m22 = expfam._grad(_FAMILY, _vector(theta))
    return Moment2(m11, 0.5 * m12_twice, m22)


def grad_conjugate(eta: Moment2) -> SpdParam2:
    """Invert the moment map: the unique theta with grad_cumulant(theta) = eta (feasible iff det eta > 1)."""
    return SpdParam2(*expfam._grad(*expfam.dual(_FAMILY, eta._fields())))


def conjugate(eta: Moment2) -> float:
    """Convex conjugate of the reduced cumulant at eta, <eta, theta(eta)> - F(theta(eta)) = log D - 1."""
    return expfam.cumulant(*expfam.dual(_FAMILY, eta._fields()))


# ---------------------------------------------------------------------------
# The family record; divergences, MLE and EM are derived from it in expfam
# ---------------------------------------------------------------------------


# Q, the Hessian of u(a,b,c) = ac - b^2: u = v^T Q v / 2.
_HESS_U = ((0.0, 0.0, 1.0), (0.0, -2.0, 0.0), (1.0, 0.0, 0.0))


def _vector(theta: SpdParam2) -> tuple:
    return (theta.a, theta.b, theta.c)


def _radial(u: float, d: int, order: int) -> float:
    # phi(u) = -log(u)/2 - 2 sqrt(u), or r_k = u^k phi^(k)(u) for k = order up to 3.
    su = math.sqrt(u)
    if order == 0:
        return -math.log(su) - 2.0 * su
    if order == 1:
        return -0.5 - su
    return 0.5 + 0.5 * su if order == 2 else -1.0 - 0.75 * su


def _dual_radial(q: float, d: int, order: int) -> float:
    # h(q) = log D - 1 with D = sqrt(u) = 1/(2 (sqrt(q) - 1)), or rho_k = q^k h^(k)(q) for k = order up to 2.
    root = math.sqrt(q)
    if not root > 1.0:
        raise DualDomainError(
            f"moment parameter has det {q:.6g} <= 1, so it is the moment of no cone parameter: the points "
            "coincide or are inconsistent, or det eta = (1 + 1/(2D))^2 rounded to 1, as it does once "
            "D = sqrt(det theta) passes about 1e16 (such a theta has no representable moment)"
        )
    dd = 0.5 / (root - 1.0)
    if order == 0:
        return math.log(dd) - 1.0
    return -0.5 - dd if order == 1 else 0.5 * (1.0 + dd) * (1.0 + 2.0 * dd)


def _sample(theta: SpdParam2, n: int, rng) -> np.ndarray:
    # The sampler module is loaded by the first draw, not with the closed forms.
    from .sampling import poincare_sample

    return poincare_sample(theta, n, rng)


_FAMILY = expfam.Family(
    radial=lambda u, d, order: _radial(u, d, order),
    metric=lambda size: _HESS_U,
    quad=lambda v: v[0] * v[2] - v[1] * v[1],
    dual_radial=lambda q, d, order: _dual_radial(q, d, order),
    # e^T Q^-1 e / 2 at e = (m11, 2 m12, m22): det eta, to the bit.
    dual_quad=lambda e: e[0] * e[2] - 0.25 * e[1] * e[1],
    log_density=lambda theta, pts: log_density_xy(theta, pts[:, 0], pts[:, 1]),
    # The Moment2 entries (m11, m12, m22) that from_moment inverts, not the
    # gradient's (m11, 2 m12, m22): EM's k-means++ seeding measures distances
    # between these rows, so this choice fixes every fit.
    stats=lambda pts: suff_stats_xy(pts),
    from_moment=lambda eta: grad_conjugate(Moment2(*eta)),
    sample=_sample,
    vector=lambda theta: _vector(theta),
    # The density's a(x^2+y^2) + 2bx + c counts the middle entry m12 twice.
    paired=lambda v: (v[0], 2.0 * v[1], v[2]),
    reference=lambda d: SpdParam2(1.0, 0.0, 1.0),
)


def kld(theta: SpdParam2, theta2: SpdParam2) -> float:
    """Kullback-Leibler divergence KL[p_theta : p_theta2] in closed form."""
    return expfam.kld(_FAMILY, _vector(theta), _vector(theta2))


def hellinger_sq(theta: SpdParam2, theta2: SpdParam2) -> float:
    """Squared Hellinger divergence (generator (sqrt(u)-1)^2/2); in [0, 1), symmetric."""
    return expfam.hellinger_sq(_FAMILY, _vector(theta), _vector(theta2))


def neyman_chi2(theta: SpdParam2, theta2: SpdParam2) -> float:
    """Neyman chi-squared divergence; +inf when 2*theta2 - theta leaves the cone."""
    return expfam.neyman_chi2(_FAMILY, _vector(theta), _vector(theta2))


def jeffreys(theta: SpdParam2, theta2: SpdParam2) -> float:
    """Symmetrized KL divergence; symmetric but not a metric in any positive power."""
    return expfam.jeffreys(_FAMILY, _vector(theta), _vector(theta2))


def skew_jensen(theta: SpdParam2, theta2: SpdParam2, alpha: float) -> float:
    """Skew Jensen divergence of the reduced cumulant at the mix (1-alpha) theta + alpha theta2.

    Equals the alpha-Bhattacharyya divergence between the two densities;
    at alpha = 1/2 it is -log(1 - hellinger_sq).
    """
    return expfam.skew_jensen(_FAMILY, _vector(theta), _vector(theta2), alpha)


def chernoff(theta: SpdParam2, theta2: SpdParam2) -> tuple:
    """Chernoff information: maximize the skew Jensen value over alpha in (0, 1).

    The objective is strictly concave in alpha, so Brent's bounded method
    converges to the unique optimum; returns (alpha*, value).
    """
    return expfam.chernoff(_FAMILY, _vector(theta), _vector(theta2))


# ---------------------------------------------------------------------------
# Entropies
# ---------------------------------------------------------------------------


def entropy(theta: SpdParam2) -> float:
    """Differential entropy, 1 + log(pi D) - 2 log a - 2 e^{4D} Gamma(0, 4D)."""
    d = theta.sqrt_det()
    return 1.0 + math.log(math.pi * d) - 2.0 * math.log(theta.a) - 2.0 * exp_gamma0(4.0 * d)


def expected_log_y(theta: SpdParam2) -> float:
    """E[log y] = log(D/a) - e^{4D} Gamma(0, 4D)."""
    d = theta.sqrt_det()
    return math.log(d / theta.a) - exp_gamma0(4.0 * d)


def modified_entropy(theta: SpdParam2) -> float:
    """Entropy against the invariant measure dx dy / y^2: 1 + log(pi / D).

    Unlike :func:`entropy` this depends on theta only through its determinant
    and is therefore invariant under the SL(2,R) action.
    """
    return 1.0 + _LOG_PI - math.log(theta.sqrt_det())


# ---------------------------------------------------------------------------
# Information geometry
# ---------------------------------------------------------------------------

def fim(theta: SpdParam2) -> np.ndarray:
    """Fisher information matrix in (a, b, c) coordinates: the Hessian of the cumulant."""
    return expfam.fim(_FAMILY, _vector(theta))


def fim_dual(eta: Moment2) -> np.ndarray:
    """Hessian of the conjugate in (m11, 2 m12, m22): fim(grad_conjugate(eta))^-1, exactly symmetric."""
    return expfam.fim(*expfam.dual(_FAMILY, eta._fields()))


def cubic_tensor(theta: SpdParam2) -> np.ndarray:
    """Totally symmetric third-derivative tensor of the cumulant in (a, b, c)."""
    return expfam.cubic_tensor(_FAMILY, _vector(theta))


# ---------------------------------------------------------------------------
# Sufficient statistics and MLE
# ---------------------------------------------------------------------------


def _as_xy_array(points) -> np.ndarray:
    import numpy as np

    if isinstance(points, np.ndarray):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"expected an (n, 2) array, got shape {pts.shape}")
        return pts
    arr = np.array([(p.x, p.y) for p in points], dtype=float)
    return arr


def suff_stats_xy(points) -> np.ndarray:
    """Sufficient-statistic vectors, one row per point: -((x^2+y^2)/y, x/y, 1/y).

    Raises ValueError for a point outside the half-plane (y <= 0 or a
    non-finite coordinate) or one whose statistics overflow.
    """
    import numpy as np

    pts = _as_xy_array(points)
    x, y = pts[:, 0], pts[:, 1]
    if not (np.isfinite(pts).all() and (y > 0.0).all()):
        raise ValueError("half-plane points need finite x and y > 0")
    with np.errstate(over="ignore"):
        stats = -np.column_stack(((x * x + y * y) / y, x / y, 1.0 / y))
    return expfam.finite_stats(stats, pts)


def mle(points) -> SpdParam2:
    """Maximum-likelihood estimate from at least two distinct points.

    Averages the sufficient statistics with compensated summation (the result
    must not depend on how callers shard the data) and inverts the moment map.
    """
    return expfam.mle(_FAMILY, _as_xy_array(points))
