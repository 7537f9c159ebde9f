"""Exponential families as one record each: divergences, MLE and EM read it.

Each family's cumulant depends on a natural-parameter vector v only through
the invariant u = q(v) = v^T Q v / 2 of its group action, for a constant
symmetric Q: F(v) = g(u).  A family is given on vectors by that radial
function g (with its derivatives), Q and q, whose sheet {v_0 > 0, q(v) > 0} is
the parameter cone; on points by its log density, its sufficient statistics,
the inverse moment map from their mean, and its sampler.  The family gives g's
derivatives as r_k = u^k g^(k)(u), from which the gradient, the Fisher
information and the cubic tensor are built here once, and from the conjugate's
(see :func:`dual`) the inverse moment map and the dual metric.  With densities
exp(-<v, s(x)> - F(v)) h(x), every divergence is a functional of F (Nielsen &
Nock 2010); Chernoff information is the maximum of the skew Jensen divergence
(Nielsen 2013); the MLE is the inverse moment map at the mean statistic, and
EM is Bregman soft clustering (Banerjee et al. 2005).  The module also holds
the library's one 1-D minimizer, Brent's bounded method.

Parameter vectors are tuples of floats, and the closed forms evaluate them
with ``math`` and sums taken left to right, so the module imports no NumPy;
the functions that return or read arrays (:func:`grad`, :func:`fim`,
:func:`cubic_tensor`, :func:`mle`, :func:`finite_stats`) import it when called.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from .geometry import _CONE_RTOL, DualDomainError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Family",
    "dual",
    "cumulant",
    "grad",
    "fim",
    "cubic_tensor",
    "mle",
    "finite_stats",
    "kld",
    "skew_jensen",
    "hellinger_sq",
    "neyman_chi2",
    "jeffreys",
    "chernoff",
    "brent_min",
]


class Family(NamedTuple):
    """One exponential family.

    ``radial(u, d, order)`` returns r_k = u^k g^(k)(u) at k = order (r_0 = g)
    for parameters of dimension d (vectors of size d + 1), evaluating no other
    order; ``metric(size)`` the constant matrix Q as a tuple of rows (one
    nonzero entry in each), and ``quad(v)`` the invariant u; ``dual_radial``
    and ``dual_quad`` are the same for the conjugate F* (:func:`dual`).
    Vectors are tuples of floats (an array works too).  The rest act on
    cone parameters and (n, d) point arrays: ``log_density(theta, pts)``,
    ``stats(pts)`` (one row per point), ``from_moment(eta)`` (the parameter
    whose mean statistic is eta) and ``sample(theta, n, rng)``.  The fields
    are lambdas that look their module's functions up when called, so a
    replaced module attribute (a tracing wrapper) is seen through the record.

    The log density is linear in a statistic row t(x):
    log p_theta(x) = <paired(v), t(x)> - F(v) + log h(x), with v =
    ``vector(theta)`` the parameter's natural vector, F = :func:`cumulant`
    and ``paired(v)`` the vector a row pairs with: v on the hyperboloid,
    (a, 2b, c) on the half-plane, whose rows hold m12 once where the density
    counts b twice.  ``reference(d)`` is a fixed cone parameter of dimension
    d; the carrier log h(x) is read off ``log_density`` there, so no family
    writes a formula for it.
    """

    radial: Callable[[float, int, int], float]
    metric: Callable[[int], tuple]
    quad: Callable[[tuple], float]
    dual_radial: Callable[[float, int, int], float]
    dual_quad: Callable[[tuple], float]
    log_density: Callable[[Any, np.ndarray], np.ndarray]
    stats: Callable[[np.ndarray], np.ndarray]
    from_moment: Callable[[np.ndarray], Any]
    sample: Callable[[Any, int, Any], np.ndarray]
    vector: Callable[[Any], tuple]
    paired: Callable[[tuple], tuple]
    reference: Callable[[int], Any]


def _dot(u, v) -> float:
    return sum(a * b for a, b in zip(u, v))


def _minus(u, v) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def cumulant(fam: Family, v) -> float:
    """F(v) = g(q(v))."""
    return fam.radial(fam.quad(v), len(v) - 1, 0)


def _scaled(fam: Family, v) -> tuple:
    # (u, w = Qv/u, Q); Q has one nonzero entry per row, so each row's sum is exact.
    u, q = fam.quad(v), fam.metric(len(v))
    return u, tuple(_dot(row, v) / u for row in q), q


def _grad(fam: Family, v) -> tuple:
    u, w, _ = _scaled(fam, v)
    r1 = fam.radial(u, len(v) - 1, 1)
    return tuple(r1 * x for x in w)


def grad(fam: Family, v) -> np.ndarray:
    """grad F(v) = g'(u) Q v = r_1 w with w = Qv/u, the mean of the sufficient statistic."""
    import numpy as np

    return np.array(_grad(fam, v))


def _fim(fam: Family, v) -> tuple:
    u, w, q = _scaled(fam, v)
    # r_2 first: a family that has none raises before r_1 is evaluated.
    r2 = fam.radial(u, len(v) - 1, 2)
    s1 = fam.radial(u, len(v) - 1, 1) / u
    n = range(len(v))
    # w at sorted indices, so the matrix is exactly symmetric.
    return tuple(tuple(r2 * w[min(i, j)] * w[max(i, j)] + s1 * q[i][j] for j in n) for i in n)


def fim(fam: Family, v) -> np.ndarray:
    """Fisher information, the Hessian of F: r_2 w w^T + (r_1/u) Q."""
    import numpy as np

    return np.array(_fim(fam, v))


def cubic_tensor(fam: Family, v) -> np.ndarray:
    """Third derivative of F: (r_3 w) (x) w (x) w + (r_2/u) (Q (x) w + its two transposes)."""
    import numpy as np

    u, w, q = _scaled(fam, v)
    r3 = fam.radial(u, len(v) - 1, 3)
    s2 = fam.radial(u, len(v) - 1, 2) / u
    n = range(len(v))
    # r_3 multiplies w first, as w^3 alone underflows at large scales; an entry is
    # evaluated at its sorted indices, so the tensor is exactly symmetric.
    t = {(i, j, k): r3 * w[i] * w[j] * w[k] + s2 * (q[i][j] * w[k] + q[i][k] * w[j] + q[j][k] * w[i])
         for i in n for j in n for k in n if i <= j <= k}
    return np.array([[[t[tuple(sorted((i, j, k)))] for k in n] for j in n] for i in n])


@lru_cache(maxsize=None)
def _dual_record(fam: Family) -> Family:
    # Q is symmetric with one nonzero entry per row, so Q^-1 inverts those entries, exactly.
    inverse = lru_cache(lambda size: tuple(tuple(1 / x if x else 0.0 for x in r) for r in fam.metric(size)))
    return fam._replace(radial=fam.dual_radial, quad=fam.dual_quad, metric=inverse)


def dual(fam: Family, eta) -> tuple:
    """(Record of the conjugate F*, e = paired(eta)) at a moment eta, whose first entry must be negative.

    F*(e) = h(q*) with q* = e^T Q^-1 e / 2 = r_1(u)^2 / u, so on the record (h, q*, Q^-1)
    :func:`_grad` is the inverse moment map, :func:`cumulant` the conjugate and :func:`fim` the dual metric.
    """
    e = tuple(map(float, fam.paired(eta)))
    if not e[0] < 0.0:
        raise DualDomainError(f"moment vector {e} is outside the dual cone: its first entry must be negative")
    return _dual_record(fam), e


def mle(fam: Family, pts: np.ndarray):
    """Maximum-likelihood estimate from at least two points: from_moment(mean statistic).

    The means use compensated summation, so the result does not depend on how
    callers order or shard the data.
    """
    import numpy as np

    n = pts.shape[0]
    if n < 2:
        raise DualDomainError(f"MLE needs at least 2 points, got {n}")
    stats = fam.stats(pts)
    return fam.from_moment(np.array([math.fsum(col) / n for col in stats.T.tolist()]))


def finite_stats(stats: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """``stats`` if every row is finite; else ValueError naming the first point whose row overflowed."""
    import numpy as np

    # Two reductions make no (n, d + 1) temporary, which EM would pay for in page faults.
    if not (math.isfinite(np.max(stats, initial=0.0)) and math.isfinite(np.min(stats, initial=0.0))):
        i = int(np.argmin(np.isfinite(stats).all(axis=1)))
        raise ValueError(f"sufficient statistics of point {i} {tuple(pts[i].tolist())} overflow float64")
    return stats


def kld(fam: Family, v, v2) -> float:
    """KL[p_v : p_v2] = F(v2) - F(v) - <v2 - v, grad F(v)>."""
    return cumulant(fam, v2) - cumulant(fam, v) - _dot(_grad(fam, v), _minus(v2, v))


def skew_jensen(fam: Family, v, v2, alpha: float) -> float:
    """J_alpha = (1-alpha) F(v) + alpha F(v2) - F((1-alpha) v + alpha v2)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return _skew_jensen(fam, v, v2, alpha, cumulant(fam, v), cumulant(fam, v2))


def _skew_jensen(fam: Family, v, v2, alpha: float, f_v: float, f_v2: float) -> float:
    # J_alpha given F(v) and F(v2), which do not depend on alpha.
    w = 1.0 - alpha
    return w * f_v + alpha * f_v2 - cumulant(fam, tuple(w * a + alpha * b for a, b in zip(v, v2)))


def hellinger_sq(fam: Family, v, v2) -> float:
    """1 - Bhattacharyya coefficient = -expm1(-J_1/2)."""
    return -math.expm1(-skew_jensen(fam, v, v2, 0.5))


def neyman_chi2(fam: Family, v, v2) -> float:
    """expm1(F(2 v2 - v) - 2 F(v2) + F(v)); +inf when 2 v2 - v leaves the cone.

    Raises ValueError when the exponent is too large for expm1: the value is
    then unknown, not infinite.
    """
    m = tuple(2.0 * b - a for a, b in zip(v, v2))
    scale = max(abs(x) for x in m)
    # The same relative margin as the cone check on parameters: closer to the
    # boundary, F(m) would be evaluated at a numerically zero q.
    if not (m[0] > 0.0 and fam.quad(m) > _CONE_RTOL * scale * scale):
        return math.inf
    exponent = cumulant(fam, m) - 2.0 * cumulant(fam, v2) + cumulant(fam, v)
    try:
        return math.expm1(exponent)
    except OverflowError:
        raise ValueError(
            f"the Neyman chi-squared closed form's exponent {exponent:.6g} left the float64 range"
        ) from None


def jeffreys(fam: Family, v, v2) -> float:
    """KL both ways: <v2 - v, grad F(v2) - grad F(v)>."""
    return _dot(_minus(v2, v), _minus(_grad(fam, v2), _grad(fam, v)))


def chernoff(fam: Family, v, v2) -> tuple:
    """(alpha*, J_alpha*): J_alpha is strictly concave in alpha, so Brent's method finds its max."""
    if tuple(v) == tuple(v2):
        return (0.5, 0.0)
    f_v, f_v2 = cumulant(fam, v), cumulant(fam, v2)
    alpha, _ = brent_min(lambda a: -_skew_jensen(fam, v, v2, a, f_v, f_v2), 1e-12, 1.0 - 1e-12, 1e-8)
    return (alpha, _skew_jensen(fam, v, v2, alpha, f_v, f_v2))


_SECTION = 0.5 * (3.0 - math.sqrt(5.0))  # 1 - 1/phi, the section-search fraction
_SQRT_EPS = math.sqrt(2.2e-16)  # fminbound's constant, so the iterates match scipy's bounded method


def brent_min(fn: Callable[[float], float], lo: float, hi: float, xatol: float) -> tuple:
    """(x, evaluations): Brent's bounded minimizer of ``fn`` on (lo, hi).

    Parabolic steps through the three best points, and section steps into the
    larger part of the bracket where a parabola is not trusted (Brent 1973,
    ch. 5; the fminbound variant).  ``fn`` must be unimodal on (lo, hi); it is
    never called at either end.  The search stops once x is within about
    ``xatol`` (plus a relative sqrt(machine eps) |x|) of the minimum.
    """
    # x is the best point so far, w the second best and v the previous w.
    a, b = lo, hi
    x = w = v = a + _SECTION * (b - a)
    fx = fw = fv = fn(x)
    evaluations = 1
    step = prev = 0.0
    while True:
        mid = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + xatol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - mid) <= tol2 - 0.5 * (b - a):
            return x, evaluations
        parabolic = False
        if abs(prev) > tol1:
            # Parabola through (x, fx), (w, fw), (v, fv); accepted only inside
            # (a, b) and shorter than half the step before last.
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            prev, older = step, prev
            if abs(p) < abs(0.5 * q * older) and q * (a - x) < p < q * (b - x):
                parabolic = True
                step = p / q
                if (x + step) - a < tol2 or b - (x + step) < tol2:
                    step = tol1 if mid >= x else -tol1
        if not parabolic:
            prev = (a if x >= mid else b) - x
            step = _SECTION * prev
        # Never closer than tol1 to x: a shorter step cannot be resolved.
        u = x + (math.copysign(max(abs(step), tol1), step) if step else tol1)
        fu = fn(u)
        evaluations += 1
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
