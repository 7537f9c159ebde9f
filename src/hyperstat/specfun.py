"""Special functions shared by both hyperbolic families.

Three quantities are needed: the modified Bessel function of the second kind
``K_nu`` (normalizer of the hyperboloid family for d >= 3), its logarithmic
derivative (gradient of that cumulant), and the exponentially scaled upper
incomplete gamma ``e^x * Gamma(0, x)`` (entropy of the half-plane family).
At d = 2 the order is 1/2, where K is elementary, and the hyperboloid module
does not call this one.  Everything here is a pure function of floats and is
safe to call concurrently.

``scipy.special`` is imported on the first Bessel evaluation, not with this
module: the half-plane family and the d = 2 hyperboloid (closed forms,
densities, sampler, MLE and EM) evaluate no Bessel function and so never load
scipy.
"""

from __future__ import annotations

import math

from .geometry import _set, _Value

__all__ = ["SpecialValue", "bessel_k", "bessel_k_logderiv", "exp_gamma0"]

_EULER_GAMMA = 0.5772156649015329  # the Euler-Mascheroni constant, as numpy.euler_gamma


class SpecialValue(_Value):
    """A positive special-function value paired with its natural log.

    ``log_value`` stays finite and accurate even when ``value`` underflows
    to zero in double precision.
    """

    __slots__ = ("value", "log_value")

    def __init__(self, value: float, log_value: float) -> None:
        _set(self, "value", value)
        _set(self, "log_value", log_value)


def bessel_k(order: float, x: float) -> SpecialValue:
    """Modified Bessel function of the second kind, K_order(x).

    ``order`` may be negative; K is even in its order.  Computed through the
    exponentially scaled routine so that ``log_value`` is usable far past the
    underflow point of ``value`` (x of a few thousand).
    """
    if not x > 0.0:
        raise ValueError(f"bessel_k requires x > 0, got x={x}")
    from scipy.special import kve

    nu = abs(float(order))
    scaled = float(kve(nu, x))  # e^x K_nu(x)
    if not math.isfinite(scaled) or scaled <= 0.0:
        raise ValueError(f"bessel_k failed for order={order}, x={x}")
    return SpecialValue(value=scaled * math.exp(-x), log_value=math.log(scaled) - x)


def bessel_k_logderiv(order: float, x: float) -> float:
    """d/dx log K_order(x), always negative.

    Uses K'_nu = -(K_{nu-1} + K_{nu+1})/2; the e^x scaling of ``kve`` cancels
    in the ratio, so this stays stable for large x.  Raises ValueError where
    ``kve`` gives no finite ratio (SciPy 1.17's ``kve`` is nan from x = 2^30).
    """
    if not x > 0.0:
        raise ValueError(f"bessel_k_logderiv requires x > 0, got x={x}")
    from scipy.special import kve

    nu = abs(float(order))
    num = kve(abs(nu - 1.0), x) + kve(nu + 1.0, x)
    ratio = -0.5 * float(num) / float(kve(nu, x))
    if not math.isfinite(ratio):
        raise ValueError(f"bessel_k_logderiv failed for order={order}, x={x}")
    return ratio


def _exp_gamma0_series(x: float) -> float:
    # e^x E_1(x) with E_1(x) = -gamma - log x + sum (-1)^{k+1} x^k / (k k!)
    acc = 0.0
    term = 1.0
    for k in range(1, 60):
        term *= -x / k
        delta = -term / k
        acc += delta
        if abs(delta) < 1e-18 * max(1.0, abs(acc)):
            break
    return math.exp(x) * (-_EULER_GAMMA - math.log(x) + acc)


def _exp_gamma0_lentz(x: float) -> float:
    # Continued fraction e^x Gamma(0,x) = 1/(x+1 - 1^2/(x+3 - 2^2/(x+5 - ...)))
    # evaluated by the modified Lentz algorithm.
    tiny = 1e-300
    f = x + 1.0
    c = f
    d = 0.0
    for k in range(1, 400):
        a_k = -float(k * k)
        b_k = x + 2.0 * k + 1.0
        d = b_k + a_k * d
        if d == 0.0:
            d = tiny
        c = b_k + a_k / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return 1.0 / f


def exp_gamma0(x: float) -> float:
    """Exponentially scaled upper incomplete gamma at zero order: e^x Gamma(0, x).

    The direct product overflows past x ~ 700; the continued fraction for
    x >= 1 and the log+series form below 1 avoid that entirely.
    """
    if not x > 0.0:
        raise ValueError(f"exp_gamma0 requires x > 0, got x={x}")
    if x < 1.0:
        return _exp_gamma0_series(x)
    return _exp_gamma0_lentz(x)
