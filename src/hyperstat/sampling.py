"""Exact random-variate generation for the d = 2 hyperboloid and half-plane families.

The hyperboloid law is a normal variance-mean mixture: draw the mixing scale
s from a generalized inverse Gaussian law GIG(1/2, 1, |theta|^2), then draw
the chart point from N(s * theta_spatial, s I_2).  Half-plane variates are
obtained by pushing hyperboloid variates through the inverse chart map.

Randomness flows through :class:`RngStream`, a (seed, stream_id) pair that is
bit-reproducible and can be split into statistically independent substreams.
Samplers are pure functions of (parameters, n, stream).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .expfam import brent_min
from .geometry import LorentzParam, SpdParam2

__all__ = [
    "GigParams",
    "RngStream",
    "gig_sample",
    "hyperboloid_sample",
    "poincare_sample",
    "concentration_probe",
]

logger = logging.getLogger(__name__)

_MASK64 = (1 << 64) - 1


def _mix64(a: int, b: int) -> int:
    # splitmix64 finalizer over the combined words; collision-free in practice.
    z = (a ^ ((b + 0x9E3779B97F4A7C15) & _MASK64)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream: same (seed, stream_id) gives identical output."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence((self.seed & _MASK64, self.stream_id & _MASK64))
        return np.random.Generator(np.random.PCG64(ss))

    def derive(self, *keys: int) -> "RngStream":
        """A statistically independent child stream keyed by integers."""
        sid = self.stream_id & _MASK64
        for k in keys:
            sid = _mix64(sid, int(k) & _MASK64)
        return RngStream(self.seed, sid)


@dataclass(frozen=True)
class GigParams:
    """Parameters of the generalized inverse Gaussian law on x > 0.

    Density proportional to x^(lam-1) exp(-(chi/x + psi*x)/2).
    """

    lam: float
    chi: float
    psi: float

    def __post_init__(self) -> None:
        if not (self.chi > 0.0 and self.psi > 0.0):
            raise ValueError(
                f"GIG needs chi > 0 and psi > 0, got chi={self.chi}, psi={self.psi}"
            )

    def log_kernel(self, x):
        x = np.asarray(x, dtype=float)
        return (self.lam - 1.0) * np.log(x) - 0.5 * (self.chi / x + self.psi * x)


def _gig_half_order(p: GigParams, n: int, gen: np.random.Generator) -> np.ndarray:
    # lam = +-1/2 reduces to the inverse Gaussian law (three-step transform
    # inside numpy's wald); lam = +1/2 is the reciprocal of lam = -1/2 with
    # chi and psi exchanged.
    if p.lam == -0.5:
        return gen.wald(math.sqrt(p.chi / p.psi), p.chi, size=n)
    return 1.0 / gen.wald(math.sqrt(p.psi / p.chi), p.psi, size=n)


def _gig_ratio_of_uniforms(p: GigParams, n: int, gen: np.random.Generator) -> np.ndarray:
    # Mode-shifted ratio-of-uniforms rejection for arbitrary order.
    mode = ((p.lam - 1.0) + math.sqrt((p.lam - 1.0) ** 2 + p.chi * p.psi)) / p.psi
    log_hm = float(p.log_kernel(mode))

    def neg_v(x: float) -> float:
        # -(x - mode) * sqrt(h(x)/h(mode)); minimized to find the v-bounds.
        if x <= 0.0:
            return 0.0
        return -(x - mode) * math.exp(0.5 * (float(p.log_kernel(x)) - log_hm))

    def dlog_v(x: float) -> float:
        # d/dx log((x - mode) sqrt(h(x)/h(mode))); negative past the sup.
        return 1.0 / (x - mode) + (p.lam - 1.0) / (2.0 * x) + p.chi / (4.0 * x * x) - p.psi / 4.0

    # For small psi the sup lies far beyond the mode: widen the bracket until
    # its upper end is past the sup, or the envelope would cut the tail off.
    hi = mode + 200.0 * (1.0 + mode)
    while dlog_v(hi) >= 0.0:
        hi = mode + 2.0 * (hi - mode)
    x_hi, _ = brent_min(neg_v, mode, hi, 1e-5)
    x_lo, _ = brent_min(lambda x: -neg_v(x), 1e-12 * mode, mode, 1e-5)
    v_hi = -neg_v(x_hi)  # sup of (x - mode) sqrt(h/h(mode)), positive
    v_lo = -neg_v(x_lo)  # inf of the same, negative
    out = np.empty(n)
    filled = 0
    proposed = 0
    while filled < n:
        m = max(int((n - filled) * 1.5) + 16, 64)
        u = gen.uniform(0.0, 1.0, size=m)
        v = gen.uniform(v_lo, v_hi, size=m)
        x = mode + v / u
        ok = x > 0.0
        logh = np.full(m, -np.inf)
        logh[ok] = p.log_kernel(x[ok]) - log_hm
        accept = 2.0 * np.log(u) <= logh
        take = x[accept][: n - filled]
        out[filled : filled + take.size] = take
        filled += take.size
        proposed += m
    logger.debug(
        "GIG ratio-of-uniforms: lam=%g chi=%g psi=%g acceptance=%.3f",
        p.lam,
        p.chi,
        p.psi,
        n / proposed,
    )
    return out


def gig_sample(
    p: GigParams, n: int, rng: RngStream, method: str = "auto"
) -> np.ndarray:
    """n i.i.d. draws from the GIG law.

    ``method``: "auto" uses the inverse-Gaussian transform for lam = +-1/2 and
    rejection otherwise; "transform" and "rejection" force one path (the
    transform path only exists for half-integer lam of magnitude 1/2).
    """
    gen = rng.generator()
    if method not in ("auto", "transform", "rejection"):
        raise ValueError(f"unknown method {method!r}")
    half = p.lam in (0.5, -0.5)
    if method == "transform" and not half:
        raise ValueError("transform sampling only applies to lam = +-1/2")
    if method == "rejection" or (method == "auto" and not half):
        return _gig_ratio_of_uniforms(p, n, gen)
    return _gig_half_order(p, n, gen)


def hyperboloid_sample(theta: LorentzParam, n: int, rng: RngStream) -> np.ndarray:
    """n chart points from the d = 2 hyperboloid law, as an (n, 2) array."""
    if theta.d != 2:
        raise ValueError(f"sampler covers d=2 only, got d={theta.d}")
    if n < 0:
        raise ValueError(f"sample size must be >= 0, got {n}")
    t = theta.minkowski_norm()
    gen = rng.generator()
    s = _gig_half_order(GigParams(0.5, 1.0, t * t), n, gen)
    z = gen.standard_normal((n, 2))
    spatial = theta.vec[1:]
    return s[:, None] * spatial[None, :] + np.sqrt(s)[:, None] * z


def _chart_l_to_h(chart: np.ndarray) -> np.ndarray:
    # geometry.point_l_to_h over an array: each form of the root where it
    # does not cancel.
    big_x = chart[:, 0]
    big_y = chart[:, 1]
    r = np.sqrt(1.0 + big_x * big_x + big_y * big_y)
    y = np.where(big_x >= 0.0, 1.0 / (r + np.abs(big_x)), (r + np.abs(big_x)) / (1.0 + big_y * big_y))
    return np.column_stack((y * big_y, y))


def poincare_sample(theta: SpdParam2, n: int, rng: RngStream) -> np.ndarray:
    """n points (x, y) from the half-plane law, as an (n, 2) array.

    Sampling goes through the hyperboloid representation.  The chart map
    (x, y) -> ((1-x^2-y^2)/(2y), x/y) pairs with the parameter (a+c, a-c, -2b):
    the sign of the last component is opposite to the divergence-level
    parameter correspondence, which is insensitive to it.
    """
    theta_l = LorentzParam((theta.a + theta.c, theta.a - theta.c, -2.0 * theta.b))
    chart = hyperboloid_sample(theta_l, n, rng)
    return _chart_l_to_h(chart)


def concentration_probe(
    chart_point, t: float, n: int, rng: RngStream
) -> np.ndarray:
    """Mean chart point of n draws from the law with parameter t * lift(chart_point).

    As t grows the law concentrates at ``chart_point``; the returned mean
    converges to it.
    """
    if not t > 0.0:
        raise ValueError(f"need t > 0, got {t}")
    x = np.asarray(chart_point, dtype=float)
    lift = np.concatenate(([math.sqrt(1.0 + float(x @ x))], x))
    samples = hyperboloid_sample(LorentzParam(t * lift), n, rng)
    return samples.mean(axis=0)
