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

import math
from typing import Callable

import numpy as np

from .geometry import LorentzParam, SpdParam2, _check_draws, _set, _Value

__all__ = [
    "GigParams",
    "RngStream",
    "gig_sample",
    "hyperboloid_sample",
    "poincare_sample",
]

_BLOCK = 16_384  # rows per elementwise block: a few block temporaries stay in a 2 MB L2 cache


def _by_block(kernel: Callable[..., None], *arrays: np.ndarray) -> None:
    """``kernel(*(a[rows] for a in arrays))`` over consecutive row blocks of ``_BLOCK``."""
    for start in range(0, len(arrays[0]), _BLOCK):
        rows = slice(start, start + _BLOCK)
        kernel(*(a[rows] for a in arrays))

_MASK64 = (1 << 64) - 1


def _mix64(a: int, b: int) -> int:
    # splitmix64 finalizer over the combined words; collision-free in practice.
    z = (a ^ ((b + 0x9E3779B97F4A7C15) & _MASK64)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class RngStream(_Value):
    """A reproducible random stream: same (seed, stream_id) gives identical output."""

    __slots__ = ("seed", "stream_id")

    def __init__(self, seed: int, stream_id: int = 0) -> None:
        _set(self, "seed", seed)
        _set(self, "stream_id", stream_id)

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence((self.seed & _MASK64, self.stream_id & _MASK64))
        return np.random.Generator(np.random.PCG64(ss))

    def derive(self, *keys: int) -> "RngStream":
        """A statistically independent child stream keyed by integers."""
        sid = self.stream_id & _MASK64
        for k in keys:
            sid = _mix64(sid, int(k) & _MASK64)
        return RngStream(self.seed, sid)


class GigParams(_Value):
    """Parameters of the generalized inverse Gaussian law on x > 0.

    Density proportional to x^(lam-1) exp(-(chi/x + psi*x)/2).
    """

    __slots__ = ("lam", "chi", "psi")

    def __init__(self, lam: float, chi: float, psi: float) -> None:
        _set(self, "lam", lam)
        _set(self, "chi", chi)
        _set(self, "psi", psi)
        if not (chi > 0.0 and psi > 0.0):
            raise ValueError(f"GIG needs chi > 0 and psi > 0, got chi={chi}, psi={psi}")

    def log_kernel(self, x):
        x = np.asarray(x, dtype=float)
        return (self.lam - 1.0) * np.log(x) - 0.5 * (self.chi / x + self.psi * x)


def _gig_half_order(p: GigParams, n: int, gen: np.random.Generator) -> np.ndarray:
    # lam = +-1/2 reduces to the inverse Gaussian law (three-step transform
    # inside numpy's wald); lam = +1/2 is the reciprocal of lam = -1/2 with
    # chi and psi exchanged.
    if p.lam == -0.5:
        return gen.wald(math.sqrt(p.chi / p.psi), p.chi, size=n)
    x = gen.wald(math.sqrt(p.psi / p.chi), p.psi, size=n)
    return np.divide(1.0, x, out=x)


def gig_sample(p: GigParams, n: int, rng: RngStream) -> np.ndarray:
    """n i.i.d. GIG draws by the inverse-Gaussian transform; orders lam = +-1/2 only, else ValueError."""
    if p.lam not in (0.5, -0.5):
        raise ValueError(f"GIG draws cover orders lam = 0.5 and -0.5 only, got lam={p.lam}")
    return _gig_half_order(p, n, rng.generator())


def hyperboloid_sample(theta: LorentzParam, n: int, rng: RngStream) -> np.ndarray:
    """n chart points from the d = 2 hyperboloid law, as an (n, 2) array.

    Raises ValueError rather than return a non-finite point when a mixing
    draw is not positive and finite: numpy's Wald generator returns 0 for
    some draws once |theta| is below about 5e-15.
    """
    _check_draws(theta.d, n)
    t = theta.minkowski_norm()
    gen = rng.generator()
    with np.errstate(divide="ignore"):  # a zero Wald draw is rejected below, not warned about
        s = _gig_half_order(GigParams(0.5, 1.0, t * t), n, gen)
    if n and not (s.min() > 0.0 and s.max() < math.inf):
        raise ValueError(f"mixing draws at |theta| = {t:g} are not all positive and finite")
    z = gen.standard_normal((n, 2))

    def place(z: np.ndarray, s: np.ndarray) -> None:
        # s * spatial + sqrt(s) * z, column by column in place
        root, shift = np.sqrt(s), np.empty_like(s)
        for column, spatial in zip(z.T, theta.vec[1:]):
            column *= root
            column += np.multiply(s, spatial, out=shift)

    _by_block(place, z, s)
    return z


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
