"""Stochastic estimation of f-divergences between d = 2 hyperboloid laws.

Three estimators are provided:

* plug-in: sample the first law directly and average f(density ratio);
* importance sampling (MC1) from a product proposal with a scale that can be
  tuned on a pilot sample by minimizing the empirical second moment;
* polar change of variables (MC2): push the plane to the unit disk and
  average the compactified integrand over uniform (r, angle) draws, with the
  radial range truncated at 1 - eps (the truncation bias is documented, tiny,
  and deliberately left uncorrected).

:func:`estimate` picks one of them by name and derives its stream.
Half-plane divergences are estimated by mapping the parameters through the
d = 2 correspondence first.  Estimates are deterministic given the stream and
the shard count; shards are combined with Chan's parallel moment update, so
the combined moments do not depend on combination order.

Each estimator is a sampler and a weight kernel, which one driver,
:func:`_sharded`, runs: per shard the sampler makes every generator call up
front, and the elementwise kernel runs over row blocks of ``sampling._BLOCK``
draws, writing each block's weights into one array that is then reduced whole
(moments, tail index).  The block size therefore changes wall time only,
never a bit of a result.  No kernel calls cos or sin: MC2 takes both from one
tangent of its half angle.  The sigma search's t7 objective is a polynomial
in the scale over pilot moments built once, so each Brent evaluation is O(1).
"""

from __future__ import annotations

import math
import os
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import hyperboloid as hb
from .expfam import brent_min
from .geometry import LorentzParam, _check_estimator_pair, _check_estimator_sizes
from .geometry import _set, _Value
from .sampling import RngStream, _by_block, hyperboloid_sample

__all__ = [
    "FGenerator",
    "Proposal",
    "McEstimate",
    "estimate_plugin",
    "estimate_mc1",
    "estimate_mc2",
    "optimize_sigma",
    "estimate",
]


class FGenerator(_Value):
    """A convex divergence generator f with f(1) = 0, evaluated from log ratios."""

    __slots__ = ("kind", "of_log_ratio")

    def __init__(self, kind: str, of_log_ratio: Callable[[np.ndarray], np.ndarray]) -> None:
        _set(self, "kind", kind)
        _set(self, "of_log_ratio", of_log_ratio)

    @staticmethod
    def total_variation() -> "FGenerator":
        # f(u) = |u - 1| / 2
        return FGenerator("total_variation", lambda lr: 0.5 * np.abs(np.expm1(lr)))

    @staticmethod
    def kl() -> "FGenerator":
        # f(u) = -log u
        return FGenerator("kl", lambda lr: -lr)

    @staticmethod
    def squared_hellinger() -> "FGenerator":
        # f(u) = (sqrt(u) - 1)^2 / 2
        return FGenerator("squared_hellinger", lambda lr: 0.5 * np.expm1(0.5 * lr) ** 2)

    @staticmethod
    def neyman_chi2() -> "FGenerator":
        # f(u) = (u - 1)^2
        return FGenerator("neyman_chi2", lambda lr: np.expm1(lr) ** 2)

    @staticmethod
    def custom(f: Callable[[np.ndarray], np.ndarray]) -> "FGenerator":
        """Wrap a generator given as f(u); f must be convex with f(1) = 0."""
        return FGenerator("custom", lambda lr: f(np.exp(lr)))

    @staticmethod
    def by_name(name: str) -> "FGenerator":
        table = {
            "tv": FGenerator.total_variation,
            "total_variation": FGenerator.total_variation,
            "kl": FGenerator.kl,
            "hellinger": FGenerator.squared_hellinger,
            "squared_hellinger": FGenerator.squared_hellinger,
            "neyman": FGenerator.neyman_chi2,
            "neyman_chi2": FGenerator.neyman_chi2,
        }
        if name not in table:
            raise ValueError(f"unknown generator {name!r}")
        return table[name]()


_T7_LOGNORM = (
    math.lgamma(4.0) - math.lgamma(3.5) - 0.5 * math.log(7.0 * math.pi)
)


class Proposal(_Value):
    """A positive 1-D proposal density from a scale family: p_sigma(x) = p(x/sigma)/sigma."""

    __slots__ = ("kind", "sigma")

    def __init__(self, kind: str, sigma: float = 1.0) -> None:
        _set(self, "kind", kind)
        _set(self, "sigma", sigma)
        if kind not in ("logistic", "student_t7"):
            raise ValueError(f"unknown proposal {kind!r}")
        if not sigma > 0.0:
            raise ValueError(f"proposal scale must be positive, got {sigma}")

    def sample(self, n: int, gen: np.random.Generator) -> np.ndarray:
        if self.kind == "logistic":
            return gen.logistic(0.0, self.sigma, size=n)
        x = gen.standard_t(7, size=n)
        x *= self.sigma
        return x

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        z = np.array(x, dtype=float)
        z /= self.sigma
        if self.kind == "logistic":
            # -|z| - 2 log1p(exp(-|z|)) - log sigma
            np.negative(np.abs(z, out=z), out=z)
            t = np.exp(z)
            np.log1p(t, out=t)
            t *= 2.0
            z -= t
        else:
            # C - 4 log1p(z^2 / 7) - log sigma
            z *= z
            z /= 7.0
            np.log1p(z, out=z)
            z *= 4.0
            np.subtract(_T7_LOGNORM, z, out=z)
        z -= math.log(self.sigma)
        return z


def _pass_terms(
    kind: str, root_a: np.ndarray, t: np.ndarray, z: np.ndarray, w: np.ndarray
) -> Callable[[float], float]:
    """``total(sigma)``, the pilot sum of (root_a / sqrt(p_sigma(z) p_sigma(w)))^2.

    The log-densities of :meth:`Proposal.logpdf` give, exactly,
    student_t7: 1 / (p_sigma(z) p_sigma(w)) = sigma^2 e^{-2C} Q^4 with
    Q = (1 + s z^2)(1 + s w^2) = 1 + s A + s^2 B, s = 1/(7 sigma^2),
    A = z^2 + w^2 and B = z^2 w^2;
    logistic: 1 / p_sigma(x) = 4 sigma cosh^2(x / (2 sigma)).

    For student_t7 the sum is the degree-8 polynomial sigma^2 e^{-2C} sum_j M_j s^j.
    Expanding Q^4 gives M_j = sum_{b + 2g = j} 4! / ((4 - b - g)! b! g!) S_{b,g}
    over the 15 sums S_{b,g} = sum a A^b B^g, b + g <= 4, with a = root_a^2.
    They are built here once, A and B over ``z`` and ``w`` and the products
    over ``root_a`` and ``t``, each reduced whole by NumPy's pairwise sum;
    every term is >= 0, so nothing cancels, and each ``total`` is then a
    Horner form in s with no pass over the pilot.  For logistic, each
    ``total`` writes (root_a cosh cosh)^2 over ``t`` block by block and
    multiplies the sum by the constant (4 sigma)^2 once.
    """
    if kind == "student_t7":

        def sums(z: np.ndarray, w: np.ndarray) -> None:
            zz, ww = z * z, w * w
            np.add(zz, ww, out=z)
            np.multiply(zz, ww, out=w)

        _by_block(sums, z, w)
        moments = [0.0] * 9  # M_0 .. M_8
        np.multiply(root_a, root_a, out=root_a)
        for g in range(5):
            if g:
                root_a *= w  # a B^g
            term = root_a
            for b in range(5 - g):
                if b:
                    term = np.multiply(term, z, out=t)  # a A^b B^g
                moments[b + 2 * g] += math.comb(4, g) * math.comb(4 - g, b) * float(np.sum(term))
        scale = math.exp(-2.0 * _T7_LOGNORM)

        def total(sigma: float) -> float:
            s = 1.0 / (7.0 * sigma * sigma)
            poly = 0.0
            for m in reversed(moments):
                poly = poly * s + m
            return scale * sigma * sigma * poly

        return total

    def total(sigma: float) -> float:
        h = 0.5 / sigma

        def kernel(out: np.ndarray, root_a: np.ndarray, z: np.ndarray, w: np.ndarray) -> None:
            np.cosh(np.multiply(z, h, out=out), out=out)
            c = np.multiply(w, h)
            out *= np.cosh(c, out=c)
            out *= root_a
            np.multiply(out, out, out=out)

        _by_block(kernel, t, root_a, z, w)
        # NumPy's pairwise sum: BLAS's dot splits its sum by thread count.
        return float(np.sum(t)) * (16.0 * sigma * sigma)

    return total


class McEstimate(_Value):
    """A Monte Carlo estimate with its per-sample variance and 95% CLT interval.

    ``sample_variance`` is the variance of one weight, so the CI half-width is
    1.96 sqrt(sample_variance / n).  ``tail_index`` is a Hill estimate of the
    weight tail; values at or below 2 flag distributions whose theoretical
    variance is infinite, in which case the interval is not trustworthy.
    """

    __slots__ = ("estimate", "sample_variance", "n", "ci95", "sigma", "tail_index", "heavy_tail")

    def __init__(self, estimate: float, sample_variance: float, n: int, ci95: tuple,
                 sigma: Optional[float] = None, tail_index: Optional[float] = None,
                 heavy_tail: bool = False) -> None:
        _set(self, "estimate", estimate)
        _set(self, "sample_variance", sample_variance)
        _set(self, "n", n)
        _set(self, "ci95", ci95)
        _set(self, "sigma", sigma)
        _set(self, "tail_index", tail_index)
        _set(self, "heavy_tail", heavy_tail)


class _Moments:
    """Chan's parallel mean/M2 accumulator; merge order does not change the result."""

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add_array(self, w: np.ndarray) -> None:
        n_b = w.size
        mean_b = float(np.mean(w))
        dev = w - mean_b
        dev *= dev
        m2_b = float(np.sum(dev))
        delta = mean_b - self.mean
        n = self.n + n_b
        self.mean += delta * n_b / n
        self.m2 += m2_b + delta * delta * self.n * n_b / n
        self.n = n

    def variance(self) -> float:
        return self.m2 / (self.n - 1) if self.n > 1 else 0.0


def _shard_sizes(n: int, shards: int) -> list:
    _check_estimator_sizes(n, shards)
    base = n // shards
    sizes = [base] * shards
    for i in range(n - base * shards):
        sizes[i] += 1
    return [s for s in sizes if s > 0]


def _worker_count(n_jobs: int) -> int:
    env = os.environ.get("HYPERSTAT_THREADS", "")
    try:
        cap = int(env) if env else (os.cpu_count() or 1)
    except ValueError:
        cap = 1
    return max(1, min(n_jobs, cap))


def _run_shards(jobs: list) -> list:
    """Evaluate per-shard jobs, possibly on worker threads.

    Results are collected in shard order, so the combined moments cannot
    depend on the worker count; HYPERSTAT_THREADS only changes wall time.
    """
    workers = _worker_count(len(jobs))
    if workers == 1:
        return [job() for job in jobs]
    from concurrent.futures import ThreadPoolExecutor  # loaded only when a pool starts

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(job) for job in jobs]
        return [f.result() for f in futures]


def _sharded(sample: Callable, kernel: Callable, n: int, shards: int, rng: RngStream) -> tuple:
    """(moments, per-shard weights) of ``kernel(out, *sample(size, rng.derive(i)))`` by blocks, per shard."""

    def draw(size: int, stream: RngStream) -> np.ndarray:
        inputs = sample(size, stream)
        weights = np.empty(size)
        _by_block(kernel, weights, *inputs)
        return weights

    sizes = _shard_sizes(n, shards)
    weights = _run_shards([partial(draw, size, rng.derive(i)) for i, size in enumerate(sizes)])
    acc = _Moments()
    for w in weights:
        acc.add_array(w)
    return acc, weights


def _f_and_logp(f: FGenerator, theta: LorentzParam, theta2: LorentzParam, pts: np.ndarray) -> tuple:
    """(f(log p'/p), log p) at the chart points ``pts``; the plug-in weight needs only the ratio."""
    return f.of_log_ratio(hb.log_ratio_chart(theta, theta2, pts)), hb.log_density_chart(theta, pts)


def _finalize(
    acc: _Moments,
    sigma: Optional[float] = None,
    tail_index: Optional[float] = None,
) -> McEstimate:
    est = acc.mean
    var = acc.variance()
    half = 1.96 * math.sqrt(var / acc.n)
    return McEstimate(
        estimate=est,
        sample_variance=var,
        n=acc.n,
        ci95=(est - half, est + half),
        sigma=sigma,
        tail_index=tail_index,
        heavy_tail=(tail_index is not None and tail_index <= 2.0),
    )


def estimate_plugin(
    f: FGenerator,
    theta: LorentzParam,
    theta2: LorentzParam,
    n: int,
    rng: RngStream,
    shards: int = 1,
) -> McEstimate:
    """Average f(p'/p) over draws from the first law.

    The weight f(p'/p) can have infinite variance for spread-out pairs; the
    estimate is still consistent but the reported interval is then optimistic.
    The ``tail_index`` field carries the diagnostic.
    """
    _check_estimator_pair(theta, theta2)

    def kernel(out: np.ndarray, pts: np.ndarray) -> None:
        out[:] = f.of_log_ratio(hb.log_ratio_chart(theta, theta2, pts))

    def sample(size: int, stream: RngStream) -> tuple:
        return (hyperboloid_sample(theta, size, stream),)

    acc, weights = _sharded(sample, kernel, n, shards, rng)
    pooled = weights[0] if len(weights) == 1 else np.concatenate(weights)
    return _finalize(acc, tail_index=_hill_tail_index(pooled))


def _hill_tail_index(w: np.ndarray) -> Optional[float]:
    # Hill estimator over the top 0.1% of the weights (at least 50 of them).
    k = max(50, w.size // 1000)
    if w.size <= k:
        return None
    top = np.sort(np.partition(w, -(k + 1))[-(k + 1):])
    if top[0] <= 0.0:
        return None
    logs = np.log(top[1:]) - math.log(top[0])
    mean = float(np.mean(logs))
    return 1.0 / mean if mean > 0.0 else None


def estimate_mc1(
    f: FGenerator,
    theta: LorentzParam,
    theta2: LorentzParam,
    proposal: Proposal,
    n: int,
    rng: RngStream,
    shards: int = 1,
) -> McEstimate:
    """Importance sampling from the product proposal p_sigma x p_sigma."""
    _check_estimator_pair(theta, theta2)

    def kernel(out: np.ndarray, xy: np.ndarray) -> None:
        # The importance weight f(p'/p) p / (p_sigma(x) p_sigma(y)).
        fv, logp = _f_and_logp(f, theta, theta2, xy)
        logp -= proposal.logpdf(xy[:, 0])
        logp -= proposal.logpdf(xy[:, 1])
        np.multiply(fv, np.exp(logp, out=logp), out=out)

    def sample(size: int, stream: RngStream) -> tuple:
        # One call for x then y: the stream of two calls of ``size`` draws each.
        return (proposal.sample(2 * size, stream.generator()).reshape(2, size).T,)

    return _finalize(_sharded(sample, kernel, n, shards, rng)[0], sigma=proposal.sigma)


_SIGMA_BRACKET = (0.05, 50.0)  # proposal scales the search considers


def optimize_sigma(
    f: FGenerator,
    theta: LorentzParam,
    theta2: LorentzParam,
    proposal_kind: str,
    n_pilot: int,
    rng: RngStream,
) -> float:
    """Proposal scale minimizing the pilot second moment of the IS weight.

    A single pilot sample is drawn at scale 1 and reused for every candidate
    sigma (common random numbers), so the objective is deterministic and
    Brent's bounded method applies; it searches log sigma on ``_SIGMA_BRACKET``,
    where the objective is close to a parabola near its minimum.  An
    evaluation is a closed form in sigma over pilot values computed once (see
    :func:`_pilot_objective`): for the t7 proposal a degree-8 polynomial over
    15 pilot moments, O(1) per evaluation after one moment pass, and for the
    logistic one a pass over the pilot with two cosh per point.
    """
    _check_estimator_pair(theta, theta2)
    base = Proposal(proposal_kind, 1.0)
    zw = base.sample(2 * n_pilot, rng.generator()).reshape(2, n_pilot).T
    fv, logp = np.empty(n_pilot), np.empty(n_pilot)

    def kernel(fv: np.ndarray, logp: np.ndarray, zw: np.ndarray) -> None:
        fv[:], logp[:] = _f_and_logp(f, theta, theta2, zw)

    _by_block(kernel, fv, logp, zw)
    objective = _pilot_objective(base, zw[:, 0], zw[:, 1], fv, logp)
    lo, hi = (math.log(sigma) for sigma in _SIGMA_BRACKET)
    return math.exp(brent_min(objective, lo, hi, 1e-7)[0])


def _pilot_objective(
    base: Proposal, z: np.ndarray, w: np.ndarray, fv: np.ndarray, logp: np.ndarray
) -> Callable[[float], float]:
    """log sigma -> mean over the pilot (z, w) ~ ``base`` of (f p)^2 / (p_sigma(z) p_sigma(w)).

    The summand is a(z, w) / (p_sigma(z) p_sigma(w)) with the sigma-free
    a = (f p)^2 / (p_1(z) p_1(w)).  Each term is built as the square of
    sqrt(a) / sqrt(p_sigma(z) p_sigma(w)), so it overflows where
    exp(log a - log p_sigma(z) - log p_sigma(w)) does, not where only a
    factor would; the mask drops the terms with a = 0, so none is 0 * inf.
    For the t7 proposal :func:`_pass_terms` sums the terms' polynomial
    coefficients over the pilot once, and an evaluation is then O(1).

    The four arrays are the objective's working set: sqrt(a) is written over
    ``fv``, and :func:`_pass_terms` writes its products or each pass's terms
    over ``fv`` and ``logp`` and may overwrite ``z`` and ``w``.  A pilot with
    a term a = 0 works on masked copies instead and leaves the arrays as they
    were.
    """
    n_pilot = z.size
    if not fv.all():  # most pilots have no term with a = 0, and then need neither mask nor copies
        mask = fv != 0.0
        z, w, fv, logp = z[mask], w[mask], fv[mask], logp[mask]

    def root_a_kernel(fv: np.ndarray, logp: np.ndarray, z: np.ndarray, w: np.ndarray) -> None:
        # exp(log a / 2), log a = 2 log|f| + 2 log p - log p_1(z) - log p_1(w)
        np.log(np.abs(fv, out=fv), out=fv)
        fv *= 2.0
        fv += np.multiply(logp, 2.0)
        fv -= base.logpdf(z)
        fv -= base.logpdf(w)
        fv *= 0.5
        np.exp(fv, out=fv)

    _by_block(root_a_kernel, fv, logp, z, w)
    total = _pass_terms(base.kind, fv, logp, z, w)

    def objective(log_sigma: float) -> float:
        return total(math.exp(log_sigma)) / n_pilot

    return objective


def _cos_sin(zeta: np.ndarray, out: np.ndarray) -> None:
    """Write cos(zeta) and sin(zeta) into the two rows of ``out`` from one tangent.

    With t = tan(zeta / 2) (zeta / 2 is exact) and q = 2 / (1 + t^2),
    cos zeta = q - 1 and sin zeta = t q.  NumPy's tan is vectorized where its
    cos and sin run in scalar libm on some builds, at ~10x the cost per value.
    Both values are within a few ulp(1) of the libm ones.
    """
    cos, sin = out
    np.multiply(zeta, 0.5, out=sin)
    np.tan(sin, out=sin)
    np.multiply(sin, sin, out=cos)
    cos += 1.0
    np.divide(2.0, cos, out=cos)
    sin *= cos
    cos -= 1.0


def estimate_mc2(
    f: FGenerator,
    theta: LorentzParam,
    theta2: LorentzParam,
    n: int,
    rng: RngStream,
    eps: float = 1e-4,
    shards: int = 1,
) -> McEstimate:
    """Polar change-of-variables estimator over uniform (r, angle) draws.

    r is drawn on (0, 1 - eps): the Jacobian r/(1-r^2)^2 blows up at r = 1
    faster than uniform sampling can resolve, while the integrand itself dies
    off exponentially there.  The resulting bias is below eps-level for cone
    parameters and is documented rather than corrected.
    """
    _check_estimator_pair(theta, theta2)
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")

    def kernel(out: np.ndarray, r: np.ndarray, zeta: np.ndarray) -> None:
        rr = r * r
        denom = np.subtract(1.0, rr)
        np.sqrt(denom, out=denom)
        xy = np.empty((2, r.size))
        _cos_sin(zeta, xy)
        for row in xy:
            row *= r
            row /= denom  # r (cos, sin)(zeta) / sqrt(1 - r^2)
        fv, logp = _f_and_logp(f, theta, theta2, xy.T)
        # log Jacobian: log 2 pi + log r - 2 log1p(-r^2)
        np.log1p(np.negative(rr, out=rr), out=rr)
        rr *= 2.0
        log_jac = np.log(r)
        log_jac += math.log(2.0 * math.pi)
        log_jac -= rr
        logp += log_jac
        np.multiply(fv, np.exp(logp, out=logp), out=out)

    def sample(size: int, stream: RngStream) -> tuple:
        gen = stream.generator()
        return gen.uniform(0.0, 1.0 - eps, size=size), gen.uniform(0.0, 2.0 * math.pi, size=size)

    return _finalize(_sharded(sample, kernel, n, shards, rng)[0])


_METHOD_KEYS = {"plugin": 11, "mc1-logistic": 12, "mc1-t7": 13, "mc2": 14}
_PILOT_KEY = 101


def estimate(
    f: FGenerator,
    theta: LorentzParam,
    theta2: LorentzParam,
    method: str,
    n: int,
    rng: RngStream,
    sigma: Optional[float] = None,
    eps: float = 1e-4,
    shards: int = 1,
    n_pilot: int = 200_000,
) -> McEstimate:
    """Estimate a divergence between two d = 2 hyperboloid laws by ``method``.

    ``method`` is one of "plugin", "mc1-logistic", "mc1-t7", "mc2".  For the
    MC1 methods the proposal scale is optimized on a pilot stream unless
    ``sigma`` is given explicitly.
    """
    if method not in _METHOD_KEYS:
        raise ValueError(f"unknown method {method!r}")
    _check_estimator_pair(theta, theta2)  # the dimension first, so d = 3 with n = 0 reports the dimension
    _check_estimator_sizes(n, shards)  # reject the sizes before a pilot is drawn
    est_rng = rng.derive(_METHOD_KEYS[method])
    if method == "plugin":
        return estimate_plugin(f, theta, theta2, n, est_rng, shards=shards)
    if method == "mc2":
        return estimate_mc2(f, theta, theta2, n, est_rng, eps=eps, shards=shards)
    kind = "logistic" if method == "mc1-logistic" else "student_t7"
    if sigma is None:
        sigma = optimize_sigma(f, theta, theta2, kind, n_pilot, rng.derive(_PILOT_KEY))
    return estimate_mc1(f, theta, theta2, Proposal(kind, sigma), n, est_rng, shards=shards)
