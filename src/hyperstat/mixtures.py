"""Finite mixtures of half-plane or hyperboloid components, fitted by EM.

A mixture names its component family; everything EM uses of that family (log
density, sufficient statistics, inverse moment map, sampler) comes from the
family's :class:`hyperstat.expfam.Family` record, which the divergences and
the MLE read too.  Both families are exponential families, so the EM fit is
Bregman soft clustering: the E-step sets responsibilities from component log
densities (the carrier term cancels inside a family), and the M-step averages
sufficient statistics under the responsibilities and maps the averages back
through the inverse moment map.  The E-step normalizes with the module's own
log-sum-exp over the component axis of a (k, n) log-joint, in the arithmetic
of SciPy's ``logsumexp`` (terms tied at the max taken out of the sum and
counted, the same summation order): for fewer than 8 components the two agree
bit for bit, and the module's costs a fraction of the library call.

The EM map is accelerated by SQUAREM (Varadhan & Roland 2008), which keeps
its fixed points.  A cycle starts from an evaluated point x0 with
responsibilities R0, takes two plain maps (R1, R2), and jumps to
M(R0 - 2 alpha r + alpha^2 v) with r = R1 - R0, v = R2 - 2 R1 + R0 and
alpha = min(-|r|/|v|, -1).  The M-step's counts and statistic sums are linear
in R, so the jump extrapolates those and makes no pass over the points.  The
group actions leave responsibilities unchanged and act linearly on the
statistics, so alpha is invariant and the fit stays equivariant.  A jump is
rejected when a count falls below 2, the moment leaves the dual domain or maps
to a parameter on the numerical cone boundary, or its log-likelihood is
non-finite or below the second map's; alpha is then halved toward -1 (the
plain map from x2) a few times, and after the last rejection the plain map is
taken.  The accepted point's E-step starts the next cycle, so the recorded
average log-likelihood is nondecreasing.

``EmTrace.iterations`` counts the E-steps evaluated, rejected jumps included,
and ``_MAX_ITER`` caps them.  The fit stops when a cycle gains less than
``_TOL`` in average log-likelihood, and returns the last accepted point:
``loglik[-1]`` is the returned mixture's average log-likelihood and
``effective_counts`` its responsibilities' column sums.

Initialization draws k-means++ style seeds in sufficient-statistic space and
hardens the nearest-seed assignment into starting responsibilities.  A fixed
responsibility matrix can be injected instead, which makes the whole fit a
deterministic function of the data (used by the equivariance tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import expfam
from . import hyperboloid as hb
from . import poincare as pc
from .geometry import ConeError, DualDomainError
from .sampling import RngStream

__all__ = ["Mixture", "EmTrace", "FitError", "mixture_log_density", "mixture_sample", "em_fit"]


class FitError(RuntimeError):
    """EM failed to produce a non-degenerate mixture within the retry budget."""


_FAMILIES = {"poincare": pc._FAMILY, "hyperboloid": hb._FAMILY}
_MAX_ITER = 200
_TOL = 1e-9  # stop once a SQUAREM cycle gains less than this in average log-likelihood
_RETRIES = 5  # k-means++ initializations tried before FitError
_JUMP_TRIES = 3  # extrapolated jumps tried per SQUAREM cycle before a plain map


@dataclass(frozen=True)
class Mixture:
    """A finite mixture: nonnegative weights summing to one over cone parameters."""

    family: str  # "poincare" | "hyperboloid"
    weights: tuple
    components: tuple

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < 0.0) or abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError(f"weights must be nonnegative and sum to 1, got {w}")
        if len(self.weights) != len(self.components):
            raise ValueError("one weight per component required")

    @property
    def k(self) -> int:
        return len(self.components)


@dataclass
class EmTrace:
    """The fit's history and the returned mixture's effective counts.

    ``loglik`` holds the average log-likelihood of each accepted point, in
    order; ``loglik[-1]`` belongs to the returned mixture, and
    ``effective_counts`` are its responsibilities' column sums.
    ``iterations`` counts the E-steps evaluated, rejected jumps included
    (capped by ``_MAX_ITER``); ``rejected_jumps`` counts the extrapolated
    jumps rejected, with or without an E-step.  The fit stops when a SQUAREM
    cycle gains less than ``_TOL``.
    """

    loglik: list = field(default_factory=list)
    effective_counts: Optional[np.ndarray] = None
    iterations: int = 0
    restarts: int = 0
    rejected_jumps: int = 0


def mixture_log_density(m: Mixture, point) -> float:
    """Log of the mixture density at one point (log-sum-exp over components)."""
    if hasattr(point, "as_complex"):
        row = (point.x, point.y)
    elif hasattr(point, "coords"):
        row = point.coords
    else:
        row = point
    return float(mixture_log_density_array(m, np.atleast_2d(np.asarray(row, float)))[0])


def mixture_log_density_array(m: Mixture, pts: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return _logsumexp(_log_joint(_FAMILIES[m.family], m.weights, m.components, pts))


def _log_joint(fam: expfam.Family, weights, components, pts: np.ndarray) -> np.ndarray:
    # (k, n): log weight plus component log density, one row per component.
    return np.stack([fam.log_density(c, pts) for c in components]) + np.log(weights)[:, None]


def _logsumexp(a: np.ndarray) -> np.ndarray:
    # log sum_j exp(a[j]) per column of a (k, n) array, in SciPy's
    # arithmetic: the terms equal to the column max are taken out of the sum
    # and counted, and the result is log1p(rest / ties) + log(ties) + max;
    # +-inf and nan columns come out as the direct formula gives them.  The
    # rows are added in order, as numpy adds a point's k < 8 terms in the
    # (n, k) layout SciPy is given, so the two agree bit for bit; for k >= 8
    # numpy sums that layout pairwise and the last bit can differ.
    top = a.max(axis=0)
    is_top = a == top
    with np.errstate(divide="ignore", invalid="ignore"):
        rest = np.where(is_top, 0.0, np.exp(a - top)).sum(axis=0)
        ties = is_top.sum(axis=0)
        return np.log1p(rest / ties) + np.log(ties) + top


def mixture_sample(
    m: Mixture, n: int, rng: RngStream, return_labels: bool = False
):
    """Ancestral sampling: a categorical component index, then the component law."""
    gen = rng.derive(0).generator()
    labels = gen.choice(m.k, size=n, p=np.asarray(m.weights, dtype=float))
    out = np.empty((n, 2))
    for j, comp in enumerate(m.components):
        idx = np.nonzero(labels == j)[0]
        if idx.size:
            out[idx] = _FAMILIES[m.family].sample(comp, idx.size, rng.derive(j + 1))
    if return_labels:
        return out, labels
    return out


def _kmeanspp_responsibilities(
    stats: np.ndarray, k: int, gen: np.random.Generator
) -> np.ndarray:
    n = stats.shape[0]
    centers = [stats[gen.integers(n)]]
    d2 = np.sum((stats - centers[0]) ** 2, axis=1)
    for _ in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            centers.append(stats[gen.integers(n)])
            continue
        pick = gen.choice(n, p=d2 / total)
        centers.append(stats[pick])
        d2 = np.minimum(d2, np.sum((stats - centers[-1]) ** 2, axis=1))
    dists = np.stack(
        [np.sum((stats - c) ** 2, axis=1) for c in centers], axis=1
    )
    resp = np.zeros((n, k))
    resp[np.arange(n), np.argmin(dists, axis=1)] = 1.0
    return resp


def _moments(stats: np.ndarray, resp: np.ndarray):
    # What the M-step reads of the responsibilities: effective counts and
    # statistic sums, both linear in resp.
    return resp.sum(axis=0), resp.T @ stats


def _m_step(fam: expfam.Family, counts: np.ndarray, sums: np.ndarray):
    if np.any(counts < 2.0):
        raise FitError(f"component collapse: effective counts {counts}")
    weights = counts / counts.sum()
    etas = sums / counts[:, None]
    return weights, tuple(fam.from_moment(etas[j]) for j in range(counts.size))


def _squarem(fam: expfam.Family, stats: np.ndarray, pts: np.ndarray, resp: np.ndarray, trace: EmTrace):
    # EM from the starting responsibilities in SQUAREM cycles; returns the
    # last accepted point (weights, components) and its responsibilities.
    def e_step(x):
        # The average log-likelihood at x and the (n, k) responsibilities.
        trace.iterations += 1
        logs = _log_joint(fam, *x, pts)
        per_point = _logsumexp(logs)
        # C-ordered (n, k): on the transposed view the M-step's sum and
        # product would add in another order and move the last bits.
        return float(np.mean(per_point)), np.ascontiguousarray(np.exp(logs - per_point).T)

    def em_map(mom):
        x = _m_step(fam, *mom)
        ll, r = e_step(x)
        trace.loglik.append(ll)
        return x, ll, r, _moments(stats, r)

    x, ll, resp, mom = em_map(_moments(stats, resp))
    while trace.iterations < _MAX_ITER:
        ll0, resp0, mom0 = ll, resp, mom
        x, ll, resp, mom = em_map(mom0)
        step = resp - resp0
        if trace.iterations >= _MAX_ITER or not step.any():
            break  # the cap, or a fixed point: the next map would repeat x
        resp1, mom1 = resp, mom
        x, ll, resp, mom = em_map(mom1)
        if trace.iterations >= _MAX_ITER:
            break
        ll2, mom2 = ll, mom
        # The step length comes from the responsibilities, which the group
        # actions leave unchanged, so the jump commutes with them.  At
        # alpha = -1 the jump is the plain map from x2.
        curve = np.linalg.norm((resp - resp1) - step)
        alpha = min(-np.linalg.norm(step) / curve, -1.0) if curve > 0.0 else -1.0
        jumped = False
        for _ in range(_JUMP_TRIES):
            if alpha == -1.0 or trace.iterations >= _MAX_ITER:
                break
            # M(R0 - 2 alpha r + alpha^2 v), through the moments, linear in R.
            jump = tuple(
                m0 - 2.0 * alpha * (m1 - m0) + alpha * alpha * ((m2 - m1) - (m1 - m0))
                for m0, m1, m2 in zip(mom0, mom1, mom2)
            )
            try:
                xj = _m_step(fam, *jump)
            except (FitError, DualDomainError, ConeError):
                pass
            else:
                llj, rj = e_step(xj)
                if math.isfinite(llj) and llj >= ll2:
                    x, ll, resp, mom = xj, llj, rj, _moments(stats, rj)
                    trace.loglik.append(ll)
                    jumped = True
                    break
            trace.rejected_jumps += 1
            alpha = 0.5 * (alpha - 1.0)
        if not jumped:
            if trace.iterations >= _MAX_ITER:
                break
            x, ll, resp, mom = em_map(mom2)
        if ll - ll0 < _TOL:
            break
    return x, resp


def em_fit(
    points,
    k: int,
    family: str,
    rng: RngStream,
    init_resp: Optional[np.ndarray] = None,
):
    """Fit a k-component mixture by EM; returns (Mixture, EmTrace).

    Raises :class:`FitError` when every restart collapses a component (an
    effective count below 2 or a degenerate moment average).
    """
    if k < 1:
        raise ValueError(f"a mixture needs k >= 1 components, got {k}")
    fam = _FAMILIES.get(family)
    if fam is None:
        raise ValueError(f"unknown family {family!r}")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    if n < 2 * k:
        raise FitError(f"need at least 2k={2 * k} points, got {n}")
    stats = fam.stats(pts)

    attempts = 1 if init_resp is not None else _RETRIES
    last_err: Optional[Exception] = None
    for attempt in range(attempts):
        trace = EmTrace(restarts=attempt)
        if init_resp is not None:
            resp = np.asarray(init_resp, dtype=float)
            if resp.shape != (n, k):
                raise ValueError(f"init_resp must have shape {(n, k)}, got {resp.shape}")
        else:
            resp = _kmeanspp_responsibilities(
                stats, k, rng.derive(1000 + attempt).generator()
            )
        try:
            (weights, components), resp = _squarem(fam, stats, pts, resp, trace)
            trace.effective_counts = resp.sum(axis=0)
            mixture = Mixture(
                family=family, weights=tuple(weights), components=components
            )
            return mixture, trace
        except (FitError, DualDomainError) as err:
            last_err = err
            if init_resp is not None:
                raise FitError(str(err)) from err
    raise FitError(
        f"EM failed after {attempts} initializations: {last_err}"
    ) from last_err
