"""Finite mixtures of half-plane or hyperboloid components, fitted by EM.

A mixture names its component family; everything EM uses of that family
(sufficient statistics, the pairing of a parameter with them, cumulant,
reference density, inverse moment map, sampler) comes from the family's
:class:`hyperstat.expfam.Family` record, which the divergences and the MLE
read too.  Both families are exponential families,
log p(x) = <theta~, t(x)> - F(theta) + log h(x), so the EM fit is Bregman
soft clustering: the E-step sets responsibilities from the log-joint, and the
M-step averages sufficient statistics under the responsibilities and maps the
averages back through the inverse moment map, the conjugate's gradient.

The E-step is a linear form in statistics built once per fit: the statistic
columns t_i(x), a C-ordered (d + 1, n) array, and the carrier log h(x), read
off the family's own density at a fixed reference parameter (the apex or the
identity) as log p_ref - <ref~, t> + F(ref), so no family writes a carrier
formula.  A component's row of the log-joint is then
log w - F(theta) + log h(x) + sum_i theta~_i t_i(x), d + 1 multiply-adds with
no density call and no BLAS.  Every array the E-step and the M-step's
reductions touch is component-major, a C-ordered (k, n) array, so each
reduction over the points runs along a contiguous row.  The E-step normalizes
over the component axis with one exponential: e = exp(a - max) gives the
log-sum-exp log1p(rest) + max, in the arithmetic of SciPy's ``logsumexp``
(for fewer than 8 components the two agree bit for bit), and the
responsibilities e / (1 + rest).  A log-joint with a tied, infinite or nan
column max takes SciPy's general formula and exp(a - lse) throughout.
``mixture_log_density_array`` evaluates the same form, so a fit's reported
log-likelihood is the returned mixture's to the bit.

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
``_TOL`` in average log-likelihood or reaches a fixed point
(``EmTrace.converged``), or at the cap, and returns the last accepted point:
``loglik[-1]`` is the returned mixture's average log-likelihood and
``effective_counts`` its responsibilities summed over the points.

Initialization draws greedy k-means++ seeds in sufficient-statistic space
(Arthur & Vassilvitskii 2007): each seed after the first is the best of
2 + floor(ln k) draws from the D^2 distribution, the one that lowers the
potential sum min d^2 the most, so a well-separated component is seldom left
without a seed.  The nearest-seed assignment, hardened, gives the starting
responsibilities; a fit that collapses a component restarts from fresh seeds,
up to ``_RETRIES`` times.  A fixed responsibility matrix, (n, k) like the
points, can be injected instead, which makes the whole fit a deterministic
function of the data (used by the equivariance tests).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import expfam
from . import hyperboloid as hb
from . import poincare as pc
from .geometry import ConeError, DualDomainError, FitError, _check_components, _set, _Value
from .sampling import RngStream

__all__ = ["Mixture", "EmTrace", "mixture_log_density_array", "mixture_sample", "em_fit"]


_FAMILIES = {"poincare": pc._FAMILY, "hyperboloid": hb._FAMILY}
_MAX_ITER = 200
_TOL = 1e-9  # stop once a SQUAREM cycle gains less than this in average log-likelihood
_RETRIES = 5  # greedy k-means++ initializations tried before FitError
_JUMP_TRIES = 3  # extrapolated jumps tried per SQUAREM cycle before a plain map


class Mixture(_Value):
    """A finite mixture: nonnegative weights summing to one over cone parameters."""

    __slots__ = ("family", "weights", "components")

    def __init__(self, family: str, weights: tuple, components: tuple) -> None:
        _set(self, "family", family)  # "poincare" | "hyperboloid"
        _set(self, "weights", weights)
        _set(self, "components", components)
        if family not in _FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        w = np.asarray(weights, dtype=float)
        if np.any(w < 0.0) or not abs(float(w.sum()) - 1.0) <= 1e-12:
            raise ValueError(f"weights must be nonnegative and sum to 1, got {w}")
        if len(weights) != len(components):
            raise ValueError("one weight per component required")

    @property
    def k(self) -> int:
        return len(self.components)


class EmTrace:
    """The fit's history and the returned mixture's effective counts.

    ``loglik`` holds the average log-likelihood of each accepted point, in
    order; ``loglik[-1]`` belongs to the returned mixture, and
    ``effective_counts`` are its responsibilities summed over the points.
    ``iterations`` counts the E-steps evaluated, rejected jumps included
    (capped by ``_MAX_ITER``); ``rejected_jumps`` counts the extrapolated
    jumps rejected, with or without an E-step.  ``converged`` is True when
    the fit stopped because a SQUAREM cycle gained less than ``_TOL`` or the
    map reached a fixed point, and False when it stopped at the cap.

    The one mutable record: it compares and prints as a value does, but
    has no hash.
    """

    __slots__ = ("loglik", "effective_counts", "iterations", "restarts", "rejected_jumps", "converged")
    _fields = _Value._fields
    __eq__ = _Value.__eq__
    __hash__ = None
    __repr__ = _Value.__repr__
    __reduce__ = _Value.__reduce__

    def __init__(self, loglik: Optional[list] = None, effective_counts: Optional[np.ndarray] = None,
                 iterations: int = 0, restarts: int = 0, rejected_jumps: int = 0,
                 converged: bool = False) -> None:
        self.loglik = [] if loglik is None else loglik
        self.effective_counts = effective_counts
        self.iterations = iterations
        self.restarts = restarts
        self.rejected_jumps = rejected_jumps
        self.converged = converged


def mixture_log_density_array(m: Mixture, pts: np.ndarray) -> np.ndarray:
    """Log of the mixture density at each row of an (n, d) point array.

    Raises ValueError for a point outside the family's sample space.
    """
    fam = _FAMILIES[m.family]
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    logs = _log_joint(fam, *_linear_basis(fam, pts, fam.stats(pts)), m.weights, m.components)
    return _normalize(logs)


def _linear_basis(fam: expfam.Family, pts: np.ndarray, stats: np.ndarray):
    # The (d + 1, n) statistic columns and the carrier
    # log h = log p_ref - <ref~, t> + F(ref).
    cols = np.ascontiguousarray(stats.T)
    ref = fam.reference(cols.shape[0] - 1)
    v = fam.vector(ref)
    carrier = fam.log_density(ref, pts) + expfam.cumulant(fam, v)
    for coef, col in zip(fam.paired(v), cols):
        carrier -= coef * col
    return cols, carrier


def _log_joint(fam: expfam.Family, cols: np.ndarray, carrier: np.ndarray, weights, components) -> np.ndarray:
    # (k, n): log w_j - F(theta_j) + log h(x) + <theta~_j, t(x)>, one row per
    # component, written column by column: d + 1 multiply-adds, no BLAS.
    vecs = [fam.vector(c) for c in components]
    paired = np.array([fam.paired(v) for v in vecs])
    if paired.shape[1] != cols.shape[0]:
        raise ValueError(
            f"points have dimension {cols.shape[0] - 1}, components have d={paired.shape[1] - 1}"
        )
    log_w = np.log(weights)
    out = np.empty((len(vecs), carrier.size))
    term = np.empty_like(carrier)
    for j, v in enumerate(vecs):
        # Row by row with scalar coefficients: numpy's (k, 1) x (n,)
        # broadcast took 2.6 times as long as k scalar passes.
        row = out[j]
        np.add(carrier, log_w[j] - expfam.cumulant(fam, v), out=row)
        for coef, col in zip(paired[j].tolist(), cols):
            row += np.multiply(col, coef, out=term)
    return out


def _normalize(a: np.ndarray) -> np.ndarray:
    # Overwrites the (k, n) log-joint a with the responsibilities and returns
    # the per-point log-sum-exp in SciPy's arithmetic: the terms equal to the
    # column max are taken out of the sum and counted, and the result is
    # log1p(rest / ties) + log(ties) + max; +-inf and nan columns come out as
    # the direct formula gives them.  The rows are added in order, as SciPy's
    # reduction adds a point's k < 8 terms in its (n, k) layout, so the two
    # agree bit for bit; for k >= 8 that reduction sums pairwise and the last
    # bit can differ.  Responsibilities are e / (ties + rest) in every column
    # with a finite max, and exp(a - lse) only where the max is +-inf or nan.
    top = a.max(axis=0)
    is_top = a == top
    finite = np.isfinite(top)
    if finite.all() and np.count_nonzero(is_top) == a.shape[1]:
        # Every max is finite, so each column holds at least one term equal
        # to it, and a count of n means exactly one.  Every e = exp(a - top)
        # is then finite and in [0, 1], and 1 exactly at the max, so zeroing
        # the max terms leaves rest, and adding them back restores e; with
        # ties = 1, log1p(rest / 1) + log(1) is log1p(rest) to the bit.  The
        # responsibilities e / (1 + rest) take the one exponential.
        a -= top
        np.exp(a, out=a)
        a *= ~is_top
        rest = a.sum(axis=0)
        a += is_top
        a /= 1.0 + rest
        return np.log1p(rest) + top
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.where(is_top, 0.0, np.exp(a - top))
        rest = e.sum(axis=0)
        ties = is_top.sum(axis=0)
        lse = np.log1p(rest / ties) + np.log(ties) + top
        e += is_top
        e /= ties + rest
        a -= lse
        np.exp(a, out=a)
    a[:, finite] = e[:, finite]
    return lse


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
    cols: np.ndarray, k: int, gen: np.random.Generator
) -> np.ndarray:
    # Greedy k-means++ seeds among the (d + 1, n) statistic columns' points
    # (each the best of 2 + floor(ln k) D^2 draws), and the nearest-seed
    # assignment as hard (k, n) responsibilities.  A squared distance is summed
    # column by column, which adds a row's terms in the order
    # np.sum(..., axis=1) adds them on the (n, d + 1) rows.
    n = cols.shape[1]
    dists = np.empty((k, n))
    cands = np.empty((2 + int(math.log(k)), n))

    def dist_to(i, out):
        np.square(cols[0] - cols[0, i], out=out)
        for col in cols[1:]:
            out += np.square(col - col[i])

    dist_to(gen.integers(n), dists[0])
    d2 = dists[0].copy()
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            dist_to(gen.integers(n), dists[j])
            continue
        for i, out in zip(gen.choice(n, size=len(cands), p=d2 / total), cands):
            dist_to(i, out)
        dists[j] = min(cands, key=lambda c: float(np.minimum(d2, c).sum()))
        np.minimum(d2, dists[j], out=d2)
    resp = np.zeros((k, n))
    resp[np.argmin(dists, axis=0), np.arange(n)] = 1.0
    return resp


def _norm(a: np.ndarray) -> float:
    # The Frobenius norm by NumPy's pairwise sum: np.linalg.norm calls BLAS,
    # which splits the sum of squares by thread count.
    return math.sqrt(float(np.sum(a * a)))


def _moments(stats: np.ndarray, resp: np.ndarray):
    # What the M-step reads of the (k, n) responsibilities: effective counts
    # and statistic sums, both linear in resp.
    return resp.sum(axis=1), resp @ stats


def _m_step(fam: expfam.Family, counts: np.ndarray, sums: np.ndarray):
    if np.any(counts < 2.0):
        raise FitError(f"component collapse: effective counts {counts}")
    weights = counts / counts.sum()
    etas = sums / counts[:, None]
    return weights, tuple(fam.from_moment(etas[j]) for j in range(counts.size))


def _squarem(fam: expfam.Family, stats: np.ndarray, basis: tuple, resp: np.ndarray, trace: EmTrace):
    # EM from the starting (k, n) responsibilities in SQUAREM cycles; returns
    # the last accepted point (weights, components) and its effective counts.
    def e_step(x):
        # The average log-likelihood at x and the (k, n) responsibilities,
        # computed in place in the log-joint's array.
        trace.iterations += 1
        logs = _log_joint(fam, *basis, *x)
        return float(np.mean(_normalize(logs))), logs

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
        if not step.any():
            trace.converged = True  # a fixed point: the next map would repeat x
            break
        if trace.iterations >= _MAX_ITER:
            break
        resp1, mom1 = resp, mom
        x, ll, resp, mom = em_map(mom1)
        if trace.iterations >= _MAX_ITER:
            break
        ll2, mom2 = ll, mom
        # The step length comes from the responsibilities, which the group
        # actions leave unchanged, so the jump commutes with them.  At
        # alpha = -1 the jump is the plain map from x2.
        curve = _norm((resp - resp1) - step)
        alpha = min(-_norm(step) / curve, -1.0) if curve > 0.0 else -1.0
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
            trace.converged = True
            break
    return x, mom[0]


def em_fit(
    points,
    k: int,
    family: str,
    rng: RngStream,
    init_resp: Optional[np.ndarray] = None,
):
    """Fit a k-component mixture by EM; returns (Mixture, EmTrace).

    Raises :class:`FitError` when every restart collapses a component (an
    effective count below 2 or a degenerate moment average).  A k = 1 fit
    makes one attempt: it always starts from all-ones responsibilities, so
    a restart would repeat the same computation.
    """
    _check_components(k)
    fam = _FAMILIES.get(family)
    if fam is None:
        raise ValueError(f"unknown family {family!r}")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    stats = fam.stats(pts)  # rejects points outside the sample space first
    # k-means++ sums n squared distances, each <= 4 (d + 1) max|t|^2.
    top = max(float(np.max(stats, initial=0.0)), -float(np.min(stats, initial=0.0)))
    if not 4.0 * stats.size * top * top < math.inf:
        raise ValueError(f"squared distances of sufficient statistics overflow float64 (max |t| {top:.3g})")
    n = pts.shape[0]
    if n < 2 * k:
        raise FitError(f"EM failed: need at least 2k={2 * k} points, got {n}")
    basis = _linear_basis(fam, pts, stats)

    attempts = 1 if init_resp is not None or k == 1 else _RETRIES
    last_err: Optional[Exception] = None
    for attempt in range(attempts):
        trace = EmTrace(restarts=attempt)
        if init_resp is not None:
            resp = np.asarray(init_resp, dtype=float)
            if resp.shape != (n, k):
                raise ValueError(f"init_resp must have shape {(n, k)}, got {resp.shape}")
            resp = np.ascontiguousarray(resp.T)
        else:
            resp = _kmeanspp_responsibilities(
                basis[0], k, rng.derive(1000 + attempt).generator()
            )
        try:
            (weights, components), trace.effective_counts = _squarem(fam, stats, basis, resp, trace)
            mixture = Mixture(
                family=family, weights=tuple(weights), components=components
            )
            return mixture, trace
        except (FitError, DualDomainError) as err:
            last_err = err
            if init_resp is not None:
                raise FitError(str(err)) from err
    tries = "1 initialization" if attempts == 1 else f"{attempts} initializations"
    raise FitError(f"EM failed after {tries}: {last_err}") from last_err
