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
import tracemalloc

import numpy as np
from scipy import integrate

from scipy.special import logsumexp

from hyperstat import hyperboloid as hb
from hyperstat import poincare as pc
from hyperstat.geometry import DualDomainError, HyperboloidPoint, LorentzParam, Mobius, Moment2, SpdParam2
from hyperstat.mixtures import Mixture
from hyperstat.sampling import hyperboloid_sample

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


def concentration_probe(chart_point, t: float, n: int, rng) -> np.ndarray:
    """Mean chart point of n draws from the law with parameter t * lift(chart_point).

    As t grows the law concentrates at ``chart_point``; the returned mean
    converges to it.
    """
    if not t > 0.0:
        raise ValueError(f"need t > 0, got {t}")
    return hyperboloid_sample(LorentzParam(t * HyperboloidPoint(chart_point).lift()), n, rng).mean(axis=0)


# ---------------------------------------------------------------------------
# Inverse moment maps written out per family (the library derives both from
# the conjugate's radial function)
# ---------------------------------------------------------------------------


def ref_grad_conjugate(eta: Moment2) -> SpdParam2:
    """Half-plane: theta = -(1/2 + D) eta^-1 with D (sqrt(det eta) - 1) = 1/2."""
    det = eta.det()
    root = math.sqrt(det)
    if root <= 1.0:
        raise DualDomainError(f"moment parameter has det {det:.6g} <= 1")
    coeff = -(0.5 + 0.5 / (root - 1.0))
    return SpdParam2(coeff * (eta.m22 / det), coeff * (-eta.m12 / det), coeff * (eta.m11 / det))


def ref_mle_from_moment(eta: np.ndarray, d: int) -> LorentzParam:
    """Hyperboloid: theta = -(t/m) G eta with -F'(t) = m = |eta|, t = 1/(m - 1) at d = 2, brentq at d >= 3."""
    from scipy.optimize import brentq

    eta = np.asarray(eta, dtype=float)
    m = math.sqrt(max(float(eta[0] * eta[0] - eta[1:] @ eta[1:]), 0.0))
    if not (eta[0] < 0.0 and m > 1.0 + 1e-13):
        raise DualDomainError(f"moment vector {eta} has Minkowski norm {m} <= 1 + 1e-13")
    if d == 2:
        t = 1.0 / (m - 1.0)
    else:
        lo, hi = 1e-10, 1.0
        while -hb._fprime(d, hi) > m:
            lo, hi = hi, 2.0 * hi
        t = float(brentq(lambda s: -hb._fprime(d, s) - m, lo, hi, xtol=1e-14, rtol=1e-14))
    g_eta = eta.copy()
    g_eta[1:] = -g_eta[1:]
    return LorentzParam(-(t / m) * g_eta)


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


def ref_kmeanspp_responsibilities(stats: np.ndarray, k: int, gen: np.random.Generator) -> np.ndarray:
    """k-means++ hard responsibilities on the (n, d + 1) statistic rows, whole-array.

    Every squared distance is an np.sum over a row; the k distance arrays are
    computed afresh for the nearest-seed assignment.
    """
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
    dists = np.stack([np.sum((stats - c) ** 2, axis=1) for c in centers])
    resp = np.zeros((k, n))
    resp[np.argmin(dists, axis=0), np.arange(n)] = 1.0
    return resp


def traced_peak(fn) -> int:
    """Peak bytes allocated while ``fn()`` runs, as tracemalloc counts them.

    NumPy reports its array buffers to tracemalloc, so this is the call's
    working set of arrays.  ``fn`` runs once untraced first, so one-time
    allocations (imports, caches) are not counted.
    """
    fn()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


# ---------------------------------------------------------------------------
# SL(2,R) helpers as NumPy matrix products (the library multiplies floats)
# ---------------------------------------------------------------------------


def _rot(t: float) -> np.ndarray:
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


def ref_random_mobius(rng: np.random.Generator) -> Mobius:
    """rot(t1) @ diag(s, 1/s) @ rot(t2), drawing log s, t1 and t2 in that order."""
    s = math.exp(rng.uniform(-1.0, 1.0))
    m = _rot(rng.uniform(0, 2 * math.pi)) @ np.diag([s, 1.0 / s]) @ _rot(rng.uniform(0, 2 * math.pi))
    return Mobius(float(m[0, 0]), float(m[0, 1]), float(m[1, 0]), float(m[1, 1]))


def ref_mobius_act_param(g: Mobius, theta: SpdParam2) -> SpdParam2:
    """g^{-T} theta g^{-1} as a matrix product, with g^{-1} the adjugate (det g = 1)."""
    ginv = np.array([[g.g22, -g.g12], [-g.g21, g.g11]])
    m = ginv.T @ theta.as_matrix() @ ginv
    return SpdParam2(float(m[0, 0]), 0.5 * float(m[0, 1] + m[1, 0]), float(m[1, 1]))


# ---------------------------------------------------------------------------
# Whole-array Monte Carlo weights (the formulas the block kernels replaced)
# ---------------------------------------------------------------------------
#
# Each function evaluates one shard's weights over the whole array at once,
# making the same generator calls and the same IEEE operations in the same
# order as the library's block kernels, so the tests compare them with ==.
# The weight functions take ``f_and_logp``: with ``einsum_f_and_logp`` they
# give the two-density form of the log ratio, which the tests hold within
# rounding of the fused one.


def _ref_lift_pairing(vec: np.ndarray, pts: np.ndarray) -> tuple:
    # (x0, [vec, lift(x)]): |x|^2 and the spatial product summed column by column.
    cols = np.atleast_2d(np.asarray(pts, dtype=float)).T
    x0 = np.sqrt(1.0 + sum(c * c for c in cols))
    return x0, vec[0] * x0 - sum(c * v for c, v in zip(cols, vec[1:]))


def ref_log_density_chart(theta: LorentzParam, pts: np.ndarray) -> np.ndarray:
    x0, pairing = _ref_lift_pairing(theta.vec, pts)
    return hb.log_normalizer_c(theta.d, theta.minkowski_norm()) - pairing - np.log(x0)


def ref_log_ratio_chart(theta: LorentzParam, theta2: LorentzParam, pts: np.ndarray) -> np.ndarray:
    """kappa - [theta2 - theta, lift(x)]: the log ratio without either density."""
    kappa = hb.log_normalizer_c(theta2.d, theta2.minkowski_norm()) - hb.log_normalizer_c(
        theta.d, theta.minkowski_norm()
    )
    return kappa - _ref_lift_pairing(theta2.vec - theta.vec, pts)[1]


def einsum_log_density_chart(theta: LorentzParam, pts: np.ndarray) -> np.ndarray:
    """The density with |x|^2 as a row-wise einsum and the spatial product as a matrix product.

    An oracle for the column-by-column forms (equal to rounding, not to the bit)."""
    pts = np.ascontiguousarray(np.atleast_2d(np.asarray(pts, dtype=float)))
    x0 = np.sqrt(1.0 + np.einsum("ij,ij->i", pts, pts))
    tv = theta.vec
    pairing = tv[0] * x0 - pts @ tv[1:]
    return hb.log_normalizer_c(theta.d, theta.minkowski_norm()) - pairing - np.log(x0)


_T7_LOGNORM = math.lgamma(4.0) - math.lgamma(3.5) - 0.5 * math.log(7.0 * math.pi)


def ref_logpdf(kind: str, sigma: float, x: np.ndarray) -> np.ndarray:
    z = np.asarray(x, dtype=float) / sigma
    if kind == "logistic":
        az = np.abs(z)
        return -az - 2.0 * np.log1p(np.exp(-az)) - math.log(sigma)
    return _T7_LOGNORM - 4.0 * np.log1p(z * z / 7.0) - math.log(sigma)


def ref_f_and_logp(f, theta: LorentzParam, theta2: LorentzParam, pts: np.ndarray) -> tuple:
    return f.of_log_ratio(ref_log_ratio_chart(theta, theta2, pts)), ref_log_density_chart(theta, pts)


def einsum_f_and_logp(f, theta: LorentzParam, theta2: LorentzParam, pts: np.ndarray) -> tuple:
    """The log ratio as the difference of two einsum-form densities: an oracle for ref_f_and_logp."""
    logp = einsum_log_density_chart(theta, pts)
    return f.of_log_ratio(einsum_log_density_chart(theta2, pts) - logp), logp


def ref_plugin_weights(
    f, theta: LorentzParam, theta2: LorentzParam, size: int, stream, f_and_logp=ref_f_and_logp
) -> np.ndarray:
    # hyperboloid_sample: s ~ GIG(1/2, 1, t^2) as 1 / wald, then s theta_1: + sqrt(s) z
    gen = stream.generator()
    t = theta.minkowski_norm()
    s = 1.0 / gen.wald(math.sqrt(t * t), t * t, size=size)
    z = gen.standard_normal((size, 2))
    pts = s[:, None] * theta.vec[1:][None, :] + np.sqrt(s)[:, None] * z
    return f_and_logp(f, theta, theta2, pts)[0]


def ref_proposal_sample(kind: str, sigma: float, n: int, gen: np.random.Generator) -> np.ndarray:
    if kind == "logistic":
        return gen.logistic(0.0, sigma, size=n)
    return sigma * gen.standard_t(7, size=n)


def ref_mc1_weights(
    f, theta, theta2, kind: str, sigma: float, size: int, stream, f_and_logp=ref_f_and_logp
) -> np.ndarray:
    gen = stream.generator()
    x = ref_proposal_sample(kind, sigma, size, gen)
    y = ref_proposal_sample(kind, sigma, size, gen)
    fv, logp = f_and_logp(f, theta, theta2, np.column_stack((x, y)))
    return fv * np.exp(logp - ref_logpdf(kind, sigma, x) - ref_logpdf(kind, sigma, y))


def _mc2_weights(f, theta, theta2, size: int, stream, eps, f_and_logp, cos_sin) -> np.ndarray:
    gen = stream.generator()
    r = gen.uniform(0.0, 1.0 - eps, size=size)
    zeta = gen.uniform(0.0, 2.0 * math.pi, size=size)
    denom = np.sqrt(1.0 - r * r)
    cos, sin = cos_sin(zeta)
    pts = np.column_stack((r * cos / denom, r * sin / denom))
    fv, logp = f_and_logp(f, theta, theta2, pts)
    log_jac = math.log(2.0 * math.pi) + np.log(r) - 2.0 * np.log1p(-(r * r))
    return fv * np.exp(logp + log_jac)


def ref_cos_sin(zeta: np.ndarray) -> tuple:
    """(cos, sin)(zeta) from t = tan(zeta / 2): (q - 1, t q) with q = 2 / (1 + t^2)."""
    t = np.tan(zeta * 0.5)
    q = 2.0 / (t * t + 1.0)
    return q - 1.0, t * q


def ref_mc2_weights(
    f, theta, theta2, size: int, stream, eps: float = 1e-4, f_and_logp=ref_f_and_logp
) -> np.ndarray:
    return _mc2_weights(f, theta, theta2, size, stream, eps, f_and_logp, ref_cos_sin)


def libm_mc2_weights(
    f, theta, theta2, size: int, stream, eps: float = 1e-4, f_and_logp=ref_f_and_logp
) -> np.ndarray:
    """The MC2 weights with the angle from np.cos and np.sin: an oracle for ref_mc2_weights."""
    def libm_cos_sin(zeta: np.ndarray) -> tuple:
        return np.cos(zeta), np.sin(zeta)

    return _mc2_weights(f, theta, theta2, size, stream, eps, f_and_logp, libm_cos_sin)


def ref_moments(weights: list) -> tuple:
    """(mean, variance) of the shards' weights by Chan's update, shard by shard."""
    n, mean, m2 = 0, 0.0, 0.0
    for w in weights:
        n_b = w.size
        mean_b = float(np.mean(w))
        m2_b = float(np.sum((w - mean_b) ** 2))
        delta = mean_b - mean
        total = n + n_b
        mean += delta * n_b / total
        m2 += m2_b + delta * delta * n * n_b / total
        n = total
    return mean, m2 / (n - 1) if n > 1 else 0.0


def ref_pilot(kind: str, f, theta, theta2, n_pilot: int, stream) -> tuple:
    """optimize_sigma's pilot: (z, w, f values, log p) from two draws of n_pilot."""
    gen = stream.generator()
    z = ref_proposal_sample(kind, 1.0, n_pilot, gen)
    w = ref_proposal_sample(kind, 1.0, n_pilot, gen)
    return (z, w, *ref_f_and_logp(f, theta, theta2, np.column_stack((z, w))))


def _pilot_root_a(kind: str, z, w, fv, logp) -> tuple:
    # the unmasked (z, w) and sqrt(a), a = (f p)^2 / (p_1(z) p_1(w))
    mask = fv != 0.0
    zm, wm = z[mask], w[mask]
    log_a = (
        2.0 * np.log(np.abs(fv[mask])) + 2.0 * logp[mask]
        - ref_logpdf(kind, 1.0, zm) - ref_logpdf(kind, 1.0, wm)
    )
    return zm, wm, np.exp(0.5 * log_a)


def ref_pilot_objective(kind: str, z, w, fv, logp):
    """log sigma -> the pilot mean of a / (p_sigma(z) p_sigma(w)), whole-array.

    student_t7: sigma^2 e^{-2C} times a Horner form in s = 1/(7 sigma^2) over
    the moments M_j of Q^4, each sum S_{b,g} = sum a A^b B^g reduced by
    NumPy's pairwise sum; logistic: (4 sigma)^2 times the pairwise sum of
    (sqrt(a) cosh cosh)^2."""
    zm, wm, root_a = _pilot_root_a(kind, z, w, fv, logp)
    if kind == "student_t7":
        zz, ww = zm * zm, wm * wm
        u, v = zz + ww, zz * ww
        moments = [0.0] * 9
        a_bg = root_a * root_a
        for g in range(5):
            if g:
                a_bg = a_bg * v
            term = a_bg
            for b in range(5 - g):
                if b:
                    term = term * u
                moments[b + 2 * g] += math.comb(4, g) * math.comb(4 - g, b) * float(np.sum(term))

    def objective(log_sigma: float) -> float:
        sigma = math.exp(log_sigma)
        if kind == "student_t7":
            s = 1.0 / (7.0 * sigma * sigma)
            poly = 0.0
            for m in reversed(moments):
                poly = poly * s + m
            return math.exp(-2.0 * _T7_LOGNORM) * sigma * sigma * poly / z.size
        h = 0.5 / sigma
        t = np.cosh(zm * h)
        t *= np.cosh(wm * h)
        t *= root_a
        return float(np.sum(t * t)) * (16.0 * sigma * sigma) / z.size

    return objective


def per_point_pilot_objective(kind: str, z, w, fv, logp):
    """The pilot mean as one pass over the pilot per sigma: an oracle for ref_pilot_objective.

    Each term is (sqrt(a) / sqrt(p_sigma(z) p_sigma(w)))^2, with
    1 / sqrt(p_sigma(z) p_sigma(w)) = sqrt(sigma e^{-C}) Q (student_t7) or
    4 sigma cosh cosh (logistic), reduced by NumPy's pairwise sum."""
    zm, wm, root_a = _pilot_root_a(kind, z, w, fv, logp)
    zz, ww = zm * zm, wm * wm
    u, v = zz + ww, zz * ww

    def objective(log_sigma: float) -> float:
        sigma = math.exp(log_sigma)
        if kind == "student_t7":
            s = 1.0 / (7.0 * sigma * sigma)
            k = math.sqrt(sigma * math.exp(-_T7_LOGNORM))
            q = s * v
            q += u
            q *= s * k
            q += k
            t = q * q
        else:
            h = 0.5 / sigma
            t = np.cosh(zm * h)
            t *= np.cosh(wm * h)
            t *= 4.0 * sigma
        t *= root_a
        return float(np.sum(t * t)) / z.size

    return objective
