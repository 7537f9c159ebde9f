"""Acceptance suite: end-to-end checks of the library's headline guarantees.

The Monte Carlo panel (criteria 3 and 4) runs once at a fixed stream and is
shared by the four panel tests.  Two facts about that panel, established by
quadrature truths and repeated-seed studies, matter when reading results:

* the plug-in estimator's weight has provably infinite variance on the pairs
  ((1,0,0),(4,3,2)), ((3,1,1),(4,3,2)) and ((4,1,1),(4,3,2)) (the shifted
  parameter 2 theta' - theta leaves the cone), so no fixed sample size brings
  it within a fixed window of a reference run's draw;
* the reference plug-in value for ((1,0,0),(3,1,1)) lies ~46 standard errors
  from the true total variation 0.4310683 (the three other estimators and
  direct quadrature agree on the truth), so that cell encodes a defect of the
  reference digits rather than a property of the estimator.

Those plug-in cells are asserted at the same tolerance as everything else and
are expected to fail; the remaining 36 cells pass robustly.
"""

import math
import time

import numpy as np
import pytest

from helpers import (
    central_gradient,
    central_hessian,
    central_third,
    concentration_probe,
    hyperboloid_cumulant_of_vec,
    hyperboloid_divergence_quad,
    poincare_cumulant_of_vec,
    poincare_divergence_quad,
)
from hyperstat import hyperboloid as hb
from hyperstat import poincare as pc
from hyperstat.geometry import (
    LorentzParam,
    Mobius,
    SpdParam2,
    lorentz_invariant,
    lorentz_random_element,
    mobius_act_param,
    param_h_to_l,
    poincare_invariant,
    random_lorentz_param,
    random_mobius,
    random_spd,
)
from hyperstat.mixtures import Mixture, em_fit, mixture_sample
from hyperstat.montecarlo import (
    FGenerator,
    Proposal,
    estimate_mc1,
    estimate_mc2,
    estimate_plugin,
    optimize_sigma,
)
from hyperstat.sampling import (
    GigParams,
    RngStream,
    gig_sample,
    hyperboloid_sample,
    poincare_sample,
)

EX_THETA = SpdParam2(4.0, 0.25, 0.5)
EX_THETA2 = SpdParam2(0.5, 0.25, 2.0)
I2 = SpdParam2(1.0, 0.0, 1.0)

# ---------------------------------------------------------------------------
# Shared Monte Carlo panel (criteria 3 and 4)
# ---------------------------------------------------------------------------

PANEL_SEED = 7  # fixed panel stream; chosen once, disclosed in the notes
PANEL_N = 10**6
PILOT_N = 10**6
PILOT_N_FIRST = 8_000_000  # the sigma* criterion targets the first pair only

PAIRS = [
    ((1, 0, 0), (2, 1, 1)),
    ((1, 0, 0), (3, 1, 1)),
    ((1, 0, 0), (4, 1, 1)),
    ((1, 0, 0), (4, 3, 2)),
    ((2, 1, 1), (3, 1, 1)),
    ((2, 1, 1), (4, 1, 1)),
    ((2, 1, 1), (4, 3, 2)),
    ((3, 1, 1), (4, 1, 1)),
    ((3, 1, 1), (4, 3, 2)),
    ((4, 1, 1), (4, 3, 2)),
]

# reference table: per pair (plugin, mc1-logistic, mc1-t7, mc2)
TABLE_TV = [
    (0.4667749, 0.4684961, 0.4686010, 0.4684339),
    (0.4431547, 0.4310651, 0.4310781, 0.4310919),
    (0.4760025, 0.4868136, 0.4868225, 0.4868233),
    (0.6855790, 0.7194658, 0.7199457, 0.7193469),
    (0.3125775, 0.3131345, 0.3132867, 0.3131200),
    (0.4486406, 0.4543952, 0.4546337, 0.4544327),
    (0.3862757, 0.3865376, 0.3868286, 0.3864432),
    (0.1636375, 0.1635603, 0.1636150, 0.1635727),
    (0.6075090, 0.6070837, 0.6076672, 0.6070680),
    (0.7106694, 0.7102112, 0.7110066, 0.7103308),
]

# reference sample variances: per pair (mc1-logistic, mc1-t7, mc2)
TABLE_VAR = [
    (0.1947330, 0.1927373, 1.2289940),
    (0.0910358, 0.0865068, 0.2690483),
    (0.1698632, 0.1591417, 0.2302013),
    (1.2102320, 1.1630580, 9.1878970),
    (0.3186532, 0.3176044, 0.9984420),
    (0.6959980, 0.6837022, 1.3955250),
    (0.5976724, 0.5847235, 5.2407270),
    (0.0445869, 0.0450790, 0.0857598),
    (1.9173170, 1.8210230, 8.9636980),
    (3.1016660, 2.8752780, 9.6060430),
]

VALUE_TOL = 0.012
VAR_FACTOR = 1.5
SIGMA_LOGISTIC_REF = 1.346247
SIGMA_T7_REF = 2.127577
SIGMA_TOL = 0.15
RUNTIME_LIMIT_S = 60.0


@pytest.fixture(scope="module")
def tv_panel(pytestconfig):
    """All four estimators on the ten pairs, single stream, n = 10^6."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("HYPERSTAT_THREADS", "1")  # the runtime criterion is single-threaded
        tv = FGenerator.total_variation()
        rng = RngStream(PANEL_SEED)
        rows = []
        for i, (a, b) in enumerate(PAIRS):
            ta, tb = LorentzParam(a), LorentzParam(b)
            n_pilot = PILOT_N_FIRST if i == 0 else PILOT_N
            sl = optimize_sigma(tv, ta, tb, "logistic", n_pilot, rng.derive(101, i))
            st = optimize_sigma(tv, ta, tb, "student_t7", n_pilot, rng.derive(102, i))
            runs = {}
            for tag, call in (
                ("plugin", lambda: estimate_plugin(tv, ta, tb, PANEL_N, rng.derive(11, i))),
                ("mc1-logistic", lambda: estimate_mc1(tv, ta, tb, Proposal("logistic", sl), PANEL_N, rng.derive(12, i))),
                ("mc1-t7", lambda: estimate_mc1(tv, ta, tb, Proposal("student_t7", st), PANEL_N, rng.derive(13, i))),
                ("mc2", lambda: estimate_mc2(tv, ta, tb, PANEL_N, rng.derive(14, i))),
            ):
                t0 = time.time()
                est = call()
                runs[tag] = (est, time.time() - t0)
            rows.append({"sigma_logistic": sl, "sigma_t7": st, "runs": runs})
        return rows


def test_c03_tvd_table_mc_estimators(tv_panel):
    """Criterion 3 (MC1-logistic, MC1-t7, MC2 cells, sigma*, runtime)."""
    failures = []
    for i, row in enumerate(tv_panel):
        for j, tag in enumerate(("mc1-logistic", "mc1-t7", "mc2")):
            est, elapsed = row["runs"][tag]
            want = TABLE_TV[i][j + 1]
            if abs(est.estimate - want) > VALUE_TOL:
                failures.append(f"pair {PAIRS[i]} {tag}: {est.estimate:.6f} vs {want}")
            assert elapsed <= RUNTIME_LIMIT_S, f"{tag} on {PAIRS[i]} took {elapsed:.1f}s"
    assert not failures, "estimates off the reference table: " + "; ".join(failures)
    assert abs(tv_panel[0]["sigma_logistic"] - SIGMA_LOGISTIC_REF) <= SIGMA_TOL
    assert abs(tv_panel[0]["sigma_t7"] - SIGMA_T7_REF) <= SIGMA_TOL


def test_c03_tvd_table_plugin(tv_panel):
    """Criterion 3, plug-in column.

    Expected red on the infinite-variance pairs (indices 3, 8, 9) and
    knife-edge on index 1; see the module docstring and repository notes.
    """
    failures = []
    for i, row in enumerate(tv_panel):
        est, elapsed = row["runs"]["plugin"]
        assert elapsed <= RUNTIME_LIMIT_S
        if abs(est.estimate - TABLE_TV[i][0]) > VALUE_TOL:
            failures.append(
                f"pair {PAIRS[i]}: {est.estimate:.6f} vs {TABLE_TV[i][0]} "
                f"(tail index {est.tail_index and round(est.tail_index, 2)}, "
                f"heavy_tail={est.heavy_tail})"
            )
    assert not failures, (
        "plug-in cells outside +-0.012 of the reference run: "
        + "; ".join(failures)
        + " -- the weight variance is infinite on these pairs (2 theta' - theta "
        "leaves the cone), so the n=10^6 draw cannot track the reference draw"
    )


def test_c03_panel_estimator_agreement(tv_panel):
    """The four estimators mutually agree within combined 4-SE intervals.

    Plug-in cells whose own tail diagnostic reports infinite weight variance
    carry no meaningful standard error and are excluded from the pairing.
    """
    for i, row in enumerate(tv_panel):
        ests = [row["runs"][t][0] for t in ("mc1-logistic", "mc1-t7", "mc2")]
        plugin = row["runs"]["plugin"][0]
        if not plugin.heavy_tail:
            ests.append(plugin)
        for a_idx in range(len(ests)):
            for b_idx in range(a_idx + 1, len(ests)):
                a, b = ests[a_idx], ests[b_idx]
                tol = 4.0 * math.sqrt(a.sample_variance / a.n + b.sample_variance / b.n)
                assert abs(a.estimate - b.estimate) <= tol, PAIRS[i]


def test_c04_variance_table_ordering(tv_panel):
    """Criterion 4: optimized MC1 variances do not exceed MC2's, on every row."""
    for i, row in enumerate(tv_panel):
        v_mc2 = row["runs"]["mc2"][0].sample_variance
        assert row["runs"]["mc1-logistic"][0].sample_variance <= v_mc2, PAIRS[i]
        assert row["runs"]["mc1-t7"][0].sample_variance <= v_mc2, PAIRS[i]


def test_c04_variance_table_ratios(tv_panel):
    """Criterion 4: every sample variance within x/1.5 of the reference table."""
    failures = []
    for i, row in enumerate(tv_panel):
        for j, tag in enumerate(("mc1-logistic", "mc1-t7", "mc2")):
            got = row["runs"][tag][0].sample_variance
            ratio = got / TABLE_VAR[i][j]
            if not (1.0 / VAR_FACTOR <= ratio <= VAR_FACTOR):
                failures.append(f"pair {PAIRS[i]} {tag}: ratio {ratio:.2f}")
    assert not failures, "sample variances off the reference table: " + "; ".join(failures)


# ---------------------------------------------------------------------------
# Criterion 1: worked-example reproduction (deterministic, < 1 s)
# ---------------------------------------------------------------------------


def test_c01_worked_example_closed_forms():
    t0 = time.time()
    assert pc.cumulant(EX_THETA).reduced == pytest.approx(-3.114, abs=1e-3)
    assert pc.cumulant(EX_THETA2).reduced == pytest.approx(-1.904, abs=1e-3)

    eta = pc.grad_cumulant(EX_THETA)
    assert eta.m11 == pytest.approx(-0.488, abs=1e-3)
    assert eta.m12 == pytest.approx(0.244, abs=1e-3)
    assert eta.m22 == pytest.approx(-3.906, abs=1e-3)

    assert pc.conjugate(eta) == pytest.approx(-0.669, abs=1e-3)
    assert pc.conjugate(pc.grad_cumulant(EX_THETA2)) == pytest.approx(-1.032, abs=1e-3)

    assert pc.kld(EX_THETA, EX_THETA2) == pytest.approx(5.360, abs=5e-3)
    assert pc.kld(EX_THETA2, EX_THETA) == pytest.approx(8.573, abs=1e-2)

    assert pc.entropy(EX_THETA) == pytest.approx(-0.608, abs=2e-3)
    assert pc.entropy(EX_THETA2) == pytest.approx(3.074, abs=2e-3)

    g = Mobius(1.0, 1.0, 1.0, 2.0)
    gt = mobius_act_param(g, EX_THETA)
    gt2 = mobius_act_param(g, EX_THETA2)
    assert (gt.a, gt.b, gt.c) == pytest.approx((15.5, -7.75, 4.0), abs=1e-12)
    assert (gt2.a, gt2.b, gt2.c) == pytest.approx((3.0, -2.25, 2.0), abs=1e-12)
    assert pc.kld(gt, gt2) == pytest.approx(pc.kld(EX_THETA, EX_THETA2), abs=1e-10)
    assert time.time() - t0 < 1.0


def test_c02_foliation_leaf_value():
    leaf = SpdParam2(0.5, 0.0, 2.0)
    assert pc.kld(I2, leaf) == pytest.approx(0.75, abs=1e-12)
    assert pc.kld(leaf, I2) == pytest.approx(0.75, abs=1e-12)


# ---------------------------------------------------------------------------
# Criterion 5: closed forms against quadrature
# ---------------------------------------------------------------------------

POINCARE_PANEL = [
    (I2, SpdParam2(0.5, 0.0, 2.0)),
    (EX_THETA, EX_THETA2),
    (SpdParam2(1.0, 0.0, 1.0), SpdParam2(2.0, 0.5, 1.0)),
    (SpdParam2(1.5, -0.3, 0.8), SpdParam2(1.2, -0.1, 0.9)),
    (SpdParam2(3.0, 1.0, 2.0), SpdParam2(2.5, 0.6, 1.8)),
]

HYPERBOLOID_PANEL = [
    (LorentzParam((1, 0, 0)), LorentzParam((2, 1, 1))),
    (LorentzParam((2, 1, 1)), LorentzParam((3, 1, 1))),
    (LorentzParam((2, 0, 0)), LorentzParam((1.8, 0.3, 0.2))),
    (LorentzParam((3, 1, 1)), LorentzParam((4, 1, 1))),
    (LorentzParam((1.5, 0.5, -0.3)), LorentzParam((2.5, -0.5, 0.5))),
]


def test_c05_quadrature_oracle_poincare():
    for th, th2 in POINCARE_PANEL:
        assert pc.kld(th, th2) == pytest.approx(
            poincare_divergence_quad("kl", th, th2), abs=1e-4
        )
        assert pc.hellinger_sq(th, th2) == pytest.approx(
            poincare_divergence_quad("hellinger", th, th2), abs=1e-4
        )
        ney = pc.neyman_chi2(th, th2)
        if math.isfinite(ney):
            assert ney == pytest.approx(
                poincare_divergence_quad("neyman", th, th2), abs=1e-4
            )


def test_c05_quadrature_oracle_hyperboloid():
    finite_seen = 0
    for th, th2 in HYPERBOLOID_PANEL:
        assert hb.kld(th, th2) == pytest.approx(
            hyperboloid_divergence_quad("kl", th, th2), abs=1e-4
        )
        assert hb.hellinger_sq(th, th2) == pytest.approx(
            hyperboloid_divergence_quad("hellinger", th, th2), abs=1e-4
        )
        ney = hb.neyman_chi2(th, th2)
        if math.isfinite(ney):
            finite_seen += 1
            assert ney == pytest.approx(
                hyperboloid_divergence_quad("neyman", th, th2), abs=1e-4
            )
    assert finite_seen >= 3


# ---------------------------------------------------------------------------
# Criterion 6: correspondence principle
# ---------------------------------------------------------------------------


def test_c06_correspondence_principle():
    rng = np.random.default_rng(1006)
    div_pairs = [
        (pc.kld, hb.kld),
        (pc.hellinger_sq, hb.hellinger_sq),
        (pc.neyman_chi2, hb.neyman_chi2),
        (pc.jeffreys, hb.jeffreys),
    ]
    for _ in range(100):
        th, th2 = random_spd(rng), random_spd(rng)
        la, lb = param_h_to_l(th), param_h_to_l(th2)
        s = poincare_invariant(th, th2)
        tri = lorentz_invariant(la, lb)
        assert tri.s1 == pytest.approx(4 * s.s1, rel=1e-10)
        assert tri.s2 == pytest.approx(4 * s.s2, rel=1e-10)
        assert tri.s3 == pytest.approx(2 * s.s1 * s.s3, rel=1e-10)
        for f_h, f_l in div_pairs:
            want, got = f_h(th, th2), f_l(la, lb)
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(want, rel=1e-10, abs=1e-10)
        for alpha in (0.25, 0.5, 0.75):
            assert hb.skew_jensen(la, lb, alpha) == pytest.approx(
                pc.skew_jensen(th, th2, alpha), rel=1e-10, abs=1e-10
            )


# ---------------------------------------------------------------------------
# Criterion 7: invariance suites
# ---------------------------------------------------------------------------


def _finite_match(got, want, **tol):
    if math.isinf(want):
        assert math.isinf(got)
    else:
        assert got == pytest.approx(want, **tol)


def test_c07_invariance_poincare():
    rng = np.random.default_rng(1007)
    divs = [
        pc.kld,
        pc.hellinger_sq,
        pc.neyman_chi2,
        pc.jeffreys,
        lambda a, b: pc.skew_jensen(a, b, 0.3),
    ]
    th, th2 = random_spd(rng), random_spd(rng)
    base = [f(th, th2) for f in divs]
    for _ in range(100):
        g = random_mobius(rng)
        ga, gb = mobius_act_param(g, th), mobius_act_param(g, th2)
        for f, want in zip(divs, base):
            _finite_match(f(ga, gb), want, rel=1e-9, abs=1e-9)


def test_c07_invariance_hyperboloid():
    rng = np.random.default_rng(2007)
    divs = [
        hb.kld,
        hb.hellinger_sq,
        hb.neyman_chi2,
        hb.jeffreys,
        lambda a, b: hb.skew_jensen(a, b, 0.3),
    ]
    th, th2 = random_lorentz_param(2, rng), random_lorentz_param(2, rng)
    base = [f(th, th2) for f in divs]
    for _ in range(100):
        g = lorentz_random_element(2, rng)
        ga, gb = g.apply_param(th), g.apply_param(th2)
        for f, want in zip(divs, base):
            _finite_match(f(ga, gb), want, rel=1e-9, abs=1e-9)


def test_c07_leaf_symmetry():
    rng = np.random.default_rng(3007)
    for _ in range(60):
        # half-plane leaf: equal determinants via a diagonal pick and a group move
        t = math.exp(rng.uniform(-0.8, 0.8))
        lam = math.exp(rng.uniform(-1.0, 1.0))
        th = SpdParam2(t * lam, 0.0, t / lam)
        th2 = mobius_act_param(random_mobius(rng), SpdParam2(t / lam, 0.0, t * lam))
        assert th.det() == pytest.approx(th2.det(), rel=1e-10)
        for f in (pc.kld, pc.hellinger_sq, pc.neyman_chi2, pc.jeffreys):
            _finite_match(f(th, th2), f(th2, th), rel=1e-10, abs=1e-10)
    for _ in range(60):
        t = math.exp(rng.uniform(-0.8, 0.8))
        phi, ang = rng.uniform(0, 1.2), rng.uniform(0, 2 * math.pi)
        a = LorentzParam((t * math.cosh(phi), t * math.sinh(phi) * math.cos(ang), t * math.sinh(phi) * math.sin(ang)))
        phi, ang = rng.uniform(0, 1.2), rng.uniform(0, 2 * math.pi)
        b = LorentzParam((t * math.cosh(phi), t * math.sinh(phi) * math.cos(ang), t * math.sinh(phi) * math.sin(ang)))
        for f in (hb.kld, hb.hellinger_sq, hb.neyman_chi2, hb.jeffreys):
            _finite_match(f(a, b), f(b, a), rel=1e-10, abs=1e-10)


def test_c07_equal_triples_equal_divergences():
    rng = np.random.default_rng(4007)
    for _ in range(40):
        th, th2 = random_spd(rng), random_spd(rng)
        g = random_mobius(rng)
        ga, gb = mobius_act_param(g, th), mobius_act_param(g, th2)
        assert poincare_invariant(ga, gb).as_tuple() == pytest.approx(
            poincare_invariant(th, th2).as_tuple(), rel=1e-10
        )
        for f in (pc.kld, pc.hellinger_sq, pc.neyman_chi2, pc.jeffreys):
            _finite_match(f(ga, gb), f(th, th2), rel=1e-9, abs=1e-9)
    for _ in range(40):
        a, b = random_lorentz_param(2, rng), random_lorentz_param(2, rng)
        g = lorentz_random_element(2, rng)
        ga, gb = g.apply_param(a), g.apply_param(b)
        assert lorentz_invariant(ga, gb).as_tuple() == pytest.approx(
            lorentz_invariant(a, b).as_tuple(), rel=1e-10
        )
        for f in (hb.kld, hb.hellinger_sq, hb.neyman_chi2, hb.jeffreys):
            _finite_match(f(ga, gb), f(a, b), rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# Criterion 8: differentiation oracles
# ---------------------------------------------------------------------------


def test_c08_differentiation_oracles():
    rng = np.random.default_rng(1008)
    for _ in range(100):
        th = random_spd(rng)
        vec = th.as_vector()

        fd_grad = central_gradient(poincare_cumulant_of_vec, vec)
        eta = pc.grad_cumulant(th)
        want_grad = np.array([eta.m11, 2 * eta.m12, eta.m22])
        assert np.max(np.abs(fd_grad - want_grad)) / np.max(np.abs(want_grad)) < 1e-6

        fd_h = central_hessian(poincare_cumulant_of_vec, vec)
        got_h = pc.fim(th)
        assert np.max(np.abs(fd_h - got_h)) / np.max(np.abs(got_h)) < 1e-6

        fd_t = central_third(poincare_cumulant_of_vec, vec)
        got_t = pc.cubic_tensor(th)
        assert np.max(np.abs(fd_t - got_t)) / np.max(np.abs(got_t)) < 1e-5

        prod = got_h @ pc.fim_dual(eta)
        assert np.max(np.abs(prod - np.eye(3))) < 1e-8

    for _ in range(100):
        theta = random_lorentz_param(2, rng)
        fd_h = central_hessian(hyperboloid_cumulant_of_vec, theta.vec)
        got_h = hb.fim2(theta)
        assert np.max(np.abs(fd_h - got_h)) / np.max(np.abs(got_h)) < 1e-6
        t = theta.minkowski_norm()
        t0, t1, t2 = theta.theta
        disp = np.array(
            [
                [(2 + t) * t0 * t0 - t * t * (1 + t), -(2 + t) * t0 * t1, -(2 + t) * t0 * t2],
                [-(2 + t) * t0 * t1, (2 + t) * t1 * t1 + t * t * (1 + t), (2 + t) * t1 * t2],
                [-(2 + t) * t0 * t2, (2 + t) * t1 * t2, (2 + t) * t2 * t2 + t * t * (1 + t)],
            ]
        ) / t**4
        assert np.max(np.abs(got_h - disp)) < 1e-10


# ---------------------------------------------------------------------------
# Criterion 9: sampler correctness
# ---------------------------------------------------------------------------


def test_c09_sampler_correctness():
    # GIG mean against the Bessel-ratio moment
    t = math.sqrt(2.0)
    draws = gig_sample(GigParams(0.5, 1.0, t * t), 10**6, RngStream(1009))
    want = (1.0 / t) * (1.0 + 1.0 / t)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - want) < 3.0 * se

    # chart moments against the cumulant gradient
    theta = LorentzParam((2.0, 1.0, 1.0))
    pts = hyperboloid_sample(theta, 10**6, RngStream(2009))
    stats = hb.suff_stats_chart(pts)
    grad = hb.grad_cumulant(theta)
    ses = stats.std(axis=0, ddof=1) / math.sqrt(len(pts))
    assert np.all(np.abs(stats.mean(axis=0) - grad) < 3.0 * ses)

    # Kolmogorov-Smirnov for the mixing law at alpha = 0.01
    from scipy import integrate, stats as sps

    p = GigParams(0.5, 1.0, t * t)
    n = 10**5
    ks_draws = np.sort(gig_sample(p, n, RngStream(3009)))
    xs = np.linspace(ks_draws[0] * 0.5, ks_draws[-1] * 1.1, 40_000)
    kernel = np.exp(p.log_kernel(xs))
    cdf = np.concatenate(([0.0], np.cumsum((kernel[1:] + kernel[:-1]) * 0.5 * np.diff(xs))))
    total, _ = integrate.quad(lambda x: float(np.exp(p.log_kernel(x))), 0, np.inf, limit=300)
    left, _ = integrate.quad(lambda x: float(np.exp(p.log_kernel(x))), 0, xs[0], limit=300)
    emp = np.interp(ks_draws, xs, (left + cdf) / total)
    ks = np.max(np.maximum(np.abs(emp - np.arange(1, n + 1) / n), np.abs(emp - np.arange(n) / n)))
    assert ks < sps.kstwo.ppf(0.99, n)

    # MLE recovery within 3 asymptotic standard errors on 1e5 draws
    n_mle = 10**5
    est = hb.mle(hyperboloid_sample(theta, n_mle, RngStream(4009)))
    ses = np.sqrt(np.diag(np.linalg.inv(hb.fim2(theta))) / n_mle)
    assert np.all(np.abs(est.vec - theta.vec) < 3.0 * ses)

    est_p = pc.mle(poincare_sample(EX_THETA, n_mle, RngStream(5009)))
    ses_p = np.sqrt(np.diag(np.linalg.inv(pc.fim(EX_THETA))) / n_mle)
    assert np.all(np.abs(est_p.as_vector() - EX_THETA.as_vector()) < 3.0 * ses_p)

    # concentration error decreases monotonically over three decades
    target = np.array([1.0, 0.0])
    errs = [
        float(np.linalg.norm(concentration_probe(target, t_big, 10_000, RngStream(6009).derive(k)) - target))
        for k, t_big in enumerate((10.0, 100.0, 1000.0))
    ]
    assert errs[0] > errs[1] > errs[2]


# ---------------------------------------------------------------------------
# Criterion 10: EM behaviour
# ---------------------------------------------------------------------------


def test_c10_em_monotonicity_and_recovery():
    base = RngStream(1010)
    for trial in range(20):
        k = 1 + trial % 3
        truth = Mixture(
            family="hyperboloid",
            weights=tuple(np.full(k, 1.0 / k)),
            components=tuple(
                LorentzParam((3.0 + j, 1.5 * j * (-1) ** j, 0.5 * j)) for j in range(k)
            ),
        )
        pts = mixture_sample(truth, 600, base.derive(trial))
        _, trace = em_fit(pts, k, "hyperboloid", base.derive(trial, 999))
        assert np.all(np.diff(np.asarray(trace.loglik)) >= -1e-10)

    truth = Mixture(
        family="hyperboloid",
        weights=(0.35, 0.65),
        components=(LorentzParam((6.0, 0.0, 0.0)), LorentzParam((4.0, 2.0, -2.0))),
    )
    pts = mixture_sample(truth, 5000, RngStream(2010))
    mix, _ = em_fit(pts, 2, "hyperboloid", RngStream(3010))
    order = np.argsort([c.theta[1] for c in mix.components])
    torder = np.argsort([c.theta[1] for c in truth.components])
    got_w = np.asarray(mix.weights)[order]
    want_w = np.asarray(truth.weights)[torder]
    assert np.all(np.abs(got_w - want_w) < 0.05)
    for gi, ti in zip(order, torder):
        pairs = [
            (mix.components[gi], truth.components[ti]),
        ]
        for got_c, want_c in pairs:
            s_got = lorentz_invariant(got_c, got_c).s1
            s_want = lorentz_invariant(want_c, want_c).s1
            assert abs(s_got - s_want) / s_want < 0.10
    cross_got = lorentz_invariant(mix.components[order[0]], mix.components[order[1]]).s3
    cross_want = lorentz_invariant(truth.components[torder[0]], truth.components[torder[1]]).s3
    assert abs(cross_got - cross_want) / abs(cross_want) < 0.10


# ---------------------------------------------------------------------------
# Criterion 11: Jeffreys non-metricity witness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_c11_jeffreys_power_not_a_metric(a):
    c = 100.0
    t1 = SpdParam2(1.0, 0.0, 1.0)
    t2 = SpdParam2(c, 0.0, 1.0 / c)
    t3 = SpdParam2(c * c, 0.0, 1.0 / (c * c))
    for th in (t1, t2, t3):
        assert th.det() == pytest.approx(1.0)
    d12 = pc.jeffreys(t1, t2) ** a
    d23 = pc.jeffreys(t2, t3) ** a
    d13 = pc.jeffreys(t1, t3) ** a
    assert d12 + d23 < d13
    assert pc.jeffreys(t1, t2) == pytest.approx(3.0 * (c + 1.0 / c - 2.0), rel=1e-9)
