import math

import numpy as np
import pytest
from scipy import integrate, stats

from helpers import concentration_probe, traced_peak

from hyperstat import hyperboloid as hb
from hyperstat import poincare as pc
from hyperstat import sampling
from hyperstat.geometry import LorentzParam, SpdParam2
from hyperstat.sampling import (
    GigParams,
    RngStream,
    gig_sample,
    hyperboloid_sample,
    poincare_sample,
)


def gig_mean(p: GigParams) -> float:
    # E[X] = sqrt(chi/psi) K_{lam+1}(w) / K_lam(w), w = sqrt(chi psi)
    from hyperstat.specfun import bessel_k

    w = math.sqrt(p.chi * p.psi)
    return math.sqrt(p.chi / p.psi) * math.exp(
        bessel_k(p.lam + 1.0, w).log_value - bessel_k(p.lam, w).log_value
    )


def gig_cdf_grid(p: GigParams, lo: float, hi: float, m: int = 40_000):
    xs = np.linspace(lo, hi, m)
    kernel = np.exp(p.log_kernel(xs))
    cdf = np.concatenate(([0.0], np.cumsum((kernel[1:] + kernel[:-1]) * 0.5 * np.diff(xs))))
    # normalize with the full integral so truncation does not bias the tail
    total, _ = integrate.quad(lambda x: float(np.exp(p.log_kernel(x))), 0, np.inf, limit=300)
    left, _ = integrate.quad(lambda x: float(np.exp(p.log_kernel(x))), 0, lo, limit=300)
    return xs, (left + cdf) / total


class TestRngStream:
    def test_bit_reproducible(self):
        a = RngStream(123, 7).generator().standard_normal(32)
        b = RngStream(123, 7).generator().standard_normal(32)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(123, 0).generator().standard_normal(32)
        b = RngStream(123, 1).generator().standard_normal(32)
        assert not np.array_equal(a, b)

    def test_derive_is_stable_and_distinct(self):
        s = RngStream(9, 4)
        assert s.derive(1) == s.derive(1)
        assert s.derive(1) != s.derive(2)
        assert s.derive(1, 2) != s.derive(2, 1)


class TestGig:
    def test_param_validation(self):
        with pytest.raises(ValueError):
            GigParams(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            GigParams(0.5, 1.0, -1.0)

    def test_half_order_mean(self):
        # lam=1/2, chi=1, psi=2: mean is (1/t)(1 + 1/t) with t = sqrt(2)
        p = GigParams(0.5, 1.0, 2.0)
        t = math.sqrt(2.0)
        want = (1.0 / t) * (1.0 + 1.0 / t)
        assert gig_mean(p) == pytest.approx(want, rel=1e-12)
        draws = gig_sample(p, 1_000_000, RngStream(31))
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - want) < 3.0 * se

    def test_kolmogorov_smirnov_against_cdf(self):
        p = GigParams(0.5, 1.0, 2.0)
        n = 100_000
        draws = gig_sample(p, n, RngStream(32))
        xs, cdf = gig_cdf_grid(p, draws.min() * 0.5, draws.max() * 1.1)
        emp = np.interp(np.sort(draws), xs, cdf)
        ks = np.max(
            np.maximum(
                np.abs(emp - np.arange(1, n + 1) / n), np.abs(emp - np.arange(n) / n)
            )
        )
        crit = stats.kstwo.ppf(0.99, n)
        assert ks < crit

    def test_negative_half_order(self):
        p = GigParams(-0.5, 2.0, 3.0)
        draws = gig_sample(p, 400_000, RngStream(36))
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - gig_mean(p)) < 3.5 * se

    def test_determinism(self):
        p = GigParams(0.5, 1.0, 2.0)
        a = gig_sample(p, 1000, RngStream(37))
        b = gig_sample(p, 1000, RngStream(37))
        assert np.array_equal(a, b)
        assert np.all(a > 0)

    @pytest.mark.parametrize("lam", [-0.5, 0.5])
    def test_half_order_takes_the_transform(self, lam):
        # lam = +-1/2 takes the inverse-Gaussian transform on the stream's generator.
        p = GigParams(lam, 0.8, 1.3)
        want = sampling._gig_half_order(p, 5000, RngStream(39).generator())
        assert np.array_equal(gig_sample(p, 5000, RngStream(39)), want)

    def test_other_orders_rejected(self):
        with pytest.raises(ValueError, match=r"orders lam = 0.5 and -0.5 only, got lam=1.7"):
            gig_sample(GigParams(1.7, 0.8, 1.3), 5000, RngStream(39))


class TestHyperboloidSampler:
    def test_moments_match_gradient(self):
        theta = LorentzParam((2.0, 1.0, 1.0))
        n = 1_000_000
        pts = hyperboloid_sample(theta, n, RngStream(41))
        stats_ = hb.suff_stats_chart(pts)
        grad = hb.grad_cumulant(theta)
        se = stats_.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(stats_.mean(axis=0) - grad) < 3.0 * se)
        # spot values: E[x1] = (1+sqrt2)/2, E[x0~] = 2 (1+sqrt2)/2
        assert pts[:, 0].mean() == pytest.approx((1 + math.sqrt(2)) / 2, abs=4 * se[1])

    def test_apex_symmetry(self):
        pts = hyperboloid_sample(LorentzParam((1.0, 0.0, 0.0)), 400_000, RngStream(42))
        se = pts.std(axis=0, ddof=1) / math.sqrt(len(pts))
        assert np.all(np.abs(pts.mean(axis=0)) < 3.5 * se)

    def test_chart_map_agrees_with_point_map(self):
        # the sampler's vectorized chart map and geometry.point_l_to_h take
        # the same non-cancelling branch, far out as well as near the origin
        from hyperstat import sampling
        from hyperstat.geometry import HyperboloidPoint, point_l_to_h

        rng = np.random.default_rng(19)
        chart = rng.normal(size=(5000, 2)) * rng.choice([1e-3, 1.0, 1e3, 1e6, 1e10], size=(5000, 1))
        got = sampling._chart_l_to_h(chart)
        want = np.array([(z.x, z.y) for z in (point_l_to_h(HyperboloidPoint(c)) for c in chart)])
        np.testing.assert_allclose(got, want, rtol=2e-15, atol=0)

    def test_histogram_chi2_against_quadrature(self):
        theta = LorentzParam((2.0, 1.0, 1.0))
        n = 100_000
        pts = hyperboloid_sample(theta, n, RngStream(43))
        edges = np.linspace(-4.0, 6.0, 8)
        counts, _, _ = np.histogram2d(pts[:, 0], pts[:, 1], bins=[edges, edges])
        probs = np.empty_like(counts)
        for i in range(len(edges) - 1):
            for j in range(len(edges) - 1):
                val, _ = integrate.dblquad(
                    lambda y, x: math.exp(
                        float(hb.log_density_chart(theta, np.array([[x, y]]))[0])
                    ),
                    edges[i],
                    edges[i + 1],
                    edges[j],
                    edges[j + 1],
                    epsabs=1e-10,
                )
                probs[i, j] = val
        inside = counts.sum()
        # lump everything outside the grid into one extra cell
        exp_counts = np.append(probs.ravel() * n, (1.0 - probs.sum()) * n)
        obs_counts = np.append(counts.ravel(), n - inside)
        mask = exp_counts > 5.0
        stat = float(np.sum((obs_counts[mask] - exp_counts[mask]) ** 2 / exp_counts[mask]))
        crit = stats.chi2.ppf(0.99, mask.sum() - 1)
        assert stat < crit

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            hyperboloid_sample(LorentzParam((2.0, 0.0, 0.0, 0.0)), 10, RngStream(0))

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            hyperboloid_sample(LorentzParam((2.0, 0.0, 0.0)), -5, RngStream(0))
        assert hyperboloid_sample(LorentzParam((2.0, 0.0, 0.0)), 0, RngStream(0)).shape == (0, 2)

    def test_tiny_norm_raises_instead_of_returning_nan(self):
        # numpy's Wald draws hit 0 at |theta| ~ 1e-15, so the mixing scale 1/w is inf.
        with pytest.raises(ValueError, match="not all positive and finite"):
            hyperboloid_sample(LorentzParam((1e-15, 0.0, 0.0)), 100_000, RngStream(1, 1))
        with pytest.raises(ValueError, match="not all positive and finite"):
            poincare_sample(SpdParam2(1e-15, 0.0, 1e-15), 100_000, RngStream(1, 1))
        assert np.isfinite(hyperboloid_sample(LorentzParam((1e-10, 0.0, 0.0)), 100_000, RngStream(1, 1))).all()

    def test_determinism(self):
        theta = LorentzParam((2.0, 1.0, 1.0))
        a = hyperboloid_sample(theta, 500, RngStream(44))
        b = hyperboloid_sample(theta, 500, RngStream(44))
        assert np.array_equal(a, b)


class TestSamplerWorkingSet:
    def test_hyperboloid_sample_holds_its_output_and_mixing_draws(self):
        # the (n, 2) output and s; sqrt(s) and s theta_s exist per row block only
        n, theta = 200_000, LorentzParam((4.0, 3.0, 2.0))
        assert traced_peak(lambda: hyperboloid_sample(theta, n, RngStream(52))) <= 3.5 * 8 * n


class TestPoincareSampler:
    def test_sufficient_statistic_means(self):
        theta = SpdParam2(1.0, 0.0, 1.0)
        n = 1_000_000
        pts = poincare_sample(theta, n, RngStream(45))
        stats_ = pc.suff_stats_xy(pts)
        se = stats_.std(axis=0, ddof=1) / math.sqrt(n)
        want = np.array([-1.5, 0.0, -1.5])
        assert np.all(np.abs(stats_.mean(axis=0) - want) < 3.0 * se)

    def test_positive_half_plane(self):
        pts = poincare_sample(SpdParam2(4.0, 0.25, 0.5), 100_000, RngStream(46))
        assert np.all(pts[:, 1] > 0.0)

    def test_mle_recovers_parameter(self):
        theta = SpdParam2(4.0, 0.25, 0.5)
        n = 100_000
        est = pc.mle(poincare_sample(theta, n, RngStream(47)))
        ses = np.sqrt(np.diag(np.linalg.inv(pc.fim(theta))) / n)
        assert np.all(np.abs(est.as_vector() - theta.as_vector()) < 3.0 * ses)

    def test_histogram_chi2_against_quadrature(self):
        theta = SpdParam2(1.0, 0.0, 1.0)
        n = 100_000
        pts = poincare_sample(theta, n, RngStream(48))
        xe = np.linspace(-2.5, 2.5, 7)
        ye = np.geomspace(0.08, 8.0, 7)
        counts, _, _ = np.histogram2d(pts[:, 0], pts[:, 1], bins=[xe, ye])
        probs = np.empty_like(counts)
        for i in range(len(xe) - 1):
            for j in range(len(ye) - 1):
                val, _ = integrate.dblquad(
                    lambda y, x: math.exp(float(pc.log_density_xy(theta, x, y))),
                    xe[i],
                    xe[i + 1],
                    ye[j],
                    ye[j + 1],
                    epsabs=1e-10,
                )
                probs[i, j] = val
        exp_counts = np.append(probs.ravel() * n, (1.0 - probs.sum()) * n)
        obs_counts = np.append(counts.ravel(), n - counts.sum())
        mask = exp_counts > 5.0
        stat = float(np.sum((obs_counts[mask] - exp_counts[mask]) ** 2 / exp_counts[mask]))
        crit = stats.chi2.ppf(0.99, mask.sum() - 1)
        assert stat < crit


class TestConcentration:
    def test_apex_mean_near_origin(self):
        mean = concentration_probe(np.zeros(2), 100.0, 10_000, RngStream(49))
        assert np.linalg.norm(mean) < 0.15

    def test_error_decreases_over_three_decades(self):
        target = np.array([1.0, 0.0])
        errs = []
        for k, t in enumerate((10.0, 100.0, 1000.0)):
            mean = concentration_probe(target, t, 10_000, RngStream(50).derive(k))
            errs.append(float(np.linalg.norm(mean - target)))
        assert errs[0] > errs[1] > errs[2]

    def test_outputs_are_finite_chart_points(self):
        mean = concentration_probe(np.array([0.5, -0.5]), 10.0, 1000, RngStream(51))
        assert np.all(np.isfinite(mean))

    def test_t_must_be_positive(self):
        with pytest.raises(ValueError):
            concentration_probe(np.zeros(2), 0.0, 10, RngStream(0))
