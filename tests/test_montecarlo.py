import math

import numpy as np
import pytest
from scipy import stats

from helpers import (
    einsum_f_and_logp,
    einsum_log_density_chart,
    libm_mc2_weights,
    per_point_pilot_objective,
    ref_cos_sin,
    ref_f_and_logp,
    ref_log_density_chart,
    ref_log_ratio_chart,
    ref_logpdf,
    ref_mc1_weights,
    ref_mc2_weights,
    ref_moments,
    ref_pilot,
    ref_pilot_objective,
    ref_plugin_weights,
    traced_peak,
)
from test_acceptance import PAIRS as PANEL_PAIRS

from hyperstat import hyperboloid as hb
from hyperstat import montecarlo
from hyperstat import poincare as pc
from hyperstat import sampling
from hyperstat.expfam import brent_min
from hyperstat.geometry import LorentzParam, SpdParam2, param_h_to_l
from hyperstat.montecarlo import (
    FGenerator,
    McEstimate,
    Proposal,
    _cos_sin,
    _f_and_logp,
    _pilot_objective,
    estimate,
    estimate_mc1,
    estimate_mc2,
    estimate_plugin,
    optimize_sigma,
)
from hyperstat.sampling import RngStream

APEX = LorentzParam((1.0, 0.0, 0.0))
T211 = LorentzParam((2.0, 1.0, 1.0))


class TestFGenerator:
    def test_values_at_reference_ratios(self):
        lr = np.log(np.array([0.25, 1.0, 4.0]))
        assert FGenerator.total_variation().of_log_ratio(lr) == pytest.approx(
            [0.375, 0.0, 1.5]
        )
        assert FGenerator.kl().of_log_ratio(lr) == pytest.approx(
            [math.log(4.0), 0.0, -math.log(4.0)]
        )
        assert FGenerator.squared_hellinger().of_log_ratio(lr) == pytest.approx(
            [0.125, 0.0, 0.5]
        )
        assert FGenerator.neyman_chi2().of_log_ratio(lr) == pytest.approx(
            [0.5625, 0.0, 9.0]
        )

    def test_custom_wraps_ratio_function(self):
        gen = FGenerator.custom(lambda u: (u - 1.0) ** 2)
        lr = np.array([0.0, math.log(3.0)])
        assert gen.of_log_ratio(lr) == pytest.approx([0.0, 4.0])

    def test_by_name(self):
        assert FGenerator.by_name("tv").kind == "total_variation"
        assert FGenerator.by_name("kl").kind == "kl"
        with pytest.raises(ValueError):
            FGenerator.by_name("nope")


class TestProposal:
    def test_logistic_logpdf_matches_scipy(self):
        x = np.linspace(-30, 30, 101)
        for sigma in (0.5, 1.0, 3.0):
            want = stats.logistic.logpdf(x, scale=sigma)
            got = Proposal("logistic", sigma).logpdf(x)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_t7_logpdf_matches_scipy(self):
        x = np.linspace(-30, 30, 101)
        for sigma in (0.5, 1.0, 3.0):
            want = stats.t.logpdf(x, df=7, scale=sigma)
            got = Proposal("student_t7", sigma).logpdf(x)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_sample_scale(self):
        gen = RngStream(1).generator()
        draws = Proposal("logistic", 2.0).sample(200_000, gen)
        # logistic variance is (pi sigma)^2 / 3
        assert draws.var() == pytest.approx((math.pi * 2.0) ** 2 / 3.0, rel=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            Proposal("cauchy", 1.0)
        with pytest.raises(ValueError):
            Proposal("logistic", 0.0)


class TestPluginEstimator:
    def test_zero_at_equal_parameters(self):
        est = estimate_plugin(FGenerator.total_variation(), T211, T211, 10_000, RngStream(3))
        assert est.estimate == 0.0
        assert est.sample_variance == 0.0

    def test_kl_matches_closed_form(self):
        est = estimate_plugin(FGenerator.kl(), T211, APEX, 400_000, RngStream(4))
        se = math.sqrt(est.sample_variance / est.n)
        assert abs(est.estimate - hb.kld(T211, APEX)) < 4.0 * se

    def test_hellinger_matches_closed_form(self):
        est = estimate_plugin(
            FGenerator.squared_hellinger(), T211, APEX, 400_000, RngStream(5)
        )
        se = math.sqrt(est.sample_variance / est.n)
        assert abs(est.estimate - hb.hellinger_sq(T211, APEX)) < 4.0 * se

    def test_ci_definition(self):
        est = estimate_plugin(FGenerator.total_variation(), APEX, T211, 50_000, RngStream(6))
        half = 1.96 * math.sqrt(est.sample_variance / est.n)
        assert est.ci95 == pytest.approx((est.estimate - half, est.estimate + half))

    def test_heavy_tail_flagged_for_infinite_variance_pair(self):
        # 2 theta' - theta leaves the cone here, so the weight variance is
        # infinite; the Hill diagnostic must say so
        bad = estimate_plugin(
            FGenerator.total_variation(),
            LorentzParam((4, 1, 1)),
            LorentzParam((4, 3, 2)),
            200_000,
            RngStream(7),
        )
        assert bad.tail_index is not None and bad.tail_index <= 2.0
        assert bad.heavy_tail
        good = estimate_plugin(
            FGenerator.total_variation(),
            LorentzParam((3, 1, 1)),
            LorentzParam((4, 1, 1)),
            200_000,
            RngStream(8),
        )
        assert not good.heavy_tail

    def test_determinism_and_shards(self):
        f = FGenerator.total_variation()
        a = estimate_plugin(f, APEX, T211, 40_000, RngStream(9), shards=4)
        b = estimate_plugin(f, APEX, T211, 40_000, RngStream(9), shards=4)
        assert a == b
        c = estimate_plugin(f, APEX, T211, 40_000, RngStream(9), shards=1)
        assert c.estimate != a.estimate  # different block structure, same law


class TestMc1:
    def test_tv_matches_quadrature_truth(self):
        sigma = optimize_sigma(
            FGenerator.total_variation(), APEX, T211, "logistic", 100_000, RngStream(10)
        )
        est = estimate_mc1(
            FGenerator.total_variation(),
            APEX,
            T211,
            Proposal("logistic", sigma),
            400_000,
            RngStream(11),
        )
        se = math.sqrt(est.sample_variance / est.n)
        assert abs(est.estimate - 0.4685145) < 4.0 * se  # frozen quadrature value

    def test_zero_at_equal_parameters_tv(self):
        est = estimate_mc1(
            FGenerator.total_variation(),
            T211,
            T211,
            Proposal("student_t7", 2.0),
            20_000,
            RngStream(12),
        )
        assert est.estimate == 0.0

    def test_kl_matches_closed_form_t7(self):
        est = estimate_mc1(
            FGenerator.kl(), T211, APEX, Proposal("student_t7", 2.0), 400_000, RngStream(13)
        )
        se = math.sqrt(est.sample_variance / est.n)
        assert abs(est.estimate - hb.kld(T211, APEX)) < 4.0 * se

    def test_records_sigma(self):
        est = estimate_mc1(
            FGenerator.total_variation(),
            APEX,
            T211,
            Proposal("logistic", 1.25),
            10_000,
            RngStream(14),
        )
        assert est.sigma == 1.25


def _pilot(kind, f, ta, tb, n_pilot, rng):
    """optimize_sigma's pilot rebuilt from the same stream: (z, w, f values, log p)."""
    base = Proposal(kind, 1.0)
    gen = rng.generator()
    z, w = base.sample(n_pilot, gen), base.sample(n_pilot, gen)
    return (z, w, *_f_and_logp(f, ta, tb, np.column_stack((z, w))))


def _log_form_objective(kind, z, w, fv, logp):
    """The pilot objective as log densities: log sigma -> mean(exp(log_a - logpdf_s(z) - logpdf_s(w)))."""
    base, mask = Proposal(kind, 1.0), fv != 0.0
    zm, wm = z[mask], w[mask]
    log_a = 2.0 * np.log(np.abs(fv[mask])) + 2.0 * logp[mask] - base.logpdf(zm) - base.logpdf(wm)

    def objective(s):
        prop = Proposal(kind, math.exp(s))
        return float(np.sum(np.exp(log_a - prop.logpdf(zm) - prop.logpdf(wm))) / z.size)

    return objective


@pytest.fixture
def searches(monkeypatch):
    """(x, evaluations) of each brent_min run inside montecarlo, in call order."""
    runs = []

    def recording(*args):
        runs.append(brent_min(*args))
        return runs[-1]

    monkeypatch.setattr(montecarlo, "brent_min", recording)
    return runs


class TestOptimizeSigma:
    def test_improves_on_unit_scale(self):
        f = FGenerator.total_variation()
        rng = RngStream(15)
        for kind in ("logistic", "student_t7"):
            sigma = optimize_sigma(f, APEX, T211, kind, 100_000, rng)
            # evaluate both scales on a fresh estimation stream
            var_opt = estimate_mc1(
                f, APEX, T211, Proposal(kind, sigma), 200_000, rng.derive(1)
            ).sample_variance
            var_unit = estimate_mc1(
                f, APEX, T211, Proposal(kind, 1.0), 200_000, rng.derive(1)
            ).sample_variance
            assert var_opt <= var_unit

    def test_deterministic_given_stream(self):
        f = FGenerator.total_variation()
        a = optimize_sigma(f, APEX, T211, "logistic", 50_000, RngStream(16))
        b = optimize_sigma(f, APEX, T211, "logistic", 50_000, RngStream(16))
        assert a == b

    @pytest.mark.parametrize("kind", ["logistic", "student_t7"])
    def test_is_the_argmin_of_its_pilot_objective(self, kind, searches):
        # the pilot objective rebuilt from the same stream, then minimized on a
        # coarse log-sigma grid over the bracket and a fine grid around its best
        f, n_pilot, rng = FGenerator.total_variation(), 20_000, RngStream(17)
        objective = _log_form_objective(kind, *_pilot(kind, f, APEX, T211, n_pilot, rng))
        coarse = np.linspace(math.log(0.05), math.log(50.0), 2001)
        best = coarse[np.argmin([objective(s) for s in coarse])]
        fine = np.linspace(best - 2 * (coarse[1] - coarse[0]), best + 2 * (coarse[1] - coarse[0]), 1001)
        want = math.exp(fine[np.argmin([objective(s) for s in fine])])

        sigma = optimize_sigma(f, APEX, T211, kind, n_pilot, rng)
        assert sigma == pytest.approx(want, rel=1e-4)
        (_, passes), = searches
        assert passes <= 20

    @pytest.mark.parametrize("kind", ["logistic", "student_t7"])
    @pytest.mark.parametrize("f", [FGenerator.total_variation(), FGenerator.kl()], ids=["tv", "kl"])
    def test_closed_form_pass_matches_the_log_form(self, kind, f):
        # a panel pair, with one extreme draw that overflows the logistic log
        # form at the small end of the bracket
        ta, tb = (LorentzParam(t) for t in PANEL_PAIRS[3])
        base = Proposal(kind, 1.0)
        gen = RngStream(18).generator()
        z, w = base.sample(20_000, gen), base.sample(20_000, gen)
        z[0] = 40.0
        fv, logp = _f_and_logp(f, ta, tb, np.column_stack((z, w)))
        logged = _log_form_objective(kind, z, w, fv, logp)
        closed = _pilot_objective(base, z, w, fv, logp)  # overwrites z, w, fv and logp
        finite = 0
        with np.errstate(over="ignore"):
            for s in np.linspace(math.log(0.05), math.log(50.0), 41):
                got, want = closed(s), logged(s)
                assert not math.isnan(got), math.exp(s)
                if math.isfinite(want):
                    finite += 1
                    assert got == pytest.approx(want, rel=1e-12), math.exp(s)
                else:
                    assert got == math.inf, math.exp(s)
        assert finite >= 30

    @pytest.mark.parametrize("kind", ["logistic", "student_t7"])
    def test_sigma_star_matches_the_log_form_search(self, kind, searches):
        f, n_pilot = FGenerator.total_variation(), 20_000
        for i, (a, b) in enumerate(PANEL_PAIRS):
            ta, tb = LorentzParam(a), LorentzParam(b)
            rng = RngStream(19).derive(i)
            sigma = optimize_sigma(f, ta, tb, kind, n_pilot, rng)
            objective = _log_form_objective(kind, *_pilot(kind, f, ta, tb, n_pilot, rng))
            x, evaluations = brent_min(objective, math.log(0.05), math.log(50.0), 1e-7)
            assert sigma == pytest.approx(math.exp(x), rel=1e-6), (a, b)
            assert searches[-1][1] == evaluations, (a, b)


class TestMc2:
    def test_tv_matches_quadrature_truth(self):
        est = estimate_mc2(
            FGenerator.total_variation(), APEX, T211, 400_000, RngStream(17)
        )
        se = math.sqrt(est.sample_variance / est.n)
        assert abs(est.estimate - 0.4685145) < 4.0 * se

    def test_zero_at_equal(self):
        est = estimate_mc2(FGenerator.total_variation(), T211, T211, 10_000, RngStream(18))
        assert est.estimate == 0.0

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            estimate_mc2(FGenerator.kl(), APEX, T211, 100, RngStream(0), eps=0.0)

    def test_kl_matches_closed_form(self):
        est = estimate_mc2(FGenerator.kl(), T211, APEX, 400_000, RngStream(19))
        se = math.sqrt(est.sample_variance / est.n)
        assert abs(est.estimate - hb.kld(T211, APEX)) < 4.0 * se


class TestPoincareDelegation:
    """Half-plane pairs are estimated on the hyperboloid through the d = 2 parameter map."""

    def test_kl_example_pair(self):
        th = SpdParam2(4.0, 0.25, 0.5)
        th2 = SpdParam2(0.5, 0.25, 2.0)
        est = estimate(
            FGenerator.kl(), param_h_to_l(th), param_h_to_l(th2), "mc1-t7", 400_000, RngStream(22), n_pilot=50_000
        )
        se = math.sqrt(est.sample_variance / est.n)
        assert abs(est.estimate - pc.kld(th, th2)) < 4.0 * se
        assert abs(est.estimate - 5.3604) < 0.05

    def test_hellinger_leaf_pair_plugin(self):
        th, th2 = SpdParam2(1, 0, 1), SpdParam2(0.5, 0, 2)
        est = estimate(
            FGenerator.squared_hellinger(), param_h_to_l(th), param_h_to_l(th2), "plugin", 400_000, RngStream(23)
        )
        se = math.sqrt(est.sample_variance / est.n)
        assert abs(est.estimate - pc.hellinger_sq(th, th2)) < 4.0 * se
        assert abs(est.estimate - 0.165) < 0.005

    def test_zero_at_equal(self):
        th = param_h_to_l(SpdParam2(1, 0, 1))
        est = estimate(FGenerator.total_variation(), th, th, "mc2", 10_000, RngStream(24))
        assert est.estimate == 0.0

    def test_explicit_sigma_skips_pilot(self):
        th, th2 = SpdParam2(1, 0, 1), SpdParam2(0.5, 0, 2)
        est = estimate(
            FGenerator.kl(), param_h_to_l(th), param_h_to_l(th2), "mc1-logistic", 50_000, RngStream(25), sigma=1.4
        )
        assert est.sigma == 1.4

    def test_unknown_method(self):
        th = param_h_to_l(SpdParam2(1, 0, 1))
        with pytest.raises(ValueError):
            estimate(FGenerator.kl(), th, th, "bogus", 10, RngStream(0))


class TestEstimateEntryPoint:
    @pytest.mark.parametrize("method", ["plugin", "mc1-logistic", "mc1-t7", "mc2"])
    def test_half_plane_is_the_parameter_map(self, method):
        th, th2 = SpdParam2(1, 0, 1), SpdParam2(0.5, 0, 2)
        lorentz = (LorentzParam((2.0, 0.0, 0.0)), LorentzParam((2.5, -1.5, 0.0)))
        f = FGenerator.total_variation()
        a = estimate(f, param_h_to_l(th), param_h_to_l(th2), method, 5_000, RngStream(26), shards=2, n_pilot=5_000)
        b = estimate(f, *lorentz, method, 5_000, RngStream(26), shards=2, n_pilot=5_000)
        assert (a.estimate, a.sample_variance, a.sigma) == (b.estimate, b.sample_variance, b.sigma)

    @pytest.mark.parametrize("method", ["plugin", "mc1-t7", "mc2"])
    @pytest.mark.parametrize("n, shards", [(0, 1), (1, 1), (1000, 0), (1000, -2)])
    def test_rejects_sizes_without_an_interval(self, method, n, shards):
        with pytest.raises(ValueError):
            estimate(FGenerator.kl(), APEX, T211, method, n, RngStream(0), sigma=1.0, shards=shards)

    def test_two_draws_give_an_interval(self):
        est = estimate(FGenerator.total_variation(), APEX, T211, "mc2", 2, RngStream(0))
        assert est.n == 2 and est.ci95[0] < est.ci95[1]


class TestUnbiasednessPanel:
    # five tame pairs where every generator has a finite closed form and the
    # plug-in weight keeps finite variance
    PANEL = [
        (LorentzParam((2.0, 0.0, 0.0)), LorentzParam((2.2, 0.2, 0.0))),
        (LorentzParam((2.0, 1.0, 1.0)), LorentzParam((2.3, 0.9, 1.1))),
        (LorentzParam((3.0, 1.0, 1.0)), LorentzParam((3.2, 1.1, 0.8))),
        (LorentzParam((1.5, 0.3, -0.2)), LorentzParam((1.7, 0.4, -0.1))),
        (LorentzParam((2.5, -0.5, 0.5)), LorentzParam((2.4, -0.4, 0.6))),
    ]
    GENERATORS = [
        (FGenerator.kl(), hb.kld),
        (FGenerator.squared_hellinger(), hb.hellinger_sq),
        (FGenerator.neyman_chi2(), hb.neyman_chi2),
    ]

    @pytest.mark.parametrize("pair_idx", range(5))
    def test_every_estimator_hits_the_closed_form(self, pair_idx):
        ta, tb = self.PANEL[pair_idx]
        n = 10**6
        rng = RngStream(900 + pair_idx)
        for gen, closed in self.GENERATORS:
            want = closed(ta, tb)
            assert math.isfinite(want)
            sl = optimize_sigma(gen, ta, tb, "logistic", 100_000, rng.derive(101))
            st = optimize_sigma(gen, ta, tb, "student_t7", 100_000, rng.derive(102))
            runs = [
                estimate_plugin(gen, ta, tb, n, rng.derive(11)),
                estimate_mc1(gen, ta, tb, Proposal("logistic", sl), n, rng.derive(12)),
                estimate_mc1(gen, ta, tb, Proposal("student_t7", st), n, rng.derive(13)),
                estimate_mc2(gen, ta, tb, n, rng.derive(14)),
            ]
            for est in runs:
                se = math.sqrt(est.sample_variance / est.n)
                assert abs(est.estimate - want) <= 4.0 * se, (gen.kind, est.estimate, want)


class TestEstimatorAgreement:
    def test_four_estimators_agree_on_a_tame_pair(self):
        # finite-variance pair: all four estimates agree within combined 4 SE
        f = FGenerator.total_variation()
        rng = RngStream(26)
        sl = optimize_sigma(f, APEX, T211, "logistic", 100_000, rng.derive(101))
        st = optimize_sigma(f, APEX, T211, "student_t7", 100_000, rng.derive(102))
        ests = [
            estimate_plugin(f, APEX, T211, 200_000, rng.derive(11)),
            estimate_mc1(f, APEX, T211, Proposal("logistic", sl), 200_000, rng.derive(12)),
            estimate_mc1(f, APEX, T211, Proposal("student_t7", st), 200_000, rng.derive(13)),
            estimate_mc2(f, APEX, T211, 200_000, rng.derive(14)),
        ]
        for i in range(4):
            for j in range(i + 1, 4):
                a, b = ests[i], ests[j]
                tol = 4.0 * math.sqrt(
                    a.sample_variance / a.n + b.sample_variance / b.n
                )
                assert abs(a.estimate - b.estimate) < tol


class TestShardMachinery:
    def test_shard_determinism_mc2(self):
        f = FGenerator.total_variation()
        a = estimate_mc2(f, APEX, T211, 30_000, RngStream(27), shards=3)
        b = estimate_mc2(f, APEX, T211, 30_000, RngStream(27), shards=3)
        assert a == b

    def test_worker_count_does_not_change_results(self, monkeypatch):
        f = FGenerator.total_variation()
        monkeypatch.setenv("HYPERSTAT_THREADS", "1")
        a = estimate_plugin(f, APEX, T211, 60_000, RngStream(28), shards=6)
        monkeypatch.setenv("HYPERSTAT_THREADS", "6")
        b = estimate_plugin(f, APEX, T211, 60_000, RngStream(28), shards=6)
        assert a == b

    def test_chan_merge_matches_flat_moments(self):
        # combined shard moments equal the one-pass moments of the pooled draws
        from hyperstat.montecarlo import _Moments

        rng = np.random.default_rng(0)
        chunks = [rng.exponential(size=k) for k in (101, 999, 57, 4000)]
        acc = _Moments()
        for c in chunks:
            acc.add_array(c)
        pooled = np.concatenate(chunks)
        assert acc.mean == pytest.approx(pooled.mean(), rel=1e-13)
        assert acc.variance() == pytest.approx(pooled.var(ddof=1), rel=1e-12)


BLOCK = sampling._BLOCK
BLOCK_SIZES = [2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]
KERNEL_PAIRS = [(APEX, T211), tuple(LorentzParam(t) for t in PANEL_PAIRS[3])]


@pytest.fixture
def shard_weights(monkeypatch):
    """The per-shard weight arrays of each estimator call, in call order."""
    seen = []
    original = montecarlo._sharded

    def recording(*args):
        acc, weights = original(*args)
        seen.append(weights)
        return acc, weights

    monkeypatch.setattr(montecarlo, "_sharded", recording)
    return seen


def _estimate_and_reference(method, f, ta, tb, n, rng, shards, f_and_logp):
    """``method``'s estimate, and its whole-array shard weights as ref(size, stream)."""
    if method == "plugin":
        est = estimate_plugin(f, ta, tb, n, rng, shards=shards)
        return est, lambda size, stream: ref_plugin_weights(f, ta, tb, size, stream, f_and_logp)
    if method == "mc2":
        est = estimate_mc2(f, ta, tb, n, rng, shards=shards)
        return est, lambda size, stream: ref_mc2_weights(f, ta, tb, size, stream, f_and_logp=f_and_logp)
    kind = "logistic" if method == "mc1-logistic" else "student_t7"
    est = estimate_mc1(f, ta, tb, Proposal(kind, 1.7), n, rng, shards=shards)
    return est, lambda size, stream: ref_mc1_weights(f, ta, tb, kind, 1.7, size, stream, f_and_logp)


class TestBlockKernels:
    """The block kernels against the whole-array reference of tests/helpers.py, bit for bit."""

    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("n", BLOCK_SIZES)
    @pytest.mark.parametrize("method", ["plugin", "mc1-logistic", "mc1-t7", "mc2"])
    @pytest.mark.parametrize("pair", [0, 1])
    def test_estimators_match_whole_array_reference(self, method, n, shards, pair, shard_weights):
        f = FGenerator.squared_hellinger() if pair else FGenerator.total_variation()
        ta, tb = KERNEL_PAIRS[pair]
        rng = RngStream(61).derive(pair, n, shards)
        est, ref = _estimate_and_reference(method, f, ta, tb, n, rng, shards, ref_f_and_logp)
        sizes = montecarlo._shard_sizes(n, shards)
        want = [ref(size, rng.derive(i)) for i, size in enumerate(sizes)]
        (got,) = shard_weights
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == w.shape and np.array_equal(g, w)
        assert (est.estimate, est.sample_variance) == ref_moments(want)
        if method == "plugin":
            assert est.tail_index == montecarlo._hill_tail_index(np.concatenate(want))

    @pytest.mark.parametrize("method", ["plugin", "mc1-logistic", "mc1-t7", "mc2"])
    @pytest.mark.parametrize("pair", [0, 1])
    def test_weights_match_the_two_density_form(self, method, pair, shard_weights):
        # The fused log ratio against log p' - log p from two einsum-form
        # densities.  That difference cancels, so where p' ~ p a small weight
        # can differ by more than 1e-12 of itself (1e-11 seen); the weights
        # are held to 1e-12 of the largest one, and the estimate to 1e-12.
        f = FGenerator.squared_hellinger() if pair else FGenerator.total_variation()
        ta, tb = KERNEL_PAIRS[pair]
        n, rng = 3 * BLOCK + 7, RngStream(67).derive(pair)
        est, ref = _estimate_and_reference(method, f, ta, tb, n, rng, 1, einsum_f_and_logp)
        want = ref(n, rng.derive(0))
        ((got,),) = shard_weights
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        assert est.estimate == pytest.approx(float(np.mean(want)), rel=1e-12)

    @pytest.mark.parametrize("n_pilot", BLOCK_SIZES)
    @pytest.mark.parametrize("kind", ["logistic", "student_t7"])
    def test_pilot_objective_matches_whole_array_reference(self, kind, n_pilot):
        f, (ta, tb) = FGenerator.total_variation(), KERNEL_PAIRS[1]
        z, w, fv, logp = ref_pilot(kind, f, ta, tb, n_pilot, RngStream(62).derive(n_pilot))
        fv[n_pilot // 2] = 0.0  # a term with a = 0, which the mask drops
        got = _pilot_objective(Proposal(kind, 1.0), z, w, fv, logp)
        want = ref_pilot_objective(kind, z, w, fv, logp)
        with np.errstate(over="ignore"):
            for s in np.linspace(math.log(0.05), math.log(50.0), 9):
                assert got(s) == want(s), math.exp(s)

    @pytest.mark.parametrize("n_pilot", BLOCK_SIZES)
    @pytest.mark.parametrize("kind", ["logistic", "student_t7"])
    def test_sigma_star_matches_whole_array_reference(self, kind, n_pilot):
        f, (ta, tb) = FGenerator.kl(), KERNEL_PAIRS[1]
        rng = RngStream(63).derive(n_pilot)
        objective = ref_pilot_objective(kind, *ref_pilot(kind, f, ta, tb, n_pilot, rng))
        with np.errstate(over="ignore"):
            want = math.exp(brent_min(objective, math.log(0.05), math.log(50.0), 1e-7)[0])
            assert optimize_sigma(f, ta, tb, kind, n_pilot, rng) == want


class TestOldForms:
    """The tangent half-angle and the moment-form sigma search against the forms they replaced."""

    ULP1 = np.spacing(1.0)

    def test_half_angle_matches_libm(self):
        zeta = np.concatenate((
            [1e-300, 0.5 * math.pi, math.pi, 1.5 * math.pi, np.nextafter(2.0 * math.pi, 0.0)],
            RngStream(68).generator().uniform(0.0, 2.0 * math.pi, size=100_000),
        ))
        got = np.empty((2, zeta.size))
        _cos_sin(zeta, got)
        assert np.array_equal(got, np.array(ref_cos_sin(zeta)))
        for row, trig in zip(got, (np.cos, np.sin)):
            assert np.max(np.abs(row - trig(zeta))) <= 4 * self.ULP1

    @pytest.mark.parametrize("pair", [0, 1])
    def test_mc2_weights_match_libm_angle(self, pair, shard_weights):
        f = FGenerator.squared_hellinger() if pair else FGenerator.total_variation()
        ta, tb = KERNEL_PAIRS[pair]
        n, rng = 3 * BLOCK + 7, RngStream(69).derive(pair)
        estimate_mc2(f, ta, tb, n, rng)
        want = libm_mc2_weights(f, ta, tb, n, rng.derive(0))
        ((got,),) = shard_weights
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("n_pilot", BLOCK_SIZES)
    @pytest.mark.parametrize("kind", ["logistic", "student_t7"])
    def test_pilot_objective_matches_per_point_pass(self, kind, n_pilot):
        f, (ta, tb) = FGenerator.total_variation(), KERNEL_PAIRS[1]
        z, w, fv, logp = ref_pilot(kind, f, ta, tb, n_pilot, RngStream(70).derive(n_pilot))
        fv[n_pilot // 2] = 0.0  # a term with a = 0, which the mask drops
        want = per_point_pilot_objective(kind, z, w, fv, logp)
        got = _pilot_objective(Proposal(kind, 1.0), z, w, fv, logp)
        for s in np.linspace(math.log(0.05), math.log(50.0), 9):
            assert got(s) == pytest.approx(want(s), rel=1e-13), math.exp(s)

    @pytest.mark.parametrize("kind", ["logistic", "student_t7"])
    def test_sigma_star_matches_per_point_search(self, kind):
        f = FGenerator.kl()
        for i, (a, b) in enumerate(PANEL_PAIRS):
            ta, tb = LorentzParam(a), LorentzParam(b)
            rng = RngStream(71).derive(i)
            objective = per_point_pilot_objective(kind, *ref_pilot(kind, f, ta, tb, 20_000, rng))
            want = math.exp(brent_min(objective, math.log(0.05), math.log(50.0), 1e-7)[0])
            assert optimize_sigma(f, ta, tb, kind, 20_000, rng) == pytest.approx(want, rel=1e-7), (a, b)


def _layouts(rows: np.ndarray) -> dict:
    """The same (n, d) values as a C-ordered, an F-ordered and a row-strided array."""
    strided = np.zeros((2 * rows.shape[0], rows.shape[1]))
    strided[::2] = rows
    return {"C": np.ascontiguousarray(rows), "F": np.asfortranarray(rows), "strided": strided[::2]}


class TestKernelInputs:
    # an odd row count: BLAS treats the last row of a column-major operand apart
    ROWS = np.random.default_rng(64).standard_normal((BLOCK + 1, 2)) * 3.0

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_log_density_chart_is_layout_free_and_leaves_input(self, layout):
        pts = _layouts(self.ROWS)[layout]
        before = pts.copy()
        want = ref_log_density_chart(T211, self.ROWS)
        assert np.array_equal(hb.log_density_chart(T211, pts), want)
        assert np.array_equal(pts, before)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("kind", ["logistic", "student_t7"])
    def test_logpdf_is_layout_free_and_leaves_input(self, kind, layout):
        pts = _layouts(self.ROWS)[layout]
        before = pts.copy()
        prop = Proposal(kind, 1.7)
        for column in (0, 1):
            want = ref_logpdf(kind, 1.7, self.ROWS[:, column])
            assert np.array_equal(prop.logpdf(pts[:, column]), want)
        assert np.array_equal(prop.logpdf(pts), ref_logpdf(kind, 1.7, self.ROWS))
        assert np.array_equal(pts, before)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_log_ratio_chart_is_layout_free_and_leaves_input(self, layout):
        pts = _layouts(self.ROWS)[layout]
        before = pts.copy()
        tb = LorentzParam(PANEL_PAIRS[3][1])
        assert np.array_equal(hb.log_ratio_chart(T211, tb, pts), ref_log_ratio_chart(T211, tb, self.ROWS))
        assert np.array_equal(pts, before)

    def test_log_ratio_chart_is_the_density_difference(self):
        # The einsum-form densities are O(10) here and their difference
        # cancels, so the fused ratio is held to 1e-12 absolute.
        tb = LorentzParam(PANEL_PAIRS[3][1])
        want = einsum_log_density_chart(tb, self.ROWS) - einsum_log_density_chart(T211, self.ROWS)
        np.testing.assert_allclose(hb.log_ratio_chart(T211, tb, self.ROWS), want, rtol=0, atol=1e-12)

    def test_log_density_chart_d3_matches_einsum_form(self):
        theta = LorentzParam((3.0, 1.0, -0.5, 0.7))
        rows = np.random.default_rng(65).standard_normal((BLOCK + 1, 3)) * 3.0
        want = einsum_log_density_chart(theta, rows)
        for pts in _layouts(rows).values():
            # |x|^2 and the spatial product are summed column by column, the
            # einsum and the matrix product by row: they may differ in the last bit
            np.testing.assert_allclose(hb.log_density_chart(theta, pts), want, rtol=1e-14, atol=1e-14)


class TestWorkingSet:
    """Peak array memory of a stage, in doubles per draw (8 bytes x n)."""

    @pytest.mark.parametrize("kind", ["logistic", "student_t7"])
    def test_sigma_search_holds_four_pilot_arrays(self, kind):
        # z and w, sqrt(a) over the f values, the pass terms over log p, plus
        # block temporaries
        n_pilot, (ta, tb) = 200_000, KERNEL_PAIRS[1]
        f = FGenerator.total_variation()
        peak = traced_peak(lambda: optimize_sigma(f, ta, tb, kind, n_pilot, RngStream(66)))
        assert peak <= 5 * 8 * n_pilot
