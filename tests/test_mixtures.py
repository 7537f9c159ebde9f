import math

import numpy as np
import pytest

from helpers import hyperboloid_integral, plain_em
from hyperstat import hyperboloid as hb
from hyperstat import mixtures
from hyperstat import poincare as pc
from hyperstat.geometry import (
    LorentzParam,
    SpdParam2,
    lorentz_invariant,
    lorentz_random_element,
    mobius_act_param,
    mobius_act_point,
    random_mobius,
    UpperHalfPoint,
)
from hyperstat.mixtures import (
    EmTrace,
    FitError,
    Mixture,
    em_fit,
    mixture_log_density,
    mixture_log_density_array,
    mixture_sample,
)
from hyperstat.sampling import RngStream, hyperboloid_sample


def two_component_mixture() -> Mixture:
    # a concentrated law at the apex against a boosted, offset one
    return Mixture(
        family="hyperboloid",
        weights=(0.35, 0.65),
        components=(LorentzParam((6.0, 0.0, 0.0)), LorentzParam((4.0, 2.0, -2.0))),
    )


class TestMixtureContainer:
    def test_weight_validation(self):
        with pytest.raises(ValueError):
            Mixture("hyperboloid", (0.5, 0.6), (LorentzParam((1, 0, 0)),) * 2)
        with pytest.raises(ValueError):
            Mixture("nope", (1.0,), (LorentzParam((1, 0, 0)),))
        with pytest.raises(ValueError):
            Mixture("hyperboloid", (1.0,), ())


class TestMixtureDensity:
    def test_single_component_reduces(self):
        comp = LorentzParam((2.0, 1.0, 1.0))
        m = Mixture("hyperboloid", (1.0,), (comp,))
        pt = np.array([[0.3, -0.2]])
        assert mixture_log_density_array(m, pt)[0] == pytest.approx(
            float(hb.log_density_chart(comp, pt)[0]), rel=1e-14
        )

    def test_duplicate_components_collapse(self):
        comp = LorentzParam((2.0, 1.0, 1.0))
        m = Mixture("hyperboloid", (0.3, 0.7), (comp, comp))
        pt = np.array([[1.0, 0.5]])
        assert mixture_log_density_array(m, pt)[0] == pytest.approx(
            float(hb.log_density_chart(comp, pt)[0]), rel=1e-12
        )

    def test_normalization_by_quadrature(self):
        m = two_component_mixture()
        mass = hyperboloid_integral(
            lambda a, b: math.exp(float(mixture_log_density_array(m, np.array([[a, b]]))[0])),
            epsabs=1e-9,
        )
        assert mass == pytest.approx(1.0, abs=1e-5)

    def test_point_object_entry(self):
        m = Mixture("poincare", (1.0,), (SpdParam2(1, 0, 1),))
        got = mixture_log_density(m, UpperHalfPoint(0.0, 1.0))
        assert got == pytest.approx(-math.log(math.pi), abs=1e-14)


class TestMixtureSampling:
    def test_degenerate_weights(self):
        comp = (LorentzParam((4.0, 0.0, 0.0)), LorentzParam((1.0, 0.0, 0.0)))
        m = Mixture("hyperboloid", (1.0, 0.0), comp)
        pts, labels = mixture_sample(m, 5000, RngStream(60), return_labels=True)
        assert np.all(labels == 0)

    def test_component_frequencies(self):
        m = two_component_mixture()
        n = 100_000
        _, labels = mixture_sample(m, n, RngStream(61), return_labels=True)
        freq = np.mean(labels == 0)
        se = math.sqrt(0.35 * 0.65 / n)
        assert abs(freq - 0.35) < 3.0 * se

    def test_moments_match_mixture_gradient(self):
        m = two_component_mixture()
        n = 200_000
        pts = mixture_sample(m, n, RngStream(62))
        stats = hb.suff_stats_chart(pts)
        want = 0.35 * hb.grad_cumulant(m.components[0]) + 0.65 * hb.grad_cumulant(
            m.components[1]
        )
        se = stats.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(stats.mean(axis=0) - want) < 3.5 * se)

    def test_determinism(self):
        m = two_component_mixture()
        a = mixture_sample(m, 400, RngStream(63))
        b = mixture_sample(m, 400, RngStream(63))
        assert np.array_equal(a, b)


class TestEmFit:
    @pytest.mark.parametrize("k", [0, -1])
    def test_nonpositive_k_rejected(self, k):
        pts = hyperboloid_sample(LorentzParam((2.0, 1.0, 1.0)), 100, RngStream(64))
        with pytest.raises(ValueError):
            em_fit(pts, k, "hyperboloid", RngStream(65))

    def test_single_component_equals_mle(self):
        pts = hyperboloid_sample(LorentzParam((2.0, 1.0, 1.0)), 4000, RngStream(64))
        mix, trace = em_fit(pts, 1, "hyperboloid", RngStream(65))
        direct = hb.mle(pts)
        assert mix.weights == (1.0,)
        assert mix.components[0].vec == pytest.approx(direct.vec, rel=1e-9)
        assert trace.iterations >= 1

    def test_poincare_single_component_equals_mle(self):
        from hyperstat.sampling import poincare_sample

        pts = poincare_sample(SpdParam2(1.0, 0.2, 2.0), 4000, RngStream(66))
        mix, _ = em_fit(pts, 1, "poincare", RngStream(67))
        direct = pc.mle(pts)
        assert (mix.components[0].a, mix.components[0].b, mix.components[0].c) == pytest.approx(
            (direct.a, direct.b, direct.c), rel=1e-9
        )

    def test_d3_mle_and_single_component_fit(self):
        # Both read d from the width of the statistic; nothing here is d = 2.
        pts = np.random.default_rng(31).normal(0.0, 1.0, (3000, 3)) + [0.5, -0.2, 0.1]
        want = hb.mle_from_moment(hb.suff_stats_chart(pts).mean(axis=0), 3)
        mix, _ = em_fit(pts, 1, "hyperboloid", RngStream(32))
        for got in (hb.mle(pts), mix.components[0]):
            assert got.d == 3
            assert got.vec == pytest.approx(want.vec, rel=1e-9)

    def test_two_component_recovery(self):
        truth = two_component_mixture()
        pts = mixture_sample(truth, 5000, RngStream(68))
        mix, trace = em_fit(pts, 2, "hyperboloid", RngStream(69))
        order = np.argsort([c.theta[1] for c in mix.components])
        truth_order = np.argsort([c.theta[1] for c in truth.components])
        got_w = np.asarray(mix.weights)[order]
        want_w = np.asarray(truth.weights)[truth_order]
        assert np.all(np.abs(got_w - want_w) < 0.05)
        for i, j in zip(order, truth_order):
            got_t = lorentz_invariant(mix.components[i], mix.components[i]).s1
            want_t = lorentz_invariant(truth.components[j], truth.components[j]).s1
            assert abs(got_t - want_t) / want_t < 0.10
            cross_got = lorentz_invariant(mix.components[order[0]], mix.components[order[1]]).s3
            cross_want = lorentz_invariant(
                truth.components[truth_order[0]], truth.components[truth_order[1]]
            ).s3
            assert abs(cross_got - cross_want) / abs(cross_want) < 0.10

    def test_loglik_monotone_on_random_fits(self):
        base = RngStream(70)
        for trial in range(20):
            gen_stream = base.derive(trial)
            k = 1 + trial % 3
            truth = Mixture(
                family="hyperboloid",
                weights=tuple(np.full(k, 1.0 / k)),
                components=tuple(
                    LorentzParam((3.0 + j, 1.5 * j * (-1) ** j, 0.5 * j)) for j in range(k)
                ),
            )
            pts = mixture_sample(truth, 600, gen_stream)
            _, trace = em_fit(pts, k, "hyperboloid", gen_stream.derive(999))
            diffs = np.diff(np.asarray(trace.loglik))
            assert np.all(diffs >= -1e-10)

    def test_label_permutation_invariance_of_loglik(self):
        truth = two_component_mixture()
        pts = mixture_sample(truth, 2000, RngStream(71))
        mix, trace = em_fit(pts, 2, "hyperboloid", RngStream(72))
        permuted = Mixture(
            family=mix.family,
            weights=(mix.weights[1], mix.weights[0]),
            components=(mix.components[1], mix.components[0]),
        )
        ll = float(np.mean(mixture_log_density_array(mix, pts)))
        ll_perm = float(np.mean(mixture_log_density_array(permuted, pts)))
        assert ll == pytest.approx(ll_perm, rel=1e-12)

    def test_equivariance_under_group_action(self):
        # with shared initial responsibilities, fitting transformed data gives
        # the transformed fit
        truth = two_component_mixture()
        pts = mixture_sample(truth, 1500, RngStream(73))
        n = pts.shape[0]
        rng = np.random.default_rng(5)
        resp = np.zeros((n, 2))
        resp[np.arange(n), rng.integers(0, 2, size=n)] = 1.0

        g = lorentz_random_element(2, np.random.default_rng(6))
        lifts = np.column_stack((np.sqrt(1 + np.sum(pts**2, axis=1)), pts))
        moved = (g.matrix @ lifts.T).T[:, 1:]

        mix_a, _ = em_fit(pts, 2, "hyperboloid", RngStream(74), init_resp=resp)
        mix_b, _ = em_fit(moved, 2, "hyperboloid", RngStream(74), init_resp=resp)
        assert np.asarray(mix_b.weights) == pytest.approx(
            np.asarray(mix_a.weights), abs=1e-8
        )
        for ca, cb in zip(mix_a.components, mix_b.components):
            assert g.apply_param(ca).vec == pytest.approx(cb.vec, rel=1e-6, abs=1e-6)

    def test_poincare_equivariance(self):
        from hyperstat.sampling import poincare_sample

        pts = poincare_sample(SpdParam2(2.0, 0.3, 1.0), 1200, RngStream(75))
        n = pts.shape[0]
        rng = np.random.default_rng(7)
        resp = np.zeros((n, 2))
        resp[np.arange(n), rng.integers(0, 2, size=n)] = 1.0
        g = random_mobius(np.random.default_rng(8))
        moved = np.array(
            [
                (w.x, w.y)
                for w in (
                    mobius_act_point(g, UpperHalfPoint(x, y)) for x, y in pts
                )
            ]
        )
        mix_a, _ = em_fit(pts, 2, "poincare", RngStream(76), init_resp=resp)
        mix_b, _ = em_fit(moved, 2, "poincare", RngStream(76), init_resp=resp)
        for ca, cb in zip(mix_a.components, mix_b.components):
            moved_param = mobius_act_param(g, ca)
            assert (moved_param.a, moved_param.b, moved_param.c) == pytest.approx(
                (cb.a, cb.b, cb.c), rel=1e-6
            )

    def test_too_few_points(self):
        with pytest.raises(FitError):
            em_fit(np.zeros((3, 2)) + [[0.1, 0.2]], 2, "hyperboloid", RngStream(0))

    def test_collapse_raises_after_retries(self):
        # all points identical: every split collapses
        pts = np.tile(np.array([[0.4, -0.1]]), (50, 1))
        with pytest.raises(FitError):
            em_fit(pts, 2, "hyperboloid", RngStream(77))

    def test_fit_determinism(self):
        truth = two_component_mixture()
        pts = mixture_sample(truth, 1000, RngStream(78))
        mix_a, tr_a = em_fit(pts, 2, "hyperboloid", RngStream(79))
        mix_b, tr_b = em_fit(pts, 2, "hyperboloid", RngStream(79))
        assert mix_a.weights == mix_b.weights
        assert all(ca.vec == pytest.approx(cb.vec, rel=0) for ca, cb in zip(mix_a.components, mix_b.components))
        assert tr_a.loglik == tr_b.loglik


def _component_vec(c) -> np.ndarray:
    return c.vec if isinstance(c, LorentzParam) else c.as_vector()


def _scipy_logsumexp(a: np.ndarray) -> np.ndarray:
    # scipy's logsumexp on the C-ordered (n, k) log-joint, the call the
    # E-step used to make.
    from scipy.special import logsumexp

    return logsumexp(np.ascontiguousarray(a.T), axis=1)


def _lse_input(k: int) -> np.ndarray:
    gen = np.random.default_rng(100 + k)
    n = 4000
    a = gen.normal(size=(k, n)) * gen.choice([1.0, 30.0, 300.0, 1e3], size=n)
    a[:, ::5] = np.round(a[:, ::5])  # ties at the column max
    a[:, 1::11] = a[0, 1::11]  # every term tied
    for j, v in enumerate([np.inf, -np.inf, np.nan]):
        a[gen.integers(k), 3 + j :: 17] = v
    a[:, 7::97] = -np.inf  # empty columns
    return a


class TestLogSumExp:
    """The E-step's own log-sum-exp against scipy's, bit for bit."""

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_matches_scipy_bitwise(self, k):
        a = _lse_input(k)
        assert np.array_equal(mixtures._logsumexp(a), _scipy_logsumexp(a), equal_nan=True)

    @pytest.mark.parametrize("k", [8, 12])
    def test_many_components_match_scipy_to_rounding(self, k):
        # From 8 terms on numpy sums scipy's layout pairwise, not in order.
        a = _lse_input(k)
        np.testing.assert_allclose(mixtures._logsumexp(a), _scipy_logsumexp(a), rtol=1e-15, atol=0)

    @pytest.mark.parametrize(
        "column",
        [[-np.inf, -np.inf], [np.inf, 1.0], [np.nan, 1.0], [1.0, 1.0, 1.0], [800.0, -800.0], [np.inf, np.inf]],
    )
    def test_edge_columns(self, column):
        a = np.array(column)[:, None]
        assert np.array_equal(mixtures._logsumexp(a), _scipy_logsumexp(a), equal_nan=True)

    @pytest.mark.parametrize(
        "family, truth",
        [
            ("hyperboloid", ((0.35, 0.65), [(6.0, 0.0, 0.0), (4.0, 2.0, -2.0)])),
            ("hyperboloid", ((0.3, 0.3, 0.4), [(6.0, 0.0, 0.0), (5.0, 3.0, -3.0), (5.0, -3.0, 3.0)])),
            ("poincare", ((0.35, 0.65), [(3.0, 0.0, 3.0), (3.0, -1.0, 1.0)])),
            ("poincare", ((0.3, 0.3, 0.4), [(3.0, 0.0, 3.0), (4.0, -1.5, 1.0), (1.0, 1.5, 4.0)])),
        ],
    )
    def test_fit_unchanged_under_scipy(self, monkeypatch, family, truth):
        # Swapping in scipy's logsumexp must not move a single bit of the fit.
        weights, comps = truth
        cls = LorentzParam if family == "hyperboloid" else (lambda v: SpdParam2(*v))
        m = Mixture(family, weights, tuple(cls(c) for c in comps))
        k = m.k
        pts = mixture_sample(m, 3000, RngStream(80 + k))
        resp = np.zeros((pts.shape[0], k))
        resp[np.arange(pts.shape[0]), np.random.default_rng(9).integers(0, k, size=pts.shape[0])] = 1.0

        def run():
            fits = [
                em_fit(pts, k, family, RngStream(81)),
                em_fit(pts, k, family, RngStream(81), init_resp=resp),
            ]
            return fits, mixture_log_density_array(m, pts)

        own_fits, own_density = run()
        monkeypatch.setattr(mixtures, "_logsumexp", _scipy_logsumexp)
        ref_fits, ref_density = run()
        assert np.array_equal(own_density, ref_density)
        for (mix_a, tr_a), (mix_b, tr_b) in zip(own_fits, ref_fits):
            assert mix_a.weights == mix_b.weights
            for ca, cb in zip(mix_a.components, mix_b.components):
                assert np.array_equal(_component_vec(ca), _component_vec(cb))
            assert tr_a.loglik == tr_b.loglik
            assert tr_a.iterations == tr_b.iterations
            assert np.array_equal(tr_a.effective_counts, tr_b.effective_counts)


_SQUAREM_TRUTHS = [
    ("hyperboloid", (0.35, 0.65), [(6.0, 0.0, 0.0), (4.0, 2.0, -2.0)]),
    ("hyperboloid", (0.3, 0.3, 0.4), [(6.0, 0.0, 0.0), (5.0, 3.0, -3.0), (5.0, -3.0, 3.0)]),
    ("poincare", (0.35, 0.65), [(3.0, 0.0, 3.0), (3.0, -1.0, 1.0)]),
    ("poincare", (0.3, 0.3, 0.4), [(3.0, 0.0, 3.0), (4.0, -1.5, 1.0), (1.0, 1.5, 4.0)]),
]


def _truth_mixture(family, weights, comps) -> Mixture:
    cls = LorentzParam if family == "hyperboloid" else (lambda v: SpdParam2(*v))
    return Mixture(family, weights, tuple(cls(c) for c in comps))


def _random_resp(n: int, k: int, seed: int) -> np.ndarray:
    resp = np.zeros((n, k))
    resp[np.arange(n), np.random.default_rng(seed).integers(0, k, size=n)] = 1.0
    return resp


def _rel_dist(a, b) -> float:
    return float(np.linalg.norm(_component_vec(a) - _component_vec(b)) / np.linalg.norm(_component_vec(b)))


class TestSquarem:
    """The accelerated fit against plain EM, the group actions and its safeguard."""

    @pytest.mark.parametrize("family, weights, comps", _SQUAREM_TRUTHS)
    def test_against_plain_em(self, family, weights, comps):
        truth = _truth_mixture(family, weights, comps)
        k = truth.k
        for r in range(6):
            pts = mixture_sample(truth, 3000, RngStream(500 + 10 * k).derive(r))
            resp = _random_resp(pts.shape[0], k, 40 * k + r)
            mix, trace = em_fit(pts, k, family, RngStream(1), init_resp=resp)
            _, plain_ll = plain_em(pts, family, resp)
            best, _ = plain_em(pts, family, resp, tol=1e-12)
            assert np.all(np.diff(trace.loglik) >= -1e-10)
            assert trace.loglik[-1] >= plain_ll[-1] - 1e-10
            assert trace.iterations < len(plain_ll)
            for got, want in zip(mix.components, best.components):
                assert _rel_dist(got, want) < 1e-4
            np.testing.assert_allclose(mix.weights, best.weights, rtol=1e-4)

    @pytest.mark.parametrize("family, weights, comps", _SQUAREM_TRUTHS + [
        ("hyperboloid", (1.0,), [(2.0, 1.0, 1.0)]),
        ("poincare", (1.0,), [(2.0, 0.3, 1.0)]),
    ])
    def test_reported_loglik_is_the_fitted_mixtures(self, family, weights, comps):
        truth = _truth_mixture(family, weights, comps)
        pts = mixture_sample(truth, 2000, RngStream(90 + truth.k))
        mix, trace = em_fit(pts, truth.k, family, RngStream(91))
        assert np.mean(mixture_log_density_array(mix, pts)) == trace.loglik[-1]
        logs = mixtures._log_joint(mixtures._FAMILIES[family], mix.weights, mix.components, pts)
        resp = np.exp(logs - mixtures._logsumexp(logs))
        np.testing.assert_allclose(trace.effective_counts, resp.sum(axis=1), rtol=1e-12)

    def test_lorentz_equivariance_same_iterations(self):
        truth = two_component_mixture()
        pts = mixture_sample(truth, 1500, RngStream(73))
        resp = _random_resp(pts.shape[0], 2, 5)
        g = lorentz_random_element(2, np.random.default_rng(6))
        lifts = np.column_stack((np.sqrt(1 + np.sum(pts**2, axis=1)), pts))
        moved = (g.matrix @ lifts.T).T[:, 1:]
        mix_a, tr_a = em_fit(pts, 2, "hyperboloid", RngStream(74), init_resp=resp)
        mix_b, tr_b = em_fit(moved, 2, "hyperboloid", RngStream(74), init_resp=resp)
        assert tr_a.iterations == tr_b.iterations
        assert tr_a.rejected_jumps == tr_b.rejected_jumps
        for ca, cb in zip(mix_a.components, mix_b.components):
            assert g.apply_param(ca).vec == pytest.approx(cb.vec, rel=1e-6, abs=1e-6)

    def test_mobius_equivariance_same_iterations(self):
        truth = _truth_mixture(*_SQUAREM_TRUTHS[2])
        pts = mixture_sample(truth, 1200, RngStream(75))
        resp = _random_resp(pts.shape[0], 2, 7)
        g = random_mobius(np.random.default_rng(8))
        moved = np.array(
            [(w.x, w.y) for w in (mobius_act_point(g, UpperHalfPoint(x, y)) for x, y in pts)]
        )
        mix_a, tr_a = em_fit(pts, 2, "poincare", RngStream(76), init_resp=resp)
        mix_b, tr_b = em_fit(moved, 2, "poincare", RngStream(76), init_resp=resp)
        assert tr_a.iterations == tr_b.iterations
        assert tr_a.rejected_jumps == tr_b.rejected_jumps
        for ca, cb in zip(mix_a.components, mix_b.components):
            moved_param = mobius_act_param(g, ca)
            assert (moved_param.a, moved_param.b, moved_param.c) == pytest.approx(
                (cb.a, cb.b, cb.c), rel=1e-6
            )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family, theta", [
        ("hyperboloid", LorentzParam((2.0, 1.0, 1.0))),
        ("poincare", SpdParam2(2.0, 0.3, 1.0)),
    ])
    def test_single_component_stops_at_the_fixed_point(self, family, theta):
        # k = 1: every responsibility is 1, so the first map repeats the start.
        pts = mixtures._FAMILIES[family].sample(theta, 1000, RngStream(92))
        _, trace = em_fit(pts, 1, family, RngStream(93))
        assert trace.iterations == 2
        assert trace.loglik[0] == trace.loglik[1]
        assert trace.rejected_jumps == 0

    @pytest.mark.filterwarnings("error")
    def test_hard_responsibilities_stop_at_the_fixed_point(self):
        # Two concentrated laws far apart: responsibilities round to exactly
        # 0 and 1, so the map fixes the true labels and the first step r is 0.
        truth = Mixture(
            "hyperboloid",
            (0.4, 0.6),
            (LorentzParam((50.0, 0.0, 0.0)), LorentzParam((50.0 * math.cosh(3.0), 50.0 * math.sinh(3.0), 0.0))),
        )
        pts, labels = mixture_sample(truth, 1000, RngStream(94), return_labels=True)
        resp = np.zeros((pts.shape[0], 2))
        resp[np.arange(pts.shape[0]), labels] = 1.0
        mix, trace = em_fit(pts, 2, "hyperboloid", RngStream(95), init_resp=resp)
        assert trace.iterations == 2
        assert np.array_equal(trace.effective_counts, resp.sum(axis=0))
        assert mix.weights == tuple(resp.sum(axis=0) / pts.shape[0])

    def test_rejected_jumps_keep_the_trace_monotone(self):
        # A one-component sample fitted with k = 2: one weight shrinks toward
        # collapse, and extrapolated jumps overshoot.  Seeded so that some are
        # rejected after their E-step (log-likelihood below the second map's)
        # and some before it (a count below 2 or a moment outside the domain).
        pts = hyperboloid_sample(LorentzParam((2.0, 0.5, 0.0)), 1000, RngStream(3))
        mix, trace = em_fit(pts, 2, "hyperboloid", RngStream(103))
        evaluated_rejections = trace.iterations - len(trace.loglik)
        assert evaluated_rejections >= 1
        assert trace.rejected_jumps > evaluated_rejections
        assert np.all(np.diff(trace.loglik) >= -1e-10)
        assert np.mean(mixture_log_density_array(mix, pts)) == trace.loglik[-1]
