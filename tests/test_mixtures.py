import math

import numpy as np
import pytest

import os
import subprocess
import sys

from helpers import hyperboloid_integral, plain_em, ref_kmeanspp_responsibilities
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

    def test_nan_weights_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Mixture("poincare", (math.nan, math.nan), (SpdParam2(1.0, 0.0, 1.0), SpdParam2(2.0, 0.0, 1.0)))


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
        got = mixture_log_density_array(m, [[0, 1]])
        assert got[0] == pytest.approx(-math.log(math.pi), abs=1e-14)


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

    @pytest.mark.parametrize("family", ["poincare", "hyperboloid"])
    def test_one_component_failure_makes_one_attempt(self, family, monkeypatch):
        # k = 1 always starts from all-ones responsibilities, so a restart
        # would repeat the failing computation.
        calls = []
        squarem = mixtures._squarem
        monkeypatch.setattr(mixtures, "_squarem", lambda *a: calls.append(1) or squarem(*a))
        pts = np.tile(np.array([[0.5, 1.5]]), (50, 1))
        with pytest.raises(FitError, match=r"^EM failed after 1 initialization: "):
            em_fit(pts, 1, family, RngStream(0))
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "family, bad",
        [("poincare", (0.5, -1.0)), ("poincare", (0.5, 0.0)), ("poincare", (math.nan, 1.0)),
         ("poincare", (0.5, math.inf)), ("hyperboloid", (math.nan, 0.3)), ("hyperboloid", (0.3, -math.inf))],
    )
    def test_points_outside_the_sample_space_rejected_before_any_restart(self, family, bad):
        # One bad point among valid ones: a ValueError from the statistics, not
        # a FitError after every k-means++ restart.
        pts = np.vstack((np.column_stack((np.linspace(-1.0, 1.0, 20), np.linspace(0.5, 2.0, 20))), bad))
        mle = pc.mle if family == "poincare" else hb.mle
        for call in (lambda: em_fit(pts, 2, family, RngStream(0)), lambda: mle(pts)):
            with pytest.raises(ValueError, match="points need"):
                call()

    @pytest.mark.parametrize(
        "family, bad",
        [("poincare", (0.5, -1.0)), ("poincare", (0.5, 0.0)), ("poincare", (math.nan, 1.0)),
         ("poincare", (0.5, math.inf)), ("hyperboloid", (math.nan, 0.3)), ("hyperboloid", (0.3, -math.inf))],
    )
    def test_density_rejects_points_outside_the_sample_space(self, family, bad):
        # The densities read the statistics as em_fit does: the same
        # ValueError, not nan with a RuntimeWarning.
        m = _truth_mixture(*next(t for t in _SQUAREM_TRUTHS if t[0] == family))
        pts = np.vstack((np.column_stack((np.linspace(-1.0, 1.0, 20), np.linspace(0.5, 2.0, 20))), bad))
        with pytest.raises(ValueError, match="points need"):
            mixture_log_density_array(m, pts)

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


def _lse_single_max_input(k: int) -> np.ndarray:
    # Finite column maxima, each reached by one term: magnitudes from 1e-3 to
    # 1e5, -inf terms below a finite max and [800, -800] columns.
    gen = np.random.default_rng(200 + k)
    n = 4000
    a = gen.normal(size=(k, n)) * gen.choice([1e-3, 1.0, 30.0, 300.0, 1e3, 1e5], size=n)
    if k > 1:
        cols = np.arange(2, n, 7)
        a[gen.integers(k, size=cols.size), cols] = -np.inf
        a[:2, 5::19] = [[800.0], [-800.0]]
    return a


def _lse(a: np.ndarray) -> np.ndarray:
    # The per-point log-sum-exp the E-step normalizer returns, on a copy.
    return mixtures._normalize(np.array(a, dtype=float))


def _logsumexp_counting_selects(monkeypatch, a: np.ndarray):
    # The normalizer's log-sum-exp of a and how many times it called np.where.
    calls = []
    where = np.where
    monkeypatch.setattr(np, "where", lambda *args: calls.append(args) or where(*args))
    try:
        return _lse(a), len(calls)
    finally:
        monkeypatch.undo()


class TestLogSumExp:
    """The E-step normalizer's log-sum-exp against scipy's, bit for bit."""

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_matches_scipy_bitwise(self, k):
        a = _lse_input(k)
        assert np.array_equal(_lse(a), _scipy_logsumexp(a), equal_nan=True)

    @pytest.mark.parametrize("k", [8, 12])
    def test_many_components_match_scipy_to_rounding(self, k):
        # From 8 terms on numpy sums scipy's layout pairwise, not in order.
        a = _lse_input(k)
        np.testing.assert_allclose(_lse(a), _scipy_logsumexp(a), rtol=1e-15, atol=0)

    @pytest.mark.parametrize(
        "column",
        [[-np.inf, -np.inf], [np.inf, 1.0], [np.nan, 1.0], [1.0, 1.0, 1.0], [800.0, -800.0], [np.inf, np.inf]],
    )
    def test_edge_columns(self, column):
        a = np.array(column)[:, None]
        assert np.array_equal(_lse(a), _scipy_logsumexp(a), equal_nan=True)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_single_finite_max_matches_scipy_bitwise(self, monkeypatch, k):
        # No ties and finite maxima: the branch without the masked select.
        a = _lse_single_max_input(k)
        got, selects = _logsumexp_counting_selects(monkeypatch, a)
        assert selects == 0
        assert np.array_equal(got, _scipy_logsumexp(a))

    @pytest.mark.parametrize(
        "a",
        [
            [[np.nan, 1.0], [0.0, 1.0]],  # a nan column and a tied one: n maxima in all
            [[-np.inf, 0.5]],  # k = 1, one max per column, one of them -inf
            [[np.inf, 0.5], [1.0, 0.0]],
            [[2.0, 0.5], [1.0, 0.5]],
        ],
    )
    def test_ties_or_non_finite_maxima_take_the_select(self, monkeypatch, a):
        a = np.array(a)
        got, selects = _logsumexp_counting_selects(monkeypatch, a)
        assert selects == 1
        assert np.array_equal(got, _scipy_logsumexp(a), equal_nan=True)


class TestNormalizer:
    """The E-step normalizer: SciPy's log-sum-exp and responsibilities from one exponential."""

    @staticmethod
    def _posterior(a: np.ndarray) -> np.ndarray:
        # exp(a - lse) in extended precision: each term against the column sum.
        e = np.exp(a.astype(np.longdouble) - a.max(axis=0))
        return e / e.sum(axis=0)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_single_max_columns(self, k):
        # Random log-joints at magnitudes 1e-3 to 1e5, with -inf terms and
        # [800, -800] columns: the one-exponential path.
        a = _lse_single_max_input(k)
        resp = a.copy()
        lse = mixtures._normalize(resp)
        assert np.array_equal(lse, _scipy_logsumexp(a))
        # Within 4 ulp of the column total 1 of the exact posterior.  The
        # double formula exp(a - lse) rounds a - lse at the scale of lse, so
        # at |lse| ~ 1e3 it is itself off by hundreds of such ulp.
        assert np.max(np.abs(resp - self._posterior(a))) <= 4 * np.spacing(1.0)
        np.testing.assert_allclose(resp.sum(axis=0), 1.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_tied_and_non_finite_columns(self, k):
        # Ties, +-inf, nan and empty columns.  Where the max is finite, tied or
        # not, the responsibilities are e / (ties + rest); only a +-inf or nan
        # max takes exp(a - lse), which rounds a - lse at the scale of lse and
        # would miss a column sum of 1 by up to ~2 ulp of |lse| (1.8e-13 here).
        a = _lse_input(k)
        resp = a.copy()
        lse = mixtures._normalize(resp)
        assert np.array_equal(lse, _scipy_logsumexp(a), equal_nan=True)
        finite = np.isfinite(a.max(axis=0))
        with np.errstate(invalid="ignore"):
            assert np.array_equal(resp[:, ~finite], np.exp(a - lse)[:, ~finite], equal_nan=True)
        assert np.max(np.abs(resp[:, finite] - self._posterior(a[:, finite]))) <= 4 * np.spacing(1.0)
        np.testing.assert_allclose(resp[:, finite].sum(axis=0), 1.0, rtol=0, atol=1e-15)


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
        fam = mixtures._FAMILIES[family]
        resp = mixtures._log_joint(fam, *mixtures._linear_basis(fam, pts, fam.stats(pts)), mix.weights, mix.components)
        mixtures._normalize(resp)
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
        assert trace.converged

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

    def test_converged_at_a_small_gain_not_at_the_cap(self):
        # A one-component sample fitted with k = 2 is still gaining at the cap.
        pts = hyperboloid_sample(LorentzParam((2.0, 0.5, 0.0)), 1000, RngStream(0))
        _, trace = em_fit(pts, 2, "hyperboloid", RngStream(100))
        assert trace.iterations == mixtures._MAX_ITER
        assert not trace.converged
        for truth in (_SQUAREM_TRUTHS[0], _SQUAREM_TRUTHS[2]):
            pts = mixture_sample(_truth_mixture(*truth), 3000, RngStream(7))
            _, trace = em_fit(pts, 2, truth[0], RngStream(8))
            assert trace.converged
            assert trace.iterations < mixtures._MAX_ITER
            assert trace.loglik[-1] - trace.loglik[-4] < mixtures._TOL

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


@pytest.mark.parametrize("family, weights, comps", [_SQUAREM_TRUTHS[1], _SQUAREM_TRUTHS[3]])
def test_fit_independent_of_init_resp_layout(family, weights, comps):
    # The same responsibilities C-ordered, Fortran-ordered or as a strided
    # view give the same fit to the bit.
    truth = _truth_mixture(family, weights, comps)
    pts = mixture_sample(truth, 2000, RngStream(110))
    resp = _random_resp(pts.shape[0], truth.k, 111)
    padded = np.zeros((2 * pts.shape[0], truth.k + 1))
    padded[::2, 1:] = resp
    layouts = [resp, np.asfortranarray(resp), padded[::2, 1:]]
    assert not layouts[2].flags.c_contiguous and not layouts[2].flags.f_contiguous
    fits = [em_fit(pts, truth.k, family, RngStream(112), init_resp=r) for r in layouts]
    mix_a, tr_a = fits[0]
    assert tr_a.effective_counts.shape == (truth.k,)
    for mix_b, tr_b in fits[1:]:
        assert mix_a.weights == mix_b.weights
        for ca, cb in zip(mix_a.components, mix_b.components):
            assert np.array_equal(_component_vec(ca), _component_vec(cb))
        assert tr_a.loglik == tr_b.loglik
        assert (tr_a.iterations, tr_a.rejected_jumps) == (tr_b.iterations, tr_b.rejected_jumps)
        assert np.array_equal(tr_a.effective_counts, tr_b.effective_counts)


@pytest.mark.parametrize("family", ["poincare", "hyperboloid"])
def test_bad_point_rejected_before_the_size_check(family):
    # Three points with k = 2 are too few, but the point outside the sample
    # space is reported first.
    pts = np.array([[0.0, 1.0], [1.0, -1.0 if family == "poincare" else math.nan], [2.0, 1.0]])
    with pytest.raises(ValueError, match="points need"):
        em_fit(pts, 2, family, RngStream(0))


class TestLinearForm:
    """The E-step's log-joint rows against the density calls they replace."""

    @staticmethod
    def _points(family, comps, k):
        sample = mixtures._FAMILIES[family].sample
        pts = np.vstack([sample(c, 2000, RngStream(120 + k).derive(j)) for j, c in enumerate(comps)])
        gen = np.random.default_rng(121 + k)
        if family == "hyperboloid":
            # Tail points out to chart norm 1e6.
            extra = gen.normal(size=(300, 2)) * np.logspace(0, 6, 300)[:, None]
        else:
            # Points near the boundary, y from 1e-8 to 1e-3, and far ones.
            extra = np.vstack((
                np.column_stack((3.0 * gen.normal(size=300), np.logspace(-8, -3, 300))),
                np.column_stack((1e4 * gen.normal(size=300), np.logspace(-3, 5, 300))),
            ))
        return np.vstack((pts, extra))

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("family, comps", [
        ("hyperboloid", [(6.0, 0.0, 0.0), (4.0, 2.0, -2.0), (50.0 * math.cosh(3.0), 50.0 * math.sinh(3.0), 0.0)]),
        ("poincare", [(3.0, 0.0, 3.0), (3.0, -1.0, 1.0), (1.0, 1.5, 4.0)]),
    ])
    def test_rows_match_the_densities(self, family, comps, k):
        weights = tuple(np.arange(1.0, k + 1.0) / (k * (k + 1) / 2))
        m = _truth_mixture(family, weights, comps[:k])
        pts = self._points(family, m.components, k)
        fam = mixtures._FAMILIES[family]
        logs = mixtures._log_joint(fam, *mixtures._linear_basis(fam, pts, fam.stats(pts)), m.weights, m.components)
        want = np.array([fam.log_density(c, pts) + math.log(w) for c, w in zip(m.components, m.weights)])
        # Relative, and absolute where a log density crosses 0.
        np.testing.assert_allclose(logs, want, rtol=1e-12, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        m = Mixture("hyperboloid", (1.0,), (LorentzParam((2.0, 0.5, 0.0, 0.0)),))
        with pytest.raises(ValueError, match="dimension"):
            mixture_log_density_array(m, np.zeros((4, 2)))


@pytest.mark.parametrize("family", ["hyperboloid", "poincare"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_kmeanspp_matches_the_whole_array_form(family, k):
    # The seeding keeps its k distance arrays for the assignment; the draws
    # and the hard responsibilities are those of the whole-array form.
    truth = _truth_mixture(*next(t for t in _SQUAREM_TRUTHS[1::2] if t[0] == family))
    pts = mixture_sample(truth, 2000, RngStream(130 + k))
    stats = mixtures._FAMILIES[family].stats(pts)
    cols = np.ascontiguousarray(stats.T)
    for seed in range(16):
        gen_a, gen_b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = mixtures._kmeanspp_responsibilities(cols, k, gen_a)
        assert np.array_equal(got, ref_kmeanspp_responsibilities(stats, k, gen_b))
        assert gen_a.bit_generator.state == gen_b.bit_generator.state
    # Coincident points: every distance is 0 and later seeds are drawn uniformly.
    same = np.tile(stats[:1], (50, 1))
    got = mixtures._kmeanspp_responsibilities(np.ascontiguousarray(same.T), k, np.random.default_rng(1))
    assert np.array_equal(got, ref_kmeanspp_responsibilities(same, k, np.random.default_rng(1)))


def test_hyperboloid_fit_independent_of_blas_threads():
    # The same fit in processes with one and with two BLAS threads.
    script = (
        "import numpy as np\n"
        "from hyperstat.geometry import LorentzParam\n"
        "from hyperstat.mixtures import Mixture, em_fit, mixture_sample\n"
        "from hyperstat.sampling import RngStream\n"
        "m = Mixture('hyperboloid', (0.3, 0.3, 0.4), tuple(LorentzParam(c) for c in"
        " [(6.0, 0.0, 0.0), (5.0, 3.0, -3.0), (5.0, -3.0, 3.0)]))\n"
        "mix, trace = em_fit(mixture_sample(m, 10000, RngStream(140)), 3, 'hyperboloid', RngStream(141))\n"
        "print([float(w).hex() for w in mix.weights], [[float(x).hex() for x in c.vec] for c in mix.components],"
        " [float(x).hex() for x in trace.loglik], trace.iterations)\n"
    )

    def run(threads):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    assert run(1) == run(2)


@pytest.mark.parametrize("family, weights, comps", [t for t in _SQUAREM_TRUTHS if len(t[1]) == 2])
def test_m_step_inverts_moments_through_the_module_functions(family, weights, comps, monkeypatch):
    # A wrapper installed as pc.grad_conjugate or hb.mle_from_moment (as the
    # benchmark's tracer installs one) sees every M-step: the family records
    # look the module functions up when called.
    module, name = (pc, "grad_conjugate") if family == "poincare" else (hb, "mle_from_moment")
    inner, calls = getattr(module, name), []
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or inner(*args))
    pts = mixture_sample(_truth_mixture(family, weights, comps), 2000, RngStream(31))
    _, trace = em_fit(pts, 2, family, RngStream(32))
    assert len(calls) >= 2 * trace.iterations
