import math

import numpy as np
import pytest

from helpers import (
    central_gradient,
    central_hessian,
    central_third,
    hyperboloid_cumulant_of_vec,
    hyperboloid_divergence_quad,
    hyperboloid_integral,
)
from hyperstat import expfam
from hyperstat import hyperboloid as hb
from hyperstat import poincare as pc
from hyperstat.geometry import (
    DimensionError,
    DualDomainError,
    HyperboloidPoint,
    LorentzParam,
    lorentz_random_element,
    minkowski_inner,
    param_h_to_l,
    random_lorentz_param,
    random_spd,
)
from hyperstat.mixtures import Mixture, em_fit, mixture_sample
from hyperstat.sampling import RngStream, hyperboloid_sample
from hyperstat.specfun import bessel_k, bessel_k_logderiv

APEX = LorentzParam((1.0, 0.0, 0.0))
T211 = LorentzParam((2.0, 1.0, 1.0))


class TestDensity:
    def test_value_at_origin(self):
        # c_2(1) = e/(2 pi) and the pairing with the apex lift is 1
        got = hb.log_density(APEX, HyperboloidPoint((0.0, 0.0)))
        assert got == pytest.approx(-math.log(2.0 * math.pi), abs=1e-14)

    def test_normalization_by_quadrature(self):
        mass = hyperboloid_integral(
            lambda a, b: math.exp(float(hb.log_density_chart(APEX, np.array([[a, b]]))[0]))
        )
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_kernel_normalizer_matches_quadrature(self):
        # int exp(-[theta, lift]) dmu = exp(F)
        theta = T211

        def kernel(a, b):
            lift = np.array([math.sqrt(1 + a * a + b * b), a, b])
            return math.exp(-minkowski_inner(theta.vec, lift)) / lift[0]

        mass = hyperboloid_integral(kernel)
        assert mass == pytest.approx(math.exp(hb.cumulant(theta)), rel=1e-6)

    def test_group_invariance_of_invariant_measure_density(self):
        # the density against mu(dx) = dx / x0~ is invariant under the
        # simultaneous action
        rng = np.random.default_rng(60)
        for _ in range(100):
            a = lorentz_random_element(2, rng)
            theta = random_lorentz_param(2, rng)
            p = HyperboloidPoint(rng.normal(0, 1.5, size=2))
            q = a.apply_point(p)
            lhs = hb.log_density(theta, p) + math.log(p.lift()[0])
            rhs = hb.log_density(a.apply_param(theta), q) + math.log(q.lift()[0])
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hb.log_density(APEX, HyperboloidPoint((0.0, 0.0, 0.0)))


class TestCumulant:
    def test_d2_value(self):
        assert hb.cumulant(APEX) == pytest.approx(math.log(2 * math.pi) - 1.0, rel=1e-14)

    def test_general_formula_reduces_at_d2(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            theta = random_lorentz_param(2, rng)
            t = theta.minkowski_norm()
            explicit = -math.log(t) - t + math.log(2 * math.pi)
            assert hb.cumulant(theta) == pytest.approx(explicit, rel=1e-12)

    def test_grad_component_closed_form(self):
        grad = hb.grad_cumulant(T211)
        t = math.sqrt(2.0)
        assert grad[1] == pytest.approx((1 + t) / t**2, rel=1e-12)  # 1.20711
        assert grad[0] == pytest.approx(-2 * (1 + t) / t**2, rel=1e-12)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(62)
        for d in (2, 3, 5):
            for _ in range(20):
                theta = random_lorentz_param(d, rng)
                fd = central_gradient(hyperboloid_cumulant_of_vec, theta.vec)
                assert hb.grad_cumulant(theta) == pytest.approx(fd, rel=1e-7, abs=1e-8)

    @pytest.mark.parametrize(
        "call, want",
        [
            pytest.param(lambda a, b: hb.grad_cumulant(a), (0, 1), id="grad_cumulant"),
            pytest.param(lambda a, b: hb.jeffreys(a, b), (0, 2), id="jeffreys"),
            pytest.param(lambda a, b: hb.kld(a, b), (2, 1), id="kld"),
        ],
    )
    def test_bessel_calls_at_d3_are_only_those_needed(self, monkeypatch, call, want):
        # (bessel_k, bessel_k_logderiv) calls: F needs one K, grad F one log-derivative.
        counts = {"bessel_k": 0, "bessel_k_logderiv": 0}
        for fn in counts:
            def counted(*args, _fn=getattr(hb, fn), _name=fn):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(hb, fn, counted)
        call(LorentzParam((2.0, 0.3, -0.4, 0.1)), LorentzParam((3.0, -0.5, 0.7, 0.2)))
        assert (counts["bessel_k"], counts["bessel_k_logderiv"]) == want

    def test_apex_symmetry(self):
        grad = hb.grad_cumulant(APEX)
        assert grad[1] == pytest.approx(0.0, abs=1e-14)
        assert grad[2] == pytest.approx(0.0, abs=1e-14)

    def test_grad_is_sample_mean(self):
        from hyperstat.sampling import RngStream, hyperboloid_sample

        pts = hyperboloid_sample(T211, 300_000, RngStream(2))
        stats = hb.suff_stats_chart(pts)
        grad = hb.grad_cumulant(T211)
        se = stats.std(axis=0, ddof=1) / math.sqrt(len(pts))
        assert np.all(np.abs(stats.mean(axis=0) - grad) < 3.5 * se)


class TestElementaryD2:
    """The d = 2 paths take K_1/2 in elementary form; the Bessel route is the reference."""

    def test_log_normalizer_matches_bessel_form(self):
        for t in np.logspace(-3.0, 3.0, 601).tolist():
            ref = 0.5 * (math.log(t) - math.log(2.0 * math.pi)) - math.log(2.0) - bessel_k(0.5, t).log_value
            assert abs(hb.log_normalizer_c(2, t) - ref) <= 1e-14 * max(abs(ref), 1.0)

    def test_grad_matches_bessel_form(self):
        rng = np.random.default_rng(63)
        for _ in range(200):
            theta = random_lorentz_param(2, rng, log_scale=4.0)
            t = theta.minkowski_norm()
            fprime = bessel_k_logderiv(0.5, t) - 0.5 / t
            ref = (fprime / t) * np.array([1.0, -1.0, -1.0]) * theta.vec
            assert np.max(np.abs(hb.grad_cumulant(theta) - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_fim2_matches_expanded_formula(self):
        # (1/t^4) [(2+t) (G theta)(G theta)^T - t^2 (1+t) G], G = diag(1,-1,-1)
        rng = np.random.default_rng(64)
        g = np.diag([1.0, -1.0, -1.0])
        for _ in range(200):
            theta = random_lorentz_param(2, rng, log_scale=4.0)
            t = theta.minkowski_norm()
            g_theta = g @ theta.vec
            ref = ((2.0 + t) * np.outer(g_theta, g_theta) - t * t * (1.0 + t) * g) / t**4
            assert np.max(np.abs(hb.fim2(theta) - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_no_bessel_evaluation(self, monkeypatch):
        def no_bessel(*args):
            raise AssertionError("a Bessel function was evaluated")

        monkeypatch.setattr(hb, "bessel_k", no_bessel)
        monkeypatch.setattr(hb, "bessel_k_logderiv", no_bessel)
        with pytest.raises(AssertionError):
            hb.cumulant(LorentzParam((2.0, 0.0, 0.0, 0.0)))
        other = LorentzParam((3.0, -1.0, 0.5))
        values = [
            hb.log_normalizer_c(2, 1.5),
            hb.cumulant(T211),
            *hb.grad_cumulant(T211),
            hb.kld(T211, other),
            hb.hellinger_sq(T211, other),
            hb.neyman_chi2(T211, other),
            hb.jeffreys(T211, other),
            hb.skew_jensen(T211, other, 0.3),
            *hb.fim2(T211).ravel(),
            hb.modified_entropy2(T211),
            *hb.log_density_chart(T211, np.array([[0.0, 0.0], [1.0, -2.0]])),
            *hb.mle(hyperboloid_sample(T211, 500, RngStream(3))).theta,
        ]
        assert all(math.isfinite(v) for v in values)
        truth = Mixture(
            "hyperboloid", (0.4, 0.6), (LorentzParam((6.0, 0.0, 0.0)), LorentzParam((4.0, 2.0, -2.0)))
        )
        mix, _ = em_fit(mixture_sample(truth, 400, RngStream(4)), 2, "hyperboloid", RngStream(5))
        assert mix.k == 2


class TestDivergences:
    def test_kld_d2_closed_form(self):
        # log(t/t') - t' + [a,b]/[a,a] + [a,b]/t - 1
        got = hb.kld(T211, APEX)
        assert got == pytest.approx(0.760787, abs=1e-6)
        t = math.sqrt(2.0)
        explicit = math.log(t / 1.0) - 1.0 + 2.0 / 2.0 + 2.0 / t - 1.0
        assert got == pytest.approx(explicit, rel=1e-12)

    def test_kld_bregman_equals_d2_display_randomly(self):
        rng = np.random.default_rng(63)
        for _ in range(200):
            a, b = random_lorentz_param(2, rng), random_lorentz_param(2, rng)
            t, t2 = a.minkowski_norm(), b.minkowski_norm()
            pair = minkowski_inner(a.vec, b.vec)
            explicit = math.log(t / t2) - t2 + pair / (t * t) + pair / t - 1.0
            assert hb.kld(a, b) == pytest.approx(explicit, rel=1e-10, abs=1e-10)

    def test_kld_zero_and_nonnegative(self):
        rng = np.random.default_rng(64)
        assert hb.kld(T211, T211) == pytest.approx(0.0, abs=1e-12)
        for _ in range(100):
            a, b = random_lorentz_param(2, rng), random_lorentz_param(2, rng)
            assert hb.kld(a, b) >= -1e-12

    def test_kld_unit_leaf(self):
        other = LorentzParam((math.sqrt(2.0), 1.0, 0.0))
        assert hb.kld(APEX, other) == pytest.approx(2 * (math.sqrt(2) - 1), rel=1e-12)
        assert hb.kld(other, APEX) == pytest.approx(2 * (math.sqrt(2) - 1), rel=1e-12)

    def test_kld_quadrature(self):
        assert hb.kld(T211, APEX) == pytest.approx(
            hyperboloid_divergence_quad("kl", T211, APEX), abs=1e-6
        )

    def test_hellinger_values(self):
        assert hb.hellinger_sq(T211, T211) == pytest.approx(0.0, abs=1e-14)
        got = hb.hellinger_sq(LorentzParam((2, 0, 0)), APEX)
        assert got == pytest.approx(1 - 2 * math.sqrt(2) / 3, rel=1e-12)
        assert got == pytest.approx(
            hyperboloid_divergence_quad("hellinger", LorentzParam((2, 0, 0)), APEX),
            abs=1e-8,
        )

    def test_hellinger_symmetry(self):
        rng = np.random.default_rng(65)
        for _ in range(300):
            a, b = random_lorentz_param(2, rng), random_lorentz_param(2, rng)
            assert hb.hellinger_sq(a, b) == pytest.approx(hb.hellinger_sq(b, a), abs=1e-12)
            assert 0.0 <= hb.hellinger_sq(a, b) < 1.0

    def test_neyman_values(self):
        assert hb.neyman_chi2(T211, T211) == pytest.approx(0.0, abs=1e-12)
        got = hb.neyman_chi2(APEX, T211)
        # 2 e^{2 sqrt 2}/e^2 - 1, frozen from the closed form and confirmed
        # by quadrature
        assert got == pytest.approx(2 * math.exp(2 * math.sqrt(2) - 2) - 1, rel=1e-12)
        assert got == pytest.approx(3.5794289424887, rel=1e-10)
        assert got == pytest.approx(
            hyperboloid_divergence_quad("neyman", APEX, T211), abs=1e-7
        )

    def test_neyman_infinite(self):
        assert hb.neyman_chi2(LorentzParam((4, 0, 0)), APEX) == math.inf

    def test_general_d_consistency_with_quadrature_identities(self):
        # sanity for d=3: divergences still satisfy the exponential-family
        # identities that need only the cumulant and its gradient
        rng = np.random.default_rng(66)
        for _ in range(50):
            a, b = random_lorentz_param(3, rng), random_lorentz_param(3, rng)
            assert hb.kld(a, b) >= -1e-12
            assert hb.kld(a, a) == pytest.approx(0.0, abs=1e-12)
            assert hb.hellinger_sq(a, b) == pytest.approx(hb.hellinger_sq(b, a), abs=1e-12)
            mix = hb.skew_jensen(a, b, 0.5)
            assert mix == pytest.approx(-math.log1p(-hb.hellinger_sq(a, b)), rel=1e-9, abs=1e-10)

    def test_skew_jensen_kl_limit(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            a, b = random_lorentz_param(2, rng), random_lorentz_param(2, rng)
            approx = hb.skew_jensen(a, b, 1e-4) / (1e-4 * (1 - 1e-4))
            assert approx == pytest.approx(hb.kld(a, b), rel=5e-3, abs=5e-4)


class TestInvarianceSuites:
    DIVS = [hb.kld, hb.hellinger_sq, hb.neyman_chi2, hb.jeffreys]

    def test_invariance_under_group(self):
        rng = np.random.default_rng(68)
        a, b = random_lorentz_param(2, rng), random_lorentz_param(2, rng)
        base = [f(a, b) for f in self.DIVS]
        for _ in range(100):
            g = lorentz_random_element(2, rng)
            ga, gb = g.apply_param(a), g.apply_param(b)
            for f, want in zip(self.DIVS, base):
                got = f(ga, gb)
                if math.isinf(want):
                    assert math.isinf(got)
                else:
                    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_leaf_symmetry(self):
        rng = np.random.default_rng(69)
        for _ in range(100):
            t = math.exp(rng.uniform(-1, 1))
            a = _leaf_point(t, rng)
            b = _leaf_point(t, rng)
            for f in self.DIVS:
                x, y = f(a, b), f(b, a)
                if math.isinf(x):
                    assert math.isinf(y)
                else:
                    assert x == pytest.approx(y, rel=1e-10, abs=1e-10)

    def test_equal_triples_give_equal_divergences(self):
        # pairs with the same invariant triple are group-related, so every
        # divergence must agree on them
        rng = np.random.default_rng(70)
        a, b = random_lorentz_param(2, rng), random_lorentz_param(2, rng)
        g = lorentz_random_element(2, rng)
        a2, b2 = g.apply_param(a), g.apply_param(b)
        from hyperstat.geometry import lorentz_invariant

        t1 = lorentz_invariant(a, b).as_tuple()
        t2 = lorentz_invariant(a2, b2).as_tuple()
        assert t1 == pytest.approx(t2, rel=1e-10)
        for f in self.DIVS:
            x, y = f(a, b), f(a2, b2)
            if math.isinf(x):
                assert math.isinf(y)
            else:
                assert x == pytest.approx(y, rel=1e-9, abs=1e-9)


def _leaf_point(t: float, rng) -> LorentzParam:
    phi = rng.uniform(0, 1.5)
    ang = rng.uniform(0, 2 * math.pi)
    return LorentzParam(
        (t * math.cosh(phi), t * math.sinh(phi) * math.cos(ang), t * math.sinh(phi) * math.sin(ang))
    )


class TestFim2:
    def test_apex_value(self):
        assert hb.fim2(APEX) == pytest.approx(np.diag([1.0, 2.0, 2.0]), abs=1e-14)

    def test_displayed_matrix_entrywise(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            theta = random_lorentz_param(2, rng)
            t = theta.minkowski_norm()
            t0, t1, t2 = theta.theta
            disp = np.array(
                [
                    [(2 + t) * t0 * t0 - t * t * (1 + t), -(2 + t) * t0 * t1, -(2 + t) * t0 * t2],
                    [-(2 + t) * t0 * t1, (2 + t) * t1 * t1 + t * t * (1 + t), (2 + t) * t1 * t2],
                    [-(2 + t) * t0 * t2, (2 + t) * t1 * t2, (2 + t) * t2 * t2 + t * t * (1 + t)],
                ]
            ) / t**4
            assert hb.fim2(theta) == pytest.approx(disp, abs=1e-10)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(72)
        for _ in range(50):
            theta = random_lorentz_param(2, rng)
            fd = central_hessian(hyperboloid_cumulant_of_vec, theta.vec)
            got = hb.fim2(theta)
            assert np.max(np.abs(fd - got)) / np.max(np.abs(got)) < 1e-6

    def test_positive_definite(self):
        rng = np.random.default_rng(73)
        for _ in range(1000):
            theta = random_lorentz_param(2, rng)
            assert np.all(np.linalg.eigvalsh(hb.fim2(theta)) > 0.0)

    def test_dimension_guard(self):
        # g'' exists at d = 2 only, so the family record itself refuses the generic FIM.
        theta = LorentzParam((2, 0, 0, 0))
        for fim in (hb.fim2, lambda th: expfam.fim(hb._FAMILY, th.vec)):
            with pytest.raises(DimensionError, match="closed-form FIM needs d=2, got d=3"):
                fim(theta)

    def test_cubic_tensor_matches_finite_differences(self):
        # r_3 = -1 - 3t/8 at d = 2; an order-3 request must not return r_2.
        rng = np.random.default_rng(75)
        for _ in range(10):
            theta = random_lorentz_param(2, rng)
            fd = central_third(hyperboloid_cumulant_of_vec, theta.vec)
            got = expfam.cubic_tensor(hb._FAMILY, theta.theta)
            assert got == pytest.approx(fd, rel=2e-4, abs=2e-4 * np.max(np.abs(got)))


class TestModifiedEntropy:
    def test_unit_value(self):
        theta = LorentzParam((2 * math.pi, 0.0, 0.0))
        assert hb.modified_entropy2(theta) == pytest.approx(1.0, abs=1e-14)

    def test_matches_half_plane_counterpart(self):
        rng = np.random.default_rng(74)
        for _ in range(200):
            th = random_spd(rng)
            lhs = hb.modified_entropy2(param_h_to_l(th))
            assert lhs == pytest.approx(pc.modified_entropy(th), rel=1e-12)

    def test_invariance_under_boosts(self):
        rng = np.random.default_rng(75)
        theta = random_lorentz_param(2, rng)
        base = hb.modified_entropy2(theta)
        for _ in range(50):
            g = lorentz_random_element(2, rng)
            assert hb.modified_entropy2(g.apply_param(theta)) == pytest.approx(base, rel=1e-10)


class TestCorrespondence:
    DIV_PAIRS = [
        (pc.kld, hb.kld),
        (pc.hellinger_sq, hb.hellinger_sq),
        (pc.neyman_chi2, hb.neyman_chi2),
        (pc.jeffreys, hb.jeffreys),
    ]

    def test_divergences_agree(self):
        rng = np.random.default_rng(76)
        for _ in range(100):
            th, th2 = random_spd(rng), random_spd(rng)
            la, lb = param_h_to_l(th), param_h_to_l(th2)
            for f_h, f_l in self.DIV_PAIRS:
                want, got = f_h(th, th2), f_l(la, lb)
                if math.isinf(want):
                    assert math.isinf(got)
                else:
                    assert got == pytest.approx(want, rel=1e-10, abs=1e-10)
            for alpha in (0.21, 0.5, 0.83):
                assert hb.skew_jensen(la, lb, alpha) == pytest.approx(
                    pc.skew_jensen(th, th2, alpha), rel=1e-10, abs=1e-10
                )


class TestMle:
    def test_exact_moment_roundtrip(self):
        rng = np.random.default_rng(77)
        for d in (2, 3, 6):
            for _ in range(50):
                theta = random_lorentz_param(d, rng)
                eta = hb.grad_cumulant(theta)
                back = hb.mle_from_moment(eta, d)
                assert back.vec == pytest.approx(theta.vec, rel=1e-9)

    def test_sampling_consistency(self):
        from hyperstat.sampling import RngStream, hyperboloid_sample

        n = 100_000
        pts = hyperboloid_sample(T211, n, RngStream(21))
        est = hb.mle(pts)
        cov = np.linalg.inv(hb.fim2(T211)) / n
        ses = np.sqrt(np.diag(cov))
        assert np.all(np.abs(est.vec - T211.vec) < 3.0 * ses)

    def test_identical_points_rejected(self):
        pts = np.tile(np.array([[0.3, -0.2]]), (5, 1))
        with pytest.raises(DualDomainError):
            hb.mle(pts)

    def test_single_point_rejected(self):
        with pytest.raises(DualDomainError):
            hb.mle(np.array([[0.0, 0.0]]))

    def test_overflowing_statistics_rejected(self):
        pts = np.array([[0.0, 0.0], [0.3, -0.2], [1e200, 0.0]])
        with pytest.raises(ValueError, match=r"point 2 \(1e\+200, 0.0\) overflow") as err:
            hb.mle(pts)
        assert not isinstance(err.value, DualDomainError)
