import math

import numpy as np
import pytest

from helpers import (
    central_gradient,
    central_hessian,
    central_third,
    poincare_cumulant_of_vec,
    poincare_divergence_quad,
    poincare_integral,
)
from hyperstat import poincare as pc
from hyperstat.geometry import (
    ConeError,
    DualDomainError,
    Moment2,
    SpdParam2,
    UpperHalfPoint,
    mobius_act_param,
    mobius_act_point,
    random_mobius,
    random_spd,
)

I2 = SpdParam2(1.0, 0.0, 1.0)
DIAG = SpdParam2(0.5, 0.0, 2.0)
EX_THETA = SpdParam2(4.0, 0.25, 0.5)
EX_THETA2 = SpdParam2(0.5, 0.25, 2.0)


class TestDensity:
    def test_point_value_at_center(self):
        # exponent is exactly 2 at (0, 1) for the identity parameter
        assert pc.log_density(I2, UpperHalfPoint(0, 1)) == pytest.approx(
            -math.log(math.pi), abs=1e-14
        )

    def test_normalization_by_quadrature(self):
        mass = poincare_integral(
            lambda x, y: math.exp(float(pc.log_density_xy(I2, x, y)))
        )
        assert mass == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.filterwarnings("error")
    def test_far_point_has_log_density_minus_inf_without_warning(self):
        assert pc.log_density_xy(I2, 1e200, 1.0) == -math.inf

    def test_group_invariance(self):
        # the density against the invariant measure dx dy / y^2 is pointwise
        # invariant under the simultaneous action on points and parameters
        rng = np.random.default_rng(21)
        for _ in range(100):
            g = random_mobius(rng)
            th = random_spd(rng)
            z = UpperHalfPoint(rng.normal(), math.exp(rng.normal(0, 0.7)))
            gz = mobius_act_point(g, z)
            lhs = pc.log_density(th, z) + 2.0 * math.log(z.y)
            rhs = pc.log_density(mobius_act_param(g, th), gz) + 2.0 * math.log(gz.y)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-9)

    def test_pushforward_with_jacobian(self):
        # as Lebesgue densities the action picks up the area distortion
        # |cz+d|^-4 of the fractional transform
        rng = np.random.default_rng(51)
        for _ in range(50):
            g = random_mobius(rng)
            th = random_spd(rng)
            z = UpperHalfPoint(rng.normal(), math.exp(rng.normal(0, 0.7)))
            gz = mobius_act_point(g, z)
            denom = abs(g.g21 * z.as_complex() + g.g22) ** 2
            lhs = pc.log_density(mobius_act_param(g, th), gz)
            rhs = pc.log_density(th, z) + 2.0 * math.log(denom)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestCumulantAndConjugate:
    def test_worked_example_values(self):
        assert pc.cumulant(EX_THETA).reduced == pytest.approx(-3.1146, abs=5e-4)
        assert pc.cumulant(EX_THETA2).reduced == pytest.approx(-1.9042, abs=5e-4)

    def test_full_vs_reduced_offset(self):
        for th in (I2, EX_THETA, EX_THETA2):
            pair = pc.cumulant(th)
            assert pair.full - pair.reduced == math.log(math.pi)  # exact

    def test_identity_values(self):
        pair = pc.cumulant(I2)
        assert pair.reduced == pytest.approx(-2.0)
        assert pair.full == pytest.approx(math.log(math.pi) - 2.0)

    def test_grad_worked_example(self):
        eta = pc.grad_cumulant(EX_THETA)
        assert eta.m11 == pytest.approx(-0.488, abs=5e-4)
        assert eta.m12 == pytest.approx(0.244, abs=5e-4)
        assert eta.m22 == pytest.approx(-3.906, abs=5e-4)

    def test_grad_identity(self):
        eta = pc.grad_cumulant(I2)
        assert (eta.m11, eta.m12, eta.m22) == pytest.approx((-1.5, 0.0, -1.5))

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            th = random_spd(rng)
            eta = pc.grad_cumulant(th)
            fd = central_gradient(poincare_cumulant_of_vec, th.as_vector())
            # vector-coordinate gradient doubles the off-diagonal entry
            assert fd == pytest.approx(
                np.array([eta.m11, 2 * eta.m12, eta.m22]), rel=1e-7, abs=1e-7
            )

    def test_conjugate_worked_example(self):
        assert pc.conjugate(pc.grad_cumulant(EX_THETA)) == pytest.approx(-0.6693, abs=5e-4)
        assert pc.conjugate(pc.grad_cumulant(EX_THETA2)) == pytest.approx(-1.0323, abs=5e-4)

    def test_moment_map_roundtrip(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            th = random_spd(rng)
            back = pc.grad_conjugate(pc.grad_cumulant(th))
            assert (back.a, back.b, back.c) == pytest.approx(
                (th.a, th.b, th.c), rel=1e-10
            )

    def test_dual_domain_violation(self):
        with pytest.raises(DualDomainError):
            pc.grad_conjugate(Moment2(-0.5, 0.0, -0.5))  # det 0.25 <= 1

    def test_fenchel_young_identity(self):
        # B_F(th2 : th) = F(th2) + F*(eta) - <th2, eta>
        rng = np.random.default_rng(24)
        for _ in range(50):
            th, th2 = random_spd(rng), random_spd(rng)
            eta = pc.grad_cumulant(th)
            pairing = float(np.sum(th2.as_matrix() * eta.as_matrix()))
            fy = pc.cumulant(th2).reduced + pc.conjugate(eta) - pairing
            assert fy == pytest.approx(pc.kld(th, th2), rel=1e-9, abs=1e-10)


class TestKld:
    def test_worked_example(self):
        assert pc.kld(EX_THETA, EX_THETA2) == pytest.approx(5.3606, abs=5e-3)
        assert pc.kld(EX_THETA2, EX_THETA) == pytest.approx(8.5778, abs=5e-3)

    def test_foliation_leaf_value(self):
        assert pc.kld(I2, DIAG) == pytest.approx(0.75, abs=1e-12)
        assert pc.kld(DIAG, I2) == pytest.approx(0.75, abs=1e-12)

    def test_nonnegative_zero_iff_equal(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            th, th2 = random_spd(rng), random_spd(rng)
            assert pc.kld(th, th2) >= 0.0
            assert pc.kld(th, th) == pytest.approx(0.0, abs=1e-12)

    def test_against_quadrature(self):
        assert pc.kld(EX_THETA, EX_THETA2) == pytest.approx(
            poincare_divergence_quad("kl", EX_THETA, EX_THETA2), abs=1e-6
        )


class TestHellinger:
    def test_zero_at_equal(self):
        assert pc.hellinger_sq(EX_THETA, EX_THETA) == pytest.approx(0.0, abs=1e-14)

    def test_leaf_pair_value(self):
        # frozen from the quadrature of 1 - int sqrt(p q); closed form agrees
        got = pc.hellinger_sq(I2, DIAG)
        assert got == pytest.approx(0.164906731351, abs=1e-10)
        assert got == pytest.approx(poincare_divergence_quad("hellinger", I2, DIAG), abs=1e-8)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(26)
        for _ in range(1000):
            th, th2 = random_spd(rng), random_spd(rng)
            v = pc.hellinger_sq(th, th2)
            assert 0.0 <= v < 1.0
            assert v == pytest.approx(pc.hellinger_sq(th2, th), abs=1e-12)


class TestNeymanChi2:
    def test_zero_at_equal(self):
        assert pc.neyman_chi2(EX_THETA, EX_THETA) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_value(self):
        got = pc.neyman_chi2(SpdParam2(0.5, 0.0, 0.5), I2)
        assert got == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert got == pytest.approx(
            poincare_divergence_quad("neyman", SpdParam2(0.5, 0.0, 0.5), I2), abs=1e-8
        )

    def test_infinite_when_outside_cone(self):
        assert pc.neyman_chi2(SpdParam2(4, 0, 4), I2) == math.inf


class TestJeffreys:
    def test_zero_and_symmetry(self):
        assert pc.jeffreys(EX_THETA, EX_THETA) == 0.0
        assert pc.jeffreys(EX_THETA, EX_THETA2) == pytest.approx(
            pc.jeffreys(EX_THETA2, EX_THETA)
        )

    def test_worked_example_sum(self):
        assert pc.jeffreys(EX_THETA, EX_THETA2) == pytest.approx(
            5.36042333800633 + 8.57794656700959, rel=1e-12
        )

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_triangle_inequality_fails_on_unit_leaf(self, a):
        # diagonal parameters with eigenvalue ratio c = 100 between neighbours
        c = 100.0
        t1 = SpdParam2(1.0, 0.0, 1.0)
        t2 = SpdParam2(c, 0.0, 1.0 / c)
        t3 = SpdParam2(c * c, 0.0, 1.0 / (c * c))
        d12 = pc.jeffreys(t1, t2) ** a
        d23 = pc.jeffreys(t2, t3) ** a
        d13 = pc.jeffreys(t1, t3) ** a
        assert d12 + d23 < d13
        # leaf formula: D_J = 3 (rho + 1/rho - 2)
        assert pc.jeffreys(t1, t2) == pytest.approx(3.0 * (c + 1.0 / c - 2.0), rel=1e-9)


class TestSkewJensen:
    def test_zero_at_equal(self):
        assert pc.skew_jensen(EX_THETA, EX_THETA, 0.3) == pytest.approx(0.0, abs=1e-12)

    def test_half_alpha_is_log_bhattacharyya(self):
        rng = np.random.default_rng(27)
        for _ in range(100):
            th, th2 = random_spd(rng), random_spd(rng)
            lhs = pc.skew_jensen(th, th2, 0.5)
            rhs = -math.log1p(-pc.hellinger_sq(th, th2))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_leaf_pair_value(self):
        assert pc.skew_jensen(I2, DIAG, 0.5) == pytest.approx(0.180211861388, abs=1e-10)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            pc.skew_jensen(I2, DIAG, 0.0)
        with pytest.raises(ValueError):
            pc.skew_jensen(I2, DIAG, 1.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(28)
        for _ in range(200):
            th, th2 = random_spd(rng), random_spd(rng)
            assert pc.skew_jensen(th, th2, rng.uniform(0.01, 0.99)) >= -1e-12

    def test_first_order_limit_is_kl(self):
        # J_eps / (eps (1 - eps)) -> KL with error O(eps): halving eps halves the error.
        exact = pc.kld(EX_THETA, EX_THETA2)
        err1 = abs(pc.skew_jensen(EX_THETA, EX_THETA2, 2e-3) / (2e-3 * (1.0 - 2e-3)) - exact)
        err2 = abs(pc.skew_jensen(EX_THETA, EX_THETA2, 1e-3) / (1e-3 * (1.0 - 1e-3)) - exact)
        assert err2 == pytest.approx(err1 / 2.0, rel=0.15)


class TestChernoff:
    def test_symmetric_pair_has_central_alpha(self):
        # equal determinants put both distributions on one leaf, where the
        # objective is symmetric around 1/2
        alpha, value = pc.chernoff(I2, DIAG)
        assert alpha == pytest.approx(0.5, abs=1e-6)
        assert value == pytest.approx(pc.skew_jensen(I2, DIAG, 0.5), rel=1e-9)

    def test_dominates_sampled_alphas(self):
        _, value = pc.chernoff(EX_THETA, EX_THETA2)
        for a in (0.25, 0.5, 0.75):
            assert value >= pc.skew_jensen(EX_THETA, EX_THETA2, a) - 1e-12

    def test_matches_dense_grid(self):
        alphas = np.linspace(1e-4, 1 - 1e-4, 9999)
        vals = [pc.skew_jensen(EX_THETA, EX_THETA2, float(a)) for a in alphas]
        _, value = pc.chernoff(EX_THETA, EX_THETA2)
        assert value == pytest.approx(max(vals), abs=1e-7)

    def test_equal_parameters(self):
        assert pc.chernoff(I2, I2) == (0.5, 0.0)


class TestEntropies:
    def test_worked_examples(self):
        assert pc.entropy(EX_THETA) == pytest.approx(-0.6075, abs=5e-4)
        assert pc.entropy(EX_THETA2) == pytest.approx(3.0747, abs=5e-4)

    def test_against_quadrature(self):
        got = pc.entropy(I2)
        want = poincare_integral(
            lambda x, y: -math.exp(float(pc.log_density_xy(I2, x, y)))
            * float(pc.log_density_xy(I2, x, y))
        )
        assert got == pytest.approx(want, abs=1e-4)

    def test_expected_log_y_closed_form(self):
        # log(D/a) - e^{4D} Gamma(0, 4D) at the worked parameter
        assert pc.expected_log_y(EX_THETA) == pytest.approx(-1.2107495, abs=1e-6)
        d = I2.sqrt_det()
        from hyperstat.specfun import exp_gamma0

        assert pc.expected_log_y(I2) == pytest.approx(-exp_gamma0(4.0), rel=1e-12)

    def test_expected_log_y_entropy_consistency(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            th = random_spd(rng)
            d = th.sqrt_det()
            reconstructed = (
                1.0
                + math.log(math.pi)
                + math.log(d)
                - 2.0 * math.log(th.a)
                - 2.0 * (math.log(d / th.a) - pc.expected_log_y(th))
            )
            # identical shared terms: entropy = 1 + log(pi D) - 2 log a - 2 e^{4D}G(0,4D)
            assert pc.entropy(th) == pytest.approx(
                1 + math.log(math.pi * d) - 2 * math.log(th.a)
                - 2 * (math.log(d / th.a) - pc.expected_log_y(th)),
                rel=1e-12,
            )

    def test_expected_log_y_against_samples(self):
        from hyperstat.sampling import RngStream, poincare_sample

        pts = poincare_sample(EX_THETA, 400_000, RngStream(5))
        logs = np.log(pts[:, 1])
        se = logs.std(ddof=1) / math.sqrt(len(logs))
        assert abs(logs.mean() - pc.expected_log_y(EX_THETA)) < 3.0 * se

    def test_modified_entropy(self):
        assert pc.modified_entropy(I2) == pytest.approx(1.0 + math.log(math.pi), rel=1e-14)

    def test_modified_entropy_is_negated_full_conjugate(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            th = random_spd(rng)
            # F*_full = F*_reduced - log pi
            want = -(pc.conjugate(pc.grad_cumulant(th)) - math.log(math.pi))
            assert pc.modified_entropy(th) == pytest.approx(want, rel=1e-10)

    def test_modified_entropy_invariance(self):
        rng = np.random.default_rng(31)
        th = random_spd(rng)
        base = pc.modified_entropy(th)
        for _ in range(100):
            g = random_mobius(rng)
            assert pc.modified_entropy(mobius_act_param(g, th)) == pytest.approx(
                base, rel=1e-10
            )


class TestInformationGeometry:
    def test_fim_matches_finite_differences(self):
        rng = np.random.default_rng(32)
        for _ in range(40):
            th = random_spd(rng)
            fd = central_hessian(poincare_cumulant_of_vec, th.as_vector())
            got = pc.fim(th)
            assert got == pytest.approx(fd, rel=2e-5, abs=2e-5)

    def test_fim_positive_definite(self):
        rng = np.random.default_rng(33)
        for _ in range(1000):
            th = random_spd(rng)
            assert np.all(np.linalg.eigvalsh(pc.fim(th)) > 0.0)

    def test_fim_dual_inverse(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            th = random_spd(rng)
            eta = pc.grad_cumulant(th)
            prod = pc.fim(th) @ pc.fim_dual(eta)
            assert prod == pytest.approx(np.eye(3), abs=1e-8)

    def test_fim_dual_matches_conjugate_differences(self):
        # the dual metric really is the Hessian of the conjugate, checked by
        # finite differences at the accuracy differences can deliver
        rng = np.random.default_rng(52)
        for _ in range(15):
            th = random_spd(rng, log_scale=0.8)
            eta = pc.grad_cumulant(th)
            eta_vec = np.array([eta.m11, 2 * eta.m12, eta.m22])

            def conj_of_vec(v):
                return pc.conjugate(Moment2(v[0], 0.5 * v[1], v[2]))

            fd = central_hessian(conj_of_vec, eta_vec)
            got = pc.fim_dual(eta)
            scale = np.max(np.abs(got))
            assert np.max(np.abs(fd - got)) / scale < 1e-6

    def test_cubic_tensor_symmetry(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            t = pc.cubic_tensor(random_spd(rng))
            for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)):
                assert np.allclose(t, np.transpose(t, perm), atol=1e-10)

    def test_cubic_tensor_matches_finite_differences(self):
        rng = np.random.default_rng(36)
        for _ in range(10):
            th = random_spd(rng, log_scale=0.7)
            fd = central_third(poincare_cumulant_of_vec, th.as_vector())
            got = pc.cubic_tensor(th)
            assert got == pytest.approx(fd, rel=2e-4, abs=2e-4)

    def test_cubic_tensor_reference_entry(self):
        # at (a,b,c) = (1,0,1) the (1,1,1) component of the third derivative
        # of -log(u)/2 - 2 sqrt(u) is -7/4
        t = pc.cubic_tensor(I2)
        assert t[0, 0, 0] == pytest.approx(-1.75, rel=1e-12)
        fd = central_third(poincare_cumulant_of_vec, np.array([1.0, 0.0, 1.0]))
        assert fd[0, 0, 0] == pytest.approx(-1.75, abs=1e-5)


def _stat_matrix(row: np.ndarray) -> np.ndarray:
    # -(1/y) [[x^2+y^2, x], [x, 1]] from one suff_stats_xy row
    return np.array([[row[0], row[1]], [row[1], row[2]]])


class TestSufficientStat:
    def test_center_point(self):
        row = pc.suff_stats_xy([UpperHalfPoint(0, 1)])[0]
        assert row == pytest.approx(np.array([-1.0, 0.0, -1.0]))

    def test_matrix_determinant_one(self):
        # the identity ((x^2+y^2) - x^2)/y^2 = 1 is exact; the numeric check
        # keeps y moderate so the determinant's cancellation stays benign
        rng = np.random.default_rng(37)
        zs = [UpperHalfPoint(rng.normal(0, 2), math.exp(rng.normal(0, 1))) for _ in range(10_000)]
        for row in pc.suff_stats_xy(zs):
            assert np.linalg.det(_stat_matrix(row)) == pytest.approx(1.0, rel=1e-8)

    def test_pairing_consistency(self):
        # doubled-b vector pairing equals the matrix trace pairing
        rng = np.random.default_rng(38)
        for _ in range(100):
            th = random_spd(rng)
            row = pc.suff_stats_xy([UpperHalfPoint(rng.normal(), math.exp(rng.normal()))])[0]
            vec_pairing = th.a * row[0] + 2 * th.b * row[1] + th.c * row[2]
            trace_pairing = float(np.trace(th.as_matrix() @ _stat_matrix(row)))
            assert vec_pairing == pytest.approx(trace_pairing, rel=1e-12)


class TestMle:
    def test_exact_moment_recovery(self):
        rng = np.random.default_rng(39)
        for _ in range(100):
            th = random_spd(rng)
            eta = pc.grad_cumulant(th)
            back = pc.grad_conjugate(eta)
            assert (back.a, back.b, back.c) == pytest.approx((th.a, th.b, th.c), rel=1e-10)

    def test_sampling_consistency(self):
        from hyperstat.sampling import RngStream, poincare_sample

        n = 100_000
        pts = poincare_sample(EX_THETA, n, RngStream(11))
        est = pc.mle(pts)
        cov = np.linalg.inv(pc.fim(EX_THETA)) / n
        ses = np.sqrt(np.diag(cov))
        got = np.array([est.a, est.b, est.c])
        want = EX_THETA.as_vector()
        assert np.all(np.abs(got - want) < 3.0 * ses)

    def test_degenerate_inputs(self):
        with pytest.raises(DualDomainError):
            pc.mle(np.array([[0.0, 1.0]]))
        with pytest.raises(DualDomainError):
            pc.mle(np.array([[0.0, 1.0], [0.0, 1.0]]))

    def test_overflowing_statistics_rejected(self):
        # x^2 overflows: a ValueError naming the point, not a DualDomainError
        # about the moment average.
        pts = np.array([[0.0, 1.0], [0.5, 2.0], [1e200, 1.0]])
        with pytest.raises(ValueError, match=r"point 2 \(1e\+200, 1.0\) overflow") as err:
            pc.mle(pts)
        assert not isinstance(err.value, DualDomainError)
        with pytest.raises(ValueError, match="overflow"):
            pc.suff_stats_xy([UpperHalfPoint(1e200, 1.0)])

    def test_local_optimality(self):
        rng = np.random.default_rng(40)
        pts = np.column_stack((rng.normal(0, 1, 60), np.exp(rng.normal(0, 0.5, 60))))
        est = pc.mle(pts)

        def avg_ll(th):
            return float(np.mean(pc.log_density_xy(th, pts[:, 0], pts[:, 1])))

        best = avg_ll(est)
        for _ in range(50):
            vec = np.array([est.a, est.b, est.c]) * (1 + rng.normal(0, 0.05, 3))
            try:
                other = SpdParam2(*vec)
            except ConeError:
                continue
            assert avg_ll(other) <= best + 1e-12

    def test_shard_independence(self):
        rng = np.random.default_rng(41)
        pts = np.column_stack((rng.normal(0, 1, 999), np.exp(rng.normal(0, 0.5, 999))))
        full = pc.mle(pts)
        shuffled = pts[rng.permutation(999)]
        again = pc.mle(shuffled)
        assert (full.a, full.b, full.c) == pytest.approx(
            (again.a, again.b, again.c), rel=1e-13
        )
