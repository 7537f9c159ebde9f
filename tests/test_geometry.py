import math

import mpmath
import numpy as np
import pytest

from helpers import ref_mobius_act_param, ref_random_mobius

from hyperstat import hyperboloid as hb
from hyperstat.geometry import (
    ConeError,
    DimensionError,
    DualDomainError,
    HyperboloidPoint,
    LorentzParam,
    LorentzTransform,
    Mobius,
    Moment2,
    SpdParam2,
    UpperHalfPoint,
    lorentz_invariant,
    lorentz_random_element,
    minkowski_inner,
    mobius_act_param,
    mobius_act_point,
    param_h_to_l,
    param_l_to_h,
    point_disk_to_h,
    point_h_to_disk,
    point_h_to_l,
    point_l_to_h,
    poincare_invariant,
    random_lorentz_param,
    random_mobius,
    random_spd,
    upper_half_distance,
)
from hyperstat.montecarlo import FGenerator, estimate, estimate_plugin
from hyperstat.sampling import RngStream, hyperboloid_sample

EX_THETA = SpdParam2(4.0, 0.25, 0.5)
EX_THETA2 = SpdParam2(0.5, 0.25, 2.0)


class TestContainers:
    def test_spd_cone_validation(self):
        with pytest.raises(ConeError):
            SpdParam2(1.0, 2.0, 1.0)  # det < 0
        with pytest.raises(ConeError):
            SpdParam2(-1.0, 0.0, -1.0)
        with pytest.raises(ConeError):
            SpdParam2(1.0, 1.0, 1.0)  # boundary
        assert EX_THETA.det() == pytest.approx(1.9375)

    def test_from_matrix_rejects_asymmetric(self):
        with pytest.raises(ConeError):
            SpdParam2.from_matrix(np.array([[4.0, 0.5], [0.25, 0.5]]))

    @pytest.mark.parametrize(
        "m",
        [[[1.0, 0.0], [0.0]], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], 3.0, "[[1,0],[0,1]]", ["21", "12"]],
        ids=["ragged", "3x2", "scalar", "string", "string_rows"],
    )
    def test_from_matrix_rejects_non_2x2(self, m):
        with pytest.raises(ConeError, match="expected a 2x2 matrix"):
            SpdParam2.from_matrix(m)

    def test_upper_half_point(self):
        with pytest.raises(ValueError):
            UpperHalfPoint(0.0, 0.0)
        assert UpperHalfPoint(1.0, 2.0).as_complex() == 1 + 2j

    def test_moment_negative_definite(self):
        Moment2(-1.5, 0.0, -1.5)
        with pytest.raises(DualDomainError):
            Moment2(1.0, 0.0, -1.0)
        with pytest.raises(DualDomainError):
            Moment2(-1.0, 2.0, -1.0)

    def test_lorentz_cone(self):
        with pytest.raises(ConeError):
            LorentzParam((1.0, 1.0, 0.0))
        with pytest.raises(ConeError):
            LorentzParam((-2.0, 0.0, 0.0))
        with pytest.raises(ConeError):
            LorentzParam((1.0, 0.0))  # d = 1
        p = LorentzParam((2.0, 1.0, 1.0))
        assert p.minkowski_norm() == pytest.approx(math.sqrt(2.0))

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: LorentzParam((1e200, 0.0, 0.0)), id="lorentz_overflow"),
            pytest.param(lambda: LorentzParam((1e-160, 0.0, 0.0)), id="lorentz_subnormal"),
            pytest.param(lambda: SpdParam2(1e200, 0.0, 1e200), id="spd_overflow"),
            pytest.param(lambda: SpdParam2(1e-160, 0.0, 1e-160), id="spd_subnormal"),
            pytest.param(lambda: SpdParam2(1e-160, 0.0, 1e160), id="spd_det_one_overflowing_square"),
        ],
    )
    def test_squares_outside_the_float_range(self, make):
        # The cone tests square the components; past the float64 normal range
        # the message says so, not that the parameter left its cone.
        with pytest.raises(ConeError, match="float64 normal range") as err:
            make()
        assert "forward cone" not in str(err.value) and "violates" not in str(err.value)

    def test_range_check_keeps_the_cone_messages(self):
        with pytest.raises(ConeError, match="violates"):
            SpdParam2(1e-160, 1e-150, 1e-160)  # det = -1e-300 still decides
        assert LorentzParam((1e-150, 0.0, 0.0)).minkowski_sq() == pytest.approx(1e-300, rel=1e-12, abs=0.0)

    def test_hyperboloid_point_lift(self):
        p = HyperboloidPoint((3.0, 4.0))
        lift = p.lift()
        assert minkowski_inner(lift, lift) == pytest.approx(1.0, abs=1e-12)

    def test_mobius_det_check(self):
        with pytest.raises(ValueError):
            Mobius(1.0, 0.0, 0.0, 2.0)

    def test_lorentz_transform_check(self):
        with pytest.raises(ValueError):
            LorentzTransform(np.eye(3) * 2.0)
        # time reversal preserves the form but not the sheet
        rev = -np.eye(3)
        with pytest.raises(ValueError):
            LorentzTransform(rev)


class TestMinkowski:
    def test_unit_point(self):
        assert minkowski_inner((1, 0, 0), (1, 0, 0)) == 1.0

    def test_expansion(self):
        assert minkowski_inner((2, 1, 1), (2, 1, 1)) == 2.0
        assert minkowski_inner((2, 1, 1), (1, 0, 0)) == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            minkowski_inner((1, 0, 0), (1, 0, 0, 0))


class TestMobiusActions:
    def test_identity(self):
        z = UpperHalfPoint(0.3, 1.7)
        w = mobius_act_point(Mobius.identity(), z)
        assert (w.x, w.y) == pytest.approx((z.x, z.y))

    def test_fractional_transform(self):
        # (i + 1)/(i + 2) = 0.6 + 0.2i
        w = mobius_act_point(Mobius(1, 1, 1, 2), UpperHalfPoint(0, 1))
        assert (w.x, w.y) == pytest.approx((0.6, 0.2), abs=1e-15)

    def test_distance_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            g = random_mobius(rng)
            z1 = UpperHalfPoint(rng.normal(), math.exp(rng.normal()))
            z2 = UpperHalfPoint(rng.normal(), math.exp(rng.normal()))
            d0 = upper_half_distance(z1, z2)
            d1 = upper_half_distance(mobius_act_point(g, z1), mobius_act_point(g, z2))
            assert d1 == pytest.approx(d0, abs=1e-12)

    def test_param_action_identity(self):
        out = mobius_act_param(Mobius.identity(), EX_THETA)
        assert (out.a, out.b, out.c) == (EX_THETA.a, EX_THETA.b, EX_THETA.c)

    def test_param_action_worked_example(self):
        g = Mobius(1, 1, 1, 2)
        gt = mobius_act_param(g, EX_THETA)
        assert (gt.a, gt.b, gt.c) == pytest.approx((15.5, -7.75, 4.0), abs=1e-12)
        gt2 = mobius_act_param(g, EX_THETA2)
        assert (gt2.a, gt2.b, gt2.c) == pytest.approx((3.0, -2.25, 2.0), abs=1e-12)

    def test_float_forms_match_the_matrix_products(self):
        # Same stream for both forms: the draws agree, and each entry agrees to
        # rounding relative to the largest entry.
        rng, ref_rng, spd_rng = (np.random.default_rng(s) for s in (6, 6, 7))
        for _ in range(2000):
            g, ref_g = random_mobius(rng), ref_random_mobius(ref_rng)
            got, want = (g.g11, g.g12, g.g21, g.g22), (ref_g.g11, ref_g.g12, ref_g.g21, ref_g.g22)
            assert max(abs(x - y) for x, y in zip(got, want)) <= 4e-15 * max(map(abs, want))
            th = random_spd(spd_rng)
            act, ref_act = mobius_act_param(g, th), ref_mobius_act_param(g, th)
            got, want = (act.a, act.b, act.c), (ref_act.a, ref_act.b, ref_act.c)
            assert max(abs(x - y) for x, y in zip(got, want)) <= 4e-15 * max(map(abs, want))
        assert rng.uniform() == ref_rng.uniform()

    def test_param_action_preserves_determinant(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            g = random_mobius(rng)
            th = random_spd(rng)
            assert mobius_act_param(g, th).det() == pytest.approx(th.det(), rel=1e-12)

    def test_point_param_action_compatibility(self):
        # the density exponent (a(x^2+y^2)+2bx+c)/y is invariant under the
        # simultaneous action on points and parameters
        rng = np.random.default_rng(3)

        def quad_form(th, z):
            return (th.a * (z.x**2 + z.y**2) + 2 * th.b * z.x + th.c) / z.y

        for _ in range(50):
            g = random_mobius(rng)
            th = random_spd(rng)
            z = UpperHalfPoint(rng.normal(), math.exp(rng.normal()))
            lhs = quad_form(mobius_act_param(g, th), mobius_act_point(g, z))
            assert lhs == pytest.approx(quad_form(th, z), rel=1e-9)


class TestInvariants:
    def test_poincare_identity_pair(self):
        t = poincare_invariant(SpdParam2(1, 0, 1), SpdParam2(1, 0, 1))
        assert t.as_tuple() == pytest.approx((1.0, 1.0, 2.0))

    def test_poincare_worked_pair(self):
        t = poincare_invariant(EX_THETA, EX_THETA2)
        assert t.s1 == pytest.approx(1.9375)
        assert t.s2 == pytest.approx(0.9375)
        assert t.s3 == pytest.approx(8.125 / 1.9375, rel=1e-12)  # 4.193548...

    def test_poincare_invariance_under_action(self):
        rng = np.random.default_rng(4)
        th, th2 = random_spd(rng), random_spd(rng)
        base = poincare_invariant(th, th2).as_tuple()
        for _ in range(100):
            g = random_mobius(rng)
            got = poincare_invariant(
                mobius_act_param(g, th), mobius_act_param(g, th2)
            ).as_tuple()
            assert got == pytest.approx(base, rel=1e-10, abs=1e-10)

    def test_poincare_trace_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            th, th2 = random_spd(rng), random_spd(rng)
            t = poincare_invariant(th, th2)
            assert t.s3 >= 2.0 * math.sqrt(t.s2 / t.s1) - 1e-12

    def test_determinant_sum_identities(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            th, th2 = random_spd(rng), random_spd(rng)
            s = poincare_invariant(th, th2)
            det_sum = (th.a + th2.a) * (th.c + th2.c) - (th.b + th2.b) ** 2
            assert det_sum == pytest.approx(s.s1 + s.s2 + s.s1 * s.s3, rel=1e-10)
            a, b, c = 2 * th2.a - th.a, 2 * th2.b - th.b, 2 * th2.c - th.c
            det_m = a * c - b * b
            assert det_m == pytest.approx(4 * s.s2 + s.s1 - 2 * s.s1 * s.s3, rel=1e-9, abs=1e-9)

    def test_lorentz_triples(self):
        assert lorentz_invariant(
            LorentzParam((1, 0, 0)), LorentzParam((1, 0, 0))
        ).as_tuple() == pytest.approx((1, 1, 1))
        assert lorentz_invariant(
            LorentzParam((2, 1, 1)), LorentzParam((1, 0, 0))
        ).as_tuple() == pytest.approx((2, 1, 2))

    def test_lorentz_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lorentz_invariant(LorentzParam((1, 0, 0)), LorentzParam((1, 0, 0, 0)))

    def test_lorentz_invariance_under_action(self):
        rng = np.random.default_rng(7)
        th = random_lorentz_param(2, rng)
        th2 = random_lorentz_param(2, rng)
        base = lorentz_invariant(th, th2).as_tuple()
        for _ in range(100):
            a = lorentz_random_element(2, rng)
            got = lorentz_invariant(a.apply_param(th), a.apply_param(th2)).as_tuple()
            assert got == pytest.approx(base, rel=1e-10, abs=1e-10)


class TestLorentzRandomElement:
    def test_satisfies_group_constraints(self):
        rng = np.random.default_rng(8)
        for d in (2, 3, 5):
            a = lorentz_random_element(d, rng)
            assert a.matrix.shape == (d + 1, d + 1)  # constructor validated the rest

    def test_keeps_sheet(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = lorentz_random_element(2, rng)
            apex = a.matrix @ np.array([1.0, 0.0, 0.0])
            assert minkowski_inner(apex, apex) == pytest.approx(1.0, abs=1e-10)
            assert apex[0] > 0

    def test_distinct_seeds(self):
        a = lorentz_random_element(2, np.random.default_rng(10))
        b = lorentz_random_element(2, np.random.default_rng(11))
        assert not np.allclose(a.matrix, b.matrix)


class TestCorrespondenceMaps:
    def test_param_identity(self):
        out = param_h_to_l(SpdParam2(1, 0, 1))
        assert out.theta == pytest.approx((2.0, 0.0, 0.0))

    def test_param_worked_example(self):
        out = param_h_to_l(EX_THETA)
        assert out.theta == pytest.approx((4.5, 3.5, 0.5))
        assert out.minkowski_sq() == pytest.approx(4 * 1.9375)

    def test_param_norm_identities(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            th, th2 = random_spd(rng), random_spd(rng)
            l1, l2 = param_h_to_l(th), param_h_to_l(th2)
            s = poincare_invariant(th, th2)
            tri = lorentz_invariant(l1, l2)
            assert tri.s1 == pytest.approx(4 * s.s1, rel=1e-10)
            assert tri.s2 == pytest.approx(4 * s.s2, rel=1e-10)
            assert tri.s3 == pytest.approx(2 * s.s1 * s.s3, rel=1e-10)

    def test_param_roundtrip(self):
        back = param_l_to_h(LorentzParam((4.5, 3.5, 0.5)))
        assert (back.a, back.b, back.c) == pytest.approx((4.0, 0.25, 0.5), abs=1e-14)
        rng = np.random.default_rng(13)
        for _ in range(1000):
            th = random_spd(rng)
            back = param_l_to_h(param_h_to_l(th))
            assert (back.a, back.b, back.c) == pytest.approx(
                (th.a, th.b, th.c), rel=1e-14
            )

    def test_param_l_to_h_needs_d2(self):
        with pytest.raises(ValueError):
            param_l_to_h(LorentzParam((2, 0, 0, 0)))

    def test_cone_preserved_both_ways(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            p = random_lorentz_param(2, rng)
            param_h_to_l(param_l_to_h(p))  # constructors raise on violation

    def test_point_maps(self):
        center = point_h_to_l(UpperHalfPoint(0, 1))
        assert center.coords == pytest.approx((0.0, 0.0))
        moved = point_h_to_l(UpperHalfPoint(1, 1))
        assert moved.coords == pytest.approx((-0.5, 1.0))
        back = point_l_to_h(HyperboloidPoint((-0.5, 1.0)))
        assert (back.x, back.y) == pytest.approx((1.0, 1.0), abs=1e-14)

    def test_point_roundtrip_and_positivity(self):
        rng = np.random.default_rng(15)
        for _ in range(10_000):
            chart = HyperboloidPoint(rng.normal(0, 3, size=2))
            z = point_l_to_h(chart)
            assert z.y > 0
            again = point_h_to_l(z)
            assert again.coords == pytest.approx(chart.coords, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("big_y", [0.0, 0.75])
    def test_point_l_to_h_keeps_full_precision_far_out(self, sign, big_y):
        # against the root in 50-digit arithmetic; the difference form cancels
        # for large positive X, the reciprocal form for large negative X
        for mag in (1.0, 1e3, 1e6, 1e8, 1e10):
            big_x = sign * mag
            z = point_l_to_h(HyperboloidPoint((big_x, big_y)))
            with mpmath.workdps(50):
                x_, y_ = mpmath.mpf(big_x), mpmath.mpf(big_y)
                root = (mpmath.sqrt(1 + x_ * x_ + y_ * y_) - x_) / (1 + y_ * y_)
                want_y, want_x = float(root), float(root * y_)
            assert abs(z.y - want_y) <= 4 * math.ulp(want_y), big_x
            assert abs(z.x - want_x) <= 4 * math.ulp(want_x), big_x

    def test_point_l_to_h_unchanged_in_the_normal_range(self):
        # against the two-branch form with the radius as sqrt(1 + X^2 + Y^2),
        # which is exact enough wherever that sum does not overflow
        def reference(big_x, big_y):
            r = math.sqrt(1.0 + big_x * big_x + big_y * big_y)
            return 1.0 / (r + big_x) if big_x >= 0.0 else (r - big_x) / (1.0 + big_y * big_y)

        rng = np.random.default_rng(18)
        scales = rng.choice([1e-3, 1.0, 10.0, 1e3, 1e6], size=(20_000, 1))
        for big_x, big_y in rng.normal(size=(20_000, 2)) * scales:
            want = reference(big_x, big_y)
            z = point_l_to_h(HyperboloidPoint((big_x, big_y)))
            assert abs(z.y - want) <= 1e-15 * want
            assert abs(z.x - want * big_y) <= 1e-15 * abs(want * big_y)

    @pytest.mark.parametrize("big_x, big_y, want_y", [
        (1e200, 0.0, 5e-201),
        (-1e200, 0.0, 2e200),
        (-1e200, 1e200, (1.0 + math.sqrt(2.0)) * 1e-200),
        (0.0, 1e200, 1e-200),
    ])
    def test_point_l_to_h_far_points_do_not_overflow(self, big_x, big_y, want_y):
        z = point_l_to_h(HyperboloidPoint((big_x, big_y)))
        assert z.y == pytest.approx(want_y, rel=1e-15)
        assert z.x == pytest.approx(want_y * big_y, rel=1e-15)

    def test_disk_maps(self):
        assert point_h_to_disk(UpperHalfPoint(0, 1)) == pytest.approx((0.0, 0.0))
        assert point_h_to_disk(UpperHalfPoint(1, 1)) == pytest.approx((0.2, -0.4))
        rng = np.random.default_rng(16)
        for _ in range(200):
            z = UpperHalfPoint(rng.normal(), math.exp(rng.normal()))
            u, v = point_h_to_disk(z)
            assert u * u + v * v < 1.0
            back = point_disk_to_h(u, v)
            assert (back.x, back.y) == pytest.approx((z.x, z.y), rel=1e-12, abs=1e-12)

    def test_disk_density_transfer_preserves_mass(self):
        # transfer the density to the disk with the Cayley Jacobian and check
        # the total mass on a polar grid
        from hyperstat import poincare as pc

        theta = SpdParam2(1.0, 0.0, 1.0)
        rs = np.linspace(1e-4, 1 - 1e-7, 900)
        ts = np.linspace(0, 2 * math.pi, 181)[:-1]
        rr, tt = np.meshgrid(rs, ts)
        u = rr * np.cos(tt)
        v = rr * np.sin(tt)
        w = u + 1j * v
        z = 1j * (1 + w) / (1 - w)
        # |dz/dw| = 2/|1-w|^2, area Jacobian is its square
        jac = (2.0 / np.abs(1 - w) ** 2) ** 2
        dens = np.exp(pc.log_density_xy(theta, z.real, z.imag)) * jac
        mass = np.sum(dens * rr) * (rs[1] - rs[0]) * (ts[1] - ts[0])
        assert mass == pytest.approx(1.0, abs=2e-3)

    def test_point_chart_pairs_with_the_reflected_parameter(self):
        # point_h_to_l carries the half-plane law (a, b, c) to the hyperboloid
        # law (a+c, a-c, -2b); param_h_to_l's (a+c, a-c, 2b) matches it only at b = 0.
        th, z = SpdParam2(2.0, 0.7, 1.5), UpperHalfPoint(0.3, 0.8)
        lift = point_h_to_l(z).lift()
        assert minkowski_inner((3.5, 0.5, -1.4), lift) == pytest.approx(4.225, rel=1e-14)
        assert minkowski_inner(param_h_to_l(th).vec, lift) == pytest.approx(3.175, rel=1e-14)
        rng = np.random.default_rng(17)
        for _ in range(1000):
            th = random_spd(rng)
            z = UpperHalfPoint(rng.normal(0, 2), math.exp(rng.normal()))
            exponent = (th.a * (z.x * z.x + z.y * z.y) + 2.0 * th.b * z.x + th.c) / z.y
            reflected = (th.a + th.c, th.a - th.c, -2.0 * th.b)
            assert minkowski_inner(reflected, point_h_to_l(z).lift()) == pytest.approx(exponent, rel=1e-12)


class TestDimensionError:
    """Every d = 2-only routine raises DimensionError, a ValueError, at d = 3."""

    D3 = LorentzParam((2.0, 0.3, -0.4, 0.1))

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda p: param_l_to_h(p), id="param_l_to_h"),
            pytest.param(lambda p: point_l_to_h(HyperboloidPoint((0.1, 0.2, 0.3))), id="point_l_to_h"),
            pytest.param(lambda p: hb.fim2(p), id="fim2"),
            pytest.param(lambda p: hb.modified_entropy2(p), id="modified_entropy2"),
            pytest.param(lambda p: hyperboloid_sample(p, 10, RngStream(0)), id="hyperboloid_sample"),
            pytest.param(lambda p: estimate_plugin(FGenerator.kl(), p, p, 10, RngStream(0)),
                         id="estimate_plugin"),
            # The dimension is checked before the sizes.
            pytest.param(lambda p: estimate(FGenerator.kl(), p, p, "mc2", 0, RngStream(0)), id="estimate_n_0"),
        ],
    )
    def test_guard_raises(self, call):
        with pytest.raises(DimensionError) as info:
            call(self.D3)
        assert isinstance(info.value, ValueError)
