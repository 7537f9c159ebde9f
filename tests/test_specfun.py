import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import kve

from hyperstat.specfun import bessel_k, bessel_k_logderiv, exp_gamma0


def bessel_k_quad_scaled(nu: float, x: float) -> float:
    # Defining integral, exponentially scaled so the integrand is O(1) at the
    # origin for every x:  e^x K_nu(x) = int_0^inf e^{-x(cosh t - 1)} cosh(nu t) dt.
    val, _ = integrate.quad(
        lambda t: math.exp(-x * (math.cosh(t) - 1.0)) * math.cosh(nu * t),
        0,
        60,
        limit=300,
        epsabs=1e-13,
        epsrel=1e-12,
    )
    return val


def bessel_k_quad(nu: float, x: float) -> float:
    return math.exp(-x) * bessel_k_quad_scaled(nu, x)


class TestBesselK:
    def test_half_order_closed_form(self):
        # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}
        got = bessel_k(0.5, 2.0)
        want = math.sqrt(math.pi / 4.0) * math.exp(-2.0)
        assert got.value == pytest.approx(want, rel=1e-13)
        assert got.value == pytest.approx(0.11993777196806146, rel=1e-12)
        assert got.value == pytest.approx(bessel_k_quad(0.5, 2.0), rel=1e-10)

    def test_order_symmetry(self):
        for x in (0.3, 2.0, 11.0):
            assert bessel_k(-0.5, x).value == bessel_k(0.5, x).value
            assert bessel_k(-2.0, x).value == bessel_k(2.0, x).value

    def test_zero_order_quadrature(self):
        got = bessel_k(0.0, 1.0)
        assert got.value == pytest.approx(bessel_k_quad(0.0, 1.0), abs=1e-10)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 2.0])
    def test_quadrature_grid(self, nu):
        for x in np.geomspace(1e-3, 50.0, 12):
            want = bessel_k_quad_scaled(nu, float(x))
            got = math.exp(bessel_k(nu, float(x)).log_value + float(x))
            assert got == pytest.approx(want, rel=1e-8)

    def test_log_value_consistency(self):
        for nu in (0.0, 0.5, 3.0):
            for x in (1e-5, 0.1, 10.0, 600.0):
                sv = bessel_k(nu, x)
                if sv.value > 0:
                    assert math.exp(sv.log_value) == pytest.approx(sv.value, rel=1e-12)

    def test_log_value_survives_underflow(self):
        sv = bessel_k(0.5, 800.0)
        assert sv.value == 0.0  # underflows in double precision
        want_log = 0.5 * math.log(math.pi / 1600.0) - 800.0
        assert sv.log_value == pytest.approx(want_log, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bessel_k(0.5, 0.0)
        with pytest.raises(ValueError):
            bessel_k(0.5, -1.0)


class TestBesselKLogderiv:
    def test_half_order_closed_form(self):
        # d/dx log K_{1/2} = -1/(2x) - 1
        assert bessel_k_logderiv(0.5, 2.0) == pytest.approx(-1.25, rel=1e-13)

    def test_against_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            nu = rng.uniform(0.0, 5.0)
            x = math.exp(rng.uniform(math.log(0.05), math.log(30.0)))
            h = 1e-6 * x
            want = (bessel_k(nu, x + h).log_value - bessel_k(nu, x - h).log_value) / (2 * h)
            assert bessel_k_logderiv(nu, x) == pytest.approx(want, rel=1e-8, abs=1e-8)

    def test_asymptote(self):
        assert bessel_k_logderiv(0.5, 1e7) == pytest.approx(-1.0, abs=1e-6)

    def test_always_negative(self):
        for nu in (0.0, 0.5, 1.0, 4.5):
            for x in np.geomspace(1e-3, 100, 20):
                assert bessel_k_logderiv(nu, float(x)) < 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bessel_k_logderiv(1.0, -2.0)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 2.5])
    def test_nan_ratio_raises(self, nu):
        # SciPy's kve is nan from x = 2^30 at these orders; the ratio raises
        # there as bessel_k does, and not at 2^29.
        assert math.isfinite(bessel_k_logderiv(nu, 2.0**29))
        with pytest.raises(ValueError, match="bessel_k_logderiv failed"):
            bessel_k_logderiv(nu, 2.0**30)


class TestKveIdentity:
    """Both Bessel functions are exactly one ``kve`` expression each."""

    ORDERS = (0.0, 0.5, 1.0, 1.5, 2.5, -1.5)

    @staticmethod
    def grid():
        jitter = 10.0 ** np.random.default_rng(20261018).uniform(-3.0, 3.0, 100)
        return [float(x) for x in np.concatenate([np.logspace(-3.0, 3.0, 61), jitter])]

    def test_bessel_k_log_value(self):
        for nu in self.ORDERS:
            for x in self.grid():
                assert bessel_k(nu, x).log_value == math.log(kve(abs(nu), x)) - x, (nu, x)

    def test_logderiv(self):
        for nu in self.ORDERS:
            a = abs(nu)
            for x in self.grid():
                want = -0.5 * float(kve(abs(a - 1.0), x) + kve(a + 1.0, x)) / float(kve(a, x))
                assert bessel_k_logderiv(nu, x) == want, (nu, x)


class TestExpGamma0:
    def test_at_one(self):
        # e * E_1(1) via quadrature of the defining integral
        e1, _ = integrate.quad(lambda t: math.exp(-t) / t, 1.0, np.inf)
        assert exp_gamma0(1.0) == pytest.approx(math.e * e1, rel=1e-12)
        assert exp_gamma0(1.0) == pytest.approx(0.5963473623231940, rel=1e-12)

    def test_entropy_input_value(self):
        # the scaled gamma term entering the worked entropy example
        x = 4.0 * math.sqrt(4.0 * 0.5 - 0.25**2)
        got = exp_gamma0(x)
        e1, _ = integrate.quad(lambda t: math.exp(-(t - x)) / t, x, np.inf, limit=300)
        assert got == pytest.approx(e1, rel=1e-10)
        assert got == pytest.approx(0.15515441, rel=1e-7)

    def test_quadrature_grid(self):
        for x in np.geomspace(0.01, 300.0, 25):
            want, _ = integrate.quad(
                lambda t: math.exp(-(t - float(x))) / t,
                float(x),
                np.inf,
                limit=300,
                epsabs=1e-13,
                epsrel=1e-13,
            )
            assert exp_gamma0(float(x)) == pytest.approx(want, rel=1e-10)

    def test_leading_asymptotic(self):
        # x e^x Gamma(0, x) -> 1
        for x in (1e4, 1e6, 1e8):
            assert x * exp_gamma0(x) == pytest.approx(1.0, abs=2e-4)

    def test_no_overflow_for_large_argument(self):
        assert 0.0 < exp_gamma0(5000.0) < 1.0

    def test_strictly_decreasing(self):
        grid = np.geomspace(1e-3, 1e3, 200)
        vals = [exp_gamma0(float(x)) for x in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_series_cf_crossover_consistency(self):
        # both branches evaluated just off the switch point agree
        assert exp_gamma0(0.999999) == pytest.approx(exp_gamma0(1.000001), rel=1e-5)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            exp_gamma0(0.0)
