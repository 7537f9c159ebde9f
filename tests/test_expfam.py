"""The cumulant-derived closed forms against an independent 50-digit evaluation.

Both families' divergences come from one derivation in ``hyperstat.expfam``,
so the half-plane <-> hyperboloid correspondence checks no longer test the
formulas.  Here every half-plane divergence is recomputed with mpmath from
the reduced cumulant F(a, b, c) = -log(ac - b^2)/2 - 2 sqrt(ac - b^2) and its
gradient, written out independently of the library.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from hyperstat import expfam
from hyperstat import poincare as pc
from hyperstat.geometry import SpdParam2, random_spd

REL_TOL = 1e-11
MIN_VALUE = 1e-3
ALPHAS = (0.25, 0.5, 0.75)


def _mp_vec(theta: SpdParam2) -> list:
    return [mp.mpf(theta.a), mp.mpf(theta.b), mp.mpf(theta.c)]


def _det(v):
    return v[0] * v[2] - v[1] * v[1]


def _cumulant(v):
    u = _det(v)
    return -mp.log(u) / 2 - 2 * mp.sqrt(u)


def _grad(v):
    u = _det(v)
    p1 = -1 / (2 * u) - 1 / mp.sqrt(u)
    return [p1 * v[2], -2 * p1 * v[1], p1 * v[0]]


def _reference(theta: SpdParam2, theta2: SpdParam2) -> dict:
    """All closed forms at 50 digits; Neyman is None off the cone."""
    with mp.workdps(50):
        v, v2 = _mp_vec(theta), _mp_vec(theta2)
        f, f2 = _cumulant(v), _cumulant(v2)
        g, g2 = _grad(v), _grad(v2)
        diff = [y - x for x, y in zip(v, v2)]
        sj = {}
        for alpha in ALPHAS:
            a = mp.mpf(alpha)
            mix = [(1 - a) * x + a * y for x, y in zip(v, v2)]
            sj[alpha] = (1 - a) * f + a * f2 - _cumulant(mix)
        m = [2 * y - x for x, y in zip(v, v2)]
        on_cone = m[0] > 0 and _det(m) > 0
        return {
            "kl": f2 - f - sum(gi * di for gi, di in zip(g, diff)),
            "hellinger": -mp.expm1(-sj[0.5]),
            "neyman": mp.expm1(_cumulant(m) - 2 * f2 + f) if on_cone else None,
            "jeffreys": sum(di * (b - a) for di, a, b in zip(diff, g, g2)),
            "skew_jensen": sj,
        }


def _near(theta: SpdParam2, rng) -> SpdParam2:
    while True:
        delta = 10.0 ** rng.uniform(-1.5, -0.5)
        v = theta.as_vector() * (1.0 + delta * rng.standard_normal(3))
        try:
            return SpdParam2(*v)
        except ValueError:
            continue


def _grid():
    rng = np.random.default_rng(20261018)
    pairs = [(random_spd(rng), random_spd(rng)) for _ in range(150)]
    for _ in range(150):
        theta = random_spd(rng, log_scale=2.0)
        pairs.append((theta, _near(theta, rng)))
    return pairs


def _boundary_pairs():
    # theta2 = (theta + m) / 2 with m a relative 1e-9 inside or outside the
    # cone boundary, so 2 theta2 - theta lands there.  Only the inf decision
    # is checked on these: near the boundary F(m) inherits a relative error
    # of about eps * |m|^2 / q(m) from rounding 2 theta2 - theta.
    rng = np.random.default_rng(20261019)
    pairs = []
    for i in range(60):
        theta = random_spd(rng)
        u = rng.normal(size=2)
        m = np.outer(u, u) + (1e-9 if i % 2 else -1e-9) * float(u @ u) * np.eye(2)
        v2 = 0.5 * (theta.as_vector() + np.array([m[0, 0], m[0, 1], m[1, 1]]))
        pairs.append((theta, SpdParam2(*v2)))
    return pairs


GRID = _grid()
BOUNDARY = _boundary_pairs()


def _assert_close(name, got, want, failures):
    want = float(want)
    if abs(want) >= MIN_VALUE and abs(got - want) > REL_TOL * abs(want):
        failures.append(f"{name}: {got!r} vs {want!r}")


def test_closed_forms_match_50_digit_cumulant():
    failures = []
    checked = 0
    for theta, theta2 in GRID:
        ref = _reference(theta, theta2)
        _assert_close("kl", pc.kld(theta, theta2), ref["kl"], failures)
        _assert_close("hellinger", pc.hellinger_sq(theta, theta2), ref["hellinger"], failures)
        _assert_close("jeffreys", pc.jeffreys(theta, theta2), ref["jeffreys"], failures)
        for alpha in ALPHAS:
            _assert_close(
                f"skew_jensen({alpha})",
                pc.skew_jensen(theta, theta2, alpha), ref["skew_jensen"][alpha], failures,
            )
        if ref["neyman"] is not None:
            _assert_close("neyman", pc.neyman_chi2(theta, theta2), ref["neyman"], failures)
        checked += abs(float(ref["kl"])) >= MIN_VALUE
    assert not failures, "; ".join(failures[:5])
    assert checked > 250  # the tolerance is exercised on most of the grid


def test_neyman_infinite_exactly_off_the_cone():
    n_inf = 0
    for theta, theta2 in GRID + BOUNDARY:
        off_cone = _reference(theta, theta2)["neyman"] is None
        assert math.isinf(pc.neyman_chi2(theta, theta2)) == off_cone
        n_inf += off_cone
    assert 30 < n_inf < len(GRID)


def test_brent_min_finds_an_interior_quadratic_minimum_in_few_evaluations():
    calls = []

    def fn(s):
        calls.append(s)
        return (s - 0.3) ** 2

    x, evaluations = expfam.brent_min(fn, 0.0, 1.0, 1e-9)
    assert x == pytest.approx(0.3, abs=1e-9)
    assert evaluations == len(calls) <= 20


@pytest.mark.parametrize("slope, end", [(1.0, -2.0), (-1.0, 3.0)], ids=["left_end", "right_end"])
def test_brent_min_converges_to_a_bracket_end(slope, end):
    # a monotone objective has its minimum at an end, which is never evaluated
    x, _ = expfam.brent_min(lambda s: slope * s, -2.0, 3.0, 1e-8)
    assert -2.0 < x < 3.0
    assert abs(x - end) < 1e-6


def test_brent_min_on_a_kink():
    # no parabola fits |x - 0.3| at its minimum; golden steps must carry the search
    x, _ = expfam.brent_min(lambda s: abs(s - 0.3), 0.0, 1.0, 1e-9)
    assert x == pytest.approx(0.3, abs=1e-8)


def test_chernoff_is_the_max_of_skew_jensen():
    theta, theta2 = GRID[0]
    alpha, value = pc.chernoff(theta, theta2)
    assert value == pc.skew_jensen(theta, theta2, alpha)
    for a in np.linspace(0.01, 0.99, 25):
        assert pc.skew_jensen(theta, theta2, a) <= value * (1.0 + 1e-14)
