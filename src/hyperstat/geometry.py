"""Hyperbolic-model geometry: points, parameter cones, group actions, invariants.

Two models are supported end to end: the upper-half plane (natural parameters
are 2x2 symmetric positive-definite matrices, the group is SL(2,R) acting by
linear fractional transformations) and the Minkowski hyperboloid (natural
parameters live in the open forward cone, the group is the identity component
of the Lorentz group).  The module also carries the parameter and point maps
that identify the two pictures when d = 2, plus the Cayley transform to the
unit disk.

All types are immutable values; every operation is pure.  Random-element
helpers take an explicit ``numpy.random.Generator``.  The value classes of
the whole package build on ``_Value``, a slotted base that freezes the
fields, compares, hashes and prints them, and pickles by calling the class
again; each class writes its own ``__init__`` that validates and stores its
fields.  The base replaces ``dataclasses``, whose import (it loads
``inspect``) and class decoration cost a command about 12 ms of start-up.

The containers validate and store floats, and the invariants and the SL(2,R)
action are sums of float products, so the module imports no NumPy: a function
that returns or takes an array imports it when called.  The module also holds the argument
rules of the array entry points (sampler, estimators, EM) that need no
array, so that the command line checks them before it imports NumPy.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ConeError",
    "DimensionError",
    "DualDomainError",
    "FitError",
    "SpdParam2",
    "UpperHalfPoint",
    "Moment2",
    "LorentzParam",
    "HyperboloidPoint",
    "Mobius",
    "LorentzTransform",
    "InvariantTriple",
    "minkowski_inner",
    "mobius_act_point",
    "mobius_act_param",
    "poincare_invariant",
    "lorentz_invariant",
    "lorentz_random_element",
    "random_mobius",
    "random_spd",
    "random_lorentz_param",
    "param_h_to_l",
    "param_l_to_h",
    "point_h_to_l",
    "point_l_to_h",
    "point_h_to_disk",
    "point_disk_to_h",
    "upper_half_distance",
]

# Relative tolerance for cone membership: determinants this close to the
# boundary would poison every divergence formula that divides by them.
_CONE_RTOL = 1e-12
_TINY = sys.float_info.min
_RANGE = f"its squares leave the float64 normal range [{_TINY:.4g}, {sys.float_info.max:.4g}]"


def _outside_float_range(square: float, value: float) -> bool:
    # The cone tests square the components: value (the determinant or the
    # Minkowski square) does not decide membership once the largest square
    # leaves the normal float64 range or value is positive but subnormal.
    return value > -_TINY and (not _TINY <= square < math.inf or 0.0 < value < _TINY)


class ConeError(ValueError):
    """A natural parameter fell outside (or numerically on) its open cone."""


class DimensionError(ValueError):
    """The routine is implemented for d = 2 only; the command line exits 4 on it."""


class DualDomainError(ValueError):
    """A moment parameter is not realizable by any cone parameter."""


class FitError(RuntimeError):
    """EM failed to produce a non-degenerate mixture within the retry budget.

    Raised by :func:`hyperstat.mixtures.em_fit`; it lives here so that the
    command line maps it to exit 5 without importing the EM module.
    """


# ---------------------------------------------------------------------------
# Argument rules of the array entry points; the command line checks them
# before it imports NumPy, so a rejected size costs no array import
# ---------------------------------------------------------------------------


def _check_draws(d: int, n: int) -> None:
    """The sampler's rules: d = 2, then a sample size n >= 0."""
    if d != 2:
        raise DimensionError(f"sampler covers d=2 only, got d={d}")
    if n < 0:
        raise ValueError(f"sample size must be >= 0, got {n}")


def _check_estimator_pair(theta: LorentzParam, theta2: LorentzParam) -> None:
    if theta.d != 2 or theta2.d != 2:
        raise DimensionError(f"estimators cover d=2 only, got d={theta.d} and d={theta2.d}")


def _check_estimator_sizes(n: int, shards: int) -> None:
    # An interval needs a sample variance, hence at least two draws.
    if n < 2 or shards < 1:
        raise ValueError(f"estimators need n >= 2 draws and shards >= 1, got n={n}, shards={shards}")


def _check_components(k: int) -> None:
    if k < 1:
        raise ValueError(f"a mixture needs k >= 1 components, got {k}")


# ---------------------------------------------------------------------------
# Immutable values
# ---------------------------------------------------------------------------

_set = object.__setattr__  # how a value's own __init__ stores a field


class _Value:
    """Base of the package's immutable value classes.

    A subclass names its fields, in order, in ``__slots__`` and writes its
    own ``__init__``, which validates and stores each field with ``_set``.
    The base makes assignment and deletion raise ``AttributeError``,
    compares by class and field values (``NotImplemented`` for another
    class), hashes the field tuple, prints ``Cls(field=value!r, ...)``, and
    pickles and copies by calling the class again, so that a restored
    value is validated again.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields()


# ---------------------------------------------------------------------------
# Parameter and point containers
# ---------------------------------------------------------------------------


class SpdParam2(_Value):
    """Natural parameter of an upper-half-plane model: the SPD matrix [[a,b],[b,c]]."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: float, b: float, c: float) -> None:
        a, b, c = float(a), float(b), float(c)
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        scale = max(abs(a), abs(b), abs(c))
        det = a * c - b * b
        if a > 0.0 and c > 0.0 and _outside_float_range(scale * scale, det):
            raise ConeError(f"(a={a}, b={b}, c={c}) has det={det:.3e}: {_RANGE}")
        if not (a > 0.0 and c > 0.0 and det > 0.0):
            raise ConeError(
                f"(a={a}, b={b}, c={c}) violates the cone a>0, c>0, ac-b^2>0 "
                f"(det={det:.3e})"
            )
        bound = _CONE_RTOL * scale * scale
        if not det > bound:
            raise ConeError(
                f"(a={a}, b={b}, c={c}) is too near the cone's boundary: "
                f"det={det:.3e} <= {_CONE_RTOL:g}*max(|a|,|b|,|c|)^2={bound:.3e}"
            )

    def det(self) -> float:
        return self.a * self.c - self.b * self.b

    def sqrt_det(self) -> float:
        return math.sqrt(self.det())

    def as_matrix(self) -> np.ndarray:
        import numpy as np

        return np.array([[self.a, self.b], [self.b, self.c]], dtype=float)

    def as_vector(self) -> np.ndarray:
        import numpy as np

        return np.array([self.a, self.b, self.c], dtype=float)

    @classmethod
    def from_matrix(cls, m) -> "SpdParam2":
        """From a symmetric 2x2 matrix: two rows (not strings or mappings) of two ``float`` entries."""
        try:
            if any(isinstance(row, (str, dict)) for row in m):
                raise TypeError("a row must be a sequence")
            (m11, m12), (m21, m22) = m
        except (TypeError, ValueError):
            raise ConeError(f"expected a 2x2 matrix, got {m!r}") from None
        m11, m12, m21, m22 = float(m11), float(m12), float(m21), float(m22)
        if abs(m12 - m21) > 1e-12 * max(1.0, abs(m11), abs(m12), abs(m21), abs(m22)):
            raise ConeError(f"matrix is not symmetric: off-diagonals {m12} != {m21}")
        return cls(m11, 0.5 * (m12 + m21), m22)


class UpperHalfPoint(_Value):
    """A sample point x + iy of the upper-half plane (y > 0)."""

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        _set(self, "x", x)
        _set(self, "y", y)
        if not y > 0.0:
            raise ValueError(f"upper-half point needs y > 0, got y={y}")

    def as_complex(self) -> complex:
        return complex(self.x, self.y)


class Moment2(_Value):
    """Moment (dual) parameter of the half-plane model: a negative-definite 2x2 matrix."""

    __slots__ = ("m11", "m12", "m22")

    def __init__(self, m11: float, m12: float, m22: float) -> None:
        _set(self, "m11", m11)
        _set(self, "m12", m12)
        _set(self, "m22", m22)
        det = m11 * m22 - m12 * m12
        if not (m11 < 0.0 and m22 < 0.0 and det > 0.0):
            raise DualDomainError(f"[[{m11},{m12}],[{m12},{m22}]] is not negative definite")

    def det(self) -> float:
        return self.m11 * self.m22 - self.m12 * self.m12

    def as_matrix(self) -> np.ndarray:
        import numpy as np

        return np.array([[self.m11, self.m12], [self.m12, self.m22]], dtype=float)


class LorentzParam(_Value):
    """Natural parameter of a hyperboloid model: a (d+1)-vector in the open forward cone."""

    __slots__ = ("theta",)

    def __init__(self, theta: tuple) -> None:
        t = tuple(float(v) for v in theta)
        _set(self, "theta", t)
        if len(t) < 3:
            raise ConeError(f"hyperboloid parameters need d >= 2, got {len(t) - 1}")
        scale = max(abs(v) for v in t)
        mink_sq = t[0] * t[0] - sum(v * v for v in t[1:])
        if t[0] > 0.0 and _outside_float_range(scale * scale, mink_sq):
            raise ConeError(f"{t} has Minkowski square {mink_sq:.3e}: {_RANGE}")
        if not (t[0] > 0.0 and mink_sq > 0.0):
            raise ConeError(f"{t} is outside the forward cone (theta_0 must exceed the spatial norm)")
        bound = _CONE_RTOL * scale * scale
        if not mink_sq > bound:
            raise ConeError(
                f"{t} is too near the forward cone's boundary: Minkowski square "
                f"{mink_sq:.3e} <= {_CONE_RTOL:g}*max|theta_i|^2={bound:.3e}"
            )

    @property
    def d(self) -> int:
        return len(self.theta) - 1

    @property
    def vec(self) -> np.ndarray:
        import numpy as np

        return np.array(self.theta, dtype=float)

    def minkowski_sq(self) -> float:
        t = self.theta
        return t[0] * t[0] - sum(v * v for v in t[1:])

    def minkowski_norm(self) -> float:
        return math.sqrt(self.minkowski_sq())


class HyperboloidPoint(_Value):
    """Chart coordinates (x_1..x_d) of a point on the forward hyperboloid sheet."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple) -> None:
        xs = tuple(float(v) for v in coords)
        if len(xs) < 2:
            raise ValueError(f"hyperboloid points need d >= 2, got d={len(xs)}")
        _set(self, "coords", xs)

    @property
    def d(self) -> int:
        return len(self.coords)

    @property
    def vec(self) -> np.ndarray:
        import numpy as np

        return np.array(self.coords, dtype=float)

    def lift(self) -> np.ndarray:
        """The ambient point (sqrt(1+|x|^2), x_1..x_d); satisfies [lift,lift] = 1."""
        import numpy as np

        x = self.vec
        return np.concatenate(([math.sqrt(1.0 + float(x @ x))], x))


class Mobius(_Value):
    """An element of SL(2,R) acting on the upper-half plane."""

    __slots__ = ("g11", "g12", "g21", "g22")

    def __init__(self, g11: float, g12: float, g21: float, g22: float) -> None:
        _set(self, "g11", g11)
        _set(self, "g12", g12)
        _set(self, "g21", g21)
        _set(self, "g22", g22)
        det = g11 * g22 - g12 * g21
        scale = max(abs(g11), abs(g12), abs(g21), abs(g22), 1.0)
        if not abs(det - 1.0) <= 1e-12 * scale * scale:
            raise ValueError(f"Mobius matrix must have det 1, got det={det!r}")

    @classmethod
    def identity(cls) -> "Mobius":
        return cls(1.0, 0.0, 0.0, 1.0)


class LorentzTransform(_Value):
    """An element of SO_0(1,d): preserves the Minkowski form and the forward sheet.

    Equal only to itself, and hashed by identity: the matrix is an array.
    """

    __slots__ = ("matrix",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, matrix: np.ndarray) -> None:
        import numpy as np

        a = np.asarray(matrix, dtype=float)
        _set(self, "matrix", a)
        n = a.shape[0]
        if a.ndim != 2 or a.shape[1] != n or n < 3:
            raise ValueError(f"expected a square (d+1)x(d+1) matrix, got {a.shape}")
        g = _mink_metric(n - 1)
        err = np.max(np.abs(a.T @ g @ a - g))
        if err > 1e-10 or a[0, 0] <= 0.0:
            raise ValueError(
                f"matrix is not in SO_0(1,{n - 1}): metric defect {err:.2e}, "
                f"A00={a[0, 0]}"
            )

    @property
    def d(self) -> int:
        return self.matrix.shape[0] - 1

    def apply_param(self, theta: LorentzParam) -> LorentzParam:
        return LorentzParam(self.matrix @ theta.vec)

    def apply_point(self, p: HyperboloidPoint) -> HyperboloidPoint:
        lifted = self.matrix @ p.lift()
        return HyperboloidPoint(lifted[1:])


class InvariantTriple(_Value):
    """The three canonical terms every f-divergence factors through."""

    __slots__ = ("s1", "s2", "s3")

    def __init__(self, s1: float, s2: float, s3: float) -> None:
        _set(self, "s1", s1)
        _set(self, "s2", s2)
        _set(self, "s3", s3)

    def as_tuple(self) -> tuple:
        return (self.s1, self.s2, self.s3)


# ---------------------------------------------------------------------------
# Minkowski form and group actions
# ---------------------------------------------------------------------------


def _mink_metric(d: int) -> np.ndarray:
    import numpy as np

    g = -np.eye(d + 1)
    g[0, 0] = 1.0
    return g


def minkowski_inner(u: Sequence[float], v: Sequence[float]) -> float:
    """The Minkowski bilinear form u0*v0 - sum_i ui*vi, the sum taken left to right."""
    u = [float(x) for x in u]
    v = [float(x) for x in v]
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return u[0] * v[0] - sum(a * b for a, b in zip(u[1:], v[1:]))


def mobius_act_point(g: Mobius, z: UpperHalfPoint) -> UpperHalfPoint:
    """Linear fractional action (az+b)/(cz+d) on the upper-half plane."""
    w = (g.g11 * z.as_complex() + g.g12) / (g.g21 * z.as_complex() + g.g22)
    return UpperHalfPoint(w.real, w.imag)


def mobius_act_param(g: Mobius, theta: SpdParam2) -> SpdParam2:
    """Parameter action g.theta = g^{-T} theta g^{-1}; preserves the determinant."""
    # det g = 1, so g^{-1} is the adjugate [[p, q], [r, s]]; t = g^{-T} theta.
    p, q, r, s = g.g22, -g.g12, -g.g21, g.g11
    t11, t12 = p * theta.a + r * theta.b, p * theta.b + r * theta.c
    t21, t22 = q * theta.a + s * theta.b, q * theta.b + s * theta.c
    m12, m21 = t11 * q + t12 * s, t21 * p + t22 * r
    return SpdParam2(t11 * p + t12 * r, 0.5 * (m12 + m21), t21 * q + t22 * s)


def poincare_invariant(theta: SpdParam2, theta2: SpdParam2) -> InvariantTriple:
    """Maximal invariant (det theta, det theta', tr(theta' theta^{-1})) of the SL(2,R) action."""
    # The diagonal of theta' [[c, -b], [-b, a]] / det theta, entry by entry.
    det = theta.det()
    inv_a, inv_b, inv_c = theta.a / det, -theta.b / det, theta.c / det
    tr = (theta2.a * inv_c + theta2.b * inv_b) + (theta2.b * inv_b + theta2.c * inv_a)
    return InvariantTriple(det, theta2.det(), tr)


def lorentz_invariant(theta: LorentzParam, theta2: LorentzParam) -> InvariantTriple:
    """Maximal invariant ([t,t], [t',t'], [t,t']) of the SO_0(1,d) action."""
    if theta.d != theta2.d:
        raise ValueError(f"dimension mismatch: d={theta.d} vs d={theta2.d}")
    return InvariantTriple(
        theta.minkowski_sq(),
        theta2.minkowski_sq(),
        minkowski_inner(theta.theta, theta2.theta),
    )


def _random_rotation(d: int, rng: np.random.Generator) -> np.ndarray:
    import numpy as np

    # Haar-ish rotation from the QR of a Gaussian matrix, det fixed to +1.
    m = rng.standard_normal((d, d))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _spatial_block(rot: np.ndarray) -> np.ndarray:
    import numpy as np

    d = rot.shape[0]
    out = np.eye(d + 1)
    out[1:, 1:] = rot
    return out


def lorentz_random_element(d: int, rng: np.random.Generator) -> LorentzTransform:
    """A random SO_0(1,d) element: rotation * bounded boost * rotation.

    Rapidity is capped at 2 so that invariance tests do not run into
    catastrophic cancellation from extreme boosts.
    """
    import numpy as np

    if d < 2:
        raise ValueError(f"need d >= 2, got d={d}")
    phi = rng.uniform(-2.0, 2.0)
    boost = np.eye(d + 1)
    boost[0, 0] = boost[1, 1] = math.cosh(phi)
    boost[0, 1] = boost[1, 0] = math.sinh(phi)
    a = _spatial_block(_random_rotation(d, rng)) @ boost @ _spatial_block(
        _random_rotation(d, rng)
    )
    return LorentzTransform(a)


def random_mobius(rng: np.random.Generator) -> Mobius:
    """A random SL(2,R) element: rotation * diag(s, 1/s) * rotation, log s uniform on [-1, 1]."""
    s = math.exp(rng.uniform(-1.0, 1.0))
    t1 = rng.uniform(0, 2 * math.pi)
    t2 = rng.uniform(0, 2 * math.pi)
    # b = rot(t1) diag(s, 1/s), then b rot(t2), with rot(t) = [[cos t, -sin t], [sin t, cos t]].
    u = 1.0 / s
    b11, b12 = math.cos(t1) * s, -math.sin(t1) * u
    b21, b22 = math.sin(t1) * s, math.cos(t1) * u
    c2, s2 = math.cos(t2), math.sin(t2)
    return Mobius(b11 * c2 + b12 * s2, b12 * c2 - b11 * s2, b21 * c2 + b22 * s2, b22 * c2 - b21 * s2)


def random_spd(rng: np.random.Generator, log_scale: float = 1.2) -> SpdParam2:
    """A random cone parameter with eigenvalues roughly in e^{+-log_scale}."""
    import numpy as np

    lam = np.exp(rng.uniform(-log_scale, log_scale, size=2))
    t = rng.uniform(0, 2 * math.pi)
    r = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    m = r @ np.diag(lam) @ r.T
    return SpdParam2(float(m[0, 0]), 0.5 * float(m[0, 1] + m[1, 0]), float(m[1, 1]))


def random_lorentz_param(
    d: int, rng: np.random.Generator, log_scale: float = 1.2
) -> LorentzParam:
    """A random forward-cone parameter with Minkowski norm roughly in e^{+-log_scale}."""
    import numpy as np

    norm = math.exp(rng.uniform(-log_scale, log_scale))
    u = rng.standard_normal(d)
    u = u / np.linalg.norm(u)
    rapidity = rng.uniform(0.0, 1.5)
    theta = np.concatenate(([math.cosh(rapidity)], math.sinh(rapidity) * u)) * norm
    return LorentzParam(theta)


# ---------------------------------------------------------------------------
# Model correspondence maps
# ---------------------------------------------------------------------------


def param_h_to_l(theta: SpdParam2) -> LorentzParam:
    """Half-plane parameter to hyperboloid parameter: (a+c, a-c, 2b).

    Satisfies [out,out] = 4 det(theta) and, pairwise, [out,out'] =
    2 det(theta) tr(theta' theta^{-1}), so divergences agree across the map.
    It is not the parameter that :func:`point_h_to_l` carries the law to:
    that one is (a+c, a-c, -2b), and the two differ when b != 0.
    """
    return LorentzParam((theta.a + theta.c, theta.a - theta.c, 2.0 * theta.b))


def param_l_to_h(theta: LorentzParam) -> SpdParam2:
    """Inverse of :func:`param_h_to_l` (d = 2 only)."""
    if theta.d != 2:
        raise DimensionError(f"parameter correspondence needs d=2, got d={theta.d}")
    t0, t1, t2 = theta.theta
    return SpdParam2(0.5 * (t0 + t1), 0.5 * t2, 0.5 * (t0 - t1))


def point_h_to_l(z: UpperHalfPoint) -> HyperboloidPoint:
    """Half-plane point to hyperboloid chart: (X, Y) = ((1-x^2-y^2)/(2y), x/y).

    It carries the half-plane law theta = (a, b, c) to the hyperboloid law
    with parameter (a+c, a-c, -2b), not to :func:`param_h_to_l` (theta): the
    exponents agree, (a (x^2+y^2) + 2 b x + c)/y = [(a+c, a-c, -2b), lift(X, Y)].
    """
    r2 = z.x * z.x + z.y * z.y
    return HyperboloidPoint(((1.0 - r2) / (2.0 * z.y), z.x / z.y))


def point_l_to_h(p: HyperboloidPoint) -> UpperHalfPoint:
    """Inverse chart map: the positive root of y^2 (1+Y^2) + 2 X y - 1 = 0.

    Of the two equal forms of the root, each is used where it does not cancel;
    sqrt(1 + X^2 + Y^2) and sqrt(1 + Y^2) are taken by ``math.hypot``, which
    does not overflow for far points.
    """
    if p.d != 2:
        raise DimensionError(f"point correspondence needs d=2, got d={p.d}")
    big_x, big_y = p.coords
    r = math.hypot(1.0, big_x, big_y)
    if big_x >= 0.0:
        y = 1.0 / (r + big_x)
    else:
        h = math.hypot(1.0, big_y)
        y = (r - big_x) / h / h
    return UpperHalfPoint(y * big_y, y)


def point_h_to_disk(z: UpperHalfPoint) -> tuple:
    """Cayley transform w = (z - i)/(z + i) onto the open unit disk."""
    w = (z.as_complex() - 1j) / (z.as_complex() + 1j)
    return (w.real, w.imag)


def point_disk_to_h(u: float, v: float) -> UpperHalfPoint:
    """Inverse Cayley transform z = i (1 + w)/(1 - w)."""
    if u * u + v * v >= 1.0:
        raise ValueError(f"({u}, {v}) is not inside the unit disk")
    w = complex(u, v)
    z = 1j * (1 + w) / (1 - w)
    return UpperHalfPoint(z.real, z.imag)


def upper_half_distance(z1: UpperHalfPoint, z2: UpperHalfPoint) -> float:
    """Hyperbolic distance on the upper-half plane."""
    dx = z1.x - z2.x
    dy = z1.y - z2.y
    return math.acosh(1.0 + (dx * dx + dy * dy) / (2.0 * z1.y * z2.y))
