"""Parametric families of analytic self-maps of the unit disk.

Every family here is bounded by 1 on the disk *by construction* (Moebius
transforms, Blaschke products, rotated monomials, polynomials normalized by
the sum of absolute coefficients), so membership in the class of unit-bounded
functions never rests on a numerical optimization.

``antiderivative`` integrates a family along [0, z] at one point or at a
whole array of points.  Moebius shifts, monomials and polynomials have an exact
primitive and take it; a Moebius shift's is z B_a(z e^{i psi}), where
``_moebius_mean`` is the one implementation of the majorant B_a that
``bounds.b_a`` also calls.  Blaschke products take ``gauss_legendre``, a
16-node rule on one segment near the origin and on two farther out, which
costs one vectorized ``eval`` on a (points x nodes) matrix per segment count
it needs, not one call per point.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field
from functools import partial, reduce

import numpy as np

from .errors import (
    BasePointOutsideClosedDisk,
    OutsideDisk,
    ZeroOnOrOutsideBoundary,
)
from .series import (
    DEFAULT_ORDER,
    TruncatedSeries,
    series_mul,
)


class DiskFunction:
    """Analytic function with sup norm <= 1 on the unit disk.

    Subclasses provide pointwise evaluation, a closed-form derivative, and
    exact Taylor coefficients about 0.
    """

    def eval(self, z):
        raise NotImplementedError

    def deriv(self, z):
        raise NotImplementedError

    def taylor(self, order: int = DEFAULT_ORDER) -> TruncatedSeries:
        raise NotImplementedError

    def base_point(self) -> complex:
        """Value at the origin."""
        return complex(self.eval(0j))

    def _primitive(self, z):
        # int_0^z self for an array or numpy scalar z in the closed disk
        return gauss_legendre(self, z)


@dataclass(frozen=True)
class MoebiusShift(DiskFunction):
    """w(z) = (a + z e^{i psi}) / (1 + conj(a) z e^{i psi}); w(0) = a.

    For |a| = 1 the transform degenerates to the constant a.
    """

    a: complex
    psi: float = 0.0

    def __post_init__(self):
        a = complex(self.a)
        # written so that a NaN a fails too
        if not abs(a) <= 1 + 1e-12:
            raise BasePointOutsideClosedDisk(f"|a| = {abs(a):.6f} is not <= 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "psi", _finite(self.psi, "psi"))

    @property
    def _degenerate(self) -> bool:
        return abs(self.a) >= 1 - 1e-12

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        if self._degenerate:
            return np.broadcast_to(np.asarray(self.a), z.shape).copy() if z.ndim else self.a
        w = z * cmath.exp(1j * self.psi)
        out = (self.a + w) / (1 + np.conj(self.a) * w)
        return out if z.ndim else complex(out)

    def deriv(self, z):
        z = np.asarray(z, dtype=complex)
        if self._degenerate:
            return np.zeros(z.shape, dtype=complex) if z.ndim else 0j
        e = cmath.exp(1j * self.psi)
        out = e * (1 - abs(self.a) ** 2) / (1 + np.conj(self.a) * z * e) ** 2
        return out if z.ndim else complex(out)

    def taylor(self, order: int = DEFAULT_ORDER) -> TruncatedSeries:
        if self._degenerate:
            return TruncatedSeries.from_coeffs([self.a], order=order)
        return TruncatedSeries(_moebius_coeffs(self.a, order, cmath.exp(1j * self.psi)))

    def _primitive(self, z):
        if self._degenerate:
            return self.a * z
        # substituting u = t e^{i psi}: int_0^z omega = z B_a(z e^{i psi})
        return z * _moebius_mean(self.a, z * cmath.exp(1j * self.psi))


def _finite(v, name: str) -> float:
    try:
        v = float(v)
    except OverflowError:  # an integer beyond the float range
        v = math.inf if v > 0 else -math.inf
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {v!r}")
    return v


def _moebius_coeffs(a: complex, order: int, e: complex = 1.0) -> np.ndarray:
    """Taylor coefficients c_0..c_order of (a + e z)/(1 + conj(a) e z) for
    |a| < 1, |e| = 1: c_0 = a and c_k = e^k (1 - |a|^2) (-conj(a))^{k-1}."""
    c = np.empty(order + 1, dtype=complex)
    c[0] = a
    k = np.arange(1, order + 1)
    c[1:] = (1 - abs(a) ** 2) * e**k * (-np.conj(a)) ** (k - 1)
    return c


@dataclass(frozen=True)
class Blaschke(DiskFunction):
    """e^{i rot} * prod_k (z - b_k) / (1 - conj(b_k) z), zeros strictly inside."""

    zeros: tuple = ()
    rotation: float = 0.0

    def __post_init__(self):
        zs = tuple(complex(b) for b in self.zeros)
        for b in zs:
            # written so that a NaN zero fails too
            if not abs(b) < 1:
                raise ZeroOnOrOutsideBoundary(f"zero with |b| = {abs(b):.6f} is not < 1")
        object.__setattr__(self, "zeros", zs)
        object.__setattr__(self, "rotation", _finite(self.rotation, "rotation"))

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.full(z.shape, cmath.exp(1j * self.rotation), dtype=complex)
        for b in self.zeros:
            out = out * (z - b) / (1 - np.conj(b) * z)
        return out if z.ndim else complex(out)

    def deriv(self, z):
        # the product rule one factor at a time: (P f)' = P' f + P f', with
        # P the product so far; no division by B, so exact at its zeros
        z = np.asarray(z, dtype=complex)
        val = np.ones(z.shape, dtype=complex)
        out = np.zeros(z.shape, dtype=complex)
        for b in self.zeros:
            den = 1 - np.conj(b) * z
            f = (z - b) / den
            out = out * f + val * ((1 - abs(b) ** 2) / den**2)
            val = val * f
        out = out * cmath.exp(1j * self.rotation)
        return out if z.ndim else complex(out)

    def taylor(self, order: int = DEFAULT_ORDER) -> TruncatedSeries:
        # each factor (z - b)/(1 - conj(b) z) is the Moebius shift with a = -b
        acc = TruncatedSeries.from_coeffs([cmath.exp(1j * self.rotation)], order=order)
        for b in self.zeros:
            acc = series_mul(acc, TruncatedSeries(_moebius_coeffs(-b, order)))
        return acc


@dataclass(frozen=True)
class Monomial(DiskFunction):
    """e^{i theta} z^k for k >= 1."""

    theta: float = 0.0
    k: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("monomial degree must be >= 1")
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "k", int(self.k))

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        out = cmath.exp(1j * self.theta) * _power(z, self.k)
        return out if z.ndim else complex(out)

    def deriv(self, z):
        z = np.asarray(z, dtype=complex)
        out = cmath.exp(1j * self.theta) * self.k * _power(z, self.k - 1)
        return out if z.ndim else complex(out)

    def taylor(self, order: int = DEFAULT_ORDER) -> TruncatedSeries:
        c = np.zeros(order + 1, dtype=complex)
        if self.k <= order:
            c[self.k] = cmath.exp(1j * self.theta)
        return TruncatedSeries(c)

    def _primitive(self, z):
        return cmath.exp(1j * self.theta) * _power(z, self.k + 1) / (self.k + 1)


def _power(z, k: int):
    # z**k by k - 1 products: numpy's complex power takes a slow per-element
    # path for every integer k but 2 (z**1 costs about ten times a copy)
    return reduce(np.multiply, [z] * k) if k else np.ones_like(z)


@dataclass(frozen=True)
class ScaledPolynomial(DiskFunction):
    """p(z) / normalizer with normalizer >= sum |p_k|, hence bounded by 1."""

    raw: tuple = (0.0,)
    normalizer: float = field(default=0.0)

    def __post_init__(self):
        raw = tuple(complex(c) for c in self.raw)
        total = float(sum(abs(c) for c in raw))
        norm = float(self.normalizer)
        if norm == 0.0:
            norm = total if total > 0 else 1.0
        if norm < total - 1e-12:
            raise ValueError(
                f"normalizer {norm} below coefficient sum {total}: bound not certified"
            )
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "normalizer", norm)

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        acc = np.zeros(z.shape, dtype=complex)
        for c in self.raw[::-1]:
            acc = acc * z + c
        acc = acc / self.normalizer
        return acc if z.ndim else complex(acc)

    def deriv(self, z):
        z = np.asarray(z, dtype=complex)
        acc = np.zeros(z.shape, dtype=complex)
        for k in range(len(self.raw) - 1, 0, -1):
            acc = acc * z + k * self.raw[k]
        acc = acc / self.normalizer
        return acc if z.ndim else complex(acc)

    def taylor(self, order: int = DEFAULT_ORDER) -> TruncatedSeries:
        return TruncatedSeries.from_coeffs(
            [c / self.normalizer for c in self.raw], order=order
        )

    def _primitive(self, z):
        # Horner on the integrated coefficients 0, p_0, p_1/2, p_2/3, ...
        acc = np.zeros(z.shape, dtype=complex)
        for k in range(len(self.raw) - 1, -1, -1):
            acc = acc * z + self.raw[k] / (k + 1)
        return acc * z / self.normalizer


def schwarz_pick_envelope(a_mod: float, r: float) -> float:
    """Sharp bound (|a| + r) / (1 + |a| r) on |w(z)| when w(0) = a, |z| = r."""
    if not (0 <= a_mod <= 1 and 0 <= r <= 1):
        raise ValueError("arguments must lie in [0, 1]")
    return (a_mod + r) / (1 + a_mod * r)


# B_a takes its 40-term series for |conj(a) z| below this: the series'
# truncation error stays below 0.4^40 / (42 * 0.6), about 5e-18, while the
# closed form loses accuracy as |conj(a) z| shrinks (log1p rounds
# 1 + conj(a) z first and the prefactor grows like 1/|conj(a) z|; between
# 0.3 and 0.4 that still cost up to 1.6e-15).
_B_A_SERIES = 0.4


def _b_a_small(a: complex, z, w):
    # B_a(z) = a + (1 - |a|^2) z sum_{j>=0} (-w)^j / (j + 2)
    minus_w = -w
    acc = 0j
    for j in range(39, -1, -1):
        acc = acc * minus_w + 1.0 / (j + 2)
    return a + (1 - abs(a) ** 2) * z * acc


def _b_a_closed(a: complex, z, w):
    return 1 / np.conj(a) - (1 - abs(a) ** 2) / (np.conj(a) ** 2 * z) * np.log1p(w)


def _moebius_mean(a: complex, z):
    """B_a(z) = (1/z) int_0^z (a + u)/(1 + conj(a) u) du for |a| < 1, at an
    array or numpy scalar z with conj(a) z off the branch point -1.

    Each element takes the series for |conj(a) z| < 0.4 and the closed form
    1/conj(a) - ((1-|a|^2)/(conj(a)^2 z)) log(1+conj(a) z) elsewhere; each
    branch runs only on its own elements.  a = 0 gives z/2 (series path).
    """
    w = np.conj(a) * z
    return _by_mask(abs(w) < _B_A_SERIES, partial(_b_a_small, a), partial(_b_a_closed, a), z, w)


# 16-point Gauss-Legendre rule mapped to [0, 1] (nodes t, weights w), and the
# same rule on each half of [0, 1]: int_0^z f = z sum_k w_k f(t_k z)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_ONE_SEGMENT = ((1 + _GL_NODES) / 2, _GL_WEIGHTS / 2)
_TWO_SEGMENTS = (
    np.concatenate([_ONE_SEGMENT[0] / 2, (1 + _ONE_SEGMENT[0]) / 2]),
    np.concatenate([_GL_WEIGHTS, _GL_WEIGHTS]) / 4,
)


def _any(mask) -> bool:
    # bool() on a 0-d mask skips a numpy reduction, which costs microseconds
    return bool(mask) if mask.ndim == 0 else bool(mask.any())


def _by_mask(mask, on, off, *args):
    """``on(*args)`` where mask holds and ``off(*args)`` elsewhere, each run
    only on its own elements of the array arguments (so a 0-d mask runs
    exactly one of them, on the arguments as given)."""
    if not _any(~mask):
        return on(*args)
    if not _any(mask):
        return off(*args)
    out = np.empty(mask.shape, dtype=complex)
    out[mask] = on(*(x[mask] for x in args))
    out[~mask] = off(*(x[~mask] for x in args))
    return out


def _disk_points(z):
    """z as a complex array (a 0-d z as a fast numpy scalar); raises
    OutsideDisk unless every point lies in the closed unit disk."""
    z = np.asarray(z, dtype=complex)[()]
    modulus = abs(z)
    if _any(modulus > 1 + 1e-12):
        raise OutsideDisk(f"|z| = {float(np.max(modulus)):.6f} > 1")
    return z


def antiderivative(fun: DiskFunction, z):
    """Line integral of fun along [0, z] for a point or an array of points.

    Takes the family's exact primitive where it has one (Moebius shift,
    monomial, polynomial) and ``gauss_legendre`` otherwise.  The result has
    the shape of z, and a 0-d z gives a complex.
    """
    z = _disk_points(z)
    out = fun._primitive(z)
    return out if z.ndim else complex(out)


def gauss_legendre(fun: DiskFunction, z):
    """Line integral of fun along [0, z] by 16-point Gauss-Legendre
    quadrature, at a point or an array of points, with the shape rules and
    the OutsideDisk check of ``antiderivative``.

    One segment where |z| <= 0.5 and two (halves of [0, z]) elsewhere; the
    integrands are analytic and bounded by 1.  An array costs one fun.eval
    call on a (points x nodes) matrix per rule used.  Independent of every
    closed form, so it is also the reference the sharpness checks compare
    them with.
    """
    z = _disk_points(z)

    def rule(nodes, weights):
        return lambda z: z * (fun.eval(z[..., None] * nodes) @ weights)

    out = _by_mask(abs(z) > 0.5, rule(*_TWO_SEGMENTS), rule(*_ONE_SEGMENT), z)
    return out if z.ndim else complex(out)


def diskfun_from_json(obj: dict) -> DiskFunction:
    """Build a DiskFunction from its JSON description.

    Schemas::

        {"kind": "moebius", "a": <complex>, "psi": <float>}
        {"kind": "blaschke", "zeros": [<complex>, ...], "rotation": <float>}
        {"kind": "monomial", "theta": <float>, "k": <int>}
        {"kind": "poly", "coeffs": [<complex>, ...], "normalizer": <float, optional>}

    Complex numbers are written as a [re, im] pair or a bare real number,
    and <float> is a real number, not a bool or a string.  Any other shape
    (a scalar for ``zeros`` or ``coeffs`` among them),
    a non-integral k, or a parameter outside its family's range, raises a
    ValueError.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"a disk function must be a JSON object, got {obj!r}")
    kind = obj.get("kind")
    if kind == "moebius":
        return MoebiusShift(a=_cplx(obj["a"], "a"), psi=_real(obj.get("psi", 0.0), "psi"))
    if kind == "blaschke":
        return Blaschke(
            zeros=tuple(_cplx(b, "zeros") for b in _list(obj["zeros"], "zeros")),
            rotation=_real(obj.get("rotation", 0.0), "rotation"),
        )
    if kind == "monomial":
        k = obj.get("k", 1)
        # int() would truncate a float and read a bool as 0 or 1
        if isinstance(k, bool) or not isinstance(k, numbers.Integral):
            raise ValueError(f"k must be an integer, got {k!r}")
        return Monomial(theta=_real(obj.get("theta", 0.0), "theta"), k=int(k))
    if kind == "poly":
        return ScaledPolynomial(
            raw=tuple(_cplx(c, "coeffs") for c in _list(obj["coeffs"], "coeffs")),
            normalizer=_real(obj.get("normalizer", 0.0), "normalizer"),
        )
    raise ValueError(f"unknown disk-function kind: {kind!r}")


def _is_real(v) -> bool:
    # JSON true and false are not numbers here
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _real(v, name: str) -> float:
    """A finite real number as a float; ValueError naming ``name`` otherwise."""
    if not _is_real(v):
        raise ValueError(f"{name} must be a real number, got {v!r}")
    return _finite(v, name)


def _list(v, name: str) -> list | tuple:
    """A list (or tuple) as given; ValueError naming ``name`` for anything
    else, which iterating would turn into a TypeError or read element-wise
    (a string)."""
    if not isinstance(v, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {v!r}")
    return v


def _cplx(v, name: str) -> complex:
    """A finite complex number from a [re, im] pair or a real, as ``_real``."""
    parts = v if isinstance(v, (list, tuple)) else [v, 0.0]
    if len(parts) != 2 or not all(map(_is_real, parts)):
        raise ValueError(f"{name} must be a real number or a [re, im] pair, got {v!r}")
    return complex(_finite(parts[0], name), _finite(parts[1], name))
