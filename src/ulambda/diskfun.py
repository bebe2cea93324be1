"""Parametric families of analytic self-maps of the unit disk.

Every family here is bounded by 1 on the disk *by construction* (Moebius
transforms, Blaschke products, rotated monomials, polynomials normalized by
the sum of absolute coefficients), so membership in the class of unit-bounded
functions never rests on a numerical optimization.

``antiderivative`` integrates a family along [0, z] at one point or at a
whole array of points, by the family's exact primitive.  A Moebius shift's is
z B_a(z e^{i psi}), where ``_moebius_mean`` is the one implementation of the
majorant B_a that ``bounds.b_a`` also calls.  A Blaschke product's is a sum
of residue terms (``Blaschke._residues``).  ``_primitive_rows`` gives the
primitives of many functions on one circle, one row each, from a
``_moebius_mean`` call per branch (one base point per row) and one
``_horner`` loop.
``gauss_legendre``, a 16-node rule on one segment near
the origin and on two farther out, shares no code with them: it is the
independent reference that the tests and the sharpness checks compare them
with.
"""

from __future__ import annotations

import cmath
import math
import numbers
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial, reduce

import numpy as np

from .errors import (
    BasePointOutsideClosedDisk,
    OutsideDisk,
    ZeroOnOrOutsideBoundary,
)
from .series import DEFAULT_ORDER, TruncatedSeries, _horner


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
        """Value at the origin, which each family gives in closed form."""
        return complex(self.eval(0j))

    def _primitive(self, z):
        # int_0^z self for an array or numpy scalar z in the closed disk
        raise NotImplementedError

    def _primitive_size(self) -> float:
        """A bound on the moduli of the terms that ``_primitive`` sums on the
        closed disk, the scale its rounding is relative to: 1 for the closed
        forms, whose primitive is itself at most 1 there."""
        return 1.0


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
        if not _modulus(a, "a") <= 1 + 1e-12:
            raise BasePointOutsideClosedDisk(f"|a| = {abs(a):.6f} is not <= 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "psi", _finite(self.psi, "psi"))

    def base_point(self) -> complex:
        return self.a

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

    def _primitive(self, z, mean=None):
        if self._degenerate:
            return self.a * z
        # substituting u = t e^{i psi}: int_0^z omega = z B_a(z e^{i psi}),
        # given as ``mean`` by ``_primitive_rows``
        if mean is None:
            mean = _moebius_mean(self.a, z * cmath.exp(1j * self.psi))
        return z * mean


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
            if not _modulus(b, "zeros") < 1:
                raise ZeroOnOrOutsideBoundary(f"zero with |b| = {abs(b):.6f} is not < 1")
        object.__setattr__(self, "zeros", zs)
        object.__setattr__(self, "rotation", _finite(self.rotation, "rotation"))

    def base_point(self) -> complex:
        # eval's product at z = 0, factor by factor: each is -b
        out = cmath.exp(1j * self.rotation)
        for b in self.zeros:
            out = out * -b
        return out

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
        acc = np.zeros(order + 1, dtype=complex)
        acc[0] = cmath.exp(1j * self.rotation)
        for b in self.zeros:
            acc = np.convolve(acc, _moebius_coeffs(-b, order))[: order + 1]
        return TruncatedSeries(acc)

    @cached_property
    def _residues(self) -> tuple:
        """(P, simple, clusters): the primitive's residue terms.

        In w = 1/z each factor (z - b)/(1 - conj(b) z) is (1 - b w)/(w - c),
        c = conj(b), so B e^{-i rot} = F(w)/prod_j (w - c_j) with F(w) =
        prod_j (1 - b_j w): the constant P = prod_j (-b_j) plus the principal
        parts at the c_j.  As 1/(w - c)^m = (z/(1 - cz))^m, whose primitive is
        K_{m-1}(c, z) (``_k_n``), and d^n K_0/dc^n = n! K_n, the principal
        parts at a group of the c_j integrate to the divided difference over
        the group of c -> H(c) K_0(c, z), H = F/prod_{j outside} (c - c_j);
        a repeated c counts as often as it repeats.

        ``simple`` holds (b, r) for each lone zero b: r = prod_{j != k} (1 -
        b_j c)/(c - c_j) weighs z (B_{-b}(z) + b) = (1 - |b|^2) K_0(c, z).
        ``clusters`` holds (c0, weights) for each group of zeros within
        ``_CLUSTER`` of one another, or repeated, with weights[n] the weight
        of K_n(c0, z) in the group's divided difference, taken about the
        group's centre c0: with u_i = c_i - c0 for its p nodes, the divided
        difference of (c - c0)^m is the complete symmetric polynomial
        h_{m-p+1}(u), so weights[n] = sum_m h_{m-p+1}(u) H_{m-n}, H_l the
        Taylor coefficients of H at c0, until h's terms fall below rounding.
        Distinct zeros close together would otherwise weigh their terms by
        about 1/|c_k - c_j| each, and lose as many digits.  A group whose
        spread is not within an eighth of the distance from c0 to the other
        poles and to 1/z is split into its repeated zeros."""
        groups = []
        for b in self.zeros:
            near = [g for g in groups if any(abs(b - x) < _CLUSTER for x in g)]
            groups = [g for g in groups if all(g is not h for h in near)]
            groups.append([b] + [x for g in near for x in g])
        simple, clusters = [], []
        for group in groups:
            parts = [group]
            if len(group) > 1:
                _, spread, room = self._centre(group)
                if spread > room / 8:
                    parts = [[b] * m for b, m in Counter(group).items()]
            for part in parts:
                if len(part) > 1:
                    clusters.append(self._cluster(part))
                    continue
                b = part[0]
                r = 1
                for other in self.zeros:
                    if other != b:
                        r = r * (1 - other * b.conjugate()) / (b.conjugate() - other.conjugate())
                simple.append((b, r))
        return math.prod(-b for b in self.zeros), simple, clusters

    def _centre(self, group: list) -> tuple:
        # (c0, spread, distance from c0 to the other poles and to 1/z)
        c = [b.conjugate() for b in group]
        # an offset from c[0], so that a repeated zero is its own centre exactly
        c0 = c[0] + sum(x - c[0] for x in c) / len(c)
        others = [abs(c0 - b.conjugate()) for b in self.zeros if b not in group]
        return c0, max(abs(x - c0) for x in c), min([1 - abs(c0)] + others)

    def _cluster(self, group: list) -> tuple:
        c0, spread, room = self._centre(group)
        u, p = [b.conjugate() - c0 for b in group], len(group)
        # h_k(u) is at most C(k + p - 1, p - 1) spread^k, and H_l about room^-l
        terms = 1
        while spread and math.comb(terms + p - 1, p - 1) * (spread / room) ** terms >= 1e-17:
            terms += 1
        order = p + terms - 1
        # Taylor series in c - c0, truncated after order - 1: 1 - b_j c =
        # (1 - b_j c0) - b_j (c - c0) and 1/(c - c_j) = sum_l (-(c - c0))^l / (c0 - c_j)^{l+1}
        taylor = np.eye(1, order, dtype=complex)[0]
        for other in self.zeros:
            taylor = np.convolve(taylor, [1 - other * c0, -other])[:order]
        for other in self.zeros:
            if other not in group:
                d = c0 - other.conjugate()
                taylor = np.convolve(taylor, [(-1) ** l / d ** (l + 1) for l in range(order)])[:order]
        h = np.eye(1, terms, dtype=complex)[0]
        for x in u:
            for k in range(1, terms):
                h[k] += x * h[k - 1]
        weights = [sum(h[m - p + 1] * taylor[m - n] for m in range(max(p - 1, n), order)) for n in range(order)]
        return c0, tuple(complex(g) for g in weights)

    def _primitive(self, z, means=None):
        # int_0^z of the partial fractions of ``_residues``, term by term;
        # ``_primitive_rows`` gives B_{-b}(z) of each simple zero as ``means``
        const, simple, clusters = self._residues
        if means is None:
            means = [_moebius_mean(-b, z) for b, _ in simple]
        out = const * z
        for (b, r), mean in zip(simple, means):
            out = out + r * (z * (mean + b))
        for c, weights in clusters:
            for n, g in enumerate(weights):
                # a lone multiple zero at 0 weighs only its last K_n
                if g:
                    out = out + g * _k_n(n, c, z)
        return cmath.exp(1j * self.rotation) * out

    def _primitive_size(self) -> float:
        # |P z| <= |P|; a simple zero's term sums r_k z B_{-b_k} and r_k z b_k,
        # each below |r_k| as |B_a| <= 1; |K_n(c, z)| <= K_n(|c|, 1), and
        # rounding cz by eps moves K_n by up to eps (n+1) |c| K_{n+1}(|c|, 1),
        # which near the circle exceeds K_n(|c|, 1) eps a hundredfold
        const, simple, clusters = self._residues
        one = np.complex128(1.0)
        size = abs(const) + sum(2 * abs(r) for _, r in simple)
        for c, weights in clusters:
            k = [_k_n(n, abs(c), one).real for n in range(len(weights) + 1)]
            size += sum(abs(g) * (k[n] + (n + 1) * abs(c) * k[n + 1]) for n, g in enumerate(weights))
        return float(size)


# zeros closer than this are summed as one cluster (``Blaschke._residues``)
_CLUSTER = 1e-3

# K_n(c, z) sums this many terms of its series where that reaches rounding;
# the closed form's binomial sum, which cancels the more the larger n and
# the smaller |cz|, serves only n <= 11, from |cz| = 0.77 to 0.998 on
_K_N_TERMS = 128


def _k_n_small(n: int, z, w):
    # Euler's transformation of K_n = z^{n+2}/(n+2) 2F1(n+1, n+2; n+3; w),
    # w = c z: K_n = z^{n+2} (1 - w)^{-n} sum_m w^m / C(n+m+2, n+1), whose
    # coefficients are positive, so nothing cancels
    acc = 0j
    for m in range(_K_N_TERMS - 1, -1, -1):
        acc = acc * w + 1 / math.comb(n + m + 2, n + 1)
    return _power(z, n + 2) * acc / _power(1 - w, n)


def _k_n_reach(n: int) -> float:
    # the |w| below which the series' first omitted term is below 1e-17
    return min(1.0, (1e-17 * math.comb(n + _K_N_TERMS + 2, n + 1)) ** (1 / _K_N_TERMS))


def _k_n_closed(n: int, c: complex, z, w):
    # t/(1 - ct) = (y - 1)/c with y = 1/(1 - ct), expanded binomially:
    # K_n = c^{-n-2} sum_j C(n+1, j) (-1)^{n+1-j} L_j, L_0 = w,
    # L_1 = -log(1 - w) and L_j = ((1 - w)^{1-j} - 1)/(j - 1)
    y = 1 / (1 - w)
    acc = (-1) ** (n + 1) * (w + (n + 1) * np.log1p(-w))
    power = y
    for j in range(2, n + 2):
        acc = acc + (math.comb(n + 1, j) * (-1) ** (n + 1 - j) / (j - 1)) * (power - 1)
        power = power * y
    return acc / c ** (n + 2)


def _k_n(n: int, c: complex, z):
    """K_n(c, z) = int_0^z t^{n+1}/(1 - ct)^{n+1} dt for |c| < 1, at an array
    or numpy scalar z in the closed disk: z^{n+2}/(n+2) at c = 0, else the
    series of ``_k_n_small`` where it reaches rounding (|cz| below 0.77 for
    n = 0, everywhere from n = 12 on) and the closed form elsewhere, each
    branch on its own elements."""
    if c == 0:
        return _power(z, n + 2) / (n + 2)
    return _by_mask(abs(c * z) < _k_n_reach(n), partial(_k_n_small, n), partial(_k_n_closed, n, c), z, c * z)


@dataclass(frozen=True)
class Monomial(DiskFunction):
    """e^{i theta} z^k for k >= 1."""

    theta: float = 0.0
    k: int = 1

    def __post_init__(self):
        # int() would truncate a float and read a bool as 0 or 1
        if isinstance(self.k, bool) or not isinstance(self.k, numbers.Integral):
            raise ValueError(f"k must be an integer, got {self.k!r}")
        if self.k < 1:
            raise ValueError("monomial degree must be >= 1")
        object.__setattr__(self, "theta", _finite(self.theta, "theta"))
        object.__setattr__(self, "k", int(self.k))

    def base_point(self) -> complex:
        return 0j

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
    """p(z) / normalizer with normalizer >= sum |p_k|, hence bounded by 1;
    no coefficients is p = 0.  A normalizer below the least normal float is
    a ValueError: numpy divides complex arrays by way of its reciprocal,
    which overflows."""

    raw: tuple = (0.0,)
    normalizer: float = field(default=0.0)

    def __post_init__(self):
        raw = tuple(complex(c) for c in self.raw) or (0j,)
        # summed in order and by abs(): math.fsum or a hypot modulus would
        # round some sums, and so every value of those polynomials, differently
        total = _finite(float(sum(_modulus(c, "coeffs") for c in raw)), "the sum of |coeffs|")
        norm = _finite(self.normalizer, "normalizer")
        if norm == 0.0:
            norm = total if total > 0 else 1.0
        if norm < total - 1e-12:
            raise ValueError(
                f"normalizer {norm} below coefficient sum {total}: bound not certified"
            )
        if norm < np.finfo(float).tiny:
            raise ValueError(f"normalizer {norm} below the least normal float")
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "normalizer", norm)

    def base_point(self) -> complex:
        return self.raw[0] / self.normalizer

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        acc = _horner(self.raw, z) / self.normalizer
        return acc if z.ndim else complex(acc)

    def deriv(self, z):
        z = np.asarray(z, dtype=complex)
        acc = _horner(self._derivative, z) / self.normalizer
        return acc if z.ndim else complex(acc)

    @cached_property
    def _derivative(self) -> tuple:
        # the coefficients p_1, 2 p_2, 3 p_3, ... of p'
        return tuple(k * c for k, c in enumerate(self.raw))[1:]

    def taylor(self, order: int = DEFAULT_ORDER) -> TruncatedSeries:
        return TruncatedSeries.from_coeffs(
            [c / self.normalizer for c in self.raw], order=order
        )

    @cached_property
    def _integral(self) -> tuple:
        # the integrated coefficients p_0, p_1/2, p_2/3, ...
        return tuple(c / (k + 1) for k, c in enumerate(self.raw))

    def _primitive(self, z, acc=None):
        # z times Horner on ``_integral``, given as ``acc`` by ``_primitive_rows``
        if acc is None:
            acc = _horner(self._integral, z)
        return acc * z / self.normalizer


# B_a takes its 40-term series for |conj(a) z| below this: the series'
# truncation error stays below 0.4^40 / (42 * 0.6), about 5e-18, while the
# closed form loses accuracy as |conj(a) z| shrinks (log1p rounds
# 1 + conj(a) z first and the prefactor grows like 1/|conj(a) z|; between
# 0.3 and 0.4 that still cost up to 1.6e-15).
_B_A_SERIES = 0.4


# the series' coefficients 1/(j + 2), j = 39..0, in Horner's order
_B_A_TERMS = tuple(1.0 / (j + 2) for j in range(39, -1, -1))


def _b_a_constants(a: complex) -> tuple:
    """(conj(a), a, 1 - |a|^2, conj(a)^2, 1/conj(a)), each by scalar
    arithmetic, for one-a calls and rows of ``_moebius_mean`` alike: the
    array forms of 1 - |a|^2 and conj(a)^2 round some a differently.  Only
    the closed form reads 1/conj(a), for |conj(a) z| >= 0.4 and |z| <= 1 +
    1e-12: it is formed for |a| >= 0.2 alone, as it overflows for tiny a."""
    c = np.conj(a)
    return c, a, 1 - abs(a) ** 2, c**2, 1 / c if abs(a) >= _B_A_SERIES / 2 else c


def _b_a_small(z, w, a, s, *_):
    # B_a(z) = a + s z sum_{j>=0} (-w)^j / (j + 2), s = 1 - |a|^2, by Horner
    # in place after the first step (a 0-d w gives numpy scalars, which rebind)
    minus_w = -w
    acc = minus_w * _B_A_TERMS[0] + _B_A_TERMS[1]
    for c in _B_A_TERMS[2:]:
        acc *= minus_w
        acc += c
    return a + s * z * acc


def _b_a_closed(z, w, _, s, square, inverse):
    # 1/conj(a) - (s/(conj(a)^2 z)) log(1 + w)
    return inverse - s / (square * z) * np.log1p(w)


def _moebius_mean(a, z):
    """B_a(z) = (1/z) int_0^z (a + u)/(1 + conj(a) u) du for |a| < 1, at an
    array or numpy scalar z with conj(a) z off the branch point -1; or, for
    a list a, with a[i] on z[i] (z's first axis runs over the a's).

    Each element takes the series for |conj(a) z| < 0.4 and the closed form
    1/conj(a) - ((1-|a|^2)/(conj(a)^2 z)) log(1+conj(a) z) elsewhere; each
    branch runs only on its own elements.  a = 0 gives z/2 (series path).
    Each row's value is that of a call with its a alone, bit for bit: the
    constants of each a are scalars (``_b_a_constants``), and numpy's
    elementwise arithmetic rounds a scalar operand as it does an array.
    """
    if isinstance(a, list):
        # one column per constant, exact: 1 - |a|^2 as a complex rounds as
        # a real operand does once numpy casts it
        k = np.array([_b_a_constants(complex(x)) for x in a], dtype=complex)
        k = k.T.reshape((5, -1) + (1,) * (np.ndim(z) - 1))
    else:
        k = _b_a_constants(a)
    w = k[0] * z
    return _by_mask(abs(w) < _B_A_SERIES, _b_a_small, _b_a_closed, z, w, *k[1:])


def _primitive_rows(funs, z) -> np.ndarray:
    """``funs[i]._primitive(z)`` as row i, bit for bit, for a 1-d array z.

    The B_a of every Moebius shift and of every simple zero of every
    Blaschke product take one ``_moebius_mean`` row each, and every
    polynomial one row of a ``_horner`` loop on its integrated coefficients,
    zero-padded to the longest (a leading zero leaves Horner's sum exactly
    0); each function then sums its own terms.  A monomial and a degenerate
    shift take their own ``_primitive``, and so do a Blaschke product's
    cluster terms and a lone function, which rows would only slow."""
    if len(funs) == 1:
        return funs[0]._primitive(z)[None]
    terms, polys = [], []  # (a, argument) of each B_a; polynomials' coefficients
    for f in funs:
        if isinstance(f, MoebiusShift) and not f._degenerate:
            terms.append((f.a, z * cmath.exp(1j * f.psi)))
        elif isinstance(f, Blaschke):
            terms += [(-b, z) for b, _ in f._residues[1]]
        elif isinstance(f, ScaledPolynomial):
            polys.append(f._integral)
    means = [None] * len(terms)
    # one call for the a with |a| < _B_A_SERIES and one for the others: on
    # the circle |conj(a) z| = |a|, so each call's rows take one branch
    # whole, and ``_by_mask`` gathers no elements
    for series in (True, False):
        group = [i for i, (a, _) in enumerate(terms) if (abs(a) < _B_A_SERIES) == series]
        if group:
            rows = _moebius_mean([terms[i][0] for i in group], np.array([terms[i][1] for i in group]))
            for i, row in zip(group, rows):
                means[i] = row
    means = iter(means)
    accs = iter(_horner_rows(polys, z) if polys else ())
    out = np.empty((len(funs),) + z.shape, dtype=complex)
    for i, f in enumerate(funs):
        if isinstance(f, MoebiusShift) and not f._degenerate:
            out[i] = f._primitive(z, next(means))
        elif isinstance(f, Blaschke):
            out[i] = f._primitive(z, [next(means) for _ in f._residues[1]])
        elif isinstance(f, ScaledPolynomial):
            out[i] = f._primitive(z, next(accs))
        else:
            out[i] = f._primitive(z)
    return out


def _horner_rows(coeffs, z) -> np.ndarray:
    """``_horner(coeffs[i], z)`` as row i, bit for bit, for a 1-d array z,
    by one Horner loop on the coefficients zero-padded to the longest: the
    padding's steps leave the sum exactly 0.  A lone row takes ``_horner``
    itself, which the padding would only slow."""
    if len(coeffs) == 1:
        return _horner(coeffs[0], z)[None]
    padded = np.zeros((max(1, *map(len, coeffs)), len(coeffs), 1), dtype=complex)
    for i, c in enumerate(coeffs):
        padded[:len(c), i, 0] = c
    return _horner(padded, z)


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
    only on its own elements of the array arguments, which broadcast
    against the mask (so a 0-d mask runs exactly one of them, on the
    arguments as given); a scalar argument goes to both as it is."""
    if mask.ndim == 0:
        return (on if mask else off)(*args)
    if mask.all():
        return on(*args)
    if not mask.any():
        return off(*args)
    out = np.empty(mask.shape, dtype=complex)
    for part, fun in ((mask, on), (~mask, off)):
        out[part] = fun(*(_elements(x, part) for x in args))
    return out


def _elements(x, part):
    # the elements of x, broadcast against the mask ``part``, where it holds
    if not isinstance(x, np.ndarray):
        return x
    return (x if x.shape == part.shape else np.broadcast_to(x, part.shape))[part]


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

    Takes the family's exact primitive: closed forms for a Moebius shift, a
    monomial and a polynomial, residue terms for a Blaschke product.  The
    result has the shape of z, and a 0-d z gives a complex.
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
        return Monomial(theta=_real(obj.get("theta", 0.0), "theta"), k=obj.get("k", 1))
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
    """A finite complex number from a [re, im] pair or a real, as ``_real``,
    whose modulus is finite too (``_modulus``)."""
    parts = v if isinstance(v, (list, tuple)) else [v, 0.0]
    if len(parts) != 2 or not all(map(_is_real, parts)):
        raise ValueError(f"{name} must be a real number or a [re, im] pair, got {v!r}")
    z = complex(_finite(parts[0], name), _finite(parts[1], name))
    _modulus(z, name, v)
    return z


def _modulus(z: complex, name: str, given=None) -> float:
    """abs(z); a ValueError naming ``name`` and showing ``given`` (z by
    default) where abs() would raise OverflowError: finite parts whose
    modulus exceeds the float range."""
    try:
        return abs(z)
    except OverflowError:
        raise ValueError(f"{name} must have a finite modulus, got {z if given is None else given!r}") from None
