import cmath
import math
import re
import warnings
from collections import Counter

import mpmath
import numpy as np
import pytest

from ulambda.cli import sample_omega, sample_phi
from ulambda.core import ZERO_COUNT_ROUNDING
from ulambda.diskfun import (
    Blaschke,
    Monomial,
    MoebiusShift,
    ScaledPolynomial,
    _b_a_small,
    _k_n,
    _moebius_mean,
    _primitive_rows,
    antiderivative,
    diskfun_from_json,
    gauss_legendre,
)
from ulambda.errors import BasePointOutsideClosedDisk, OutsideDisk, ZeroOnOrOutsideBoundary
from ulambda.series import TruncatedSeries, series_eval, series_integrate, series_mul, series_reciprocal_rows
from ulambda.bounds import v_of_x


EPS = np.finfo(float).eps


def sample_functions():
    return [
        MoebiusShift(0.0, 0.0),
        MoebiusShift(0.5, 0.0),
        MoebiusShift(0.3 - 0.4j, 1.2),
        Blaschke(zeros=(0, 0), rotation=math.pi),
        Blaschke(zeros=(0, 0.5), rotation=math.pi),
        Blaschke(zeros=(0.2 + 0.1j, -0.5j, 0.6), rotation=0.7),
        Monomial(theta=2.1, k=3),
        ScaledPolynomial(raw=(0.2, 0.3 - 0.1j, 0.5j)),
    ]


class TestMoebius:
    def test_identity(self):
        w = MoebiusShift(0.0, 0.0)
        for z in (0.3, -0.5j, 0.1 + 0.2j):
            assert abs(w.eval(z) - z) < 1e-15

    def test_base_point(self):
        assert abs(MoebiusShift(0.5, 0.0).eval(0j) - 0.5) < 1e-15

    def test_interior_value_under_envelope(self):
        w = MoebiusShift(0.5, 0.0)
        val = abs(w.eval(0.5j))
        assert abs(val - 0.6860) < 5e-4
        # Schwarz-Pick: |w(z)| <= (|a| + r)/(1 + |a| r) for w(0) = a, |z| = r
        assert val <= (0.5 + 0.5) / (1 + 0.5 * 0.5)

    def test_rejects_outside_base_point(self):
        with pytest.raises(BasePointOutsideClosedDisk):
            MoebiusShift(1.5, 0.0)

    def test_rejects_non_finite_parameters(self):
        for a in (complex(math.nan, 0), complex(0, math.nan), math.inf):
            with pytest.raises(BasePointOutsideClosedDisk):
                MoebiusShift(a, 0.0)
        for psi in (math.nan, math.inf):
            with pytest.raises(ValueError, match="psi must be finite"):
                MoebiusShift(0.3, psi)

    def test_taylor_geometric_tail(self):
        a = 0.4 - 0.2j
        w = MoebiusShift(a, 0.0)
        t = w.taylor(12)
        lead = 1 - abs(a) ** 2
        assert abs(t.coeffs[0] - a) < 1e-15
        assert abs(t.coeffs[1] - lead) < 1e-15
        assert abs(t.coeffs[2] + np.conj(a) * lead) < 1e-15
        assert abs(t.coeffs[3] - np.conj(a) ** 2 * lead) < 1e-15
        # match pointwise evaluation at 8 interior points
        for k in range(8):
            z = 0.3 * cmath.exp(2j * math.pi * k / 8)
            tail = abs(lead) * sum(abs(a) ** (j - 1) * 0.3**j for j in range(13, 40))
            assert abs(series_eval(t, z) - w.eval(z)) <= tail + 1e-12

    def test_degenerate_boundary_base_point(self):
        w = MoebiusShift(cmath.exp(0.3j), 0.5)
        assert abs(w.eval(0.2 + 0.1j) - cmath.exp(0.3j)) < 1e-12
        assert abs(w.deriv(0.2)) < 1e-12


class TestBlaschke:
    def test_monomial_case(self):
        b = Blaschke(zeros=(0, 0), rotation=math.pi)
        for z in (0.3, 0.5j, -0.2 + 0.4j):
            assert abs(b.eval(z) + z * z) < 1e-14

    def test_two_zero_product_at_one(self):
        b = Blaschke(zeros=(0, 0.5), rotation=math.pi)
        assert abs(b.eval(1.0 + 0j) + 1) < 1e-14

    def test_boundary_modulus_identically_one(self):
        b = Blaschke(zeros=(0.2 + 0.1j, -0.5j, 0.6), rotation=0.7)
        for k in range(64):
            z = cmath.exp(2j * math.pi * k / 64)
            assert abs(abs(b.eval(z)) - 1) < 1e-12

    def test_rejects_boundary_zero(self):
        with pytest.raises(ZeroOnOrOutsideBoundary):
            Blaschke(zeros=(1.0,), rotation=0.0)

    def test_rejects_non_finite_parameters(self):
        with pytest.raises(ZeroOnOrOutsideBoundary):
            Blaschke(zeros=(0, math.nan), rotation=0.0)
        for rot in (math.nan, -math.inf):
            with pytest.raises(ValueError, match="rotation must be finite"):
                Blaschke(zeros=(0,), rotation=rot)

    def test_taylor_matches_pointwise(self):
        b = Blaschke(zeros=(0, 0.5), rotation=math.pi)
        t = b.taylor(48)
        for k in range(8):
            z = 0.4 * cmath.exp(2j * math.pi * k / 8)
            assert abs(series_eval(t, z) - b.eval(z)) < 1e-12

    @pytest.mark.parametrize("order", [0, 1, 64])
    def test_taylor_from_closed_form_factors(self, order):
        b = Blaschke(zeros=(0.2 + 0.1j, 0, -0.5j, 0.8 * cmath.exp(2.3j), 0.6), rotation=0.7)
        t = b.taylor(order)
        assert t.order == order
        ref = reciprocal_blaschke_taylor(b, order)
        assert np.max(np.abs(t.coeffs - ref.coeffs)) <= 1e-13
        if order == 64:
            for k in range(8):
                z = 0.4 * cmath.exp(2j * math.pi * k / 8)
                assert abs(series_eval(t, z) - b.eval(z)) <= 1e-13

    @pytest.mark.parametrize("zeros", [
        (0,),
        (0, 0),
        (0, 0.5),
        (0.2 + 0.1j, -0.5j, 0.6),
        (0, 0.9 * cmath.exp(0.4j), 0.2 + 0.1j, 0.2 + 0.1j, -0.7),
    ])
    def test_deriv_matches_pairwise_product_rule(self, zeros):
        # at every zero, at 0, inside the disk and on the circle
        b = Blaschke(zeros=zeros, rotation=0.7)
        rng = np.random.default_rng(5)
        inner = 0.99 * np.sqrt(rng.uniform(size=200)) * np.exp(2j * math.pi * rng.uniform(size=200))
        z = np.concatenate([np.array(zeros, dtype=complex), [0j], inner, np.exp(2j * math.pi * np.arange(64) / 64)])
        ref = pairwise_blaschke_deriv(b, z)
        got = b.deriv(z)
        assert got.shape == z.shape
        assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(np.abs(ref), 1))
        for p in z[: len(zeros) + 1]:
            assert b.deriv(complex(p)) == pytest.approx(pairwise_blaschke_deriv(b, p), rel=1e-13, abs=1e-15)
        if zeros.count(0) > 1:
            assert b.deriv(0j) == 0


def pairwise_blaschke_deriv(b, z):
    """The derivative of a Blaschke product by the pairwise product rule,
    sum_k f_k' prod_{j != k} f_j: O(n^2) products per point."""
    z = np.asarray(z, dtype=complex)
    factors = [(z - c) / (1 - np.conj(c) * z) for c in b.zeros]
    out = np.zeros(z.shape, dtype=complex)
    for k, c in enumerate(b.zeros):
        term = (1 - abs(c) ** 2) / (1 - np.conj(c) * z) ** 2
        for j, f in enumerate(factors):
            if j != k:
                term = term * f
        out = out + term
    return out * cmath.exp(1j * b.rotation)


def reciprocal_blaschke_taylor(b, order):
    """The construction ``Blaschke.taylor`` used before it took each factor's
    closed-form coefficients: numerator times the series reciprocal of the
    denominator, factor by factor."""
    acc = TruncatedSeries.from_coeffs([cmath.exp(1j * b.rotation)], order=order)
    for zero in b.zeros:
        acc = series_mul(acc, TruncatedSeries.from_coeffs([-zero, 1.0], order=order))
        if zero != 0:
            den = TruncatedSeries.from_coeffs([1.0, -np.conj(zero)], order=order)
            acc = series_mul(acc, TruncatedSeries(series_reciprocal_rows(den.coeffs[None])[0]))
    return acc


class TestOwnParameters:
    """A monomial and a polynomial check their own parameters, as a Moebius
    shift and a Blaschke product do; each of these used to be accepted."""

    @pytest.mark.parametrize("kwargs,message", [
        ({"theta": math.nan}, "theta must be finite"),
        ({"theta": -math.inf}, "theta must be finite"),
        # read as k = 2
        ({"k": 2.7}, "k must be an integer, got 2.7"),
        ({"k": True}, "k must be an integer, got True"),
    ])
    def test_monomial(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Monomial(**kwargs)

    @pytest.mark.parametrize("kwargs,message", [
        ({"raw": (math.nan,)}, "the sum of |coeffs| must be finite, got nan"),
        # finite coefficients whose sum overflows
        ({"raw": (0, 1e308, 1e308)}, "the sum of |coeffs| must be finite, got inf"),
        ({"raw": (0.5,), "normalizer": math.nan}, "normalizer must be finite, got nan"),
        ({"raw": (0.5,), "normalizer": math.inf}, "normalizer must be finite, got inf"),
        # a normalizer below the least normal float, given or summed: numpy
        # divided by way of its reciprocal, which overflowed to NaN values
        ({"raw": (1e-310, 1e-310)}, "normalizer 2e-310 below the least normal float"),
        ({"raw": (1e-310, 1e-310), "normalizer": 2e-310}, "normalizer 2e-310 below the least normal float"),
        ({"raw": (0, 3e-311, 3e-312)}, "normalizer 3.3e-311 below the least normal float"),
        ({"raw": (0, 5e-324)}, "normalizer 5e-324 below the least normal float"),
        ({"raw": (0.0,), "normalizer": 1e-310}, "normalizer 1e-310 below the least normal float"),
    ])
    def test_polynomial(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ScaledPolynomial(**kwargs)

    def test_polynomial_normal_normalizer_accepted(self):
        tiny = float(np.finfo(float).tiny)
        assert ScaledPolynomial(raw=(0, tiny)).normalizer == tiny
        assert ScaledPolynomial(raw=(0, 3e-300, 3e-301)).eval(1.0) == pytest.approx(1.0, rel=1e-15)

    def test_empty_polynomial_is_zero(self):
        # no coefficients used to leave raw empty, and base_point raised
        # IndexError
        empty = ScaledPolynomial(raw=())
        assert (empty.raw, empty.normalizer, empty.base_point()) == ((0j,), 1.0, 0j)
        zero = ScaledPolynomial(raw=(0.0,))
        z = np.exp(2j * np.pi * np.arange(64) / 64)
        for f in (lambda g: g.eval(z), lambda g: g.deriv(z),
                  lambda g: antiderivative(g, z), lambda g: g.taylor(8).coeffs):
            assert f(empty).tobytes() == f(zero).tobytes()
            assert not f(empty).any()
        assert diskfun_from_json({"kind": "poly", "coeffs": []}) == empty


class TestEnvelope:
    def test_property_all_families(self):
        # Schwarz-Pick: |w(z)| <= (|a| + r)/(1 + |a| r) for w(0) = a, |z| = r
        rng = np.random.default_rng(10)
        for fun in sample_functions():
            a = min(abs(fun.base_point()), 1.0)
            for _ in range(125):
                r = math.sqrt(rng.uniform()) * 0.999
                z = r * cmath.exp(2j * math.pi * rng.uniform())
                assert abs(fun.eval(z)) <= (a + r) / (1 + a * r) + 1e-12


class TestAntiderivative:
    def test_linear(self):
        w = ScaledPolynomial(raw=(0, 1.0), normalizer=1.0)
        assert abs(antiderivative(w, 1.0) - 0.5) < 1e-13

    def test_moebius_matches_v(self):
        for a in (0.2, 0.5, 0.8):
            w = MoebiusShift(a, 0.0)
            assert abs(antiderivative(w, 1.0) - v_of_x(a)) < 1e-10

    def test_lipschitz(self):
        rng = np.random.default_rng(11)
        funs = sample_functions()
        for k in range(500):
            fun = funs[k % len(funs)]
            z1 = math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
            z2 = math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
            lhs = abs(antiderivative(fun, z1) - antiderivative(fun, z2))
            assert lhs <= abs(z1 - z2) + 1e-9

    def test_cross_check_series_integrate(self):
        for fun in sample_functions():
            integ = series_integrate(fun.taylor(80))
            for k in range(6):
                z = 0.9 * cmath.exp(2j * math.pi * k / 6)
                assert abs(antiderivative(fun, z) - series_eval(integ, z)) < 1e-9


GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def reference_antiderivative(fun, z):
    """The per-point rule ``gauss_legendre`` followed before it took arrays:
    16-point Gauss-Legendre on [0, z], split at z/2 when |z| > 0.5."""

    def segment(z0, z1):
        mid = 0.5 * (z0 + z1)
        half = 0.5 * (z1 - z0)
        return complex(half * np.dot(GL_WEIGHTS, fun.eval(mid + half * GL_NODES)))

    z = complex(z)
    if abs(z) <= 0.5:
        return segment(0j, z)
    return segment(0j, z / 2) + segment(z / 2, z)


def disk_points(rng, n):
    """Points with |z| < 0.5, = 0.5, in (0.5, 1) and = 1, in random order."""
    radii = np.concatenate([
        rng.uniform(0.0, 0.5, n), np.full(n, 0.5), rng.uniform(0.5, 1.0, n), np.ones(n),
    ])
    z = radii * np.exp(2j * np.pi * rng.uniform(size=radii.size))
    return np.concatenate([[0j, 0.5, -0.5j, 1.0, -1j], rng.permutation(z)])


class TestAntiderivativeBatch:
    """A ``gauss_legendre`` array call agrees with the per-point rule and
    keeps the shape; ``antiderivative`` keeps the same shape rules."""

    FAMILIES = sample_functions() + [MoebiusShift(1.0, 0.0), MoebiusShift(0.95j, 2.0)]

    @pytest.mark.parametrize("fun", FAMILIES, ids=repr)
    def test_matches_per_point_rule(self, fun):
        z = disk_points(np.random.default_rng(21), 40)
        batch = gauss_legendre(fun, z)
        ref = np.array([reference_antiderivative(fun, p) for p in z])
        assert batch.shape == z.shape
        assert np.max(np.abs(batch - ref)) <= 1e-15
        for p in z[:9]:
            assert abs(gauss_legendre(fun, p) - reference_antiderivative(fun, p)) <= 1e-15

    def test_only_near_or_only_far_points(self):
        fun = MoebiusShift(0.3 - 0.4j, 1.2)
        for z in (0.4 * np.exp(1j * np.arange(7)), np.exp(1j * np.arange(7))):
            ref = np.array([reference_antiderivative(fun, p) for p in z])
            assert np.max(np.abs(gauss_legendre(fun, z) - ref)) <= 1e-15

    def test_shapes(self):
        funs = [Blaschke(zeros=(0.2 + 0.1j, -0.5j), rotation=0.7)] + self.FAMILIES[-2:] + self.FAMILIES[6:8]
        for integrate in (antiderivative, gauss_legendre):
            for fun in funs:
                for z in (0.3 + 0.8j, np.complex128(0.3 + 0.8j), np.asarray(0.3 + 0.8j), 0.25):
                    out = integrate(fun, z)
                    assert type(out) is complex
                assert integrate(fun, np.zeros(0)).shape == (0,)
                grid = disk_points(np.random.default_rng(22), 10).reshape(5, 9)
                out = integrate(fun, grid)
                assert out.shape == (5, 9)
                assert np.array_equal(out.ravel(), integrate(fun, grid.ravel()))

    def test_outside_disk_rejected(self):
        z = np.array([0.1, 0.5j, 1.0 + 1e-6, 0.9])
        for integrate in (antiderivative, gauss_legendre):
            for fun in (MoebiusShift(0.5, 0.0), Blaschke(zeros=(0.3,))):
                with pytest.raises(OutsideDisk):
                    integrate(fun, z)
                with pytest.raises(OutsideDisk):
                    integrate(fun, z.reshape(2, 2))


def mp_moebius_integral(a, psi, z):
    """int_0^z (a + t e^{i psi})/(1 + conj(a) t e^{i psi}) dt at 40 digits:
    a z where ``MoebiusShift`` is the constant a (|a| >= 1 - 1e-12),
    otherwise the log closed form (e^{i psi} z^2 / 2 at a = 0)."""
    with mpmath.workdps(40):
        a, z = mpmath.mpc(a), mpmath.mpc(z)
        if z == 0:
            return 0j
        if abs(a) >= 1 - 1e-12:
            return complex(a * z)
        u = z * mpmath.expj(psi)
        if a == 0:
            return complex(z * u / 2)
        ca = mpmath.conj(a)
        return complex(z * (1 / ca - (1 - abs(a) ** 2) / (ca**2 * u) * mpmath.log(1 + ca * u)))


def mp_polynomial_integral(coeffs, normalizer, z):
    """sum_k c_k z^{k+1} / (k + 1) / normalizer at 40 digits."""
    with mpmath.workdps(40):
        z = mpmath.mpc(z)
        total = sum(mpmath.mpc(c) * z ** (k + 1) / (k + 1) for k, c in enumerate(coeffs))
        return complex(total / mpmath.mpf(normalizer))


class TestExactPrimitives:
    """``antiderivative`` takes each family's exact primitive, checked
    against 40-digit arithmetic on the batch points."""

    @pytest.mark.parametrize("modulus", [0.0, 0.3, 0.35, 0.9, 0.95, 0.99, 1.0])
    @pytest.mark.parametrize("phase, psi", [(0.0, 0.0), (2.3, 1.1), (-1.9, 4.0)])
    def test_moebius(self, modulus, phase, psi):
        fun = MoebiusShift(modulus * cmath.exp(1j * phase), psi)
        z = disk_points(np.random.default_rng(23), 40)
        out = antiderivative(fun, z)
        ref = np.array([mp_moebius_integral(fun.a, psi, p) for p in z])
        assert np.max(np.abs(out - ref)) <= 4e-15
        for p, r in zip(z[:9], ref):
            assert abs(antiderivative(fun, p) - r) <= 4e-15

    def test_moebius_near_the_pole(self):
        # the pole -1/conj(a) lies 1e-4 beyond the circle, where the
        # quadrature rule loses digits and the closed form does not
        a = 0.9999 * cmath.exp(0.4j)
        fun = MoebiusShift(a, 0.0)
        z = -cmath.exp(0.4j) * np.exp(1j * np.linspace(-0.01, 0.01, 21))
        ref = np.array([mp_moebius_integral(a, 0.0, p) for p in z])
        assert np.max(np.abs(antiderivative(fun, z) - ref)) <= 4e-15
        assert np.max(np.abs(gauss_legendre(fun, z) - ref)) > 1e-6

    @pytest.mark.parametrize("theta, k", [(0.0, 1), (2.1, 3), (-0.7, 8)])
    def test_monomial(self, theta, k):
        fun = Monomial(theta=theta, k=k)
        z = disk_points(np.random.default_rng(24), 40)
        ref = np.array([mp_polynomial_integral([0] * k + [cmath.exp(1j * theta)], 1.0, p) for p in z])
        assert np.max(np.abs(antiderivative(fun, z) - ref)) <= 1e-15

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_monomial_powers_by_products(self, k):
        # eval, deriv and the primitive multiply z out rather than take
        # numpy's complex power, and stay within a few ulps of it
        fun = Monomial(theta=0.0, k=k)
        z = np.concatenate([np.exp(2j * np.pi * np.arange(4096) / 4096), disk_points(np.random.default_rng(26), 40)])
        ulp = np.spacing(1.0)
        assert np.max(np.abs(fun.eval(z) - z**k)) <= 4 * ulp
        assert np.max(np.abs(fun.deriv(z) - k * z ** (k - 1))) <= 4 * k * ulp
        assert np.max(np.abs(antiderivative(fun, z) - z ** (k + 1) / (k + 1))) <= 4 * ulp
        assert isinstance(fun.eval(0.5j), complex) and isinstance(fun.deriv(0.5j), complex)
        assert fun.deriv(0.5j) == pytest.approx(k * 0.5j ** (k - 1), abs=4 * k * ulp)

    @pytest.mark.parametrize("raw, normalizer", [
        ((0.5,), 1.0),
        ((0, 1.0), 1.0),
        ((0.2, 0.3 - 0.1j, 0.5j), 0.0),
        ((0.1j, -0.4, 0.2 + 0.2j, 0, 0.3, -0.05j, 0.6 - 0.1j, 0.2, 0.1), 3.0),
    ])
    def test_polynomial(self, raw, normalizer):
        fun = ScaledPolynomial(raw=raw, normalizer=normalizer)
        z = disk_points(np.random.default_rng(25), 40)
        ref = np.array([mp_polynomial_integral(fun.raw, fun.normalizer, p) for p in z])
        assert np.max(np.abs(antiderivative(fun, z) - ref)) <= 1e-15

    def test_no_evaluation(self, monkeypatch):
        # the exact primitives, a Blaschke product's residue terms among
        # them, never evaluate the integrand
        funs = [MoebiusShift(0.5, 1.0), MoebiusShift(1.0), Monomial(1.0, 2), ScaledPolynomial(raw=(0.2, 0.5j)),
                Blaschke(zeros=(0.3,)), Blaschke(zeros=(0.5, 0.5, 0, -0.2j), rotation=1.0)]
        calls = []
        for cls in (MoebiusShift, Monomial, ScaledPolynomial, Blaschke):
            monkeypatch.setattr(cls, "eval", lambda self, z: calls.append(self) or np.zeros_like(z))
        z = disk_points(np.random.default_rng(27), 10)
        for fun in funs:
            antiderivative(fun, z)
            antiderivative(fun, z[3])
        assert calls == []


def mp_blaschke_integral(fun, z):
    """int_0^z of the Blaschke product at 40 digits by ``mpmath.quad``, on
    [0, z] split where a pole just beyond the circle would crowd the nodes."""
    with mpmath.workdps(40):
        zeros = [(mpmath.mpc(b), m) for b, m in Counter(fun.zeros).items()]
        e, z = mpmath.expj(fun.rotation), mpmath.mpc(z)

        def integrand(s):
            t = s * z
            return e * mpmath.fprod(((t - b) / (1 - mpmath.conj(b) * t)) ** m for b, m in zeros) * z

        return complex(mpmath.quad(integrand, [0, 0.5, 0.9, 0.99, 0.999, 1]))


def blaschke_draws():
    """The first six Blaschke omegas that ``cli.sample_omega`` draws on seed 5."""
    rng, draws = np.random.default_rng(5), []
    while len(draws) < 6:
        omega = sample_omega(rng)
        if isinstance(omega, Blaschke):
            draws.append(omega)
    return draws


class TestBlaschkePrimitive:
    """A Blaschke product's primitive, in residue form, against 40 digits at
    points on and inside the circle: the zeros' own directions on the
    circle, where a pole lies just beyond it, and four other points."""

    @staticmethod
    def points(fun):
        rng = np.random.default_rng(len(fun.zeros))
        toward = [b / abs(b) for b in fun.zeros[:3] if b != 0]
        rest = [cmath.exp(2.1j), -1j, 0.6 * cmath.exp(1j * rng.uniform(0, 2 * math.pi)), 0.95j]
        return np.array(toward + rest, dtype=complex)

    def check(self, fun, tol):
        z = self.points(fun)
        ref = np.array([mp_blaschke_integral(fun, p) for p in z])
        assert np.max(np.abs(antiderivative(fun, z) - ref)) <= tol
        assert abs(antiderivative(fun, z[-1]) - ref[-1]) <= tol
        return ref

    @pytest.mark.parametrize("fun", blaschke_draws(), ids=lambda f: f"draw-{len(f.zeros)}")
    def test_sampler_draws(self, fun):
        self.check(fun, 1e-13)

    @pytest.mark.parametrize("zeros", [
        (0.99,), (0.995,), (0.999 * cmath.exp(2.1j),), (0.99j, -0.5), (0.995, 0.3j),
    ])
    def test_near_the_circle(self, zeros):
        # the 16-node quadrature is off by 1e-5 to 5e-4 at these points
        fun = Blaschke(zeros=zeros, rotation=0.4)
        ref = self.check(fun, 1e-13)
        assert np.max(np.abs(gauss_legendre(fun, self.points(fun)) - ref)) > 1e-6

    @pytest.mark.parametrize("zeros", [
        (0.5, 0.5), (0.6j, 0.6j, 0.6j, -0.3), (0.9, 0.9, 0.2j), (0.8j,) * 5, (0.995, 0.995),
    ])
    def test_repeated_zeros(self, zeros):
        self.check(Blaschke(zeros=zeros, rotation=-1.1), 1e-13)

    @pytest.mark.parametrize("zeros", [
        (0, 0.5), (0, 0, 0.5j), (0, 0, 0, 0.3 - 0.4j, 0.6), (0,) * 63, (1e-8,),
    ])
    def test_zeros_at_or_near_the_origin(self, zeros):
        self.check(Blaschke(zeros=zeros, rotation=2.0), 1e-13)

    @pytest.mark.parametrize("zeros", [
        (1e-4, -1e-4), (0.5, 0.5 + 1e-6), (0.5, 0.5 + 1e-12), (0.5, 0.5000000000000001),
        (0.5, 0.5009), (0.9, 0.9 + 1e-10j, 0.2j), (0.95, 0.95 + 1e-7, 0.95 - 1e-7j, -0.3),
        (0.999, 0.999 + 1e-12), (0.7j, 0.7j + 1e-5, 0.7j, -0.2),
    ])
    def test_clustered_zeros(self, zeros):
        # summed about the cluster's centre; as separate residues the terms
        # weigh about 1/|c_k - c_j| each (5000 for +-1e-4, 7e15 one ulp
        # apart) and lose as many digits
        fun = Blaschke(zeros=zeros, rotation=0.3)
        assert fun._primitive_size() < 30
        self.check(fun, 1e-13)

    @pytest.mark.parametrize("zeros", [
        (0.9995, 0.9995 - 9e-4), (0.5, 0.502),
        *((b * cmath.exp(0.7j),) * mu for b, mu in [(0.75, 8), (0.8, 10), (0.9, 12), (0.95, 15)]),
    ], ids=lambda zeros: f"{len(zeros)}-at-{abs(zeros[0]):.4g}")
    def test_within_the_rounding_allowed(self, zeros):
        # close zeros too near the circle to expand about their centre, or
        # farther apart than _CLUSTER, and repeated zeros of multiplicity
        # 8-15, whose K_n weights grow and cancel: the error stays within
        # ZERO_COUNT_ROUNDING times the size the certificate allows
        fun = Blaschke(zeros=zeros, rotation=0.2)
        z = self.points(fun)
        ref = np.array([mp_blaschke_integral(fun, p) for p in z])
        assert np.max(np.abs(antiderivative(fun, z) - ref)) <= ZERO_COUNT_ROUNDING * fun._primitive_size()

    def test_no_zeros(self):
        # the constant e^{i rot}, which eval gives for an empty product
        fun = Blaschke(zeros=(), rotation=0.5)
        z = disk_points(np.random.default_rng(28), 10)
        assert np.max(np.abs(antiderivative(fun, z) - cmath.exp(0.5j) * z)) <= 1e-16

    def test_z63_is_the_monomial_bit_for_bit(self):
        z = np.concatenate([np.exp(2j * np.pi * np.arange(256) / 256), disk_points(np.random.default_rng(29), 10)])
        assert np.array_equal(antiderivative(Blaschke(zeros=(0,) * 63), z), antiderivative(Monomial(k=63), z))


class TestKn:
    @pytest.mark.parametrize("n", [0, 1, 5, 11, 12, 20, 62])
    @pytest.mark.parametrize("r", [0.3, 0.76, 0.8, 0.9, 0.99])
    def test_against_hypergeometric(self, n, r):
        # K_n(c, z) = z^{n+2}/(n+2) 2F1(n+1, n+2; n+3; cz), within 4 eps of
        # the scale ``Blaschke._primitive_size`` gives its rounding (the
        # closed form alone was off by 6000 eps of K_n(|c|, 1) at n = 20)
        c, one = r * cmath.exp(-0.7j), np.complex128(1.0)
        z = np.exp(1j * np.linspace(0, 2 * math.pi, 13)[:-1] + 0.7j)
        z = np.concatenate([z, cmath.exp(0.7j) * np.array([0.5, min(0.9, 0.77 / r), 0.95])])
        with mpmath.workdps(40):
            ref = np.array([complex(mpmath.mpc(p) ** (n + 2) / (n + 2)
                                    * mpmath.hyp2f1(n + 1, n + 2, n + 3, mpmath.mpc(c) * mpmath.mpc(p))) for p in z])
        scale = _k_n(n, r, one).real + (n + 1) * r * _k_n(n + 1, r, one).real
        assert np.max(np.abs(_k_n(n, c, z) - ref)) <= 4 * np.finfo(float).eps * scale

    def test_at_the_origin(self):
        z = np.array([0.3, -0.8j, cmath.exp(1.1j)])
        assert np.array_equal(_k_n(4, 0.0, z), z * z * z * z * z * z / 6)


class TestTaylorInvariants:
    def test_coefficients_bounded_by_one(self):
        for fun in sample_functions():
            t = fun.taylor(64)
            assert np.max(np.abs(t.coeffs)) <= 1 + 1e-9

    def test_derivative_finite_difference(self):
        h = 1e-6
        rng = np.random.default_rng(12)
        for fun in sample_functions():
            for _ in range(10):
                z = 0.6 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
                fd = (fun.eval(z + h) - fun.eval(z - h)) / (2 * h)
                assert abs(fd - fun.deriv(z)) < 1e-5


class TestBasePoint:
    """Each family's closed-form value at 0 against ``eval(0j)``."""

    def test_sampled_phis_fix_the_origin_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            phi = sample_phi(rng)
            assert phi.base_point() == complex(phi.eval(0j)) == 0

    def test_to_rounding_on_sampled_omegas(self):
        # numpy's complex loops may fuse or reorder the products and divide
        # by a reciprocal, so the values agree to rounding, not bit for bit
        rng = np.random.default_rng(1)
        funs = [sample_omega(rng) for _ in range(300)] + sample_functions() + [
            Blaschke(zeros=(0.5, -0.3 + 0.6j, 0.9j), rotation=2.0), MoebiusShift(0.6 + 0.8j, 1.0),
            MoebiusShift(-1.0), MoebiusShift(0.3 - 0.4j, 2.5)]
        for fun in funs:
            value, direct = fun.base_point(), complex(fun.eval(0j))
            assert isinstance(value, complex)
            assert abs(value - direct) <= 4 * EPS * abs(direct)

    def test_exact_where_rounding_cannot_enter(self):
        for a in (0.5, 0.3 - 0.4j, 0.6 + 0.8j, -1.0, 0j):
            assert MoebiusShift(a, 1.3).base_point() == a == complex(MoebiusShift(a, 1.3).eval(0j))
        assert Blaschke(zeros=(0.5,)).base_point() == -0.5 == complex(Blaschke(zeros=(0.5,)).eval(0j))
        assert Monomial(theta=1.0, k=3).base_point() == 0

    def test_zero_when_a_zero_or_the_constant_is(self):
        assert Blaschke(zeros=(0.3j, 0, 0.5), rotation=1.0).base_point() == 0
        assert ScaledPolynomial(raw=(0, 0.5, 0.2j)).base_point() == 0
        assert ScaledPolynomial(raw=(0.2, 0.5)).base_point() == 0.2 / 0.7


class TestTaylorProducts:
    def test_blaschke_taylor_is_the_series_product(self):
        # the old form: one series_mul per factor, each a TruncatedSeries
        rng = np.random.default_rng(2)
        funs = [sample_omega(rng) for _ in range(60)] + [Blaschke(), Blaschke(zeros=(0,) * 5, rotation=1.0)]
        for fun in [f for f in funs if isinstance(f, Blaschke)]:
            for order in (0, 1, 9, 64):
                acc = TruncatedSeries.from_coeffs([cmath.exp(1j * fun.rotation)], order=order)
                for b in fun.zeros:
                    acc = series_mul(acc, MoebiusShift(-b).taylor(order))
                assert fun.taylor(order).coeffs.tolist() == acc.coeffs.tolist()


def reference_b_a_small(a, z, w):
    # the out-of-place Horner loop that ``_b_a_small`` runs in place
    minus_w = -w
    acc = 0j
    for j in range(39, -1, -1):
        acc = acc * minus_w + 1.0 / (j + 2)
    return a + (1 - abs(a) ** 2) * z * acc


class TestBaSeries:
    @pytest.mark.parametrize("points", [0, 1, 16, 256, 2000])
    def test_in_place_horner_bit_for_bit(self, points):
        rng = np.random.default_rng(points)
        for _ in range(10):
            a = complex(*rng.uniform(-0.7, 0.7, 2))
            z = 0.4 * np.sqrt(rng.uniform(size=points or None)) * np.exp(2j * np.pi * rng.uniform(size=points or None))
            z = np.asarray(z, dtype=complex)[()]
            w = np.conj(a) * z
            got, want = _b_a_small(z, w, a, 1 - abs(a) ** 2), reference_b_a_small(a, z, w)
            assert np.shape(got) == np.shape(want)
            assert np.atleast_1d(got).tobytes() == np.atleast_1d(want).tobytes()


    @pytest.mark.parametrize("a", [5e-324, 1e-310, 5e-324j])
    def test_subnormal_base_point_takes_the_series_without_warning(self, a):
        # 1/conj(a) used to be formed for every a != 0, and overflowed with a
        # RuntimeWarning; only the series reads a's below 0.2
        z = np.exp(2j * np.pi * np.arange(64) / 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _moebius_mean(a, z)
            rows = _moebius_mean([a, 0j], np.array([z, z]))
        assert np.max(np.abs(got - z / 2)) < 1e-15
        assert rows.tobytes() == np.array([got, _moebius_mean(0j, z)]).tobytes()


class TestRows:
    """The row-wise evaluations against one call per row, bit for bit."""

    def test_moebius_mean_rows(self):
        # base points on both sides of the series threshold, and 0; points
        # inside the disk, so that rows mix the two branches
        rng = np.random.default_rng(11)
        a = [0j, 0.4, 0.4 - 1e-16, 0.3999999999j] + list(0.95 * np.sqrt(rng.uniform(size=300))
                                                        * np.exp(2j * np.pi * rng.uniform(size=300)))
        z = np.sqrt(rng.uniform(size=(len(a), 64))) * np.exp(2j * np.pi * rng.uniform(size=(len(a), 64)))
        z[:, 0] = 1.0
        got = _moebius_mean(a, z)
        want = np.array([_moebius_mean(complex(x), row) for x, row in zip(a, z)])
        assert got.tobytes() == want.tobytes()
        series = np.abs(np.conj(np.array(a))[:, None] * z) < 0.4
        assert series.any(axis=1).sum() > 100 and (~series).any(axis=1).sum() > 100

    def test_primitive_rows(self):
        # every family, and polynomials of unequal degree; a degenerate
        # shift, a Blaschke product with clustered zeros and one with a
        # multiple zero at 0 as well
        rng = np.random.default_rng(5)
        funs = sample_functions() + [sample_omega(rng) for _ in range(60)] + [
            MoebiusShift(1.0), Blaschke(zeros=(0.5, 0.5 + 1e-6, -0.3j)), Blaschke(zeros=(0, 0, 0.4 + 0.4j)),
            ScaledPolynomial(raw=(0.1,)), ScaledPolynomial(raw=(0.1, 0.2, 0, 0, 0, 0, 0, 0.3j))]
        z = np.exp(2j * np.pi * np.arange(256) / 256)
        got = _primitive_rows(funs, z)
        want = np.array([antiderivative(f, z) for f in funs])
        assert got.tobytes() == want.tobytes()


class TestJson:
    @pytest.mark.parametrize(
        "obj",
        [
            {"kind": "moebius", "a": [0.3, -0.4], "psi": 1.2},
            {"kind": "blaschke", "zeros": [[0, 0], [0.5, 0]], "rotation": math.pi},
            {"kind": "monomial", "theta": 2.1, "k": 3},
            {"kind": "poly", "coeffs": [[0.2, 0], [0.3, -0.1], [0, 0.5]]},
        ],
    )
    def test_round_trip_values(self, obj):
        fun = diskfun_from_json(obj)
        z = 0.3 + 0.2j
        assert abs(fun.eval(z)) <= 1.0 + 1e-9

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            diskfun_from_json({"kind": "mystery"})

    @pytest.mark.parametrize(
        "obj,message",
        [
            # each used to be coerced: "1.2" to 1.2, true to 1.0, 1.9 to 1
            ({"kind": "moebius", "a": 0.3, "psi": "1.2"}, "psi must be a real number"),
            ({"kind": "blaschke", "zeros": [0.5], "rotation": True}, "rotation must be a real number"),
            ({"kind": "monomial", "theta": None}, "theta must be a real number"),
            ({"kind": "monomial", "k": 1.9}, "k must be an integer"),
            ({"kind": "monomial", "k": True}, "k must be an integer"),
            ({"kind": "poly", "coeffs": [0.2, 0.3], "normalizer": "2"}, "normalizer must be a real number"),
            # each part is finite, the modulus is not
            ({"kind": "poly", "coeffs": [0, [1.7e308, 1.7e308]]}, "coeffs must have a finite modulus"),
            ({"kind": "moebius", "a": [-1.7e308, 1.7e308]}, "a must have a finite modulus"),
        ],
    )
    def test_non_numeric_parameters_rejected(self, obj, message):
        with pytest.raises(ValueError, match=message):
            diskfun_from_json(obj)

    def test_integral_and_numpy_values_accepted(self):
        assert diskfun_from_json({"kind": "monomial", "theta": 1, "k": np.int64(2)}) == Monomial(theta=1.0, k=2)
        assert diskfun_from_json({"kind": "moebius", "a": 0.3, "psi": np.float64(0.5)}).psi == 0.5
