import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ulambda import series
from ulambda.errors import NearZeroConstantTerm, OutOfRange, OutsideDisk
from ulambda.series import (
    TruncatedSeries,
    ring,
    ring_eval,
    series_eval,
    series_eval_many,
    series_integrate,
    series_mul,
    series_reciprocal_rows,
)


EPS = np.finfo(float).eps


def ts(*coeffs, order=None):
    return TruncatedSeries.from_coeffs(coeffs, order=order)


def reciprocal(a):
    """The reciprocal of one series: the one row of ``series_reciprocal_rows``."""
    return TruncatedSeries(series_reciprocal_rows(a.coeffs[None])[0])


def random_series(rng, order):
    c = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
    return TruncatedSeries(c)


class TestConstruction:
    @pytest.mark.parametrize("coeffs", [
        [1, math.nan], [1, complex(0, math.nan)], [math.inf, 0], [1, complex(0, -math.inf)],
    ])
    def test_non_finite_rejected(self, coeffs):
        with pytest.raises(ValueError, match="finite"):
            TruncatedSeries(np.array(coeffs, dtype=complex))

    @pytest.mark.parametrize("coeffs", [[], np.zeros((2, 3)), 1.0])
    def test_empty_or_not_1d_rejected(self, coeffs):
        with pytest.raises(ValueError, match="1-d"):
            TruncatedSeries(coeffs)

    def test_holds_a_read_only_copy(self):
        source = np.array([1, 2, 3], dtype=complex)
        a = TruncatedSeries(source)
        source[1] = 7
        assert a.coeffs.tolist() == [1, 2, 3]
        assert not a.coeffs.flags.writeable
        with pytest.raises(ValueError):
            a.coeffs[0] = 5

    def test_strided_and_real_input(self):
        source = np.arange(8, dtype=complex)
        assert TruncatedSeries(source[::-2]).coeffs.tolist() == [7, 5, 3, 1]
        assert TruncatedSeries([1, 2.5]).coeffs.dtype == complex


class TestMul:
    def test_difference_of_squares(self):
        out = series_mul(ts(1, 1, 0), ts(1, -1, 0))
        assert np.allclose(out.coeffs, [1, 0, -1])

    def test_telescoping_geometric(self):
        geo = TruncatedSeries(np.ones(17, dtype=complex))
        out = series_mul(ts(1, -1, *[0] * 15), geo)
        expect = np.zeros(17)
        expect[0] = 1
        assert np.allclose(out.coeffs, expect)

    def test_convolution_oracle(self):
        rng = np.random.default_rng(3)
        a, b = random_series(rng, 6), random_series(rng, 6)
        out = series_mul(a, b)
        # naive double loop
        expect = np.zeros(7, dtype=complex)
        for n in range(7):
            for k in range(n + 1):
                expect[n] += a.coeffs[k] * b.coeffs[n - k]
        assert np.max(np.abs(out.coeffs - expect)) < 1e-14

    def test_order_truncates_to_min(self):
        out = series_mul(ts(1, 2, 3), ts(1, 2, 3, 4, 5))
        assert out.order == 2
        assert np.allclose(out.coeffs, [1, 4, 10])


class TestReciprocal:
    def test_geometric(self):
        out = reciprocal(ts(1, -1, *[0] * 8))
        assert np.allclose(out.coeffs, np.ones(10))

    def test_alternating(self):
        out = reciprocal(ts(1, 1, *[0] * 8))
        assert np.allclose(out.coeffs, (-1.0) ** np.arange(10))

    def test_double_pole_product(self):
        # 1/((1-z)(1-z/2)) has coefficients 2 - 2^{-n}
        q = series_mul(ts(1, -1, *[0] * 8), ts(1, -0.5, *[0] * 8))
        out = reciprocal(q)
        n = np.arange(10)
        assert np.allclose(out.coeffs, 2 - 0.5**n, atol=1e-13)
        assert abs(out.coeffs[3] - 1.875) < 1e-14
        # multiply back: must give 1
        back = series_mul(q, out)
        assert abs(back.coeffs[0] - 1) < 1e-12
        assert np.max(np.abs(back.coeffs[1:])) < 1e-10

    def test_near_zero_constant_rejected(self):
        with pytest.raises(NearZeroConstantTerm):
            reciprocal(ts(1e-13, 1))


def dot_reciprocal(a):
    """The reciprocal by the recurrence with one np.dot per coefficient, as
    the one-row reciprocal took it before the row form."""
    a0 = complex(a[0])
    r = np.zeros(len(a), dtype=complex)
    r[0] = 1.0 / a0
    for k in range(1, len(a)):
        r[k] = -np.dot(a[1 : k + 1], r[k - 1 :: -1]) / a0
    return r


class TestReciprocalRows:
    @pytest.mark.parametrize("order", [0, 1, 2, 9, 64])
    def test_rows_are_the_one_row_reciprocal(self, order):
        # a0 = 1, as every candidate's q has, and a0 != 1, whose 1/a0 Python
        # and numpy round differently
        rng = np.random.default_rng(order)
        a = rng.standard_normal((8, order + 1)) + 1j * rng.standard_normal((8, order + 1))
        a[:4, 0] = 1.0
        a[4:, 0] = 1 + 0.5 * a[4:, 0]
        got = series_reciprocal_rows(a)
        assert got.shape == a.shape
        for row, r in zip(a, got):
            assert r.tobytes() == series_reciprocal_rows(row[None])[0].tobytes()
            assert r.tobytes() == dot_reciprocal(row).tobytes()

    def test_near_zero_constant_rejected(self):
        with pytest.raises(NearZeroConstantTerm):
            series_reciprocal_rows([[1, 2, 3], [1e-13, 1, 0]])

    @pytest.mark.parametrize("bad", [math.inf, math.nan, complex(0, math.inf)])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            series_reciprocal_rows([[1, 0.5, 0.25], [1, bad, 0]])

    def test_non_finite_result_rejected(self):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite"):
            series_reciprocal_rows([[1e-11, 1e300, 0]])


class TestCalculus:
    def test_integrate_constant(self):
        out = series_integrate(ts(1, 0, 0))
        assert np.allclose(out.coeffs, [0, 1, 0])

    def test_integrate_linear(self):
        out = series_integrate(ts(0, 1, 0))
        assert np.allclose(out.coeffs, [0, 0, 0.5])

    def test_round_trip(self):
        # termwise differentiation (c_k -> k c_k) undoes the integration
        rng = np.random.default_rng(5)
        s = random_series(rng, 16)
        integ = series_integrate(s)
        back = integ.coeffs[1:] * np.arange(1, 17)
        assert integ.coeffs[0] == 0
        assert np.max(np.abs(back - s.coeffs[:16])) < 1e-14


class TestEval:
    def test_at_zero(self):
        assert series_eval(ts(1, 1, 1), 0) == 1

    def test_geometric_partial_sum(self):
        N = 20
        s = TruncatedSeries(np.ones(N + 1, dtype=complex))
        expect = 2 - 2 * 0.5 ** (N + 1)
        assert abs(series_eval(s, 0.5) - expect) < 1e-14

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(6)
        s = TruncatedSeries(rng.standard_normal(9).astype(complex))
        z = 0.4 + 0.3j
        assert abs(series_eval(s, np.conj(z)) - np.conj(series_eval(s, z))) < 1e-14

    def test_outside_disk_rejected(self):
        with pytest.raises(OutsideDisk):
            series_eval(ts(1, 1), 1.5)
        with pytest.raises(OutsideDisk):
            series_eval_many(ts(1, 1), np.array([0.5, 1.5]))

    def test_one_point_is_the_0d_case_of_eval_many(self):
        rng = np.random.default_rng(10)
        for order in (0, 1, 5, 64, 256):
            s = random_series(rng, order)
            z = np.sqrt(rng.uniform(0, 1, 40)) * np.exp(2j * np.pi * rng.uniform(0, 1, 40))
            z = np.append(z, [0, 1, -1j, np.exp(0.3j)])
            many = series_eval_many(s, z)
            for k, zk in enumerate(z):
                one = series_eval(s, zk)
                assert type(one) is complex
                assert one == complex(series_eval_many(s, np.asarray(zk))[()])
                # array and 0-d evaluation run the same operations
                assert one == many[k]

    def test_python_horner_drift_is_rounding(self):
        # the former scalar loop in Python complex arithmetic
        rng = np.random.default_rng(11)
        for _ in range(50):
            s = random_series(rng, 64)
            z = complex(0.99 * np.exp(2j * np.pi * rng.uniform()))
            acc = 0j
            for c in s.coeffs[::-1]:
                acc = acc * z + complex(c)
            scale = float(np.sum(np.abs(s.coeffs)))
            assert abs(series_eval(s, z) - acc) <= 64 * 2.3e-16 * scale


class TestRing:
    def test_bit_identical_to_linspace_grid(self):
        for angles in (1, 2, 3, 180, 720, 2048, 4096, 8192):
            theta = np.linspace(0.0, 2 * math.pi, angles, endpoint=False)
            circle = np.exp(1j * theta)
            radii = (0.1, 0.5, 0.9, 0.999)
            grid = ring(radii, angles)
            assert grid.shape == (4, angles)
            expect = np.stack([r * circle for r in radii])
            assert np.array_equal(grid.view(float), expect.view(float))
            assert np.array_equal(ring(0.999, angles).view(float), (0.999 * circle).view(float))
            # the unit circle is the bare exponential, and angle k is k * step
            assert np.array_equal(ring(1.0, angles).view(float), circle.view(float))
            step = 2 * math.pi / angles
            assert all(theta[k] == k * step for k in range(angles))

    def test_shapes(self):
        assert ring(0.5, 7).shape == (7,)
        assert ring([0.5], 7).shape == (1, 7)
        assert ring(np.full((2, 3), 0.5), 5).shape == (2, 3, 5)

    @pytest.mark.parametrize("angles", [np.int64(16), np.int32(16), np.uint16(16)])
    def test_numpy_integers_accepted(self, angles):
        assert np.array_equal(ring(0.5, angles), ring(0.5, 16))

    @pytest.mark.parametrize("angles", [0, -3, 16.0, True, False, "16", None, np.float64(16)])
    def test_bad_angles_rejected(self, angles):
        with pytest.raises(OutOfRange):
            ring(0.5, angles)


def uncached_ring(radii, angles):
    """``ring`` as it was before its unit circle was cached."""
    circle = np.exp(1j * np.linspace(0.0, 2 * math.pi, angles, endpoint=False))
    return np.multiply.outer(radii, circle)


class TestRingCache:
    RADII = (0.5, 1.0, (0.1, 0.5, 0.999), np.array([[0.2, 0.4, 1.0], [0.3, 0.6, 0.9]]))

    @pytest.mark.parametrize("angles", [1, 7, 720, 2048, 4096])
    @pytest.mark.parametrize("radii", RADII, ids=["scalar", "unit", "tuple", "2-d"])
    def test_bit_identical_to_uncached(self, radii, angles):
        expect = uncached_ring(radii, angles)
        for _ in range(2):  # a cache miss, then a hit
            got = ring(radii, angles)
            assert got.shape == expect.shape and got.dtype == expect.dtype
            assert np.array_equal(got.view(float), expect.view(float))

    @pytest.mark.parametrize("radii", RADII, ids=["scalar", "unit", "tuple", "2-d"])
    def test_writing_a_grid_leaves_the_next_call(self, radii):
        grid = ring(radii, 16)
        assert grid.flags.writeable
        grid[...] = 7.0
        assert np.array_equal(ring(radii, 16), uncached_ring(radii, 16))

    def test_cached_circle_is_read_only_and_bounded(self):
        circle = series._circle(16)
        assert not circle.flags.writeable
        with pytest.raises(ValueError):
            circle[0] = 0.0
        assert series._circle.cache_info().maxsize == 16
        assert series._circle(16) is circle


def weights(s, radii):
    """|c_k| r^k for each radius, and k."""
    k = np.arange(len(s.coeffs))
    return np.abs(s.coeffs) * np.power.outer(np.asarray(radii, dtype=float), k), k


class TestRingEval:
    """``ring_eval`` is ``series_eval_many`` on ``ring`` to rounding."""

    ANGLES = (1, 2, 7, 64, 65, 257, 360, 720, 2048, 8192)
    RADII = (0.5, (0.1, 0.6, 0.999), 1.0)

    @pytest.mark.parametrize("order", [0, 1, 64, 256])
    def test_matches_horner_on_ring(self, order):
        # folded (angles <= order), exact fit (65 at order 64, 257 at 256),
        # padded, and prime counts.  64 eps sum |c_k| r^k covers the FFT; on
        # top, Horner evaluates at ring's rounded points, a few eps |z| off
        # the exact angles, where the sum moves by up to
        # sum k |c_k| r^k times that
        rng = np.random.default_rng(order)
        for angles in self.ANGLES:
            for radii in self.RADII:
                s = random_series(rng, order)
                got = ring_eval(s, radii, angles)
                expect = series_eval_many(s, ring(radii, angles))
                assert got.shape == expect.shape
                w, k = weights(s, radii)
                bound = 64 * EPS * w.sum(axis=-1) + 4 * EPS * (k * w).sum(axis=-1)
                assert np.all(np.abs(got - expect) <= bound[..., None])

    @pytest.mark.parametrize("order,angles,radius", [(64, 7, 0.9), (64, 65, 1.0), (64, 257, 0.999), (256, 64, 0.9)])
    def test_accurate_at_the_exact_angles(self, order, angles, radius):
        # against the sum at z_j = r e^{2 pi i j / angles} in 40 digits
        s = random_series(np.random.default_rng(angles), order)
        got = ring_eval(s, radius, angles)
        with mpmath.workdps(40):
            coeffs = [mpmath.mpc(complex(c)) for c in s.coeffs[::-1]]
            for j in range(angles):
                z = mpmath.mpf(radius) * mpmath.expjpi(mpmath.mpf(2 * j) / angles)
                acc = mpmath.mpc(0)
                for c in coeffs:
                    acc = acc * z + c
                assert abs(got[j] - complex(acc)) <= 64 * EPS * weights(s, radius)[0].sum()

    def test_shapes(self):
        s = random_series(np.random.default_rng(3), 9)
        assert ring_eval(s, 0.5, 7).shape == (7,)
        assert ring_eval(s, [0.5], 7).shape == (1, 7)
        assert ring_eval(s, (), 7).shape == (0, 7)
        assert ring_eval(s, np.full((2, 3), 0.5), 5).shape == (2, 3, 5)

    def test_zero_series_is_exactly_zero(self):
        assert np.array_equal(ring_eval(TruncatedSeries(np.zeros(65)), (0.5, 0.9), 720), np.zeros((2, 720)))

    @pytest.mark.parametrize("angles", [np.int64(16), np.int32(16), np.uint16(16)])
    def test_numpy_integers_accepted(self, angles):
        s = random_series(np.random.default_rng(4), 20)
        assert np.array_equal(ring_eval(s, 0.5, angles), ring_eval(s, 0.5, 16))

    @pytest.mark.parametrize("angles", [0, -3, 16.0, True, False, "16", None, np.float64(16)])
    def test_bad_angles_rejected_as_by_ring(self, angles):
        with pytest.raises(OutOfRange):
            ring_eval(ts(1, 1), 0.5, angles)

    @pytest.mark.parametrize("radii", [1.5, (0.5, 1 + 1e-13), -1.5])
    def test_outside_disk_rejected_as_by_horner(self, radii):
        with pytest.raises(OutsideDisk):
            series_eval_many(ts(1, 1), ring(radii, 16))
        with pytest.raises(OutsideDisk):
            ring_eval(ts(1, 1), radii, 16)

    def test_rounding_above_one_accepted_as_by_horner(self):
        s = ts(1, 1)
        assert np.abs(ring_eval(s, 1 + 1e-15, 16) - series_eval_many(s, ring(1 + 1e-15, 16))).max() < 1e-14


coeff_lists = st.lists(
    st.tuples(
        st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False)
    ).map(lambda p: complex(*p)),
    min_size=1,
    max_size=16,
)


class TestProperties:
    @settings(deadline=None)
    @given(coeff_lists, coeff_lists)
    def test_mul_commutative(self, ca, cb):
        a, b = TruncatedSeries.from_coeffs(ca), TruncatedSeries.from_coeffs(cb)
        ab, ba = series_mul(a, b), series_mul(b, a)
        assert np.max(np.abs(ab.coeffs - ba.coeffs)) < 1e-13

    def test_mul_associative_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, b, c = (random_series(rng, 64) for _ in range(3))
            lhs = series_mul(series_mul(a, b), c)
            rhs = series_mul(a, series_mul(b, c))
            assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-13 * max(
                1, np.max(np.abs(lhs.coeffs))
            )

    @settings(deadline=None, max_examples=60)
    @given(coeff_lists)
    def test_reciprocal_inverse(self, cs):
        a = TruncatedSeries.from_coeffs(cs, order=16)
        if abs(a.coeffs[0]) < 0.1 or np.sum(np.abs(a.coeffs)) > 10:
            return
        r = reciprocal(a)
        back = series_mul(a, r)
        # residuals scale with the size of the reciprocal coefficients, which
        # can grow geometrically for poorly conditioned inputs
        scale = max(1.0, float(np.max(np.abs(r.coeffs))))
        assert abs(back.coeffs[0] - 1) < 1e-12 * scale
        assert np.max(np.abs(back.coeffs[1:])) < 1e-10 * scale

    def test_reciprocal_inverse_typical(self):
        # the unscaled tolerances hold for typical random inputs
        rng = np.random.default_rng(9)
        for _ in range(50):
            c = rng.standard_normal(17) + 1j * rng.standard_normal(17)
            c *= 5.0 / np.sum(np.abs(c))
            c[0] = 1.0 + 0.5 * c[0]
            if abs(c[0]) < 0.1:
                continue
            a = TruncatedSeries(c)
            back = series_mul(a, reciprocal(a))
            assert abs(back.coeffs[0] - 1) < 1e-12
            assert np.max(np.abs(back.coeffs[1:])) < 1e-10

    def test_eval_multiplicative_inside_third(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            a, b = random_series(rng, 10), random_series(rng, 10)
            z = 0.3 * np.exp(2j * np.pi * rng.uniform())
            lhs = series_eval(series_mul(a, b), z)
            rhs = series_eval(a, z) * series_eval(b, z)
            # analytic tail of the full degree-20 product beyond order 10
            full = np.convolve(a.coeffs, b.coeffs)
            tail = float(np.sum(np.abs(full[11:]) * 0.3 ** np.arange(11, 21)))
            assert abs(lhs - rhs) <= tail + 1e-12
