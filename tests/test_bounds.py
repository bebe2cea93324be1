import cmath
import json
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from test_diskfun import sample_functions
from test_geometry import polygon_distance, reference_contains

import ulambda.bounds as bounds_module
import ulambda.diskfun as diskfun_module
from ulambda.bounds import (
    BoundTable,
    b_a,
    c_omega_curve,
    conjecture_bound,
    f_quadratic,
    f_root_in_unit_interval,
    fixed_point_zero,
    max_boundary_ba,
    r_star,
    rogosinski_check,
    sharpness_construction_thm6,
    sharpness_g_thm5,
    theorem2_bound,
    v_of_omega,
    v_of_x,
)
from ulambda.cli import main
from ulambda.core import GridSpec, q_from_phi, q_from_omega, sup_u, dilate
from ulambda.diskfun import Blaschke, Monomial, MoebiusShift, ScaledPolynomial
from ulambda.errors import (
    BranchPointSingularity,
    NotContractive,
    OutOfRange,
    OutsideDisk,
    SelfIntersectionSuspected,
)
from ulambda.diskfun import antiderivative, gauss_legendre
from ulambda.geometry import BOUNDARY, LABELS
from ulambda.series import ring, series_eval

ZERO_FUN = ScaledPolynomial(raw=(0.0,), normalizer=1.0)
LINEAR_FUN = ScaledPolynomial(raw=(0, 1.0), normalizer=1.0)


def bisect_root(f, lo, hi, iters=80):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo, flo = mid, f(mid)
    return 0.5 * (lo + hi)


class TestClosedFormBounds:
    def test_conjecture_at_lambda_one(self):
        for n in (2, 7, 30):
            assert conjecture_bound(n, 1.0) == n

    def test_conjecture_direct_sum(self):
        assert abs(conjecture_bound(3, 0.5) - 1.75) < 1e-15

    def test_conjecture_n2(self):
        for lam in np.linspace(0.05, 1.0, 20):
            assert abs(conjecture_bound(2, lam) - (1 + lam)) < 1e-15

    def test_theorem2_at_lambda_one(self):
        for n in range(2, 60):
            assert theorem2_bound(n, 1.0) == n

    def test_theorem2_n2(self):
        for lam in (0.2, 0.6, 1.0):
            assert abs(theorem2_bound(2, lam) - (1 + lam)) < 1e-15

    def test_theorem2_direct_value(self):
        expect = 1 + 0.5 * math.sqrt(3) * math.sqrt(1 + 0.25 + 0.0625)
        assert abs(theorem2_bound(4, 0.5) - expect) < 1e-14

    def test_dominance_grid(self):
        for lam in np.linspace(0.01, 0.99, 99):
            for n in range(2, 52):
                assert theorem2_bound(n, lam) >= conjecture_bound(n, lam) - 1e-12


class TestRogosinski:
    def test_identity_w_gives_equality(self):
        rep = rogosinski_check(Monomial(theta=0.0, k=1), 0.6, 15)
        assert rep["partial_sums_hold"]
        assert abs(rep["partial_sum_slack_min"]) < 1e-12
        assert rep["c_bounded"]

    def test_square_w_strict_from_start(self):
        lam = 0.6
        rep = rogosinski_check(Monomial(theta=0.0, k=2), lam, 15)
        assert rep["partial_sums_hold"]
        assert rep["partial_sum_slack_min"] > 0
        # coefficient pattern: b_{2k} = lam^k, odd coefficients vanish
        from ulambda.series import TruncatedSeries, series_reciprocal

        one_minus = np.zeros(16, dtype=complex)
        one_minus[0], one_minus[2] = 1, -lam
        g1 = series_reciprocal(TruncatedSeries(one_minus))
        assert np.max(np.abs(g1.coeffs[1::2])) == 0
        assert np.allclose(g1.coeffs[::2], lam ** np.arange(8))

    def test_blaschke_w_reports_slack(self):
        rep = rogosinski_check(Blaschke(zeros=(0, 0.3), rotation=0.0), 0.7, 20)
        assert rep["partial_sums_hold"] and rep["c_bounded"]
        assert rep["partial_sum_slack_min"] >= 0


class TestVofX:
    def test_at_zero(self):
        assert v_of_x(0.0) == 0.5

    def test_against_quadrature(self):
        for x in (0.1, 0.5, 0.9):
            oracle, _ = quad(lambda t: (x + t) / (1 + x * t), 0, 1)
            assert abs(v_of_x(x) - oracle) < 1e-10

    def test_below_one(self):
        for x in np.linspace(0.1, 0.99, 90):
            assert v_of_x(x) < 1

    def test_strictly_increasing(self):
        xs = np.linspace(0.0, 0.999, 1000)
        vals = [v_of_x(x) for x in xs]
        assert np.all(np.diff(vals) > 0)

    def test_series_branch_continuity(self):
        below, above = v_of_x(1e-3 * (1 - 1e-12)), v_of_x(1e-3 * (1 + 1e-12))
        assert abs(below - above) < 1e-10

    @pytest.mark.parametrize("x", [0.0, 1e-4, 0.0011, 0.01, 0.02, 0.1, 0.3, 0.5, 0.9])
    def test_against_40_digits(self, x):
        # a closed form of its own used to lose 2.4e-13 to cancellation at 0.0011
        with mpmath.workdps(40):
            X = mpmath.mpf(x)
            ref = 0.5 if x == 0 else float(1 / X - (1 - X**2) / X**2 * mpmath.log1p(X))
        assert abs(v_of_x(x) - ref) <= 1e-15

    def test_dense_against_40_digits(self):
        # b_a's closed form used to reach 1.55e-15 just above its old 0.3
        # series threshold
        xs = np.linspace(0.0, 0.99, 2001)
        with mpmath.workdps(40):
            ref = [0.5] + [float(1 / X - (1 - X**2) / X**2 * mpmath.log1p(X)) for X in map(mpmath.mpf, xs[1:])]
        assert max(abs(v_of_x(x) - r) for x, r in zip(xs, ref)) <= 1e-15


class TestBa:
    def test_zero_base_point_is_half_z(self):
        for z in (0.5, -0.3j, cmath.exp(1.2j)):
            assert b_a(0.0, z) == z / 2

    def test_value_at_origin(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            a = 0.98 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
            assert abs(b_a(a, 0.0) - a) < 1e-10

    def test_real_axis_matches_v(self):
        for a in np.linspace(0.05, 0.95, 19):
            assert abs(b_a(a, 1.0) - v_of_x(a)) < 1e-12

    def test_unimodular_branch(self):
        a = cmath.exp(0.7j)
        assert b_a(a, 0.3) == a

    def test_branch_point_rejected(self):
        with pytest.raises(BranchPointSingularity):
            b_a(cmath.exp(0.5j) * (1 - 1e-10), -cmath.exp(0.5j))

    def test_series_consistency(self):
        # thm6's denominator series against 1 - a2 z + lam z^2 B_a(z e^{i psi})
        lam = 0.6
        for a in (0.5, 0.3 - 0.4j, 0.8j):
            _, psi, _, a2, D, _ = sharpness_construction_thm6(lam, a)
            for k in range(12):
                z = 0.5 * cmath.exp(2j * math.pi * k / 12)
                direct = 1 - a2 * z + lam * z * z * b_a(a, z * cmath.exp(1j * psi))
                assert abs(series_eval(D, z) - direct) < 1e-14


def reference_b_a(a, z):
    """The per-point rule ``b_a`` followed before it took arrays."""
    a = complex(a)
    z = complex(z)
    if abs(abs(a) - 1) <= 1e-12:
        return a
    w = np.conj(a) * z
    if abs(1 + w) <= 1e-9:
        raise BranchPointSingularity("conj(a) z at the branch point -1")
    if abs(w) < 1e-3:
        acc = 0j
        for j in range(11, -1, -1):
            acc = acc * (-w) + 1.0 / (j + 2)
        return a + (1 - abs(a) ** 2) * z * acc
    return complex(1 / np.conj(a) - (1 - abs(a) ** 2) / (np.conj(a) ** 2 * z) * np.log1p(w))


def ba_points(rng, n):
    """Points in the closed disk, a tenth of them with |z| < 1e-3 (the series
    branch for every |a| < 1), including 0 and points on the circle."""
    r = np.concatenate([rng.uniform(0, 1, n), np.ones(n // 4), rng.uniform(0, 1e-3, n // 10), [0.0]])
    return rng.permutation(r * np.exp(2j * np.pi * rng.uniform(size=r.size)))


class TestBaBatch:
    """An array call agrees with the per-point rule and keeps the shape."""

    @pytest.mark.parametrize("a", [0.0, 1e-5j, 0.5, 0.3 - 0.4j, -0.95, 0.999j])
    def test_matches_per_point_rule(self, a):
        z = ba_points(np.random.default_rng(31), 400)
        ref = np.array([reference_b_a(a, p) for p in z])
        batch = b_a(a, z)
        assert batch.shape == z.shape
        # numpy's complex log1p rounds 1 + w, so a one-ulp change in w moves
        # the closed form by about eps (1 - |a|^2)/|a^2 z|, the size of the
        # terms that cancel in it; the series branch has no such factor
        w = np.abs(np.conj(a) * z)
        cancel = np.where(w < 1e-3, 0.0, (1 - abs(a) ** 2) / np.maximum(w * abs(a), 1e-300))
        assert np.all(np.abs(batch - ref) <= 8 * np.finfo(float).eps * (1 + cancel))

    @pytest.mark.parametrize("a", [1e-5, 0.5, 0.3 - 0.4j])
    def test_single_branch_arrays(self, a):
        # every element in the series branch, then every one in the closed form
        for z in (1e-4 * np.exp(1j * np.arange(9)), np.exp(1j * np.arange(9))):
            ref = np.array([reference_b_a(a, p) for p in z])
            assert np.max(np.abs(b_a(a, z) - ref)) <= 1e-14
            assert b_a(a, z[3]) == b_a(a, z)[3]

    def test_unimodular_constant(self):
        a = cmath.exp(0.7j)
        out = b_a(a, np.linspace(-1, 1, 12).reshape(3, 4))
        assert out.shape == (3, 4) and np.all(out == a)
        assert type(b_a(a, np.asarray(0.2))) is complex

    def test_shapes(self):
        for z in (0.3 + 0.4j, np.complex128(1e-4), np.asarray(-0.5), 1.0):
            assert type(b_a(0.4 + 0.1j, z)) is complex
        z = ba_points(np.random.default_rng(32), 40)[:36].reshape(6, 6)
        out = b_a(0.4 + 0.1j, z)
        assert out.shape == (6, 6)
        assert np.array_equal(out.ravel(), b_a(0.4 + 0.1j, z.ravel()))

    def test_branch_point_in_array_rejected(self):
        a = cmath.exp(0.5j) * (1 - 1e-10)
        z = np.array([0.2, -cmath.exp(0.5j), 0.5j])
        with pytest.raises(BranchPointSingularity):
            b_a(a, z)

    def test_outside_disk_in_array_rejected(self):
        with pytest.raises(OutsideDisk):
            b_a(0.5, np.array([0.2, 1.01j]))


def mp_b_a(a, z):
    """B_a(z) in the closed form at 40 significant digits."""
    with mpmath.workdps(40):
        a, z = mpmath.mpc(a), mpmath.mpc(z)
        ca = mpmath.conj(a)
        return complex(1 / ca - (1 - abs(a) ** 2) / (ca**2 * z) * mpmath.log(1 + ca * z))


class TestBaAccuracy:
    """Against 40-digit arithmetic.  The closed form used to take over at
    |conj(a) z| = 1e-3, where rounding 1 + conj(a) z inside log1p, scaled by
    (1 - |a|^2)/|a^2 z|, cost up to 1e-10."""

    @pytest.mark.parametrize("a, z", [(0.0011, 1.0), (0.01, 0.1), (0.0011j, -0.9), (0.29, 1.0), (0.31, 1.0), (0.9, 1.0)])
    def test_named_points(self, a, z):
        assert abs(b_a(a, z) - mp_b_a(a, z)) <= 1e-15

    def test_across_the_series_threshold(self):
        rng = np.random.default_rng(40)
        w = np.exp(rng.uniform(math.log(1.1e-3), math.log(0.9), 400))
        amod = np.minimum(rng.uniform(w, 1.0), 0.9999)
        a = amod * np.exp(2j * np.pi * rng.uniform(size=400))
        z = (w / amod) * np.exp(2j * np.pi * rng.uniform(size=400))
        err = [abs(b_a(ak, zk) - mp_b_a(ak, zk)) for ak, zk in zip(a, z)]
        assert max(err) <= 2e-15


def reference_circle_max(f_many, f_one, scan=4096):
    """The scan-then-golden-section search ``v_of_omega`` and
    ``max_boundary_ba`` each carried: the code ``_circle_max`` keeps for the
    sampled families, and the oracle of the closed forms."""
    ts = np.linspace(0.0, 2 * math.pi, scan, endpoint=False)
    vals = np.abs(f_many(np.exp(1j * ts)))
    i = int(np.argmax(vals))
    step = 2 * math.pi / scan
    return bounds_module._golden_max(lambda t: abs(f_one(cmath.exp(1j * t))), ts[i] - step, ts[i] + step, 1e-10)


def circle_gap(s, t):
    """Distance between two angles on the circle."""
    return abs((s - t + math.pi) % (2 * math.pi) - math.pi)


class TestCircleMax:
    """Moebius shifts and monomials take their boundary maximum in closed
    form, within 1e-15 of the search; the sampled families run the search
    itself, ``==``-identical to it."""

    @pytest.mark.parametrize(
        "omega", sample_functions() + [ZERO_FUN, LINEAR_FUN, MoebiusShift(0.95j, 2.0), MoebiusShift(cmath.exp(0.9j), 0.5)], ids=repr
    )
    def test_v_of_omega(self, omega):
        ref = reference_circle_max(lambda z: antiderivative(omega, z), lambda z: antiderivative(omega, z))
        if isinstance(omega, (MoebiusShift, Monomial)):
            assert abs(v_of_omega(omega) - ref[1]) <= 1e-15
        else:
            assert v_of_omega(omega) == ref[1]

    def test_max_boundary_ba(self):
        rng = np.random.default_rng(41)
        a = np.sqrt(rng.uniform(0, 1, 40)) * np.exp(2j * np.pi * rng.uniform(size=40))
        for ak in np.append(a, [0.0, 0.5, -0.999, 1e-4j]):
            ak = complex(ak)
            t_ref, value_ref = reference_circle_max(lambda z: b_a(ak, z), lambda z: b_a(ak, z))
            t, value = max_boundary_ba(ak)
            assert t == cmath.phase(ak) % (2 * math.pi)
            assert value == v_of_x(abs(ak))
            assert abs(value - value_ref) <= 1e-15
            assert abs(b_a(ak, cmath.exp(1j * t))) >= value_ref - 1e-15
            # |B_a| flattens towards |a| = 0 and 1 (B_a tends to z/2 and to
            # the constant a), and there the search cannot place its maximum
            if 0.01 < abs(ak) < 0.99:
                assert circle_gap(t, t_ref) <= 2.5e-7

    def test_dense_scan_never_exceeds_v(self):
        # the proof's inequality |B_a(e^{it})| <= v(|a|), sampled densely
        rng = np.random.default_rng(43)
        a = 0.98 * np.sqrt(rng.uniform(0, 1, 20)) * np.exp(2j * np.pi * rng.uniform(size=20))
        z = np.exp(1j * np.linspace(0.0, 2 * math.pi, 20000, endpoint=False))
        for ak in a:
            assert np.max(np.abs(b_a(ak, z))) <= v_of_x(abs(ak)) + 2e-15

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_monomial(self, k):
        assert v_of_omega(Monomial(theta=0.8, k=k)) == 1 / (k + 1)

    def test_coarse_scan(self):
        omega = Blaschke(zeros=(0.3 - 0.4j, 0.5), rotation=1.2)
        for scan in (1, 2, 7, 64):
            ref = reference_circle_max(lambda z: antiderivative(omega, z), lambda z: antiderivative(omega, z), scan)
            assert v_of_omega(omega, scan=scan) == ref[1]

    def test_closed_forms_run_no_search(self, monkeypatch, tmp_path):
        def no_search(*args):
            raise AssertionError("boundary search on a closed-form family")

        monkeypatch.setattr(bounds_module, "_circle_max", no_search)
        assert max_boundary_ba(0.3 - 0.4j)[1] == v_of_x(0.5)
        assert v_of_omega(MoebiusShift(0.3 - 0.4j, 1.2)) == v_of_x(0.5)
        assert v_of_omega(Monomial(theta=2.1, k=3)) == 0.25
        omega = {"kind": "moebius", "a": [0.3, -0.4], "psi": 1.2}
        for command, cfg in (("fixed-point", {"lambda": 0.5, "a2": 2.5, "omega": omega}),
                             ("sharpness", {"lambda": 0.5, "a": [0.3, -0.4]})):
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps(cfg))
            assert main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 0


class TestMaxBoundaryBa:
    def test_zero_base_point(self):
        _, value = max_boundary_ba(0.0)
        assert abs(value - 0.5) < 1e-12

    def test_unimodular(self):
        t, value = max_boundary_ba(cmath.exp(0.9j))
        assert value == 1.0

    def test_half_matches_v(self):
        t, value = max_boundary_ba(0.5)
        assert abs(value - v_of_x(0.5)) < 1e-9
        assert min(t, 2 * math.pi - t) < 1e-3


class TestVofOmega:
    def test_zero(self):
        assert v_of_omega(ZERO_FUN) == 0

    def test_linear(self):
        assert abs(v_of_omega(LINEAR_FUN) - 0.5) < 1e-12

    def test_moebius_matches_v_of_x(self):
        for a in (0.3, 0.7):
            assert abs(v_of_omega(MoebiusShift(a, 0.0)) - v_of_x(a)) < 1e-10


class TestFQuadratic:
    def test_at_r_zero(self):
        for lam in (0.2, 0.5, 0.8):
            assert f_quadratic(lam, 0.4, 0.0) == lam

    def test_spec_values(self):
        assert abs(f_quadratic(0.3, 0.5, 1.0) - (-0.975)) < 1e-12
        assert abs(f_quadratic(0.75, 0.3, 1.0) - 0.0425) < 1e-12

    def test_against_series_pipeline(self):
        # F(R, r) = q_ext(R r) - (1 - lam)(1 + r) with q_ext the extremal q
        lam, R = 0.45, 0.6
        cand = q_from_phi(lam, Monomial(theta=0.0, k=1))  # q = (1 - z)(1 - lam z)
        dil = dilate(cand, R)
        for r in np.linspace(0.05, 0.95, 10):
            via_series = series_eval(dil.q, r).real - (1 - lam) * (1 + r)
            assert abs(f_quadratic(lam, R, r) - via_series) < 1e-10


class TestFRoot:
    def test_example_root(self):
        root = f_root_in_unit_interval(0.3, 0.5)
        oracle = bisect_root(lambda r: f_quadratic(0.3, 0.5, r), 0.0, 1.0)
        assert root is not None
        assert abs(root - oracle) < 1e-10
        assert abs(root - 0.22504) < 1e-4

    def test_small_lambda_always_has_root(self):
        for R in np.linspace(0.05, 0.95, 10):
            assert f_root_in_unit_interval(0.5, R) is not None

    def test_below_threshold_no_root(self):
        assert f_root_in_unit_interval(0.75, 0.3) is None

    def test_criterion_on_grid(self):
        for lam in np.linspace(0.02, 0.98, 50):
            for R in np.linspace(0.02, 0.98, 50):
                root = f_root_in_unit_interval(lam, R)
                if f_quadratic(lam, R, 1.0) < 0:
                    assert root is not None
                    assert abs(f_quadratic(lam, R, root)) < 1e-10
                    assert 0 < root < 1
                else:
                    assert root is None


class TestRStar:
    def test_three_quarters(self):
        assert abs(r_star(0.75) - 1 / 3) < 1e-12

    def test_limits(self):
        assert r_star(1 - 1e-9) > 0.9999
        assert r_star(0.5 + 1e-9) < 1e-4

    def test_boundary_root(self):
        for lam in np.linspace(0.51, 0.99, 20):
            assert abs(f_quadratic(lam, r_star(lam), 1.0)) < 1e-10

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            r_star(0.4)


class TestFixedPoint:
    def test_linear_omega_witness(self):
        res = fixed_point_zero(1.5625, 0.5, LINEAR_FUN, 0.8)
        cand = q_from_omega(1.5625, 0.5, LINEAR_FUN)
        assert abs(series_eval(cand.q, res.z0)) < 1e-10
        oracle = bisect_root(lambda x: 1 - 1.5625 * x + 0.25 * x**3, 0.0, 1.0)
        assert abs(res.z0 - oracle) < 1e-8

    def test_zero_omega_hits_radius(self):
        r = 0.55
        res = fixed_point_zero(1 / r, 0.5, ZERO_FUN, r)
        assert abs(res.z0 - r) < 1e-12

    def test_geometric_decay(self):
        res = fixed_point_zero(1.5625, 0.5, LINEAR_FUN, 0.8)
        resid = np.array(res.residuals)
        ratios = resid[1:] / resid[:-1]
        mask = resid[:-1] > 1e-11  # below that, rounding noise dominates
        assert np.all(ratios[mask[: len(ratios)]] <= res.contraction_constant + 1e-9)

    def test_not_contractive_rejected(self):
        with pytest.raises(NotContractive):
            fixed_point_zero(0.5, 0.9, LINEAR_FUN, 0.9)

    def test_given_v_skips_the_scan(self, monkeypatch):
        omega = MoebiusShift(0.4, 0.7)
        expected = fixed_point_zero(2.5, 0.6, omega, 0.6)
        v = v_of_omega(omega)
        monkeypatch.setattr(bounds_module, "v_of_omega", None)
        assert fixed_point_zero(2.5, 0.6, omega, 0.6, v=v) == expected


def reference_self_intersections(pts):
    """The dense rule ``c_omega_curve`` applied before its neighbour search:
    pairs more than 4 steps apart (cyclically) and closer than 1e-6."""
    n = len(pts)
    idx = np.arange(n)
    sep = np.abs(idx[:, None] - idx[None, :])
    sep = np.minimum(sep, n - sep)
    dist = np.abs(pts[:, None] - pts[None, :])
    return int(np.count_nonzero((sep > 4) & (dist < 1e-6))) // 2


def injected_curve(n, pairs, rng):
    """A circle of n samples with sample j moved onto (or next to) sample i
    for each (i, j, offset) in pairs."""
    pts = np.exp(2j * np.pi * np.arange(n) / n) * (1 + 0.01 * rng.uniform(size=n))
    for i, j, offset in pairs:
        pts[j] = pts[i] + offset
    return pts


class TestSelfIntersection:
    """The neighbour search flags the same pairs as the dense matrices."""

    CASES = [
        [],
        [(3, 200, 0.0)],
        [(3, 200, 4e-7j), (10, 400, 9e-7)],
        # beyond 1e-6, or too few steps apart: not flagged
        [(3, 200, 1.1e-6), (50, 53, 0.0)],
        # a cluster of three mutually close samples, and one at 5 steps
        [(7, 300, 0.0), (7, 301, 2e-7), (100, 105, -3e-7j)],
        # across the wrap-around: steps 0 and n - 1 are neighbours
        [(0, 511, 0.0), (0, 256, 5e-7 + 5e-7j)],
    ]

    @pytest.mark.parametrize("pairs", CASES)
    def test_matches_dense_rule(self, pairs):
        pts = injected_curve(512, pairs, np.random.default_rng(41))
        assert bounds_module._close_sample_pairs(pts) == reference_self_intersections(pts)

    def test_vertical_runs(self):
        # many samples sharing one real part all land in each other's band
        rng = np.random.default_rng(42)
        pts = np.concatenate([0.3 + 1j * rng.uniform(-1, 1, 100), 0.3 + 1j * np.linspace(-1, 1, 200)])
        pts[150] = pts[20] + 1e-7j
        expected = reference_self_intersections(pts)
        assert expected > 0
        assert bounds_module._close_sample_pairs(pts) == expected

    @pytest.mark.parametrize("pairs", CASES[1:3] + CASES[4:])
    def test_c_omega_curve_raises_with_dense_count(self, pairs, monkeypatch):
        lam, n = 0.5, 512
        target = injected_curve(n, pairs, np.random.default_rng(43))
        ring = np.exp(-1j * np.linspace(0.0, 2 * math.pi, n + 1)[:-1])
        # an antiderivative that puts the curve e^{-it} + lam I(e^{it}) on target
        monkeypatch.setattr(bounds_module, "antiderivative", lambda omega, z: (target - ring) / lam)
        expected = reference_self_intersections(ring + lam * (target - ring) / lam)
        with pytest.raises(SelfIntersectionSuspected, match=f"^{expected} close sample pairs$"):
            c_omega_curve(ZERO_FUN, lam, resolution=n)

    @pytest.mark.parametrize("omega", [ZERO_FUN, LINEAR_FUN, MoebiusShift(0.8, 1.0), Blaschke((0.3j,))])
    def test_injective_curves_pass(self, omega):
        region = c_omega_curve(omega, 0.5, resolution=1024)
        pts = region.curve.samples[:-1]
        assert bounds_module._close_sample_pairs(pts) == reference_self_intersections(pts) == 0


class TestRegionA2:
    def test_zero_omega_unit_circle(self):
        region = c_omega_curve(ZERO_FUN, 0.5, resolution=256)
        assert region.contains(0.9) == "inside"
        assert region.contains(1.1) == "outside"
        assert np.max(np.abs(np.abs(region.curve.samples) - 1)) < 1e-12

    def test_constant_omega_contains_zero(self):
        region = c_omega_curve(ScaledPolynomial(raw=(0.5,), normalizer=1.0), 0.5, resolution=256)
        assert region.contains(0j) == "inside"
        # explicit curve e^{-i t} + lam a e^{i t}
        for t, p in zip(region.thetas[:5], region.curve.samples[:5]):
            expect = cmath.exp(-1j * t) + 0.5 * 0.5 * cmath.exp(1j * t)
            assert abs(p - expect) < 1e-12

    def test_outside_a2_has_disk_zero(self):
        # a2 beyond the admissible region forces a zero of q inside the disk
        lam = 0.5
        for omega in (LINEAR_FUN, MoebiusShift(0.4, 0.7)):
            v = v_of_omega(omega)
            a2 = (1 + lam * v) / 0.8  # strictly above the bound
            region = c_omega_curve(omega, lam, resolution=256)
            assert region.contains(a2) == "outside"
            res = fixed_point_zero(a2, lam, omega, 0.8)
            cand = q_from_omega(a2, lam, omega)
            assert abs(series_eval(cand.q, res.z0)) < 1e-9

    @pytest.mark.parametrize("resolution", [64, 512, 1000, 4096])
    def test_samples_the_closed_angle_grid(self, resolution):
        # ring's points are those of the closed grid thetas, bit for bit, so
        # region.csv and region.svg do not depend on which grid is sampled
        omega = MoebiusShift(0.3, 0.2)
        region = c_omega_curve(omega, 0.5, resolution=resolution)
        t = region.thetas[:-1]
        closed = np.exp(-1j * t) + 0.5 * antiderivative(omega, np.exp(1j * t))
        assert np.array_equal(region.curve.samples[:-1], closed)
        assert region.curve.samples[-1] == region.curve.samples[0]

    def test_csv_and_svg_shapes(self):
        region = c_omega_curve(ZERO_FUN, 0.5, resolution=64)
        csv = region.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "theta,re,im"
        assert len(lines) == 66
        svg = region.to_svg()
        assert svg.startswith("<svg") and "path" in svg

    @pytest.mark.parametrize("resolution", [64, 513, 1024, 4096])
    @pytest.mark.parametrize(
        "omega", [ZERO_FUN, MoebiusShift(0.8, 1.0), MoebiusShift(-0.3 + 0.5j, 4.0), Blaschke((0.3j,))], ids=repr
    )
    def test_artifacts_match_per_sample_loop(self, omega, resolution):
        region = c_omega_curve(omega, 0.6, resolution=resolution)
        assert region.to_csv() == reference_csv(region)
        for size in (512, 97):
            assert region.to_svg(size) == reference_svg(region, size)


# the near-curve families at lam = 0.7, resolution 512
NEAR_LAM = 0.7
NEAR_OMEGAS = {
    "moebius-0.5": MoebiusShift(0.5),
    "moebius-0.9": MoebiusShift(0.9),
    "moebius-0.98": MoebiusShift(0.98),
    "blaschke": Blaschke(zeros=(0.3 - 0.4j, 0.5)),
    "cubic": ScaledPolynomial(raw=(0.2, -0.5j, 0.3, 0.4 + 0.1j)),
}


def curve_points(omega, lam, t):
    """gamma(t) = e^{-it} + lam int_0^{e^{it}} omega and its unit left normal,
    the tangent taken by a central difference."""
    def gamma(t):
        z = np.exp(1j * t)
        return z.conj() + lam * antiderivative(omega, z)

    chord = gamma(t + 1e-6) - gamma(t - 1e-6)
    return gamma(t), 1j * chord / np.abs(chord)


def mp_curve_distance(omega, lam, p, t0):
    """Distance from p to gamma at 40 digits: the root of
    Re(conj(gamma'(t)) (gamma(t) - p)) next to t0, for a real-a Moebius
    shift (psi = 0) or a polynomial."""
    with mpmath.workdps(40):
        lam, p = mpmath.mpf(lam), mpmath.mpc(p)
        if isinstance(omega, MoebiusShift):
            a = mpmath.mpf(omega.a.real)
            om = lambda z: (a + z) / (1 + a * z)
            prim = lambda z: z / a - (1 - a**2) / a**2 * mpmath.log(1 + a * z)
        else:
            c = [mpmath.mpc(x) / mpmath.mpf(omega.normalizer) for x in omega.raw]
            om = lambda z: sum(ck * z**k for k, ck in enumerate(c))
            prim = lambda z: sum(ck * z ** (k + 1) / (k + 1) for k, ck in enumerate(c))

        def slope(t):
            z = mpmath.expj(t)
            g = 1 / z + lam * prim(z)
            dg = 1j * (lam * z * om(z) - 1 / z)
            return mpmath.re(mpmath.conj(dg) * (g - p))

        t = mpmath.findroot(slope, mpmath.mpf(t0))
        return float(abs(1 / mpmath.expj(t) + lam * prim(mpmath.expj(t)) - p))


class TestRegionProjection:
    """``RegionA2.locate`` projects each query onto the true curve gamma.  The
    sampled polygon it replaced mislabelled 44-91 of these 400 points at
    1e-5 per family (its chords sag up to 1.2e-3 off gamma)."""

    @pytest.mark.parametrize("name", sorted(NEAR_OMEGAS))
    def test_labels_follow_the_side(self, name):
        omega = NEAR_OMEGAS[name]
        region = c_omega_curve(omega, NEAR_LAM, resolution=512)
        g, left = curve_points(omega, NEAR_LAM, np.random.default_rng(13).uniform(0, 2 * math.pi, 200))
        # |lam omega| < 1, so gamma' turns with e^{-it}: gamma runs clockwise
        # and its interior lies to the right
        codes, dist = region.locate(np.concatenate([g + 1e-5 * left, g - 1e-5 * left]))
        assert [LABELS[c] for c in codes] == ["outside"] * 200 + ["inside"] * 200
        assert np.max(np.abs(dist - 1e-5)) < 1e-12
        codes, dist = region.locate(np.concatenate([g + 1e-9 * left, g - 1e-9 * left]))
        assert np.all(codes == BOUNDARY) and np.max(dist) < 2e-9
        assert region.contains(g[0] + 1e-5 * left[0]) == "outside"
        assert region.contains(g[0] - 1e-9 * left[0]) == "boundary"

    @pytest.mark.parametrize("omega", [MoebiusShift(0.9), NEAR_OMEGAS["cubic"]], ids=repr)
    def test_distance_matches_40_digits(self, omega):
        region = c_omega_curve(omega, NEAR_LAM, resolution=512)
        rng = np.random.default_rng(14)
        t = rng.uniform(0, 2 * math.pi, 6)
        g, left = curve_points(omega, NEAR_LAM, t)
        pts = np.concatenate([g + 1e-5 * left, g - 1e-5 * left, [0.1 + 0.2j, -0.3j, 2.0, -1.5 + 1.5j]])
        starts = np.concatenate([t, t, np.zeros(4)])
        dense_t = np.linspace(0, 2 * math.pi, 4096, endpoint=False)
        dense = curve_points(omega, NEAR_LAM, dense_t)[0]
        for k in range(len(t) * 2, len(pts)):
            starts[k] = dense_t[np.argmin(np.abs(dense - pts[k]))]
        _, dist = region.locate(pts)
        ref = [mp_curve_distance(omega, NEAR_LAM, p, t0) for p, t0 in zip(pts, starts)]
        assert np.max(np.abs(dist - ref)) < 1e-14

    @pytest.mark.parametrize("omega, lam", [
        *((omega, NEAR_LAM) for omega in NEAR_OMEGAS.values()),
        # lam = 1 with |omega| = 1 on the circle: gamma has cusps
        (Monomial(0.0, 1), 1.0),
        (Blaschke(zeros=(0.3 - 0.4j, 0.5)), 1.0),
        (MoebiusShift(0.9), 1.0),
    ], ids=repr)
    def test_far_points_agree_with_dense_polygon(self, omega, lam):
        region = c_omega_curve(omega, lam, resolution=512)
        dense_t = np.linspace(0, 2 * math.pi, 8192, endpoint=False)
        dense = curve_points(omega, lam, dense_t)[0]
        polygon = np.concatenate([dense, dense[:1]])
        rng = np.random.default_rng(15)
        pts = rng.uniform(-2.2, 2.2, 600) + 1j * rng.uniform(-2.2, 2.2, 600)
        far = np.array([p for p in pts if polygon_distance(polygon, p) > 1e-3])
        assert len(far) > 550
        codes, dist = region.locate(far)
        assert [LABELS[c] for c in codes] == [reference_contains(polygon, p) for p in far]
        # the projection is the global nearest point: never farther than the
        # nearest dense sample, and nearer by no more than the sample spacing
        nearest = np.min(np.abs(far[:, None] - dense), axis=1)
        assert np.all(dist <= nearest + 1e-15) and np.all(nearest - dist < 1e-3)

    def test_global_nearest_where_samples_are_sparse(self):
        # near a = 0.999 gamma runs about 6 apart between samples; Newton from
        # the nearest sample alone settled at a local nearest point (t 5.23,
        # distance 1.4e-3) and read the wrong side
        omega = MoebiusShift(0.999, 0.3)
        region = c_omega_curve(omega, 1.0, resolution=2048)
        p = 0.99225 - 0.00122j
        dense_t = np.linspace(0, 2 * math.pi, 2_000_000, endpoint=False)
        dense = curve_points(omega, 1.0, dense_t)[0]
        codes, dist = region.locate(p)
        assert LABELS[codes[0]] == reference_contains(np.append(dense, dense[:1]), p) == "outside"
        assert 0 <= np.min(np.abs(dense - p)) - dist[0] < 1e-8  # the wrong point was 3.8e-4 farther

    def test_chunked_queries_match_point_queries(self):
        # 2**20 distances per chunk: 16 queries at 65536 samples
        region = c_omega_curve(MoebiusShift(0.5, 0.2), NEAR_LAM, resolution=65536)
        rng = np.random.default_rng(16)
        pts = rng.uniform(-1.5, 1.5, 40) + 1j * rng.uniform(-1.5, 1.5, 40)
        codes, dist = region.locate(pts)
        one = [region.locate(p) for p in pts]
        assert codes.tolist() == [c[0] for c, _ in one]
        assert np.array_equal(dist, [d[0] for _, d in one])

    def test_empty_and_point_queries(self):
        region = c_omega_curve(ZERO_FUN, 0.5, resolution=64)
        codes, dist = region.locate([])
        assert codes.shape == dist.shape == (0,)
        # omega = 0 makes gamma the unit circle, whatever the resolution
        codes, dist = region.locate(0.9)
        assert codes.tolist() == [1] and abs(dist[0] - 0.1) < 1e-15


def reference_csv(region):
    """``RegionA2.to_csv`` as it formatted one numpy sample at a time."""
    lines = ["theta,re,im"]
    for t, p in zip(region.thetas, region.curve.samples):
        lines.append(f"{t:.17g},{p.real:.17g},{p.imag:.17g}")
    return "\n".join(lines) + "\n"


def reference_svg(region, size):
    """``RegionA2.to_svg`` as it mapped one numpy sample at a time."""
    pts = region.curve.samples
    lo = complex(np.min(pts.real), np.min(pts.imag))
    hi = complex(np.max(pts.real), np.max(pts.imag))
    span = max(hi.real - lo.real, hi.imag - lo.imag, 1e-9)
    pad = 0.05 * span
    scale = size / (span + 2 * pad)
    path = "M " + " L ".join(
        f"{(p.real - lo.real + pad) * scale:.3f} {size - (p.imag - lo.imag + pad) * scale:.3f}" for p in pts
    ) + " Z"
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">\n'
        f'<path d="{path}" fill="none" stroke="black" stroke-width="1"/>\n'
        "</svg>\n"
    )


class TestSharpnessThm5:
    def test_half_half(self):
        a2, cand, rep = sharpness_g_thm5(0.5, 0.5)
        assert abs(a2 - (1 + 0.5 * v_of_x(0.5))) < 1e-14
        assert rep["expr_disagreement"] < 1e-10
        assert rep["min_interior_abs_g"] > 0
        assert rep["g_at_1_abs"] < 1e-9
        assert rep["bound_residual"] < 1e-12

    def test_small_a_limit(self):
        a2, _, _ = sharpness_g_thm5(0.7, 1e-6)
        assert abs(a2 - (1 + 0.7 / 2)) < 1e-5

    def test_membership_of_witness(self):
        _, cand, _ = sharpness_g_thm5(0.5, 0.5)
        assert sup_u(cand).verdict in ("Inside", "Inconclusive")

    def test_is_thm6_at_real_a(self):
        witness = sharpness_construction_thm6(0.7, 0.4)
        _, _, omega, a2c, D, rep6 = witness
        a2, cand, rep = sharpness_g_thm5(0.7, 0.4)
        assert sharpness_g_thm5(0.7, 0.4, witness)[2] == rep
        assert a2 == rep["a2"] == a2c.real and a2c.imag == 0
        assert omega == MoebiusShift(0.4, 0.0) and cand.generator == omega
        assert np.array_equal(cand.q.coeffs, D.coeffs)
        assert rep["v"] == rep6["max_boundary_ba"] == v_of_x(0.4)
        assert rep["min_interior_abs_g"] == rep6["min_interior_abs_d"]
        assert rep["bound_residual"] == rep6["a2_bound_residual"]

    def test_interior_minimum_is_not_truncated(self):
        # thm6's grid: every 4th of GridSpec's 720 angles on each circle.  A
        # sweep of the order-64 series of q used to be off by 2.9e-9 here
        lam, a = 1.0, 0.8
        a2, _, rep = sharpness_g_thm5(lam, a)
        grid = GridSpec()
        z = ring(grid.radii, grid.angles)[:, ::4].ravel()
        g = 1 - a2 * z + lam * z * gauss_legendre(MoebiusShift(a, 0.0), z)
        assert abs(rep["min_interior_abs_g"] - float(np.min(np.abs(g)))) <= 1e-12


class TestSharpnessThm6:
    def test_real_a_reduces_to_thm5(self):
        theta, psi, omega, a2, D, rep = sharpness_construction_thm6(0.5, 0.5)
        assert abs(theta) < 1e-6 and abs(psi) < 1e-6
        assert abs(a2 - (1 + 0.5 * v_of_x(0.5))) < 1e-7
        assert rep["d_boundary_residual"] < 1e-8
        assert rep["min_interior_abs_d"] > 0
        assert rep["a2_bound_residual"] < 1e-12

    def test_zero_a_degenerate(self):
        theta, psi, omega, a2, D, rep = sharpness_construction_thm6(0.6, 0.0)
        assert abs(abs(a2) - (1 + 0.6 / 2)) < 1e-10
        assert rep["d_boundary_residual"] < 1e-8

    @pytest.mark.parametrize("a", [0.05, 0.35, -0.5, 0.3 - 0.2j, 0.05 * cmath.exp(2.5j), -0.6 - 0.7j, 0.97j])
    def test_closed_form_outputs(self, a):
        # theta = -beta/2, psi = 3 beta/2 (mod 2 pi), a2 = e^{i beta/2}(1 + lam v(|a|))
        lam = 0.7
        beta = cmath.phase(a)
        theta, psi, omega, a2, _, rep = sharpness_construction_thm6(lam, a)
        assert abs(theta + beta / 2) <= 1e-15
        assert circle_gap(psi, 1.5 * beta) <= 1e-15
        assert abs(a2 - cmath.exp(0.5j * beta) * (1 + lam * v_of_x(abs(a)))) <= 1e-15
        assert omega == MoebiusShift(a, psi)
        assert rep["a2_bound_residual"] <= 1e-15

    def test_complex_a_integral_identity(self):
        theta, psi, omega, a2, D, rep = sharpness_construction_thm6(0.4, 0.3 - 0.2j)
        assert rep["integral_identity_max_err"] < 1e-9
        assert rep["d_boundary_residual"] < 1e-8
        assert rep["a2_bound_residual"] < 1e-12


class TestSharpnessSelfChecks:
    """The closed-form B_a is checked against quadrature, not against
    itself: a Moebius shift's primitive is z B_a(z e^{i psi}), so a check
    through ``antiderivative`` would read 0 whatever B_a computes."""

    @staticmethod
    def shift_kernel(monkeypatch, eps):
        kernel = diskfun_module._moebius_mean

        def shifted(a, z):
            return kernel(a, z) + eps

        # every binding of the one B_a implementation
        monkeypatch.setattr(diskfun_module, "_moebius_mean", shifted)
        monkeypatch.setattr(bounds_module, "_moebius_mean", shifted)

    @pytest.fixture
    def shifted_kernel(self, monkeypatch):
        self.shift_kernel(monkeypatch, 1e-6)

    def test_exact_kernel_passes(self):
        _, _, rep5 = sharpness_g_thm5(1.0, 0.5)
        rep6 = sharpness_construction_thm6(0.4, 0.3 - 0.2j)[5]
        assert rep5["g_at_1_abs"] < 1e-14
        assert rep6["integral_identity_max_err"] < 1e-14

    def test_shifted_kernel_shows(self, shifted_kernel):
        # g(1) = lam (B_a(1) - int_0^1 omega) moves by lam 1e-6; the identity
        # error by 1e-6 |z|, and the largest |z| of its points is 0.942
        _, _, rep5 = sharpness_g_thm5(1.0, 0.5)
        rep6 = sharpness_construction_thm6(0.4, 0.3 - 0.2j)[5]
        assert rep5["g_at_1_abs"] >= 0.999e-6
        assert rep6["integral_identity_max_err"] >= 0.94e-6

    def test_a2_bound_residual_checks_the_value(self, monkeypatch):
        # a2 takes b_a at t0, so a wrong boundary maximum shows in the residual
        closed_form = bounds_module.max_boundary_ba
        monkeypatch.setattr(bounds_module, "max_boundary_ba", lambda a: (closed_form(a)[0], closed_form(a)[1] + 1e-6))
        rep6 = sharpness_construction_thm6(0.4, 0.3 - 0.2j)[5]
        assert rep6["a2_bound_residual"] >= 0.999 * 0.4e-6

    @pytest.mark.parametrize("a", [0.05 * cmath.exp(0.7j), 0.3 - 0.2j, 0.9j])
    def test_angles_ignore_rounding_of_the_kernel(self, monkeypatch, a):
        # near |a| = 0.05 every t within ~1e-7 of arg a maximizes |B_a| to
        # rounding, so a search moved t0, theta and psi by up to 2.5e-7
        # when B_a moved by 1e-15
        exact = sharpness_construction_thm6(0.5, a)
        self.shift_kernel(monkeypatch, 1e-15)
        shifted = sharpness_construction_thm6(0.5, a)
        assert shifted[5]["t0"] == exact[5]["t0"]
        assert shifted[:2] == exact[:2]


class TestBoundTable:
    def test_csv_header(self):
        table = BoundTable([(2, 1.5, 1.5, 1.5, "extremal")])
        assert table.to_csv().startswith("n,conjecture,theorem2,observed_max,family")

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            BoundTable([(2, 1.5, 1.2, 1.0, "x")])

    def test_violations(self):
        table = BoundTable([(2, 1.5, 1.6, 1.7, "x")])
        assert len(table.violations()) == 1
