import cmath
import json
import math
import warnings
from collections import Counter

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from test_diskfun import mp_blaschke_integral, sample_functions
from test_geometry import polygon_distance, reference_contains

import ulambda.bounds as bounds_module
import ulambda.diskfun as diskfun_module
from ulambda.bounds import (
    VIOLATION_TOL,
    BoundTable,
    RegionA2,
    b_a,
    c_omega_curve,
    conjecture_bound,
    f_quadratic,
    f_root_in_unit_interval,
    fixed_point_zero,
    max_boundary_ba,
    omega_verdict,
    omega_verdicts,
    r_star,
    rogosinski_check,
    sharpness_construction_thm6,
    sharpness_g_thm5,
    theorem2_bound,
    v_of_omega,
    v_of_x,
)
from ulambda.cli import _random_point, main, sample_omega, sample_phi
from ulambda.core import (
    ZERO_COUNT_COARSE,
    ZERO_COUNT_ROUNDING,
    ZERO_COUNT_SAMPLES,
    GridSpec,
    _winding,
    dilate,
    q_from_omega,
    q_from_phi,
    sup_u,
)
from ulambda.diskfun import Blaschke, Monomial, MoebiusShift, ScaledPolynomial
from ulambda.errors import (
    BranchPointSingularity,
    NotContractive,
    OutOfRange,
    OutsideDisk,
)
from ulambda.diskfun import antiderivative, gauss_legendre
from ulambda.geometry import BOUNDARY, BOUNDARY_TOL, INSIDE, LABELS, OUTSIDE
from ulambda.series import ring, ring_eval, series_eval, series_reciprocal_rows

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

    def test_conjecture_fails_at_n3_small_lambda(self, tmp_path):
        # the member f = z/q of U(0.1) with a2 = 1.0775 and omega the Moebius
        # shift a = 0.5 has a3 = a2^2 - lam omega(0) = 1.11100625, above
        # 1 + lam + lam^2: the bound is conjectural and fails here
        lam, a2 = 0.1, 1.0775
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"lambda": lam, "candidate": {
            "type": "omega", "a2": a2, "omega": {"kind": "moebius", "a": 0.5}}}))
        assert main(["membership", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        rep = json.loads((tmp_path / "out" / "membership.json").read_text())
        assert (rep["verdict"], rep["path"], rep["q_disk_zeros"]) == ("Inside", "zero_count", 0)
        assert mp_moebius_zero_count(lam, a2, 0.5) == 0
        a3 = series_reciprocal_rows(q_from_omega(a2, lam, MoebiusShift(0.5)).q.coeffs[None])[0][2]
        assert a3 == pytest.approx(1.11100625, abs=1e-14)
        assert conjecture_bound(3, lam) == pytest.approx(1.11, abs=1e-15)
        assert a3.real > conjecture_bound(3, lam) + VIOLATION_TOL

    def test_n3_crossover_of_the_thm5_witnesses(self):
        # along thm5's witnesses (omega the Moebius shift a, a2 -> 1 + lam v(a),
        # real a in (0, 1)) a3 -> (1 + lam v)^2 - lam a, which exceeds
        # 1 + lam + lam^2 by lam ((2v - a - 1) - lam (1 - v^2)): exactly when
        # lam < g(a) = (2v - a - 1)/(1 - v^2).  g rises to its limit at a = 1,
        # where v(1) = 1 and v'(1) = 2 ln 2 - 1, so the family beats the bound
        # exactly for lam below (3 - 4 ln 2)/(4 ln 2 - 2)
        with mpmath.workdps(40):
            def v(x):
                return mpmath.quad(lambda t: (x + t) / (1 + x * t), [0, 1])

            def g(a, v=v):
                return (2 * v(a) - a - 1) / (1 - v(a) ** 2)

            ln2 = mpmath.log(2)
            star = (3 - 4 * ln2) / (4 * ln2 - 2)
            assert abs(mpmath.diff(v, 1) - (2 * ln2 - 1)) < mpmath.mpf("1e-30")
            assert abs(g(1 - mpmath.mpf("1e-18")) - star) < mpmath.mpf("1e-17")
            assert abs(star - mpmath.mpf("0.29434972478104491540269221597104499")) < mpmath.mpf("1e-34")
            # v's closed form 1/x - (1 - x^2) log(1 + x)/x^2 on the grid
            closed = lambda x: 1 / x - (1 - x**2) * mpmath.log1p(x) / x**2
            assert abs(closed(mpmath.mpf("0.3")) - v(mpmath.mpf("0.3"))) < mpmath.mpf("1e-35")
            assert max(g(mpmath.mpf(k) / 10**4, closed) for k in range(1, 10**4)) < star
        lam, a = 0.29, 0.999
        a3 = (1 + lam * v_of_x(a)) ** 2 - lam * a
        assert a3 - conjecture_bound(3, lam) == pytest.approx(9.2766e-7, rel=1e-3)

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
        one_minus = np.zeros(16, dtype=complex)
        one_minus[0], one_minus[2] = 1, -lam
        g1 = series_reciprocal_rows(one_minus[None])[0]
        assert np.max(np.abs(g1[1::2])) == 0
        assert np.allclose(g1[::2], lam ** np.arange(8))

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

    @pytest.mark.parametrize("a2, lam, name", [
        # q(0) = 1, yet an infinite a2 made the first step 0j and returned it
        (math.inf, 0.5, "a2"),
        (complex(-math.inf, 1.0), 0.5, "a2"),
        # a NaN ran all FIXED_POINT_MAX_ITER steps, then raised NoConvergence
        (math.nan, 0.5, "a2"),
        (complex(3, math.nan), 0.5, "a2"),
        (3.0, math.nan, "lam"),
    ], ids=["inf", "-inf+1j", "nan", "3+nanj", "nan-lambda"])
    def test_non_finite_input_rejected_by_name(self, monkeypatch, a2, lam, name):
        def no_step(*args):
            raise AssertionError("the iteration ran")

        monkeypatch.setattr(bounds_module, "antiderivative", no_step)
        monkeypatch.setattr(bounds_module, "v_of_omega", no_step)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                fixed_point_zero(a2, lam, MoebiusShift(0.3), 0.5)


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
    @pytest.mark.parametrize("omega, lam", [
        pytest.param(omega, lam, id=repr(omega) if lam == 0.6 else f"{omega!r}-lambda{lam:g}")
        for omega, lam in [
            (ZERO_FUN, 0.6),
            (MoebiusShift(0.8, 1.0), 0.6),
            (MoebiusShift(-0.3 + 0.5j, 4.0), 0.6),
            (Blaschke((0.3j,)), 0.6),
            (Blaschke((0.6 + 0.3j, -0.5 + 0.2j, 0.995), rotation=1.0), 0.6),
            (ScaledPolynomial(raw=(0.2, -0.5j, 0.3, 0.4 + 0.1j)), 0.6),
            # |a| = 1: omega is the constant a, gamma an ellipse
            (MoebiusShift(1j, 2.0), 0.6),
            # the cusp of gamma at t = 0
            (MoebiusShift(0.98), 1.0),
        ]
    ])
    def test_artifacts_match_per_sample_loop(self, omega, lam, resolution):
        region = c_omega_curve(omega, lam, resolution=resolution)
        assert region.to_csv() == reference_csv(region)
        assert region.to_svg() == reference_svg(region, 512)


class TestThetaText:
    """``to_csv`` takes the theta column's text from ``_theta_text``, a
    bounded cache keyed by the column's bytes; re and im are formatted on
    every call."""

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        bounds_module._theta_text.cache_clear()
        yield
        bounds_module._theta_text.cache_clear()

    def test_hit_miss_hit(self):
        # two omegas at one resolution share a column; another resolution
        # misses; the first column is still held
        regions = [
            c_omega_curve(MoebiusShift(0.41 - 0.52j, 2.3), 0.4375, resolution=1024),
            c_omega_curve(Blaschke((0.6 + 0.3j, -0.5 + 0.2j)), 0.7, resolution=1024),
            c_omega_curve(ScaledPolynomial(raw=(0.2, -0.5j, 0.3)), 0.5, resolution=4096),
            c_omega_curve(MoebiusShift(-0.2 + 0.1j, 0.4), 0.9, resolution=1024),
        ]
        counts = []
        for region in regions:
            assert region.to_csv() == reference_csv(region)
            info = bounds_module._theta_text.cache_info()
            counts.append((info.hits, info.misses))
        assert counts == [(0, 1), (1, 1), (1, 2), (2, 2)]

    @pytest.mark.parametrize("angles", [
        pytest.param(lambda t: t + 0.25, id="shifted"),
        pytest.param(lambda t: t[::-1].copy(), id="reversed"),
        pytest.param(lambda t: np.where(np.arange(len(t)) == 500, np.nextafter(t, 7), t), id="one-ulp"),
        # equal to the cached column as numbers, yet it prints "-0"
        pytest.param(lambda t: np.where(t == 0, -0.0, t), id="negative-zero"),
    ])
    def test_hand_built_column_of_a_cached_length(self, angles):
        region = c_omega_curve(MoebiusShift(0.3, 0.2), 0.5, resolution=1024)
        assert region.to_csv() == reference_csv(region)
        other = RegionA2(region.lam, region.omega, angles(region.thetas), region.curve)
        assert len(other.thetas) == len(region.thetas)
        assert other.to_csv() == reference_csv(other)
        assert region.to_csv() == reference_csv(region)

    def test_more_columns_than_the_cache_holds(self):
        held = bounds_module._THETA_COLUMNS
        assert bounds_module._theta_text.cache_info().maxsize == held
        regions = [c_omega_curve(MoebiusShift(0.5j, 0.1 * k), 0.6, resolution=64 + k)
                   for k in range(2 * held + 1)]
        for region in [*regions, *regions]:
            assert region.to_csv() == reference_csv(region)
            assert bounds_module._theta_text.cache_info().currsize <= held
        assert bounds_module._theta_text.cache_info().hits == 0


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
    """``RegionA2.locate`` labels each query by ``omega_verdict``'s
    certificate and projects it onto the true curve gamma for its distance.
    The sampled polygon it replaced mislabelled 44-91 of these 400 points at
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
        # the halving proves the side down to about 1e-12 from gamma
        codes, dist = region.locate(np.concatenate([g + 1e-9 * left, g - 1e-9 * left]))
        assert [LABELS[c] for c in codes] == ["outside"] * 200 + ["inside"] * 200
        assert np.max(np.abs(dist - 1e-9)) < 1e-12
        # on gamma the certificate stops at its rounding floor
        codes, dist = region.locate(g[:20])
        assert np.all(codes == BOUNDARY) and np.max(dist) < 1e-14
        assert region.contains(g[0] + 1e-5 * left[0]) == "outside"
        assert region.contains(g[0] - 1e-9 * left[0]) == "inside"
        assert region.contains(g[0]) == "boundary"

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

    def test_both_arms_of_a_near_cusp(self):
        # a drawn Blaschke omega at lam = 1, with |gamma'| down to 1.3e-6: the
        # nearest points on the two arms share one sample minimum, and Newton
        # from it alone settled on the far arm, 6.4e-8 farther, and read inside
        omega = Blaschke(zeros=(-0.5808761388604876 - 0.05755493637660788j,
                                0.2500003779935126 + 0.11642287076365095j), rotation=4.388896575605329)
        p = 1.1131339611596414 - 0.6445125880176767j
        codes, dist = c_omega_curve(omega, 1.0, resolution=1024).locate(p)
        dense = ring(1.0, 200_000).conj() + antiderivative(omega, ring(1.0, 200_000))
        assert LABELS[codes[0]] == "outside" and _winding(dense - p) == 0
        assert 0 <= np.min(np.abs(dense - p)) - dist[0] < 1e-10
        got = omega_verdict(1.0, p, omega)
        assert (got.verdict, got.path) == ("Outside", "zero_count")

    def test_slit_has_no_inside(self):
        # omega = 1 at lam = 1 makes gamma(t) = 2 cos t, a slit traced twice:
        # gamma - a2 winds 0 about every point off it, so each is outside
        region = c_omega_curve(ScaledPolynomial(raw=(1.0,), normalizer=1.0), 1.0)
        codes, dist = region.locate([0.5 + 1e-3j, 0.5 - 1e-3j, 2.5, 0.5, 1 + 0.2j])
        assert [LABELS[c] for c in codes] == ["outside", "outside", "outside", "boundary", "outside"]
        assert dist.tolist() == pytest.approx([1e-3, 1e-3, 0.5, 0.0, 0.2], abs=1e-15)
        rng = np.random.default_rng(17)
        x = rng.uniform(-2.5, 2.5, 400)
        y = rng.choice([-1, 1], 400) * 10 ** rng.uniform(-6, 0, 400)
        codes, _ = region.locate(x + 1j * y)
        assert np.all(codes == OUTSIDE)

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


def polynomial_q_inside(omega, lam, a2):
    """(inside, margin) for a polynomial omega, from the roots of the exact
    q = 1 - a2 z + lam z W, W = int_0^z omega: a2 is admissible when every
    root lies outside the closed disk; margin is min ||root| - 1|."""
    c = np.array(omega.raw) / omega.normalizer
    coeffs = np.zeros(len(c) + 2, dtype=complex)
    coeffs[0], coeffs[1] = 1.0, -a2
    coeffs[2:] = lam * c / np.arange(1, len(c) + 1)
    radii = np.abs(np.roots(np.trim_zeros(coeffs[::-1], "f")))
    return bool(np.all(radii > 1)), float(np.min(np.abs(radii - 1)))


class TestCurveShape:
    """gamma's shape comes from the univalence theorem, not from samples:
    G(zeta) = 1/f(1/zeta) has |G' - 1| < 1 on |zeta| > 1, so gamma runs
    clockwise about the admissible set and its exterior side is never empty.
    Only the interior side can be, where gamma folds onto itself at lam = 1."""

    @pytest.mark.parametrize("omega, lam", [
        (ZERO_FUN, 0.5),
        (MoebiusShift(0.9, 0.4), 0.75),
        (Blaschke(zeros=(0.3 - 0.4j, 0.5)), 0.99),
        (NEAR_OMEGAS["cubic"], 1.0),
        (Monomial(0.0, 1), 1.0),
        (MoebiusShift(0.98), 1.0),
    ], ids=repr)
    def test_winds_clockwise_about_zero(self, omega, lam):
        # a2 = 0 is always admissible: |lam z W(z)| <= lam |z|^2 < 1 in the disk
        region = c_omega_curve(omega, lam, resolution=1024)
        assert _winding(region.curve.samples[:-1]) == -1
        assert region.contains(0.0) == "inside"

    @pytest.mark.parametrize("lam", [0.5, 0.9, 0.99, 0.999, 1.0])
    def test_ellipse_labels_match_roots_of_q(self, lam):
        # omega = 1: gamma(t) = (1 + lam) cos t - i (1 - lam) sin t, an ellipse
        # that thins to the slit [-2, 2] at lam = 1; points on its major axis
        # are nearest to both arcs at once
        omega = ScaledPolynomial(raw=(1.0,), normalizer=1.0)
        region = c_omega_curve(omega, lam)
        rng = np.random.default_rng(18)
        t = rng.uniform(0, 2 * math.pi, 200)
        g, left = curve_points(omega, lam, t)
        off = 10 ** rng.uniform(-6, -1, 200)
        pts = np.concatenate([
            g + off * left, g - off * left,
            rng.uniform(-0.9, 0.9, 50) * (1 + lam),
            rng.uniform(-2.5, 2.5, 200) + 1j * rng.uniform(-1, 1, 200),
        ])
        truth = [polynomial_q_inside(omega, lam, p) for p in pts]
        keep = np.array([margin > 1e-9 for _, margin in truth])
        assert np.count_nonzero(keep) >= 600
        codes, dist = region.locate(pts[keep])
        assert np.all(dist > BOUNDARY_TOL)
        expect = [INSIDE if inside else OUTSIDE for (inside, _), k in zip(truth, keep) if k]
        assert codes.tolist() == expect
        assert (INSIDE in expect) == (lam < 1)

    @pytest.mark.parametrize("omega, lam", [
        (LINEAR_FUN, 1.0),
        (ScaledPolynomial(raw=(0.5, 0.5)), 1.0),
        (ScaledPolynomial(raw=(0.2, -0.5j, 0.3, 0.4 + 0.1j)), 1.0),
        (ScaledPolynomial(raw=(0.6, 0.0, -0.4j)), 0.8),
    ], ids=repr)
    def test_polynomial_labels_match_roots_of_q(self, omega, lam):
        region = c_omega_curve(omega, lam)
        rng = np.random.default_rng(19)
        g, left = curve_points(omega, lam, rng.uniform(0, 2 * math.pi, 150))
        off = 10 ** rng.uniform(-5, -1, 150)
        pts = np.concatenate([
            g + off * left, g - off * left,
            rng.uniform(-2.2, 2.2, 300) + 1j * rng.uniform(-2.2, 2.2, 300),
        ])
        truth = [polynomial_q_inside(omega, lam, p) for p in pts]
        keep = np.array([margin > 1e-9 for _, margin in truth])
        assert np.count_nonzero(keep) > 500
        codes, dist = region.locate(pts[keep])
        assert np.all(dist > BOUNDARY_TOL)
        expect = [INSIDE if inside else OUTSIDE for (inside, _), k in zip(truth, keep) if k]
        assert codes.tolist() == expect
        assert INSIDE in expect and OUTSIDE in expect

    @pytest.mark.parametrize("psi", [0.7, math.pi / 2, 2.5])
    def test_rotated_slit_has_no_inside(self, psi):
        # omega = e^{i psi} at lam = 1: gamma(t) = 2 e^{i psi/2} cos(t + psi/2),
        # a slit along e^{i psi/2}, so its samples tie off the real axis too
        region = c_omega_curve(ScaledPolynomial(raw=(cmath.exp(1j * psi),), normalizer=1.0), 1.0)
        rng = np.random.default_rng(20)
        x = rng.uniform(-2.5, 2.5, 300)
        y = rng.choice([-1, 1], 300) * 10 ** rng.uniform(-6, 0, 300)
        codes, dist = region.locate(cmath.exp(0.5j * psi) * (x + 1j * y))
        assert np.all(codes == OUTSIDE)
        assert np.max(np.abs(dist - np.hypot(np.maximum(np.abs(x) - 2, 0), y))) < 1e-12
        codes, dist = region.locate(cmath.exp(0.5j * psi) * np.array([-1.5, 0.0, 1.2]))
        assert np.all(codes == BOUNDARY) and np.max(dist) < 1e-12


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
        assert omega == MoebiusShift(0.4, 0.0)
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


def mp_omega(omega):
    """omega at 40 digits, as an mpmath function, for the four families."""
    if isinstance(omega, MoebiusShift):
        a, e = mpmath.mpc(omega.a), mpmath.expj(omega.psi)
        return lambda z: (a + z * e) / (1 + mpmath.conj(a) * z * e)
    if isinstance(omega, Blaschke):
        zeros, e = [mpmath.mpc(b) for b in omega.zeros], mpmath.expj(omega.rotation)
        return lambda z: e * mpmath.fprod((z - b) / (1 - mpmath.conj(b) * z) for b in zeros)
    if isinstance(omega, Monomial):
        return lambda z: mpmath.expj(omega.theta) * z**omega.k
    c = [mpmath.mpc(x) / mpmath.mpf(omega.normalizer) for x in omega.raw]
    return lambda z: mpmath.polyval(c[::-1], z)


def mp_pole(lam, a2, omega):
    """The zero of q = 1 - a2 z + lam z int_0^z omega nearest the unit
    circle, by mpmath ``findroot`` at 40 digits from the minimum of |q_N| on
    8192 circle points, with the integral by ``mpmath.quad``."""
    q = q_from_omega(a2, lam, omega).q
    z = np.exp(2j * math.pi * np.arange(8192) / 8192)
    start = complex(z[np.argmin(np.abs(np.polyval(q.coeffs[::-1], z)))])
    om = mp_omega(omega)
    with mpmath.workdps(40):
        lam, a2 = mpmath.mpf(lam), mpmath.mpc(a2)

        def exact(z):
            return 1 - a2 * z + lam * z * mpmath.quad(lambda s: om(s * z) * z, [0, 1])

        return complex(mpmath.findroot(exact, mpmath.mpc(start) * mpmath.mpf("0.9999")))


def mp_moebius_zero_count(lam, a2, a, psi=0.0):
    """Zeros of the exact q = 1 - a2 z + lam z W in the disk, for the Moebius
    shift of real a, W(z) = e^{-i psi} W_0(z e^{i psi}) with W_0(u) = u/a -
    (1 - a^2)/a^2 log(1 + a u), at 30 digits: 1 plus the winding of
    gamma - a2, with each step short enough that |gamma'| <= 1 + lam keeps
    gamma - a2 within half its modulus."""
    with mpmath.workdps(30):
        lam, a2, a, turn_by = mpmath.mpf(lam), mpmath.mpc(a2), mpmath.mpf(a), mpmath.expj(psi)

        def gamma(t):
            z = mpmath.expj(t)
            u = z * turn_by
            return 1 / z + lam * (u / a - (1 - a**2) / a**2 * mpmath.log(1 + a * u)) / turn_by - a2

        t, turn, prev, two_pi = mpmath.mpf(0), mpmath.mpf(0), gamma(0), 2 * mpmath.pi
        while t < two_pi:
            t += min(abs(prev) / (2 * (1 + lam)), two_pi - t)
            cur = gamma(t)
            turn += mpmath.arg(cur / prev)
            prev = cur
        return 1 + int(mpmath.nint(turn / two_pi))


def sampled_omega_draw(seed, draw):
    """(omega, a2) of ``verify-conjecture``'s omega draw number ``draw`` on
    ``seed``."""
    rng = np.random.default_rng(seed)
    for _ in range(draw + 1):
        sample_phi(rng)
        omega, a2 = sample_omega(rng), _random_point(rng, 1.0)
    return omega, a2


class TestOmegaVerdict:
    """``omega_verdict`` decides a2 on |z| = 1 by the proven winding of
    gamma - a2, sampled from omega's exact primitive: in the 256-point
    pass, or else by halving the arcs of that pass that fail the test."""

    def test_chord_between_samples_not_trusted(self):
        # omega = 0 makes gamma the unit circle.  a2 = R e^{-i h/2}, h = 2 pi
        # / 256, with 1 < R < 1/cos(h/2) puts the zero 1/a2 of q inside the
        # disk, but the 256-gon of q's samples, whose chords sag by h^2/8,
        # leaves 0 outside and winds 0.  The two samples beside the zero
        # have |q| ~ h/2, below h (1 + lam) / 2 only: without that term the
        # coarse pass would return Inside
        h = 2 * math.pi / 256
        a2 = (1 + 3e-5) * cmath.exp(-0.5j * h)
        q = q_from_omega(a2, 0.5, ZERO_FUN).q
        assert _winding(ring_eval(q, 1.0, 256)) == 0
        got = omega_verdict(0.5, a2, ZERO_FUN)
        assert (got.verdict, got.path, got.value) == ("Outside", "zero_count", 1)
        assert set(got.budget) == {"samples", "min_mean_abs_q", "threshold", "total_samples", "narrowest_arc"}
        assert got.budget["samples"] == 256 < got.budget["total_samples"] < 256 + 40
        assert 2 * math.pi / 256 / 1024 < got.budget["narrowest_arc"] < 2 * math.pi / 256 / 256
        assert c_omega_curve(ZERO_FUN, 0.5).locate([a2])[1][0] == pytest.approx(3e-5, rel=1e-6)

    def test_blaschke_power_is_the_monomial(self):
        # omega = z^63, as a Blaschke product with 63 zeros at 0, lies
        # wholly beyond an order-64 truncation of q, 1 - a2 z; gamma(t) =
        # e^{-it} + lam e^{64 it}/64 bulges out to 1 + lam/64 at t = 0, so
        # a2 = 1 + lam/128 is inside it although 1 - a2 z has its zero in
        # the disk.  The residue form's one term is z^64/64 exactly, so the
        # samples, the budget and the verdict are those of the monomial
        lam, omega = 0.7, Blaschke(zeros=(0,) * 63)
        a2 = 1 + lam / 128
        got = omega_verdict(lam, a2, omega)
        assert (got.verdict, got.path, got.value) == ("Inside", "zero_count", 0)
        assert got == omega_verdict(lam, a2, Monomial(k=63))

    @pytest.mark.parametrize("b", [0.95, 0.995, 0.999])
    @pytest.mark.parametrize("lam", [0.5, 0.7])
    def test_near_circle_blaschke_is_its_moebius_shift(self, b, lam):
        # (z - b)/(1 - b z) is the Moebius shift with a = -b, whose gamma is
        # exact; near the pole 1/b the 16-node quadrature of the Blaschke
        # primitive was off by up to 2.7e-4, more than these a2 lie from
        # gamma, and an order-64 q of either is far off there
        blaschke, moebius = Blaschke(zeros=(b,)), MoebiusShift(-b)
        for t in (0.0, 0.003, -0.02, 0.4, 2.5):
            g, normal = curve_points(moebius, lam, t)
            for d in (-1e-4, -3e-5, -4e-6, 4e-6, 3e-5, 1e-4):
                a2 = complex(g + d * normal)
                got, want = omega_verdict(lam, a2, blaschke), omega_verdict(lam, a2, moebius)
                assert got.verdict == want.verdict == ("Outside" if d > 0 else "Inside")

    def test_clustered_zeros_within_the_rounding_allowed(self):
        # zeros 1e-6 apart are summed about their centre, not as two residue
        # terms of about 7.5e5 each; the threshold covers the error measured
        # against 40 digits, and its rounding part a hundredfold
        lam, omega = 0.7, Blaschke(zeros=(0.5, 0.5 + 1e-6))
        z = np.exp(2j * math.pi * np.arange(16) / 16 + 0.1j)
        ref = np.array([mp_blaschke_integral(omega, p) for p in z])
        error = float(np.max(np.abs(antiderivative(omega, z) - ref)))
        assert error <= 1e-15
        got = omega_verdict(lam, 1.2, omega)
        assert got.budget["threshold"] > error
        h = 2 * math.pi / got.budget["samples"]
        rounding = got.budget["threshold"] - h * (1 + lam) / 2
        assert rounding > 100 * lam * error

    @pytest.mark.parametrize("zeros", [(0.5, 0.5 + 1e-6), (0.5, 0.5 + 1e-12), (0.5, 0.5000000000000001)])
    def test_clustered_zeros_located_on_their_side(self, zeros):
        # a2 3e-5 to either side of gamma taken at 40 digits; as two residue
        # terms the primitive was off by 2.5e-4 at 1e-12 apart and by 3 one
        # ulp apart, and locate took the wrong side
        lam, omega = 0.7, Blaschke(zeros=zeros)
        curve = c_omega_curve(omega, lam)
        for t in (0.0, 0.4, 2.5, -1.3):
            z = cmath.exp(1j * t)
            g = z.conjugate() + lam * mp_blaschke_integral(omega, z)
            tangent = 1j * (lam * z * omega.eval(z) - z.conjugate())
            for d in (-3e-5, 3e-5):
                a2 = g + d * 1j * tangent / abs(tangent)
                want = "Outside" if d > 0 else "Inside"
                assert curve.contains(a2) == want.lower()
                assert omega_verdict(lam, a2, omega).verdict == want

    def test_locate_band_covers_the_rounding(self):
        # a 15-fold zero weighs its K_n terms by up to 1e5 and more, and the
        # rounding the certificate allows grows with them: locate reads
        # BOUNDARY wherever omega_verdict stops at its floor
        lam, omega = 0.7, Blaschke(zeros=(0.9,) * 15)
        band = lam * ZERO_COUNT_ROUNDING * omega._primitive_size()
        assert band > 7e-7
        curve = c_omega_curve(omega, lam)
        g, normal = curve_points(omega, lam, 2.0)
        a2 = [g + 0.5 * band * normal, g + 2 * band * normal]
        codes, dist = curve.locate(a2)
        assert codes.tolist() == [BOUNDARY, OUTSIDE]
        assert dist.tolist() == pytest.approx([0.5 * band, 2 * band], rel=1e-6)
        assert [omega_verdict(lam, p, omega).verdict for p in a2] == ["Inconclusive", "Outside"]

    def test_between_the_arcs_of_a_cusp_inside(self):
        # Moebius a = 0.98 at lam = 1: gamma has a cusp at gamma(0) = 1 +
        # v(0.98) = 1.992, and a2 = 1.9 lies 9.5e-5 from its two arcs, too
        # close for 256 samples (or 8192); a sampled self-intersection check
        # took the cusp for a crossing and left this Inconclusive
        got = omega_verdict(1.0, 1.9, MoebiusShift(0.98))
        assert (got.verdict, got.path, got.value) == ("Inside", "zero_count", 0)
        assert got.budget["samples"] == 256 < got.budget["total_samples"] < 256 + 100
        assert 9e-5 < c_omega_curve(MoebiusShift(0.98), 1.0).locate([1.9])[1][0] < 1e-4
        assert mp_moebius_zero_count(1.0, 1.9, 0.98) == 0

    def test_on_the_curve_is_inconclusive(self):
        # a2 = gamma(t) exactly: q vanishes on the circle, and no arc next
        # to it can pass before the halving reaches the rounding floor
        got = omega_verdict(0.5, cmath.exp(-0.3j), ZERO_FUN)
        assert (got.verdict, got.path, got.value) == ("Inconclusive", "zero_count", None)
        assert got.budget["samples"] == 256 < got.budget["total_samples"] < 256 + 100
        assert got.to_json()["q_disk_zeros"] is None

    @pytest.mark.parametrize("seed,draw,lam", [(165, 6, 0.5), (23, 0, 1.0), (222, 9, 0.75)])
    def test_verify_conjecture_pole_draws_outside(self, seed, draw, lam):
        # draws that verify-conjecture kept although f has a pole in
        # 0.999 < |z| < 1, where the old count on |z| < 0.999 did not look
        omega, a2 = sampled_omega_draw(seed, draw)
        assert omega_verdict(lam, a2, omega).verdict == "Outside"
        assert 0.999 < abs(mp_pole(lam, a2, omega)) < 1

    def test_seeded_agreement_with_locate(self):
        # verify-conjecture's omega draws, with a2 moved to 1e-4..1e-1 from a
        # random point of gamma: every a2 farther than 1e-4 from gamma gets
        # the side ``locate`` gives it, by the pass or the halving; a count
        # the halving proved also matches that of the 2^16-gon of gamma - a2
        # (its samples lie over 1e-4 from 0, each side's arc within (1 +
        # lam) pi / 2^16 < 1e-4 of an end)
        rng = np.random.default_rng(21)
        paths = Counter()
        dense = ring(1.0, 2**16)
        for k in range(120):
            lam = (0.25, 0.5, 0.75, 1.0)[k % 4]
            sample_phi(rng)
            omega = sample_omega(rng)
            g, _ = curve_points(omega, lam, rng.uniform(0, 2 * math.pi))
            a2 = complex(g) + 10 ** rng.uniform(-4, -1) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            codes, dist = c_omega_curve(omega, lam).locate([a2])
            if dist[0] <= 1e-4:
                continue
            got = omega_verdict(lam, a2, omega)
            assert got.verdict == {INSIDE: "Inside", OUTSIDE: "Outside"}[int(codes[0])]
            if "total_samples" in got.budget:
                assert got.value == _winding(dense.conj() + lam * antiderivative(omega, dense) - a2) + 1
                assert got.budget["total_samples"] < 256 + 100
            paths[got.path, got.budget["samples"], "total_samples" in got.budget] += 1
        assert set(paths) == {("zero_count", 256, False), ("zero_count", 256, True)}
        assert sum(paths.values()) > 80


# (lam, omega, a, psi, t): a2 next to gamma(t), where the 256-point pass
# leaves it unproven.  The Moebius shift is where a2 within 5e-4 of gamma
# used to be decided by the side of gamma; the near-circle Blaschke product
# (z - 0.995)/(1 - 0.995 z) is the Moebius shift a = -0.995
HALVED = {
    "moebius": (0.5, MoebiusShift(0.9826, 0.131), 0.9826, 0.131, 3.224),
    "near-circle-blaschke": (0.7, Blaschke(zeros=(0.995,)), -0.995, 0.0, 0.4),
}


class TestHalvedArcs:
    """Where the 256-point pass leaves the winding unproven, the certificate
    halves only the arcs that fail its test, each judged by its own width,
    down to the rounding floor."""

    @pytest.mark.parametrize("d", [1e-6, -1e-6, 1e-10, -1e-10])
    @pytest.mark.parametrize("case", sorted(HALVED))
    def test_near_gamma_is_proven(self, case, d):
        lam, omega, a, psi, t = HALVED[case]
        g, left = curve_points(omega, lam, t)
        a2 = complex(g + d * left)
        zeros = mp_moebius_zero_count(lam, a2, a, psi)
        assert zeros == (1 if d > 0 else 0)
        got = omega_verdict(lam, a2, omega)
        assert (got.verdict, got.path, got.value) == (("Outside" if zeros else "Inside"), "zero_count", zeros)
        # a few halved arcs, not a denser pass
        assert got.budget["samples"] == 256 < got.budget["total_samples"] < 256 + 100
        assert got.budget["narrowest_arc"] < 2 * math.pi / 256 / 4096
        assert c_omega_curve(omega, lam).contains(a2) == got.verdict.lower()

    @pytest.mark.parametrize("case", sorted(HALVED))
    def test_on_gamma_is_inconclusive(self, case):
        lam, omega, _, _, t = HALVED[case]
        g = complex(curve_points(omega, lam, t)[0])
        got = omega_verdict(lam, g, omega)
        assert (got.verdict, got.path, got.value) == ("Inconclusive", "zero_count", None)
        assert got.budget["total_samples"] < 256 + 200
        assert c_omega_curve(omega, lam).contains(g) == "boundary"

    def test_steps_stop_about_a_cusp(self):
        # Moebius a = 0.98 at lam = 1 has a cusp where z^2 omega(z) = 1: gamma
        # lingers there, and the arcs that fail multiply as they narrow.  A
        # level with more failing arcs than ZERO_COUNT_SAMPLES (8192) ends
        # Inconclusive; 1e-6 off the cusp is proven with fewer
        omega = MoebiusShift(0.98, 0.3)
        z = cmath.exp(-0.0015187723180627648j)  # z^2 omega(z) = 1 to 1.4e-17
        cusp = z.conjugate() + antiderivative(omega, z)
        near, nearer = omega_verdict(1.0, cusp + 1e-6j, omega), omega_verdict(1.0, cusp + 1e-8j, omega)
        assert near.verdict == "Outside" and abs(mp_pole(1.0, cusp + 1e-6j, omega)) < 1
        assert nearer.verdict == "Inconclusive" and nearer.budget["total_samples"] < 20 * 8192

    @pytest.mark.parametrize("psi,a2,zeros", [(0.0, -1e-5, 0), (0.3, 1e-6j, 1)], ids=["inside", "outside"])
    def test_cusp_levels_wider_than_the_coarse_pass_are_proven(self, monkeypatch, psi, a2, zeros):
        # Moebius a = 0.98 at lam = 1, a2 next to the cusp where z^2 omega(z)
        # = 1: the failing arcs of some levels outnumber the 256 samples of
        # the coarse pass (780 and 1406 here), and the halving goes on up to
        # ZERO_COUNT_SAMPLES of them
        omega = MoebiusShift(0.98, psi)
        z = cmath.exp(-0.0015187723180627648j if psi else 0j)  # z^2 omega(z) = 1
        a2 += z.conjugate() + complex(antiderivative(omega, z))
        dense = ring(1.0, 2**16)
        assert _winding(dense.conj() + antiderivative(omega, dense) - a2) + 1 == zeros
        sizes = spy_primitive(monkeypatch, omega)
        got = omega_verdict(1.0, a2, omega)
        assert (got.verdict, got.path, got.value) == (("Outside" if zeros else "Inside"), "zero_count", zeros)
        assert sizes[0] == ZERO_COUNT_COARSE < max(sizes[1:]) <= ZERO_COUNT_SAMPLES


def spy_primitive(monkeypatch, omega):
    """The list to which every later sample of omega's primitive appends its
    number of points."""
    sizes, primitive = [], type(omega)._primitive
    monkeypatch.setattr(type(omega), "_primitive",
                        lambda self, z, *rest: sizes.append(np.size(z)) or primitive(self, z, *rest))
    return sizes


def near_gamma_omegas(rng):
    """One omega of each family that the near-gamma tests draw: Moebius
    shifts with |a| < 0.4 and with |a| >= 0.4, a Blaschke product with one
    zero within 0.1 of the circle, and a cubic polynomial."""
    def point(lo, hi):
        return rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))

    return [MoebiusShift(point(0.0, 0.4), rng.uniform(0, 2 * math.pi)),
            MoebiusShift(point(0.4, 0.95), rng.uniform(0, 2 * math.pi)),
            Blaschke(zeros=(point(0.0, 0.7), point(0.9, 0.98)), rotation=rng.uniform(0, 2 * math.pi)),
            ScaledPolynomial(raw=tuple(point(0.0, 1.0) for _ in range(4)))]


class TestCoarseHalving:
    """An omega winding that the 256-point pass leaves unproven is proven by
    halving that pass's failing arcs, with no denser pass of gamma."""

    @pytest.mark.parametrize("lam", [0.3, 0.7, 1.0])
    def test_near_gamma_agrees_with_dense_winding(self, lam):
        # 72 a2 per lam, 1e-2, 1e-3 and 1e-6 to either side of gamma along
        # its normal at a random t; each verdict and zero count is that of
        # the 2^16-gon of gamma - a2, whose chords sag from gamma by less
        # than 2e-7 here (h^2 max |gamma''| / 8, h = 2 pi / 2^16).  The
        # coarse pass proves some of the a2 1e-2 and 1e-3 away, and none
        # 1e-6 away
        rng = np.random.default_rng(33)
        dense = ring(1.0, 2**16)
        halved = Counter()
        for _ in range(3):
            for omega in near_gamma_omegas(rng):
                gamma = dense.conj() + lam * antiderivative(omega, dense)
                g, normal = curve_points(omega, lam, rng.uniform(0, 2 * math.pi))
                for d in (1e-2, -1e-2, 1e-3, -1e-3, 1e-6, -1e-6):
                    a2 = complex(g + d * normal)
                    zeros = _winding(gamma - a2) + 1
                    got = omega_verdict(lam, a2, omega)
                    assert (got.verdict, got.path, got.value) == \
                        (("Outside" if zeros else "Inside"), "zero_count", zeros)
                    assert got.budget["samples"] == ZERO_COUNT_COARSE
                    halved[abs(d)] += "total_samples" in got.budget
        assert halved[1e-6] == 24 and halved[1e-3] > 20

    @pytest.mark.parametrize("omega", near_gamma_omegas(np.random.default_rng(34)),
                             ids=["moebius-small", "moebius-large", "blaschke", "poly"])
    def test_no_sample_beyond_the_coarse_pass(self, monkeypatch, omega):
        # a2 1e-6 from gamma fails the coarse pass; every later sample of
        # gamma is one halving level's, of no more points than that pass
        lam = 0.7
        g, normal = curve_points(omega, lam, 1.0)
        sizes = spy_primitive(monkeypatch, omega)
        got = omega_verdict(lam, complex(g + 1e-6 * normal), omega)
        assert got.verdict in ("Inside", "Outside") and "total_samples" in got.budget
        assert sizes[0] == ZERO_COUNT_COARSE and max(sizes) <= ZERO_COUNT_COARSE and len(sizes) > 1


def hexed(verdict):
    """A verdict with every float as its hex string, so that == is bit for bit."""
    def bits(v):
        return v.hex() if isinstance(v, float) else v
    return (verdict.verdict, verdict.path, bits(verdict.value), bits(verdict.t),
            {k: bits(v) for k, v in verdict.budget.items()})


class TestOmegaVerdicts:
    @pytest.mark.parametrize("lam", [0.25, 1.0])
    def test_rows_are_the_one_pair_verdicts(self, lam):
        # verify-conjecture's draws, and a2 1e-3 and 1e-5 from gamma, which
        # take the halving
        rng = np.random.default_rng(17)
        a2s, omegas = [], []
        for k in range(48):
            sample_phi(rng)
            omega, a2 = sample_omega(rng), _random_point(rng, 1.0)
            if k % 3:
                g, normal = curve_points(omega, lam, rng.uniform(0, 2 * math.pi))
                a2 = complex(g + (1e-3 if k % 3 == 1 else 1e-5) * rng.choice([-1, 1]) * normal)
            a2s.append(a2)
            omegas.append(omega)
        got = omega_verdicts(lam, a2s, omegas)
        want = [omega_verdict(lam, a2, omega) for a2, omega in zip(a2s, omegas)]
        assert list(map(hexed, got)) == list(map(hexed, want))
        paths = {(v.path, v.budget["samples"], "total_samples" in v.budget) for v in got}
        assert paths == {("zero_count", 256, False), ("zero_count", 256, True)}

    def test_no_pairs(self):
        assert omega_verdicts(0.5, [], []) == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.inf, 0)], ids=["nan", "inf", "inf+0j"])
    def test_non_finite_a2_rejected_by_name(self, monkeypatch, bad):
        # the winding's round() raised "cannot convert float NaN to integer",
        # and inf printed a RuntimeWarning first
        def no_sampling(*args):
            raise AssertionError("gamma was sampled")

        monkeypatch.setattr(bounds_module, "_proven_winding", no_sampling)
        omegas = [MoebiusShift(0.3), Blaschke((0.2j,)), ScaledPolynomial(raw=(0.5, 0.1))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^a2 must be finite"):
                omega_verdict(0.5, bad, MoebiusShift(0.3))
            with pytest.raises(ValueError, match="^a2 must be finite"):
                omega_verdicts(0.5, [0.1, 2.0, bad], omegas)
            with pytest.raises(ValueError, match="^a2 must be finite"):
                c_omega_curve(MoebiusShift(0.3), 0.5, resolution=64).locate([0.1j, bad])

    def test_locate_rejects_nan(self):
        region = c_omega_curve(MoebiusShift(0.3), 0.5, resolution=64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^a2 must be finite"):
                region.locate([math.nan])


@pytest.mark.parametrize("call", [
    lambda h: MoebiusShift(h),
    lambda h: Blaschke(zeros=(h,)),
    lambda h: ScaledPolynomial(raw=(h,)),
    lambda h: sharpness_construction_thm6(0.5, h),
    lambda h: omega_verdict(0.5, h, MoebiusShift(0.3)),
], ids=["moebius", "blaschke", "polynomial", "sharpness", "omega_verdict"])
def test_overflowing_modulus_is_a_value_error(call):
    # finite parts whose modulus overflows: abs() raised OverflowError
    with pytest.raises(ValueError, match="must have a finite modulus"):
        call(complex(1.7e308, 1.7e308))
