"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and asserts the same condition, so the module doubles as a human-readable
scorecard and a CI gate.
"""

import cmath
import json
import math

import numpy as np
from scipy.integrate import quad

from ulambda.bounds import (
    b_a,
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
    v_of_x,
)
from ulambda.cli import main, sample_phi
from ulambda.core import (
    GridSpec,
    count_disk_zeros,
    dilate,
    extremal_q_boundary,
    majorant_h_boundary,
    q_from_omega,
    q_from_phi,
    subordination_check,
    sup_u,
)
from ulambda.diskfun import Monomial, ScaledPolynomial
from ulambda.series import TruncatedSeries, series_eval, series_reciprocal_rows

LAMBDAS = (0.25, 0.5, 0.75, 1.0)


def _report(num, name, ok):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def _bisect(f, lo, hi, iters=80):
    for _ in range(iters):
        mid = (lo + hi) / 2
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def test_01_extremal_coefficients():
    ok = True
    for lam in LAMBDAS:
        cand = q_from_phi(lam, Monomial(theta=0.0, k=1), order=64)
        # f(z)/z = 1/q, inverted as verify-conjecture inverts its candidates
        coeffs = series_reciprocal_rows(cand.q.coeffs[None])[0]
        for n in range(2, 51):
            expect = sum(lam**k for k in range(n))
            ok &= abs(coeffs[n - 1] - expect) < 1e-11
            if lam == 1.0:
                ok &= abs(coeffs[n - 1] - n) < 1e-11
    _report(1, "extremal coefficient ladder", ok)


def test_02_proven_bound_dominates_conjecture():
    ok = True
    for lam in np.linspace(0.02, 1.0, 50):
        for n in range(2, 51):
            ok &= theorem2_bound(n, lam) >= conjecture_bound(n, lam) - 1e-12
    for n in range(2, 51):
        ok &= theorem2_bound(n, 1.0) == float(n)
    _report(2, "proven bound dominates conjectured bound", ok)


def test_03_extremal_operator_profile():
    ok = True
    grid = GridSpec()
    for lam in LAMBDAS:
        cand = q_from_phi(lam, Monomial(theta=math.pi, k=1))
        rep = sup_u(cand, grid)
        ok &= rep.verdict in ("Inside", "Inconclusive")
        # each circle's maximum, as the sweep of a one-circle grid
        for r in grid.radii:
            m = sup_u(cand, GridSpec(radii=(r,), angles=grid.angles)).sup_estimate
            ok &= abs(m - lam * r * r) < 1e-10
        ok &= abs(abs(cand.a2) - (1 + lam)) < 1e-12
    _report(3, "extremal operator profile", ok)


def test_04_coefficient_inequalities_for_sampled_selfmaps():
    ok = True
    rng = np.random.default_rng(2024)
    for _ in range(100):
        w = sample_phi(rng)
        for lam in (0.3, 0.7):
            rep = rogosinski_check(w, lam, n=30)
            ok &= rep["partial_sums_hold"] and rep["c_bounded"]
    _report(4, "partial-sum and coefficient inequalities", ok)


def test_05_boundary_obstruction():
    from ulambda.core import l_of_phi, obstruction_value

    lam = 0.5
    phi = Monomial(theta=math.pi, k=2)  # -z^2
    value = obstruction_value(lam, phi, 0.0)
    ok = abs(value - 3.0) < 1e-10
    ok &= abs(value - l_of_phi(lam, phi, 1.0)) < 1e-8
    rep = sup_u(q_from_phi(lam, phi))
    ok &= rep.verdict == "Outside" and abs(rep.argmax) >= 0.99
    _report(5, "boundary obstruction excludes candidate", ok)


def test_06_quadratic_root_criterion():
    ok = True
    for lam in np.linspace(0.02, 0.98, 50):
        thr = r_star(lam) if lam > 0.5 else 0.0
        for R in np.linspace(0.02, 0.98, 50):
            if thr and abs(R - thr) <= 1e-9:
                continue
            root = f_root_in_unit_interval(lam, R)
            ok &= (root is not None) == (f_quadratic(lam, R, 1.0) < 0)
    ok &= abs(r_star(0.75) - 1.0 / 3.0) < 1e-12
    for lam in np.linspace(0.52, 0.98, 20):
        ok &= abs(f_quadratic(lam, r_star(lam), 1.0)) < 1e-10
    _report(6, "quadratic root existence criterion", ok)


def test_07_v_and_averaged_moebius():
    ok = v_of_x(0.0) == 0.5
    oracle, _ = quad(lambda t: (t + 0.5) / (1 + 0.5 * t), 0, 1)
    ok &= abs(v_of_x(0.5) - oracle) < 1e-10
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = complex(*rng.uniform(-0.7, 0.7, 2))
        ok &= abs(b_a(a, 0.0) - a) < 1e-10
    for x in np.linspace(0.05, 0.95, 19):
        ok &= abs(b_a(x, 1.0) - v_of_x(x)) < 1e-12
    for z in (0.3, -0.8j, 0.5 + 0.5j):
        ok &= b_a(0.0, z) == z / 2
    _report(7, "boundary average of the shifted family", ok)


def test_08_contraction_zero_finder():
    lam, a2 = 0.5, 1.5625
    omega = ScaledPolynomial(raw=(0.0, 1.0), normalizer=1.0)  # omega(t) = t
    res = fixed_point_zero(a2, lam, omega, r=0.8)
    cand = q_from_omega(a2, lam, omega)
    ok = abs(series_eval(cand.q, res.z0)) < 1e-9
    oracle = _bisect(lambda x: 1 - 1.5625 * x + 0.25 * x**3, 0.0, 1.0)
    ok &= abs(res.z0 - oracle) < 1e-8
    tail = res.residuals[1:]
    ok &= all(b <= res.contraction_constant * a + 1e-15 for a, b in zip(res.residuals, tail))
    _report(8, "contraction zero finder", ok)


def test_09_sharpness_constructions():
    ok = True
    for lam, a in ((0.5, 0.5), (0.8, 0.3)):
        a2, _, rep = sharpness_g_thm5(lam, a)
        ok &= rep["g_at_1_abs"] < 1e-8
        ok &= rep["min_interior_abs_g"] > 1e-6
        ok &= abs(abs(a2) - (1 + lam * v_of_x(a))) < 1e-12
    for lam, a in ((0.5, 0.5), (0.6, 0.4 + 0.3j)):
        _, _, _, a2, _, rep = sharpness_construction_thm6(lam, a)
        ok &= rep["d_boundary_residual"] < 1e-8
        ok &= rep["min_interior_abs_d"] > 1e-6
        ok &= abs(abs(a2) - (1 + lam * rep["max_boundary_ba"])) < 1e-12
    _report(9, "sharpness constructions", ok)


def test_10_subordination_relations():
    lam = 0.5
    rng = np.random.default_rng(11)
    members = []
    for _ in range(25):
        cand = q_from_phi(lam, Monomial(theta=float(rng.uniform(0, 2 * math.pi)), k=1))
        if rng.uniform() < 0.5:
            cand = dilate(cand, float(rng.uniform(0.3, 0.95)))
        members.append(cand)
    ok = True
    h1 = majorant_h_boundary(lam)
    h2 = extremal_q_boundary(lam)
    for cand in members:
        ok &= sup_u(cand).verdict == "Inside" and count_disk_zeros(cand) == 0
        idx = np.arange(len(cand.q.coeffs))
        g1 = TruncatedSeries(cand.q.coeffs + np.where(idx == 1, cand.a2, 0))
        ok &= subordination_check(g1, h1, 1.0).verdict == "Holds"
        ok &= subordination_check(cand.q, h2, 1.0).verdict == "Holds"
    bad = TruncatedSeries.from_coeffs([1, 3 * lam], order=16)
    verdict = subordination_check(bad, h1, 1.0, test_radii=(0.3, 0.6, 0.9, 0.99))
    ok &= verdict.verdict == "Fails" and verdict.witness is not None
    _report(10, "subordination relations", ok)


def test_11_cli_determinism(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"lambda": 0.4, "n_max": 8, "samples": 20, "seed": 3}))
    out1, out2 = tmp_path / "one", tmp_path / "two"
    c1 = main(["verify-conjecture", "--config", str(cfg), "--out", str(out1)])
    c2 = main(["verify-conjecture", "--config", str(cfg), "--out", str(out2)])
    ok = c1 == 0 and c2 == 0
    files = sorted(p.name for p in out1.iterdir())
    ok &= files == sorted(p.name for p in out2.iterdir()) and len(files) > 0
    for name in files:
        ok &= (out1 / name).read_bytes() == (out2 / name).read_bytes()
    _report(11, "deterministic CLI reruns", ok)


def test_exploratory_boundary_max_vs_real_slice():
    # Not a gate: compare max_t |B_a(e^{it})| with v(|a|) and report how far
    # the boundary maximum can exceed the real-axis value.
    worst = 0.0
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = 0.9 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
        _, value = max_boundary_ba(a)
        worst = max(worst, value - v_of_x(abs(a)))
    print(f"exploratory: max_t|B_a| exceeds v(|a|) by at most {worst:.3e} over 50 samples")
    assert worst > -1e-12  # v(|a|) is attained on the real slice, never exceeded downward
