import cmath
import math

import numpy as np
import pytest

from ulambda import core
from ulambda.core import (
    PHI_BOUNDARY_ANGLES,
    PHI_INSIDE_SLACK,
    GridSpec,
    QuadraticMajorant,
    SubordinationVerdict,
    UCandidate,
    count_disk_zeros,
    dilate,
    extremal_q_boundary,
    generator_verdict,
    julia_quotient,
    l_of_phi,
    majorant_h_boundary,
    obstruction_value,
    phi_boundary_max,
    phi_verdict,
    q_from_omega,
    q_from_phi,
    subordination_check,
    sup_u,
    taylor_of_f,
    u_of_q,
)
from ulambda.cli import _random_point, sample_omega, sample_phi
from ulambda.diskfun import Blaschke, Monomial, MoebiusShift, ScaledPolynomial
from ulambda.errors import (
    BasePointNotZero,
    HypothesisViolated,
    NotBoundaryMax,
    OutOfRange,
    OutsideDisk,
)
from ulambda.geometry import BOUNDARY, BOUNDARY_TOL, INSIDE, LABELS, OUTSIDE
from ulambda.series import TruncatedSeries, ring, series_eval, series_eval_many

from test_geometry import polygon_distance, reference_contains

EPS = np.finfo(float).eps


def extremal(lam, phase=math.pi, order=64):
    """Candidate with q = (1 - e^{i(phase+pi)} z)(1 - lam e^{i(phase+pi)} z)."""
    return q_from_phi(lam, Monomial(theta=phase, k=1), order=order)


class TestUofQ:
    def test_extremal_closed_form(self):
        lam = 0.6
        q = TruncatedSeries.from_coeffs([1, -(1 + lam), lam], order=16)
        cand = UCandidate(q, lam)
        for k in range(20):
            z = 0.9 * cmath.exp(2j * math.pi * k / 20)
            assert abs(u_of_q(cand, z) - (-lam * z * z)) < 1e-13

    def test_identity_map(self):
        cand = UCandidate(TruncatedSeries.one(16), 0.5)
        assert abs(u_of_q(cand, 0.7j)) < 1e-15

    def test_linear_q(self):
        cand = UCandidate(TruncatedSeries.from_coeffs([1, -0.8], order=16), 0.5)
        assert abs(u_of_q(cand, 0.9)) < 1e-15

    def test_rejects_boundary(self):
        cand = UCandidate(TruncatedSeries.one(4), 0.5)
        with pytest.raises(OutsideDisk):
            u_of_q(cand, 1.0)


class TestSupU:
    def test_extremal_profile(self):
        lam = 0.5
        rep = sup_u(extremal(lam))
        assert rep.verdict == "Inside"
        assert abs(rep.sup_estimate - lam * 0.999**2) < 1e-12
        assert abs(rep.margin - lam * (1 - 0.999**2)) < 1e-12

    def test_identity_inside_for_all_lambda(self):
        for lam in (0.1, 0.5, 1.0):
            cand = UCandidate(TruncatedSeries.one(16), lam)
            rep = sup_u(cand)
            assert rep.verdict == "Inside" and rep.sup_estimate == 0

    def test_z_squared_phi_outside(self):
        cand = q_from_phi(0.5, Monomial(theta=math.pi, k=2))
        rep = sup_u(cand)
        assert rep.verdict == "Outside"
        # values at the outermost ring approach 1 + 4 lam = 3
        assert rep.sup_estimate > 2.9

    def test_monotone_radial_maxima(self):
        for cand in (extremal(0.7), q_from_phi(0.4, Blaschke(zeros=(0, 0.3), rotation=1.0))):
            rep = sup_u(cand)
            diffs = np.diff(rep.radial_max)
            assert np.all(diffs >= -1e-12)


class TestQFromPhi:
    def test_negative_rotation(self):
        lam = 0.3
        cand = q_from_phi(lam, Monomial(theta=math.pi, k=1))
        expect = np.zeros(65, dtype=complex)
        expect[:3] = [1, 1 + lam, lam]  # (1 + z)(1 + lam z)
        assert np.max(np.abs(cand.q.coeffs - expect)) < 1e-14

    def test_zero_phi(self):
        cand = q_from_phi(0.5, ScaledPolynomial(raw=(0.0,), normalizer=1.0))
        assert np.max(np.abs(cand.q.coeffs - TruncatedSeries.one(64).coeffs)) == 0

    def test_z_squared(self):
        cand = q_from_phi(0.5, Monomial(theta=math.pi, k=2))
        expect = np.zeros(65, dtype=complex)
        expect[0], expect[2], expect[4] = 1, 1.5, 0.5
        assert np.max(np.abs(cand.q.coeffs - expect)) < 1e-14

    def test_rejects_nonzero_base_point(self):
        with pytest.raises(BasePointNotZero):
            q_from_phi(0.5, MoebiusShift(0.5, 0.0))


class TestQFromOmega:
    def test_zero_omega(self):
        cand = q_from_omega(0.9, 0.7, ScaledPolynomial(raw=(0.0,), normalizer=1.0))
        expect = np.zeros(65, dtype=complex)
        expect[0], expect[1] = 1, -0.9
        assert np.max(np.abs(cand.q.coeffs - expect)) < 1e-15
        assert sup_u(cand).verdict == "Inside"

    def test_linear_omega_cubic_q(self):
        cand = q_from_omega(1.5625, 0.5, ScaledPolynomial(raw=(0, 1.0), normalizer=1.0))
        expect = np.zeros(65, dtype=complex)
        expect[0], expect[1], expect[3] = 1, -1.5625, 0.25
        assert np.max(np.abs(cand.q.coeffs - expect)) < 1e-15
        # bisection on the real cubic 1 - 1.5625 z + 0.25 z^3
        f = lambda x: 1 - 1.5625 * x + 0.25 * x**3
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        root = (lo + hi) / 2
        assert abs(series_eval(cand.q, root)) < 1e-12
        assert 0 < root < 1

    def test_matches_refined_sharpness_function(self):
        from ulambda.bounds import v_of_x

        lam, a = 0.5, 0.5
        a2 = 1 + lam * v_of_x(a)
        cand = q_from_omega(a2, lam, MoebiusShift(a, 0.0))
        # G(z) = 1 - z - lam z int_z^1 omega must agree with q
        from ulambda.diskfun import antiderivative

        omega = MoebiusShift(a, 0.0)
        v = v_of_x(a)
        for k in range(10):
            z = 0.8 * cmath.exp(2j * math.pi * k / 10)
            g = 1 - z - lam * z * (v - antiderivative(omega, z))
            assert abs(series_eval(cand.q, z) - g) < 1e-10


class TestTaylorOfF:
    def test_extremal_partial_geometric(self):
        lam = 0.5
        f_over_z = taylor_of_f(extremal(lam, phase=0))
        # q = (1 - z)(1 - lam z) gives a_n = sum_{k<n} lam^k
        assert abs(f_over_z.coeffs[3] - 1.875) < 1e-13

    def test_identity(self):
        cand = UCandidate(TruncatedSeries.one(16), 0.5)
        t = taylor_of_f(cand)
        assert np.max(np.abs(t.coeffs[1:])) == 0

    def test_koebe_at_lambda_one(self):
        f_over_z = taylor_of_f(extremal(1.0, phase=0))
        n = np.arange(1, 52)
        assert np.max(np.abs(f_over_z.coeffs[:51] - n)) < 1e-10

    def test_f_coefficient_and_a2(self):
        # a_2 of f is coefficient 1 of f(z)/z = 1/q, and equals -q_1
        cand = extremal(0.5)
        assert abs(taylor_of_f(cand).coeffs[1] - cand.a2) < 1e-12
        assert cand.a2 == -cand.q.coeffs[1]
        assert abs(abs(cand.a2) - 1.5) < 1e-12


class TestDilate:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            dilate(extremal(0.5), 1.0)

    def test_limit_towards_one(self):
        cand = extremal(0.5)
        near = dilate(cand, 1 - 1e-12)
        assert np.max(np.abs(near.q.coeffs - cand.q.coeffs)) < 1e-9

    def test_margin_grows(self):
        cand = extremal(0.5)
        half = dilate(cand, 0.5)
        assert sup_u(half).verdict == "Inside"
        assert sup_u(half).margin > sup_u(cand).margin

    def test_semigroup(self):
        cand = extremal(0.4)
        lhs = dilate(dilate(cand, 0.6), 0.7)
        rhs = dilate(cand, 0.42)
        assert np.max(np.abs(lhs.q.coeffs - rhs.q.coeffs)) < 1e-14

    def test_dilation_closure(self):
        cand = extremal(0.5)
        assert sup_u(cand).verdict == "Inside"
        for R in (0.3, 0.6, 0.9):
            assert sup_u(dilate(cand, R)).verdict == "Inside"


class TestLofPhi:
    def test_z_squared_boundary(self):
        for lam in (0.25, 0.5, 0.9):
            assert abs(l_of_phi(lam, Monomial(theta=math.pi, k=2), 1.0) - (1 + 4 * lam)) < 1e-12

    def test_rotation_family(self):
        lam = 0.6
        phi = Monomial(theta=1.1, k=1)
        for z in (0.3, 0.7j, -0.5 + 0.4j):
            assert abs(l_of_phi(lam, phi, z) - lam * abs(z) ** 2) < 1e-13

    def test_zero_phi(self):
        phi = ScaledPolynomial(raw=(0.0,), normalizer=1.0)
        assert l_of_phi(0.5, phi, 0.5) == 0

    def test_consistency_with_u_of_q(self):
        rng = np.random.default_rng(13)
        lam = 0.45
        for phi in (
            Monomial(theta=0.7, k=2),
            Blaschke(zeros=(0, 0.5), rotation=math.pi),
            Blaschke(zeros=(0, 0.2 + 0.3j, -0.4), rotation=1.9),
        ):
            cand = q_from_phi(lam, phi)
            for _ in range(200):
                z = 0.6 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
                assert abs(l_of_phi(lam, phi, z) - abs(u_of_q(cand, z))) < 1e-9


    PHIS = (
        Monomial(theta=0.7, k=3),
        Monomial(theta=math.pi, k=1),
        Blaschke(zeros=(0, 0.3 + 0.2j, -0.5), rotation=1.0),
        ScaledPolynomial(raw=(0, 0.5, -0.3j, 0.2)),
        ScaledPolynomial(raw=(0.0,), normalizer=1.0),
    )

    @pytest.mark.parametrize("phi", PHIS, ids=lambda phi: type(phi).__name__)
    def test_array_equals_pointwise(self, phi):
        rng = np.random.default_rng(3)
        inner = 0.99 * np.sqrt(rng.uniform(size=60)) * np.exp(2j * math.pi * rng.uniform(size=60))
        z = np.concatenate([ring((0.3, 1.0), 50).ravel(), inner]).reshape(4, 40)
        for lam in (0.25, 0.7, 1.0):
            got = l_of_phi(lam, phi, z)
            assert got.shape == z.shape and got.dtype == float
            point = np.array([l_of_phi(lam, phi, complex(w)) for w in z.ravel()]).reshape(z.shape)
            assert np.array_equal(got, point)
            one = l_of_phi(lam, phi, complex(z[1, 2]))
            assert type(one) is float and one == got[1, 2]
        assert l_of_phi(0.5, phi, np.zeros((0, 3))).shape == (0, 3)

    def test_array_outside_disk(self):
        z = np.array([0.5, 1 + 1e-9, 0.1j])
        with pytest.raises(OutsideDisk):
            l_of_phi(0.5, Monomial(theta=0.0, k=2), z)
        with pytest.raises(OutsideDisk):
            l_of_phi(0.5, Monomial(theta=0.0, k=2), 1 + 1e-9)
        # the closed disk is allowed
        assert l_of_phi(0.5, Monomial(theta=0.0, k=2), np.array([1.0, 1j])).shape == (2,)


class TestPhiBoundaryMax:
    @pytest.mark.parametrize("lam", [0.25, 0.5, 0.75, 1.0])
    def test_extremal_rotations_reach_lambda(self, lam):
        # |U| = lam |z|^2 for every rotation, so the maximum is lam itself
        for theta in np.linspace(0.0, 2 * math.pi, 13):
            _, best = phi_boundary_max(lam, Monomial(theta=float(theta), k=1))
            assert abs(best - lam) <= 6.7e-16
            assert generator_verdict(q_from_phi(lam, Monomial(theta=float(theta), k=1))).verdict == "Inside"

    def test_z_squared_peaks_at_one(self):
        # -z^2 reaches 1 + 4 lam at z = 1, the boundary obstruction point
        t, best = phi_boundary_max(0.5, Monomial(theta=math.pi, k=2))
        assert t == 0.0 and abs(best - 3.0) < 1e-12

    def test_t_is_a_ring_angle(self):
        phi = Blaschke(zeros=(0, 0.4 - 0.3j), rotation=0.8)
        t, best = phi_boundary_max(0.6, phi)
        vals = l_of_phi(0.6, phi, ring(1.0, PHI_BOUNDARY_ANGLES))
        i = int(np.argmax(vals))
        assert t == i * (2 * math.pi / PHI_BOUNDARY_ANGLES) and best == vals[i]


class TestGeneratorVerdict:
    @pytest.mark.parametrize("best,verdict", [
        (0.5, "Inside"),
        (0.5 + PHI_INSIDE_SLACK, "Inside"),
        (0.5 + 2e-12, "Inconclusive"),
        (0.5 + 1e-6, "Inconclusive"),
        (0.5 + 2e-6, "Outside"),
    ])
    def test_phi_bands(self, monkeypatch, best, verdict):
        monkeypatch.setattr(core, "phi_boundary_max", lambda lam, phi: (1.25, best))
        got = generator_verdict(extremal(0.5))
        assert (got.verdict, got.path, got.value, got.t) == (verdict, "boundary_max", best, 1.25)
        assert got.to_json() == {"path": "boundary_max", "boundary_max": best, "t": 1.25, "verdict": verdict}
        assert phi_verdict(0.5, Monomial(theta=math.pi, k=1)) == got

    def test_phi_verdict_needs_an_origin_fixing_phi(self):
        with pytest.raises(BasePointNotZero):
            phi_verdict(0.5, MoebiusShift(0.5, 0.0))

    def test_omega_by_zero_count(self):
        # the pole-carrying candidate of the CLI tests: one zero of q
        omega = MoebiusShift(a=0.5268221954758235 - 0.09810406994221266j, psi=5.611645507023389)
        cand = q_from_omega(0.3007386830957319 + 0.8294213293396829j, 0.3, omega)
        got = generator_verdict(cand)
        assert got.to_json() == {"path": "zero_count", "q_disk_zeros": 1, "verdict": "Outside"}
        got = generator_verdict(q_from_omega(0.5, 0.7, MoebiusShift(a=0.98)))
        assert got.to_json() == {"path": "zero_count", "q_disk_zeros": 0, "verdict": "Inside"}

    def test_raw_q_has_no_representation(self):
        cand = extremal(0.5)
        for raw in (UCandidate(cand.q, 0.5), dilate(cand, 0.5)):
            with pytest.raises(ValueError, match="raw q"):
                generator_verdict(raw)

    def test_seeded_agreement_with_the_sweep(self):
        # the draws of verify-conjecture on seeds 0..399, 16 phi and 16
        # omega each, against the rule they replace (the order-64 sweep of
        # U, and for omega the zero count as well)
        phi_changed = []
        for seed in range(400):
            lam = (0.25, 0.5, 0.75, 1.0)[seed % 4]
            rng = np.random.default_rng(seed)
            for _ in range(16):
                phi = sample_phi(rng)
                omega = sample_omega(rng)
                a2 = _random_point(rng, 1.0)
                cand = q_from_phi(lam, phi)
                new = generator_verdict(cand)
                if (new.verdict == "Inside") != (sup_u(cand).verdict == "Inside"):
                    phi_changed.append(seed)
                    # only a true non-member may change: the maximum principle
                    # puts sup |U| at least at the boundary maximum
                    assert new.verdict == "Outside" and new.value > lam
                cand = q_from_omega(a2, lam, omega)
                new = generator_verdict(cand)
                if new.verdict == "Inside":
                    assert sup_u(cand).verdict == "Inside"
                else:
                    assert new.value > 0
        assert phi_changed == [195]


class TestJulia:
    def test_z_squared(self):
        assert abs(julia_quotient(Monomial(theta=math.pi, k=2), 0.0) - 2) < 1e-12

    def test_rotation(self):
        assert abs(julia_quotient(Monomial(theta=0.4, k=1), 1.3) - 1) < 1e-12

    def test_blaschke(self):
        m = julia_quotient(Blaschke(zeros=(0, 0.5), rotation=math.pi), 0.0)
        assert abs(m - 4) < 1e-12

    def test_rejects_interior_max(self):
        with pytest.raises(NotBoundaryMax):
            julia_quotient(ScaledPolynomial(raw=(0, 0.3), normalizer=1.0), 0.0)


class TestObstruction:
    def test_z_squared(self):
        assert abs(obstruction_value(0.5, Monomial(theta=math.pi, k=2), 0.0) - 3.0) < 1e-12

    def test_blaschke(self):
        value = obstruction_value(0.25, Blaschke(zeros=(0, 0.5), rotation=math.pi), 0.0)
        assert abs(value - 5.5) < 1e-12

    def test_formula_limit_towards_one(self):
        # m -> 1 sends the obstruction to lambda (the degenerate edge)
        lam, m = 0.7, 1.0
        assert abs((lam + (1 + 3 * lam) * (m - 1)) - lam) < 1e-15

    def test_rejects_wrong_boundary_value(self):
        with pytest.raises(HypothesisViolated):
            obstruction_value(0.5, Monomial(theta=0.0, k=2), 0.0)


class TestSubordination:
    def test_extremal_attains(self):
        lam = 0.5
        g = TruncatedSeries.from_coeffs([1, 0, lam], order=16)
        verdict = subordination_check(g, majorant_h_boundary(lam), 1.0)
        assert verdict.verdict == "Holds"

    def test_identity_subordination(self):
        lam = 0.4
        g = TruncatedSeries.from_coeffs([1, 2 * lam, lam], order=16)
        verdict = subordination_check(g, majorant_h_boundary(lam), 1.0)
        assert verdict.verdict in ("Holds", "Inconclusive")

    def test_fails_with_witness(self):
        lam = 0.5
        g = TruncatedSeries.from_coeffs([1, 3 * lam], order=16)
        verdict = subordination_check(
            g, majorant_h_boundary(lam), 1.0, test_radii=(0.3, 0.6, 0.9, 0.99)
        )
        assert verdict.verdict == "Fails"
        assert verdict.witness is not None

    def test_wrong_center_fails_at_origin(self):
        lam = 0.5
        g = TruncatedSeries.from_coeffs([1.5, 0], order=8)
        verdict = subordination_check(g, majorant_h_boundary(lam), 1.0)
        assert verdict.verdict == "Fails" and verdict.witness == 0j

    def test_both_relations_for_rotation_family(self):
        lam = 0.5
        for phase in (0.0, 1.0, math.pi, 4.5):
            cand = q_from_phi(lam, Monomial(theta=phase, k=1))
            g1 = TruncatedSeries(cand.q.coeffs + np.where(
                np.arange(65) == 1, cand.a2, 0
            ))
            assert subordination_check(g1, majorant_h_boundary(lam), 1.0).verdict == "Holds"
            assert subordination_check(cand.q, extremal_q_boundary(lam), 1.0).verdict == "Holds"


def reference_subordination(g, h_boundary, h_at_0, test_radii=(0.3, 0.6, 0.9), angles=360):
    """The per-sample scan: one ``classify`` call per sample, in (radius,
    angle) order."""
    g0 = complex(series_eval_many(g, np.asarray(0j))[()])
    if abs(g0 - complex(h_at_0)) > 1e-9:
        return SubordinationVerdict("Fails", witness=0j)
    theta = np.linspace(0.0, 2 * math.pi, angles, endpoint=False)
    ring = np.exp(1j * theta)
    inconclusive = None
    for r in test_radii:
        pts = series_eval_many(g, r * ring)
        for z, w in zip(r * ring, pts):
            where = LABELS[int(h_boundary.classify(w))]
            if where == "outside":
                return SubordinationVerdict("Fails", witness=complex(z))
            if where == "boundary" and inconclusive is None:
                inconclusive = complex(z)
    if inconclusive is not None:
        return SubordinationVerdict("Inconclusive", witness=inconclusive)
    return SubordinationVerdict("Holds")


class TestSubordinationWitness:
    """Same verdict and witness as the per-sample scan in (radius, angle)
    order: the first outside sample, else the first on-curve one."""

    def check(self, expected, g, h, h_at_0, **kw):
        verdict = subordination_check(g, h, h_at_0, **kw)
        assert verdict == reference_subordination(g, h, h_at_0, **kw)
        assert verdict.verdict == expected
        return verdict

    def test_member_holds(self):
        lam = 0.5
        cand = dilate(extremal(lam, 2.0), 0.8)
        g1 = TruncatedSeries(cand.q.coeffs + np.where(np.arange(65) == 1, cand.a2, 0))
        self.check("Holds", g1, majorant_h_boundary(lam), 1.0)
        self.check("Holds", cand.q, extremal_q_boundary(lam), 1.0)

    def test_nonmembers_fail_at_first_outside_sample(self):
        lam = 0.5
        h1 = majorant_h_boundary(lam)
        radii = (0.3, 0.6, 0.9, 0.99)
        self.check("Fails", TruncatedSeries.from_coeffs([1, 3 * lam], order=16), h1, 1.0, test_radii=radii)
        q = extremal(lam, 1.0).q.coeffs.copy()
        q[1] -= 6.5 * cmath.exp(0.7j)
        g = TruncatedSeries(q)
        verdict = self.check("Fails", g, extremal_q_boundary(lam), 1.0)
        assert abs(verdict.witness) == 0.3

    # g(z) = h(2z) for h = (1 - z)(1 - z/2).  The roots of h(zeta) = g(z) are
    # 2z and 3 - 2z, so g maps the 0.5-circle onto the curve h(unit circle)
    # and the 0.9-circle outside h(disk)
    h_of_2z = TruncatedSeries.from_coeffs([1, -3, 2], order=4)

    def test_boundary_sample_before_outside_sample_fails(self):
        verdict = self.check("Fails", self.h_of_2z, extremal_q_boundary(0.5), 1.0, test_radii=(0.5, 0.9))
        assert verdict.witness == 0.9

    def test_boundary_samples_only_inconclusive(self):
        verdict = self.check("Inconclusive", self.h_of_2z, extremal_q_boundary(0.5), 1.0, test_radii=(0.3, 0.5))
        assert verdict.witness == 0.5


# each majorant constructor with the map it stands for
MAJORANTS = {
    "h1": (majorant_h_boundary, lambda lam, z: 1 + 2 * lam * z + lam * z**2),
    "extremal_q": (extremal_q_boundary, lambda lam, z: (1 - z) * (1 - lam * z)),
}
MAJORANT_LAMBDAS = (0.25, 0.5, 0.9, 1.0)


class TestQuadraticMajorant:
    """The disk root of h(zeta) = w decides where w lies."""

    @pytest.mark.parametrize("name", sorted(MAJORANTS))
    @pytest.mark.parametrize("lam", MAJORANT_LAMBDAS)
    def test_at_most_one_root_in_disk(self, name, lam):
        h = MAJORANTS[name][0](lam)
        rng = np.random.default_rng(21)
        w = rng.uniform(-1, 4, 400) + 1j * rng.uniform(-3, 3, 400)
        codes = h.classify(w)
        assert codes.shape == w.shape and codes.dtype == np.int8
        for wk, code in zip(w, codes):
            moduli = np.abs(np.roots([h.lam, h.b, 1 - wk]))
            assert np.count_nonzero(moduli < 1) <= 1
            if np.min(np.abs(moduli - 1)) > 1e-6:
                assert code == (INSIDE if np.min(moduli) < 1 else OUTSIDE)

    @pytest.mark.parametrize("name", sorted(MAJORANTS))
    @pytest.mark.parametrize("lam", MAJORANT_LAMBDAS)
    def test_curve_and_tolerance_band_are_boundary(self, name, lam):
        make, h_of = MAJORANTS[name]
        h = make(lam)
        z = ring(1.0, 720)
        for r in (1.0, 1 - BOUNDARY_TOL / 2, 1 + BOUNDARY_TOL / 2):
            assert np.all(h.classify(h_of(lam, r * z)) == BOUNDARY)
        assert np.all(h.classify(h_of(lam, 0.999 * z)) == INSIDE)

    @pytest.mark.parametrize("name", sorted(MAJORANTS))
    @pytest.mark.parametrize("lam", MAJORANT_LAMBDAS)
    def test_agrees_with_dense_polygon(self, name, lam):
        make, h_of = MAJORANTS[name]
        h = make(lam)
        pts = h_of(lam, ring(1.0, 4096))
        polygon = np.concatenate([pts, pts[:1]])
        rng = np.random.default_rng(8)
        # near the curve and across its bounding box
        t = rng.uniform(0, 2 * math.pi, 300)
        w = np.concatenate([
            h_of(lam, rng.uniform(0.98, 1.02, 300) * np.exp(1j * t)),
            rng.uniform(-1, 4, 200) + 1j * rng.uniform(-3, 3, 200),
        ])
        far = [wk for wk in w if polygon_distance(polygon, wk) > 1e-5]
        assert len(far) > 400
        assert [LABELS[c] for c in h.classify(np.array(far))] == [reference_contains(polygon, wk) for wk in far]

    def test_zero_d_and_non_finite(self):
        h = majorant_h_boundary(0.5)
        assert h.classify(1.0 + 0j).shape == ()
        assert h.classify(1.0) == INSIDE
        with np.errstate(invalid="ignore"):
            assert h.classify(np.nan + 0j) == OUTSIDE

    def test_resolution_ignored(self):
        # the frozen benchmark still passes resolution=
        assert majorant_h_boundary(0.5, resolution=1024) == majorant_h_boundary(0.5) == QuadraticMajorant(1.0, 0.5)
        assert extremal_q_boundary(0.5, resolution=1024) == QuadraticMajorant(-1.5, 0.5)


class TestSubordinationGrid:
    """A grid with no samples used to return a vacuous Holds."""

    bad = TruncatedSeries.from_coeffs([1, 1.5], order=16)

    @pytest.mark.parametrize("angles", [0, -3])
    def test_no_angles(self, angles):
        with pytest.raises(OutOfRange):
            subordination_check(self.bad, majorant_h_boundary(0.5), 1.0, angles=angles)

    @pytest.mark.parametrize("angles", [360.0, 12.5, True, False, "360", None])
    def test_non_integral_angles(self, angles):
        # a float used to reach np.linspace as a TypeError, and True passed
        # as a one-angle grid
        with pytest.raises(OutOfRange):
            subordination_check(self.bad, majorant_h_boundary(0.5), 1.0, angles=angles)

    @pytest.mark.parametrize("angles", [np.int64(360), np.int32(360), np.uint16(360)])
    def test_numpy_integer_angles(self, angles):
        h = majorant_h_boundary(0.5)
        assert subordination_check(self.bad, h, 1.0, angles=angles) == subordination_check(self.bad, h, 1.0, angles=360)

    def test_no_radii(self):
        with pytest.raises(OutOfRange):
            subordination_check(self.bad, majorant_h_boundary(0.5), 1.0, test_radii=())

    @pytest.mark.parametrize("radius", [0.0, 1.0, -0.5, 1.5, float("nan")])
    def test_radius_outside_open_disk(self, radius):
        with pytest.raises(OutOfRange):
            subordination_check(self.bad, majorant_h_boundary(0.5), 1.0, test_radii=(0.5, radius))


class TestRotationFamilyInvariants:
    def test_sup_and_a2(self):
        rng = np.random.default_rng(14)
        lam = 0.35
        grid = GridSpec()
        for _ in range(10):
            cand = q_from_phi(lam, Monomial(theta=float(rng.uniform(0, 2 * math.pi)), k=1))
            rep = sup_u(cand, grid)
            assert rep.sup_estimate <= lam * max(grid.radii) ** 2 + 1e-10
            assert abs(abs(cand.a2) - (1 + lam)) < 1e-12


class TestCountDiskZeros:
    def test_extremal_is_zero_free(self):
        cand = q_from_phi(0.5, Monomial(theta=math.pi, k=1))
        assert count_disk_zeros(cand) == 0

    def test_known_zero_counted(self):
        # q = 1 - 2z vanishes at z = 1/2
        cand = UCandidate(TruncatedSeries.from_coeffs([1, -2], order=8), lam=0.5)
        assert count_disk_zeros(cand) == 1

    def test_zero_outside_radius_not_counted(self):
        # q = 1 - z/2 has its zero at z = 2, outside the disk
        cand = UCandidate(TruncatedSeries.from_coeffs([1, -0.5], order=8), lam=0.5)
        assert count_disk_zeros(cand) == 0

    def test_double_zero(self):
        # q = (1 - 2z)^2
        cand = UCandidate(TruncatedSeries.from_coeffs([1, -4, 4], order=8), lam=0.5)
        assert count_disk_zeros(cand) == 2

    def test_radius_validated(self):
        cand = q_from_phi(0.5, Monomial(theta=math.pi, k=1))
        with pytest.raises(OutOfRange):
            count_disk_zeros(cand, radius=1.0)

    def test_exact_zero_sample_turns_by_nothing(self):
        # q = 1 - 2z vanishes at the first sample of the 0.5-circle; that
        # sample contributes angle 0 (no NaN), as the unwrap rule did
        cand = UCandidate(TruncatedSeries.from_coeffs([1, -2], order=4), lam=0.5)
        assert count_disk_zeros(cand, radius=0.5, samples=8) == 0
        assert reference_count_disk_zeros(cand, radius=0.5, samples=8) == 0

    @pytest.mark.parametrize("samples", [0, -1, 100.0, True])
    def test_samples_validated(self, samples):
        # 0 used to end in an IndexError and 100.0 in a TypeError
        cand = q_from_phi(0.5, Monomial(theta=math.pi, k=1))
        with pytest.raises(OutOfRange):
            count_disk_zeros(cand, samples=samples)


class TestGridSpec:
    @pytest.mark.parametrize("angles", [0, -1])
    def test_empty_sweep_rejected(self, angles):
        with pytest.raises(ValueError, match="angles must be >= 1"):
            GridSpec(angles=angles)

    @pytest.mark.parametrize("angles", [2.9, 720.0, True, "720", None, np.float64(720)])
    def test_non_integral_angles_rejected(self, angles):
        # int() used to run a 2.9 as a 2-angle sweep
        with pytest.raises(ValueError, match="angles must be an integer"):
            GridSpec(angles=angles)
        with pytest.raises(ValueError, match="angles must be an integer"):
            GridSpec.from_json({"angles": angles})

    @pytest.mark.parametrize("angles", [np.int64(720), np.int32(720), np.uint16(720)])
    def test_numpy_integer_angles(self, angles):
        grid = GridSpec(angles=angles)
        assert type(grid.angles) is int and grid == GridSpec(angles=720)


def u_series(cand):
    """Coefficients (1 - k) q_k of U = q - z q' - 1."""
    k = np.arange(len(cand.q.coeffs))
    c = (1 - k) * cand.q.coeffs
    c[0] -= 1.0
    return TruncatedSeries(c)


def sweep_bound(series, radii):
    """64 eps sum_k |c_k| r^k for each radius: how far the FFT sweep may
    drift from Horner on that circle (the candidates below reach 23 eps)."""
    k = np.arange(len(series.coeffs))
    return 64 * EPS * np.sum(np.abs(series.coeffs) * np.power.outer(np.asarray(radii), k), axis=-1)


def reference_sup_u(cand, grid=GridSpec(), tol=1e-6):
    """``sup_u`` as it was before it swept the whole grid in one call: one
    evaluation per radius, the strict ``m > best`` rule for the argmax."""
    u = u_series(cand)
    theta = np.linspace(0.0, 2 * math.pi, grid.angles, endpoint=False)
    ring = np.exp(1j * theta)
    radial = []
    best = -1.0
    best_z = 0j
    for r in grid.radii:
        vals = np.abs(series_eval_many(u, r * ring))
        i = int(np.argmax(vals))
        m = float(vals[i])
        radial.append(m)
        if m > best:
            best, best_z = m, complex(r * ring[i])
    return best, best_z, tuple(radial)


def reference_count_disk_zeros(cand, radius=0.999, samples=8192):
    """``count_disk_zeros`` as it was before its circle came from ``ring``."""
    theta = np.linspace(0.0, 2 * math.pi, samples, endpoint=False)
    vals = series_eval_many(cand.q, radius * np.exp(1j * theta))
    phases = np.unwrap(np.angle(np.append(vals, vals[:1])))
    return round(float(phases[-1] - phases[0]) / (2 * math.pi))


class TestOneCallSweeps:
    """The FFT sweeps agree with the per-radius Horner loops they replaced:
    values within ``sweep_bound``, the same verdicts and zero counts, and an
    argmax on the grid whose Horner value is maximal within that bound."""

    def check(self, cand, grid=GridSpec()):
        rep = sup_u(cand, grid)
        best, _, radial = reference_sup_u(cand, grid)
        bound = sweep_bound(u_series(cand), grid.radii)
        assert np.all(np.abs(np.array(rep.radial_max) - radial) <= bound)
        assert abs(rep.sup_estimate - best) <= bound.max()
        if best > cand.lam + 1e-6:
            verdict = "Outside"
        elif best < cand.lam - 1e-6:
            verdict = "Inside"
        else:
            verdict = "Inconclusive"
        assert rep.verdict == verdict
        assert rep.margin == cand.lam - rep.sup_estimate
        # the argmax is a point of the grid, bit for bit
        z = ring(grid.radii, grid.angles).ravel()
        hit = np.flatnonzero(z == rep.argmax)
        assert hit.size == 1
        horner = abs(series_eval_many(u_series(cand), z[hit[0]]))
        assert best - horner <= bound.max()
        assert count_disk_zeros(cand) == reference_count_disk_zeros(cand)

    def test_sampled_candidates_default_grid(self):
        rng = np.random.default_rng(2024)
        for k in range(100):
            lam = (0.25, 0.5, 0.75, 1.0)[k % 4]
            self.check(q_from_phi(lam, sample_phi(rng)))
            a2 = complex(*rng.uniform(-1, 1, 2))
            self.check(q_from_omega(a2, lam, sample_omega(rng)))

    def test_ties_pick_the_first_sample(self):
        # constant |U| on every circle: the first sample of the first circle
        cand = UCandidate(TruncatedSeries.one(8), 0.5)
        rep = sup_u(cand)
        assert rep.argmax == 0.1 and rep.radial_max == (0.0,) * 11
        self.check(cand)
        # |U| = lam |z|^2 is constant on each circle up to rounding
        self.check(extremal(0.5, 0.0))

    def test_subordination_workload_grid(self):
        # order 256 on 2048 angles, as in the subordination benchmark
        grid = GridSpec(angles=2048)
        rng = np.random.default_rng(5)
        for k in range(6):
            lam = (0.25, 0.5, 0.75)[k % 3]
            cand = q_from_phi(lam, Monomial(theta=float(rng.uniform(0, 2 * math.pi)), k=1), order=256)
            if k % 2:
                cand = dilate(cand, float(rng.uniform(0.5, 0.99)))
            self.check(cand, grid)
            q = cand.q.coeffs.copy()
            q[1] -= complex(*rng.uniform(-0.5, 0.5, 2))
            self.check(UCandidate(TruncatedSeries(q), lam), grid)
