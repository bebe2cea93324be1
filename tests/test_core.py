import cmath
import math
from unittest import mock

import numpy as np
import pytest

from ulambda import core
from ulambda.core import (
    MEMBERSHIP_TOL,
    PHI_BOUNDARY_ANGLES,
    GridSpec,
    QuadraticMajorant,
    SubordinationVerdict,
    UCandidate,
    count_disk_zeros,
    dilate,
    extremal_q_boundary,
    julia_quotient,
    l_of_phi,
    majorant_h_boundary,
    obstruction_value,
    phi_verdict,
    phi_verdicts,
    q_from_omega,
    q_from_phi,
    q_rows_from_omega,
    subordination_check,
    sup_u,
)
from test_bounds import hexed
from ulambda.bounds import omega_verdict
from ulambda.cli import _random_point, sample_omega, sample_phi
from ulambda.diskfun import Blaschke, Monomial, MoebiusShift, ScaledPolynomial, antiderivative
from ulambda.errors import (
    BasePointNotZero,
    HypothesisViolated,
    NotBoundaryMax,
    OutOfRange,
    OutsideDisk,
)
from ulambda.geometry import BOUNDARY, BOUNDARY_TOL, INSIDE, LABELS, OUTSIDE
from ulambda.series import (
    TruncatedSeries,
    ring,
    ring_eval,
    series_eval,
    series_eval_many,
    series_integrate,
    series_reciprocal_rows,
)

from test_geometry import polygon_distance, reference_contains

EPS = np.finfo(float).eps


def extremal(lam, phase=math.pi, order=64):
    """Candidate with q = (1 - e^{i phase} z)(1 - lam e^{i phase} z)."""
    return q_from_phi(lam, Monomial(theta=phase, k=1), order=order)


def one(order):
    """The series of the constant 1."""
    return TruncatedSeries.from_coeffs([1], order=order)


def u_at(cand, z):
    """U = q - z q' - 1 of the candidate at one point of the disk."""
    return series_eval(core._u_series(cand), z)


def f_over_z(cand):
    """Coefficients of f(z)/z = 1/q: coefficient k is a_{k+1} of f."""
    return series_reciprocal_rows(cand.q.coeffs[None])[0]


class TestUCandidate:
    def test_q0_within_rounding_pinned_to_one(self):
        q = TruncatedSeries.from_coeffs([1 + 1e-13, -0.5], order=4)
        cand = UCandidate(q, 0.5)
        assert cand.q.coeffs[0] == 1 and cand.q.coeffs[0].imag == 0
        assert cand.q.coeffs[1:].tolist() == q.coeffs[1:].tolist()
        assert q.coeffs[0] == 1 + 1e-13

    def test_q0_off_one_rejected(self):
        with pytest.raises(ValueError, match="q\\(0\\)"):
            UCandidate(TruncatedSeries.from_coeffs([1 + 1e-11, -0.5], order=4), 0.5)

    def test_exact_q0_keeps_its_series(self):
        # q_from_phi and q_from_omega set q0 to exactly 1, so no second series
        q = TruncatedSeries.from_coeffs([1, -0.5], order=4)
        assert UCandidate(q, 0.5).q is q
        rng = np.random.default_rng(5)
        for _ in range(20):
            for cand in (q_from_phi(0.5, sample_phi(rng), order=9),
                         q_from_omega(_random_point(rng, 1.0), 0.5, sample_omega(rng), order=9)):
                assert cand.q.coeffs[0] == 1 and UCandidate(cand.q, 0.5).q is cand.q


class TestUofQ:
    def test_extremal_closed_form(self):
        lam = 0.6
        q = TruncatedSeries.from_coeffs([1, -(1 + lam), lam], order=16)
        cand = UCandidate(q, lam)
        for k in range(20):
            z = 0.9 * cmath.exp(2j * math.pi * k / 20)
            assert abs(u_at(cand, z) - (-lam * z * z)) < 1e-13

    def test_identity_map(self):
        cand = UCandidate(one(16), 0.5)
        assert abs(u_at(cand, 0.7j)) < 1e-15

    def test_linear_q(self):
        cand = UCandidate(TruncatedSeries.from_coeffs([1, -0.8], order=16), 0.5)
        assert abs(u_at(cand, 0.9)) < 1e-15


class TestSupU:
    def test_extremal_profile(self):
        lam = 0.5
        rep = sup_u(extremal(lam))
        assert rep.verdict == "Inside"
        assert abs(rep.sup_estimate - lam * 0.999**2) < 1e-12
        assert abs(rep.margin - lam * (1 - 0.999**2)) < 1e-12

    def test_identity_inside_for_all_lambda(self):
        for lam in (0.1, 0.5, 1.0):
            cand = UCandidate(one(16), lam)
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
            diffs = np.diff(reference_sup_u(cand)[2])
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
        assert np.max(np.abs(cand.q.coeffs - one(64).coeffs)) == 0

    def test_z_squared(self):
        cand = q_from_phi(0.5, Monomial(theta=math.pi, k=2))
        expect = np.zeros(65, dtype=complex)
        expect[0], expect[2], expect[4] = 1, 1.5, 0.5
        assert np.max(np.abs(cand.q.coeffs - expect)) < 1e-14

    def test_rejects_nonzero_base_point(self):
        with pytest.raises(BasePointNotZero):
            q_from_phi(0.5, MoebiusShift(0.5, 0.0))

    @pytest.mark.parametrize("phi", [MoebiusShift(1e-10), ScaledPolynomial((1e-10, 0.5))],
                             ids=["moebius", "poly"])
    def test_tiny_base_point_moving_q0(self, phi):
        # phi_verdict takes it, but q(0) is not within 1e-12 of 1; UCandidate
        # used to raise ValueError("q(0) must equal 1")
        with pytest.raises(BasePointNotZero, match=rf"\|phi\(0\)\| = {abs(phi.base_point()):.3e}"):
            q_from_phi(0.5, phi)


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

    @pytest.mark.parametrize("omega", [
        MoebiusShift(0.3 - 0.4j, 1.2),
        Blaschke(zeros=(0.2 + 0.1j, 0, -0.5j), rotation=0.7),
        Monomial(theta=2.1, k=3),
        ScaledPolynomial(raw=(0.2, 0.3 - 0.1j, 0.5j)),
    ])
    @pytest.mark.parametrize("order", [0, 1, 2, 9, 64])
    def test_integrate_then_shift_bit_for_bit(self, omega, order):
        # the construction by series_integrate and a shift by z, sign bits
        # of zeros included; a real a2 leaves a zero imaginary part in q_1
        for a2 in (0.9, -0.3 + 0.8j):
            integ = series_integrate(omega.taylor(order)).coeffs
            ref = np.concatenate(([0j], integ[:-1])) * 0.7
            ref[0] += 1.0
            if order >= 1:
                ref[1] -= complex(a2)
            got = q_from_omega(a2, 0.7, omega, order).q.coeffs
            assert got.shape == ref.shape
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("order", [0, 1, 2, 9, 64])
    def test_rows_are_the_one_row_candidates(self, order):
        # verify-conjecture's kept omega draws as rows of one array, each the
        # q of q_from_omega bit for bit
        rng = np.random.default_rng(order)
        omegas = [sample_omega(rng) for _ in range(20)]
        a2s = [_random_point(rng, 1.0) for _ in omegas]
        got = q_rows_from_omega(a2s, 0.7, omegas, order)
        assert got.shape == (20, order + 1)
        for a2, omega, row in zip(a2s, omegas, got):
            assert row.tobytes() == q_from_omega(a2, 0.7, omega, order).q.coeffs.tobytes()
        assert q_rows_from_omega([], 0.7, [], order).shape == (0, order + 1)


class TestTaylorOfF:
    def test_extremal_partial_geometric(self):
        lam = 0.5
        # q = (1 - z)(1 - lam z) gives a_n = sum_{k<n} lam^k
        assert abs(f_over_z(extremal(lam, phase=0))[3] - 1.875) < 1e-13

    def test_identity(self):
        cand = UCandidate(one(16), 0.5)
        assert np.max(np.abs(f_over_z(cand)[1:])) == 0

    def test_koebe_at_lambda_one(self):
        n = np.arange(1, 52)
        assert np.max(np.abs(f_over_z(extremal(1.0, phase=0))[:51] - n)) < 1e-10

    def test_f_coefficient_and_a2(self):
        # a_2 of f is coefficient 1 of f(z)/z = 1/q, and equals -q_1
        cand = extremal(0.5)
        assert abs(f_over_z(cand)[1] - cand.a2) < 1e-12
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
                assert abs(l_of_phi(lam, phi, z) - abs(u_at(cand, z))) < 1e-9


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


def boundary_max(lam, phi):
    """(t, max |U|) of the first largest ``l_of_phi`` sample on
    ``ring(1.0, PHI_BOUNDARY_ANGLES)``, as a Bernstein pass reads it."""
    [(t, best)] = core._row_max(l_of_phi(lam, phi, ring(1.0, PHI_BOUNDARY_ANGLES))[None])
    return t, best


class TestPhiBoundaryMax:
    @pytest.mark.parametrize("lam", [0.25, 0.5, 0.75, 1.0])
    def test_extremal_rotations_reach_lambda(self, lam):
        # |U| = lam |z|^2 for every rotation, so the maximum is lam itself
        for theta in np.linspace(0.0, 2 * math.pi, 13):
            _, best = boundary_max(lam, Monomial(theta=float(theta), k=1))
            assert abs(best - lam) <= 6.7e-16
            assert phi_verdict(lam, Monomial(theta=float(theta), k=1)).verdict == "Inside"

    def test_z_squared_peaks_at_one(self):
        # -z^2 reaches 1 + 4 lam at z = 1, the boundary obstruction point
        t, best = boundary_max(0.5, Monomial(theta=math.pi, k=2))
        assert t == 0.0 and abs(best - 3.0) < 1e-12

    def test_t_is_a_ring_angle(self):
        phi = Blaschke(zeros=(0, 0.4 - 0.3j), rotation=0.8)
        t, best = boundary_max(0.6, phi)
        vals = l_of_phi(0.6, phi, ring(1.0, PHI_BOUNDARY_ANGLES))
        i = int(np.argmax(vals))
        assert t == i * (2 * math.pi / PHI_BOUNDARY_ANGLES) and best == vals[i]


class TestGeneratorVerdict:
    @pytest.mark.parametrize("best,verdict", [
        (0.4, "Inconclusive"),
        (0.5, "Inconclusive"),
        (0.5 + 1e-6, "Inconclusive"),
        (0.5 + 2e-6, "Outside"),
    ])
    def test_phi_bands(self, monkeypatch, best, verdict):
        # a polynomial with 0 < |phi(0)| <= 1e-9 makes no normalised f, so
        # its Bernstein bound proves nothing and the largest sample bounds
        # the maximum from below only: 0.4 is Inconclusive, not Inside
        monkeypatch.setattr(core, "_row_max", lambda vals: [(1.25, best)] * len(vals))
        got = phi_verdict(0.5, ScaledPolynomial(raw=(1e-10, 0.5)))
        samples = 256 if verdict == "Outside" else 16384
        assert (got.verdict, got.path, got.value, got.t) == (verdict, "bernstein", best, 1.25)
        assert got.to_json() == {"path": "bernstein", "boundary_max": best, "t": 1.25, "samples": samples,
                                 "bernstein_factor": got.budget["bernstein_factor"],
                                 "bound": got.budget["bound"], "verdict": verdict}
        assert got.budget["bound"] > best

    def test_phi_verdict_needs_an_origin_fixing_phi(self):
        with pytest.raises(BasePointNotZero):
            phi_verdict(0.5, MoebiusShift(0.5, 0.0))

    @staticmethod
    def circle_budget(lam, a2, omega):
        """The budget of a Moebius omega's verdict proven on 256 samples of
        the exact q: the least mean of |q| over two neighbouring samples,
        held to h (1 + lam) / 2 plus rounding, and no other key."""
        z = ring(1.0, 256)
        mod = np.abs(1 - a2 * z + lam * z * antiderivative(omega, z))
        low = float(np.min(mod + np.roll(mod, -1))) / 2
        return {"samples": 256,
                "min_mean_abs_q": pytest.approx(low, abs=1e-12),
                "threshold": pytest.approx(2 * math.pi / 256 * (1 + lam) / 2, abs=1e-11)}

    def test_omega_by_zero_count(self):
        # the pole-carrying candidate of the CLI tests: one zero of q
        omega = MoebiusShift(a=0.5268221954758235 - 0.09810406994221266j, psi=5.611645507023389)
        a2 = 0.3007386830957319 + 0.8294213293396829j
        got = omega_verdict(0.3, a2, omega)
        assert got.to_json() == {"path": "zero_count", "q_disk_zeros": 1, "verdict": "Outside",
                                 **self.circle_budget(0.3, a2, omega)}
        got = omega_verdict(0.7, 0.5, MoebiusShift(a=0.98))
        assert got.to_json() == {"path": "zero_count", "q_disk_zeros": 0, "verdict": "Inside",
                                 **self.circle_budget(0.7, 0.5, MoebiusShift(a=0.98))}
        assert got.budget["min_mean_abs_q"] > got.budget["threshold"]

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
                new = phi_verdict(lam, phi)
                if (new.verdict == "Inside") != (sup_u(cand).verdict == "Inside"):
                    phi_changed.append(seed)
                    # only a true non-member may change: the maximum principle
                    # puts sup |U| at least at the boundary maximum
                    assert new.verdict == "Outside" and new.value > lam
                cand = q_from_omega(a2, lam, omega)
                new = omega_verdict(lam, a2, omega)
                if new.verdict == "Inside":
                    assert sup_u(cand).verdict == "Inside"
                else:
                    # a proven count has found a pole
                    assert (new.verdict, new.path) == ("Outside", "zero_count") and new.value > 0
        assert phi_changed == [195]


def reference_max(lam, phi):
    """The largest of 2^16 samples of ``l_of_phi`` on the unit circle,
    taken 4096 at a time."""
    return max(float(np.max(l_of_phi(lam, phi, row))) for row in ring(1.0, 2**16).reshape(16, 4096))


def roots_witness(lam, phi):
    """(value, t, m) of the obstruction's witness by one np.roots call per
    phi, as ``phi_verdict`` took it before the stacked eigenvalue calls."""
    if isinstance(phi, MoebiusShift):
        phi = Blaschke(zeros=(-phi.a * cmath.exp(-1j * phi.psi),), rotation=phi.psi)
    num, den = [cmath.exp(1j * phi.rotation)], [1.0]
    for b in phi.zeros:
        num = [x - b * y for x, y in zip(num + [0], [0] + num)]
        den = [y - b.conjugate() * x for x, y in zip(den + [0], [0] + den)]
    quotients = []
    for root in np.roots([x + y for x, y in zip(num, den)]).tolist():
        zeta = root / abs(root)
        quotients.append((sum((1 - abs(b) ** 2) / abs(zeta - b) ** 2 for b in phi.zeros), zeta))
    m, zeta = max(quotients, key=lambda pair: pair[0])
    return lam + (1 + 3 * lam) * (m - 1), cmath.phase(zeta) % (2 * math.pi), m


class TestPhiVerdict:
    def test_empty_polynomial_is_inside(self):
        # phi = 0 gives f(z) = z and U = 0; no coefficients used to raise
        # IndexError from base_point
        for lam in (0.25, 1.0):
            got = phi_verdict(lam, ScaledPolynomial(raw=()))
            assert (got.verdict, got.path, got.value) == ("Inside", "bernstein", 0.0)
            assert got == phi_verdict(lam, ScaledPolynomial(raw=(0.0,)))

    @pytest.mark.parametrize("phi", [
        ScaledPolynomial(raw=(0, 1.0)),
        ScaledPolynomial(raw=(0, 0.6 - 0.8j)),
        Blaschke(zeros=(0,), rotation=2.0),
        MoebiusShift(a=0, psi=1.0),
    ], ids=lambda phi: type(phi).__name__)
    def test_exact_rotations_are_inside(self, phi):
        # no sample bound certifies a maximum equal to lambda; the closed form
        # of e^{i theta} z does, and these are that function exactly
        for lam in (0.25, 0.5, 0.75, 1.0):
            got = phi_verdict(lam, phi)
            assert (got.verdict, got.path, got.value) == ("Inside", "closed_form", lam)
            assert abs(complex(phi.eval(cmath.exp(1j * got.t))) + 1) < 1e-15

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("lam", [0.25, 0.5, 0.75, 1.0])
    def test_monomial_closed_form(self, lam, k):
        phi = Monomial(theta=2.3, k=k)
        got = phi_verdict(lam, phi)
        best = (1 + lam) * (k - 1) + lam * (2 * k - 1)
        assert (got.verdict, got.path, got.value) == ("Inside" if k == 1 else "Outside", "closed_form", best)
        assert 0 <= got.t < 2 * math.pi / k
        z = cmath.exp(1j * got.t)
        assert abs(complex(phi.eval(z)) + 1) < 1e-12 and abs(l_of_phi(lam, phi, z) - best) < 1e-12
        # 2^16 samples reach the maximum, within Bernstein's gap for degree 2k
        sampled = reference_max(lam, phi)
        assert best * (1 - 2 * math.pi * k / 2**16) <= sampled <= best + 1e-12

    @pytest.mark.parametrize("zeros,rotation,m", [
        ((0, 0.5), math.pi, 4.0),
        ((0, 0), 0.0, 2.0),
        ((0, 0.3 + 0.2j, -0.4 + 0.1j, 0.5j), 1.0, None),
    ])
    def test_blaschke_obstruction(self, zeros, rotation, m):
        phi = Blaschke(zeros=zeros, rotation=rotation)
        for lam in (0.25, 0.5, 1.0):
            got = phi_verdict(lam, phi)
            assert (got.verdict, got.path) == ("Outside", "obstruction")
            assert got.value == pytest.approx(lam + (1 + 3 * lam) * (got.budget["m"] - 1), abs=1e-15)
            assert got.budget["m"] >= len(zeros) - 1e-12
            if m is not None:
                assert got.budget["m"] == pytest.approx(m, abs=1e-12)
            assert obstruction_value(lam, phi, got.t) == pytest.approx(got.value, abs=1e-12)
            assert got.to_json() == {"path": "obstruction", "obstruction_value": got.value, "t": got.t,
                                     "m": got.budget["m"], "verdict": "Outside"}

    @pytest.mark.parametrize("c,verdict,samples", [
        # c z with |c| below the normalizer is no rotation
        (0.9, "Inside", 256),
        # lam c^2 (1 - 2 pi/256)^-1 > lam, lam c^2 (1 - 2 pi/4096)^-1 <= lam
        (0.99, "Inside", 4096),
        # lam c^2 (1 - 2 pi/4096)^-1 > lam, lam c^2 (1 - 2 pi/16384)^-1 <= lam
        (0.9997, "Inside", 16384),
        # lam c^2 < lam < lam c^2 (1 - 2 pi/16384)^-1: the Bernstein band
        (0.9999, "Inconclusive", 16384),
    ])
    def test_bernstein_passes(self, c, verdict, samples):
        lam = 0.5
        got = phi_verdict(lam, ScaledPolynomial(raw=(0, c), normalizer=1.0))
        factor = 1 / (1 - 2 * math.pi / samples)
        assert (got.verdict, got.path, got.budget["samples"]) == (verdict, "bernstein", samples)
        assert got.value == pytest.approx(lam * c**2, abs=1e-15)
        assert got.budget["bernstein_factor"] == pytest.approx(factor, rel=1e-15)
        assert got.value * factor <= got.budget["bound"] <= got.value * factor + 1e-11
        assert got.to_json() == {"path": "bernstein", "boundary_max": got.value, "t": got.t, "samples": samples,
                                 "bernstein_factor": got.budget["bernstein_factor"],
                                 "bound": got.budget["bound"], "verdict": verdict}

    def test_rows_are_the_one_phi_verdicts(self):
        # verify-conjecture's draws, and polynomials of unequal degree whose
        # first pass decides nothing (they go on to 4096 and 16384 samples)
        # or that have no derivative at all
        rng = np.random.default_rng(8)
        phis = [sample_phi(rng) for _ in range(200)] + [
            ScaledPolynomial(raw=(0, c), normalizer=1.0) for c in (0.99, 0.9997, 0.9999)] + [
            ScaledPolynomial(raw=(0,)), ScaledPolynomial(raw=(0, 0.5) + (0,) * 40 + (1e-9,), normalizer=1.0)]
        for lam in (0.25, 1.0):
            got = phi_verdicts(lam, phis)
            want = [phi_verdict(lam, phi) for phi in phis]
            assert list(map(hexed, got)) == list(map(hexed, want))
            assert {v.budget["samples"] for v in got if v.path == "bernstein"} == {256, 4096, 16384}

    def test_blaschke_witnesses_are_those_of_np_roots(self):
        # a seeded mixed batch: Blaschke products of degree 1 (a zero within
        # 5e-10 of 0) to 6, Moebius shifts with |a| = 5e-10, monomials and
        # polynomials, shuffled, so that each degree's stacked eigenvalue
        # call holds rows from all over the batch
        rng = np.random.default_rng(29)
        phis = []
        for _ in range(12):
            tiny = 5e-10 * cmath.exp(2j * math.pi * rng.random())
            phis.append(Blaschke(zeros=(tiny * rng.random(),), rotation=2 * math.pi * rng.random()))
            for degree in range(2, 7):
                zeros = (0j,) + tuple(_random_point(rng, 0.95) for _ in range(degree - 1))
                phis.append(Blaschke(zeros=zeros, rotation=2 * math.pi * rng.random()))
            phis.append(MoebiusShift(a=tiny, psi=2 * math.pi * rng.random()))
            phis.append(Monomial(theta=2 * math.pi * rng.random(), k=int(rng.integers(1, 4))))
            phis.append(ScaledPolynomial(raw=(0j,) + tuple(_random_point(rng, 1.0) for _ in range(3))))
        phis = [phis[i] for i in rng.permutation(len(phis))]
        for lam in (0.25, 1.0):
            got = phi_verdicts(lam, phis)
            for phi, verdict in zip(phis, got):
                assert hexed(verdict) == hexed(phi_verdict(lam, phi))
                if isinstance(phi, (Blaschke, MoebiusShift)):
                    value, t, m = roots_witness(lam, phi)
                    assert verdict.path == "obstruction"
                    assert (verdict.value.hex(), verdict.t.hex(), verdict.budget["m"].hex()) == \
                        (value.hex(), t.hex(), m.hex())
            assert {v.path for v in got} == {"closed_form", "obstruction", "bernstein"}

    def test_degree_beyond_the_samples_is_never_inside(self):
        # max |U| is about lam / 4, but 2 pi d >= n on every pass, so no
        # bound exists; at degree 700 only the 16384-sample pass has one,
        # and at degree 41 only the 256-sample pass lacks one
        lam = 0.5
        raw = (0, 0.5) + (0,) * 2698 + (1e-9,)
        got = phi_verdict(lam, ScaledPolynomial(raw=raw, normalizer=1.0))
        assert (got.verdict, got.path) == ("Inconclusive", "bernstein")
        assert got.budget == {"samples": 16384, "bernstein_factor": None, "bound": None}
        assert got.value < lam / 4 + 1e-5
        for degree, samples in ((700, 16384), (41, 4096)):
            raw = (0, 0.5) + (0,) * (degree - 2) + (1e-9,)
            got = phi_verdict(lam, ScaledPolynomial(raw=raw, normalizer=1.0))
            assert (got.verdict, got.budget["samples"]) == ("Inside", samples)

    def test_fallback_is_never_inside(self):
        # phi(0) = 1e-10: the Blaschke product with the one zero -1e-10
        # e^{-0.3i}, whose every |U| on the circle is within 1e-8 of lam
        got = phi_verdict(0.5, MoebiusShift(a=1e-10, psi=0.3))
        assert (got.verdict, got.path) == ("Inconclusive", "obstruction")
        assert abs(got.value - 0.5) < 1e-9

    # 0 < |phi(0)| <= 1e-9, and the verdicts at lambda 0.3 and 1 of the
    # 4096-sample maximum that decided these before their family's rule did
    TINY_BASE_POINT = {
        "moebius-1e-10": (MoebiusShift(a=1e-10), "Inconclusive", "Inconclusive"),
        "moebius-minus-1e-10": (MoebiusShift(a=-1e-10), "Inconclusive", "Inconclusive"),
        "moebius-1e-9i": (MoebiusShift(a=1e-9j), "Inconclusive", "Inconclusive"),
        "blaschke-1": (Blaschke(zeros=(1e-10,)), "Inconclusive", "Inconclusive"),
        "blaschke-2": (Blaschke(zeros=(1e-10, 0.5)), "Outside", "Outside"),
        "blaschke-3": (Blaschke(zeros=(2e-10, 0.3 + 0.2j, -0.4)), "Outside", "Outside"),
        "poly-0.3-0.1": (ScaledPolynomial(raw=(1e-10, 0.3, 0.1)), "Outside", "Inconclusive"),
        "poly-0.9-0.1i": (ScaledPolynomial(raw=(1e-10, 0.9, 0.1j)), "Outside", "Outside"),
        # its Bernstein bound, 0.075 at lambda 0.3, would read Inside were
        # phi(0) = 0
        "poly-0.5": (ScaledPolynomial(raw=(5e-10, 0.5), normalizer=1.0), "Inconclusive", "Inconclusive"),
    }

    @pytest.mark.parametrize("name", TINY_BASE_POINT)
    @pytest.mark.parametrize("lam", [0.3, 1.0])
    def test_tiny_base_point_keeps_its_verdict(self, name, lam):
        phi, *verdicts = self.TINY_BASE_POINT[name]
        got = phi_verdict(lam, phi)
        assert got.verdict == verdicts[lam == 1.0] and got.verdict != "Inside"
        assert got.path == ("bernstein" if isinstance(phi, ScaledPolynomial) else "obstruction")

    def test_seeded_agreement_with_dense_samples(self):
        # 2000 sample_phi draws, lambda cycling through four values, against
        # the verdict of 2^16 samples (Inside within 1e-12 of lambda, as the
        # extremal rotations reach it)
        lams = (0.25, 0.5, 0.75, 1.0)
        rng = np.random.default_rng(2026)
        paths = set()
        for i in range(2000):
            lam, phi = lams[i % 4], sample_phi(rng)
            got = phi_verdict(lam, phi)
            sampled = reference_max(lam, phi)
            if sampled > lam + MEMBERSHIP_TOL:
                expect = "Outside"
            elif sampled <= lam + 1e-12:
                expect = "Inside"
            else:
                expect = "Inconclusive"
            assert got.verdict == expect
            paths.add(got.path)
            if got.path == "closed_form":
                assert sampled <= got.value + 1e-12
            elif got.path == "obstruction":
                n = len(phi.zeros)
                assert got.value >= lam + (1 + 3 * lam) * (n - 1) - 1e-12
                assert obstruction_value(lam, phi, got.t) == pytest.approx(got.value, abs=1e-12)
            else:
                # the Bernstein bound holds the dense samples too
                assert got.value <= sampled + 1e-12 and sampled <= got.budget["bound"]
        assert paths == {"closed_form", "obstruction", "bernstein"}


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

    @pytest.mark.parametrize("exponent", [-3, 0, 500, 1000])
    def test_winding_of_scaled_samples(self, exponent):
        # samples scaled by a power of two turn alike, however large: the
        # products of neighbours no longer overflow
        vals = core.ring_eval(TruncatedSeries.from_coeffs([1, -4, 4], order=8), 0.999, 256)
        assert core._winding(vals * 2.0**exponent) == core._winding(vals) == 2

    def test_huge_samples_proven_without_overflow(self):
        # g = -a2 + e^{-it}, a2 = 1e308: every sum of moduli would overflow
        z = ring(1.0, core.ZERO_COUNT_COARSE)
        [(turns, proven, budget)] = core._proven_winding(lambda n, rows: (z.conj() - 1e308)[None],
                                                         [2 + 1e308], [1.0])
        assert (turns, proven, budget["samples"]) == (0, True, core.ZERO_COUNT_COARSE)
        assert budget["min_mean_abs_q"] == 1e308

    def test_exact_zero_sample_turns_by_nothing(self):
        # q = 1 - 2z vanishes at the first sample of the 0.5-circle; that
        # sample contributes angle 0 (no NaN), as the unwrap rule did
        cand = UCandidate(TruncatedSeries.from_coeffs([1, -2], order=4), lam=0.5)
        assert core._winding(core.ring_eval(cand.q, 0.5, 8)) == 0
        assert reference_count_disk_zeros(cand, radius=0.5, samples=8) == 0

    @staticmethod
    def passes(monkeypatch) -> list:
        """The angle count of each ``ring_eval`` pass of ``count_disk_zeros``."""
        counts = []
        sweep = core.ring_eval
        monkeypatch.setattr(core, "ring_eval", lambda a, radii, angles: counts.append(angles) or sweep(a, radii, angles))
        return counts

    def test_aliased_coarse_circle_not_trusted(self, monkeypatch):
        # q = 1 + 2 z^257 has its 257 zeros on |z| = 2^(-1/257) ~ 0.99731;
        # on 256 samples z^257 aliases to z, which winds once
        q = np.zeros(258, dtype=complex)
        q[0], q[257] = 1, 2
        cand = UCandidate(TruncatedSeries(q), lam=0.5)
        assert core._winding(core.ring_eval(cand.q, 0.999, 256)) == 1
        passes = self.passes(monkeypatch)
        assert count_disk_zeros(cand) == 257
        assert passes == [256, 8192]

    @pytest.mark.parametrize("lam", [0.25, 0.5, 1.0])
    def test_zero_on_the_circle_takes_the_full_pass(self, monkeypatch, lam):
        # the extremal q = (1 - z)(1 - lam z) vanishes at z = 1
        passes = self.passes(monkeypatch)
        assert count_disk_zeros(extremal(lam, phase=0.0)) == 0
        assert passes == [256, 8192]

    @pytest.mark.parametrize("coeffs,zeros", [([1], 0), ([1, -2], 1), ([1, -4, 4], 2), ([1, -0.5], 0)])
    def test_far_zeros_proven_on_the_coarse_circle(self, monkeypatch, coeffs, zeros):
        passes = self.passes(monkeypatch)
        assert count_disk_zeros(UCandidate(TruncatedSeries.from_coeffs(coeffs, order=64), lam=0.5)) == zeros
        assert passes == [256]

    def test_verify_conjecture_omega_draws(self, monkeypatch):
        # the omega candidates of verify-conjecture, drawn as it draws them:
        # both passes occur, and every count is the reference's
        passes = self.passes(monkeypatch)
        rng = np.random.default_rng(11)
        counts = []
        for k in range(200):
            lam = (0.25, 0.5, 0.75, 1.0)[k % 4]
            sample_phi(rng)
            omega = sample_omega(rng)
            cand = q_from_omega(_random_point(rng, 1.0), lam, omega)
            counts.append(count_disk_zeros(cand))
            assert counts[-1] == reference_count_disk_zeros(cand)
        assert passes.count(256) == 200 and 0 < passes.count(8192) < 100
        assert 0 < np.count_nonzero(counts) < 200


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


def sweep_verdict(best, lam):
    """The verdict ``sup_u`` gives for the estimate best."""
    if best > lam + MEMBERSHIP_TOL:
        return "Outside"
    if best < lam - MEMBERSHIP_TOL:
        return "Inside"
    return "Inconclusive"


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
        with mock.patch.object(core, "ring_eval", wraps=core.ring_eval) as spy:
            rep = sup_u(cand, grid)
        best, _, radial = reference_sup_u(cand, grid)
        bound = sweep_bound(u_series(cand), grid.radii)
        # a circle sup_u skips cannot hold the maximum, by Horner's values
        swept = {float(r) for c in spy.call_args_list for r in np.ravel(c.args[1])}
        skipped = [i for i, r in enumerate(grid.radii) if r not in swept]
        assert np.all(np.array(radial)[skipped] + bound[skipped] < rep.sup_estimate)
        assert abs(rep.sup_estimate - best) <= bound.max()
        assert rep.verdict == sweep_verdict(best, cand.lam)
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
        cand = UCandidate(one(8), 0.5)
        rep = sup_u(cand)
        assert rep.argmax == 0.1 and rep.sup_estimate == 0
        assert reference_sup_u(cand)[2] == (0.0,) * 11
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


def full_grid_sup_u(cand, grid):
    """``sup_u`` as it was before it skipped circles: one ``ring_eval`` over
    every circle of the grid, and its first maximal sample in (radius,
    angle) order; (estimate, argmax, margin, verdict)."""
    vals = np.abs(ring_eval(u_series(cand), grid.radii, grid.angles))
    i = int(np.argmax(vals))
    best = float(vals.flat[i])
    argmax = complex(ring(grid.radii, grid.angles).flat[i])
    return best, argmax, cand.lam - best, sweep_verdict(best, cand.lam)


def hexed_report(best, argmax, margin, verdict):
    return best.hex(), argmax.real.hex(), argmax.imag.hex(), margin.hex(), verdict


def workload_extremals(rng):
    """The subordination benchmark's candidates: rotated extremals of order
    256, dilated, and perturbed in q_1."""
    for k in range(6):
        lam = float(rng.uniform(0.25, 0.9))
        cand = extremal(lam, float(rng.uniform(0, 2 * math.pi)), order=256)
        yield cand
        yield dilate(cand, float(rng.uniform(0.3, 0.95)))
        q = cand.q.coeffs.copy()
        q[1] -= cmath.rect(float(rng.uniform(6, 7)), float(rng.uniform(0, 2 * math.pi)))
        yield UCandidate(TruncatedSeries(q), lam)


class TestSupUSkipsCircles:
    """``sup_u`` samples an inner circle only when its coefficient bound can
    reach the outer maximum, and reports what the whole grid reports."""

    GRIDS = [GridSpec(), GridSpec(angles=2048), GridSpec(radii=(0.5, 0.5000000001)), GridSpec(angles=1)]

    def candidates(self):
        rng = np.random.default_rng(26)
        for order in (16, 64, 256):
            for k in range(12):
                lam = (0.25, 0.5, 0.75, 1.0)[k % 4]
                yield q_from_phi(lam, sample_phi(rng), order=order)
                a2 = complex(*rng.uniform(-1, 1, 2))
                yield q_from_omega(a2, lam, sample_omega(rng), order=order)
        yield from workload_extremals(rng)
        # U = z^2 (1 - z): on the one-angle grid, the ray t > 0, the maximum
        # lies on the circle of radius 0.7, not the outermost
        yield UCandidate(TruncatedSeries.from_coeffs([1, 0, -1, 0.5], order=8), 0.5)
        # U = 0: every sample ties at 0
        yield UCandidate(TruncatedSeries.from_coeffs([1, -0.3 + 0.2j], order=8), 0.5)
        # more coefficients than angles, folded by ring_eval
        yield q_from_phi(0.7, Blaschke(zeros=(0, 0.99j), rotation=0.4), order=4096)

    @pytest.mark.parametrize("grid", GRIDS, ids=["default", "2048-angles", "close-radii", "one-angle"])
    def test_reports_are_the_full_grid_ones(self, grid):
        for cand in self.candidates():
            rep = sup_u(cand, grid)
            got = hexed_report(rep.sup_estimate, rep.argmax, rep.margin, rep.verdict)
            assert got == hexed_report(*full_grid_sup_u(cand, grid))
            assert rep.grid == grid.describe()

    def test_inner_circle_can_hold_the_maximum(self):
        cand = UCandidate(TruncatedSeries.from_coeffs([1, 0, -1, 0.5], order=8), 0.5)
        assert sup_u(cand, GridSpec(angles=1)).argmax == 0.7

    def test_workload_samples_the_outer_circle_alone(self):
        grid = GridSpec(angles=2048)
        for cand in workload_extremals(np.random.default_rng(1)):
            with mock.patch.object(core, "ring_eval", wraps=core.ring_eval) as spy:
                sup_u(cand, grid)
            assert [np.ravel(c.args[1]).tolist() for c in spy.call_args_list] == [[0.999]]
