"""The class U(lambda): membership operator, representations, boundary
obstruction and subordination testing.

A candidate member f is carried as q(z) = z/f(z) with q(0) = 1, which keeps
all series work away from the zero of f at the origin.  The membership
quantity is q(z) - z q'(z) - 1, whose modulus must stay below lambda on the
disk.  A candidate built from one of the two representations is decided by
it (``generator_verdict``): a phi candidate by the maximum of |U| on the
unit circle (``phi_verdict``, which needs phi alone), an omega candidate by
the zeros of q (``count_disk_zeros``).  Only a raw q, such as a dilated or perturbed one,
is swept (``sup_u``) as a truncated series over a grid of circles.

The representation theorem's two majorants, 1 + 2 lam z + lam z^2 and
(1 - z)(1 - lam z), are quadratics, so subordination to them is decided by
the closed-form inverse of each (``QuadraticMajorant``), not by a sampled
boundary curve.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .diskfun import DiskFunction
from .errors import (
    BasePointNotZero,
    HypothesisViolated,
    NotBoundaryMax,
    OutOfRange,
    OutsideDisk,
)
from .geometry import BOUNDARY, BOUNDARY_TOL, INSIDE, OUTSIDE
from .series import (
    DEFAULT_ORDER,
    TruncatedSeries,
    _angle_count,
    ring,
    ring_eval,
    series_eval,
    series_integrate,
    series_mul,
    series_reciprocal,
    series_shift,
)

DEFAULT_RADII = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 0.999)
DEFAULT_ANGLES = 720
MEMBERSHIP_TOL = 1e-6
# unit-circle samples of a phi candidate's boundary maximum
PHI_BOUNDARY_ANGLES = 4096
# a phi candidate whose boundary maximum exceeds lambda by at most this is
# Inside: the extremal function and its rotations reach lambda to 6.7e-16
PHI_INSIDE_SLACK = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Concentric evaluation grid: circles of the given radii, uniformly
    sampled in angle."""

    radii: tuple = DEFAULT_RADII
    angles: int = DEFAULT_ANGLES

    def __post_init__(self):
        r = tuple(float(x) for x in self.radii)
        if not r or any(not (0 < x < 1) for x in r):
            raise ValueError("radii must lie strictly in (0, 1)")
        object.__setattr__(self, "radii", tuple(sorted(r)))
        # the rule of series.ring; a bad grid is a config error, not a range
        # error of the sweep
        try:
            object.__setattr__(self, "angles", _angle_count(self.angles))
        except OutOfRange as e:
            raise ValueError(str(e)) from None

    @staticmethod
    def from_json(obj: dict) -> "GridSpec":
        return GridSpec(
            radii=tuple(obj.get("radii", DEFAULT_RADII)),
            angles=obj.get("angles", DEFAULT_ANGLES),
        )

    def describe(self) -> dict:
        return {"radii": list(self.radii), "angles": self.angles}


@dataclass(frozen=True)
class UCandidate:
    """Candidate member of U(lambda), stored via q(z) = z/f(z), q(0) = 1.

    ``generator`` is the phi or omega of the representation that built q
    (``provenance`` says which), so ``generator_verdict`` can decide
    membership from it; None for a raw q."""

    q: TruncatedSeries
    lam: float
    provenance: str | None = None
    generator: DiskFunction | None = None

    def __post_init__(self):
        if abs(self.q.coeffs[0] - 1) > 1e-12:
            raise ValueError("q(0) must equal 1")
        if not (0 < self.lam <= 1):
            raise ValueError("lambda must lie in (0, 1]")
        # pin q0 to exactly 1
        c = self.q.coeffs.copy()
        c[0] = 1.0
        object.__setattr__(self, "q", TruncatedSeries(c))

    @property
    def a2(self) -> complex:
        """Second Taylor coefficient of f; equals -q_1."""
        return -complex(self.q.coeffs[1]) if self.q.order >= 1 else 0j


@dataclass(frozen=True)
class MembershipReport:
    sup_estimate: float
    argmax: complex
    margin: float
    verdict: str  # Inside | Outside | Inconclusive
    grid: dict
    radial_max: tuple = ()


def _u_series(cand: UCandidate) -> TruncatedSeries:
    # q - z q' - 1 has coefficients (1 - k) q_k, and constant term q_0 - 1 = 0
    k = np.arange(len(cand.q.coeffs))
    c = (1 - k) * cand.q.coeffs
    c[0] -= 1.0
    return TruncatedSeries(c)


def u_of_q(cand: UCandidate, z: complex) -> complex:
    """Membership quantity q(z) - z q'(z) - 1 at a point of the open disk."""
    z = complex(z)
    if abs(z) >= 1:
        raise OutsideDisk(f"|z| = {abs(z):.6f} >= 1")
    return series_eval(_u_series(cand), z)


def _ring_point(radii: tuple, angles: int, i: int) -> complex:
    """Element i of ``ring(radii, angles).ravel()``, bit for bit, from the
    one circle it lies on rather than the whole grid."""
    row, col = divmod(i, angles)
    return complex(ring(radii[row], angles)[col])


def sup_u(cand: UCandidate, grid: GridSpec = GridSpec()) -> MembershipReport:
    """Estimate sup |U_f| over the grid, in one evaluation on all its circles.

    The quantity is analytic, so per-radius maxima are nondecreasing in the
    radius and the outermost circle decides the estimate; the argmax is the
    first maximal sample in (radius, angle) order, a point of ``ring``.  The
    verdict is a numerical report, not a proof: Inside / Outside when the
    margin exceeds MEMBERSHIP_TOL, Inconclusive otherwise.
    """
    vals = np.abs(ring_eval(_u_series(cand), grid.radii, grid.angles))
    i = int(np.argmax(vals))
    best = float(vals.flat[i])
    margin = cand.lam - best
    if best > cand.lam + MEMBERSHIP_TOL:
        verdict = "Outside"
    elif best < cand.lam - MEMBERSHIP_TOL:
        verdict = "Inside"
    else:
        verdict = "Inconclusive"
    return MembershipReport(
        sup_estimate=best,
        argmax=_ring_point(grid.radii, grid.angles, i),
        margin=margin,
        verdict=verdict,
        grid=grid.describe(),
        radial_max=tuple(vals.max(axis=1).tolist()),
    )


def count_disk_zeros(cand: UCandidate, radius: float = 0.999, samples: int = 8192) -> int:
    """Number of zeros of q inside |z| < radius, by the argument principle.

    A zero of q is a pole of f = z/q, so a candidate whose q vanishes in the
    disk does not describe a member no matter what the operator sweep says.
    q(0) = 1, so the winding of the image of the circle about 0 counts the
    zeros enclosed (``_winding``).
    """
    if not (0 < radius < 1):
        raise OutOfRange(f"radius must lie in (0, 1), got {radius}")
    return _winding(ring_eval(cand.q, radius, samples))


def _winding(vals: np.ndarray) -> int:
    """Winding number about 0 of the closed polygon through vals: the turning
    angles arg(v_{j+1} conj(v_j)), the last back to the first, over 2 pi."""
    turns = np.angle(np.roll(vals, -1) * vals.conj())
    return round(float(np.sum(turns)) / (2 * math.pi))


def _check_fixes_origin(phi: DiskFunction) -> None:
    if abs(phi.base_point()) > 1e-9:
        raise BasePointNotZero(f"|phi(0)| = {abs(phi.base_point()):.3e}")


def q_from_phi(lam: float, phi: DiskFunction, order: int = DEFAULT_ORDER) -> UCandidate:
    """Candidate with z/f = 1 - (1+lam) phi + lam phi^2, phi fixing 0."""
    _check_fixes_origin(phi)
    p = phi.taylor(order)
    q = np.zeros(order + 1, dtype=complex)
    q[0] = 1.0
    q -= (1 + lam) * p.coeffs
    q += lam * series_mul(p, p).coeffs
    return UCandidate(TruncatedSeries(q), lam, provenance="phi", generator=phi)


def q_from_omega(
    a2: complex, lam: float, omega: DiskFunction, order: int = DEFAULT_ORDER
) -> UCandidate:
    """Candidate with z/f = 1 - a2 z + lam z * int_0^z omega."""
    integ = series_integrate(omega.taylor(order))
    q = series_shift(integ).coeffs * lam
    q[0] += 1.0
    if order >= 1:
        q[1] -= complex(a2)
    return UCandidate(TruncatedSeries(q), lam, provenance="omega", generator=omega)


def taylor_of_f(cand: UCandidate) -> TruncatedSeries:
    """Series of f(z)/z = 1/q(z); coefficient k is the Taylor coefficient
    a_{k+1} of f."""
    return series_reciprocal(cand.q)


def dilate(cand: UCandidate, R: float) -> UCandidate:
    """Candidate for f_R(z) = f(Rz)/R, i.e. q_R(z) = q(Rz), as a raw q (no
    generator)."""
    if not (0 < R < 1):
        raise ValueError("R must lie in (0, 1)")
    k = np.arange(len(cand.q.coeffs))
    return UCandidate(
        TruncatedSeries(cand.q.coeffs * R**k), cand.lam, provenance=cand.provenance
    )


def l_of_phi(lam: float, phi: DiskFunction, z):
    """|-(1+lam)(phi - z phi') + lam phi (phi - 2 z phi')| at z, closed disk.

    This is |U| of the phi candidate.  z is a point (the result is a float)
    or an array of any shape (the result has its shape); a point outside
    the closed disk anywhere raises OutsideDisk."""
    z = np.asarray(z, dtype=complex)
    modulus = np.abs(z)
    if np.any(modulus > 1 + 1e-12):
        raise OutsideDisk(f"|z| = {float(np.max(modulus)):.6f} > 1")
    # one flat array even for a point: numpy's scalar arithmetic rounds
    # differently from its array loops, and a point must get an array's value
    flat = z.reshape(-1)
    p = phi.eval(flat)
    zdp = flat * phi.deriv(flat)
    out = np.abs(-(1 + lam) * (p - zdp) + lam * p * (p - 2 * zdp)).reshape(z.shape)
    return out if z.ndim else float(out)


def phi_boundary_max(lam: float, phi: DiskFunction) -> tuple:
    """(t, max |U|) over ``ring(1.0, PHI_BOUNDARY_ANGLES)`` for the phi
    candidate: the largest sample of ``l_of_phi`` on the unit circle and its
    angle t, the first maximal one, spaced as ``ring`` spaces them."""
    vals = l_of_phi(lam, phi, ring(1.0, PHI_BOUNDARY_ANGLES))
    i = int(np.argmax(vals))
    return i * (2 * math.pi / PHI_BOUNDARY_ANGLES), float(vals[i])


@dataclass(frozen=True)
class GeneratorVerdict:
    """Membership of a phi or omega candidate, decided from its
    representation.  ``path`` is "boundary_max", with ``value`` the largest
    |U| sampled on the unit circle and ``t`` its angle, or "zero_count", with
    ``value`` the number of zeros of q in the disk."""

    verdict: str  # Inside | Outside | Inconclusive
    path: str
    value: float | int
    t: float | None = None

    def to_json(self) -> dict:
        if self.path == "zero_count":
            return {"path": self.path, "q_disk_zeros": self.value, "verdict": self.verdict}
        return {"path": self.path, "boundary_max": self.value, "t": self.t, "verdict": self.verdict}


def phi_verdict(lam: float, phi: DiskFunction) -> GeneratorVerdict:
    """Membership of the phi candidate, from phi alone: no q is built.

    q = (1 - phi)(1 - lam phi) has no zero in the disk, and U is analytic on
    the closed disk, so by the maximum principle its maximum on the unit
    circle decides.  Inside when ``phi_boundary_max`` is at most
    lam + PHI_INSIDE_SLACK, Outside beyond lam + MEMBERSHIP_TOL, Inconclusive
    between.  A phi that does not fix 0 raises BasePointNotZero, as in
    ``q_from_phi``.
    """
    _check_fixes_origin(phi)
    t, best = phi_boundary_max(lam, phi)
    if best <= lam + PHI_INSIDE_SLACK:
        verdict = "Inside"
    elif best > lam + MEMBERSHIP_TOL:
        verdict = "Outside"
    else:
        verdict = "Inconclusive"
    return GeneratorVerdict(verdict, "boundary_max", best, t)


def generator_verdict(cand: UCandidate) -> GeneratorVerdict:
    """Membership of a candidate built by ``q_from_phi`` or ``q_from_omega``,
    decided by its representation instead of a sweep of the truncated U.

    phi: ``phi_verdict`` on the candidate's lambda and phi.
    omega: U = -lam z^2 omega(z), so |U| < lam for every (a2, omega); the
    candidate is Outside exactly when ``count_disk_zeros`` finds a zero of
    its truncated q (a pole of f), Inside otherwise.

    A raw q (no generator, such as a ``dilate`` result) raises ValueError:
    it takes ``sup_u`` and ``count_disk_zeros``.
    """
    if cand.generator is None:
        raise ValueError("a raw q has no representation to decide by; use sup_u and count_disk_zeros")
    if cand.provenance == "omega":
        zeros = count_disk_zeros(cand)
        return GeneratorVerdict("Outside" if zeros else "Inside", "zero_count", zeros)
    return phi_verdict(cand.lam, cand.generator)


def julia_quotient(phi: DiskFunction, theta0: float) -> float:
    """Boundary quotient z0 phi'(z0)/phi(z0) at z0 = e^{i theta0}.

    The point must be a boundary maximum of |phi| (modulus 1); the quotient
    is then real and >= 1.
    """
    z0 = cmath.exp(1j * theta0)
    p = complex(phi.eval(z0))
    if abs(p) < 1 - 1e-9:
        raise NotBoundaryMax(f"|phi(z0)| = {abs(p):.9f} < 1")
    m = z0 * complex(phi.deriv(z0)) / p
    if abs(m.imag) > 1e-9:
        raise NotBoundaryMax(f"quotient not real: imag = {m.imag:.3e}")
    return m.real


def obstruction_value(lam: float, phi: DiskFunction, theta0: float) -> float:
    """lam + (1 + 3 lam)(m(theta0) - 1) at a boundary point where phi = -1.

    A value above lam certifies that the phi-represented f is not in
    U(lambda).  Cross-checked against the membership quantity at z0.
    """
    z0 = cmath.exp(1j * theta0)
    p = complex(phi.eval(z0))
    if abs(p + 1) > 1e-9:
        raise HypothesisViolated(f"phi(e^(i theta0)) = {p:.9f}, expected -1")
    m = julia_quotient(phi, theta0)
    value = lam + (1 + 3 * lam) * (m - 1)
    direct = l_of_phi(lam, phi, z0)
    if abs(value - direct) > 1e-8:
        raise HypothesisViolated(
            f"closed form {value:.12f} disagrees with direct value {direct:.12f}"
        )
    return value


@dataclass(frozen=True)
class SubordinationVerdict:
    verdict: str  # Holds | Fails | Inconclusive
    witness: complex | None = None


@dataclass(frozen=True)
class QuadraticMajorant:
    """The quadratic h(zeta) = 1 + b zeta + lam zeta^2 on the unit disk.

    h is univalent on the disk when its critical point -b/(2 lam) is real
    with modulus >= 1.  The roots of h(zeta) = w then lie mirrored through
    that point, so at most one of them is in the open disk, and w lies in
    h(disk) exactly when the root of smaller modulus does.
    """

    b: float
    lam: float

    def classify(self, w) -> np.ndarray:
        """OUTSIDE, INSIDE or BOUNDARY for each w, as int8 codes of w's shape.

        The smaller root is -2(1 - w)/(b + s), s = +-sqrt(b^2 - 4 lam (1 - w))
        with the sign that makes |b + s| the larger (Vieta's product form,
        which does not cancel).  w is on the curve h(unit circle) when that
        root's modulus is within ``BOUNDARY_TOL`` of 1.
        """
        c = 1 - np.asarray(w, dtype=complex)
        s = np.sqrt(self.b**2 - 4 * self.lam * c)
        plus, minus = self.b + s, self.b - s
        r = np.abs(-2 * c / np.where(np.abs(plus) >= np.abs(minus), plus, minus))
        codes = np.where(r < 1, INSIDE, OUTSIDE)
        return np.where(np.abs(r - 1) <= BOUNDARY_TOL, BOUNDARY, codes).astype(np.int8)


def subordination_check(
    g: TruncatedSeries,
    h_boundary: QuadraticMajorant,
    h_at_0: complex,
    test_radii=(0.3, 0.6, 0.9),
    angles: int = 360,
) -> SubordinationVerdict:
    """Numerical test of g < h for a quadratic majorant h.

    Checks g(0) = h(0) and that every sampled g(r e^{i theta}) lies in
    h(disk), decided by the disk root of h(zeta) = g (``classify``).  A
    sample whose root lies within the tolerance of the unit circle makes the
    result Inconclusive rather than a verdict either way.  The witness is the
    first outside sample in (radius, angle) order, else the first on-curve
    sample, a point of ``series.ring``, which validates ``angles``.
    """
    radii = tuple(float(r) for r in test_radii)
    if not radii or any(not (0 < r < 1) for r in radii):
        raise OutOfRange("test_radii must be non-empty and lie strictly in (0, 1)")
    vals = ring_eval(g, radii, angles).ravel()
    if abs(g[0] - complex(h_at_0)) > 1e-9:
        return SubordinationVerdict("Fails", witness=0j)
    where = h_boundary.classify(vals)
    for code, verdict in ((OUTSIDE, "Fails"), (BOUNDARY, "Inconclusive")):
        hits = np.flatnonzero(where == code)
        if hits.size:
            return SubordinationVerdict(verdict, witness=_ring_point(radii, angles, int(hits[0])))
    return SubordinationVerdict("Holds")


def majorant_h_boundary(lam: float, resolution: int = 4096) -> QuadraticMajorant:
    """The majorant h(z) = 1 + 2 lam z + lam z^2 (univalent on the disk: h'
    vanishes only at z = -1).

    ``resolution`` is ignored: containment uses the exact inverse of h, not
    boundary samples.  The parameter stays so existing callers keep working.
    """
    return QuadraticMajorant(2 * lam, lam)


def extremal_q_boundary(lam: float, resolution: int = 4096) -> QuadraticMajorant:
    """The extremal q, (1 - z)(1 - lam z) = 1 - (1 + lam) z + lam z^2, whose
    critical point (1 + lam)/(2 lam) is >= 1.

    Used for the second subordination of the representation theorem in its
    reciprocal-equivalent form q < (1 - z)(1 - lam z): since inversion is
    injective and the extremal q omits 0 on the open disk, this is the same
    range inclusion as f/z < 1/((1 - z)(1 - lam z)) with a bounded region.
    ``resolution`` is ignored, as for ``majorant_h_boundary``.
    """
    return QuadraticMajorant(-(1 + lam), lam)
