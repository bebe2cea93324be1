"""The class U(lambda): membership operator, representations, boundary
obstruction and subordination testing.

A candidate member f is carried as q(z) = z/f(z) with q(0) = 1, which keeps
all series work away from the zero of f at the origin.  The membership
quantity is q(z) - z q'(z) - 1, whose modulus must stay below lambda on the
disk.  A candidate built from one of the two representations is decided by
the representation its caller holds: a phi candidate by the maximum of |U|
on the unit circle (``phi_verdict``, which needs phi alone), an omega
candidate by the zeros of its q on |z| = 1 (``bounds.omega_verdict``,
beside ``RegionA2``, which answers the same question).  Only a raw q, such
as a dilated or perturbed one, is swept (``sup_u``) as a truncated series
over a grid of circles, outermost first, skipping each inner circle whose
coefficient bound cannot reach the outer maximum, and has its zeros
counted by ``count_disk_zeros``.

``phi_verdict`` decides each family by an exact rule: a monomial by the
closed form of the maximum, a Blaschke product (a Moebius shift among
them) by the paper's obstruction at the points where phi = -1 (Outside
from degree 2, with Clark's measure bounding the largest boundary quotient
from below), and a polynomial by samples that Bernstein's inequality turns
into an upper bound.

``count_disk_zeros`` and ``bounds.omega_verdicts`` share one certificate
(``_proven_winding``): a winding is proven on a 256-point circle when
neighbouring samples stay farther from 0 than the curve can move between
them (a slope bound, plus rounding).  It judges many curves at once, one
row of samples each.  An omega's curve that this pass leaves unproven has
only the arcs that fail halved; a raw q takes the full sample count
instead, alone.
``phi_verdicts`` likewise takes each Bernstein pass of many polynomial phi
in one row-wise evaluation, and the obstruction's witnesses of all its
Blaschke products of one degree from one eigenvalue call.

The representation theorem's two majorants, 1 + 2 lam z + lam z^2 and
(1 - z)(1 - lam z), are quadratics, so subordination to them is decided by
the closed-form inverse of each (``QuadraticMajorant``), not by a sampled
boundary curve.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .diskfun import Blaschke, DiskFunction, MoebiusShift, Monomial, ScaledPolynomial, _horner_rows, _list, _real
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
    series_mul,
)

DEFAULT_RADII = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 0.999)
DEFAULT_ANGLES = 720
MEMBERSHIP_TOL = 1e-6
# unit-circle samples of the second pass of a polynomial phi's Bernstein
# certificate
PHI_BOUNDARY_ANGLES = 4096
# the Bernstein certificate's last pass, for a maximum within 2 pi d / 4096
# of lam relative, where the second pass can neither prove nor refute it
_BERNSTEIN_LAST = 16384
# count_disk_zeros' circle radius, the samples of _proven_winding's coarse
# pass and of its full pass (the cap on the failing arcs of one halving
# level), and the rounding it allows per unit of size + h slope (see there)
ZERO_COUNT_RADIUS = 0.999
ZERO_COUNT_COARSE = 256
ZERO_COUNT_SAMPLES = 8192
ZERO_COUNT_ROUNDING = 1024 * float(np.finfo(float).eps)


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
        # the rule of series.ring
        object.__setattr__(self, "angles", _angle_count(self.angles))

    @staticmethod
    def from_json(obj: dict) -> "GridSpec":
        """The grid of a JSON object whose radii are a list of reals; else ValueError."""
        if not isinstance(obj, dict):
            raise ValueError(f"grid must be a JSON object, got {obj!r}")
        return GridSpec(
            radii=tuple(_real(r, "radii") for r in _list(obj.get("radii", DEFAULT_RADII), "radii")),
            angles=obj.get("angles", DEFAULT_ANGLES),
        )

    def describe(self) -> dict:
        return {"radii": list(self.radii), "angles": self.angles}


@dataclass(frozen=True)
class UCandidate:
    """Candidate member of U(lambda), stored via q(z) = z/f(z), q(0) = 1."""

    q: TruncatedSeries
    lam: float

    def __post_init__(self):
        if abs(self.q.coeffs[0] - 1) > 1e-12:
            raise ValueError("q(0) must equal 1")
        if not (0 < self.lam <= 1):
            raise ValueError("lambda must lie in (0, 1]")
        # pin q0 to exactly 1; q_from_phi and q_from_omega already set it
        if self.q.coeffs[0] != 1:
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


def _u_series(cand: UCandidate) -> TruncatedSeries:
    # q - z q' - 1 has coefficients (1 - k) q_k, and constant term q_0 - 1 = 0
    k = np.arange(len(cand.q.coeffs))
    c = (1 - k) * cand.q.coeffs
    c[0] -= 1.0
    return TruncatedSeries(c)


def _ring_point(radii: tuple, angles: int, i: int) -> complex:
    """Element i of ``ring(radii, angles).ravel()``, bit for bit, from the
    one circle it lies on rather than the whole grid."""
    row, col = divmod(i, angles)
    return complex(ring(radii[row], angles)[col])


def sup_u(cand: UCandidate, grid: GridSpec = GridSpec()) -> MembershipReport:
    """Estimate sup |U_f| over the grid: the largest ``ring_eval`` sample of
    U on its circles, and the first sample that attains it in (radius,
    angle) order, a point of ``ring``.

    The quantity is analytic, so per-radius maxima are nondecreasing in the
    radius and the outermost circle decides the estimate.  That circle is
    sampled first.  An inner circle of radius r is then sampled only if
    its coefficient bound B(r) = sum_k |u_k| r^k, plus the rounding
    allowance 4 (len(u) + angles) eps (B(r) + tiny), exceeds the outer
    maximum, or either is not finite.  A computed sample of U on that
    circle exceeds the true one by a few eps B(r) at most (``ring_eval``),
    and the computed B(r) is within len(u) eps B(r) of the exact bound;
    eps times tiny, the least normal double, is the spacing of the
    subnormals, so the allowance's absolute term covers rounding there.
    So no computed sample on a skipped circle reaches the outer maximum,
    and the estimate and argmax are those of the whole grid, bit for bit.

    The verdict is a numerical report, not a proof: Inside / Outside when
    the margin exceeds MEMBERSHIP_TOL, Inconclusive otherwise.
    """
    u = _u_series(cand)
    radii, angles = grid.radii, grid.angles
    vals = np.abs(ring_eval(u, radii[-1:], angles))
    inner = np.array(radii[:-1])
    bound = np.sum(np.abs(u.coeffs) * np.power.outer(inner, np.arange(len(u.coeffs))), axis=-1)
    finfo = np.finfo(float)
    reach = bound + 4 * (len(u.coeffs) + angles) * finfo.eps * (bound + finfo.tiny)
    # a NaN maximum skips nothing, and an infinite reach is swept
    skip = (reach <= vals.max()) & np.isfinite(reach)
    rows = np.flatnonzero(~skip).tolist()
    if rows:
        vals = np.concatenate((np.abs(ring_eval(u, inner[rows], angles)), vals))
    rows.append(len(radii) - 1)
    row, col = divmod(int(np.argmax(vals)), angles)
    best = float(vals[row, col])
    margin = cand.lam - best
    if best > cand.lam + MEMBERSHIP_TOL:
        verdict = "Outside"
    elif best < cand.lam - MEMBERSHIP_TOL:
        verdict = "Inside"
    else:
        verdict = "Inconclusive"
    return MembershipReport(
        sup_estimate=best,
        argmax=_ring_point(radii, angles, rows[row] * angles + col),
        margin=margin,
        verdict=verdict,
        grid=grid.describe(),
    )


def count_disk_zeros(cand: UCandidate) -> int:
    """Zeros of q inside |z| < r = ZERO_COUNT_RADIUS, by the argument principle.

    A zero of q is a pole of f = z/q, so a candidate whose q vanishes in the
    disk does not describe a member no matter what the operator sweep says.
    q(0) = 1, so the winding of the image of the circle about 0 counts the
    zeros enclosed.  A smaller disk's count is that of a ``dilate``d
    candidate.

    The winding is that of ``ring_eval``'s samples of q on the circle,
    proven by ``_proven_winding`` with S = sum_k |c_k| r^k and the slope
    D = sum_k k |c_k| r^k, which bounds |d/dt q(r e^{it})|.  q gives no
    ``sample_at``, so it takes the full ZERO_COUNT_SAMPLES-point pass where
    the coarse one fails, and not the halving.  When neither pass proves it
    (a zero near the circle, or a q too steep for the samples) the count is
    the full pass's winding, as without the certificate.
    """
    weights = np.abs(cand.q.coeffs) * ZERO_COUNT_RADIUS ** np.arange(len(cand.q.coeffs))
    slope = float(np.sum(np.arange(len(weights)) * weights))
    [(zeros, _, _)] = _proven_winding(lambda n, rows: ring_eval(cand.q, ZERO_COUNT_RADIUS, n)[None],
                                      [float(np.sum(weights))], [slope])
    return zeros


def _proven_winding(sample, size, slope, sample_at=None) -> list:
    """[(winding, proven, budget)] of closed curves g(t) about 0, one for
    each entry of the lists ``size`` and ``slope``, from their samples g_j
    at t_j = j h, h = 2 pi / n: ``sample(n, rows)``, an array with a row of
    n samples for each curve of the list ``rows``.  The coarse pass takes
    n = ZERO_COUNT_COARSE for every curve at once.

    A pass proves a curve's winding (``_winding``) when every arc j has

        (|g_j| + |g_{j+1}|) / 2 > h slope / 2 + eps,

    with slope >= |g'|, each g_j a value of g(t_j) in which only rounding
    errs, and eps = ZERO_COUNT_ROUNDING (size + h slope) = 1024 eps
    (size + h slope) for size a bound on the terms summed into a sample.
    That exceeds twice the rounding of a sample (a few tens of eps times
    size for ``ring_eval`` on at most 8192 points, Bornemann, FoCM 2011, or
    for an exact primitive) plus that of the test.  At t_j + s on the arc to
    t_{j+1}, g lies within slope s + e of the computed g_j and within
    slope (h - s) + e of the computed g_{j+1}, e the rounding, and
    the two radii sum to less than |g_j| + |g_{j+1}|: the arc lies in the
    disk of radius |g_j| about g_j or in that of radius |g_{j+1}| about
    g_{j+1}.  Those disks miss 0 and overlap, so their union, which holds
    the chord too, is simply connected: the arc turns about 0 by the chord's
    angle, and the angles sum to g's winding.

    Each arc may have its own h: given ``sample_at(t, i)``, curve i at the
    angles t, a curve that the coarse pass leaves unproven has only the arcs
    of that pass that fail halved (``_halve``), down to the floor h slope / 2
    <= ZERO_COUNT_ROUNDING size; no denser pass samples it.  Without
    ``sample_at`` such a curve takes n = ZERO_COUNT_SAMPLES alone.  What
    neither proves has ``proven`` False and the winding of its last pass or
    level.  ``budget`` holds the last pass's ``samples``, ``min_mean_abs_q``
    (the least mean of |g| over two neighbouring samples) and ``threshold``,
    and the halving's ``total_samples`` and ``narrowest_arc``.  Each row's
    numbers are those of its curve judged alone, bit for bit.
    """
    coarse = sample(ZERO_COUNT_COARSE, list(range(len(size))))
    out = _judge(coarse, size, slope, final=sample_at is not None)
    for i, (judged, vals) in enumerate(zip(out, coarse)):
        if judged is None:
            [out[i]] = _judge(sample(ZERO_COUNT_SAMPLES, [i]), [size[i]], [slope[i]], final=True)
        elif not judged[1]:
            out[i] = _halve(lambda t: sample_at(t, i), vals, size[i], slope[i], judged)
    return out


def _halve(sample_at, vals, size: float, slope: float, judged) -> tuple:
    # _proven_winding's halving of one curve after its coarse pass (vals,
    # judged): each level samples the failing arcs' midpoints in one call.
    # It also stops at a sample within half the floor of 0 (no arc beside it
    # can pass), or at more failing arcs than ZERO_COUNT_SAMPLES (a cusp
    # multiplies them)
    t = np.linspace(0.0, 2 * math.pi, len(vals) + 1)  # the angles of ring
    ta, tb, ga, gb = t[:-1], t[1:], vals, np.roll(vals, -1)
    turn, added, narrowest, floor = 0.0, 0, math.inf, ZERO_COUNT_ROUNDING * size
    while True:
        drift = (tb - ta) * slope
        narrowest = min(narrowest, float(np.min(tb - ta)))
        fail = ~(np.abs(ga) * 0.5 + np.abs(gb) * 0.5 > drift / 2 + ZERO_COUNT_ROUNDING * (size + drift))
        ta, tb, ga, gb, drift = ta[fail], tb[fail], ga[fail], gb[fail], drift[fail]
        if not len(ta) or len(ta) > ZERO_COUNT_SAMPLES or (drift / 2 <= floor).any() \
                or (np.minimum(np.abs(ga), np.abs(gb)) <= floor / 2).any():
            break
        tm = (ta + tb) / 2
        gm = sample_at(tm)
        turn += float(np.sum(np.angle(gm * ga.conj()) + np.angle(gb * gm.conj()) - np.angle(gb * ga.conj())))
        added += len(tm)
        ta, tb = np.concatenate((ta, tm)), np.concatenate((tm, tb))
        ga, gb = np.concatenate((ga, gm)), np.concatenate((gm, gb))
    winding, _, budget = judged
    return (winding + round(turn / (2 * math.pi)), not len(ta),
            {**budget, "total_samples": len(vals) + added, "narrowest_arc": narrowest})


def _judge(vals: np.ndarray, size, slope, final: bool) -> list:
    # one pass of _proven_winding over the rows of vals: (winding, proven,
    # budget) for each row that it proves, or for every row if final, and
    # None for the others.  A single row is judged as a 1-d array, on which
    # numpy's calls cost less than on a one-row 2-d array.
    if len(vals) == 1:
        vals = vals[0]
    n = vals.shape[-1]
    moduli = np.abs(vals)
    # halved before they are added, which is exact and cannot overflow
    half = moduli * 0.5
    pairs = np.concatenate((half[..., 1:], half[..., :1]), axis=-1)
    pairs += half
    lows = pairs.min(axis=-1)
    judged = []
    for low, s, d in zip(lows.tolist() if vals.ndim > 1 else [float(lows)], size, slope):
        drift = 2 * math.pi / n * d
        threshold = drift / 2 + ZERO_COUNT_ROUNDING * (s + drift)
        judged.append((low > threshold, {"samples": n, "min_mean_abs_q": low, "threshold": threshold}))
    keep = [i for i, (proven, _) in enumerate(judged) if proven or final]
    if vals.ndim == 1:
        return [(_winding(vals, moduli), *judged[0]) if keep else None]
    if len(keep) < len(vals):
        vals, moduli = vals[keep], moduli[keep]
    out = [None] * len(judged)
    for i, turns in zip(keep, _winding(vals, moduli) if keep else []):
        out[i] = (turns, *judged[i])
    return out


def _winding(vals: np.ndarray, moduli: np.ndarray | None = None):
    """Winding number about 0 of the closed polygon through vals, or the
    list of those through each row of a 2-d vals: the turning angles
    arg(v_{j+1} conj(v_j)), the last back to the first, over 2 pi.

    Samples whose largest modulus is 1 or more are first scaled down by the
    power of two that brings it into [1/2, 1): exact, so every angle keeps
    its value, and no product overflows however large the samples are.
    ``moduli`` is np.abs(vals), where the caller has it."""
    moduli = np.abs(vals) if moduli is None else moduli
    tops = moduli.max(axis=-1)
    if vals.ndim > 1:
        rows = vals * np.array([[2.0 ** -max(math.frexp(top)[1], 0)] for top in tops.tolist()])
    else:
        rows = vals * 2.0 ** -max(math.frexp(float(tops))[1], 0)
    # the products in place, on the copies made: two temporaries fewer
    turns = np.concatenate((rows[..., 1:], rows[..., :1]), axis=-1)
    turns *= np.conjugate(rows, out=rows)
    # np.angle's arctan2, without its checks
    turns = np.arctan2(turns.imag, turns.real).sum(axis=-1) / (2 * math.pi)
    return [round(x) for x in turns.tolist()] if vals.ndim > 1 else round(float(turns))


def _check_fixes_origin(phi: DiskFunction) -> complex:
    """phi(0); BasePointNotZero unless it is within 1e-9 of 0."""
    base = phi.base_point()
    if abs(base) > 1e-9:
        raise BasePointNotZero(f"|phi(0)| = {abs(base):.3e}")
    return base


def q_from_phi(lam: float, phi: DiskFunction, order: int = DEFAULT_ORDER) -> UCandidate:
    """Candidate with z/f = 1 - (1+lam) phi + lam phi^2, phi fixing 0;
    BasePointNotZero when phi(0) moves q(0) beyond ``UCandidate``'s 1e-12 of 1."""
    base = _check_fixes_origin(phi)
    p = phi.taylor(order)
    q = np.zeros(order + 1, dtype=complex)
    q[0] = 1.0
    q -= (1 + lam) * p.coeffs
    q += lam * series_mul(p, p).coeffs
    if abs(q[0] - 1) > 1e-12:
        raise BasePointNotZero(f"|phi(0)| = {abs(base):.3e} puts q(0) {abs(q[0] - 1):.3e} away from 1")
    return UCandidate(TruncatedSeries(q), lam)


def q_from_omega(
    a2: complex, lam: float, omega: DiskFunction, order: int = DEFAULT_ORDER
) -> UCandidate:
    """Candidate with z/f = 1 - a2 z + lam z * int_0^z omega: the one row of
    ``q_rows_from_omega``."""
    return UCandidate(TruncatedSeries(q_rows_from_omega([a2], lam, [omega], order)[0]), lam)


def q_rows_from_omega(a2s, lam: float, omegas, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Row i the coefficients q_0..q_order of z/f = 1 - a2s[i] z + lam z *
    int_0^z omegas[i].

    Coefficient k + 2 of q is (omega_k / (k + 1)) lam, divided before it is
    scaled, so that tail is bit for bit lam z times ``series_integrate`` of
    omega's series."""
    q = np.zeros((len(omegas), order + 1), dtype=complex)
    q[:, 0] = 1.0
    if order >= 1:
        q[:, 1] -= np.array(a2s, dtype=complex)
    for row, omega in zip(q, omegas):
        row[2:] = omega.taylor(order).coeffs[: order - 1]
    q[:, 2:] /= np.arange(1, order)
    q[:, 2:] *= lam
    return q


def dilate(cand: UCandidate, R: float) -> UCandidate:
    """Candidate for f_R(z) = f(Rz)/R, i.e. q_R(z) = q(Rz)."""
    if not (0 < R < 1):
        raise ValueError("R must lie in (0, 1)")
    k = np.arange(len(cand.q.coeffs))
    return UCandidate(TruncatedSeries(cand.q.coeffs * R**k), cand.lam)


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
    out = _u_modulus(lam, phi.eval(flat), flat * phi.deriv(flat)).reshape(z.shape)
    return out if z.ndim else float(out)


def _u_modulus(lam: float, p, zdp):
    # |U| of the phi candidate from phi and z phi'
    return np.abs(-(1 + lam) * (p - zdp) + lam * p * (p - 2 * zdp))


def _row_max(vals: np.ndarray) -> list:
    # (t, value) of the first largest sample of each row, whose n samples
    # lie at the angles of ring(1.0, n)
    i = np.argmax(vals, axis=1)
    t = i * (2 * math.pi / vals.shape[1])
    return list(zip(t.tolist(), vals[np.arange(len(vals)), i].tolist()))


@dataclass(frozen=True)
class GeneratorVerdict:
    """Membership of a phi or omega candidate, decided from its
    representation.  ``path`` names the rule that decided it:

    - for a phi candidate (``phi_verdict``), "closed_form", with ``value``
      the maximum of |U| on the unit circle; "obstruction", with ``value``
      the paper's obstruction at phi's largest boundary quotient, a lower
      bound of that maximum; or "bernstein", with ``value`` the largest of
      the samples of |U| that Bernstein's inequality certified.  ``t`` is
      the angle at which ``value`` is taken;
    - for an omega candidate (``bounds.omega_verdict``), "zero_count", with
      ``value`` the number of zeros of q in the disk (None when the winding
      certificate stops at its rounding floor: Inconclusive).

    ``budget`` holds the rule's other numbers: ``m`` for "obstruction";
    ``samples``, ``bernstein_factor`` and ``bound`` for "bernstein"; and for
    an omega verdict those its 256-point circle pass was judged by, with the
    halving's ``total_samples`` and ``narrowest_arc`` where that pass left
    it unproven (``_proven_winding``)."""

    verdict: str  # Inside | Outside | Inconclusive
    path: str
    value: float | int | None
    t: float | None = None
    budget: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        key = _VALUE_KEYS.get(self.path, "boundary_max")
        where = {} if self.t is None else {"t": self.t}
        return {"path": self.path, key: self.value, **where, **self.budget, "verdict": self.verdict}


# the name of GeneratorVerdict.value in to_json, by path; "boundary_max"
# for the closed_form and bernstein paths
_VALUE_KEYS = {"obstruction": "obstruction_value", "zero_count": "q_disk_zeros"}


def phi_verdict(lam: float, phi: DiskFunction) -> GeneratorVerdict:
    """Membership of the phi candidate, from phi alone: no q is built.

    q = (1 - phi)(1 - lam phi) has no zero in the disk, and U is analytic on
    the closed disk, so by the maximum principle its maximum on the unit
    circle decides: Inside when it is at most lam, Outside when it exceeds
    lam + MEMBERSHIP_TOL.  Each phi is decided by its family's exact rule:

    - a monomial e^{i theta} z^k, and every phi that is one exactly (a
      polynomial with one nonzero coefficient c_k and normalizer |c_k|, a
      Blaschke product with zeros (0,), a Moebius shift with a = 0), by the
      closed form of the maximum (``_monomial_verdict``);
    - any other Blaschke product, and any other Moebius shift (the
      Blaschke product with the one zero -a e^{-i psi} and rotation psi),
      by the paper's obstruction (``_blaschke_verdicts``): Outside at degree
      2 or more, Inconclusive at degree 1;
    - any other polynomial, by samples and Bernstein's inequality
      (``_bernstein_verdicts``), never Inside when phi(0) != 0, since f is
      then not normalised.

    A phi with |phi(0)| > 1e-9 raises BasePointNotZero, as in
    ``q_from_phi``; a phi of no family above raises TypeError.
    """
    return phi_verdicts(lam, [phi])[0]


def phi_verdicts(lam: float, phis) -> list:
    """``phi_verdict`` of each phi, in order: the witnesses of the Blaschke
    products of one degree come from one eigenvalue call
    (``_blaschke_verdicts``), and each Bernstein pass of the polynomials is
    one row-wise evaluation (``_bernstein_verdicts``)."""
    out = [_phi_rule(lam, phi) for phi in phis]
    for family, decide in ((Blaschke, _blaschke_verdicts), (ScaledPolynomial, _bernstein_verdicts)):
        todo = [i for i, rule in enumerate(out) if isinstance(rule, family)]
        for i, verdict in zip(todo, decide(lam, [out[i] for i in todo])):
            out[i] = verdict
    return out


def _phi_rule(lam: float, phi: DiskFunction):
    # phi_verdict of a monomial; else the Blaschke product (a Moebius shift
    # as one) or the polynomial that its family's rows decide
    _check_fixes_origin(phi)
    if isinstance(phi, MoebiusShift):
        phi = Blaschke(zeros=(-phi.a * cmath.exp(-1j * phi.psi),), rotation=phi.psi)
    monomial = _as_monomial(phi)
    if monomial is not None:
        return _monomial_verdict(lam, monomial)
    if isinstance(phi, (Blaschke, ScaledPolynomial)):
        return phi
    raise TypeError(f"no membership rule for a {type(phi).__name__}")


def _verdict(lam: float, upper: float, lower: float) -> str:
    """Inside when the boundary maximum's upper bound is at most lam,
    Outside when its lower bound exceeds lam + MEMBERSHIP_TOL."""
    if upper <= lam:
        return "Inside"
    if lower > lam + MEMBERSHIP_TOL:
        return "Outside"
    return "Inconclusive"


def _as_monomial(phi: DiskFunction) -> Monomial | None:
    """The monomial e^{i theta} z^k that phi equals exactly, or None."""
    if isinstance(phi, Monomial):
        return phi
    if isinstance(phi, Blaschke) and phi.zeros == (0,):
        return Monomial(theta=phi.rotation, k=1)
    if isinstance(phi, ScaledPolynomial):
        terms = [(k, c) for k, c in enumerate(phi.raw) if c != 0]
        if len(terms) == 1 and phi.normalizer == abs(terms[0][1]):
            k, c = terms[0]
            return Monomial(theta=cmath.phase(c), k=k)
    return None


def _monomial_verdict(lam: float, phi: Monomial) -> GeneratorVerdict:
    """phi = e^{i theta} z^k has z phi' = k phi, so U = (1 + lam)(k - 1) phi
    + lam (1 - 2k) phi^2, and on the circle |U| = |(1 + lam)(k - 1) -
    lam (2k - 1) phi| is largest, (1 + lam)(k - 1) + lam (2k - 1), where
    phi = -1: at t = (pi - theta)/k modulo 2 pi/k.  For k = 1 (the extremal
    function and its rotations) that is lam exactly, so Inside; for k >= 2
    it exceeds lam by (1 + 3 lam)(k - 1), so Outside."""
    k = phi.k
    best = (1 + lam) * (k - 1) + lam * (2 * k - 1)
    t = ((math.pi - phi.theta) / k) % (2 * math.pi / k)
    return GeneratorVerdict(_verdict(lam, best, best), "closed_form", best, t)


def _blaschke_verdicts(lam: float, phis: list) -> list:
    """The verdict of each Blaschke product; one of degree n >= 2 with
    |phi(0)| <= 1e-9 is Outside.

    phi = -1 at n points zeta_j of the circle, the roots of
    e^{i rho} prod_k (z - b_k) + prod_k (1 - conj(b_k) z), and there its
    boundary quotient is m_j = zeta_j phi'(zeta_j)/phi(zeta_j)
    = sum_k (1 - |b_k|^2)/|zeta_j - b_k|^2 > 0.  The Clark measure of phi
    at -1 (D. N. Clark, J. Anal. Math. 25, 1972) has point masses 1/m_j and
    total mass (1 - |phi(0)|^2)/|1 + phi(0)|^2 <= 1 + 3e-9, so max m_j >=
    n (1 - 3e-9), and the paper's obstruction (``obstruction_value``) gives
    |U(zeta_j)| = lam + (1 + 3 lam)(m_j - 1) > lam + MEMBERSHIP_TOL.

    At degree 1 the zero b has 0 < |b| <= 1e-9 (b = 0 is a monomial), so on
    the circle |m - 1| <= 2|b|/(1 - |b|), and every |U| = |(1 + lam)(m - 1)
    + lam phi (1 - 2m)| is within 2.1e-9 (1 + 3 lam) of lam: Inconclusive.

    So the verdict needs no sample.  Its witness is the largest m_j, with
    the angle t of its zeta_j, from the roots of that polynomial p, each
    projected onto the circle.  The roots of all p of one degree come from
    one ``np.linalg.eigvals`` call on their companion matrices, stacked:
    each the matrix whose eigenvalues numpy's ``roots`` takes (ones below
    the diagonal, first row -p[1:]/p[0]), so the roots are its bit for bit.
    ``roots`` would strip no coefficient either: |phi(0)| <= 1e-9 keeps the
    first and the last of p within 1e-9 of modulus 1.
    """
    polys = []
    for phi in phis:
        num, den = [cmath.exp(1j * phi.rotation)], [1.0]
        for b in phi.zeros:
            # times z - b and times 1 - conj(b) z, coefficients highest first
            num = [x - b * y for x, y in zip(num + [0], [0] + num)]
            den = [y - b.conjugate() * x for x, y in zip(den + [0], [0] + den)]
        polys.append([x + y for x, y in zip(num, den)])
    roots = [None] * len(phis)
    for size in {len(p) for p in polys}:
        group = [i for i, p in enumerate(polys) if len(p) == size]
        coeffs = np.array([polys[i] for i in group])
        below = np.arange(size - 2)
        companion = np.zeros((len(group), size - 1, size - 1), dtype=complex)
        companion[:, below + 1, below] = 1.0
        companion[:, 0] = -coeffs[:, 1:] / coeffs[:, :1]
        for i, row in zip(group, np.linalg.eigvals(companion).tolist()):
            roots[i] = row
    out = []
    for phi, row in zip(phis, roots):
        quotients = []
        for root in row:
            zeta = root / abs(root)
            quotients.append((sum((1 - abs(b) ** 2) / abs(zeta - b) ** 2 for b in phi.zeros), zeta))
        m, zeta = max(quotients, key=lambda pair: pair[0])
        value = lam + (1 + 3 * lam) * (m - 1)
        t = cmath.phase(zeta) % (2 * math.pi)
        out.append(GeneratorVerdict(_verdict(lam, math.inf, value), "obstruction", value, t, {"m": m}))
    return out


def _bernstein_verdicts(lam: float, phis: list) -> list:
    """The verdict of each polynomial phi.  A phi of degree d makes U a
    polynomial of degree at most 2d, so by Bernstein's inequality
    |d/dt U(e^{it})| <= 2d max |U| on the circle.  Every point of the
    circle lies within pi/n of one of n equispaced samples, so max |U| <=
    M_n/(1 - 2 pi d/n), with M_n the largest sample, when 2 pi d < n.  M_n
    is raised by the rounding that ``_proven_winding`` allows, for terms of
    |U| of size (1 + lam)(1 + d) + lam (1 + 2d) (|phi| <= 1 and |z phi'| <=
    d on the circle, whatever phi(0) is).

    Takes ZERO_COUNT_COARSE samples, then PHI_BOUNDARY_ANGLES, then 16384,
    each pass only of the phi that the last one left Inconclusive: Inside
    when the bound is at most lam and phi(0) = 0 (else f is not
    normalised), Outside when M_n exceeds lam + MEMBERSHIP_TOL (a sample
    bounds the maximum from below), Inconclusive when no pass decides.
    ``bernstein_factor`` and ``bound`` are None when 2 pi d >= n.

    Each pass is one evaluation whose rows are ``l_of_phi`` bit for bit:
    ``eval`` and ``deriv`` of all its phi in one zero-padded Horner loop
    each (``diskfun._horner_rows``).
    """
    out = [None] * len(phis)
    todo = list(range(len(phis)))
    for n in (ZERO_COUNT_COARSE, PHI_BOUNDARY_ANGLES, _BERNSTEIN_LAST):
        if not todo:
            break
        z = ring(1.0, n)
        normalizer = np.array([[phis[i].normalizer] for i in todo])
        p = _horner_rows([phis[i].raw for i in todo], z) / normalizer
        zdp = z * (_horner_rows([phis[i]._derivative for i in todo], z) / normalizer)
        left = []
        for i, (t, best) in zip(todo, _row_max(_u_modulus(lam, p, zdp))):
            d = max((k for k, c in enumerate(phis[i].raw) if c != 0), default=0)
            rounding = ZERO_COUNT_ROUNDING * ((1 + lam) * (1 + d) + lam * (1 + 2 * d))
            slack = 1 - 2 * math.pi * d / n
            factor = 1 / slack if slack > 0 else None
            bound = None if factor is None else factor * (best + rounding)
            upper = math.inf if bound is None or phis[i].base_point() != 0 else bound
            budget = {"samples": n, "bernstein_factor": factor, "bound": bound}
            out[i] = GeneratorVerdict(_verdict(lam, upper, best), "bernstein", best, t, budget)
            if out[i].verdict == "Inconclusive":
                left.append(i)
        todo = left
    return out


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
