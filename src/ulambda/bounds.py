"""Closed-form coefficient bounds, the refined a2 analysis and its
constructive objects: v(x), B_a(z), the forbidden-value curve and admissible
region for a2, the F(R, r) root analysis, the contraction-mapping zero
finder and the sharpness witness.

``b_a`` and ``diskfun.antiderivative`` take a point or an array of points, so
the curve samples and the sharpness checks each cost one vectorized call.
``b_a`` guards the branch point and evaluates ``diskfun._moebius_mean``, the
B_a of a Moebius shift's exact primitive z B_a(z e^{i psi}); the sharpness
self-checks compare it with ``diskfun.gauss_legendre``, not with itself.

max_t |B_a(e^{it})| = v(|a|), at t = arg a, since B_a(z) = e^{i arg a}
B_{|a|}(z e^{-i arg a}) and |(x + w)/(1 + x w)| grows with Re w on each
circle |w| = u.  ``v_of_omega`` searches (``_circle_max``: one ``ring``
call, then golden section) only for a Blaschke product or a polynomial.

a2 is admissible exactly when q = 1 - a2 z + lam z W(z), W = int_0^z omega,
has no zero in the disk: q(e^{it}) = e^{it} (gamma(t) - a2) with gamma(t) =
e^{-it} + lam W(e^{it}), so exactly when a2 lies inside gamma.  This module
decides it by one rule, ``omega_verdicts``: the winding of gamma - a2 that
``core._proven_winding`` proves from samples of omega's exact primitive on
|z| = 1, against the bound 1 + lam on |gamma'|.  ``omega_verdict`` reports
it for membership, and ``RegionA2.locate`` labels region-a2's queries by
it, projecting them onto gamma only for their distance.
Every f in U(lam) is univalent, so gamma runs clockwise around the admissible
set (``c_omega_curve`` gives the proof).

Theorem 5's bound 1 + lam v(a) is Theorem 6's at real a in (0, 1), attained
by the same f: ``sharpness_g_thm5`` is a view of the one witness that
``sharpness_construction_thm6`` builds, and neither sweeps a series.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .diskfun import (
    DiskFunction,
    Monomial,
    MoebiusShift,
    _any,
    _disk_points,
    _finite,
    _modulus,
    _moebius_mean,
    _primitive_rows,
    antiderivative,
    gauss_legendre,
)
from .errors import (
    BranchPointSingularity,
    NoConvergence,
    NotContractive,
    OutOfRange,
)
from .geometry import BOUNDARY, INSIDE, LABELS, OUTSIDE, BoundaryRegion
from .series import DEFAULT_ORDER, ring, series_reciprocal_rows
from .core import (
    DEFAULT_ANGLES,
    DEFAULT_RADII,
    ZERO_COUNT_COARSE,
    GeneratorVerdict,
    UCandidate,
    _proven_winding,
    q_from_omega,
)

_GOLDEN = (math.sqrt(5) - 1) / 2
CIRCLE_SCAN = 4096  # boundary samples of ``_circle_max``, before its golden section


# ---------------------------------------------------------------------------
# coefficient bounds


def conjecture_bound(n: int, lam: float) -> float:
    """Conjectured sharp bound sum_{k=0}^{n-1} lam^k on |a_n|, n >= 2.

    Only a conjecture, and it fails for small lam already at n = 3: the
    member of U(0.1) with a2 = 1.0775 and omega the Moebius shift a = 0.5
    has a3 = a2^2 - lam omega(0) = 1.11100625 > conjecture_bound(3, 0.1) =
    1.11.  Along thm5's witnesses (omega the Moebius shift a in (0, 1),
    a2 -> 1 + lam v(a)), a3 -> (1 + lam v)^2 - lam a exceeds 1 + lam + lam^2
    exactly when lam < (2v - a - 1)/(1 - v^2), whose supremum, approached as
    a -> 1 (v'(1) = 2 ln 2 - 1), is lam* = (3 - 4 ln 2)/(4 ln 2 - 2) =
    0.29434972478104...: for every lam below it the bound fails at n = 3.
    """
    if n < 2:
        raise OutOfRange("n must be >= 2")
    if not (0 < lam <= 1):
        raise OutOfRange("lambda must lie in (0, 1]")
    return float(sum(lam**k for k in range(n)))


def theorem2_bound(n: int, lam: float) -> float:
    """Proven bound 1 + lam sqrt(n-1) sqrt(sum_{k=0}^{n-2} lam^{2k}), n >= 2."""
    if n < 2:
        raise OutOfRange("n must be >= 2")
    if not (0 < lam <= 1):
        raise OutOfRange("lambda must lie in (0, 1]")
    s = float(sum(lam ** (2 * k) for k in range(n - 1)))
    # written as one sqrt so that lam = 1 gives exactly n
    return 1 + lam * math.sqrt((n - 1) * s)


def rogosinski_check(w: DiskFunction, lam: float, n: int) -> dict:
    """Coefficient inequalities for g1 = 1/(1 - lam w) and g2 = 1/(1 - w),
    w a self-map of the disk fixing 0.

    For every m <= n the partial sums must satisfy sum_{k=1}^m |b_k|^2 <=
    sum_{k=1}^m lam^{2k}, and |c_m| <= 1 (the coefficient step behind
    ``theorem2_bound``); both series, of order max(n, 64), are one
    ``series_reciprocal_rows`` call.
    """
    if abs(w.base_point()) > 1e-9:
        raise OutOfRange("w must fix the origin")
    t = w.taylor(max(n, DEFAULT_ORDER)).coeffs
    one = np.eye(1, len(t), dtype=complex)[0]
    g1, g2 = series_reciprocal_rows(np.stack([one - lam * t, one - t]))

    b2 = np.abs(g1[1 : n + 1]) ** 2
    lhs = np.cumsum(b2)
    rhs = np.cumsum(lam ** (2 * np.arange(1, n + 1)))
    slack = rhs - lhs
    cmax = float(np.max(np.abs(g2[1 : n + 1])))
    return {
        "n": n,
        "lambda": lam,
        "partial_sum_slack_min": float(np.min(slack)),
        "partial_sums_hold": bool(np.all(lhs <= rhs + 1e-9)),
        "c_max": cmax,
        "c_bounded": bool(cmax <= 1 + 1e-9),
    }


# ---------------------------------------------------------------------------
# v(x) and B_a(z)


def v_of_x(x: float) -> float:
    """v(x) = int_0^1 (x + t)/(1 + x t) dt, the sharp antiderivative bound.

    v(x) = B_x(1), so this is ``b_a(x, 1.0)``: its series below x = 0.4
    avoids the cancellation of the closed form 1/x - ((1 - x^2)/x^2) log(1 + x)
    near 0.  v(0) = 1/2.
    """
    x = float(x)
    if not (0 <= x < 1):
        raise OutOfRange("x must lie in [0, 1)")
    return b_a(x, 1.0).real


def b_a(a: complex, z):
    """Majorant B_a(z) of (1/z) int_0^z omega for omega with omega(0) = a,
    at a point or an array of points (same shape out; a 0-d z gives a
    complex).

    Branches: the constant a for |a| = 1, otherwise ``diskfun._moebius_mean``
    (a 40-term series for |conj(a) z| < 0.4, the principal-log closed form
    beyond).  Raises BranchPointSingularity within 1e-9 of conj(a) z = -1.
    """
    a = complex(a)
    z = _disk_points(z)
    if abs(abs(a) - 1) <= 1e-12:
        return np.full(z.shape, a) if z.ndim else a
    if _any(abs(1 + np.conj(a) * z) <= 1e-9):
        raise BranchPointSingularity("conj(a) z at the branch point -1")
    out = _moebius_mean(a, z)
    return out if z.ndim else complex(out)


def _golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    # golden-section maximization of a unimodal-on-[lo,hi] function
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    t = 0.5 * (a + b)
    return t, f(t)


def _circle_max(fun) -> tuple[float, float]:
    """(t*, max_t |fun(e^{it})|) for fun taking a point or an array: one call
    on CIRCLE_SCAN equally spaced boundary points, then golden-section
    refinement within one grid step of the first largest sample."""
    vals = np.abs(fun(ring(1.0, CIRCLE_SCAN)))
    step = 2 * math.pi / CIRCLE_SCAN
    t0 = int(np.argmax(vals)) * step  # the sample's angle, as ring spaces them
    return _golden_max(lambda t: abs(fun(cmath.exp(1j * t))), t0 - step, t0 + step, 1e-10)


def max_boundary_ba(a: complex) -> tuple[float, float]:
    """(t*, max_t |B_a(e^{it})|) = (arg a mod 2 pi, v(|a|)), in closed form.

    B_a(z) = e^{i beta} B_{|a|}(z e^{-i beta}) with beta = arg a, and for
    real x in [0, 1) |B_x(e^{is})| <= int_0^1 (x + u)/(1 + x u) du = v(x),
    with equality at s = 0.  For |a| = 1, B_a is the constant a (t* = 0).
    """
    a = complex(a)
    if abs(abs(a) - 1) <= 1e-12:
        return 0.0, abs(a)
    return cmath.phase(a) % (2 * math.pi), v_of_x(abs(a))


def v_of_omega(omega: DiskFunction) -> float:
    """max over the closed disk of |int_0^z omega|; the integral is analytic,
    so the maximum sits on the boundary circle.

    A Moebius shift's integral is z B_a(z e^{i psi}), whose boundary maximum
    is ``max_boundary_ba``'s v(|a|) (|a| when degenerate); a monomial's is
    1/(k+1).  Other families take CIRCLE_SCAN boundary samples and a
    golden-section refinement (``_circle_max``).
    """
    if isinstance(omega, MoebiusShift):
        return max_boundary_ba(omega.a)[1]
    if isinstance(omega, Monomial):
        return 1 / (omega.k + 1)
    return _circle_max(partial(antiderivative, omega))[1]


# ---------------------------------------------------------------------------
# F(R, r) root analysis


def f_quadratic(lam: float, R: float, r: float) -> float:
    """F(R, r) = lam R^2 r^2 - r [R(1+lam) + 1 - lam] + lam."""
    if not (0 < lam < 1) or not (0 < R < 1) or not (0 <= r <= 1):
        raise OutOfRange("need lam, R in (0,1) and r in [0,1]")
    return lam * R * R * r * r - r * (R * (1 + lam) + 1 - lam) + lam


def f_root_in_unit_interval(lam: float, R: float) -> float | None:
    """The root of F(R, .) in (0, 1), if any.

    The two roots multiply to 1/R^2 > 1 and F(R, 0) = lam > 0, so a root in
    (0, 1) exists iff F(R, 1) < 0, and then it is the smaller root.
    """
    if f_quadratic(lam, R, 1.0) >= 0:
        return None
    a, b, c = lam * R * R, -(R * (1 + lam) + 1 - lam), lam
    disc = b * b - 4 * a * c
    return (-b - math.sqrt(disc)) / (2 * a)


def r_star(lam: float) -> float:
    """Threshold R above which F(R, .) has a root in (0, 1), for lam in (1/2, 1):
    (1 + lam - sqrt((1 - lam)(1 + 7 lam))) / (2 lam)."""
    if not (0.5 < lam < 1):
        raise OutOfRange("lambda must lie in (1/2, 1)")
    return (1 + lam - math.sqrt((1 - lam) * (1 + 7 * lam))) / (2 * lam)


# ---------------------------------------------------------------------------
# contraction-mapping zero finder


def _a2_modulus(a2: complex) -> float:
    """|a2|; a ValueError naming a2 where it is not finite (``_modulus``
    for finite parts whose modulus overflows)."""
    size = _modulus(a2, "a2")
    if not math.isfinite(size):
        raise ValueError(f"a2 must be finite, got {a2!r}")
    return size


@dataclass(frozen=True)
class FixedPointResult:
    z0: complex
    iterations: int
    residuals: tuple
    contraction_constant: float
    v: float

    def to_json(self) -> dict:
        return {
            "z0": [self.z0.real, self.z0.imag],
            "iterations": self.iterations,
            "residuals": list(self.residuals),
            "contraction_constant": self.contraction_constant,
            "v": self.v,
        }


FIXED_POINT_TOL = 1e-12  # the step below which fixed_point_zero stops
FIXED_POINT_MAX_ITER = 10000


def fixed_point_zero(
    a2: complex, lam: float, omega: DiskFunction, r: float, v: float | None = None
) -> FixedPointResult:
    """Zero of q(z) = 1 - a2 z + lam z int_0^z omega inside |z| <= r, by
    iterating the contraction F(z) = (1 + lam z int_0^z omega) / a2 from 0.

    Raises NotContractive unless F maps the closed r-disk into itself with
    Lipschitz constant lam (r + v)/|a2| < 1, where v = v_of_omega(omega)
    bounds the antiderivative.  A caller that already holds that v passes it
    to skip the boundary scan.  A non-finite a2 or lam raises ValueError
    before the contraction test.
    """
    if not 0 < r < 1:
        raise OutOfRange(f"r must lie in (0, 1), got {r!r}")
    a2 = complex(a2)
    size = _a2_modulus(a2)
    _finite(lam, "lam")
    if a2 == 0:
        raise NotContractive("a2 = 0: the map F is undefined")
    if v is None:
        v = v_of_omega(omega)
    into = (1 + lam * r * v) / size
    lip = lam * (r + v) / size
    if into > r + 1e-9 or lip >= 1:
        raise NotContractive(f"map radius {into:.6f} vs r = {r}, Lipschitz constant {lip:.6f}")
    z = 0j
    residuals = []
    for it in range(1, FIXED_POINT_MAX_ITER + 1):
        z_next = (1 + lam * z * antiderivative(omega, z)) / a2
        step = abs(z_next - z)
        residuals.append(step)
        z = z_next
        if step < FIXED_POINT_TOL:
            return FixedPointResult(z0=z, iterations=it, residuals=tuple(residuals),
                                    contraction_constant=lip, v=v)
    raise NoConvergence(f"no convergence after {FIXED_POINT_MAX_ITER} iterations")


# ---------------------------------------------------------------------------
# admissible region for a2


_THETA_COLUMNS = 8  # theta columns whose text ``_theta_text`` holds


@lru_cache(maxsize=_THETA_COLUMNS)
def _theta_text(column: bytes) -> tuple:
    # the %.17g text of each value of a float64 column, keyed by the column's
    # bytes (not its length), so a column of other angles gets its own text
    values = np.frombuffer(column).tolist()
    return tuple(("%.17g\n" * len(values) % tuple(values)).split())


@dataclass(frozen=True)
class RegionA2:
    """Admissible region for a2 given omega: the set that gamma(t) = e^{-it}
    + lam int_0^{e^{it}} omega runs clockwise around (``c_omega_curve``), with
    ``curve`` its samples at ``thetas``."""

    lam: float
    omega: DiskFunction
    thetas: np.ndarray
    curve: BoundaryRegion

    def _gamma(self, t):
        # gamma, gamma' and gamma'' at the angles t, from omega on |z| = 1 only
        z = np.exp(1j * t)
        zc, w = z.conj(), self.omega.eval(z)
        g = zc + self.lam * antiderivative(self.omega, z)
        return g, 1j * (self.lam * z * w - zc), -zc - self.lam * z * (w + z * self.omega.deriv(z))

    def locate(self, a2) -> tuple:
        """(codes, distances) of the points a2, flattened.  The codes are
        ``omega_verdicts``': INSIDE or OUTSIDE when q has no zero or some
        zero in the disk, BOUNDARY where the certificate stops at its floor.

        The distance is that to gamma(t*), the nearest point: Newton steps on
        Re(conj(gamma') (gamma - a2)) = 0 (descent steps where the distance
        is not convex in t), each clamped to one sample spacing, start at
        every local minimum of the sample distances, and at both neighbours
        of the nearest sample, since the two nearest points on either side
        of a fold's tip can share it; the nearest settled point is t*.
        NoConvergence when no start settles in 64 steps."""
        p = np.asarray(a2, dtype=complex).reshape(-1)
        verdicts = omega_verdicts(self.lam, p.tolist(), [self.omega] * len(p))
        codes = [{"Inside": INSIDE, "Outside": OUTSIDE}.get(v.verdict, BOUNDARY) for v in verdicts]
        s = self.curve.samples[:-1]
        h = 2 * math.pi / len(s)
        starts = [np.zeros((2, 0), dtype=np.intp)]
        chunk = max(1, 2**20 // len(s))  # bounds the (queries x samples) distances
        for lo in range(0, len(p), chunk):
            d = np.abs(p[lo:lo + chunk, None] - s)
            low = (d <= np.roll(d, 1, axis=1)) & (d < np.roll(d, -1, axis=1))
            near, rows = np.argmin(d, axis=1), np.arange(len(d))
            low[rows, near - 1] = low[rows, near] = low[rows, (near + 1) % len(s)] = True
            starts.append(np.array(np.nonzero(low)) + [[lo], [0]])
        row, k = np.concatenate(starts, axis=1)
        t, q = h * k, p[row]
        for _ in range(64):
            g, g1, g2 = self._gamma(t)
            slope = np.real(g1.conj() * (g - q))
            convex = np.abs(g1) ** 2 + np.real(g2.conj() * (g - q))
            step = np.where(convex > 0, -slope / np.where(convex > 0, convex, 1.0), -np.sign(slope) * h)
            step = np.clip(step, -h, h)
            t = t + step
            if not _any(np.abs(step) > 1e-12):
                break
        dist = np.where(np.abs(step) <= 1e-12, np.abs(q - self._gamma(t)[0]), np.inf)
        best = np.full(len(p), np.inf)
        np.minimum.at(best, row, dist)
        if not np.all(np.isfinite(best)):
            raise NoConvergence("projection onto the a2 curve did not settle in 64 steps")
        return np.array(codes, dtype=np.int8), best

    def contains(self, a2: complex) -> str:
        return LABELS[self.locate(a2)[0][0]]

    def to_csv(self) -> str:
        """One ``theta,re,im`` row per sample, each value as ``%.17g``.

        The rows are one ``%`` operation over the interleaved (theta, re, im)
        columns; ``%`` and ``str.format`` with one spec share the same
        float-to-text routine, so the text is byte for byte that of
        formatting each sample on its own.  re and im are formatted on every
        call; the theta column's text comes from ``_theta_text``, which
        formats each distinct column once and holds the last
        ``_THETA_COLUMNS`` of them, so every curve at one resolution shares
        one column's text.  At resolution 1024 a first call costs about 1.45
        ms and a repeat call about 0.95 ms (2-core x86-64 VM)."""
        pts = self.curve.samples
        values = [None] * (3 * len(pts))
        values[::3] = _theta_text(np.asarray(self.thetas, dtype=float).tobytes())
        values[1::3] = pts.real.tolist()
        values[2::3] = pts.imag.tolist()
        return "theta,re,im\n" + "%s,%.17g,%.17g\n" * len(pts) % tuple(values)

    def to_svg(self) -> str:
        """The curve as one closed SVG path in a 512 x 512 picture, each
        point as ``%.3f %.3f``.

        The path is one ``%`` operation over the flattened points, byte for
        byte the text of formatting each point on its own, as ``to_csv``."""
        pts, size = self.curve.samples, 512  # the picture is size x size
        lo = complex(np.min(pts.real), np.min(pts.imag))
        hi = complex(np.max(pts.real), np.max(pts.imag))
        span = max(hi.real - lo.real, hi.imag - lo.imag, 1e-9)
        pad = 0.05 * span
        scale = size / (span + 2 * pad)
        sx = (pts.real - lo.real + pad) * scale
        sy = size - (pts.imag - lo.imag + pad) * scale
        xy = np.column_stack((sx, sy)).ravel().tolist()
        path = "M " + " L ".join(["%.3f %.3f"] * len(pts)) % tuple(xy) + " Z"
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
            f'viewBox="0 0 {size} {size}">\n'
            f'<path d="{path}" fill="none" stroke="black" stroke-width="1"/>\n'
            "</svg>\n"
        )


def c_omega_curve(omega: DiskFunction, lam: float, resolution: int = 512) -> RegionA2:
    """Sample the forbidden-value curve gamma(t) = e^{-it} + lam int_0^{e^{it}}
    omega at ``ring(1.0, resolution)`` and package the containment test for
    candidate a2 values.

    No shape check is needed: G(zeta) = zeta - a2 + lam W(1/zeta) has |G' - 1|
    = lam |omega(1/zeta)| / |zeta|^2 < 1 on |zeta| > 1, so by Aksent'ev's
    criterion G maps the exterior of the disk conformally onto the complement
    of the admissible set, and gamma runs clockwise around it.

    ``resolution`` must be an integer >= 64 (numpy integers included, bools
    not), else OutOfRange.
    """
    if isinstance(resolution, bool) or not isinstance(resolution, numbers.Integral) or resolution < 64:
        raise OutOfRange(f"resolution must be an integer >= 64, got {resolution!r}")
    z = ring(1.0, resolution)
    open_pts = z.conj() + lam * antiderivative(omega, z)
    return RegionA2(
        lam=lam,
        omega=omega,
        thetas=np.linspace(0.0, 2 * math.pi, resolution + 1),
        curve=BoundaryRegion(np.concatenate([open_pts, open_pts[:1]])),
    )


def omega_verdict(lam: float, a2: complex, omega: DiskFunction) -> GeneratorVerdict:
    """Membership of the omega candidate q = 1 - a2 z + lam z W,
    W = int_0^z omega.

    U = -lam z^2 omega, so |U| < lam for every (a2, omega), and the candidate
    is a member exactly when q has no zero in the open disk (a zero is a pole
    of f = z/q): when a2 lies inside gamma.  On the circle e^{-it} q(e^{it})
    = gamma(t) - a2, so q's zero count is 1 plus the winding of gamma - a2,
    which ``_proven_winding`` proves from samples at |z| = 1 with the slope
    |gamma'| = |lam e^{it} omega - e^{-it}| <= 1 + lam.  Every family is
    sampled from its exact primitive, gamma - a2 = conj(z) + lam W(z) - a2,
    whose terms are at most 1, max(1, lam S) and |a2|, S the bound on the
    terms that W sums (``_primitive_size``): 2 + |a2| for a closed form
    (S = 1), more for a Blaschke product with large residue terms.

    Where the 256-point pass does not prove it, only that pass's failing
    arcs are halved, with no denser pass of gamma; the verdict is
    Inconclusive, with no zero count, only at the rounding floor (a2 within
    about 1e-12 (2 + |a2| + lam S) of gamma) or about a cusp
    (``core._halve``).  ``budget`` records the pass and the halving.  An a2
    that is not finite, or whose modulus exceeds the float range, raises
    ValueError before anything is sampled.

    This is the one-pair case of ``omega_verdicts``.
    """
    return omega_verdicts(lam, [a2], [omega])[0]


def omega_verdicts(lam: float, a2s, omegas) -> list:
    """``omega_verdict`` of each pair (a2s[i], omegas[i]), in order, each
    the one-pair call's bit for bit.  Each omega's gamma is sampled once, at
    ZERO_COUNT_COARSE points, as a row of ``diskfun._primitive_rows``
    (``RegionA2`` passes one omega for all its queries); the halving then
    samples only the midpoints of one pair's failing arcs."""
    size = [1 + max(1.0, lam * omega._primitive_size()) + _a2_modulus(a2)
            for a2, omega in zip(a2s, omegas)]
    a2 = np.array(a2s, dtype=complex)
    funs = {id(omega): omega for omega in omegas}
    z = ring(1.0, ZERO_COUNT_COARSE)
    gammas = dict(zip(funs, z.conj() + lam * _primitive_rows(list(funs.values()), z)))
    coarse = np.array([gammas[id(omega)] for omega in omegas]).reshape(-1, len(z)) - a2[:, None]
    return [GeneratorVerdict(("Outside" if turns + 1 else "Inside") if proven else "Inconclusive", "zero_count",
                             turns + 1 if proven else None, budget=budget)
            for turns, proven, budget in _proven_winding(
                coarse, size, [1 + lam] * len(size),
                lambda z, i: z.conj() + lam * omegas[i]._primitive(z) - a2[i])]


# ---------------------------------------------------------------------------
# sharpness constructions


def sharpness_g_thm5(lam: float, a: float, witness: tuple | None = None) -> tuple:
    """Extremal candidate attaining |a2| = 1 + lam v(a) for real a in (0, 1).

    A view of ``sharpness_construction_thm6``'s witness at a (theta = psi = 0),
    passed by a caller that holds it; v, the bound residual and G's interior
    minimum are thm6's.  Checked here: the two expressions for G agree, and
    G vanishes at z = 1 (so the bound is attained only in the boundary limit).
    """
    if not (0 < a < 1):
        raise OutOfRange("a must lie in (0, 1)")
    _, _, omega, a2, D, rep6 = sharpness_construction_thm6(lam, a) if witness is None else witness
    a2, v = a2.real, rep6["max_boundary_ba"]
    cand = UCandidate(D, lam)

    k = np.arange(100)
    z = 0.97 * np.exp(2j * math.pi * k / 100) * (0.3 + 0.7 * ((7 * k) % 100) / 100)
    om = antiderivative(omega, z)
    expr1 = 1 - a2 * z + lam * z * om
    expr2 = 1 - z - lam * z * (v - om)
    disagree = float(np.max(np.abs(expr1 - expr2)))

    # v = B_a(1) in closed form against the quadrature of omega over [0, 1]
    g_at_1 = 1 - 1 - lam * 1 * (v - gauss_legendre(omega, 1.0))

    report = {
        "a2": a2,
        "v": v,
        "expr_disagreement": disagree,
        "min_interior_abs_g": rep6["min_interior_abs_d"],
        "g_at_1_abs": abs(g_at_1),
        "bound_residual": rep6["a2_bound_residual"],
    }
    return a2, cand, report


def sharpness_construction_thm6(lam: float, a: complex) -> tuple:
    """Sharpness witness for |a2| <= 1 + lam max_t |B_a(e^{it})|, |a| < 1.

    Returns (theta, psi, omega, a2, D, report) where D is the series of the
    denominator 1 - a2 z + lam z^2 B_a(z e^{i psi}) and f = z/D attains the
    bound.
    """
    a = complex(a)
    # written so that a NaN a fails too
    if not _modulus(a, "a") < 1:
        raise OutOfRange(f"sharpness needs |a| < 1, got {abs(a)}")
    # B_a peaks on the circle at t0 = arg a, where B_a(e^{i t0}) = e^{i t0} v(|a|)
    t0, value = max_boundary_ba(a)
    B = b_a(a, cmath.exp(1j * t0))
    alpha = cmath.phase(a)
    theta = -alpha / 2
    psi = t0 - theta
    omega = MoebiusShift(a, psi)
    a2 = cmath.exp(-1j * theta) + lam * cmath.exp(1j * theta) * B

    # 1 - a2 z + lam z int_0^z omega, and int_0^z omega = z B_a(z e^{i psi})
    D = q_from_omega(a2, lam, omega).q

    zb = cmath.exp(1j * theta)
    d_boundary = 1 - a2 * zb + lam * zb * zb * b_a(a, zb * cmath.exp(1j * psi))

    # every 4th angle of the default 720, i.e. 180 per circle
    z = ring(DEFAULT_RADII, DEFAULT_ANGLES)[:, :: DEFAULT_ANGLES // 180]
    val = 1 - a2 * z + lam * z * z * b_a(a, z * cmath.exp(1j * psi))
    min_abs = float(np.min(np.abs(val)))

    k = np.arange(100)
    z = 0.95 * np.exp(2j * math.pi * k / 100) * (0.2 + 0.8 * ((13 * k) % 100) / 100)
    # quadrature against the closed form: antiderivative(omega, z) is itself
    # z B_a(z e^{i psi}), so it would make this 0 by construction
    ident = float(np.max(np.abs(gauss_legendre(omega, z) - z * b_a(a, z * cmath.exp(1j * psi)))))

    report = {
        "t0": t0,
        "alpha": alpha,
        "max_boundary_ba": value,
        "d_boundary_residual": abs(d_boundary),
        "min_interior_abs_d": min_abs,
        "integral_identity_max_err": ident,
        "a2_bound_residual": abs(abs(a2) - (1 + lam * value)),
    }
    return theta, psi, omega, a2, D, report


# ---------------------------------------------------------------------------
# bound table

VIOLATION_TOL = 1e-9  # observed |a_n| beyond the conjectured bound by more is a violation


@dataclass
class BoundTable:
    """Rows (n, conjectured bound, proven bound, max observed |a_n|, family)."""

    rows: list

    def __post_init__(self):
        for n, conj, th2, obs, fam in self.rows:
            if th2 < conj - 1e-12:
                raise ValueError(f"proven bound below conjectured bound at n = {n}")

    def to_csv(self) -> str:
        lines = ["n,conjecture,theorem2,observed_max,family"]
        for n, conj, th2, obs, fam in self.rows:
            lines.append(f"{n},{conj:.17g},{th2:.17g},{obs:.17g},{fam}")
        return "\n".join(lines) + "\n"

    def violations(self) -> list:
        return [row for row in self.rows if row[3] > row[1] + VIOLATION_TOL]
