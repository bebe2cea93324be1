"""Truncated complex power series about the origin, and the circle grids
they are swept on.

A series carries coefficients c_0..c_N and its order N.  Arithmetic always
truncates to the minimum order of the operands; no operation extends the
order, so a result never pretends to more precision than its inputs carry.
``series_reciprocal_rows`` inverts many series at once, given as the rows
of one array: it is the package's one series inversion.

``ring`` is the one open uniform angular grid every circle sweep of the
package samples.  Its unit circle for each angle count is computed once and
kept (a small bounded cache of read-only arrays); each call returns a fresh
grid scaled from it.  A series is swept over it by ``ring_eval``, one batched
inverse FFT on all circles; ``series_eval_many`` is the Horner loop for
scattered points (``_horner``, which polynomial disk functions share), and
``series_eval`` its one-point case.  ``series_eval``, ``series_eval_many``
and ``series_integrate`` are the termwise references that the tests compare
``ring_eval`` and ``core.q_rows_from_omega`` against.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import NearZeroConstantTerm, OutOfRange, OutsideDisk

DEFAULT_ORDER = 64

# Constant terms below this are treated as zero (reciprocal conditioning).
EPS0 = 1e-12


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients c_0..c_N of an analytic germ at 0, truncated at order N."""

    coeffs: np.ndarray = field()

    def __post_init__(self):
        # a copy, so that the caller's array can change without this one
        c = np.array(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a nonempty 1-d array")
        if not np.isfinite(c.view(float)).all():
            raise ValueError("coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, k: int) -> complex:
        return complex(self.coeffs[k])

    @staticmethod
    def from_coeffs(coeffs, order: int | None = None) -> "TruncatedSeries":
        """Build a series, zero-padding (or truncating) to the given order."""
        c = np.asarray(list(coeffs), dtype=complex)
        if order is not None:
            if len(c) > order + 1:
                c = c[: order + 1]
            elif len(c) < order + 1:
                c = np.concatenate([c, np.zeros(order + 1 - len(c))])
        return TruncatedSeries(c)


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the minimum order."""
    n = min(a.order, b.order)
    full = np.convolve(a.coeffs[: n + 1], b.coeffs[: n + 1])
    return TruncatedSeries(full[: n + 1])


def series_reciprocal_rows(a) -> np.ndarray:
    """Row i the series r with a[i] * r = 1 up to the order, for a 2-d array
    a of coefficient rows, by the standard recurrence r_0 = 1/a_0, r_k =
    -(a_1 r_{k-1} + ... + a_k r_0)/a_0.

    Each order k of all rows is one stacked ``np.matmul`` of a[:, 1:k+1]
    against r[:, k-1::-1], made contiguous: matmul then hands each
    (1 x k)(k x 1) product to the BLAS dot that ``np.dot`` calls on the
    same pair, so a row does not depend on the others.  r_0 is Python's
    complex division of each a_0, which rounds some quotients otherwise
    than numpy's.
    ValueError for a coefficient that is not finite, in a or in r;
    NearZeroConstantTerm for a row with |a_0| <= EPS0."""
    a = np.asarray(a, dtype=complex)
    if not np.isfinite(a).all():
        raise ValueError("coefficients must be finite")
    heads = a[:, 0].tolist()
    for a0 in heads:
        if abs(a0) <= EPS0:
            raise NearZeroConstantTerm(f"|constant term| = {abs(a0):.3e} <= {EPS0}")
    r = np.zeros(a.shape, dtype=complex)
    r[:, 0] = [1.0 / a0 for a0 in heads]
    for k in range(1, a.shape[1]):
        reversed_r = np.ascontiguousarray(r[:, k - 1::-1])
        r[:, k] = -np.matmul(a[:, None, 1:k + 1], reversed_r[:, :, None])[:, 0, 0] / a[:, 0]
    if not np.isfinite(r).all():
        raise ValueError("coefficients must be finite")
    return r


def series_integrate(a: TruncatedSeries) -> TruncatedSeries:
    """Termwise antiderivative with value 0 at 0; top coefficient is dropped
    so the order does not grow."""
    n = a.order
    c = np.zeros(n + 1, dtype=complex)
    k = np.arange(1, n + 1)
    c[1:] = a.coeffs[:-1] / k
    return TruncatedSeries(c)


def series_eval(a: TruncatedSeries, z: complex) -> complex:
    """Horner evaluation of the truncated sum at one point, |z| <= 1."""
    return complex(series_eval_many(a, np.asarray(complex(z)))[()])


def series_eval_many(a: TruncatedSeries, z: np.ndarray) -> np.ndarray:
    """Vectorized Horner evaluation over an array of points, |z| <= 1."""
    z = np.asarray(z, dtype=complex)
    modulus = np.abs(z)
    if np.any(modulus > 1 + 1e-14):
        raise OutsideDisk(f"|z| = {float(np.max(modulus)):.6f} > 1")
    return _horner(a.coeffs, z)


def _horner(coeffs, z) -> np.ndarray:
    """sum_k coeffs[k] z^k by Horner's rule, with the shape of z (an array
    or a numpy scalar); no check on where z lies."""
    acc = np.zeros(np.shape(z), dtype=complex)
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc


def _angle_count(angles) -> int:
    """The one rule for an angular sample count: an integer >= 1, numpy
    integers included, bools not (a bool is not a count), else OutOfRange.
    Returns it as a Python int."""
    if isinstance(angles, bool) or not isinstance(angles, numbers.Integral):
        raise OutOfRange(f"angles must be an integer, got {angles!r}")
    if angles < 1:
        raise OutOfRange(f"angles must be >= 1, got {angles!r}")
    return int(angles)


@functools.lru_cache(maxsize=16)
def _circle(angles: int) -> np.ndarray:
    # shared by every caller, hence read-only
    circle = np.exp(1j * np.linspace(0.0, 2 * math.pi, angles, endpoint=False))
    circle.setflags(write=False)
    return circle


def ring(radii, angles: int) -> np.ndarray:
    """r e^{i theta_k} for each radius r, with theta_k = k (2 pi / angles)
    exactly (``np.linspace(..., endpoint=False)``), k = 0..angles-1: shape
    radii.shape + (angles,), one row per radius, a new array on every call.
    ``angles`` must be an integer >= 1 (numpy integers included, bools not),
    else OutOfRange."""
    return np.multiply.outer(radii, _circle(_angle_count(angles)))


def ring_eval(a: TruncatedSeries, radii, angles: int) -> np.ndarray:
    """``series_eval_many(a, ring(radii, angles))`` to rounding, by one
    batched inverse FFT: on the circle of radius r the values are the
    discrete Fourier sums sum_k c_k r^k e^{2 pi i j k / angles}.

    The coefficients are scaled by r^k, folded modulo ``angles`` when there
    are more of them than angles (exact: e^{i k theta_j} has period
    ``angles`` in k) and zero-padded otherwise.  At the exact angles the
    error is a few eps times sum_k |c_k| r^k (Bornemann, FoCM 2011); Horner
    sees ``ring``'s rounded points, so the two also differ by up to about
    eps times sum_k k |c_k| r^k.  Same shape, same ``angles`` rule and same
    OutsideDisk for a radius above 1 as the grid and Horner."""
    angles = _angle_count(angles)
    r = np.asarray(radii)
    modulus = np.abs(r)
    if np.any(modulus > 1 + 1e-14):
        raise OutsideDisk(f"|z| = {float(np.max(modulus)):.6f} > 1")
    c = a.coeffs * np.power.outer(r, np.arange(len(a.coeffs)))
    if c.shape[-1] > angles:
        # zero-padded to whole periods (np.pad costs ten times as much here)
        periods = -(-c.shape[-1] // angles)
        folded = np.zeros(r.shape + (periods * angles,), dtype=complex)
        folded[..., :c.shape[-1]] = c
        c = folded.reshape(r.shape + (periods, angles)).sum(axis=-2)
    return np.fft.ifft(c, n=angles, axis=-1, norm="forward")
