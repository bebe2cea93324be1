"""Fixed reference kernel that measures how fast the host runs right now.

Every op the benchmark times is bracketed by one run of ``run()``; the op's
wall time is divided by the mean of the two kernel times and multiplied by
``NOMINAL_MS``, which turns it into wall time at a fixed reference speed.

The kernel is a small copy of the kinds of work the program does, about a
millisecond each, so that a slow host slows it roughly as much as it slows
the program: Horner sweeps of short and long rings of points, polygon
distance and crossing tests, a series reciprocal recurrence of short dot
products, 16-point quadrature on tiny arrays, a pairwise-distance matrix, and
a plain interpreter loop over Python complex scalars.  On a shared 2-core VM
those kinds of work slowed by 1.3x to 1.9x between the host's fast and slow
phases, so no single one of them would do.  It does not import ``ulambda``
and runs on one thread.

FROZEN: do not edit this file.  Every normalised time the benchmark reports
is in units of this kernel; changing it changes every number, so a change
that claims a gain must leave it as it is.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

# Nominal cost of one kernel run in milliseconds: about its time on an idle
# 2-core x86-64 VM at its fast speed.  A constant, so that reported times
# read as milliseconds on that host.
NOMINAL_MS = 6.0

_RING = 0.9 * np.exp(2j * math.pi * np.arange(720) / 720)
_LONG_RING = 0.999 * np.exp(2j * math.pi * np.arange(4096) / 4096)
_COEFFS = np.array([cmath.exp(0.37j * k) / (k + 1) for k in range(48)])
_T = np.linspace(0.0, 2 * math.pi, 1025)
_POLYGON = 1 + 0.5 * np.exp(1j * _T) + 0.25 * np.exp(2j * _T)
_POLYGON[-1] = _POLYGON[0]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _horner(points: np.ndarray, sweeps: int) -> float:
    acc = np.zeros_like(points)
    for _ in range(sweeps):
        for c in _COEFFS:
            acc = acc * points + c
    return float(np.max(np.abs(acc)))


def _polygon() -> int:
    a, b = _POLYGON[:-1], _POLYGON[1:]
    ab = b - a
    denom = np.abs(ab) ** 2
    x0, y0, x1, y1 = a.real, a.imag, b.real, b.imag
    total = 0
    for k in range(18):
        p = complex(1 + 0.3 * math.cos(k), 0.2 * math.sin(k))
        t = np.clip(np.real((p - a) * np.conj(ab)) / denom, 0.0, 1.0)
        total += float(np.min(np.abs(p - (a + t * ab)))) > 1e-7
        is_left = (x1 - x0) * (p.imag - y0) - (p.real - x0) * (y1 - y0)
        up = (y0 <= p.imag) & (y1 > p.imag) & (is_left > 0)
        down = (y0 > p.imag) & (y1 <= p.imag) & (is_left < 0)
        total += int(np.count_nonzero(up)) - int(np.count_nonzero(down))
    return total


def _recurrence() -> complex:
    r = np.zeros(len(_COEFFS), dtype=complex)
    r[0] = 1.0 / _COEFFS[0]
    for _ in range(12):
        for k in range(1, len(_COEFFS)):
            r[k] = -np.dot(_COEFFS[1 : k + 1], r[k - 1 :: -1]) / _COEFFS[0]
    return complex(r[-1])


def _quadrature() -> complex:
    s = 0j
    for k in range(150):
        half = 0.45 * cmath.exp(0.05j * k)
        pts = half + half * _GL_NODES
        vals = (0.3 + pts) / (1 + 0.3 * pts)
        s += complex(half * np.dot(_GL_WEIGHTS, vals))
    return s


def _pairwise() -> int:
    pts = _LONG_RING[:200]
    idx = np.arange(len(pts))
    sep = np.abs(idx[:, None] - idx[None, :])
    dist = np.abs(pts[:, None] - pts[None, :])
    return int(np.count_nonzero((sep > 4) & (dist < 1e-6)))


def _scalar() -> complex:
    s = 0j
    w = 0.3 + 0.4j
    for j in range(2500):
        w = 0.5 * w * w + 0.25j * cmath.exp(1j * (j % 17) * 0.1)
        s += w / (1.0 + abs(w)) + math.sqrt(j + 1.0)
    return s


PARTS = (
    lambda: _horner(_RING, 3),
    lambda: _horner(_LONG_RING, 2),
    _polygon,
    _recurrence,
    _quadrature,
    _pairwise,
    _scalar,
)


def run() -> complex:
    """One kernel run; returns a checksum so the work cannot be skipped."""
    return sum(complex(part()) for part in PARTS)
