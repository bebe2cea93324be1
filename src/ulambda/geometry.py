"""Sampled closed curves in the plane with winding-number containment.

``BoundaryRegion.classify`` labels a whole array of points at once.  It sorts
the m points by imaginary part, finds for each of the n polygon segments the
points whose height lies in the segment's vertical extent (grown by the
boundary margin) with two binary searches, and evaluates the crossing rule and
the segment distance on those (segment, point) pairs only.  The cost is
O((n + m) log m + k) for k pairs, about 2 per point for a convex curve, instead
of the O(n m) of testing every point against every segment.  ``contains`` is
the one-point case, so each point gets the same verdict either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import ring

OUTSIDE, INSIDE, BOUNDARY = 0, 1, 2
LABELS = ("outside", "inside", "boundary")


def _segment_distance(a: np.ndarray, ab: np.ndarray, p) -> np.ndarray:
    """Elementwise distance from p to the segment from a to a + ab."""
    ap = p - a
    denom = np.abs(ab) ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.real(ap * np.conj(ab)) / np.where(denom == 0, 1.0, denom)
    t = np.clip(t, 0.0, 1.0)
    closest = a + t * ab
    return np.abs(p - closest)


def _crossings(x0, y0, x1, y1, x, y) -> tuple:
    """Masks of the segments that cross the line through (x, y) upwards with
    the point on their left, and downwards with it on their right."""
    # is_left > 0 when p lies left of the directed segment
    is_left = (x1 - x0) * (y - y0) - (x - x0) * (y1 - y0)
    up = (y0 <= y) & (y1 > y) & (is_left > 0)
    down = (y0 > y) & (y1 <= y) & (is_left < 0)
    return up, down


@dataclass(frozen=True)
class BoundaryRegion:
    """Ordered samples of a closed curve; first and last point coincide.

    Containment is decided by the winding number of the sampled polygon.
    Points closer to the curve than ``tol`` are reported as on-curve, since
    the winding test is unstable exactly there.
    """

    samples: np.ndarray
    tol: float = 1e-7

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim != 1 or len(s) < 4:
            raise ValueError("need at least 4 samples of a closed curve")
        if not np.all(np.isfinite(s)):
            raise ValueError("curve samples must be finite")
        if abs(s[0] - s[-1]) > 1e-9 * max(1.0, float(np.max(np.abs(s)))):
            raise ValueError("curve does not close")
        s = s.copy()
        s[-1] = s[0]
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @staticmethod
    def from_function(fun, resolution: int = 2048, tol: float = 1e-7) -> "BoundaryRegion":
        """Sample fun on ``ring(1.0, resolution)``, closed with the first
        sample."""
        pts = np.asarray(fun(ring(1.0, resolution)), dtype=complex)
        return BoundaryRegion(np.concatenate([pts, pts[:1]]), tol=tol)

    def distance(self, p: complex) -> float:
        """Distance from p to the sampled polygon (segment-wise)."""
        a = self.samples[:-1]
        return float(np.min(_segment_distance(a, self.samples[1:] - a, p)))

    def winding_number(self, p: complex) -> int:
        """Winding number of the polygon around p (crossing rule)."""
        s = self.samples
        up, down = _crossings(s.real[:-1], s.imag[:-1], s.real[1:], s.imag[1:], p.real, p.imag)
        return int(np.count_nonzero(up)) - int(np.count_nonzero(down))

    def classify(self, points) -> np.ndarray:
        """OUTSIDE, INSIDE or BOUNDARY (within tol) for each point, as int8
        codes of the points' shape; ``LABELS[code]`` names a code."""
        pts = np.asarray(points, dtype=complex)
        flat = pts.ravel()
        order = np.argsort(flat.imag)
        heights = flat.imag[order]
        a = self.samples[:-1]
        b = self.samples[1:]
        # A point within tol of a segment lies in the segment's bounding box
        # grown by tol, give or take the rounding of the closest-point
        # expression, which the second tol and a few ulps cover.
        pad = 2 * self.tol + 8 * np.spacing(np.max(np.abs(self.samples.view(float))))
        first = np.searchsorted(heights, np.minimum(a.imag, b.imag) - pad, side="left")
        last = np.searchsorted(heights, np.maximum(a.imag, b.imag) + pad, side="right")
        count = last - first
        seg = np.repeat(np.arange(len(a)), count)
        start = np.cumsum(count) - count
        pt = order[np.arange(len(seg)) + np.repeat(first - start, count)]
        # every pair gets the same expressions as the one-point rules, and
        # pairs outside a segment's vertical extent cross nothing
        sa, sb, p = a[seg], b[seg], flat[pt]
        up, down = _crossings(sa.real, sa.imag, sb.real, sb.imag, p.real, p.imag)
        winding = np.bincount(pt[up], minlength=len(flat)) - np.bincount(pt[down], minlength=len(flat))
        near = _segment_distance(sa, sb - sa, p) <= self.tol
        codes = np.where(winding != 0, INSIDE, OUTSIDE).astype(np.int8)
        codes[pt[near]] = BOUNDARY
        return codes.reshape(pts.shape)

    def contains(self, p: complex) -> str:
        """Classify p as 'inside', 'outside', or 'boundary' (within tol)."""
        return LABELS[int(self.classify(p))]
