"""Sampled closed curves in the plane with winding-number containment.

``BoundaryRegion.contains`` labels one point: "boundary" when the point lies
within ``tol`` of the sampled polygon, else "inside" when the polygon winds
around it and "outside" when it does not.  Curves with a closed-form inverse
(the quadratic majorants of ``core``) are not sampled at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OUTSIDE, INSIDE, BOUNDARY = 0, 1, 2
LABELS = ("outside", "inside", "boundary")


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

    def distance(self, p: complex) -> float:
        """Distance from p to the sampled polygon (segment-wise)."""
        a = self.samples[:-1]
        ab = self.samples[1:] - a
        denom = np.abs(ab) ** 2
        with np.errstate(invalid="ignore", divide="ignore"):
            t = np.real((p - a) * np.conj(ab)) / np.where(denom == 0, 1.0, denom)
        closest = a + np.clip(t, 0.0, 1.0) * ab
        return float(np.min(np.abs(p - closest)))

    def winding_number(self, p: complex) -> int:
        """Winding number of the polygon around p (crossing rule)."""
        x0, y0 = self.samples.real[:-1], self.samples.imag[:-1]
        x1, y1 = self.samples.real[1:], self.samples.imag[1:]
        # > 0 when p lies left of the directed segment
        is_left = (x1 - x0) * (p.imag - y0) - (p.real - x0) * (y1 - y0)
        up = (y0 <= p.imag) & (y1 > p.imag) & (is_left > 0)
        down = (y0 > p.imag) & (y1 <= p.imag) & (is_left < 0)
        return int(np.count_nonzero(up)) - int(np.count_nonzero(down))

    def contains(self, p: complex) -> str:
        """Classify p as 'inside', 'outside', or 'boundary' (within tol)."""
        if self.distance(p) <= self.tol:
            return LABELS[BOUNDARY]
        return LABELS[INSIDE if self.winding_number(p) != 0 else OUTSIDE]
