"""Containment label codes, their boundary band, and closed-curve samples.

Nothing here decides containment: ``bounds.RegionA2`` labels a2 by a winding
certificate and ``core.QuadraticMajorant`` inverts its curve in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OUTSIDE, INSIDE, BOUNDARY = 0, 1, 2
BOUNDARY_TOL = 1e-7  # labels BOUNDARY: ||root| - 1| of a majorant
LABELS = ("outside", "inside", "boundary")


@dataclass(frozen=True)
class BoundaryRegion:
    """Ordered, finite samples of a closed curve, read-only; the last sample
    is set to the first, which it must match to 1e-9 of the curve's scale."""

    samples: np.ndarray

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
