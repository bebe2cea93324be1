"""``BoundaryRegion`` validation, and the sampled-polygon reference that other
tests use as an independent containment oracle: segment distance, then the
crossing-rule winding number."""

import numpy as np
import pytest

from ulambda.geometry import BoundaryRegion


def unit_circle(n=256):
    t = np.linspace(0, 2 * np.pi, n + 1)
    return BoundaryRegion(np.exp(1j * t))


def polygon_distance(samples, p):
    """Distance from p to the closed polygon through samples (last = first)."""
    a = samples[:-1]
    ab = samples[1:] - a
    denom = np.abs(ab) ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.real((p - a) * np.conj(ab)) / np.where(denom == 0, 1.0, denom)
    return float(np.min(np.abs(p - (a + np.clip(t, 0.0, 1.0) * ab))))


def reference_contains(samples, p, tol=1e-7):
    """'boundary' within tol of the polygon, else 'inside' when it winds
    around p (crossing rule) and 'outside' when it does not."""
    if polygon_distance(samples, p) <= tol:
        return "boundary"
    x0, y0 = samples.real[:-1], samples.imag[:-1]
    x1, y1 = samples.real[1:], samples.imag[1:]
    is_left = (x1 - x0) * (p.imag - y0) - (p.real - x0) * (y1 - y0)
    up = (y0 <= p.imag) & (y1 > p.imag) & (is_left > 0)
    down = (y0 > p.imag) & (y1 <= p.imag) & (is_left < 0)
    winding = int(np.count_nonzero(up)) - int(np.count_nonzero(down))
    return "inside" if winding != 0 else "outside"


class TestReferencePolygon:
    def test_unit_circle(self):
        s = unit_circle(1024).samples
        assert [reference_contains(s, p) for p in (0.5 + 0.2j, 1.5j, 1 + 0j)] == ["inside", "outside", "boundary"]
        assert abs(polygon_distance(s, 3 + 0j) - 2) < 1e-3

    def test_either_orientation(self):
        s = unit_circle().samples[::-1]
        assert reference_contains(s, 0j) == "inside"
        assert reference_contains(s, 2 + 0j) == "outside"


class TestBoundaryRegion:
    def test_closes_and_freezes(self):
        s = unit_circle(16).samples
        assert s[-1] == s[0] and not s.flags.writeable

    def test_open_curve_rejected(self):
        pts = np.array([0, 1, 1 + 1j, 1j], dtype=complex)
        with pytest.raises(ValueError):
            BoundaryRegion(pts)

    def test_non_finite_samples_rejected(self):
        pts = unit_circle(16).samples.copy()
        pts[3] = np.nan
        with pytest.raises(ValueError):
            BoundaryRegion(pts)
