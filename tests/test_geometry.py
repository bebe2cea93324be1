import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ulambda.geometry import BoundaryRegion
from ulambda.series import ring


def unit_circle(n=256):
    t = np.linspace(0, 2 * np.pi, n + 1)
    return BoundaryRegion(np.exp(1j * t))


class TestWinding:
    def test_circle_contains_center(self):
        assert unit_circle().winding_number(0j) == 1

    def test_circle_excludes_far_point(self):
        assert unit_circle().winding_number(2 + 0j) == 0

    def test_reversed_orientation(self):
        t = np.linspace(0, 2 * np.pi, 257)
        region = BoundaryRegion(np.exp(-1j * t))
        assert region.winding_number(0j) == -1
        assert region.contains(0j) == "inside"


class TestDistance:
    def test_distance_from_center(self):
        assert abs(unit_circle().distance(0j) - 1) < 1e-3

    def test_distance_outside(self):
        assert abs(unit_circle().distance(3 + 0j) - 2) < 1e-3


class TestContains:
    def test_classification(self):
        region = unit_circle(1024)
        assert region.contains(0.5 + 0.2j) == "inside"
        assert region.contains(1.5j) == "outside"
        assert region.contains(1.0 + 0j) == "boundary"

    def test_open_curve_rejected(self):
        pts = np.array([0, 1, 1 + 1j, 1j], dtype=complex)
        with pytest.raises(ValueError):
            BoundaryRegion(pts)


def reference_contains(region, p):
    """The per-point rule, written out: distance over every segment, then
    the crossing-rule winding number."""
    a = region.samples[:-1]
    b = region.samples[1:]
    ab = b - a
    ap = p - a
    denom = np.abs(ab) ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.real(ap * np.conj(ab)) / np.where(denom == 0, 1.0, denom)
    t = np.clip(t, 0.0, 1.0)
    closest = a + t * ab
    if float(np.min(np.abs(p - closest))) <= region.tol:
        return "boundary"
    x, y = p.real, p.imag
    sx = region.samples.real
    sy = region.samples.imag
    x0, y0 = sx[:-1], sy[:-1]
    x1, y1 = sx[1:], sy[1:]
    is_left = (x1 - x0) * (y - y0) - (x - x0) * (y1 - y0)
    up = (y0 <= y) & (y1 > y) & (is_left > 0)
    down = (y0 > y) & (y1 <= y) & (is_left < 0)
    winding = int(np.count_nonzero(up)) - int(np.count_nonzero(down))
    return "inside" if winding != 0 else "outside"


def assert_agrees(region, pts):
    pts = np.asarray(pts, dtype=complex)
    expected = [reference_contains(region, complex(p)) for p in pts]
    assert [region.contains(complex(p)) for p in pts] == expected
    return expected


def figure_eight(tol=1e-7):
    # crosses itself at 0: winding +1 in one lobe, -1 in the other
    t = np.linspace(0, 2 * np.pi, 201)
    return BoundaryRegion(np.sin(t) + 0.5j * np.sin(2 * t), tol=tol)


def clockwise(tol=1e-7):
    return BoundaryRegion(unit_circle(96).samples[::-1], tol=tol)


def square_with_repeats(tol=1e-7):
    # horizontal and vertical edges, each corner sampled twice
    corners = [0, 0, 0.5, 1, 1, 1 + 0.5j, 1 + 1j, 1 + 1j, 0.5 + 1j, 1j, 0.5j, 0]
    return BoundaryRegion(np.array(corners, dtype=complex), tol=tol)


def majorant(tol=1e-7):
    z = ring(1.0, 256)
    pts = 1 + z + 0.5 * z**2
    return BoundaryRegion(np.concatenate([pts, pts[:1]]), tol=tol)


CURVES = {
    "majorant": majorant,
    "clockwise": clockwise,
    "figure_eight": figure_eight,
    "square": square_with_repeats,
}


def special_points(region, rng):
    """Vertices, points at a vertex's height, and points tol/2 and 3 tol off
    the curve on both sides."""
    s = region.samples[:-1]
    nxt = region.samples[1:]
    mid = 0.5 * (s + nxt)
    step = nxt - s
    normal = 1j * step / np.where(np.abs(step) == 0, 1.0, np.abs(step))
    lo, hi = np.min(s.real) - 0.5, np.max(s.real) + 0.5
    same_height = rng.uniform(lo, hi, len(s)) + 1j * s.imag
    off = [mid + k * region.tol * normal for k in (-3, -0.5, 0.5, 3)]
    off += [s + k * region.tol * np.exp(2j * np.pi * rng.uniform(size=len(s))) for k in (0.5, 3)]
    return np.concatenate([s, same_height, s.real + 1j * np.roll(s.imag, 7), mid, *off])


class TestClassifyAgreement:
    @pytest.mark.parametrize("name", sorted(CURVES))
    @pytest.mark.parametrize("tol", [1e-7, 1e-3, 0.0])
    def test_special_points(self, name, tol):
        region = CURVES[name](tol=tol)
        expected = assert_agrees(region, special_points(region, np.random.default_rng(3)))
        assert {"inside", "outside"} <= set(expected)
        if tol > 0:
            assert "boundary" in expected

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(CURVES)),
        xy=st.lists(
            st.tuples(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5)), min_size=1, max_size=60
        ),
    )
    def test_random_points(self, name, xy):
        assert_agrees(CURVES[name](), [complex(x, y) for x, y in xy])

    def test_winding_signs(self):
        assert clockwise().winding_number(0j) == -1
        region = figure_eight()
        assert region.winding_number(0.5 + 0.1j) == -region.winding_number(-0.5 + 0.1j) != 0
        assert [region.contains(p) for p in (0.5, -0.5, 0.5j)] == ["inside", "inside", "outside"]

    def test_shape_and_empty(self):
        region = unit_circle()
        assert [region.contains(p) for p in (0, 2, 1, 0.5j)] == ["inside", "outside", "boundary", "inside"]
        assert region.contains(np.nan + 0j) == "outside"

    def test_non_finite_samples_rejected(self):
        pts = unit_circle(16).samples.copy()
        pts[3] = np.nan
        with pytest.raises(ValueError):
            BoundaryRegion(pts)
