"""The disc rule of palmwatch.annotations against its first, unclipped form."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from palmwatch.annotations import AnnotationSet, CrownAnnotation, disc_box, disc_pixels, rasterize_labels
from palmwatch.errors import BoundsError

from conftest import address_space_cap


def unclipped_disc(cx, cy, radius):
    """Every lattice point within ``radius`` of (cx, cy), from the disc's
    whole bounding box: the rule as first written, kept as the reference."""
    x0, x1 = math.floor(cx - radius), math.ceil(cx + radius)
    y0, y1 = math.floor(cy - radius), math.ceil(cy + radius)
    ys, xs = np.mgrid[y0 : y1 + 1, x0 : x1 + 1]
    inside = (xs - cx) ** 2 + (ys - cy) ** 2 <= radius * radius
    return ys[inside], xs[inside]


def reference_leaves(crown, width, height):
    ys, xs = unclipped_disc(crown.cx, crown.cy, crown.radius_px)
    return bool(len(xs)) and bool(
        xs.min() < 0 or xs.max() >= width or ys.min() < 0 or ys.max() >= height
    )


def leaves(crown, width, height):
    try:
        AnnotationSet((crown,)).check_within(width, height)
    except BoundsError:
        return True
    return False


def on_lattice(lo, hi):
    """Values in [lo, hi] on a 1, 1/2 or 1/16 px lattice, so centres often
    sit on pixels or between them and discs often pass through pixels."""
    return st.sampled_from([1, 2, 16]).flatmap(lambda d: st.integers(lo * d, hi * d).map(lambda k: k / d))


@st.composite
def small_discs(draw):
    """A crown small enough to enumerate, near or on a small grid."""
    width, height = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    crown = CrownAnnotation(
        id=0,
        class_label="healthy",
        cx=draw(on_lattice(-40, 64) | st.floats(-40, 64)),
        cy=draw(on_lattice(-40, 64) | st.floats(-40, 64)),
        radius_px=draw(on_lattice(0, 30).filter(bool) | st.floats(0.004, 30)),
    )
    return crown, width, height


@settings(max_examples=500, deadline=None)
@given(case=small_discs())
def test_disc_pixels_are_the_unclipped_rule_clipped(case):
    crown, width, height = case
    ys, xs = unclipped_disc(crown.cx, crown.cy, crown.radius_px)
    keep = (xs >= 0) & (xs < width) & (ys >= 0) & (ys < height)
    got_ys, got_xs = disc_pixels(crown.cx, crown.cy, crown.radius_px, width, height)
    # the same points in the same row-major order
    np.testing.assert_array_equal(got_ys, ys[keep])
    np.testing.assert_array_equal(got_xs, xs[keep])


@settings(max_examples=500, deadline=None)
@given(case=small_discs())
def test_check_within_is_the_unclipped_rule(case):
    crown, width, height = case
    assert leaves(crown, width, height) == reference_leaves(crown, width, height)


FAR = 1e300
# (cx, cy, radius_px), whether the disc leaves a 64x64 grid, and how many
# of the grid's points it holds
EXTREME_CROWNS = [
    ((1e30, 5.0, 3.0), True, 0),
    ((-FAR, FAR, 1.0), True, 0),
    ((FAR, 5.0, 0.01), True, 0),  # a float this large is a lattice point
    ((5.0, 5.0, 1e7), True, 64 * 64),
    ((5.0, 5.0, 1e10), True, 64 * 64),
    ((5.0, 5.0, 1e20), True, 64 * 64),
    ((5.0, -1e6, 1e6 + 0.5), True, 64),  # of the grid, only row 0 lies within reach
    ((10.25, 10.5, 0.1), False, 0),  # no lattice point at all
    ((-1.0, 5.0, 0.5), True, 0),  # one point, just off the grid
    # every square overflows: the grid lies about 4e299 px outside the disc
    ((-FAR, FAR, FAR), True, 0),
    ((5.0, 5.0, FAR), True, 64 * 64),  # only the radius squared overflows
]


@pytest.mark.parametrize("centre, leaves_grid, in_grid", EXTREME_CROWNS)
def test_far_and_huge_crowns_list_at_most_the_grid(centre, leaves_grid, in_grid):
    cx, cy, radius = centre
    crown = CrownAnnotation(id=3, class_label="dead", cx=cx, cy=cy, radius_px=radius)
    with address_space_cap(64 << 20):
        ys, xs = disc_pixels(crown.cx, crown.cy, crown.radius_px, 64, 64)
        labels = rasterize_labels(AnnotationSet((crown,)), 64, 64)
        assert leaves(crown, 64, 64) == leaves_grid
    assert len(xs) == labels.sum() == in_grid
    assert ((xs >= 0) & (xs < 64) & (ys >= 0) & (ys < 64)).all()


def squares_rule(cx, cy, radius, width, height):
    """The disc rule by squares alone, over the clamped bounding box: the
    squared distances and which points lie inside, and whether every
    square stayed finite."""
    (rows, cols), _, _ = disc_box(cx, cy, radius, width, height)
    ys, xs = np.mgrid[rows, cols]
    with np.errstate(over="ignore"):
        sq = np.square(xs - cx) + np.square(ys - cy)
        r2 = radius * radius
    return sq, sq <= r2, bool(np.isfinite(sq).all()) and math.isfinite(r2)


@settings(max_examples=500, deadline=None)
@given(
    cx=on_lattice(-40, 64) | st.floats(-1e160, 1e160),
    cy=on_lattice(-40, 64) | st.floats(-1e160, 1e160),
    radius=on_lattice(0, 30).filter(bool) | st.floats(0.004, 1e160),
    width=st.integers(1, 24),
    height=st.integers(1, 24),
)
def test_finite_squares_keep_the_squares_rule(cx, cy, radius, width, height):
    crown = CrownAnnotation(id=0, class_label="dead", cx=cx, cy=cy, radius_px=radius)
    want_sq, want_inside, finite = squares_rule(crown.cx, crown.cy, crown.radius_px, width, height)
    assume(finite)
    _, sq, inside = disc_box(crown.cx, crown.cy, crown.radius_px, width, height)
    np.testing.assert_array_equal(np.broadcast_to(sq, want_sq.shape).view(np.uint64), want_sq.view(np.uint64))
    np.testing.assert_array_equal(inside, want_inside)
