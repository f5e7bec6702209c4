"""Crown annotation records shared by training, augmentation and scoring.

Serialized form is JSON: ``{"crowns": [{"id", "class", "cx", "cy",
"radius_px"}, ...]}``. Crowns are discs; a crown's pixel set is every
lattice point within ``radius_px`` of its centroid, clipped to the grid
it is being evaluated against. This module holds the one disc rule:
``disc_box`` evaluates it over a disc's bounding box clamped to the grid,
so a disc costs at most the grid; ``disc_pixels`` lists one crown's
pixels from that box, ``rasterize_labels`` the union mask of a set of
crowns, which training labels and per-class index statistics both use,
and ``check_within`` whether a disc leaves the grid, listing no pixel.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import BoundsError, FormatError, LabelError
from .jsondoc import read_document, take

CLASS_LABELS = ("healthy", "smallish", "dead")

# Sub-pixel coordinate grid (1/256 px). Snapping keeps mirror and shift
# transforms exactly invertible in float arithmetic: reflections of
# arbitrary doubles can lose their lowest mantissa bit, but k/256 values
# against integer raster widths never do.
COORD_DENOMINATOR = 256


def snap_coord(value: float) -> float:
    return round(value * COORD_DENOMINATOR) / COORD_DENOMINATOR


@dataclass(frozen=True)
class CrownAnnotation:
    id: int
    class_label: str
    cx: float
    cy: float
    radius_px: float

    def __post_init__(self):
        for name in ("cx", "cy", "radius_px"):
            value = getattr(self, name)
            # the snapped value must be finite too, or snapping overflows
            if not abs(value * COORD_DENOMINATOR) < math.inf:
                raise FormatError(f"crown {self.id}: {name} must be finite, got {value}")
        if self.class_label not in CLASS_LABELS:
            raise LabelError(
                f"crown {self.id}: unknown class {self.class_label!r}; "
                f"expected one of {list(CLASS_LABELS)}"
            )
        object.__setattr__(self, "cx", snap_coord(self.cx))
        object.__setattr__(self, "cy", snap_coord(self.cy))
        object.__setattr__(self, "radius_px", snap_coord(self.radius_px))
        if not self.radius_px > 0:
            raise FormatError(f"crown {self.id}: radius_px must be > 0, got {self.radius_px}")


def _in_disc(xs, ys, cx: float, cy: float, radius: float):
    """The squared distances of lattice points (xs, ys) from (cx, cy), and
    whether each lies within ``radius``: the one disc rule. Squares
    decide; where a squared distance or the radius squared overflows to
    inf, ``hypot`` decides, so a huge or far-off disc holds exactly its
    points."""
    dx, dy = np.subtract(xs, cx), np.subtract(ys, cy)
    with np.errstate(over="ignore"):
        sq = np.square(dx) + np.square(dy)
    r2 = radius * radius
    inside = sq <= r2
    if math.isinf(r2) or np.isinf(sq).any():
        inside = np.where(np.isinf(sq) | math.isinf(r2), np.hypot(dx, dy) <= radius, inside)
    return sq, inside


def disc_box(
    cx: float, cy: float, radius: float, width: int, height: int
) -> tuple[tuple[slice, slice], np.ndarray, np.ndarray]:
    """The disc rule over the disc's bounding box clamped to the
    width x height grid.

    Returns ``(rows, cols)``, the box as slices of the grid, then the
    squared distance of each of its lattice points from (cx, cy) and
    whether each lies within ``radius``, both box-shaped. So
    ``plane[rows, cols][inside]`` are the disc's samples in row-major
    order, and a disc far off or far larger than the grid costs at most
    the grid.
    """
    # the bounding box's columns and rows as half-open ranges, clamped to the grid
    x0, x1 = (min(max(v, 0), width) for v in (math.floor(cx - radius), math.ceil(cx + radius) + 1))
    y0, y1 = (min(max(v, 0), height) for v in (math.floor(cy - radius), math.ceil(cy + radius) + 1))
    ys, xs = np.ogrid[y0:y1, x0:x1]
    return (slice(y0, y1), slice(x0, x1)), *_in_disc(xs, ys, cx, cy, radius)


def disc_pixels(cx: float, cy: float, radius: float, width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """Lattice points of the width x height grid within ``radius`` of
    (cx, cy), as (ys, xs) arrays in row-major order, from ``disc_box``."""
    (rows, cols), _, inside = disc_box(cx, cy, radius, width, height)
    ys, xs = np.nonzero(inside)
    return ys + rows.start, xs + cols.start


@dataclass(frozen=True)
class AnnotationSet:
    crowns: tuple[CrownAnnotation, ...]

    def __post_init__(self):
        crowns = tuple(self.crowns)
        ids = [c.id for c in crowns]
        if len(set(ids)) != len(ids):
            raise FormatError(f"duplicate crown ids: {sorted(ids)}")
        object.__setattr__(self, "crowns", crowns)

    def __len__(self) -> int:
        return len(self.crowns)

    def __iter__(self):
        return iter(self.crowns)

    def of_class(self, label: str) -> tuple[CrownAnnotation, ...]:
        return tuple(c for c in self.crowns if c.class_label == label)

    def check_within(self, width: int, height: int) -> None:
        """Raise BoundsError naming the first crown whose disc leaves the grid.

        A disc without its lattice point nearest the centre, (round(cx),
        round(cy)), has no point; one with it off the grid leaves. A disc's
        points are 4-connected, so one with it on the grid leaves exactly
        when it has a point in the 1 px ring around the grid."""
        for crown in self.crowns:
            cx, cy, r = crown.cx, crown.cy, crown.radius_px
            px, py = np.rint(cx), np.rint(cy)
            if not _in_disc(px, py, cx, cy, r)[1]:
                continue
            ring = ((px, -1), (px, height), (-1, py), (width, py))
            if not (0 <= px < width and 0 <= py < height) or any(_in_disc(x, y, cx, cy, r)[1] for x, y in ring):
                raise BoundsError(
                    f"crown {crown.id} ({crown.class_label}) at "
                    f"({crown.cx}, {crown.cy}) r={crown.radius_px} leaves the "
                    f"{width}x{height} grid"
                )

    def scaled(self, factor: float) -> "AnnotationSet":
        return AnnotationSet(
            tuple(
                replace(c, cx=c.cx * factor, cy=c.cy * factor, radius_px=c.radius_px * factor)
                for c in self.crowns
            )
        )


def rasterize_labels(ann: AnnotationSet, width: int, height: int) -> np.ndarray:
    """Boolean palm mask: True inside any crown disc (clipped to the grid)."""
    out = np.zeros((height, width), dtype=bool)
    for crown in ann.crowns:
        box, _, inside = disc_box(crown.cx, crown.cy, crown.radius_px, width, height)
        out[box] |= inside
    return out


def save_annotations(ann: AnnotationSet, path) -> None:
    payload = {
        "crowns": [
            {
                "id": c.id,
                "class": c.class_label,
                "cx": c.cx,
                "cy": c.cy,
                "radius_px": c.radius_px,
            }
            for c in ann.crowns
        ]
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_annotations(path) -> AnnotationSet:
    where = f"annotations {path}"
    entries = take(read_document(path, "annotations"), "crowns", tuple[dict, ...], where)
    crowns = []
    for i, entry in enumerate(entries):
        at = f"{where} crowns[{i}]"
        crowns.append(
            CrownAnnotation(
                id=take(entry, "id", int, at),
                class_label=take(entry, "class", str, at),
                cx=take(entry, "cx", float, at),
                cy=take(entry, "cy", float, at),
                radius_px=take(entry, "radius_px", float, at),
            )
        )
    return AnnotationSet(tuple(crowns))
