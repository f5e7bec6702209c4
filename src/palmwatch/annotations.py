"""Crown annotation records shared by training, augmentation and scoring.

Serialized form is JSON: ``{"crowns": [{"id", "class", "cx", "cy",
"radius_px"}, ...]}``. Crowns are discs; a crown's pixel set is every
lattice point within ``radius_px`` of its centroid, clipped to the grid
it is being evaluated against.
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


def disc_pixels(
    cx: float, cy: float, radius: float, width: int, height: int, clip: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Lattice points within ``radius`` of (cx, cy), as (ys, xs) arrays.

    With ``clip=True`` points outside the width x height grid are dropped;
    otherwise raw coordinates are returned (possibly negative or beyond
    the grid), which callers use for bounds checking.
    """
    x0 = math.floor(cx - radius)
    x1 = math.ceil(cx + radius)
    y0 = math.floor(cy - radius)
    y1 = math.ceil(cy + radius)
    ys, xs = np.mgrid[y0 : y1 + 1, x0 : x1 + 1]
    inside = (xs - cx) ** 2 + (ys - cy) ** 2 <= radius * radius
    ys, xs = ys[inside], xs[inside]
    if clip:
        keep = (xs >= 0) & (xs < width) & (ys >= 0) & (ys < height)
        ys, xs = ys[keep], xs[keep]
    return ys, xs


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

    def classes_present(self) -> tuple[str, ...]:
        present = {c.class_label for c in self.crowns}
        return tuple(label for label in CLASS_LABELS if label in present)

    def of_class(self, label: str) -> tuple[CrownAnnotation, ...]:
        return tuple(c for c in self.crowns if c.class_label == label)

    def crown_pixels(self, crown: CrownAnnotation, width: int, height: int):
        return disc_pixels(crown.cx, crown.cy, crown.radius_px, width, height)

    def check_within(self, width: int, height: int) -> None:
        """Raise BoundsError naming the first crown whose disc leaves the grid."""
        for crown in self.crowns:
            ys, xs = disc_pixels(
                crown.cx, crown.cy, crown.radius_px, width, height, clip=False
            )
            if len(xs) == 0:
                continue
            if xs.min() < 0 or xs.max() >= width or ys.min() < 0 or ys.max() >= height:
                raise BoundsError(
                    f"crown {crown.id} ({crown.class_label}) at "
                    f"({crown.cx}, {crown.cy}) r={crown.radius_px} leaves the "
                    f"{width}x{height} grid"
                )

    def shifted(self, dx: float, dy: float) -> "AnnotationSet":
        return AnnotationSet(
            tuple(replace(c, cx=c.cx + dx, cy=c.cy + dy) for c in self.crowns)
        )

    def scaled(self, factor: float) -> "AnnotationSet":
        return AnnotationSet(
            tuple(
                replace(c, cx=c.cx * factor, cy=c.cy * factor, radius_px=c.radius_px * factor)
                for c in self.crowns
            )
        )


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
