"""Crown detection, 3-class labeling, truth matching and export.

Detection binarizes the probability map, labels 8-connected components,
and splits oversized components at probability peaks. Health labels come
from a rule cascade over crown spectra and geometry: low mean NDVI means
dead, small equivalent diameter means smallish, otherwise healthy.

Detections export as a GeoJSON FeatureCollection (Point = centroid in
scene pixel coordinates offset by the raster origin) and as CSV with the
same columns. Output ordering and float formatting are deterministic,
so identical runs produce identical bytes.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .annotations import AnnotationSet, CrownAnnotation
from .errors import FormatError, ParameterError, UnclassifiableError
from .indices import normalized_difference
from .jsondoc import read_document, take
from .raster_core import MaskedGrid, Raster

_EIGHT_CONNECTED = np.ones((3, 3), dtype=int)


@dataclass
class DetectorConfig:
    prob_threshold: float = 0.5
    min_area: int = 20
    max_area: int = 4000
    split_min_distance: float = 8.0
    smallish_diameter_px: float = 12.0
    dead_ndvi_max: float = 0.15

    def __post_init__(self):
        if not 0 < self.prob_threshold < 1:
            raise ParameterError(f"prob_threshold must be in (0, 1), got {self.prob_threshold}")
        if not 0 < self.min_area <= self.max_area:
            raise ParameterError(
                f"areas must satisfy 0 < min_area <= max_area, got "
                f"({self.min_area}, {self.max_area})"
            )
        if self.split_min_distance <= 0:
            raise ParameterError(
                f"split_min_distance must be > 0, got {self.split_min_distance}"
            )


@dataclass
class CrownDetection:
    """One detected palm crown."""

    id: int
    centroid: tuple[float, float]
    bbox: tuple[int, int, int, int]
    pixel_count: int
    diameter_px: float
    score: float
    pixels: tuple[np.ndarray, np.ndarray] | None = None
    class_label: str | None = None
    mean_ndvi: float | None = None
    mean_gndvi: float | None = None


def _make_detection(ys: np.ndarray, xs: np.ndarray, prob: MaskedGrid) -> CrownDetection:
    area = len(xs)
    return CrownDetection(
        id=0,
        centroid=(float(xs.mean()), float(ys.mean())),
        bbox=(int(xs.min()), int(ys.min()), int(xs.max()), int(ys.max())),
        pixel_count=area,
        diameter_px=2.0 * math.sqrt(area / math.pi),
        score=float(prob.values[ys, xs].astype(np.float64).mean()),
        pixels=(ys, xs),
    )


def detect_crowns(prob: MaskedGrid, cfg: DetectorConfig) -> list[CrownDetection]:
    """Threshold, label 8-connected components, and filter by area.

    Components larger than max_area go through split_touching; split
    parts below min_area are discarded like any other small component.
    Detections come back sorted by descending score, ties broken by
    centroid (y, x), with ids assigned 1..n in that order.
    """
    binary = prob.valid & (prob.values > cfg.prob_threshold)
    labels, _ = ndimage.label(binary, structure=_EIGHT_CONNECTED)
    detections = []
    for comp, slc in enumerate(ndimage.find_objects(labels), start=1):
        if slc is None:
            continue
        sub = labels[slc] == comp
        ys, xs = np.nonzero(sub)
        ys = ys + slc[0].start
        xs = xs + slc[1].start
        area = len(xs)
        if area < cfg.min_area:
            continue
        if area <= cfg.max_area:
            detections.append(_make_detection(ys, xs, prob))
        else:
            for part_ys, part_xs in split_touching((ys, xs), prob, cfg):
                if len(part_xs) >= cfg.min_area:
                    detections.append(_make_detection(part_ys, part_xs, prob))
    detections.sort(key=lambda d: (-d.score, d.centroid[1], d.centroid[0]))
    for i, det in enumerate(detections, start=1):
        det.id = i
    return detections


def _plateau_seeds(
    ys: np.ndarray, xs: np.ndarray, prob: MaskedGrid
) -> list[tuple[float, int, int]]:
    """Local maxima of the map within a component, one seed per plateau.

    Returns (value, y, x) triples; a flat plateau contributes the pixel
    nearest its own centroid.
    """
    y0, x0 = ys.min(), xs.min()
    h = ys.max() - y0 + 1
    w = xs.max() - x0 + 1
    grid = np.full((h, w), -np.inf)
    member = np.zeros((h, w), dtype=bool)
    grid[ys - y0, xs - x0] = prob.values[ys, xs]
    member[ys - y0, xs - x0] = True
    neighborhood_max = ndimage.maximum_filter(grid, size=3, mode="constant", cval=-np.inf)
    maxima = member & (grid >= neighborhood_max)
    plateau_labels, n_plateaus = ndimage.label(maxima, structure=_EIGHT_CONNECTED)
    seeds = []
    for p in range(1, n_plateaus + 1):
        pys, pxs = np.nonzero(plateau_labels == p)
        cy, cx = pys.mean(), pxs.mean()
        best = np.argmin((pys - cy) ** 2 + (pxs - cx) ** 2)
        seeds.append(
            (float(grid[pys[best], pxs[best]]), int(pys[best] + y0), int(pxs[best] + x0))
        )
    return seeds


def split_touching(
    pixels: tuple[np.ndarray, np.ndarray], prob: MaskedGrid, cfg: DetectorConfig
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Partition an oversized component at its probability peaks.

    Peaks closer than split_min_distance are merged (the strongest wins);
    a single surviving peak returns the component whole. Otherwise each
    pixel joins its nearest seed, which yields an exact partition.
    """
    ys, xs = pixels
    seeds = _plateau_seeds(ys, xs, prob)
    seeds.sort(key=lambda s: (-s[0], s[1], s[2]))
    kept: list[tuple[int, int]] = []
    min_d2 = cfg.split_min_distance**2
    for _, sy, sx in seeds:
        if all((sy - ky) ** 2 + (sx - kx) ** 2 >= min_d2 for ky, kx in kept):
            kept.append((sy, sx))
    if len(kept) <= 1:
        return [(ys, xs)]
    seed_ys = np.array([s[0] for s in kept])
    seed_xs = np.array([s[1] for s in kept])
    d2 = (ys[:, None] - seed_ys[None, :]) ** 2 + (xs[:, None] - seed_xs[None, :]) ** 2
    owner = np.argmin(d2, axis=1)
    return [(ys[owner == i], xs[owner == i]) for i in range(len(kept))]


def classify_crown(
    det: CrownDetection,
    raster: Raster,
    cfg: DetectorConfig,
    valid_bits: np.ndarray | None = None,
) -> str:
    """Apply the health-rule cascade and record crown spectra on ``det``.

    dead  if mean NDVI <= dead_ndvi_max,
    else smallish if equivalent diameter < smallish_diameter_px,
    else healthy.

    ``valid_bits`` lets callers reuse one validity mask across many
    detections. Raises UnclassifiableError when the crown has no valid
    pixels.
    """
    if det.pixels is None:
        raise UnclassifiableError(f"detection {det.id} carries no pixel set")
    if valid_bits is None:
        valid_bits = raster.valid_mask().bits
    ys, xs = det.pixels
    nir, red, green = (
        raster.band(name).samples[ys, xs].astype(np.float64) for name in ("nir", "red", "green")
    )
    ok = valid_bits[ys, xs]
    ndvi_values, ndvi_ok = normalized_difference(nir, red, ok)
    gndvi_values, gndvi_ok = normalized_difference(nir, green, ok)
    if not ndvi_ok.any() or not gndvi_ok.any():
        raise UnclassifiableError(
            f"detection {det.id} at {det.centroid} has no valid pixels to classify"
        )
    det.mean_ndvi = float(ndvi_values[ndvi_ok].mean())
    det.mean_gndvi = float(gndvi_values[gndvi_ok].mean())

    if det.mean_ndvi <= cfg.dead_ndvi_max:
        det.class_label = "dead"
    elif det.diameter_px < cfg.smallish_diameter_px:
        det.class_label = "smallish"
    else:
        det.class_label = "healthy"
    return det.class_label


def classify_detections(
    detections: list[CrownDetection], raster: Raster, cfg: DetectorConfig
) -> list[CrownDetection]:
    valid_bits = raster.valid_mask().bits
    for det in detections:
        classify_crown(det, raster, cfg, valid_bits)
    return detections


@dataclass
class MatchResult:
    matches: list[tuple[CrownDetection, CrownAnnotation]]
    false_positives: list[CrownDetection]
    false_negatives: list[CrownAnnotation]


def match_detections(
    detections: list[CrownDetection],
    truth: AnnotationSet,
    max_centroid_dist: float,
) -> MatchResult:
    """Greedy one-to-one matching by ascending centroid distance.

    Candidate pairs are ordered by (distance, detection index, truth
    index), so ties resolve stably; pairs beyond max_centroid_dist are
    rejected. Unmatched detections are false positives, unmatched truth
    crowns false negatives.
    """
    if max_centroid_dist <= 0:
        raise ParameterError(f"max_centroid_dist must be > 0, got {max_centroid_dist}")
    crowns = list(truth.crowns)
    pairs = []
    for di, det in enumerate(detections):
        dx, dy = det.centroid
        for ti, crown in enumerate(crowns):
            dist = math.hypot(dx - crown.cx, dy - crown.cy)
            if dist <= max_centroid_dist:
                pairs.append((dist, di, ti))
    pairs.sort()
    used_d: set[int] = set()
    used_t: set[int] = set()
    matches = []
    for dist, di, ti in pairs:
        if di in used_d or ti in used_t:
            continue
        used_d.add(di)
        used_t.add(ti)
        matches.append((detections[di], crowns[ti]))
    return MatchResult(
        matches=matches,
        false_positives=[d for i, d in enumerate(detections) if i not in used_d],
        false_negatives=[c for i, c in enumerate(crowns) if i not in used_t],
    )


def _round_trip_float(value: float | None):
    return None if value is None else float(value)


def detections_to_geojson(
    detections: list[CrownDetection], origin: tuple[int, int] = (0, 0)
) -> dict:
    features = []
    for det in detections:
        features.append(
            {
                "type": "Feature",
                "geometry": {
                    "type": "Point",
                    "coordinates": [det.centroid[0] + origin[0], det.centroid[1] + origin[1]],
                },
                "properties": {
                    "id": det.id,
                    "class": det.class_label,
                    "score": det.score,
                    "diameter_px": det.diameter_px,
                    "pixel_count": det.pixel_count,
                    "bbox": [
                        det.bbox[0] + origin[0],
                        det.bbox[1] + origin[1],
                        det.bbox[2] + origin[0],
                        det.bbox[3] + origin[1],
                    ],
                    "mean_ndvi": _round_trip_float(det.mean_ndvi),
                    "mean_gndvi": _round_trip_float(det.mean_gndvi),
                },
            }
        )
    return {"type": "FeatureCollection", "features": features}


def write_geojson(detections: list[CrownDetection], path, origin: tuple[int, int] = (0, 0)) -> None:
    Path(path).write_text(json.dumps(detections_to_geojson(detections, origin), indent=2) + "\n")


def load_geojson(path) -> list[CrownDetection]:
    """Read detections back from a GeoJSON export (pixel sets are not stored)."""
    where = f"detections {path}"
    payload = read_document(path, "detections")
    if payload.get("type") != "FeatureCollection":
        raise FormatError(f"{where} must be a FeatureCollection")
    detections = []
    for i, feature in enumerate(take(payload, "features", tuple[dict, ...], where, default=())):
        at = f"{where} features[{i}]"
        geometry = take(feature, "geometry", dict, at)
        props = take(feature, "properties", dict, at)
        detections.append(
            CrownDetection(
                id=take(props, "id", int, at),
                centroid=take(geometry, "coordinates", tuple[float, float], at),
                bbox=take(props, "bbox", tuple[int, int, int, int], at),
                pixel_count=take(props, "pixel_count", int, at),
                diameter_px=take(props, "diameter_px", float, at),
                score=take(props, "score", float, at),
                class_label=take(props, "class", str | None, at, default=None),
                mean_ndvi=take(props, "mean_ndvi", float | None, at, default=None),
                mean_gndvi=take(props, "mean_gndvi", float | None, at, default=None),
            )
        )
    return detections


CSV_COLUMNS = (
    "id",
    "class",
    "x",
    "y",
    "score",
    "diameter_px",
    "pixel_count",
    "x_min",
    "y_min",
    "x_max",
    "y_max",
    "mean_ndvi",
    "mean_gndvi",
)


def write_csv(detections: list[CrownDetection], path, origin: tuple[int, int] = (0, 0)) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for det in detections:
            writer.writerow(
                [
                    det.id,
                    det.class_label if det.class_label is not None else "",
                    repr(det.centroid[0] + origin[0]),
                    repr(det.centroid[1] + origin[1]),
                    repr(det.score),
                    repr(det.diameter_px),
                    det.pixel_count,
                    det.bbox[0] + origin[0],
                    det.bbox[1] + origin[1],
                    det.bbox[2] + origin[0],
                    det.bbox[3] + origin[1],
                    "" if det.mean_ndvi is None else repr(det.mean_ndvi),
                    "" if det.mean_gndvi is None else repr(det.mean_gndvi),
                ]
            )
