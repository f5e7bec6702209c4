"""Crown detection, 3-class labeling, truth matching and export.

Detection binarizes the probability map, labels 8-connected components,
and splits oversized components at probability peaks. Each stage is
near-linear in pixels, components, seeds and crowns: component areas
come from one ``bincount``, and splitting and truth matching look up
neighbours in k-d trees instead of comparing all pairs. Health labels come
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
from scipy.spatial import cKDTree

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
        if not 0 < self.split_min_distance < math.inf:
            raise ParameterError(
                f"split_min_distance must be finite and > 0, got {self.split_min_distance}"
            )
        for name in ("smallish_diameter_px", "dead_ndvi_max"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")


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

    Component areas are counted once, so components below min_area are
    skipped before any per-component work. Components larger than
    max_area go through split_touching; split parts below min_area are
    discarded like any other small component. Detections come back
    sorted by descending score, ties broken by centroid (y, x), with ids
    assigned 1..n in that order.
    """
    binary = prob.valid & (prob.values > cfg.prob_threshold)
    labels, _ = ndimage.label(binary, structure=_EIGHT_CONNECTED)
    areas = np.bincount(labels[binary])
    objects = ndimage.find_objects(labels)
    detections = []
    # label 0 is the background and has area 0 < min_area
    for comp in np.flatnonzero(areas >= cfg.min_area):
        slc = objects[comp - 1]
        ys, xs = np.nonzero(labels[slc] == comp)
        ys = ys + slc[0].start
        xs = xs + slc[1].start
        if areas[comp] <= cfg.max_area:
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local maxima of the map within a component, one seed per plateau.

    Returns (values, ys, xs) arrays, one entry per plateau in label
    order. A flat plateau contributes its pixel nearest its own centroid,
    the first in raster order on a tie.
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
    pys, pxs = np.nonzero(maxima)
    plateau = plateau_labels[pys, pxs] - 1
    counts = np.bincount(plateau, minlength=n_plateaus)
    # sums of integers in float64 are exact, so these equal each plateau's mean
    cy = np.bincount(plateau, weights=pys, minlength=n_plateaus) / counts
    cx = np.bincount(plateau, weights=pxs, minlength=n_plateaus) / counts
    d2 = (pys - cy[plateau]) ** 2 + (pxs - cx[plateau]) ** 2
    order = np.lexsort((np.arange(len(pys)), d2, plateau))
    best = order[np.cumsum(counts) - counts]
    return grid[pys[best], pxs[best]], pys[best] + y0, pxs[best] + x0


def _suppress_close_seeds(
    seed_ys: np.ndarray, seed_xs: np.ndarray, min_distance: float
) -> np.ndarray:
    """Indices of the seeds a greedy pass keeps, in input (strength) order.

    A seed is kept unless an earlier kept seed lies closer than
    ``min_distance``, tested exactly on integer squared distances. Only
    kept seeds query the k-d tree, and kept seeds are at least
    ``min_distance`` apart, so each seed is returned by a handful of
    queries whatever ``min_distance`` is.
    """
    points = np.column_stack((seed_ys, seed_xs))
    tree = cKDTree(points)
    # ** rounds like earlier versions (r * r differs in the last bit for
    # some r); a square beyond the float range means no seed is far enough
    min_d2 = min_distance**2 if min_distance < 1e154 else math.inf
    # the tree's radius test is in floating point, so it searches a hair
    # wider and the exact integer test decides
    radius = min_distance * (1 + 1e-9)
    suppressed = np.zeros(len(points), dtype=bool)
    kept = []
    for i in range(len(points)):
        if suppressed[i]:
            continue
        kept.append(i)
        near = np.array(tree.query_ball_point(points[i], radius), dtype=np.intp)
        near = near[((points[near] - points[i]) ** 2).sum(axis=1) < min_d2]
        suppressed[near] = True
    return np.array(kept)


def _nearest_seed(
    ys: np.ndarray, xs: np.ndarray, seed_ys: np.ndarray, seed_xs: np.ndarray
) -> np.ndarray:
    """Index of each pixel's nearest seed, the lowest index on a tie.

    Takes the k nearest candidates from a k-d tree and compares exact
    integer squared distances. Where the k-th candidate ties the
    minimum, more seeds may tie, so those rows fall back to a full
    argmin, in blocks that keep memory bounded.
    """
    n = len(seed_ys)
    k = min(n, 4)
    _, cand = cKDTree(np.column_stack((seed_ys, seed_xs))).query(np.column_stack((ys, xs)), k=k)
    d2 = (ys[:, None] - seed_ys[cand]) ** 2 + (xs[:, None] - seed_xs[cand]) ** 2
    best = d2.min(axis=1)
    owner = np.where(d2 == best[:, None], cand, n).min(axis=1)
    if k < n:
        tied = np.flatnonzero(d2[:, -1] == best)
        block = max(1, 2**20 // n)
        for start in range(0, len(tied), block):
            rows = tied[start : start + block]
            full = (ys[rows, None] - seed_ys) ** 2 + (xs[rows, None] - seed_xs) ** 2
            owner[rows] = np.argmin(full, axis=1)
    return owner


def split_touching(
    pixels: tuple[np.ndarray, np.ndarray], prob: MaskedGrid, cfg: DetectorConfig
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Partition an oversized component at its probability peaks.

    Seeds are taken strongest first (ties by y, then x); a seed closer
    than split_min_distance to a stronger kept seed is dropped. A single
    surviving seed returns the component whole. Otherwise each pixel
    joins its nearest kept seed, the strongest on a tie, which yields an
    exact partition; each part keeps the component's pixel order. Time
    and memory grow near-linearly with pixels and seeds.
    """
    ys, xs = pixels
    values, seed_ys, seed_xs = _plateau_seeds(ys, xs, prob)
    strength = np.lexsort((seed_xs, seed_ys, -values))
    seed_ys, seed_xs = seed_ys[strength], seed_xs[strength]
    kept = _suppress_close_seeds(seed_ys, seed_xs, cfg.split_min_distance)
    if len(kept) <= 1:
        return [(ys, xs)]
    owner = _nearest_seed(ys, xs, seed_ys[kept], seed_xs[kept])
    order = np.argsort(owner, kind="stable")
    ends = np.cumsum(np.bincount(owner, minlength=len(kept)))[:-1]
    return [(ys[part], xs[part]) for part in np.split(order, ends)]


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
    detections: list[CrownDetection],
    raster: Raster,
    cfg: DetectorConfig,
    valid_bits: np.ndarray | None = None,
) -> list[CrownDetection]:
    """Classify every detection; ``valid_bits`` is the raster's validity
    mask when the caller already has it, and is computed otherwise."""
    if valid_bits is None:
        valid_bits = raster.valid_mask().bits
    for det in detections:
        classify_crown(det, raster, cfg, valid_bits)
    return detections


def check_max_centroid_dist(value: float) -> None:
    """Raise ParameterError unless ``0 < value < inf``."""
    if not 0 < value < math.inf:
        raise ParameterError(f"max_centroid_dist must be finite and > 0, got {value}")


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
    crowns false negatives. Candidates come from a k-d tree, so the cost
    grows with the pairs within reach, not with detections x crowns.
    """
    check_max_centroid_dist(max_centroid_dist)
    crowns = list(truth.crowns)
    # The tree's squared distances overflow beyond about 1e154, so it sees
    # coordinates clipped to +-1e150: clipping lengthens no pair, and every
    # clipped pair is closer than 1e151, so no pair within reach is lost.
    # Its distances may differ from hypot in the last bits, so it searches
    # a hair wider and hypot decides, as it did for every pair.
    det_points = np.array([d.centroid for d in detections], dtype=np.float64).reshape(-1, 2)
    truth_points = np.array([(c.cx, c.cy) for c in crowns], dtype=np.float64).reshape(-1, 2)
    tree = cKDTree(np.clip(truth_points, -1e150, 1e150))
    radius = min(max_centroid_dist * (1 + 1e-9), 1e151)
    near = tree.query_ball_point(np.clip(det_points, -1e150, 1e150), radius)
    pairs = []
    for di, (det, candidates) in enumerate(zip(detections, near)):
        dx, dy = det.centroid
        for ti in candidates:
            dist = math.hypot(dx - crowns[ti].cx, dy - crowns[ti].cy)
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
        det = CrownDetection(
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
        numbers = (*det.centroid, det.score, det.diameter_px, det.mean_ndvi, det.mean_gndvi)
        if not all(math.isfinite(v) for v in numbers if v is not None):
            raise FormatError(
                f"{at}: coordinates, score, diameter_px, mean_ndvi and mean_gndvi must be finite"
            )
        detections.append(det)
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
