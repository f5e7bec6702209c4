"""Crown detection, 3-class labeling, truth matching and export.

Detection binarizes the probability map, labels 8-connected components,
and splits oversized components by marker-controlled watershed on the
smoothed probability (Meyer & Beucher 1990; Wang, Gong & Biging 2004
for tree crowns). Each stage is near-linear in pixels, components and
crowns: after labelling, only the foreground pixels are read, and one
sort groups the kept components' pixels; splitting runs a fixed number
of filters and one watershed over the component's bounding box,
classification reads the band samples gathered at the foreground pixels
once per block of crowns, at all their pixels together, and truth
matching looks up neighbours in a k-d tree instead of comparing all
pairs. Health labels come from a rule cascade
over crown spectra and geometry: low mean NDVI means dead, small
equivalent diameter means smallish, otherwise healthy.

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

from . import raster_core
from .annotations import AnnotationSet, CrownAnnotation
from .errors import FormatError, ParameterError, UnclassifiableError
from .indices import INDEX_REGISTRY, normalized_difference
from .jsondoc import read_document, take
from .raster_core import Band, MaskedGrid, Raster

_EIGHT_CONNECTED = np.ones((3, 3), dtype=int)
# Smoothing of the splitting relief in px: it merges the noise peaks
# inside one crown and keeps the peaks of touching crowns apart.
_SPLIT_SIGMA = 2.0


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
        # the integer sums are exact, so this is the division mean makes
        centroid=(float(xs.sum()) / area, float(ys.sum()) / area),
        bbox=(int(xs.min()), int(ys.min()), int(xs.max()), int(ys.max())),
        pixel_count=area,
        diameter_px=2.0 * math.sqrt(area / math.pi),
        score=float(prob.values[ys, xs].astype(np.float64).mean()),
        pixels=(ys, xs),
    )


def detect_crowns(prob: MaskedGrid, cfg: DetectorConfig) -> list[CrownDetection]:
    """Threshold, label 8-connected components, and filter by area.

    After labelling, only the foreground pixels are read: component areas
    are counted from their labels, components below min_area are dropped
    before any per-component work, and the pixels of the kept ones are
    grouped by one in-place sort, each component's in raster order.
    Components larger than max_area go through split_touching; split
    parts below min_area are discarded like any other small component.
    Detections come back sorted by descending score, ties broken by
    centroid (y, x), with ids assigned 1..n in that order.
    """
    height, width = prob.values.shape
    binary = prob.above(cfg.prob_threshold)
    labels, _ = ndimage.label(binary, structure=_EIGHT_CONNECTED)
    keys = np.flatnonzero(binary)
    del binary
    # each foreground pixel's label, then its component's rank
    rank = labels.ravel()[keys]
    del labels
    sizes = np.bincount(rank, minlength=1)
    # label 0 is the background and has area 0 < min_area
    kept = sizes >= cfg.min_area
    # the kept components ranked 1..K in label order, the others 0; a take
    # in mode "raise" would buffer a copy of its output
    np.take((np.cumsum(kept) * kept).astype(rank.dtype), rank, out=rank, mode="clip")
    # component i's pixels end up at bounds[i - 1]:bounds[i]
    bounds = [0, *np.cumsum(sizes[kept]).tolist()]
    # a pixel's key is rank * pixels + its raster offset, in int64 whatever
    # the rank's dtype: the kept pixels' keys are distinct, so sorting them
    # in place groups the pixels by component, each in raster order,
    # without an index array
    pixels = height * width
    keys += np.multiply(rank, pixels, dtype=np.int64)
    del rank
    keys = keys[keys >= pixels]
    keys.sort()
    np.remainder(keys, pixels, out=keys)
    ys = keys // width
    xs = np.remainder(keys, width, out=keys)
    detections = []
    for lo, hi in zip(bounds, bounds[1:]):
        if hi - lo <= cfg.max_area:
            detections.append(_make_detection(ys[lo:hi], xs[lo:hi], prob))
            continue
        # each part is written back over the component's own pixels, so
        # that every detection's pixels are views of ys and xs and no pixel
        # is held twice
        for part_ys, part_xs in split_touching((ys[lo:hi], xs[lo:hi]), prob, cfg):
            part = slice(lo, lo + len(part_xs))
            ys[part], xs[part], lo = part_ys, part_xs, part.stop
            if len(part_xs) >= cfg.min_area:
                detections.append(_make_detection(ys[part], xs[part], prob))
    detections.sort(key=lambda d: (-d.score, d.centroid[1], d.centroid[0]))
    for i, det in enumerate(detections, start=1):
        det.id = i
    return detections


def split_touching(
    pixels: tuple[np.ndarray, np.ndarray], prob: MaskedGrid, cfg: DetectorConfig
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Partition an oversized component by marker-controlled watershed.

    The relief is the component's probability (0 outside it) smoothed by
    a Gaussian of ``_SPLIT_SIGMA`` px. The markers are the component
    pixels where the relief equals its maximum over the square window of
    half-width split_min_distance (at least 1 px) around them, one marker
    per 8-connected group; of equal groups within one window only the
    last in raster order is kept, so separate markers lie more than
    split_min_distance apart. A single marker returns the component
    whole. Otherwise the watershed of the inverted relief floods from the
    markers inside the component, and each pixel joins the marker whose
    basin reaches it, which yields an exact partition; each part keeps
    the component's pixel order. Time and memory grow near-linearly with
    the component's bounding box.
    """
    ys, xs = pixels
    # the component's bounding box and a 1 px border of background
    y0, x0 = ys.min() - 1, xs.min() - 1
    box = (ys.max() - y0 + 2, xs.max() - x0 + 2)
    ly, lx = ys - y0, xs - x0
    relief = np.zeros(box)
    relief[ly, lx] = prob.values[ys, xs]
    relief = ndimage.gaussian_filter(relief, _SPLIT_SIGMA, mode="constant")
    inside = relief[ly, lx]
    # a marker tops at least its 8 neighbours, and a window wider than
    # the box finds the same maxima
    size = 2 * int(min(max(cfg.split_min_distance, 1.0), max(box))) + 1
    peaks = np.zeros(box, dtype=bool)
    peaks[ly, lx] = inside == ndimage.maximum_filter(relief, size=size)[ly, lx]
    # a flat top is one group; of equal groups that share a window (mirror-
    # image crowns) only the last in raster order stays a marker
    groups, n_groups = ndimage.label(peaks, structure=_EIGHT_CONNECTED)
    keep = np.ones(n_groups + 1, dtype=bool)
    keep[0] = False
    keep[groups[peaks & (groups != ndimage.maximum_filter(groups, size=size))]] = False
    n_markers = np.count_nonzero(keep)
    if n_markers <= 1:
        return [(ys, xs)]
    # the kept groups, numbered 1..n_markers in raster order
    markers = (np.cumsum(keep) * keep).astype(np.int32)[groups]
    # watershed_ift floods uint16 levels: the component's inverted relief
    # spans 0..65534, so the 65535 outside it never offers a cheaper path.
    # Only a pixel set of several components can be flat with two markers.
    levels = np.full(box, 65535, dtype=np.uint16)
    levels[ly, lx] = np.rint((inside.max() - inside) / (np.ptp(inside) or 1.0) * 65534)
    basins = ndimage.watershed_ift(levels, markers, structure=_EIGHT_CONNECTED)
    owner = basins[ly, lx] - 1
    order = np.argsort(owner, kind="stable")
    ends = np.cumsum(np.bincount(owner, minlength=n_markers))[:-1]
    return [(ys[part], xs[part]) for part in np.split(order, ends)]


@dataclass(frozen=True)
class PixelSamples:
    """A scene's band samples at some of its pixels: what classification
    reads crown spectra from, so that no caller has to hold the scene.

    Column i of ``values`` (bands x N, float32, in ``band_names`` order)
    holds the samples at raster offset ``offsets[i]`` (y * width + x) of
    the ``width`` x ``height`` scene, its nodata included as it is.
    """

    width: int
    height: int
    band_names: tuple[str, ...]
    nodata_value: float | None
    offsets: np.ndarray
    values: np.ndarray

    @classmethod
    def gather(cls, rows: Raster, where: np.ndarray, height: int | None = None, top: int = 0) -> "PixelSamples":
        """The samples of ``rows`` where the boolean grid ``where`` (of
        their shape) holds: ``rows`` are the rows from ``top`` on of a
        scene of their width and ``height`` rows, by default the rows
        themselves. A row band of a scene gathers with its place in the
        scene, and ``join`` makes one set of the bands' parts."""
        flat = np.flatnonzero(where)
        values = np.empty((len(rows.bands), len(flat)), dtype=np.float32)
        for out, band in zip(values, rows.bands):
            np.take(band.samples.ravel(), flat, out=out)
        flat += top * rows.width
        return cls(rows.width, height or rows.height, rows.band_names, rows.nodata_value, flat, values)

    @classmethod
    def join(cls, parts: list["PixelSamples"]) -> "PixelSamples":
        """One set of the pixels of ``parts``: disjoint sets of one scene's
        pixels, gathered from the same bands."""
        first = parts[0]
        return cls(
            first.width, first.height, first.band_names, first.nodata_value,
            np.concatenate([p.offsets for p in parts]), np.concatenate([p.values for p in parts], axis=1),
        )


def classify_detections(
    detections: list[CrownDetection], samples: PixelSamples, cfg: DetectorConfig
) -> list[CrownDetection]:
    """Apply the health-rule cascade to every detection and record its
    crown spectra (mean NDVI and gNDVI over the crown's valid pixels):

    dead  if mean NDVI <= dead_ndvi_max,
    else smallish if equivalent diameter < smallish_diameter_px,
    else healthy.

    The spectra come from ``samples``, which must hold every crown pixel;
    the pixels of ``detect_crowns``' detections are foreground pixels, so
    the samples gathered where the map is above ``cfg.prob_threshold``
    hold them. Each pixel's column is looked up in one int32 plane of the
    scene's grid, built here as a sparse set (Briggs and Torczon, 1993)
    that is never filled: an entry is a pixel's column only where that
    column's offset is the pixel. Consecutive detections are classified in
    blocks of at most ``raster_core.BLOCK_PX`` pixels, a few MB of
    working set on any scene. A block closes before the next crown would
    take it past that, and a larger crown is a block of its own, so a
    block of several crowns is one row block of the index kernel, which
    runs in the calling thread. The bands are read once per block, at
    the pixels of all its crowns together, and a pixel is valid by the
    raster's own rule (``valid_mask``). Raises UnclassifiableError when a
    detection carries no pixels, has a pixel the samples lack, or has no
    valid pixels.
    """
    for det in detections:
        if det.pixels is None or len(det.pixels[1]) == 0:
            raise UnclassifiableError(f"detection {det.id} carries no pixels")
    if not detections:
        return detections
    n = len(samples.offsets)
    if n == 0:
        _raise_missing(detections[0])
    # each sample's column at its pixel; the other entries are garbage
    columns = np.empty(samples.height * samples.width, dtype=np.int32 if n < 2**31 else np.int64)
    columns[samples.offsets] = np.arange(n, dtype=columns.dtype)
    columns = columns.reshape(samples.height, samples.width)
    block, size = [], 0
    for det in detections:
        n = len(det.pixels[1])
        if block and size + n > raster_core.BLOCK_PX:
            _classify_block(block, columns, samples, cfg)
            block, size = [], 0
        block.append(det)
        size += n
    if block:
        _classify_block(block, columns, samples, cfg)
    return detections


def _raise_missing(det: CrownDetection) -> None:
    raise UnclassifiableError(f"detection {det.id} at {det.centroid} has a pixel the samples lack")


def _classify_block(
    detections: list[CrownDetection], columns: np.ndarray, samples: PixelSamples, cfg: DetectorConfig
) -> None:
    ys = np.concatenate([det.pixels[0] for det in detections])
    xs = np.concatenate([det.pixels[1] for det in detections])
    cols = columns[ys, xs]
    pixel = np.multiply(ys, samples.width, dtype=np.int64)
    pixel += xs
    # a garbage entry may be any integer: mode "clip" reads it in range
    missing = np.take(samples.offsets, cols, mode="clip") != pixel
    if missing.any():
        stops = np.cumsum([len(det.pixels[1]) for det in detections])
        _raise_missing(detections[np.searchsorted(stops, np.argmax(missing), side="right")])
    # every band at every crown pixel, as one 1 x N raster; a take per
    # band, as one fancy index over all bands reads them twice as slowly
    values = np.empty((len(samples.band_names), len(cols)), dtype=np.float32)
    for out, band in zip(values, samples.values):
        np.take(band, cols, out=out)
    values.setflags(write=False)
    crowns = Raster(
        bands=tuple(Band(name=name, samples=values[i, np.newaxis]) for i, name in enumerate(samples.band_names)),
        nodata_value=samples.nodata_value,
    )
    ok = crowns.valid_mask().bits[0]
    pairs = INDEX_REGISTRY["ndvi"], INDEX_REGISTRY["gndvi"]
    # each band of the two pairs, cast to float64 once
    f64 = {b: crowns.band(b).samples[0].astype(np.float64) for b in dict.fromkeys(sum(pairs, ()))}
    ndvi_values, gndvi_values = (normalized_difference(f64[a], f64[b], ok) for a, b in pairs)
    stop = 0
    for det in detections:
        start, stop = stop, stop + len(det.pixels[1])
        crown_ndvi, crown_gndvi = (r[np.isfinite(r)] for r in (ndvi_values[start:stop], gndvi_values[start:stop]))
        if not crown_ndvi.size or not crown_gndvi.size:
            raise UnclassifiableError(
                f"detection {det.id} at {det.centroid} has no valid pixels to classify"
            )
        # np.mean over each crown's own slice: summing by reduceat would
        # change the last digit of the means
        det.mean_ndvi = float(crown_ndvi.mean())
        det.mean_gndvi = float(crown_gndvi.mean())
        if det.mean_ndvi <= cfg.dead_ndvi_max:
            det.class_label = "dead"
        elif det.diameter_px < cfg.smallish_diameter_px:
            det.class_label = "smallish"
        else:
            det.class_label = "healthy"


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
    # Below about 1e-154 they are subnormal and lose their precision, so
    # it searches at least 1e-150 wide. Its distances may differ from
    # hypot in the last bits, so it searches a hair wider and hypot
    # decides, as it did for every pair.
    det_points = np.array([d.centroid for d in detections], dtype=np.float64).reshape(-1, 2)
    truth_points = np.array([(c.cx, c.cy) for c in crowns], dtype=np.float64).reshape(-1, 2)
    tree = cKDTree(np.clip(truth_points, -1e150, 1e150))
    radius = min(max(max_centroid_dist * (1 + 1e-9), 1e-150), 1e151)
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


def detections_to_geojson(
    detections: list[CrownDetection], origin: tuple[int, int] = (0, 0)
) -> dict:
    features = []
    for row in (_export_row(det, origin) for det in detections):
        props = {k: row[k] for k in ("id", "class", "score", "diameter_px", "pixel_count")}
        props["bbox"] = [row[k] for k in ("x_min", "y_min", "x_max", "y_max")]
        props.update(mean_ndvi=row["mean_ndvi"], mean_gndvi=row["mean_gndvi"])
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [row["x"], row["y"]]},
                "properties": props,
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


def _export_row(det: CrownDetection, origin: tuple[int, int]) -> dict:
    """The ``CSV_COLUMNS`` fields of one detection, in scene coordinates."""
    (x, y), (ox, oy) = det.centroid, origin
    x_min, y_min, x_max, y_max = det.bbox
    return {
        "id": det.id, "class": det.class_label, "x": x + ox, "y": y + oy, "score": det.score,
        "diameter_px": det.diameter_px, "pixel_count": det.pixel_count,
        "x_min": x_min + ox, "y_min": y_min + oy, "x_max": x_max + ox, "y_max": y_max + oy,
        "mean_ndvi": det.mean_ndvi, "mean_gndvi": det.mean_gndvi,
    }


def write_csv(detections: list[CrownDetection], path, origin: tuple[int, int] = (0, 0)) -> None:
    # csv writes None as an empty field and a float as its repr
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(_export_row(det, origin) for det in detections)
