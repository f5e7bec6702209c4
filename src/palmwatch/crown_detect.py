"""Crown detection, 3-class labeling, truth matching and export.

Detection reads the foreground samples (``PixelSamples``): the pixels
where the probability map is above ``prob_threshold``, with the map's
value and the scene's bands at each, gathered one row band at a time so
that no caller holds the map or the scene whole. It labels the
8-connected components of each row band in a plane of the band's size,
joins the labels that touch across the seam between two bands, and
resolves every label once as a graph's connected components (the
union-find of equivalences of two-pass labelling: Wu, Otoo and Suzuki,
Pattern Analysis and Applications 12, 2009; He, Chao and Suzuki, IEEE
TIP 17(5), 2008). The components come out numbered as whole-map
labelling numbers them, by first pixel in raster order. Oversized
components are split by marker-controlled watershed on the smoothed
probability (Meyer & Beucher 1990; Wang, Gong & Biging 2004 for tree
crowns). Each stage is near-linear in pixels, components and crowns:
besides the samples, labelling holds one row band's planes, and one
sort groups the kept components' sample columns; splitting runs a fixed
number of filters and one watershed over the component's bounding box,
classification reads each crown's samples at its columns once per block
of crowns, and truth matching looks up neighbours in a k-d tree instead
of comparing all pairs. Health labels come from a rule cascade
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

import numpy as np
from scipy import ndimage
from scipy.sparse import coo_matrix
from scipy.spatial import cKDTree

from . import raster_core
from .annotations import AnnotationSet, CrownAnnotation
from .errors import FormatError, ParameterError, ShapeError, UnclassifiableError
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
    """One detected palm crown.

    ``pixels`` are its (ys, xs) and ``columns`` the columns of those
    pixels, in the same order, in the ``PixelSamples`` it was detected
    in, which classification reads its spectra from.
    """

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
    columns: np.ndarray | None = None


@dataclass(frozen=True)
class PixelSamples:
    """A scene's foreground: every pixel where its probability map is
    valid and above a threshold, with the map's value and the scene's
    band samples there. Detection labels these pixels and classification
    reads crown spectra from them, so that no caller has to hold the map
    or the scene.

    Column i is raster offset ``offsets[i]`` (y * width + x) of the
    ``width`` x ``height`` scene, the columns in raster order: its
    probability is ``probability[i]`` and its band samples are
    ``values[:, i]`` (bands x N, float32, in ``band_names`` order, nodata
    included as it is). The pixels were gathered one row band at a time,
    and ``band_ends`` holds the scene row after each band, top to bottom;
    detection labels the same bands.
    """

    width: int
    height: int
    band_names: tuple[str, ...]
    nodata_value: float | None
    offsets: np.ndarray
    probability: np.ndarray
    values: np.ndarray
    band_ends: tuple[int, ...]

    @classmethod
    def gather(
        cls, prob: MaskedGrid, threshold: float, rows: Raster | None = None, *, height: int | None = None, top: int = 0
    ) -> "PixelSamples":
        """The samples of ``prob`` and of ``rows`` (a raster of its shape,
        or None for no bands) where ``prob`` is above ``threshold``
        (``MaskedGrid.above``): the grid's rows are the rows from ``top``
        on of a scene of their width and ``height`` rows, by default
        ``top`` plus their own. A row band of a scene gathers with its
        place in the scene, and ``join`` makes one set of the bands'
        samples."""
        if rows is not None and (rows.height, rows.width) != (prob.height, prob.width):
            raise ShapeError(
                f"rows {rows.width}x{rows.height} do not match the {prob.width}x{prob.height} probability grid"
            )
        flat = np.flatnonzero(prob.above(threshold))
        bands = () if rows is None else rows.bands
        values = np.empty((len(bands), len(flat)), dtype=np.float32)
        for out, band in zip(values, bands):
            np.take(band.samples.ravel(), flat, out=out)
        probability = np.take(prob.values.ravel(), flat)
        flat += top * prob.width
        return cls(
            prob.width, height or top + prob.height, tuple(b.name for b in bands),
            None if rows is None else rows.nodata_value, flat, probability, values, (top + prob.height,),
        )

    @classmethod
    def join(cls, parts: list["PixelSamples"]) -> "PixelSamples":
        """One set of the samples of ``parts``: consecutive row bands of
        one scene, top to bottom, gathered from the same bands."""
        first = parts[0]
        return cls(
            first.width, first.height, first.band_names, first.nodata_value,
            np.concatenate([p.offsets for p in parts]), np.concatenate([p.probability for p in parts]),
            np.concatenate([p.values for p in parts], axis=1), sum((p.band_ends for p in parts), ()),
        )


def _make_detection(ys: np.ndarray, xs: np.ndarray, columns: np.ndarray, probability: np.ndarray) -> CrownDetection:
    area = len(xs)
    return CrownDetection(
        id=0,
        # the integer sums are exact, so this is the division mean makes
        centroid=(float(xs.sum()) / area, float(ys.sum()) / area),
        bbox=(int(xs.min()), int(ys.min()), int(xs.max()), int(ys.max())),
        pixel_count=area,
        diameter_px=2.0 * math.sqrt(area / math.pi),
        score=float(probability[columns].astype(np.float64).mean()),
        pixels=(ys, xs),
        columns=columns,
    )


def _index_dtype(n: int):
    """The integer type of an index into ``n`` items: int32 where it holds
    every index, for half the memory of int64."""
    return np.int32 if n < 2**31 else np.int64


def _seam_pairs(above: np.ndarray, below: np.ndarray):
    """The (above, below) label pairs of 8-connected pixels across a seam:
    ``above`` is one band's last row of labels and ``below`` the next
    band's first, 0 where there is no foreground."""
    pairs = []
    for a, b in ((above, below), (above[:-1], below[1:]), (above[1:], below[:-1])):
        touch = (a > 0) & (b > 0)
        pairs.append((a[touch], b[touch]))
    return pairs


def _components(samples: PixelSamples) -> np.ndarray:
    """Each sample's 8-connected component of the foreground, numbered
    1.. in the order of the components' first pixels in raster order:
    the numbers ``ndimage.label`` gives the whole map.

    Each row band of ``samples.band_ends`` is labelled in a plane of the
    band's size, rebuilt from the offsets, each band's labels numbered
    after the last band's; only the band's last row of labels outlives
    it. Labels that touch across a seam, 8-connected, are joined, and
    every label is resolved once by ``connected_components``. A
    component's smallest label lies in its top band, at its first pixel,
    so ordering by smallest label orders by first pixel.
    """
    width, offsets = samples.width, samples.offsets
    labels = np.empty(len(offsets), dtype=_index_dtype(len(offsets)))
    tops = (0, *samples.band_ends[:-1])
    cuts = np.searchsorted(offsets, np.multiply((0, *samples.band_ends), width, dtype=np.int64)).tolist()
    count, seams, above = 0, [], None
    for top, end, lo, hi in zip(tops, samples.band_ends, cuts, cuts[1:]):
        # the band's offsets in its own plane, a view for a band at the top
        local = offsets[lo:hi] - top * width if top else offsets[lo:hi]
        plane = np.zeros((end - top, width), dtype=bool)
        plane.ravel()[local] = True
        band, n = ndimage.label(plane, structure=_EIGHT_CONNECTED, output=labels.dtype)
        del plane
        np.take(band.ravel(), local, out=labels[lo:hi])
        labels[lo:hi] += count
        # the band's first and last rows of labels, numbered as the samples'
        first_row, last_row = (np.where(row > 0, row + count, 0) for row in (band[0], band[-1]))
        del band, local
        if above is not None:
            seams += _seam_pairs(above, first_row)
        above = last_row
        count += n
    seams = [pair for pair in seams if len(pair[0])]
    if not seams:
        # the bands' own numbering: no component spans a seam
        return labels
    # imported here: its extension modules take about 3 MB, which the
    # commands that never label a foreground (augment, synth, train) need
    # not load
    from scipy.sparse.csgraph import connected_components

    a = np.concatenate([a for a, _ in seams])
    b = np.concatenate([b for _, b in seams])
    graph = coo_matrix((np.ones(len(a)), (a, b)), shape=(count + 1, count + 1))
    _, root = connected_components(graph, directed=False)
    # each label's component, numbered by its smallest label; label 0 stays 0
    _, first, inverse = np.unique(root[1:], return_index=True, return_inverse=True)
    number = np.zeros(count + 1, dtype=labels.dtype)
    number[1:] = np.argsort(np.argsort(first))[inverse] + 1
    return np.take(number, labels, out=labels, mode="clip")


def detect_crowns(samples: PixelSamples, cfg: DetectorConfig) -> list[CrownDetection]:
    """Label the 8-connected components of the foreground ``samples``
    (gathered above ``cfg.prob_threshold``) and filter them by area.

    Components are labelled one row band at a time (``_components``), so
    besides the samples only one band's planes are held. Components below
    min_area are dropped before any per-component work, and the sample
    columns of the kept ones are grouped by one in-place sort, each
    component's in raster order. Components larger than max_area go
    through split_touching; split parts below min_area are discarded like
    any other small component. Detections come back sorted by descending
    score, ties broken by centroid (y, x), with ids assigned 1..n in that
    order; each carries its pixels and their sample columns.
    """
    n = len(samples.offsets)
    if n == 0:
        return []
    rank = _components(samples)
    sizes = np.bincount(rank, minlength=1)
    # component 0 would be the background, of area 0 < min_area
    kept = sizes >= cfg.min_area
    # the kept components ranked 1..K in order, the others 0; a take in
    # mode "raise" would buffer a copy of its output
    np.take((np.cumsum(kept) * kept).astype(rank.dtype), rank, out=rank, mode="clip")
    # component i's columns end up at bounds[i - 1]:bounds[i]
    bounds = [0, *np.cumsum(sizes[kept]).tolist()]
    # a sample's key is rank * n + its column, in int64: the kept samples'
    # keys are distinct, so sorting them in place groups the columns by
    # component, each in raster order, without an index array
    keys = np.arange(n, dtype=np.int64)
    keys += np.multiply(rank, n, dtype=np.int64)
    del rank
    keys = keys[keys >= n]
    keys.sort()
    columns = np.remainder(keys, n, out=keys)
    pixel = np.take(samples.offsets, columns)
    # the coordinates in the narrowest type that holds them, computed in
    # int64 a buffer at a time
    ys, xs = (np.empty(len(pixel), dtype=_index_dtype(max(samples.width, samples.height))) for _ in range(2))
    np.floor_divide(pixel, samples.width, out=ys, casting="unsafe")
    np.remainder(pixel, samples.width, out=xs, casting="unsafe")
    del pixel
    probability = samples.probability
    detections = []
    for lo, hi in zip(bounds, bounds[1:]):
        component = slice(lo, hi)
        if hi - lo <= cfg.max_area:
            detections.append(_make_detection(ys[component], xs[component], columns[component], probability))
            continue
        parts = split_touching((ys[component], xs[component]), probability[columns[component]], cfg)
        if len(parts) > 1:
            # each part is written back over the component's own pixels, so
            # that every detection's pixels and columns are views of ys, xs
            # and columns and no pixel is held twice; the columns, in raster
            # order, follow their pixels to their places, which a stable
            # sort finds fast, as each part is a run in raster order
            ys[component] = np.concatenate([part_ys for part_ys, _ in parts])
            xs[component] = np.concatenate([part_xs for _, part_xs in parts])
            places = np.argsort(np.multiply(ys[component], samples.width, dtype=np.int64) + xs[component], kind="stable")
            columns[component][places] = columns[component].copy()
        for _, part_xs in parts:
            part = slice(lo, lo + len(part_xs))
            lo = part.stop
            if len(part_xs) >= cfg.min_area:
                detections.append(_make_detection(ys[part], xs[part], columns[part], probability))
    detections.sort(key=lambda d: (-d.score, d.centroid[1], d.centroid[0]))
    for i, det in enumerate(detections, start=1):
        det.id = i
    return detections


def split_touching(
    pixels: tuple[np.ndarray, np.ndarray], probability: np.ndarray, cfg: DetectorConfig
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Partition an oversized component by marker-controlled watershed.

    ``probability`` holds the map's value at each of ``pixels``, in
    their order. The relief is the component's probability (0 outside
    it) smoothed by a Gaussian of ``_SPLIT_SIGMA`` px. The markers are
    the component pixels where the relief equals its maximum over the
    square window of half-width split_min_distance (at least 1 px) around
    them, one marker per 8-connected group; of equal groups within one
    window only the last in raster order is kept, so separate markers lie
    more than split_min_distance apart. A single marker returns the
    component whole. Otherwise the watershed of the inverted relief floods from the
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
    relief[ly, lx] = probability
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


def classify_detections(
    detections: list[CrownDetection], samples: PixelSamples, cfg: DetectorConfig
) -> list[CrownDetection]:
    """Apply the health-rule cascade to every detection and record its
    crown spectra (mean NDVI and gNDVI over the crown's valid pixels):

    dead  if mean NDVI <= dead_ndvi_max,
    else smallish if equivalent diameter < smallish_diameter_px,
    else healthy.

    The spectra come from ``samples`` at each detection's ``columns``,
    which ``detect_crowns`` sets to the columns of its pixels in the
    samples it labelled. A column is read only where its offset is its
    pixel, so samples other than those a detection came from fail loudly
    rather than give another pixel's spectrum. Consecutive detections are
    classified in blocks of at most ``raster_core.BLOCK_PX`` pixels, a few
    MB of working set on any scene. A block closes before the next crown
    would take it past that, and a larger crown is a block of its own, so
    a block of several crowns is one row block of the index kernel, which
    runs in the calling thread. The bands are read once per block, at the
    columns of all its crowns together, and a pixel is valid by the
    raster's own rule (``valid_mask``). Raises UnclassifiableError when a
    detection carries no pixels or no column for each, has a pixel the
    samples lack at its column, or has no valid pixels.
    """
    for det in detections:
        if det.pixels is None or len(det.pixels[1]) == 0:
            raise UnclassifiableError(f"detection {det.id} carries no pixels")
        if det.columns is None or len(det.columns) != len(det.pixels[1]):
            raise UnclassifiableError(f"detection {det.id} carries no sample column for each of its pixels")
    if not detections:
        return detections
    if len(samples.offsets) == 0:
        _raise_missing(detections[0])
    block, size = [], 0
    for det in detections:
        n = len(det.pixels[1])
        if block and size + n > raster_core.BLOCK_PX:
            _classify_block(block, samples, cfg)
            block, size = [], 0
        block.append(det)
        size += n
    if block:
        _classify_block(block, samples, cfg)
    return detections


def _raise_missing(det: CrownDetection) -> None:
    raise UnclassifiableError(f"detection {det.id} at {det.centroid} has a pixel the samples lack")


def _classify_block(detections: list[CrownDetection], samples: PixelSamples, cfg: DetectorConfig) -> None:
    cols = np.concatenate([det.columns for det in detections])
    pixel = np.multiply(np.concatenate([det.pixels[0] for det in detections]), samples.width, dtype=np.int64)
    pixel += np.concatenate([det.pixels[1] for det in detections])
    # a column out of range is read clipped, and so at another pixel
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


def write_geojson(detections: list[CrownDetection], path, origin: tuple[int, int] = (0, 0)) -> None:
    """Write ``detections`` as a GeoJSON FeatureCollection of points in
    scene coordinates, one feature at a time: the bytes are those of
    ``json.dumps(collection, indent=2) + "\n"``, without the collection
    ever held whole."""
    with open(path, "w") as fh:
        fh.write('{\n  "type": "FeatureCollection",\n  "features": [')
        for i, row in enumerate(_export_row(det, origin) for det in detections):
            props = {k: row[k] for k in ("id", "class", "score", "diameter_px", "pixel_count")}
            props["bbox"] = [row[k] for k in ("x_min", "y_min", "x_max", "y_max")]
            props.update(mean_ndvi=row["mean_ndvi"], mean_gndvi=row["mean_gndvi"])
            feature = {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [row["x"], row["y"]]},
                "properties": props,
            }
            # json.dumps nests each feature two levels deep: 4 more spaces
            fh.write(("," if i else "") + "\n    " + json.dumps(feature, indent=2).replace("\n", "\n    "))
        fh.write("\n  ]\n}\n" if detections else "]\n}\n")


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
