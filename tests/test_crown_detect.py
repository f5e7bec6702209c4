import copy
import hashlib
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from palmwatch import raster_core
from palmwatch.annotations import AnnotationSet, CrownAnnotation
from palmwatch.crown_detect import (
    CrownDetection,
    DetectorConfig,
    PixelSamples,
    _components,
    _make_detection,
    classify_detections,
    detect_crowns,
    load_geojson,
    match_detections,
    split_touching,
    write_csv,
    write_geojson,
)
from palmwatch.errors import ParameterError, UnclassifiableError
from palmwatch.indices import normalized_difference
from palmwatch.raster_core import Band, MaskedGrid, Raster

from conftest import make_raster


def disc_prob_map(shape, discs, inside=0.9, outside=0.05):
    """Probability map with constant-valued discs: (cx, cy, r) triples."""
    h, w = shape
    values = np.full((h, w), outside, dtype=np.float32)
    yy, xx = np.mgrid[0:h, 0:w]
    for cx, cy, r in discs:
        values[(xx - cx) ** 2 + (yy - cy) ** 2 <= r * r] = inside
    return MaskedGrid(values)


def peaked_prob_map(shape, peaks, radius, floor=0.02):
    """Cone-shaped probability peaks for split tests."""
    h, w = shape
    values = np.full((h, w), floor, dtype=np.float64)
    yy, xx = np.mgrid[0:h, 0:w]
    for cx, cy, top in peaks:
        d = np.sqrt((xx - cx) ** 2 + (yy - cy) ** 2)
        cone = np.maximum(0.0, top * (1 - d / radius))
        values = np.maximum(values, np.where(d <= radius, np.maximum(cone, floor), floor))
    return MaskedGrid(values.astype(np.float32))


def detect_map(prob, cfg):
    """Detection on an in-memory map: its foreground samples, gathered
    whole, detected as one row band."""
    return detect_crowns(PixelSamples.gather(prob, cfg.prob_threshold), cfg)


def banded_samples(prob, threshold, heights, raster=None):
    """The foreground samples of ``prob`` (and ``raster``), gathered one
    row band of each of ``heights`` at a time, as the pipeline gathers
    them, and joined."""
    parts, top = [], 0
    for height in heights:
        rows = slice(top, top + height)
        band = None if raster is None else Raster(
            bands=tuple(Band(b.name, b.samples[rows]) for b in raster.bands), nodata_value=raster.nodata_value
        )
        parts.append(PixelSamples.gather(MaskedGrid(prob.values[rows]), threshold, band, height=prob.height, top=top))
        top = rows.stop
    return PixelSamples.join(parts)


def columns_in(samples, det):
    """The columns of ``det``'s pixels in ``samples``, -1 where they lack one."""
    lookup = np.full(samples.width * samples.height, -1, np.int64)
    lookup[samples.offsets] = np.arange(len(samples.offsets))
    return lookup[np.multiply(det.pixels[0], samples.width, dtype=np.int64) + det.pixels[1]]


class TestDetectorConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            *(
                (field, value)
                for field in ("split_min_distance", "smallish_diameter_px", "dead_ndvi_max")
                for value in (math.nan, math.inf, -math.inf)
            ),
            ("split_min_distance", 0.0),
            ("split_min_distance", -1.0),
        ],
    )
    def test_out_of_range_rejected(self, field, value):
        # a NaN used to switch splitting, the smallish class or the dead class off
        with pytest.raises(ParameterError, match=field):
            DetectorConfig(**{field: value})


class TestDetect:
    def test_all_zero_empty(self):
        prob = MaskedGrid(np.zeros((64, 64), np.float32))
        assert detect_map(prob, DetectorConfig()) == []

    def test_single_disc(self):
        prob = disc_prob_map((100, 100), [(50, 50, 10)])
        dets = detect_map(prob, DetectorConfig())
        assert len(dets) == 1
        det = dets[0]
        assert abs(det.centroid[0] - 50) <= 1 and abs(det.centroid[1] - 50) <= 1
        assert det.pixel_count == pytest.approx(math.pi * 100, rel=0.05)
        assert det.score == pytest.approx(0.9, abs=1e-6)
        assert det.diameter_px == pytest.approx(2 * math.sqrt(det.pixel_count / math.pi))
        x0, y0, x1, y1 = det.bbox
        assert x0 <= det.centroid[0] <= x1
        assert y0 <= det.centroid[1] <= y1

    def test_two_separated_discs(self):
        prob = disc_prob_map((120, 120), [(30, 30, 8), (90, 90, 8)])
        dets = detect_map(prob, DetectorConfig())
        assert len(dets) == 2
        centers = sorted((round(d.centroid[0]), round(d.centroid[1])) for d in dets)
        assert centers == [(30, 30), (90, 90)]

    def test_min_area_filters(self):
        prob = disc_prob_map((64, 64), [(32, 32, 2)])  # ~13 px < 20
        assert detect_map(prob, DetectorConfig()) == []

    def test_detections_satisfy_invariants(self):
        prob = disc_prob_map((200, 200), [(40, 40, 10), (150, 60, 6), (100, 160, 12)])
        cfg = DetectorConfig()
        dets = detect_map(prob, cfg)
        for det in dets:
            assert det.pixel_count >= cfg.min_area
            assert det.score > cfg.prob_threshold
            assert det.diameter_px > 0

    def test_count_monotone_in_threshold(self):
        # separated peaks over a low background: superlevel sets are
        # nested, so raising the threshold can only lose detections
        prob = peaked_prob_map(
            (120, 200), [(40, 40, 0.5), (100, 40, 0.7), (160, 80, 0.9)], radius=18
        )
        counts = [
            len(detect_map(prob, DetectorConfig(prob_threshold=t, min_area=10)))
            for t in (0.1, 0.3, 0.45, 0.6, 0.8, 0.95)
        ]
        assert counts[0] == 3
        assert all(b <= a for a, b in zip(counts, counts[1:]))
        assert counts[-1] == 0

    def test_thresholded_area_monotone(self, rng):
        values = rng.random((80, 80)).astype(np.float32)
        prob = MaskedGrid(values)
        low = detect_map(prob, DetectorConfig(prob_threshold=0.3, min_area=1))
        high = detect_map(prob, DetectorConfig(prob_threshold=0.7, min_area=1))
        assert sum(d.pixel_count for d in high) <= sum(d.pixel_count for d in low)

    def test_sorted_by_score_then_centroid(self):
        values = np.full((40, 80), 0.0, np.float32)
        values[5:15, 5:15] = 0.7
        values[5:15, 40:50] = 0.9
        prob = MaskedGrid(values)
        dets = detect_map(prob, DetectorConfig())
        assert [round(d.score, 1) for d in dets] == [0.9, 0.7]
        assert [d.id for d in dets] == [1, 2]

    def test_invalid_pixels_not_detected(self):
        # +inf is above any threshold, but not finite
        prob = MaskedGrid(np.full((50, 50), np.inf, np.float32))
        assert detect_map(prob, DetectorConfig()) == []


class TestSplitTouching:
    def test_single_peak_unsplit(self):
        prob = peaked_prob_map((60, 60), [(30, 30, 0.9)], radius=20)
        ys, xs = np.nonzero(prob.values > 0.5)
        parts = split_touching((ys, xs), prob.values[ys, xs], DetectorConfig())
        assert len(parts) == 1
        np.testing.assert_array_equal(parts[0][0], ys)

    def test_dumbbell_two_partitions(self):
        prob = peaked_prob_map((60, 120), [(40, 30, 0.9), (80, 30, 0.9)], radius=25)
        ys, xs = np.nonzero(prob.values > 0.3)
        cfg = DetectorConfig()
        parts = split_touching((ys, xs), prob.values[ys, xs], cfg)
        assert len(parts) == 2
        # each part contains its own peak
        peak_owners = set()
        for i, (pys, pxs) in enumerate(parts):
            for px, py in ((40, 30), (80, 30)):
                if ((pys == py) & (pxs == px)).any():
                    peak_owners.add((px, py))
        assert peak_owners == {(40, 30), (80, 30)}

    def test_partition_exact(self):
        prob = peaked_prob_map((60, 120), [(40, 30, 0.9), (80, 30, 0.85)], radius=25)
        ys, xs = np.nonzero(prob.values > 0.3)
        parts = split_touching((ys, xs), prob.values[ys, xs], DetectorConfig())
        combined = set()
        total = 0
        for pys, pxs in parts:
            pairs = set(zip(pys.tolist(), pxs.tolist()))
            assert not (combined & pairs)
            combined |= pairs
            total += len(pxs)
        assert total == len(xs)
        assert combined == set(zip(ys.tolist(), xs.tolist()))

    def test_close_peaks_merged(self):
        prob = peaked_prob_map((40, 40), [(18, 20, 0.9), (22, 20, 0.88)], radius=12)
        ys, xs = np.nonzero(prob.values > 0.3)
        parts = split_touching((ys, xs), prob.values[ys, xs], DetectorConfig(split_min_distance=8.0))
        assert len(parts) == 1

    def test_oversized_component_split_in_detect(self):
        prob = peaked_prob_map((60, 120), [(40, 30, 0.95), (80, 30, 0.95)], radius=25)
        cfg = DetectorConfig(prob_threshold=0.3, min_area=20, max_area=800)
        dets = detect_map(prob, cfg)
        assert len(dets) == 2

    def test_huge_split_distance_keeps_component_whole(self):
        # its square overflows: used to raise OverflowError
        prob = peaked_prob_map((60, 120), [(40, 30, 0.9), (80, 30, 0.9)], radius=25)
        ys, xs = np.nonzero(prob.values > 0.3)
        assert len(split_touching((ys, xs), prob.values[ys, xs], DetectorConfig(split_min_distance=1e200))) == 1

    @pytest.mark.parametrize("min_distance", [0.5, 1.0, 8.0])
    def test_marker_window_is_at_least_one_px(self, min_distance):
        # a 1 px window would make every pixel a peak, so the whole
        # component would be one flat group and never split
        prob = peaked_prob_map((60, 120), [(40, 30, 0.95), (66, 30, 0.95)], radius=25)
        cfg = DetectorConfig(prob_threshold=0.3, max_area=800, split_min_distance=min_distance)
        assert len(detect_map(prob, cfg)) == 2

    def test_flat_top_is_one_marker(self):
        # an arch of constant probability, 30 px thick: after smoothing its
        # inner core is exactly flat, and the two legs' ends are far apart
        values = np.zeros((100, 110), np.float32)
        values[5:35, 5:105] = 0.9
        values[5:95, 5:35] = 0.9
        values[5:95, 75:105] = 0.9
        prob = MaskedGrid(values)
        pixels = np.nonzero(values > 0.5)
        parts = split_touching(pixels, prob.values[pixels], DetectorConfig(split_min_distance=2.0))
        assert len(parts) == 1

    def test_max_area_is_inclusive(self):
        # two overlapping cones: one component with two peaks
        prob = peaked_prob_map((60, 120), [(40, 30, 0.95), (66, 30, 0.95)], radius=25)
        area = int((prob.values > 0.3).sum())
        for max_area, expected in ((area, 1), (area - 1, 2)):
            cfg = DetectorConfig(prob_threshold=0.3, max_area=max_area)
            assert len(detect_map(prob, cfg)) == expected

    def test_flat_plateau_single_seed(self):
        values = np.full((50, 50), 0.0, np.float32)
        values[10:40, 10:40] = 0.9  # constant plateau, 900 px
        prob = MaskedGrid(values)
        cfg = DetectorConfig(max_area=400)
        dets = detect_map(prob, cfg)
        assert len(dets) == 1
        assert dets[0].pixel_count == 900


def samples_at(raster, where):
    """The samples of ``raster`` where the boolean grid ``where`` holds,
    as the foreground of a map that is 1 there and 0 elsewhere."""
    return PixelSamples.gather(MaskedGrid(where.astype(np.float32)), 0.5, raster)


def all_samples(raster):
    """The classifier's input for a whole in-memory raster: its samples at
    every pixel, so that a pixel's column is its raster offset."""
    return samples_at(raster, np.ones((raster.height, raster.width), bool))


class TestClassify:
    def scene(self, ndvi_target, size=40):
        # red fixed at 0.2; nir chosen so ndvi hits the target
        nir = 0.2 * (1 + ndvi_target) / (1 - ndvi_target)
        bands = {
            "red": np.full((size, size), 0.2, np.float32),
            "green": np.full((size, size), 0.2, np.float32),
            "blue": np.full((size, size), 0.2, np.float32),
            "nir": np.full((size, size), nir, np.float32),
        }
        return all_samples(make_raster(bands))

    def detection(self, area_px):
        r = math.sqrt(area_px / math.pi)
        ys, xs = np.mgrid[0:40, 0:40]
        inside = (xs - 20) ** 2 + (ys - 20) ** 2 <= r * r
        ys, xs = np.nonzero(inside)
        return CrownDetection(
            id=1,
            centroid=(20.0, 20.0),
            bbox=(int(xs.min()), int(ys.min()), int(xs.max()), int(ys.max())),
            pixel_count=len(xs),
            diameter_px=2 * math.sqrt(len(xs) / math.pi),
            score=0.9,
            pixels=(ys, xs),
            # its columns in the samples of every pixel of the 40x40 scene
            columns=ys * 40 + xs,
        )

    def test_dead_overrides_size(self):
        det = self.detection(area_px=400)  # diameter ~22 px, not smallish
        assert classify_detections([det], self.scene(0.05), DetectorConfig(dead_ndvi_max=0.15)) == [det]
        assert det.class_label == "dead"
        assert det.mean_ndvi == pytest.approx(0.05, abs=1e-3)

    def test_smallish_by_diameter(self):
        det = self.detection(area_px=50)  # diameter ~8 px
        classify_detections([det], self.scene(0.6), DetectorConfig(smallish_diameter_px=12.0))
        assert det.class_label == "smallish"

    def test_healthy(self):
        det = self.detection(area_px=314)  # diameter ~20 px
        classify_detections([det], self.scene(0.6), DetectorConfig())
        assert det.class_label == "healthy"
        assert det.mean_gndvi is not None

    def test_unclassifiable_when_all_invalid(self):
        det = self.detection(area_px=100)
        scene = self.scene(0.6)
        nodata_scene = make_raster(
            {name: np.full((40, 40), -1.0, np.float32) for name in scene.band_names},
            nodata=-1.0,
        )
        with pytest.raises(UnclassifiableError):
            classify_detections([det], all_samples(nodata_scene), DetectorConfig())

    def test_unclassifiable_when_a_pixel_has_no_samples(self):
        det = self.detection(area_px=100)
        raster = make_raster({"red": np.full((40, 40), 0.2, np.float32), "nir": np.full((40, 40), 0.6, np.float32),
                              "green": np.full((40, 40), 0.2, np.float32)})
        where = np.zeros((40, 40), bool)
        where[det.pixels[0][1:], det.pixels[1][1:]] = True
        with pytest.raises(UnclassifiableError, match="detection 1 at .* has a pixel the samples lack"):
            # its columns are those of every pixel's samples
            classify_detections([det], samples_at(raster, where), DetectorConfig())

    @pytest.mark.parametrize("garbage", [0, 1, -1, 2**31 - 1, -(2**31)])
    def test_a_missing_pixel_is_found_whatever_the_position_plane_holds(self, garbage):
        # no plane of positions is built any more: each pixel is read at its
        # column, and the column of a pixel the samples lack (-1 here) is
        # read clipped, at another pixel. Memory left as np.empty found it
        # must not decide the outcome either.
        first, second = self.detection(area_px=100), self.detection(area_px=60)
        second.id, second.pixels = 2, (second.pixels[0], second.pixels[1] + 12)
        raster = make_raster({name: np.full((40, 40), 0.4, np.float32) for name in ("red", "green", "nir")})
        where = np.zeros((40, 40), bool)
        where[first.pixels] = where[second.pixels] = True
        complete = samples_at(raster, where)
        where[second.pixels[0][-1], second.pixels[1][-1]] = False
        incomplete = samples_at(raster, where)
        empty = samples_at(raster, np.zeros((40, 40), bool))
        fill = lambda shape, dtype=float: np.full(shape, garbage, dtype)  # noqa: E731
        for samples, named in ((complete, None), (incomplete, 2), (empty, 1)):
            for det in (first, second):
                det.columns = columns_in(samples, det)
            with mock.patch.object(np, "empty", fill):
                if named is None:
                    classify_detections([first, second], samples, DetectorConfig())
                    continue
                with pytest.raises(UnclassifiableError, match=f"detection {named} at .* has a pixel the samples lack"):
                    classify_detections([first, second], samples, DetectorConfig())

    def test_unclassifiable_without_columns(self):
        # a detection made by hand, not by detect_crowns, carries none
        det = self.detection(area_px=100)
        for columns in (None, det.columns[1:]):
            det.columns = columns
            with pytest.raises(UnclassifiableError, match="carries no sample column"):
                classify_detections([det], self.scene(0.6), DetectorConfig())

    def test_cascade_total(self, rng):
        # every detection with >= 1 valid pixel gets exactly one label
        scene = self.scene(0.4)
        cfg = DetectorConfig()
        for area in (25, 60, 150, 500):
            det = self.detection(area)
            classify_detections([det], scene, cfg)
            assert det.class_label in ("healthy", "smallish", "dead")

    def test_empty_list(self):
        assert classify_detections([], self.scene(0.6), DetectorConfig()) == []

    def test_unclassifiable_when_pixel_set_empty(self):
        # not the ShapeError of a 0-width raster of gathered pixels
        det = self.detection(area_px=100)
        det.pixels = (np.array([], np.intp), np.array([], np.intp))
        with pytest.raises(UnclassifiableError):
            classify_detections([det], self.scene(0.6), DetectorConfig())

    def test_unclassifiable_without_pixel_set(self):
        det = self.detection(area_px=100)
        det.pixels = None
        with pytest.raises(UnclassifiableError):
            classify_detections([self.detection(area_px=100), det], self.scene(0.6), DetectorConfig())


class TestMatch:
    def det_at(self, x, y, id=1):
        return CrownDetection(
            id=id,
            centroid=(x, y),
            bbox=(int(x) - 2, int(y) - 2, int(x) + 2, int(y) + 2),
            pixel_count=30,
            diameter_px=6.0,
            score=0.9,
        )

    def truth_at(self, x, y, id=1, label="healthy"):
        return CrownAnnotation(id, label, x, y, 5.0)

    def test_identical_sets_all_matched(self):
        dets = [self.det_at(10, 10, 1), self.det_at(30, 30, 2)]
        truth = AnnotationSet((self.truth_at(10, 10, 1), self.truth_at(30, 30, 2)))
        result = match_detections(dets, truth, 5.0)
        assert len(result.matches) == 2
        assert not result.false_positives and not result.false_negatives
        for det, crown in result.matches:
            assert det.centroid == (crown.cx, crown.cy)

    def test_empty_detections_all_fn(self):
        truth = AnnotationSet((self.truth_at(5, 5, 1), self.truth_at(20, 20, 2)))
        result = match_detections([], truth, 5.0)
        assert result.matches == []
        assert len(result.false_negatives) == 2

    def test_tie_resolved_by_stable_order(self):
        dets = [self.det_at(8, 10, 1), self.det_at(12, 10, 2)]
        truth = AnnotationSet((self.truth_at(10, 10, 1),))
        result = match_detections(dets, truth, 5.0)
        assert len(result.matches) == 1
        assert result.matches[0][0].id == 1  # first detection wins the tie
        assert len(result.false_positives) == 1
        assert result.false_positives[0].id == 2

    def test_beyond_max_dist_rejected(self):
        dets = [self.det_at(0, 0)]
        truth = AnnotationSet((self.truth_at(10, 0),))
        result = match_detections(dets, truth, 5.0)
        assert result.matches == []
        assert len(result.false_positives) == 1
        assert len(result.false_negatives) == 1

    def test_pair_with_a_subnormal_squared_distance_matches(self):
        # the squared distance and radius, about 2.5e-322, are subnormal:
        # a k-d tree searching that radius alone missed the pair
        xy = 1.1260866681251689e-161
        result = match_detections([self.det_at(xy, xy)], AnnotationSet((self.truth_at(0, 0),)), math.hypot(xy, xy))
        assert len(result.matches) == 1

    def test_count_identities(self, rng):
        dets = [self.det_at(float(rng.uniform(0, 100)), float(rng.uniform(0, 100)), i + 1) for i in range(12)]
        truth = AnnotationSet(
            tuple(
                self.truth_at(float(rng.uniform(0, 100)), float(rng.uniform(0, 100)), i + 1)
                for i in range(9)
            )
        )
        result = match_detections(dets, truth, 15.0)
        assert len(result.matches) + len(result.false_positives) == len(dets)
        assert len(result.matches) + len(result.false_negatives) == len(truth)
        matched_dets = {id(d) for d, _ in result.matches}
        assert len(matched_dets) == len(result.matches)  # one-to-one

    def test_bad_max_dist(self):
        # inf used to pair every detection with every crown, NaN to match nothing
        for max_dist in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ParameterError):
                match_detections([self.det_at(0, 0)], AnnotationSet((self.truth_at(0, 0),)), max_dist)


class TestExport:
    def sample_detections(self):
        det = CrownDetection(
            id=1,
            centroid=(10.5, 20.25),
            bbox=(5, 15, 16, 26),
            pixel_count=120,
            diameter_px=12.36,
            score=0.875,
            class_label="healthy",
            mean_ndvi=0.61,
            mean_gndvi=0.55,
        )
        det2 = CrownDetection(
            id=2,
            centroid=(40.0, 8.0),
            bbox=(36, 4, 44, 12),
            pixel_count=60,
            diameter_px=8.74,
            score=0.8,
            class_label="dead",
            mean_ndvi=0.05,
            mean_gndvi=0.04,
        )
        return [det, det2]

    def test_geojson_schema_and_origin(self, tmp_path):
        write_geojson(self.sample_detections(), tmp_path / "d.geojson", origin=(100, 200))
        payload = json.loads((tmp_path / "d.geojson").read_text())
        assert payload["type"] == "FeatureCollection"
        feature = payload["features"][0]
        assert feature["geometry"]["coordinates"] == [110.5, 220.25]
        props = feature["properties"]
        assert set(props) == {
            "id", "class", "score", "diameter_px", "pixel_count", "bbox",
            "mean_ndvi", "mean_gndvi",
        }
        assert props["bbox"] == [105, 215, 116, 226]

    @pytest.mark.parametrize("count", [0, 1, 40])
    def test_geojson_is_the_collection_dumped_whole(self, tmp_path, count):
        # written a feature at a time, with the bytes of the whole tree
        rng = np.random.default_rng(count)
        dets = [
            CrownDetection(
                id=i, centroid=tuple(map(float, rng.uniform(0, 1000, 2))), bbox=tuple(int(v) for v in rng.integers(0, 1000, 4)),
                pixel_count=int(rng.integers(20, 4000)), diameter_px=float(rng.uniform(5, 70)),
                score=float(rng.random()), class_label=(None, "healthy", "dead", "smallish")[i % 4],
                mean_ndvi=None if i % 4 == 0 else float(rng.uniform(-1, 1)),
                mean_gndvi=None if i % 4 == 0 else float(rng.uniform(-1, 1)),
            )
            for i in range(count)
        ]
        origin = (ox, oy) = (7, 300)
        features = [
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [d.centroid[0] + ox, d.centroid[1] + oy]},
                "properties": {
                    "id": d.id, "class": d.class_label, "score": d.score, "diameter_px": d.diameter_px,
                    "pixel_count": d.pixel_count,
                    "bbox": [d.bbox[0] + ox, d.bbox[1] + oy, d.bbox[2] + ox, d.bbox[3] + oy],
                    "mean_ndvi": d.mean_ndvi, "mean_gndvi": d.mean_gndvi,
                },
            }
            for d in dets
        ]
        write_geojson(dets, tmp_path / "d.geojson", origin=origin)
        expected = json.dumps({"type": "FeatureCollection", "features": features}, indent=2) + "\n"
        assert (tmp_path / "d.geojson").read_bytes() == expected.encode()

    def test_deterministic_bytes(self, tmp_path):
        dets = self.sample_detections()
        write_geojson(dets, tmp_path / "a.geojson", origin=(3, 4))
        write_geojson(dets, tmp_path / "b.geojson", origin=(3, 4))
        assert (tmp_path / "a.geojson").read_bytes() == (tmp_path / "b.geojson").read_bytes()
        write_csv(dets, tmp_path / "a.csv")
        write_csv(dets, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_geojson_round_trip(self, tmp_path):
        dets = self.sample_detections()
        write_geojson(dets, tmp_path / "d.geojson")
        loaded = load_geojson(tmp_path / "d.geojson")
        assert len(loaded) == 2
        assert loaded[0].centroid == dets[0].centroid
        assert loaded[0].class_label == "healthy"
        assert loaded[0].score == dets[0].score

    def test_csv_columns(self, tmp_path):
        write_csv(self.sample_detections(), tmp_path / "d.csv")
        lines = (tmp_path / "d.csv").read_text().strip().splitlines()
        assert lines[0] == (
            "id,class,x,y,score,diameter_px,pixel_count,"
            "x_min,y_min,x_max,y_max,mean_ndvi,mean_gndvi"
        )
        assert len(lines) == 3

    def test_export_bytes_pinned(self, tmp_path):
        # one classified and one unclassified detection, at a nonzero origin
        dets = [
            CrownDetection(
                id=1, centroid=(10.5, 20.25), bbox=(5, 15, 16, 26), pixel_count=120,
                diameter_px=12.36, score=0.875, class_label="healthy", mean_ndvi=0.61, mean_gndvi=1 / 3,
            ),
            CrownDetection(
                id=2, centroid=(40.0, 0.1), bbox=(36, 0, 44, 3), pixel_count=9,
                diameter_px=3.385137501286538, score=0.1 + 0.2,
            ),
        ]
        write_csv(dets, tmp_path / "d.csv", origin=(7, 300))
        write_geojson(dets, tmp_path / "d.geojson", origin=(7, 300))
        assert (tmp_path / "d.csv").read_bytes() == (
            b"id,class,x,y,score,diameter_px,pixel_count,x_min,y_min,x_max,y_max,mean_ndvi,mean_gndvi\r\n"
            b"1,healthy,17.5,320.25,0.875,12.36,120,12,315,23,326,0.61,0.3333333333333333\r\n"
            b"2,,47.0,300.1,0.30000000000000004,3.385137501286538,9,43,300,51,303,,\r\n"
        )
        digest = hashlib.sha256((tmp_path / "d.geojson").read_bytes()).hexdigest()
        assert digest == "be04c23e545c07790698b5f191ef6ae599b29d34556d6aef867f10fe9061460c"
        props = json.loads((tmp_path / "d.geojson").read_text())["features"][1]["properties"]
        assert (props["class"], props["mean_ndvi"], props["bbox"]) == (None, None, [43, 300, 51, 303])


# Plain versions of what crown_detect does faster, kept as references:
# reference_detect measures and filters one component at a time, and
# reference_match compares all pairs. The fast versions must agree with
# them exactly, tie-breaks included.


def reference_detect(prob, cfg):
    """Whole-map labelling; its detections' columns are those of the
    samples of every pixel."""
    binary = prob.valid & (prob.values > cfg.prob_threshold)
    labels, _ = ndimage.label(binary, structure=np.ones((3, 3), int))
    detections = []
    for comp, slc in enumerate(ndimage.find_objects(labels), start=1):
        if slc is None:
            continue
        ys, xs = np.nonzero(labels[slc] == comp)
        ys = ys + slc[0].start
        xs = xs + slc[1].start
        if len(xs) < cfg.min_area:
            continue
        parts = [(ys, xs)] if len(xs) <= cfg.max_area else split_touching((ys, xs), prob.values[ys, xs], cfg)
        detections += [
            _make_detection(pys, pxs, pys * prob.width + pxs, prob.values.ravel())
            for pys, pxs in parts if len(pxs) >= cfg.min_area
        ]
    detections.sort(key=lambda d: (-d.score, d.centroid[1], d.centroid[0]))
    for i, det in enumerate(detections, start=1):
        det.id = i
    return detections


def reference_match(detections, truth, max_centroid_dist):
    crowns = list(truth.crowns)
    pairs = []
    for di, det in enumerate(detections):
        dx, dy = det.centroid
        for ti, crown in enumerate(crowns):
            dist = math.hypot(dx - crown.cx, dy - crown.cy)
            if dist <= max_centroid_dist:
                pairs.append((dist, di, ti))
    pairs.sort()
    used_d, used_t, matches = set(), set(), []
    for _, di, ti in pairs:
        if di not in used_d and ti not in used_t:
            used_d.add(di)
            used_t.add(ti)
            matches.append((di, ti))
    return (
        matches,
        [i for i in range(len(detections)) if i not in used_d],
        [i for i in range(len(crowns)) if i not in used_t],
    )


def reference_classify(det, raster, cfg):
    """One detection at a time, reading the three bands at its own pixels."""
    if det.pixels is None:
        raise UnclassifiableError(f"detection {det.id} carries no pixel set")
    ys, xs = det.pixels
    nir, red, green = (
        raster.band(name).samples[ys, xs].astype(np.float64) for name in ("nir", "red", "green")
    )
    ok = raster.valid_mask().bits[ys, xs]
    ndvi_values = normalized_difference(nir, red, ok)
    gndvi_values = normalized_difference(nir, green, ok)
    ndvi_ok, gndvi_ok = np.isfinite(ndvi_values), np.isfinite(gndvi_values)
    if not ndvi_ok.any() or not gndvi_ok.any():
        raise UnclassifiableError(f"detection {det.id} has no valid pixels to classify")
    det.mean_ndvi = float(ndvi_values[ndvi_ok].mean())
    det.mean_gndvi = float(gndvi_values[gndvi_ok].mean())
    if det.mean_ndvi <= cfg.dead_ndvi_max:
        det.class_label = "dead"
    elif det.diameter_px < cfg.smallish_diameter_px:
        det.class_label = "smallish"
    else:
        det.class_label = "healthy"
    return det.class_label


def detection_fields(dets):
    return [
        (d.id, d.centroid, d.bbox, d.pixel_count, d.diameter_px, d.score,
         d.pixels[0].tolist(), d.pixels[1].tolist())
        for d in dets
    ]


# Few probability levels make flat plateaus and equal peaks likely, and
# small grids put many of them inside one marker window.
_LEVELS = np.array([0.55, 0.7, 0.8, 0.9], np.float32)
_SPLIT_DISTANCES = st.sampled_from([1.0, 2.0, 2.5, math.sqrt(2), math.sqrt(5), 3.0, 8.0]) | st.floats(0.5, 12.0)


@st.composite
def level_maps(draw, max_side):
    h = draw(st.integers(1, max_side))
    w = draw(st.integers(1, max_side))
    levels = draw(hnp.arrays(np.int8, (h, w), elements=st.integers(0, len(_LEVELS) - 1)))
    member = draw(hnp.arrays(bool, (h, w)))
    return _LEVELS[levels], member


@settings(max_examples=300, deadline=None)
@given(grid=level_maps(max_side=14), min_distance=_SPLIT_DISTANCES)
def test_split_touching_partitions_exactly(grid, min_distance):
    """Every component pixel lands in exactly one part, in pixel order."""
    values, member = grid
    assume(member.any())
    prob = MaskedGrid(values)
    pixels = np.nonzero(member)
    parts = split_touching(pixels, prob.values[pixels], DetectorConfig(split_min_distance=min_distance))
    w = values.shape[1]
    for ys, xs in parts:
        flat = ys * w + xs
        assert np.all(np.diff(flat) > 0)
    flat = np.sort(np.concatenate([ys * w + xs for ys, xs in parts]))
    np.testing.assert_array_equal(flat, pixels[0] * w + pixels[1])


@settings(max_examples=150, deadline=None)
@given(
    grid=level_maps(max_side=40),
    min_area=st.integers(1, 8),
    extra_area=st.integers(0, 40),
    min_distance=_SPLIT_DISTANCES,
    band_rows=st.integers(1, 40),
)
def test_detect_crowns_matches_per_component_reference(grid, min_area, extra_area, min_distance, band_rows):
    """Maps full of specks below min_area, plus components big enough to
    split, whole and gathered in row bands."""
    values, member = grid
    values = np.where(member, values, np.float32(0.1))
    prob = MaskedGrid(values)
    cfg = DetectorConfig(min_area=min_area, max_area=min_area + extra_area, split_min_distance=min_distance)
    expected = detection_fields(reference_detect(prob, cfg))
    assert detection_fields(detect_map(prob, cfg)) == expected
    heights = [min(band_rows, prob.height - top) for top in range(0, prob.height, band_rows)]
    samples = banded_samples(prob, cfg.prob_threshold, heights)
    dets = detect_crowns(samples, cfg)
    assert detection_fields(dets) == expected
    # each detection's columns are its pixels' in the samples
    for det in dets:
        np.testing.assert_array_equal(det.columns, columns_in(samples, det))


def band_heights(draw, height):
    """Row band heights, each from 1 to ``height``, that sum to ``height``."""
    heights = []
    while sum(heights) < height:
        heights.append(draw(st.integers(1, height - sum(heights))))
    return heights


@st.composite
def banded_masks(draw):
    """A foreground mask with shapes that only the seams between its row
    bands join: tall bars across several bands, U shapes whose legs meet
    only below, and staircases whose steps touch only diagonally; and the
    band heights."""
    h = draw(st.integers(1, 24))
    w = draw(st.integers(1, 24))
    mask = draw(hnp.arrays(bool, (h, w), elements=st.booleans() if draw(st.booleans()) else st.just(False)))
    for _ in range(draw(st.integers(0, 3))):
        y = draw(st.integers(0, h - 1))
        x = draw(st.integers(0, w - 1))
        size = draw(st.integers(1, max(h, w)))
        shape = draw(st.sampled_from(["bar", "u", "stairs"]))
        if shape == "bar":
            mask[y : y + size, x] = True
        elif shape == "u":
            mask[y : y + size, x] = True
            mask[y : y + size, min(x + 2, w - 1)] = True
            mask[min(y + size, h) - 1, x : x + 3] = True
        else:
            step = draw(st.sampled_from([1, -1]))
            for k in range(size):
                if y + k < h and 0 <= x + step * k < w:
                    mask[y + k, x + step * k] = True
    return mask, band_heights(draw, h)


def _u_shape():
    # legs in rows 0-9, joined in row 9 only; bands of 3 rows
    mask = np.zeros((10, 7), bool)
    mask[:, 1] = mask[:, 5] = True
    mask[9, 1:6] = True
    return mask, [3, 3, 3, 1]


def _diagonal_seams():
    # two staircases, one down to the right and one down to the left: at
    # every seam between the 1-row bands their steps touch only diagonally
    mask = np.zeros((6, 14), bool)
    mask[:, :6] = np.eye(6, dtype=bool)
    mask[:, 8:] = np.eye(6, dtype=bool)[:, ::-1]
    return mask, [1] * 6


@settings(max_examples=400, deadline=None)
@given(case=banded_masks())
@example(case=_u_shape())
@example(case=_diagonal_seams())
def test_banded_labelling_matches_whole_map_labelling(case):
    """Every sample's component is the one whole-map ndimage.label gives
    its pixel, under the same number: the same pixel sets, in the same
    order."""
    mask, heights = case
    prob = MaskedGrid(mask.astype(np.float32))
    samples = banded_samples(prob, 0.5, heights)
    whole = ndimage.label(mask, structure=np.ones((3, 3), int))[0].ravel()
    np.testing.assert_array_equal(_components(samples), whole[samples.offsets])


def test_seam_examples_are_what_they_claim():
    """The pinned examples above cross seams as they say: each component
    spans three or more bands; the U's legs are two pieces in every band
    but the last; the staircases' seams touch only diagonally."""
    eight = np.ones((3, 3), int)
    for mask, heights in (_u_shape(), _diagonal_seams()):
        ends = np.cumsum(heights)[:-1]
        labels, n = ndimage.label(mask, structure=eight)
        for k in range(1, n + 1):
            assert len(set(np.searchsorted(ends, np.nonzero(labels == k)[0], side="right"))) >= 3
    mask, heights = _u_shape()
    assert ndimage.label(mask[: heights[0]], structure=eight)[1] == 2
    mask, heights = _diagonal_seams()
    ends = np.cumsum(heights)[:-1]
    assert not np.any(mask[ends - 1] & mask[ends])
    # every seam joins one step down to the right and one down to the left
    assert (mask[ends - 1, :-1] & mask[ends, 1:]).any(axis=1).all()
    assert (mask[ends - 1, 1:] & mask[ends, :-1]).any(axis=1).all()


def test_component_ranks_times_pixels_past_int32():
    # 65,536 one-pixel components on a 512² map: rank * samples reaches
    # 2^32, so keys computed in int32 would wrap and mix components
    values = np.full((512, 512), np.float32(0.1))
    values[::2, ::2] = 0.9
    prob = MaskedGrid(values)
    cfg = DetectorConfig(min_area=1, max_area=10**6)
    dets = detect_map(prob, cfg)
    assert len(dets) == 256 * 256
    assert detection_fields(dets) == detection_fields(reference_detect(prob, cfg))


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
def test_empty_map_has_no_detections(shape):
    assert detect_map(MaskedGrid(np.zeros(shape, np.float32)), DetectorConfig()) == []


_HALF_STEPS = st.integers(0, 12).map(lambda v: v / 2)
# far-apart huge coordinates would overflow a k-d tree's squared distances
_CENTROIDS = (
    st.tuples(_HALF_STEPS, _HALF_STEPS)
    | st.tuples(st.floats(0, 6), st.floats(0, 6))
    | st.tuples(st.floats(-1e305, 1e305), st.floats(-1e305, 1e305))
)


@st.composite
def match_cases(draw):
    """Detections, truth and a radius, often the exact distance of some pair."""
    dets = [
        CrownDetection(id=i, centroid=xy, bbox=(0, 0, 0, 0), pixel_count=1, diameter_px=1.0, score=0.9)
        for i, xy in enumerate(draw(st.lists(_CENTROIDS, max_size=14)))
    ]
    truth = AnnotationSet(tuple(
        CrownAnnotation(i, "healthy", x, y, 1.0) for i, (x, y) in enumerate(draw(st.lists(_CENTROIDS, max_size=14)))
    ))
    exact = [
        d for d in (math.hypot(det.centroid[0] - c.cx, det.centroid[1] - c.cy) for det in dets for c in truth.crowns)
        if d > 0
    ]
    limits = st.floats(0.01, 10.0) | st.floats(1e-300, 1e308)
    if exact:
        limits = st.sampled_from(exact) | limits
    return dets, truth, draw(limits)


@settings(max_examples=300, deadline=None)
@given(case=match_cases())
def test_match_detections_matches_all_pairs_reference(case):
    dets, truth, max_dist = case
    result = match_detections(dets, truth, max_dist)
    matches, fps, fns = reference_match(dets, truth, max_dist)
    assert [(d.id, c.id) for d, c in result.matches] == matches
    assert [d.id for d in result.false_positives] == fps
    assert [c.id for c in result.false_negatives] == fns


def test_split_touching_memory_is_linear():
    # a 240x240 noisy component with thousands of local maxima: an
    # all-pairs owner assignment would hold pixels x seeds matrices
    rng = np.random.default_rng(0)
    values = np.zeros((244, 244), np.float32)
    values[2:-2, 2:-2] = rng.uniform(0.55, 1.0, (240, 240))
    pixels = np.nonzero(values > 0.5)
    probability = values[pixels]
    tracemalloc.start()
    try:
        parts = split_touching(pixels, probability, DetectorConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(xs) for _, xs in parts) == 240 * 240
    assert peak < 64 << 20


def touching_discs_map(side, cell=32, r=9.0):
    """Two discs of radius r in every cell of a square lattice, touching
    each other and the discs of the next cells into rows of crowns wider
    than max_area, over a noise background with specks above 0.5."""
    y, x = np.mgrid[0:side, 0:side]
    cy, cx = y % cell - cell / 2 + 0.5, x % cell - cell / 2 + 0.5
    member = ((cx - r) ** 2 + cy**2 <= r * r) | ((cx + r) ** 2 + cy**2 <= r * r)
    noise = np.random.default_rng(0).uniform(0, 0.6, member.shape).astype(np.float32)
    return MaskedGrid(np.where(member, np.float32(0.9), noise))


def test_detect_crowns_memory_stays_below_the_whole_plane_labelling():
    # 47 % crown pixels, 9 % specks and 32 splits on a 1024² map. Finding
    # each kept component in the whole label plane peaked at 16.1 MiB here
    # (a bool and an int32 plane, the foreground's labels, each
    # component's pixels); reading only the foreground pixels after
    # labelling peaks at 11.5 MiB. The bound lies between the two; do not
    # raise it.
    samples = PixelSamples.gather(touching_discs_map(1024), DetectorConfig().prob_threshold)
    tracemalloc.start()
    try:
        dets = detect_crowns(samples, DetectorConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(dets) == 2058
    assert peak < 13.7 * 2**20


# Few sample values make zero denominators (0 + 0, 0.25 - 0.25), nodata
# and non-finite pixels common.
_SAMPLES = st.sampled_from([0.0, 0.25, -0.25, 0.5, -1.0, math.nan, math.inf]) | st.floats(
    -2, 2, width=32
)


@st.composite
def classify_cases(draw):
    h = draw(st.integers(1, 6))
    w = draw(st.integers(1, 6))
    nodata = draw(st.sampled_from([None, -1.0, math.nan]))
    raster = Raster(
        bands=tuple(
            Band(name=name, samples=draw(hnp.arrays(np.float32, (h, w), elements=_SAMPLES)))
            for name in ("blue", "green", "red", "nir")
        ),
        nodata_value=nodata,
    )
    detections = []
    # pixel sets drawn independently, so they overlap
    for i in range(draw(st.integers(1, 5))):
        flat = draw(st.lists(st.integers(0, h * w - 1), min_size=1, max_size=h * w, unique=True))
        ys, xs = np.divmod(np.array(flat, np.intp), w)
        detections.append(
            CrownDetection(
                id=i + 1,
                centroid=(float(xs.mean()), float(ys.mean())),
                bbox=(int(xs.min()), int(ys.min()), int(xs.max()), int(ys.max())),
                pixel_count=len(xs),
                diameter_px=2 * math.sqrt(len(xs) / math.pi),
                score=0.9,
                pixels=(ys, xs),
            )
        )
    cfg = DetectorConfig(
        smallish_diameter_px=draw(st.floats(0, 8)), dead_ndvi_max=draw(st.floats(-1, 1))
    )
    band_rows = draw(st.integers(1, h))
    extra = draw(hnp.arrays(bool, (h, w)))
    return detections, raster, cfg, band_rows, extra


def classify_fields(dets):
    return [(repr(d.mean_ndvi), repr(d.mean_gndvi), d.class_label) for d in dets]


@settings(max_examples=300, deadline=None)
@given(case=classify_cases(), block_px=st.sampled_from([1, 3, 8, raster_core.BLOCK_PX]))
def test_classify_detections_matches_per_detection_reference(case, block_px):
    """Bit for bit, the first unclassifiable detection included, for any
    split of the detections into blocks."""
    detections, raster, cfg, band_rows, extra = case
    expected = copy.deepcopy(detections)
    # gathered as the pipeline gathers them: row band by row band, at the
    # crown pixels and some others, then joined
    where = extra.copy()
    for det in detections:
        where[det.pixels] = True
    heights = [min(band_rows, raster.height - top) for top in range(0, raster.height, band_rows)]
    samples = banded_samples(MaskedGrid(where.astype(np.float32)), 0.5, heights, raster)
    for det in detections:
        det.columns = columns_in(samples, det)
    with mock.patch.object(raster_core, "BLOCK_PX", block_px):
        try:
            for det in expected:
                reference_classify(det, raster, cfg)
        except UnclassifiableError:
            with pytest.raises(UnclassifiableError):
                classify_detections(detections, samples, cfg)
        else:
            assert classify_detections(detections, samples, cfg) is detections
    assert classify_fields(detections) == classify_fields(expected)
