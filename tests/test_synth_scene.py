import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from palmwatch.annotations import AnnotationSet, CrownAnnotation
from palmwatch.errors import CapacityError, ParameterError
from palmwatch.indices import ndvi, vegetation_mask
from palmwatch.raster_core import save_raster
from palmwatch.synth_scene import (
    BAND_NAMES,
    DEFAULT_BACKGROUND,
    DEFAULT_DIAMETERS,
    DEFAULT_PROFILES,
    MAX_SAMPLE_PARAM,
    MAX_SCENE_PIXELS,
    SceneSpec,
    generate_scene,
    load_spec,
    rasterize_labels,
    spec_from_json,
    spec_to_json,
)


def small_spec(**overrides):
    defaults = dict(
        width=256,
        height=256,
        counts={"healthy": 4, "smallish": 3, "dead": 3},
        seed=5,
    )
    defaults.update(overrides)
    return SceneSpec(**defaults)


class TestGenerate:
    def test_zero_crowns_pure_background(self):
        spec = small_spec(counts={"healthy": 0, "smallish": 0, "dead": 0})
        raster, ann = generate_scene(spec)
        assert len(ann) == 0
        mask = raster.valid_mask()
        index = ndvi(raster.band("nir"), raster.band("red"), mask)
        veg = vegetation_mask(index, 0.2)
        assert veg.count() / veg.bits.size < 0.01

    def test_single_healthy_crown_spectra(self):
        spec = SceneSpec(
            width=128,
            height=128,
            counts={"healthy": 1, "smallish": 0, "dead": 0},
            diameter_ranges={"healthy": (20.0, 20.0), "smallish": (7.0, 11.0), "dead": (14.0, 26.0)},
            seed=2,
        )
        raster, ann = generate_scene(spec)
        assert len(ann) == 1
        crown = ann.crowns[0]
        assert crown.radius_px == pytest.approx(10.0)
        index = ndvi(raster.band("nir"), raster.band("red"), raster.valid_mask())
        yy, xx = np.mgrid[0:128, 0:128]
        d2 = (xx - crown.cx) ** 2 + (yy - crown.cy) ** 2
        # core of the crown carries the healthy signature, away from it the soil one
        inside = d2 <= (0.6 * crown.radius_px) ** 2
        outside = d2 > (crown.radius_px + 4) ** 2
        assert index.values[inside & index.valid].mean() > 0.5
        assert index.values[outside & index.valid].mean() < 0.2

    def test_same_seed_byte_identical(self, tmp_path):
        a, ann_a = generate_scene(small_spec())
        b, ann_b = generate_scene(small_spec())
        save_raster(a, tmp_path / "a")
        save_raster(b, tmp_path / "b")
        assert (tmp_path / "a.rbin").read_bytes() == (tmp_path / "b.rbin").read_bytes()
        assert ann_a.crowns == ann_b.crowns

    def test_different_seed_differs(self):
        a, _ = generate_scene(small_spec(seed=1))
        b, _ = generate_scene(small_spec(seed=2))
        assert not np.array_equal(a.band("nir").samples, b.band("nir").samples)

    def test_spacing_constraint_honored(self):
        spec = small_spec(min_spacing=10.0)
        _, ann = generate_scene(spec)
        crowns = ann.crowns
        for i, a in enumerate(crowns):
            for b in crowns[i + 1 :]:
                dist = math.hypot(a.cx - b.cx, a.cy - b.cy)
                assert dist >= spec.min_spacing + a.radius_px + b.radius_px

    def test_crowns_inside_scene(self):
        _, ann = generate_scene(small_spec())
        ann.check_within(256, 256)  # raises on violation

    def test_capacity_error(self):
        spec = small_spec(
            width=64,
            height=64,
            counts={"healthy": 200, "smallish": 0, "dead": 0},
            min_spacing=8.0,
        )
        with pytest.raises(CapacityError):
            generate_scene(spec)

    def test_crown_one_pixel_too_wide_is_capacity_error(self):
        # margin 3.75 each side needs 7.5 of the 7 px between the first and
        # last pixel centres (was a ValueError from rng.uniform)
        spec = SceneSpec(
            width=8, height=8, counts={"dead": 1}, diameter_ranges={"dead": (3.5, 3.5)}, min_spacing=0.0
        )
        with pytest.raises(CapacityError, match="cannot fit"):
            generate_scene(spec)

    def test_class_separability(self):
        raster, ann = generate_scene(small_spec(seed=9))
        index = ndvi(raster.band("nir"), raster.band("red"), raster.valid_mask())
        means = {}
        for label in ("healthy", "smallish", "dead"):
            member = np.zeros((256, 256), bool)
            for crown in ann.of_class(label):
                ys, xs = ann.crown_pixels(crown, 256, 256)
                # core pixels only: the rim blends into background
                d = np.sqrt((xs - crown.cx) ** 2 + (ys - crown.cy) ** 2)
                core = d <= 0.5 * crown.radius_px
                member[ys[core], xs[core]] = True
            means[label] = float(index.values[member & index.valid].mean())
        assert means["dead"] < 0.15 < 0.4 < means["healthy"]
        assert means["dead"] < means["smallish"]
        healthy_d = [c.radius_px for c in ann.of_class("healthy")]
        smallish_d = [c.radius_px for c in ann.of_class("smallish")]
        assert min(healthy_d) > max(smallish_d)

    def test_four_bands_present(self):
        raster, _ = generate_scene(small_spec())
        assert raster.band_names == ("red", "green", "blue", "nir")

    def test_reflectance_nonnegative(self):
        raster, _ = generate_scene(small_spec(noise_sigma=0.2))
        for band in raster.bands:
            assert (band.samples >= 0).all()


class TestRasterizeLabels:
    def test_empty(self):
        out = rasterize_labels(AnnotationSet(()), 32, 16)
        assert out.shape == (16, 32)
        assert not out.any()

    @pytest.mark.parametrize("radius", [8.0, 10.0, 12.0, 16.0])
    def test_disc_area_close_to_circle(self, radius):
        ann = AnnotationSet((CrownAnnotation(1, "healthy", 40.0, 40.0, radius),))
        out = rasterize_labels(ann, 80, 80)
        assert out.sum() == pytest.approx(math.pi * radius * radius, rel=0.03)

    def test_disjoint_discs_sum(self):
        crowns = (
            CrownAnnotation(1, "healthy", 20.0, 20.0, 6.0),
            CrownAnnotation(2, "dead", 60.0, 60.0, 8.0),
        )
        singles = [
            rasterize_labels(AnnotationSet((c,)), 90, 90).sum() for c in crowns
        ]
        combined = rasterize_labels(AnnotationSet(crowns), 90, 90).sum()
        assert combined == sum(singles)

    def test_clipped_at_borders(self):
        ann = AnnotationSet((CrownAnnotation(1, "healthy", 0.0, 0.0, 5.0),))
        out = rasterize_labels(ann, 20, 20)
        assert out[0, 0]
        assert out.sum() < math.pi * 25  # quarter disc only


class TestSpecSerialization:
    def test_round_trip(self):
        spec = small_spec(noise_sigma=0.02, jitter_std=0.005, min_spacing=9.5)
        again = spec_from_json(spec_to_json(spec))
        assert again == spec

    def test_defaults_fill_missing(self):
        spec = spec_from_json("{}")
        assert spec == SceneSpec()

    def test_bad_values_rejected(self):
        with pytest.raises(ParameterError):
            SceneSpec(width=0)
        with pytest.raises(ParameterError):
            SceneSpec(counts={"healthy": -1})
        with pytest.raises(ParameterError):
            SceneSpec(noise_sigma=-0.1)
        with pytest.raises(ParameterError):
            SceneSpec(seed=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("width", math.inf),
            ("height", math.nan),
            ("background", {**DEFAULT_BACKGROUND, "red": math.nan}),
            ("profiles", {**DEFAULT_PROFILES, "dead": {"nir": math.inf}}),
            ("jitter_std", math.nan),
            ("noise_sigma", math.inf),
            ("min_spacing", math.nan),
            ("diameter_ranges", {**DEFAULT_DIAMETERS, "healthy": (16.0, math.inf)}),
            ("diameter_ranges", {**DEFAULT_DIAMETERS, "dead": (math.nan, 20.0)}),
            # finite, but past the cap that keeps every float32 sample finite
            ("noise_sigma", 1e300),
            ("jitter_std", 3e38),
            ("background", {**DEFAULT_BACKGROUND, "nir": 1e39}),
            ("profiles", {**DEFAULT_PROFILES, "dead": {"red": MAX_SAMPLE_PARAM * 2}}),
        ],
    )
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ParameterError, match="finite"):
            small_spec(**{field: value})

    def test_scene_size_is_capped(self):
        SceneSpec(width=MAX_SCENE_PIXELS, height=1, counts={})
        with pytest.raises(ParameterError, match="pixels"):
            SceneSpec(width=MAX_SCENE_PIXELS, height=2, counts={})

    def test_counted_class_needs_range_and_profile(self):
        with pytest.raises(ParameterError, match="healthy"):
            small_spec(profiles={"smallish": {}, "dead": {}})

    def test_load_spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(spec_to_json(small_spec()))
        assert load_spec(path) == small_spec()


# Any float, and floats from the accepted range so most specs are accepted.
_sample_params = st.floats(0, MAX_SAMPLE_PARAM) | st.floats()
_profiles = st.fixed_dictionaries({}, optional={band: _sample_params for band in BAND_NAMES})


@st.composite
def _small_spec_fields(draw):
    labels = ("healthy", "smallish", "dead")
    ranges = {}
    for label in labels:
        lo = draw(st.floats(1.0, 6.0))
        ranges[label] = (lo, lo + draw(st.floats(0.0, 4.0)))
    return dict(
        width=draw(st.integers(8, 40)),
        height=draw(st.integers(8, 40)),
        counts={label: draw(st.integers(0, 2)) for label in labels},
        diameter_ranges=ranges,
        profiles={label: draw(_profiles) for label in labels},
        background=draw(_profiles),
        jitter_std=draw(_sample_params),
        noise_sigma=draw(_sample_params),
        min_spacing=draw(st.floats(0.0, 4.0)),
        seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fields=_small_spec_fields())
def test_accepted_specs_generate_finite_samples(fields):
    try:
        spec = SceneSpec(**fields)
    except ParameterError:
        return
    try:
        raster, _ = generate_scene(spec)
    except CapacityError:
        return
    for band in raster.bands:
        assert np.isfinite(band.samples).all(), band.name
