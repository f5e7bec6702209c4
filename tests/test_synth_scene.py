import hashlib
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from palmwatch import raster_core, synth_scene
from palmwatch.annotations import (
    CLASS_LABELS,
    AnnotationSet,
    CrownAnnotation,
    disc_pixels,
    rasterize_labels,
    save_annotations,
)
from palmwatch.errors import CapacityError, ParameterError
from palmwatch.indices import ndvi, vegetation_mask
from palmwatch.raster_core import save_raster, stream
from palmwatch.synth_scene import (
    _PLACEMENT_ATTEMPTS_PER_CROWN,
    BAND_NAMES,
    DEFAULT_BACKGROUND,
    DEFAULT_DIAMETERS,
    DEFAULT_PROFILES,
    MAX_SAMPLE_PARAM,
    MAX_SCENE_PIXELS,
    SceneSpec,
    generate_scene,
    load_spec,
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
                ys, xs = disc_pixels(crown.cx, crown.cy, crown.radius_px, 256, 256)
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
    def test_round_trip(self, tmp_path):
        spec = small_spec(noise_sigma=0.02, jitter_std=0.005, min_spacing=9.5)
        path = tmp_path / "spec.json"
        path.write_text(spec_to_json(spec))
        assert load_spec(path) == spec

    def test_defaults_fill_missing(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{}")
        assert load_spec(path) == SceneSpec()

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


# values of raster_core.BLOCK_PX and STREAM_PX, the default last
_block_sizes = st.sampled_from([1, 97, 4096, raster_core.BLOCK_PX])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.data(),
    width=st.integers(1, 300),
    height=st.integers(1, 120),
    sigma=st.sampled_from([0.0, 0.01, 0.3]),
    seed=st.integers(0, 2**64),
    block_px=_block_sizes,
    stream_px=_block_sizes,
)
def test_noise_is_the_stream_of_each_row_band(data, width, height, sigma, seed, block_px, stream_px):
    """Row band j of band i, of max(1, STREAM_PX // width) rows, adds
    float32 normals from stream(seed, i, j) times sigma to the noise-free
    render, clamped at zero: the same bits on 1, 2 or 3 CPUs, whatever
    BLOCK_PX is."""
    # up to six crowns of diameter 6 or less place easily on a 64 x 64 scene
    fits = min(width, height) >= 64
    spec = SceneSpec(
        width=width,
        height=height,
        counts={label: data.draw(st.integers(0, 2)) if fits else 0 for label in ("healthy", "smallish", "dead")},
        diameter_ranges={"healthy": (3.0, 6.0), "smallish": (2.0, 3.0), "dead": (3.0, 5.0)},
        noise_sigma=sigma,
        min_spacing=1.0,
        seed=seed,
    )
    with mock.patch.object(raster_core, "STREAM_PX", stream_px):
        quiet, quiet_ann = generate_scene(replace(spec, noise_sigma=0.0))
        rows = max(1, stream_px // width)
        want = []
        for i, band in enumerate(quiet.bands):
            normals = np.concatenate([
                stream(seed, i, j).standard_normal((min(rows, height - top), width), dtype=np.float32)
                for j, top in enumerate(range(0, height, rows))
            ])
            want.append(np.maximum(band.samples + normals * np.float32(sigma), 0) if sigma else band.samples)
        for cpus in (1, 2, 3):
            with mock.patch.object(raster_core, "BLOCK_PX", block_px), \
                    mock.patch.object(raster_core, "usable_cpus", return_value=cpus):
                raster, ann = generate_scene(spec)
            assert ann == quiet_ann
            for band, expected in zip(raster.bands, want):
                np.testing.assert_array_equal(band.samples.view(np.uint32), expected.view(np.uint32))


# sha256 of the four bands (little-endian float32, in band order) and of
# the saved annotations of DENSE_SPEC, as synthesis wrote them before
# placement used a grid and crowns were drawn over their boxes
DENSE_SPEC = SceneSpec(
    width=512,
    height=512,
    counts={"healthy": 35, "smallish": 40, "dead": 25},
    diameter_ranges={"healthy": (40.0, 64.0), "smallish": (7.0, 11.0), "dead": (40.0, 64.0)},
    min_spacing=0.0,
    seed=3,
)
DENSE_BANDS_SHA256 = "d2d76892ba54ed49bf179a2906ad06ae27773e329a3527b62d9d57fb011c70da"
DENSE_ANNOTATIONS_SHA256 = "393cdbdca5bdc29a94a277b7d31224f744111d3248445d2789a317dfb276309d"


def test_dense_scene_bytes_are_pinned(tmp_path):
    raster, ann = generate_scene(DENSE_SPEC)
    assert len(ann) == 100
    bands = hashlib.sha256()
    for band in raster.bands:
        bands.update(band.samples.astype("<f4").tobytes())
    save_annotations(ann, tmp_path / "a.json")
    assert bands.hexdigest() == DENSE_BANDS_SHA256
    assert hashlib.sha256((tmp_path / "a.json").read_bytes()).hexdigest() == DENSE_ANNOTATIONS_SHA256


def reference_place_crowns(spec, rng):
    """Placement checking each candidate against every crown placed: the
    rule as first written, kept as the reference for the grid."""
    placed = []
    next_id = 1
    for label in CLASS_LABELS:
        count = spec.counts.get(label, 0)
        if count == 0:
            continue
        lo, hi = spec.diameter_ranges[label]
        for _ in range(count):
            for attempt in range(_PLACEMENT_ATTEMPTS_PER_CROWN):
                radius = float(rng.uniform(lo, hi)) / 2.0
                margin = radius + 2.0
                if 2 * margin > spec.width - 1 or 2 * margin > spec.height - 1:
                    raise CapacityError(
                        f"a {label} crown of radius {radius:.1f} cannot fit a "
                        f"{spec.width}x{spec.height} scene"
                    )
                cx = float(rng.uniform(margin, spec.width - 1 - margin))
                cy = float(rng.uniform(margin, spec.height - 1 - margin))
                candidate = CrownAnnotation(id=next_id, class_label=label, cx=cx, cy=cy, radius_px=radius)
                if all(
                    math.hypot(candidate.cx - c.cx, candidate.cy - c.cy)
                    >= spec.min_spacing + candidate.radius_px + c.radius_px
                    for c in placed
                ):
                    placed.append(candidate)
                    next_id += 1
                    break
            else:
                raise CapacityError(
                    f"could not place crown {next_id} ({label}) after "
                    f"{_PLACEMENT_ATTEMPTS_PER_CROWN} attempts; reduce counts, "
                    f"spacing or diameters"
                )
    return placed


def placement_outcome(place, spec):
    """The crowns placed, or the CapacityError message, and the rng state after."""
    rng = np.random.default_rng(spec.seed)
    try:
        result = place(spec, rng)
    except CapacityError as err:
        result = str(err)
    return result, rng.bit_generator.state


@st.composite
def placement_specs(draw):
    """Small scenes, from roomy to past their capacity, with diameter
    ranges that often overlap across classes, at zero, typical and huge
    spacings."""
    side = st.integers(8, 256)
    ranges = {}
    for label in CLASS_LABELS:
        lo = draw(st.floats(1.0, 20.0))
        ranges[label] = (lo, lo + draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 12.0)))
    return SceneSpec(
        width=draw(side),
        height=draw(side),
        counts={label: draw(st.integers(0, 12)) for label in CLASS_LABELS},
        diameter_ranges=ranges,
        min_spacing=draw(st.sampled_from([0.0, 0.0, 1e4, 1e300]) | st.floats(0.0, 30.0) | st.floats(0.0, 8.0)),
        seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=placement_specs())
def test_placement_is_the_all_pairs_rule(spec):
    assert placement_outcome(synth_scene._place_crowns, spec) == placement_outcome(reference_place_crowns, spec)


def test_placement_checks_per_crown_stay_bounded():
    """At a fixed density, distance checks per placed crown stay flat as
    the crown count doubles from 1,000 to 8,000; checking every pair they
    would grow eightfold."""
    real = synth_scene._spaced
    per_crown = []
    for count in (1000, 2000, 4000, 8000):
        side = round(math.sqrt(count) * 32)  # one crown per 1,024 px
        spec = SceneSpec(
            width=side,
            height=side,
            counts={"healthy": count},
            diameter_ranges={"healthy": (8.0, 12.0)},
            min_spacing=2.0,
            seed=count,
        )
        checks = 0

        def counting(a, b, min_spacing):
            nonlocal checks
            checks += 1
            return real(a, b, min_spacing)

        with mock.patch.object(synth_scene, "_spaced", counting):
            crowns = synth_scene._place_crowns(spec, np.random.default_rng(spec.seed))
        assert len(crowns) == count
        per_crown.append(checks / count)
    assert max(per_crown) <= 1.25 * min(per_crown), per_crown


def reference_render(spec, crowns, rng):
    """Each crown drawn through ``disc_pixels`` and a fancy index: the
    render as first written, kept as the reference for the box-local one."""
    grids = {
        band: np.full((spec.height, spec.width), spec.background.get(band, 0.0), dtype=np.float32)
        for band in BAND_NAMES
    }
    for crown in crowns:
        profile = spec.profiles[crown.class_label]
        jitter = rng.normal(0.0, spec.jitter_std, size=len(BAND_NAMES)) if spec.jitter_std > 0 else np.zeros(len(BAND_NAMES))
        ys, xs = disc_pixels(crown.cx, crown.cy, crown.radius_px, spec.width, spec.height)
        d = np.sqrt((xs - crown.cx) ** 2 + (ys - crown.cy) ** 2)
        falloff = np.cos(0.5 * math.pi * np.minimum(d / crown.radius_px, 1.0))
        for i, band in enumerate(BAND_NAMES):
            target = max(profile.get(band, 0.0) + jitter[i], 0.0)
            base = spec.background.get(band, 0.0)
            grids[band][ys, xs] = (base + (target - base) * falloff).astype(np.float32)
    return grids


@st.composite
def crowns_on_small_grids(draw):
    """Crowns across a small grid and over each of its borders, often
    overlapping one another, with radii from under a pixel to past the grid."""
    width, height = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    spec = SceneSpec(width=width, height=height, counts={}, jitter_std=draw(st.sampled_from([0.0, 0.01, 0.3])))
    crowns = tuple(
        CrownAnnotation(
            id=i,
            class_label=draw(st.sampled_from(CLASS_LABELS)),
            cx=draw(st.floats(-8, width + 8) | st.sampled_from([0.0, width - 1.0, width - 0.5])),
            cy=draw(st.floats(-8, height + 8) | st.sampled_from([0.0, height - 1.0, height - 0.5])),
            radius_px=draw(st.floats(0.004, 1.0) | st.floats(0.004, 50)),
        )
        for i in range(draw(st.integers(0, 8)))
    )
    return spec, crowns


@settings(max_examples=300, deadline=None)
@given(case=crowns_on_small_grids(), seed=st.integers(0, 2**32))
def test_box_render_is_the_fancy_index_render(case, seed):
    spec, crowns = case
    got = synth_scene._render_crowns(spec, crowns, np.random.default_rng(seed))
    want = reference_render(spec, crowns, np.random.default_rng(seed))
    for band in BAND_NAMES:
        np.testing.assert_array_equal(got[band].view(np.uint32), want[band].view(np.uint32))
