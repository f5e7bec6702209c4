import hashlib
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palmwatch import raster_core
from palmwatch.annotations import AnnotationSet, CrownAnnotation, disc_pixels, save_annotations
from palmwatch.augment import (
    MAX_SCALE_FACTOR,
    _rebuild,
    AugmentSpec,
    CropOp,
    FlipHOp,
    FlipVOp,
    GammaOp,
    GaussianNoiseOp,
    ScaleOp,
    apply_spec,
    flip_h,
    flip_v,
    gamma_adjust,
    gaussian_noise,
    random_crop,
    load_spec,
    scale,
    spec_to_json,
)
from palmwatch.errors import DomainError, PalmwatchError, ParameterError
from palmwatch.raster_core import MAX_SAMPLE_PARAM, Band, Raster, stream

from conftest import make_raster, random_raster


def crown(id=1, label="healthy", cx=10.0, cy=7.0, r=3.0):
    return CrownAnnotation(id, label, cx, cy, r)


def assert_rasters_equal(a, b):
    assert a.band_names == b.band_names
    for name in a.band_names:
        np.testing.assert_array_equal(
            a.band(name).samples.view(np.uint32), b.band(name).samples.view(np.uint32)
        )


class TestFlips:
    def test_flip_h_centroid(self, rng):
        tile = random_raster(rng, 100, 50)
        ann = AnnotationSet((crown(cx=10.0, cy=7.0),))
        _, flipped = flip_h(tile, ann)
        assert flipped.crowns[0].cx == 89.0
        assert flipped.crowns[0].cy == 7.0

    def test_flip_h_involution(self, rng):
        tile = random_raster(rng, 37, 21)
        ann = AnnotationSet((crown(cx=5.5, cy=8.25), crown(id=2, cx=30.0, cy=2.0)))
        twice_tile, twice_ann = flip_h(*flip_h(tile, ann))
        assert_rasters_equal(tile, twice_tile)
        for before, after in zip(ann.crowns, twice_ann.crowns):
            assert before == after

    def test_flip_v_involution(self, rng):
        tile = random_raster(rng, 16, 33)
        ann = AnnotationSet((crown(cx=4.0, cy=20.0),))
        twice_tile, twice_ann = flip_v(*flip_v(tile, ann))
        assert_rasters_equal(tile, twice_tile)
        assert twice_ann.crowns == ann.crowns

    def test_flip_v_constant_columns_unchanged(self):
        samples = np.tile(np.arange(8, dtype=np.float32), (6, 1))
        tile = make_raster({"b": samples})
        flipped, _ = flip_v(tile, AnnotationSet(()))
        assert_rasters_equal(tile, flipped)

    def test_flip_moves_pixels(self, rng):
        tile = random_raster(rng, 10, 4, band_names=("b",))
        flipped, _ = flip_h(tile, AnnotationSet(()))
        np.testing.assert_array_equal(
            flipped.band("b").samples, tile.band("b").samples[:, ::-1]
        )


class TestRandomCrop:
    def test_full_size_identity(self, rng):
        tile = random_raster(rng, 24, 24)
        ann = AnnotationSet((crown(cx=12.0, cy=12.0),))
        out_tile, out_ann = random_crop(tile, ann, 24, np.random.default_rng(0))
        assert_rasters_equal(tile, out_tile)
        assert out_ann.crowns == ann.crowns

    def test_crown_inside_retained_shifted(self):
        tile = make_raster({"b": np.zeros((40, 40), np.float32)})
        ann = AnnotationSet((crown(cx=30.0, cy=30.0, r=4.0),))
        # force the crop to the bottom-right corner by seed search
        for seed in range(50):
            rng = np.random.default_rng(seed)
            out_tile, out_ann = random_crop(tile, ann, 20, rng)
            if len(out_ann) == 1:
                shifted = out_ann.crowns[0]
                assert shifted.radius_px == 4.0
                # centroid stays the same scene point, re-expressed in crop coords
                assert 0 <= shifted.cx < 20
                assert 0 <= shifted.cy < 20
                break
        else:
            pytest.fail("no crop retained the crown in 50 seeds")

    def test_crown_outside_dropped(self):
        tile = make_raster({"b": np.zeros((64, 64), np.float32)})
        ann = AnnotationSet((crown(cx=60.0, cy=60.0, r=2.0),))
        out_tile, out_ann = random_crop(
            tile, ann, 16, np.random.default_rng(3)
        )  # seed 3 picks a window away from (60, 60) for 64->16
        x0 = 60.0 - out_ann.crowns[0].cx if out_ann.crowns else None
        if out_ann.crowns:
            pytest.skip("crop landed on the crown; geometry covered elsewhere")
        assert len(out_ann) == 0

    def test_half_rule(self):
        tile = make_raster({"b": np.zeros((21, 21), np.float32)})
        # crown centered on the crop's right edge: about half retained
        ann = AnnotationSet((crown(cx=10.0, cy=5.0, r=3.0),))

        class FixedRng:
            def integers(self, lo, hi):
                return 0

        out_tile, out_ann = random_crop(tile, ann, 11, FixedRng())
        # centroid at x=10 with crop [0, 11): pixels at x <= 10 kept = majority
        assert len(out_ann) == 1

        ann2 = AnnotationSet((crown(cx=12.0, cy=5.0, r=3.0),))
        _, out_ann2 = random_crop(tile, ann2, 11, FixedRng())
        # centroid outside the window: fewer than half the pixels remain
        assert len(out_ann2) == 0

    def test_size_too_large(self, rng):
        tile = random_raster(rng, 8, 8)
        with pytest.raises(ParameterError):
            random_crop(tile, AnnotationSet(()), 9, np.random.default_rng(0))


class TestGaussianNoise:
    def test_sigma_zero_identity(self, rng):
        tile = random_raster(rng, 12, 12)
        out = gaussian_noise(tile, 0.0, np.random.default_rng(1))
        assert_rasters_equal(tile, out)

    def test_mean_shift_bounded(self):
        tile = make_raster({"b": np.full((1000, 1000), 5.0, np.float32)})
        sigma = 0.05
        out = gaussian_noise(tile, sigma, np.random.default_rng(42))
        shift = float(out.band("b").samples.astype(np.float64).mean() - 5.0)
        assert abs(shift) < 3 * sigma / 1000

    def test_deterministic_given_seed(self, rng):
        tile = random_raster(rng, 30, 30)
        a = gaussian_noise(tile, 0.1, np.random.default_rng(7))
        b = gaussian_noise(tile, 0.1, np.random.default_rng(7))
        assert_rasters_equal(a, b)

    def test_nodata_untouched_and_clamped(self):
        samples = np.full((50, 50), 0.001, np.float32)
        samples[10, 10] = -999.0
        tile = make_raster({"b": samples}, nodata=-999.0)
        out = gaussian_noise(tile, 0.5, np.random.default_rng(0))
        assert out.band("b").samples[10, 10] == -999.0
        valid = out.valid_mask().bits
        assert (out.band("b").samples[valid] >= 0).all()

    def test_clamp_to_a_zero_nodata_is_domain_error(self):
        # about half the samples clamp to +0.0, bitwise the nodata value
        tile = make_raster({"b": np.full((100, 100), 0.001, np.float32)}, nodata=0.0)
        with pytest.raises(DomainError, match="'b'.*nodata"):
            gaussian_noise(tile, 0.01, np.random.default_rng(0))

    @pytest.mark.parametrize("nodata", [None, np.nan, -9999.0])
    def test_clamp_to_zero_is_fine_when_zero_is_not_nodata(self, nodata):
        tile = make_raster({"b": np.full((100, 100), 0.001, np.float32)}, nodata=nodata)
        out = gaussian_noise(tile, 0.01, np.random.default_rng(0))
        assert (out.band("b").samples == 0).any()
        assert out.valid_mask().bits.all()


class TestGamma:
    def test_exponent_one_identity(self, rng):
        tile = random_raster(rng, 15, 15)
        assert_rasters_equal(tile, gamma_adjust(tile, 1.0))

    def test_sqrt_value(self):
        tile = make_raster({"b": np.full((2, 2), 0.25, np.float32)})
        out = gamma_adjust(tile, 0.5)
        np.testing.assert_array_equal(out.band("b").samples, np.float32(0.5))

    def test_monotone(self, rng):
        tile = random_raster(rng, 40, 40)
        out = gamma_adjust(tile, 1.7)
        a = tile.band("red").samples.ravel()
        b = out.band("red").samples.ravel()
        order = np.argsort(a, kind="stable")
        assert (np.diff(b[order]) >= 0).all()

    def test_negative_samples_domain_error(self):
        tile = make_raster({"b": np.array([[-0.1, 0.5]], np.float32)})
        with pytest.raises(DomainError):
            gamma_adjust(tile, 2.0)

    def test_result_beyond_float32_domain_error(self):
        tile = make_raster({"b": np.full((2, 2), 2.0, np.float32)})
        with pytest.raises(DomainError, match="'b'"):
            gamma_adjust(tile, 200.0)
        # 2**127 is still a float32
        assert gamma_adjust(tile, 127.0).band("b").samples[0, 0] == 2.0**127

    def test_nodata_untouched(self):
        samples = np.array([[0.25, -999.0]], np.float32)
        tile = make_raster({"b": samples}, nodata=-999.0)
        out = gamma_adjust(tile, 0.5)
        assert out.band("b").samples[0, 1] == -999.0

    @pytest.mark.parametrize("sample", [-0.0, 1e-30])
    def test_result_equal_to_nodata_is_domain_error(self, sample):
        # -0.0 is valid under a +0.0 nodata but raises to +0.0; 1e-30 squared underflows to it
        tile = make_raster({"b": np.array([[0.25, sample]], np.float32)}, nodata=0.0)
        with pytest.raises(DomainError, match="'b'.*nodata"):
            gamma_adjust(tile, 2.0)


class TestScale:
    def test_factor_one_identity(self, rng):
        tile = random_raster(rng, 19, 23)
        ann = AnnotationSet((crown(cx=4.5, cy=6.0),))
        out_tile, out_ann = scale(tile, ann, 1.0)
        assert (out_tile.width, out_tile.height) == (19, 23)
        assert_rasters_equal(tile, out_tile)
        assert out_ann.crowns == ann.crowns

    def test_constant_preserved(self):
        tile = make_raster({"b": np.full((16, 16), 0.375, np.float32)})
        out_tile, _ = scale(tile, AnnotationSet(()), 1.37)
        np.testing.assert_array_equal(out_tile.band("b").samples, np.float32(0.375))

    def test_annotation_geometry(self):
        tile = make_raster({"b": np.zeros((30, 30), np.float32)})
        ann = AnnotationSet((crown(cx=10.0, cy=10.0, r=3.0),))
        _, out_ann = scale(tile, ann, 2.0)
        c = out_ann.crowns[0]
        assert (c.cx, c.cy, c.radius_px) == (20.0, 20.0, 6.0)

    def test_dimensions_floor(self, rng):
        tile = random_raster(rng, 10, 7)
        out_tile, _ = scale(tile, AnnotationSet(()), 0.5)
        assert (out_tile.width, out_tile.height) == (5, 3)

    def test_collapse_rejected(self, rng):
        tile = random_raster(rng, 4, 4)
        with pytest.raises(ParameterError):
            scale(tile, AnnotationSet(()), 0.1)

    @pytest.mark.parametrize("nodata", [None, np.nan])
    def test_factor_one_keeps_every_bit(self, nodata):
        # a zero-weight NaN neighbour used to turn 0.5 into NaN, and -0.0 came back +0.0
        samples = np.array([[0.5, np.nan, 0.25, -0.0, 0.75]], np.float32)
        out_tile, _ = scale(make_raster({"b": samples}, nodata=nodata), AnnotationSet(()), 1.0)
        np.testing.assert_array_equal(out_tile.band("b").samples.view(np.uint32), samples.view(np.uint32))

    def test_zero_weight_inf_neighbour_is_silent(self):
        # inf times a zero weight used to warn
        tile = make_raster({"b": np.array([[0.5, np.inf], [-np.inf, 0.25]], np.float32)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = scale(tile, AnnotationSet(()), 2.0)[0].band("b").samples
        np.testing.assert_array_equal(out[::2, ::2], np.array([[0.5, np.nan], [np.nan, 0.25]], np.float32))

    def test_interpolated_nodata_is_domain_error(self):
        # halfway between 0 and 1 is 0.5, the nodata value
        samples = np.tile(np.array([0.0, 1.0], np.float32), (70, 4))
        tile = make_raster({"red": np.full((70, 8), 0.25, np.float32), "nir": samples}, nodata=0.5)
        with pytest.raises(DomainError, match="'nir'.*nodata"):
            scale(tile, AnnotationSet(()), 2.0)


class TestBlockMemory:
    """Memory beyond the output bands is block-sized, not tile-sized."""

    def tile(self, height, width):
        rng = np.random.default_rng(896)
        bands = {name: rng.random((height, width), dtype=np.float32) for name in ("red", "green", "blue", "nir")}
        return make_raster(bands, nodata=-9999.0)

    def peak_beyond_output(self, run):
        """The peak, less the output bands, in float64 buffers of one row
        block of the output (``map_row_blocks``' rows)."""
        tracemalloc.start()
        try:
            out = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = max(1, raster_core.BLOCK_PX // out.width) * out.width * 8
        return (peak - sum(b.samples.nbytes for b in out.bands)) / block

    def peaks(self, run):
        """The peak on one CPU and on two, whatever this host has: each
        worker holds its own buffers."""
        peaks = []
        for cpus in (1, 2):
            with mock.patch.object(raster_core, "usable_cpus", return_value=cpus):
                peaks.append(self.peak_beyond_output(run))
        return peaks

    def test_scale(self):
        # about 6.1 on one CPU and 12.1 on two here (58-row blocks); 17 is
        # within the old bound of 16 buffers of 64 rows, and the whole-plane
        # form took 111 of those
        tile = self.tile(896, 896)
        assert max(self.peaks(lambda: scale(tile, AnnotationSet(()), 1.25)[0])) <= 17

    def test_gaussian_noise(self):
        # about 1.4 and 2.8 here (73-row blocks); 7 is within the old bound
        # of 8 buffers of 64 rows, and the whole-plane form took 44 of those
        tile = self.tile(896, 896)
        assert max(self.peaks(lambda: gaussian_noise(tile, 0.02, np.random.default_rng(3)))) <= 7

    def test_gamma(self):
        # about 1.4 and 2.8 here (73-row blocks); 7 is within the old bound
        # of 8 buffers of 64 rows, and the whole-plane form took 17.5 of those
        tile = self.tile(896, 896)
        assert max(self.peaks(lambda: gamma_adjust(tile, 1.3))) <= 7

    def test_wide_tile(self):
        # about 6.8 and 13.0 (scale on one CPU and on two), 1.4 and 2.8
        # (noise) and 1.4 and 2.8 (gamma) here, in blocks of 8 rows (6 of
        # scale's output); blocks of 64 rows, whatever the width, took
        # 117.5, 18 and 11
        tile = self.tile(128, 8192)
        assert max(self.peaks(lambda: scale(tile, AnnotationSet(()), 1.25)[0])) <= 17
        assert max(self.peaks(lambda: gaussian_noise(tile, 0.02, np.random.default_rng(3)))) <= 7
        assert max(self.peaks(lambda: gamma_adjust(tile, 1.3))) <= 7


def reference_gaussian_noise(tile, sigma, rng):
    """Whole-plane noise: the output bands, and the input's validity.

    One uint64 from ``rng`` is the entropy; row band j of band i, of
    max(1, STREAM_PX // width) rows, draws its float64 standard normals
    from ``stream(entropy, i, j)``.
    """
    if not 0 <= sigma < MAX_SAMPLE_PARAM:
        raise ParameterError(f"noise sigma must be in [0, {MAX_SAMPLE_PARAM:g}), got {sigma}")
    valid = tile.valid_mask().bits
    if sigma == 0:
        return [b.samples for b in tile.bands], valid
    entropy = int(rng.integers(2**64, dtype=np.uint64))
    band_rows = max(1, raster_core.STREAM_PX // tile.width)
    out = []
    for i, band in enumerate(tile.bands):
        normals = np.concatenate([
            stream(entropy, i, j).standard_normal((min(band_rows, tile.height - top), tile.width))
            for j, top in enumerate(range(0, tile.height, band_rows))
        ])
        noisy = np.maximum(band.samples + sigma * normals, 0.0).astype(np.float32)
        out.append(np.where(valid, noisy, band.samples))
    return out, valid


def reference_scale(tile, factor):
    """Whole-plane bilinear resampling: the output bands and their validity."""
    if not factor > 0:
        raise ParameterError(f"scale factor must be > 0, got {factor}")
    out_w = int(np.floor(factor * tile.width))
    out_h = int(np.floor(factor * tile.height))
    if out_w < 1 or out_h < 1:
        raise ParameterError(
            f"scale factor {factor} collapses {tile.width}x{tile.height} to "
            f"{out_w}x{out_h}"
        )

    # a position on a source index reads that index as both corners, so no
    # output sums a zero-weight neighbour; validity below still spells out
    # the older rule that a zero-weight corner does not count
    def axis(n_out, n_in):
        pos = np.clip(np.arange(n_out, dtype=np.float64) / factor, 0.0, n_in - 1)
        below = np.floor(pos).astype(np.intp)
        return below, below + (pos > below), pos - below

    y0, y1, fy = axis(out_h, tile.height)
    x0, x1, fx = axis(out_w, tile.width)
    fy = fy[:, np.newaxis]
    corners = [
        (np.ix_(ys, xs), wy * wx)
        for ys, wy in ((y0, 1.0 - fy), (y1, fy))
        for xs, wx in ((x0, 1.0 - fx), (x1, fx))
    ]
    valid = tile.valid_mask().bits
    out_valid = np.logical_and.reduce([valid[at] | (weight == 0) for at, weight in corners])
    fill = np.float32(tile.nodata_value if tile.nodata_value is not None else np.nan)
    out = []
    (first_at, first_weight), *rest = corners
    for band in tile.bands:
        total = first_weight * band.samples[first_at]
        for at, weight in rest:
            total += weight * band.samples[at]
        values = total.astype(np.float32)
        values[~out_valid] = fill
        out.append(values)
    return out, out_valid


def outcome(op, *args):
    """What ``op`` returns, or the palmwatch error it raises.

    The whole-plane scale reference multiplies an inf corner by a zero
    weight, or sums inf and -inf corners, which warns; the warning is
    silenced so that the bits can be compared.
    """
    try:
        with np.errstate(invalid="ignore"):
            return op(*args)
    except PalmwatchError as exc:
        return exc


def assert_matches_reference(got, want, nodata):
    """``got`` has the reference's bits or its error, or is the
    DomainError for a valid reference sample that is bitwise nodata."""
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    bands, valid = want
    if nodata is not None and not np.isnan(nodata):
        nodata_bits = np.float32(nodata).view(np.uint32)
        if any(((b.view(np.uint32) == nodata_bits) & valid).any() for b in bands):
            assert isinstance(got, DomainError) and "nodata" in str(got)
            return
    assert isinstance(got, Raster), got
    assert len(got.bands) == len(bands)
    for band, expected in zip(got.bands, bands):
        np.testing.assert_array_equal(band.samples.view(np.uint32), expected.view(np.uint32))


@st.composite
def odd_tiles(draw):
    """Tiles up to 200 x 120, with nodata of None, NaN, -9999 or +0.0,
    samples of +-0.0, NaN, inf and the nodata value itself, and bands
    that may be flipped (negative strides). ``block_sizes`` cuts them
    into blocks of one row up to the whole tile."""
    height = draw(st.sampled_from([1, 63, 64, 65, 129, 200]))
    width = draw(st.one_of(st.integers(1, 9), st.integers(10, 120)))
    nodata = draw(st.sampled_from([None, np.nan, -9999.0, 0.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-3, -9999.0], np.float32)
    bands = []
    for name in ("red", "nir")[: draw(st.integers(1, 2))]:
        samples = rng.random((height, width), dtype=np.float32)
        n_special = draw(st.integers(0, 12))
        samples.flat[rng.integers(0, samples.size, n_special)] = rng.choice(specials, n_special)
        flip = draw(st.sampled_from([(1, 1), (-1, 1), (1, -1), (-1, -1)]))
        samples = samples[:: flip[0], :: flip[1]]
        samples.setflags(write=False)  # so Band keeps the flipped view
        bands.append(Band(name, samples))
    return Raster(bands=tuple(bands), nodata_value=nodata)


# values of raster_core.BLOCK_PX (and STREAM_PX), the default last
block_sizes = st.sampled_from([1, 97, 4096, raster_core.BLOCK_PX])


@settings(max_examples=200, deadline=None)
@given(
    tile=odd_tiles(),
    sigma=st.sampled_from([0.0, 1e-3, 0.01, 0.5, -1.0, MAX_SAMPLE_PARAM]),
    seed=st.integers(0, 2**64 - 1),
    block_px=block_sizes,
    stream_px=block_sizes,
)
def test_gaussian_noise_matches_whole_plane_reference(tile, sigma, seed, block_px, stream_px):
    # the row bands of stream_px, and the same bits on 1, 2 or 3 CPUs
    # whatever BLOCK_PX is
    with mock.patch.object(raster_core, "STREAM_PX", stream_px):
        want = outcome(reference_gaussian_noise, tile, sigma, stream(seed, 0, 0))
        for cpus in (1, 2, 3):
            with mock.patch.object(raster_core, "BLOCK_PX", block_px), \
                    mock.patch.object(raster_core, "usable_cpus", return_value=cpus):
                got = outcome(gaussian_noise, tile, sigma, stream(seed, 0, 0))
            assert_matches_reference(got, want, tile.nodata_value)


@st.composite
def scale_factors(draw, tile):
    """1.0, anything in range, or a factor that leaves one row or one column."""
    kind = draw(st.sampled_from(["one", "any", "one_row", "one_col"]))
    if kind == "one":
        return 1.0
    if kind == "any":
        return draw(st.floats(0.05, MAX_SCALE_FACTOR))
    n = tile.height if kind == "one_row" else tile.width
    return draw(st.floats(1.0 / n, min(2.0 / n, MAX_SCALE_FACTOR), exclude_max=n > 1))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), tile=odd_tiles(), block_px=block_sizes)
def test_scale_matches_whole_plane_reference(data, tile, block_px):
    # the same bits on 1, 2 or 3 CPUs whatever BLOCK_PX is
    factor = data.draw(scale_factors(tile))
    want = outcome(reference_scale, tile, factor)
    for cpus in (1, 2, 3):
        with mock.patch.object(raster_core, "BLOCK_PX", block_px), \
                mock.patch.object(raster_core, "usable_cpus", return_value=cpus):
            got = outcome(lambda: scale(tile, AnnotationSet(()), factor)[0])
        assert_matches_reference(got, want, tile.nodata_value)


@settings(max_examples=200, deadline=None)
@given(
    tile=odd_tiles(),
    exponent=st.sampled_from([1e-3, 0.5, 1.0, 1.3, 300.0]),
    block_px=block_sizes,
)
def test_gamma_is_the_same_on_any_cpu_count(tile, exponent, block_px):
    # the bits of one CPU, or its error: odd tiles have negative, inf and
    # nodata samples, so the first faulty block must decide which error
    outcomes = []
    for cpus in (1, 2, 3):
        with mock.patch.object(raster_core, "BLOCK_PX", block_px), \
                mock.patch.object(raster_core, "usable_cpus", return_value=cpus):
            outcomes.append(outcome(gamma_adjust, tile, exponent))
    want, *others = outcomes
    if isinstance(want, Raster):
        want = [b.samples for b in want.bands], None  # a Raster has no valid nodata sample
    for got in others:
        assert_matches_reference(got, want, None)


class TestSpecPipeline:
    def spec(self):
        return AugmentSpec(
            operations=(
                CropOp(size=48),
                GaussianNoiseOp(sigma=0.02),
                GammaOp(lo=0.7, hi=1.4),
                FlipHOp(),
                ScaleOp(lo=0.8, hi=1.2),
                FlipVOp(),
            ),
            seed=99,
        )

    def test_deterministic(self, rng):
        tile = random_raster(rng, 64, 64, band_names=("red", "green", "blue", "nir"))
        ann = AnnotationSet((crown(cx=32.0, cy=32.0, r=5.0),))
        a_tile, a_ann = apply_spec(tile, ann, self.spec(), tile_id=4)
        b_tile, b_ann = apply_spec(tile, ann, self.spec(), tile_id=4)
        assert_rasters_equal(a_tile, b_tile)
        assert a_ann.crowns == b_ann.crowns

    def test_tile_id_changes_stream(self, rng):
        tile = random_raster(rng, 64, 64)
        ann = AnnotationSet(())
        a_tile, _ = apply_spec(tile, ann, self.spec(), tile_id=1)
        b_tile, _ = apply_spec(tile, ann, self.spec(), tile_id=2)
        same = all(
            np.array_equal(a_tile.band(n).samples, b_tile.band(n).samples)
            for n in a_tile.band_names
            if (a_tile.width, a_tile.height) == (b_tile.width, b_tile.height)
        ) and (a_tile.width, a_tile.height) == (b_tile.width, b_tile.height)
        assert not same

    def test_op_rng_streams_independent(self):
        # apply_spec's (seed, tile, op) slots
        a = stream(5, 1, 0).normal(size=8)
        b = stream(5, 1, 1).normal(size=8)
        c = stream(5, 2, 0).normal(size=8)
        again = stream(5, 1, 0).normal(size=8)
        np.testing.assert_array_equal(a, again)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize(
        "make, key, neighbours",
        [
            # apply_spec's (seed, tile, op) slots: the next op and the next tile
            (stream, (7, 0, 1), [(7, 0, 2), (7, 1, 1)]),
            (stream, (7, 2**32 - 1, 5), [(7, 2**32 - 1, 6), (7, 0, 5)]),
            # noise (entropy, band, row band) keys: the next row band and the next band
            (stream, (2**63, 0, 0), [(2**63, 0, 1), (2**63, 1, 0)]),
            (stream, (2**63, 3, 63), [(2**63, 3, 64), (2**63, 2, 63)]),
        ],
    )
    def test_adjacent_streams_share_no_draw(self, make, key, neighbours):
        # a stream that is another one shifted by a few counter blocks
        # repeats most of its draws
        def draws(key):
            return set(make(*key).integers(2**64, size=1000, dtype=np.uint64).tolist())

        first = draws(key)
        assert len(first) == 1000
        for neighbour in neighbours:
            assert first.isdisjoint(draws(neighbour))

    def test_annotation_consistency_random_specs(self, rng):
        # retained crown pixel sets always lie inside the output tile
        for trial in range(60):
            tile = random_raster(rng, 48, 48, band_names=("red", "nir"))
            crowns = tuple(
                CrownAnnotation(
                    i + 1,
                    "healthy",
                    float(rng.uniform(4, 44)),
                    float(rng.uniform(4, 44)),
                    float(rng.uniform(1.5, 5.0)),
                )
                for i in range(int(rng.integers(1, 5)))
            )
            spec = AugmentSpec(
                operations=(
                    CropOp(size=int(rng.integers(24, 49))),
                    FlipHOp(),
                    ScaleOp(lo=0.6, hi=1.5),
                    FlipVOp(),
                ),
                seed=int(rng.integers(0, 2**32)),
            )
            out_tile, out_ann = apply_spec(tile, AnnotationSet(crowns), spec, trial)
            for c in out_ann.crowns:
                ys, xs = disc_pixels(c.cx, c.cy, c.radius_px, out_tile.width, out_tile.height)
                if len(xs):
                    assert xs.min() >= 0 and xs.max() < out_tile.width
                    assert ys.min() >= 0 and ys.max() < out_tile.height

    def test_json_round_trip(self, tmp_path):
        spec = self.spec()
        path = tmp_path / "spec.json"
        path.write_text(spec_to_json(spec))
        assert load_spec(path) == spec

    def test_bad_params_rejected(self):
        with pytest.raises(ParameterError):
            AugmentSpec(operations=(GaussianNoiseOp(sigma=-1.0),))
        with pytest.raises(ParameterError):
            AugmentSpec(operations=(GammaOp(lo=0.0, hi=1.0),))
        with pytest.raises(ParameterError):
            AugmentSpec(operations=(ScaleOp(lo=2.0, hi=1.0),))

    def test_seed_is_a_philox_key(self):
        # the entropy of a slot's stream: SeedSequence pools 128 bits of it
        AugmentSpec(operations=(), seed=0)
        AugmentSpec(operations=(), seed=2**128 - 1)
        for seed in (-1, 2**128):
            with pytest.raises(ParameterError, match="seed"):
                AugmentSpec(operations=(), seed=seed)

    def test_scale_factor_is_capped(self, tmp_path):
        # never applied: at 1e7 the output tile alone would need petabytes
        AugmentSpec(operations=(ScaleOp(lo=1.0, hi=MAX_SCALE_FACTOR),))
        with pytest.raises(ParameterError, match="scale"):
            AugmentSpec(operations=(ScaleOp(lo=1.0, hi=MAX_SCALE_FACTOR * 1.01),))
        path = tmp_path / "spec.json"
        path.write_text('{"operations": [{"op": "scale", "lo": 1e7, "hi": 1e7}]}')
        with pytest.raises(ParameterError, match="scale"):
            load_spec(path)

    def test_noise_sigma_shares_the_scene_sample_bound(self):
        AugmentSpec(operations=(GaussianNoiseOp(sigma=MAX_SAMPLE_PARAM / 2),))
        with pytest.raises(ParameterError, match="sigma"):
            AugmentSpec(operations=(GaussianNoiseOp(sigma=MAX_SAMPLE_PARAM),))


def test_output_band_is_the_array_the_op_built(rng):
    tile = random_raster(rng, 8, 8, band_names=("red",))
    built = np.zeros((8, 8), np.float32)
    out = _rebuild(tile, [built])
    assert out.band("red").samples is built
    assert not built.flags.writeable


class TestPinnedBytes:
    """Every op's arithmetic, pinned: a rewrite of any op (scale's
    resampling, say) must reproduce these bytes exactly."""

    def tile(self):
        rng = np.random.default_rng(1207)
        bands = {name: rng.random((64, 64), dtype=np.float32) for name in ("red", "green", "blue", "nir")}
        bands["red"][10:14, 20:30] = -9999.0
        bands["nir"][40:44, 5:9] = -9999.0
        bands["green"][50, 50] = np.nan
        bands["blue"][0, :8] = 0.0
        crowns = (
            CrownAnnotation(1, "healthy", 32.0, 30.5, 6.0),
            CrownAnnotation(2, "smallish", 12.25, 50.0, 3.0),
            CrownAnnotation(3, "dead", 55.0, 8.0, 5.5),
        )
        return make_raster(bands, nodata=-9999.0), AnnotationSet(crowns)

    def digests(self, tile, ann, spec, tile_ids, tmp_path):
        """Each tile's size and digests, which must be the same on 1 and
        on 3 CPUs."""
        runs = []
        for cpus in (1, 3):
            digests = {}
            with mock.patch.object(raster_core, "usable_cpus", return_value=cpus):
                for tile_id in tile_ids:
                    out_tile, out_ann = apply_spec(tile, ann, spec, tile_id)
                    bands = hashlib.sha256()
                    for band in out_tile.bands:
                        bands.update(np.ascontiguousarray(band.samples, dtype="<f4").tobytes())
                    save_annotations(out_ann, tmp_path / "ann.json")
                    annotations = hashlib.sha256((tmp_path / "ann.json").read_bytes())
                    digests[tile_id] = (out_tile.width, out_tile.height, bands.hexdigest(), annotations.hexdigest())
            runs.append(digests)
        assert runs[0] == runs[1]
        return runs[0]

    def test_all_six_ops_bytes(self, tmp_path):
        spec = AugmentSpec(
            operations=(
                CropOp(size=56),
                GaussianNoiseOp(sigma=0.02),
                GammaOp(lo=0.7, hi=1.4),
                FlipHOp(),
                FlipVOp(),
                ScaleOp(lo=0.75, hi=1.25),
            ),
            seed=11,
        )
        tile, ann = self.tile()
        # scale factors below and above 1
        assert self.digests(tile, ann, spec, (0, 8), tmp_path) == {
            0: (
                43,
                43,
                "ae9dbd8a27be826f523a33c19987439a9bb624f4267454b90dd95091e27f785e",
                "a2535c338496e523389ad08a8c584db4e0614e3d313fbdd5a1eb69df7dffb218",
            ),
            8: (
                65,
                65,
                "fd75c8c4e4f97e2051882c13e5223a7c6a7dc22e484c43020c663082b0359df8",
                "7f6031cf3a4d912c0e5b30b86bad549ecb54405c2c14a183d470296bad7bf326",
            ),
        }

    def test_bytes_across_row_blocks(self, tmp_path):
        # blocks of 64 rows of the 200-px-wide tile, which is taller than
        # two of them, with nodata and NaN on and next to block boundaries;
        # the flips hand scale negative-stride bands
        rng = np.random.default_rng(1304)
        bands = {name: rng.random((150, 200), dtype=np.float32) for name in ("red", "green", "blue", "nir")}
        bands["red"][60:70, 20:40] = -9999.0
        bands["nir"][127:130, 150:160] = -9999.0
        bands["green"][64, 64] = np.nan
        bands["green"][128, :5] = np.nan
        bands["blue"][63, 190:] = -9999.0
        tile = make_raster(bands, nodata=-9999.0)
        ann = AnnotationSet((
            CrownAnnotation(1, "healthy", 100.0, 64.0, 7.0),
            CrownAnnotation(2, "dead", 20.5, 130.25, 4.0),
        ))
        spec = AugmentSpec(
            operations=(
                GaussianNoiseOp(sigma=0.03),
                GammaOp(lo=0.8, hi=1.25),
                FlipVOp(),
                FlipHOp(),
                ScaleOp(lo=0.6, hi=1.6),
            ),
            seed=13,
        )
        # scale factors 0.71, 1.44 and 1.58
        with mock.patch.object(raster_core, "BLOCK_PX", 64 * 200):
            digests = self.digests(tile, ann, spec, (0, 2, 3), tmp_path)
        assert digests == {
            0: (
                141,
                106,
                "8bbe60b2132511685e43d7776b22be9facd667f855007efec710a6401c9aef89",
                "62ea06e5f25d5b465962aeb45df5f71505ec3f7a0929a94796f1a1a53795abc4",
            ),
            2: (
                287,
                215,
                "b20bafc52e6cef78a9657bb94a5c80d1a95222b6280d9167df1e553bb696be1d",
                "c77ad8b4d3079d5e4cdffda9f309537455ece3eaabf9697a6ab430abfc2ce8b7",
            ),
            3: (
                316,
                237,
                "068b3ce2df1816a030e40246e52474b2f5734495dfd1c911c718f9da945e26fe",
                "8791412d52d5c6217e8e53085e150ebe2adb1b84ce44ce44d5642cd2944f1cd1",
            ),
        }
