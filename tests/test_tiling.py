import weakref
from itertools import cycle, islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palmwatch.errors import BoundsError, CompletenessError, ParameterError, ShapeError
from palmwatch.raster_core import MaskedGrid
from palmwatch.tiling import TileWindow, extract_tile, pad_tile, stitch, tile_plan

from conftest import random_raster


def band_as_probability(raster, window=None):
    samples = raster.bands[0].samples
    return MaskedGrid(np.where(raster.valid_mask().bits, samples, np.nan))


def constant_maps(plan, value):
    """One window-sized map of ``value`` per window of ``plan``."""
    return [MaskedGrid(np.full((w.height, w.width), value, np.float32)) for w in plan.windows]


class TestPlan:
    def test_exact_grid(self):
        plan = tile_plan(2048, 3072, 1024, 0)
        assert len(plan.windows) == 6
        assert (plan.n_cols, plan.n_rows) == (2, 3)
        assert all((w.width, w.height) == (1024, 1024) for w in plan.windows)

    def test_scene_smaller_than_tile(self):
        plan = tile_plan(1000, 1000, 1024, 0)
        assert len(plan.windows) == 1
        (w,) = plan.windows
        assert (w.width, w.height) == (1000, 1000)

    def test_exact_fit_single_window(self):
        plan = tile_plan(1024, 1024, 1024, 0)
        assert len(plan.windows) == 1
        assert plan.windows[0] == TileWindow(0, 0, 1024, 1024)

    def test_overlap_too_large(self):
        with pytest.raises(ParameterError):
            tile_plan(100, 100, 64, 64)

    def test_tile_above_the_grid_bound(self):
        # 65536² is the largest grid the package allocates
        assert len(tile_plan(64, 64, 2**16, 0).windows) == 1
        with pytest.raises(ParameterError, match="exceeds"):
            tile_plan(64, 64, 2**16 + 1, 0)
        with pytest.raises(ParameterError, match="exceeds"):
            tile_plan(64, 64, 2**40, 0)

    def test_deterministic(self):
        assert tile_plan(513, 700, 128, 32) == tile_plan(513, 700, 128, 32)

    @pytest.mark.parametrize("overlap", [0, 16, 100])
    def test_coverage_counts(self, rng, overlap):
        for _ in range(10):
            scene_w = int(rng.integers(1, 600))
            scene_h = int(rng.integers(1, 600))
            tile = int(rng.integers(overlap + 1, 256))
            plan = tile_plan(scene_w, scene_h, tile, overlap)
            cover = np.zeros((scene_h, scene_w), dtype=int)
            for w in plan.windows:
                assert w.x >= 0 and w.y >= 0
                assert w.width >= 1 and w.height >= 1
                # a window is a whole tile unless the scene's edge cuts it
                assert w.width == min(tile, scene_w - w.x) and w.height == min(tile, scene_h - w.y)
                cover[w.region] += 1
            assert (cover >= 1).all()
            if overlap == 0:
                assert (cover == 1).all()

    def test_contributor_counts_match_geometry(self):
        # 1-D layout along x: windows at 0 and 96 with tile 128, overlap 32
        plan = tile_plan(224, 1, 128, 32)
        cover = np.zeros(224, dtype=int)
        for w in plan.windows:
            cover[w.x : w.x + w.width] += 1
        expected = np.ones(224, dtype=int)
        expected[96:128] = 2
        np.testing.assert_array_equal(cover, expected)


class TestExtract:
    def test_exact_fit_identical(self, rng):
        raster = random_raster(rng, 64, 48, band_names=("a", "b"))
        window = TileWindow(16, 8, 32, 32)
        tile = extract_tile(raster, window)
        assert tile.origin == (16, 8)
        for name in ("a", "b"):
            np.testing.assert_array_equal(
                tile.band(name).samples, raster.band(name).samples[8:40, 16:48]
            )

    def test_padding_is_nodata(self, rng):
        raster = random_raster(rng, 40, 40, nodata=-999.0)
        plan = tile_plan(40, 40, 32, 0)
        window = plan.windows[-1]  # bottom-right, cut to 8x8 by the scene's edge
        tile = pad_tile(extract_tile(raster, window), 32)
        assert (tile.width, tile.height) == (32, 32)
        assert tile.origin == (32, 32)
        assert (tile.band("red").samples[window.height :] == -999.0).all()
        assert (tile.band("red").samples[:, window.width :] == -999.0).all()
        mask = tile.valid_mask()
        assert not mask.bits[:, window.width :].any()
        assert mask.bits[: window.height, : window.width].all()

    def test_padding_nan_when_no_nodata(self, rng):
        raster = random_raster(rng, 30, 30)
        plan = tile_plan(30, 30, 32, 0)
        tile = pad_tile(extract_tile(raster, plan.windows[0]), 32)
        for strip in (np.s_[:, 30:], np.s_[30:, :]):
            assert np.isnan(tile.band("red").samples[strip]).all()
            assert not tile.valid_mask().bits[strip].any()
        np.testing.assert_array_equal(tile.band("red").samples[:30, :30], raster.band("red").samples)

    def test_window_outside_scene(self, rng):
        raster = random_raster(rng, 20, 20)
        with pytest.raises(BoundsError):
            extract_tile(raster, TileWindow(16, 0, 8, 8))

    def test_every_pixel_in_some_tile(self, rng):
        raster = random_raster(rng, 100, 70, band_names=("v",))
        plan = tile_plan(100, 70, 32, 8)
        seen = np.zeros((70, 100), dtype=int)
        for w in plan.windows:
            tile = extract_tile(raster, w)
            np.testing.assert_array_equal(tile.band("v").samples, raster.band("v").samples[w.region])
            seen[w.region] += 1
        assert (seen >= 1).all()


class TestStitch:
    def test_round_trip_identity(self, rng):
        raster = random_raster(rng, 150, 90, band_names=("p",))
        plan = tile_plan(150, 90, 64, 0)
        outputs = []
        for w in plan.windows:
            tile = extract_tile(raster, w)
            outputs.append(band_as_probability(tile))
        stitched = stitch(plan, outputs)
        assert stitched.valid.all()
        np.testing.assert_array_equal(
            stitched.values.view(np.uint32), raster.band("p").samples.view(np.uint32)
        )

    def test_overlap_mean(self):
        plan = tile_plan(6, 2, 4, 2)
        assert len(plan.windows) == 2
        m0 = MaskedGrid(np.full((2, 4), 0.2, np.float32))
        m1 = MaskedGrid(np.full((2, 4), 0.6, np.float32))
        out = stitch(plan, [m0, m1])
        np.testing.assert_array_equal(out.values[:, :2], np.float32(0.2))
        np.testing.assert_array_equal(out.values[:, 2:4], np.float32(0.4))
        np.testing.assert_array_equal(out.values[:, 4:], np.float32(0.6))

    @pytest.mark.parametrize("overlap", [0, 5, 20])
    def test_constant_tiles_constant_scene(self, overlap):
        plan = tile_plan(100, 80, 32, overlap)
        out = stitch(plan, constant_maps(plan, 0.7))
        assert out.valid.all()
        np.testing.assert_array_equal(out.values, np.float32(0.7))

    def test_missing_window_named(self):
        plan = tile_plan(64, 64, 32, 0)
        with pytest.raises(CompletenessError, match="3 tile maps for 4 windows"):
            stitch(plan, constant_maps(plan, 0.0)[:-1])

    def test_extra_map_rejected(self):
        plan = tile_plan(32, 32, 32, 0)
        m = MaskedGrid(np.zeros((32, 32), np.float32))
        with pytest.raises(CompletenessError, match="2 tile maps for 1 windows"):
            stitch(plan, [m, m])

    @pytest.mark.parametrize("overlap", [0, 7])
    def test_generator_equals_list(self, rng, overlap):
        plan = tile_plan(70, 45, 16, overlap)
        outputs = []
        for w in plan.windows:
            values = rng.standard_normal((w.height, w.width)).astype(np.float32)
            outputs.append(MaskedGrid(np.where(rng.random((w.height, w.width)) < 0.8, values, np.nan)))
        from_list = stitch(plan, outputs)
        from_generator = stitch(plan, (m for m in outputs))
        np.testing.assert_array_equal(from_generator.valid, from_list.valid)
        np.testing.assert_array_equal(from_generator.values.view(np.uint32), from_list.values.view(np.uint32))

    @pytest.mark.parametrize("overlap", [0, 8])
    @pytest.mark.parametrize("n_maps", [0, 3, 5, 7])
    def test_short_or_long_generator_named(self, overlap, n_maps):
        plan = tile_plan(50, 50, 32, overlap)
        assert len(plan.windows) == 4
        maps = islice(cycle(constant_maps(plan, 0.0)), n_maps)
        with pytest.raises(CompletenessError, match=f"got {n_maps} tile maps for 4 windows"):
            stitch(plan, maps)

    @pytest.mark.parametrize("overlap", [0, 8])
    def test_holds_one_map_at_a_time(self, overlap):
        plan = tile_plan(100, 70, 32, overlap)
        made = []

        def new_map(window):
            pmap = MaskedGrid(np.full((window.height, window.width), 0.5, np.float32))
            made.append(weakref.ref(pmap.values))
            return pmap

        def maps():
            for window in plan.windows:
                # stitch is done with the previous map before it asks for this one
                assert all(ref() is None for ref in made)
                yield new_map(window)

        out = stitch(plan, maps())
        assert len(made) == len(plan.windows)
        np.testing.assert_array_equal(out.values, np.float32(0.5))

    def test_invalid_pixels_excluded_from_mean(self):
        plan = tile_plan(6, 2, 4, 2)
        values0 = np.full((2, 4), 0.2, np.float32)
        values0[:, 2:] = np.nan  # the first map's overlap columns carry no data
        m0 = MaskedGrid(values0)
        m1 = MaskedGrid(np.full((2, 4), 0.6, np.float32))
        out = stitch(plan, [m0, m1])
        np.testing.assert_array_equal(out.values[:, 2:4], np.float32(0.6))

    def test_all_invalid_stays_invalid(self):
        plan = tile_plan(4, 4, 4, 0)
        m = MaskedGrid(np.full((4, 4), np.nan, np.float32))
        out = stitch(plan, [m])
        assert not out.valid.any()

    @pytest.mark.parametrize("overlap", [0, 8])
    def test_a_map_not_its_windows_size_is_a_shape_error(self, overlap):
        # an edge window is cut by the scene's edge, so a full tile's map
        # does not fit it
        plan = tile_plan(50, 50, 32, overlap)
        maps = constant_maps(plan, 0.5)
        maps[1] = MaskedGrid(np.full((32, 32), 0.5, np.float32))
        with pytest.raises(ShapeError, match=r"is 32x32, expected \d+x32"):
            stitch(plan, maps)


def reference_stitch(plan, outputs):
    """The contributor mean accumulated in float64, as stitch does at overlap > 0."""
    total = np.zeros((plan.scene_height, plan.scene_width), dtype=np.float64)
    count = np.zeros((plan.scene_height, plan.scene_width), dtype=np.int32)
    for window, pmap in zip(plan.windows, outputs):
        region = np.s_[window.y : window.y + window.height, window.x : window.x + window.width]
        ok = np.isfinite(pmap.values)
        with np.errstate(invalid="ignore"):  # casting a signalling NaN
            np.add(total[region], pmap.values, out=total[region], where=ok)
        count[region] += ok
    valid = count > 0
    np.divide(total, count, out=total, where=valid)
    values = total.astype(np.float32)
    values[~valid] = np.nan
    return values, valid


# every bit pattern an invalid pixel may hold: quiet NaNs of either sign,
# signalling NaNs of either sign and both infinities
NON_FINITE = np.array(
    [0x7FC00000, 0xFFC00000, 0x7F800001, 0xFFA00001, 0x7F800000, 0xFF800000], dtype=np.uint32
).view(np.float32)


@st.composite
def overlap_zero_outputs(draw):
    """A random overlap-0 plan and one map per window: valid values
    include -0.0 and +0.0, and an invalid pixel holds a quiet NaN, a
    signalling NaN or an infinity."""
    scene_w, scene_h = draw(st.integers(1, 70)), draw(st.integers(1, 70))
    plan = tile_plan(scene_w, scene_h, draw(st.integers(1, 40)), 0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = np.array([-0.0, 0.0], dtype=np.float32)
    outputs = []
    for window in plan.windows:
        shape = (window.height, window.width)
        values = rng.standard_normal(shape).astype(np.float32)
        spots = rng.random(shape) < 0.2
        values[spots] = rng.choice(zeros, size=int(spots.sum()))
        invalid = rng.random(shape) < 0.2
        values[invalid] = rng.choice(NON_FINITE, size=int(invalid.sum()))
        outputs.append(MaskedGrid(values))
    return plan, outputs


@settings(max_examples=200, deadline=None)
@given(case=overlap_zero_outputs())
def test_overlap_zero_stitch_equals_float64_contributor_mean(case):
    plan, outputs = case
    values, valid = reference_stitch(plan, outputs)
    stitched = stitch(plan, outputs)  # RuntimeWarnings fail the test run
    np.testing.assert_array_equal(stitched.valid, valid)
    np.testing.assert_array_equal(stitched.values.view(np.uint32), values.view(np.uint32))
    assert (stitched.values[~valid].view(np.uint32) == 0x7FC00000).all()


def test_pad_tile_keeps_a_full_tile_and_fills_an_edge_tile(rng):
    raster = random_raster(rng, 12, 10, band_names=("v",))
    plan = tile_plan(12, 10, 8, 0)
    inner = extract_tile(raster, plan.windows[0])
    assert pad_tile(inner, 8) is inner
    assert np.shares_memory(inner.band("v").samples, raster.band("v").samples)
    edge = extract_tile(raster, plan.windows[-1])
    assert (edge.width, edge.height) == (4, 2)
    tile = pad_tile(edge, 8).band("v").samples
    assert not np.shares_memory(tile, raster.band("v").samples) and tile.shape == (8, 8)
    assert not tile.flags.writeable
    np.testing.assert_array_equal(tile[:2, :4], raster.band("v").samples[8:, 8:])
    assert np.isnan(tile[2:]).all() and np.isnan(tile[:, 4:]).all()


def test_unpadded_tile_bands_are_views(rng):
    raster = random_raster(rng, 64, 64, band_names=("a", "b"))
    tile = extract_tile(raster, tile_plan(64, 64, 32, 0).windows[3])
    for name in ("a", "b"):
        assert np.shares_memory(tile.band(name).samples, raster.band(name).samples)
