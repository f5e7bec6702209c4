import warnings
from unittest import mock

import numpy as np
import pytest

from palmwatch import raster_core
from palmwatch.annotations import AnnotationSet, CrownAnnotation, disc_pixels
from palmwatch.errors import BandLookupError, BoundsError, ParameterError, ShapeError
from palmwatch.indices import (
    INDEX_REGISTRY,
    compute_index,
    gndvi,
    index_stats_by_class,
    ndvi,
    normalized_difference,
    vegetation_mask,
)
from palmwatch.raster_core import Band, Mask, MaskedGrid, load_raster, save_raster

from conftest import random_raster


def band(values):
    return Band("b", np.asarray(values, dtype=np.float32))


def full_mask(shape):
    return Mask(np.ones(shape, dtype=bool))


class TestNdvi:
    def test_symmetric_inputs_zero(self):
        out = ndvi(band([[0.5]]), band([[0.5]]), full_mask((1, 1)))
        assert out.valid[0, 0]
        assert out.values[0, 0] == 0.0

    def test_hand_value(self):
        out = ndvi(band([[0.6]]), band([[0.2]]), full_mask((1, 1)))
        # (0.6 - 0.2) / (0.6 + 0.2), evaluated in float32
        assert out.values[0, 0] == pytest.approx(0.5, abs=1e-6)

    def test_zero_denominator_invalid(self):
        out = ndvi(band([[0.0]]), band([[0.0]]), full_mask((1, 1)))
        assert not out.valid[0, 0]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ndvi(band([[0.5]]), band([[0.5, 0.5]]), full_mask((1, 1)))

    def test_sum_or_difference_beyond_float32_is_exact(self, rng):
        # 3e38 vs 1e38 used to give 0 with an overflow warning, 1e38 vs
        # -3e38 gave -inf
        huge = np.array([3e38, 1e38, 3.4e38, 2e38, -3e38], np.float32)
        other = np.array([1e38, -3e38, 3.4e38, -1.9e38, -2e38], np.float32)
        a = np.concatenate([huge, rng.random(200, dtype=np.float32)])
        b = np.concatenate([other, rng.random(200, dtype=np.float32)])
        ok = np.ones(a.shape, bool)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = normalized_difference(a, b, ok)
        assert np.isfinite(values).all()
        a64, b64 = a.astype(np.float64), b.astype(np.float64)
        np.testing.assert_allclose(values[:5], (a64 - b64)[:5] / (a64 + b64)[:5], rtol=1e-6)
        assert values[0] == pytest.approx(0.5, rel=1e-6)
        # pixels without overflow keep the plain float32 arithmetic, bit for bit
        np.testing.assert_array_equal(values[5:], (a[5:] - b[5:]) / (a[5:] + b[5:]))

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_non_finite_operand_is_invalid(self, rng, cpus):
        # inside ok, inf against 1 used to come back valid with a NaN ratio,
        # and warn
        bad_a = np.array([np.inf, -np.inf, np.inf, np.nan], np.float32)
        bad_b = np.array([1, 1, -np.inf, 1], np.float32)
        good_a, good_b = rng.random(200, dtype=np.float32), rng.random(200, dtype=np.float32)
        a, b = np.concatenate([good_a, bad_a]), np.concatenate([good_b, bad_b])
        ok = np.ones(a.shape, bool)
        # blocks of 16 pixels, shared by the workers
        with (
            mock.patch.object(raster_core, "BLOCK_PX", 16),
            mock.patch.object(raster_core, "usable_cpus", return_value=cpus),
            warnings.catch_warnings(),
        ):
            warnings.simplefilter("error")
            values = normalized_difference(a, b, ok)
            swapped = normalized_difference(b, a, ok)
        assert np.isnan(values[200:]).all() and np.isnan(swapped[200:]).all()
        assert np.isfinite(values[:200]).all()
        np.testing.assert_array_equal(values[:200], (good_a - good_b) / (good_a + good_b))


class TestGndvi:
    def test_equal_bands_zero(self):
        out = gndvi(band([[0.37]]), band([[0.37]]), full_mask((1, 1)))
        assert out.values[0, 0] == 0.0

    def test_hand_value(self):
        out = gndvi(band([[0.8]]), band([[0.2]]), full_mask((1, 1)))
        assert out.values[0, 0] == pytest.approx(0.6, abs=1e-6)

    def test_masked_pixel_invalid(self):
        mask = Mask(np.array([[True, False]]))
        out = gndvi(band([[0.8, 0.8]]), band([[0.2, 0.2]]), mask)
        assert out.valid[0, 0]
        assert not out.valid[0, 1]


class TestProperties:
    def test_range_on_nonnegative(self, rng):
        a = band(rng.random((500, 500), dtype=np.float32))
        b = band(rng.random((500, 500), dtype=np.float32))
        out = ndvi(a, b, full_mask((500, 500)))
        vals = out.values[out.valid]
        assert (vals >= -1).all() and (vals <= 1).all()

    def test_antisymmetry_exact(self, rng):
        a = band(rng.random((200, 200), dtype=np.float32))
        b = band(rng.random((200, 200), dtype=np.float32))
        mask = full_mask((200, 200))
        forward = ndvi(a, b, mask)
        backward = ndvi(b, a, mask)
        both = forward.valid & backward.valid
        np.testing.assert_array_equal(forward.values[both], -backward.values[both])

    def test_monotone_in_nir(self):
        nir = band(np.linspace(0.01, 1.0, 64)[np.newaxis, :])
        red = band(np.full((1, 64), 0.3, np.float32))
        out = ndvi(nir, red, full_mask((1, 64)))
        assert (np.diff(out.values[0]) > 0).all()


class TestVegetationMask:
    def test_all_above(self):
        index = MaskedGrid(np.full((3, 3), 0.9, np.float32), name="ndvi")
        assert vegetation_mask(index, 0.2).bits.all()

    def test_boundary_is_strict(self):
        index = MaskedGrid(np.full((2, 2), 0.2, np.float32), name="ndvi")
        assert not vegetation_mask(index, 0.2).bits.any()

    def test_fraction_matches_planted(self, rng):
        values = np.full((40, 40), 0.0, np.float32)
        flat = rng.choice(values.size, size=300, replace=False)
        values.ravel()[flat] = 0.8
        index = MaskedGrid(values, name="ndvi")
        assert vegetation_mask(index, 0.5).count() == 300

    def test_invalid_never_vegetation(self):
        index = MaskedGrid(np.array([[0.9, np.nan]], np.float32), name="ndvi")
        np.testing.assert_array_equal(vegetation_mask(index, 0.2).bits, [[True, False]])

    def test_threshold_monotone_containment(self, rng):
        values = rng.uniform(-1, 1, size=(50, 50)).astype(np.float32)
        index = MaskedGrid(values, name="ndvi")
        low = vegetation_mask(index, -0.3).bits
        high = vegetation_mask(index, 0.4).bits
        assert (low | high == low).all()  # high subset of low

    def test_threshold_out_of_range(self):
        index = MaskedGrid(np.zeros((1, 1), np.float32), name="ndvi")
        with pytest.raises(ParameterError):
            vegetation_mask(index, 1.5)


class TestStatsByClass:
    def test_constant_crown(self):
        values = np.full((32, 32), 0.5, np.float32)
        index = MaskedGrid(values, name="ndvi")
        ann = AnnotationSet((CrownAnnotation(1, "healthy", 16, 16, 5.0),))
        (stats,) = index_stats_by_class(index, ann)
        assert stats.class_label == "healthy"
        assert stats.count > 0
        assert stats.mean == pytest.approx(0.5)
        assert stats.std_dev == pytest.approx(0.0)
        assert stats.min == stats.max == pytest.approx(0.5)

    def test_empty_class_flagged(self):
        # crown pixels all invalid -> count 0, stats absent
        values = np.full((32, 32), 0.5, np.float32)
        values[:16, :] = np.nan
        index = MaskedGrid(values, name="ndvi")
        ann = AnnotationSet(
            (
                CrownAnnotation(1, "dead", 8, 8, 4.0),
                CrownAnnotation(2, "healthy", 24, 24, 4.0),
            )
        )
        by_label = {s.class_label: s for s in index_stats_by_class(index, ann)}
        assert by_label["dead"].count == 0
        assert by_label["dead"].mean is None
        assert by_label["healthy"].count > 0

    def test_matches_flat_recomputation(self, rng):
        values = rng.random((64, 64)).astype(np.float32)
        valid = rng.random((64, 64)) > 0.1
        index = MaskedGrid(np.where(valid, values, np.nan), name="ndvi")
        crowns = (
            CrownAnnotation(1, "smallish", 20.0, 20.0, 6.0),
            CrownAnnotation(2, "smallish", 26.0, 22.0, 5.0),  # overlaps crown 1
            CrownAnnotation(3, "healthy", 48.0, 48.0, 8.0),
        )
        ann = AnnotationSet(crowns)
        by_label = {s.class_label: s for s in index_stats_by_class(index, ann)}

        member = np.zeros((64, 64), bool)
        for crown in crowns[:2]:
            ys, xs = disc_pixels(crown.cx, crown.cy, crown.radius_px, 64, 64)
            member[ys, xs] = True
        expected = values[member & valid].astype(np.float64)
        stats = by_label["smallish"]
        assert stats.count == expected.size
        assert stats.mean == pytest.approx(expected.mean(), rel=1e-12)
        assert stats.std_dev == pytest.approx(expected.std(ddof=0), rel=1e-12)
        q1, med, q3 = np.percentile(expected, [25, 50, 75])
        assert (stats.q1, stats.median, stats.q3) == pytest.approx((q1, med, q3))
        assert stats.min <= stats.q1 <= stats.median <= stats.q3 <= stats.max

    def test_out_of_bounds_names_crown(self):
        index = MaskedGrid(np.zeros((16, 16), np.float32), name="ndvi")
        ann = AnnotationSet((CrownAnnotation(7, "healthy", 15.0, 8.0, 4.0),))
        with pytest.raises(BoundsError, match="crown 7"):
            index_stats_by_class(index, ann)


class TestPersistence:
    def test_raster_round_trip(self, tmp_path, rng):
        values = rng.random((20, 20)).astype(np.float32)
        valid = rng.random((20, 20)) > 0.2
        index = MaskedGrid(np.where(valid, values, np.nan), name="gndvi")
        save_raster(index.to_raster(), tmp_path / "idx")
        loaded = MaskedGrid.from_raster(load_raster(tmp_path / "idx"))
        assert loaded.name == "gndvi"
        np.testing.assert_array_equal(loaded.valid, valid)
        np.testing.assert_array_equal(loaded.values[valid], values[valid])


class TestIndexTable:
    @pytest.mark.parametrize("name", sorted(INDEX_REGISTRY))
    def test_index_is_normalized_difference_of_its_pair(self, rng, name):
        raster = random_raster(rng, 9, 7, band_names=("red", "green", "blue", "nir"), nodata=0.5)
        mask = Mask(raster.valid_mask().bits & (rng.random((7, 9)) < 0.8))
        a, b = INDEX_REGISTRY[name]
        values = normalized_difference(raster.band(a).samples, raster.band(b).samples, mask.bits)
        index = compute_index(raster, mask, name)
        assert index.name == name
        np.testing.assert_array_equal(index.values.view(np.uint32), values.view(np.uint32))

    def test_unknown_index(self, rng):
        raster = random_raster(rng, 2, 2, band_names=("red", "nir"))
        with pytest.raises(BandLookupError, match="unknown index 'evi'"):
            compute_index(raster, raster.valid_mask(), "evi")
