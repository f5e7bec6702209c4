import numpy as np
import pytest

from palmwatch.annotations import AnnotationSet, CrownAnnotation, disc_pixels
from palmwatch.augment import (
    MAX_SCALE_FACTOR,
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
    op_rng,
    random_crop,
    scale,
    spec_from_json,
    spec_to_json,
)
from palmwatch.errors import DomainError, ParameterError

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

    def test_nodata_untouched(self):
        samples = np.array([[0.25, -999.0]], np.float32)
        tile = make_raster({"b": samples}, nodata=-999.0)
        out = gamma_adjust(tile, 0.5)
        assert out.band("b").samples[0, 1] == -999.0


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
        a = op_rng(5, 1, 0).normal(size=8)
        b = op_rng(5, 1, 1).normal(size=8)
        c = op_rng(5, 2, 0).normal(size=8)
        again = op_rng(5, 1, 0).normal(size=8)
        np.testing.assert_array_equal(a, again)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

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

    def test_json_round_trip(self):
        spec = self.spec()
        again = spec_from_json(spec_to_json(spec))
        assert again == spec

    def test_bad_params_rejected(self):
        with pytest.raises(ParameterError):
            AugmentSpec(operations=(GaussianNoiseOp(sigma=-1.0),))
        with pytest.raises(ParameterError):
            AugmentSpec(operations=(GammaOp(lo=0.0, hi=1.0),))
        with pytest.raises(ParameterError):
            AugmentSpec(operations=(ScaleOp(lo=2.0, hi=1.0),))

    def test_scale_factor_is_capped(self):
        # never applied: at 1e7 the output tile alone would need petabytes
        AugmentSpec(operations=(ScaleOp(lo=1.0, hi=MAX_SCALE_FACTOR),))
        with pytest.raises(ParameterError, match="scale"):
            AugmentSpec(operations=(ScaleOp(lo=1.0, hi=MAX_SCALE_FACTOR * 1.01),))
        with pytest.raises(ParameterError, match="scale"):
            spec_from_json('{"operations": [{"op": "scale", "lo": 1e7, "hi": 1e7}]}')
