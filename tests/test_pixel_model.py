import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from palmwatch.errors import (
    BandLookupError,
    CompatibilityError,
    DegenerateDataError,
    ParameterError,
    ShapeError,
)
from palmwatch.cli import predict_tiled
from palmwatch.indices import ndvi
from palmwatch.pixel_model import (
    ModelParams,
    TrainConfig,
    featurize,
    gradient,
    load_params,
    loss,
    predict_map,
    save_params,
    train,
)
from palmwatch.raster_core import Band, Mask, Raster

from conftest import make_raster, random_raster


def finite_difference_gradient(weights, bias, X, y, l2, step=1e-3):
    """Central differences of the loss, the independent check on gradient()."""
    grad_w = np.zeros_like(weights)
    for i in range(len(weights)):
        up = weights.copy()
        down = weights.copy()
        up[i] += step
        down[i] -= step
        grad_w[i] = (loss(up, bias, X, y, l2) - loss(down, bias, X, y, l2)) / (2 * step)
    grad_b = (loss(weights, bias + step, X, y, l2) - loss(weights, bias - step, X, y, l2)) / (
        2 * step
    )
    return grad_w, grad_b


def separable_blobs(n=200, seed=0):
    rng = np.random.default_rng(seed)
    neg = rng.normal([-2.0, -2.0], 0.3, size=(n, 2))
    pos = rng.normal([2.0, 2.0], 0.3, size=(n, 2))
    X = np.vstack([neg, pos])
    y = np.concatenate([np.zeros(n), np.ones(n)])
    return X, y


class TestFeaturize:
    def test_feature_count(self, rng):
        raster = random_raster(rng, 8, 8, band_names=("red", "green", "blue", "nir"))
        grid = featurize(raster, raster.valid_mask())
        assert grid.names == ("red", "green", "blue", "nir", "ndvi", "gndvi")
        assert len(grid.planes) == 6
        assert all(plane.shape == (8, 8) for plane in grid.planes)

    def test_ndvi_feature_matches_indices_module(self, rng):
        raster = random_raster(rng, 16, 16, band_names=("red", "green", "blue", "nir"))
        mask = raster.valid_mask()
        grid = featurize(raster, mask)
        expected = ndvi(raster.band("nir"), raster.band("red"), mask)
        i = grid.names.index("ndvi")
        np.testing.assert_array_equal(
            grid.planes[i][grid.valid], expected.values[grid.valid]
        )

    def test_masked_pixel_yields_no_row(self, rng):
        raster = random_raster(rng, 4, 4, band_names=("red", "green", "blue", "nir"))
        bits = np.ones((4, 4), bool)
        bits[2, 3] = False
        grid = featurize(raster, Mask(bits))
        assert grid.rows().shape == (15, 6)
        assert not grid.valid[2, 3]

    def test_missing_band(self, rng):
        raster = random_raster(rng, 4, 4, band_names=("red", "nir"))
        with pytest.raises(BandLookupError, match="gndvi|green"):
            featurize(raster, raster.valid_mask())

    def test_unknown_feature_name(self, rng):
        raster = random_raster(rng, 4, 4, band_names=("red", "nir"))
        with pytest.raises(BandLookupError, match="swir"):
            featurize(raster, raster.valid_mask(), ("red", "swir"))


class TestTrain:
    def test_separable_blobs_perfect_accuracy(self):
        X, y = separable_blobs()
        params = train(X, y, ("f0", "f1"), TrainConfig(epochs=200, seed=0))
        Xs = (X - params.norm_mean) / params.norm_std
        pred = (Xs @ params.weights + params.bias) > 0
        assert (pred == (y == 1)).mean() == 1.0

    def test_zero_epochs_initialization(self, rng):
        X, y = separable_blobs(50)
        params = train(X, y, ("f0", "f1"), TrainConfig(epochs=0))
        assert (params.weights == 0).all() and params.bias == 0.0
        raster = random_raster(rng, 5, 5, band_names=("f0", "f1"))
        prob = predict_map(raster, raster.valid_mask(), params)
        np.testing.assert_array_equal(prob.values, np.float32(0.5))

    def test_full_batch_loss_non_increasing(self):
        X, y = separable_blobs(100, seed=3)
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        Xs = (X - mean) / std
        weights = np.zeros(2)
        bias = 0.0
        losses = [loss(weights, bias, Xs, y, 1e-4)]
        for _ in range(40):
            gw, gb = gradient(weights, bias, Xs, y, 1e-4)
            weights -= 0.05 * gw
            bias -= 0.05 * gb
            losses.append(loss(weights, bias, Xs, y, 1e-4))
        assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).normal(size=(20, 2))
        with pytest.raises(DegenerateDataError):
            train(X, np.zeros(20), ("a", "b"))

    def test_nonfinite_features_rejected(self):
        X = np.array([[1.0, np.inf], [0.0, 1.0]])
        with pytest.raises(DegenerateDataError):
            train(X, np.array([0.0, 1.0]), ("a", "b"))

    def test_deterministic_bit_for_bit(self):
        X, y = separable_blobs(150, seed=5)
        config = TrainConfig(epochs=50, batch_size=32, seed=11)
        a = train(X, y, ("f0", "f1"), config)
        b = train(X, y, ("f0", "f1"), config)
        np.testing.assert_array_equal(
            a.weights.view(np.uint64), b.weights.view(np.uint64)
        )
        assert a.bias == b.bias
        assert a.final_loss == b.final_loss

    def test_standardization_round_trip(self):
        # features already exactly standardized: both paths are bit-identical
        rng = np.random.default_rng(8)
        cols = []
        for _ in range(3):
            col = np.array([1.0] * 64 + [-1.0] * 64)
            rng.shuffle(col)
            cols.append(col)
        base = np.stack(cols, axis=1)
        y = (base.sum(axis=1) > 0).astype(np.float64)
        y[:4] = 1 - y[:4]  # keep both classes guaranteed
        config = TrainConfig(epochs=30, batch_size=16, seed=2)
        standard = train(base, y, ("a", "b", "c"), config)
        assert (standard.norm_mean == 0).all() and (standard.norm_std == 1).all()
        pre = train((base - standard.norm_mean) / standard.norm_std, y, ("a", "b", "c"), config)
        np.testing.assert_array_equal(standard.weights, pre.weights)
        assert standard.bias == pre.bias

    def test_reports_final_loss(self):
        X, y = separable_blobs(80)
        params = train(X, y, ("f0", "f1"), TrainConfig(epochs=20))
        assert params.final_loss is not None and np.isfinite(params.final_loss)


class TestGradient:
    def test_balanced_symmetric_bias_zero(self):
        X = np.array([[1.0, -1.0], [-1.0, 1.0], [2.0, 0.5], [-2.0, -0.5]])
        y = np.array([1.0, 0.0, 1.0, 0.0])
        _, grad_b = gradient(np.zeros(2), 0.0, X, y, 0.0)
        assert grad_b == 0.0

    def test_matches_finite_differences(self, rng):
        worst = 0.0
        for _ in range(30):
            n = int(rng.integers(4, 50))
            f = int(rng.integers(1, 8))
            X = rng.normal(size=(n, f))
            y = rng.integers(0, 2, size=n).astype(np.float64)
            weights = rng.normal(scale=0.5, size=f)
            bias = float(rng.normal(scale=0.5))
            l2 = float(rng.uniform(0, 0.01))
            gw, gb = gradient(weights, bias, X, y, l2)
            fw, fb = finite_difference_gradient(weights, bias, X, y, l2)
            denom = np.maximum(np.abs(fw), 1e-8)
            worst = max(worst, float(np.max(np.abs(gw - fw) / denom)))
            worst = max(worst, abs(gb - fb) / max(abs(fb), 1e-8))
        assert worst < 1e-4

    def test_l2_term_exact(self):
        X = np.array([[0.5, -1.5]])
        y = np.array([1.0])
        weights = np.array([0.3, -0.7])
        g_without, _ = gradient(weights, 0.1, X, y, 0.0)
        g_with, _ = gradient(weights, 0.1, X, y, 0.01)
        np.testing.assert_allclose(g_with - g_without, 0.01 * weights, rtol=0, atol=1e-15)

    def test_empty_batch_rejected(self):
        with pytest.raises(DegenerateDataError):
            gradient(np.zeros(2), 0.0, np.zeros((0, 2)), np.zeros(0), 0.0)


class TestPredict:
    def params(self, weights, bias, names=("red", "nir")):
        n = len(names)
        return ModelParams(
            features=tuple(names),
            weights=np.asarray(weights, dtype=np.float64),
            bias=bias,
            norm_mean=np.zeros(n),
            norm_std=np.ones(n),
        )

    def test_zero_params_half_everywhere(self, rng):
        raster = random_raster(rng, 6, 6)
        prob = predict_map(raster, raster.valid_mask(), self.params([0.0, 0.0], 0.0))
        np.testing.assert_array_equal(prob.values, np.float32(0.5))

    def test_monotone_in_positive_weight(self, rng):
        params = self.params([1.5, 0.3], -0.2)
        base = random_raster(rng, 10, 10)
        bumped_bands = {
            "red": base.band("red").samples + np.float32(0.25),
            "nir": base.band("nir").samples,
        }
        bumped = make_raster(bumped_bands)
        p0 = predict_map(base, base.valid_mask(), params)
        p1 = predict_map(bumped, bumped.valid_mask(), params)
        assert (p1.values >= p0.values).all()

    def test_outputs_in_unit_interval(self, rng):
        params = self.params([5.0, -7.0], 2.0)
        raster = random_raster(rng, 50, 50)
        prob = predict_map(raster, raster.valid_mask(), params)
        assert (prob.values[prob.valid] >= 0).all()
        assert (prob.values[prob.valid] <= 1).all()

    def test_invalid_pixels_preserved(self, rng):
        raster = random_raster(rng, 8, 8)
        bits = np.ones((8, 8), bool)
        bits[0, :] = False
        prob = predict_map(raster, Mask(bits), self.params([1.0, 1.0], 0.0))
        np.testing.assert_array_equal(prob.valid, bits)
        assert np.isnan(prob.values[0, :]).all()

    def test_manifest_mismatch_lists_missing(self, rng):
        raster = random_raster(rng, 4, 4, band_names=("red", "nir"))
        params = ModelParams(
            features=("red", "nir", "gndvi"),
            weights=np.zeros(3),
            bias=0.0,
            norm_mean=np.zeros(3),
            norm_std=np.ones(3),
        )
        with pytest.raises(CompatibilityError, match="green"):
            predict_map(raster, raster.valid_mask(), params)


FOUR_BANDS = ("red", "green", "blue", "nir")
ALL_FEATURES = FOUR_BANDS + ("ndvi", "gndvi")


@st.composite
def scenes_with_invalid_pixels(draw):
    """A small four-band raster whose invalid pixels hold NaN or nodata, and a mask."""
    height, width = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nodata = draw(st.sampled_from([None, -9999.0, 0.0, float("nan")]))
    bands = []
    for name in FOUR_BANDS:
        samples = rng.random((height, width), dtype=np.float32)
        samples[rng.random((height, width)) < 0.1] = np.nan
        if nodata is not None:
            samples[rng.random((height, width)) < 0.1] = nodata
        bands.append(Band(name=name, samples=samples))
    raster = Raster(bands=tuple(bands), nodata_value=nodata)
    mask = Mask(raster.valid_mask().bits & (rng.random((height, width)) < 0.9))
    return raster, mask


@st.composite
def model_params(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = len(ALL_FEATURES)
    return ModelParams(
        features=ALL_FEATURES,
        weights=rng.uniform(-10, 10, n),
        bias=float(rng.uniform(-5, 5)),
        norm_mean=rng.uniform(-1, 1, n),
        norm_std=rng.uniform(0.05, 10, n),
    )


class TestPlaneByPlanePrediction:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        scene=scenes_with_invalid_pixels(),
        params=model_params(),
        tiling=st.integers(1, 30).flatmap(lambda t: st.tuples(st.just(t), st.integers(0, t - 1))),
        jobs=st.sampled_from([1, 2]),
    )
    def test_tiled_equals_untiled_and_stacked_reference(self, scene, params, tiling, jobs):
        raster, mask = scene
        tile_size, overlap = tiling
        whole = predict_map(raster, mask, params)
        tiled = predict_tiled(raster, mask, params, tile_size, overlap, jobs)
        np.testing.assert_array_equal(tiled.valid, whole.valid)
        np.testing.assert_array_equal(tiled.values.view(np.uint32), whole.values.view(np.uint32))

        # the stacked formulation: one (H, W, F) array standardized in float64
        grid = featurize(raster, mask, params.features)
        x64 = np.stack(grid.planes, axis=-1)[grid.valid].astype(np.float64)
        reference = expit(((x64 - params.norm_mean) / params.norm_std) @ params.weights + params.bias)
        np.testing.assert_array_equal(whole.valid, grid.valid)
        assert np.isnan(whole.values[~whole.valid]).all()
        np.testing.assert_array_max_ulp(whole.values[whole.valid], reference.astype(np.float32), maxulp=1)

    @pytest.mark.parametrize("nodata", [-9999.0, -3.4028235e38, float("nan")])
    def test_invalid_pixel_values_raise_no_warning(self, rng, nodata):
        bands = {name: rng.random((6, 6), dtype=np.float32) for name in FOUR_BANDS}
        for name, samples in bands.items():
            samples[0, :] = np.nan
            samples[1, :] = np.inf
            samples[2, :] = -np.inf
            samples[3, :] = nodata
        bands["red"][4, 0] = np.inf  # one band invalid, the others valid
        raster = make_raster(bands, nodata=nodata)
        params = ModelParams(
            features=ALL_FEATURES,
            # mixed signs turn +inf rows into inf - inf, and the tiny std
            # overflows float64 at the nodata value -3.4e38
            weights=np.array([3.0, -3.0, 3.0, -3.0, 3.0, -3.0]),
            bias=0.5,
            norm_mean=np.full(6, 0.2),
            norm_std=np.full(6, 1e-300),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prob = predict_map(raster, raster.valid_mask(), params)
        assert not prob.valid[:5, 0].any() and prob.valid[5].all()
        assert np.isnan(prob.values[~prob.valid]).all()
        assert np.isfinite(prob.values[prob.valid]).all()


class TestParamsSerialization:
    def test_json_schema(self, tmp_path):
        params = ModelParams(
            features=("red", "nir"),
            weights=np.array([0.1, -0.2]),
            bias=0.05,
            norm_mean=np.array([0.4, 0.5]),
            norm_std=np.array([0.1, 0.2]),
        )
        save_params(params, tmp_path / "m.json")
        payload = json.loads((tmp_path / "m.json").read_text())
        assert set(payload) == {"features", "weights", "bias", "norm"}
        assert set(payload["norm"]) == {"mean", "std"}

    def test_full_precision_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        params = ModelParams(
            features=("a", "b", "c"),
            weights=rng.normal(size=3),
            bias=float(rng.normal()),
            norm_mean=rng.normal(size=3),
            norm_std=np.abs(rng.normal(size=3)) + 0.1,
        )
        save_params(params, tmp_path / "m.json")
        loaded = load_params(tmp_path / "m.json")
        np.testing.assert_array_equal(loaded.weights, params.weights)
        assert loaded.bias == params.bias
        np.testing.assert_array_equal(loaded.norm_mean, params.norm_mean)
        np.testing.assert_array_equal(loaded.norm_std, params.norm_std)

    def test_std_positive_enforced(self):
        with pytest.raises(Exception):
            ModelParams(
                features=("a",),
                weights=np.zeros(1),
                bias=0.0,
                norm_mean=np.zeros(1),
                norm_std=np.zeros(1),
            )

    @pytest.mark.parametrize("field", ["weights", "bias", "norm_mean", "norm_std"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, field, bad):
        values = dict(weights=np.zeros(2), bias=0.0, norm_mean=np.zeros(2), norm_std=np.ones(2))
        values[field] = bad if field == "bias" else np.array([1.0, bad])
        with pytest.raises(ParameterError, match="finite|> 0"):
            ModelParams(features=("a", "b"), **values)

    def test_weight_count_must_match_manifest(self):
        with pytest.raises(ShapeError):
            ModelParams(
                features=("a", "b"),
                weights=np.zeros(3),
                bias=0.0,
                norm_mean=np.zeros(2),
                norm_std=np.ones(2),
            )
