import json
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import expit

from palmwatch.errors import (
    BandLookupError,
    CompatibilityError,
    DegenerateDataError,
    DivergenceError,
    ParameterError,
    ShapeError,
)
from palmwatch import cli, pixel_model, raster_core
from palmwatch.indices import compute_index, ndvi
from palmwatch.annotations import AnnotationSet, CrownAnnotation, rasterize_labels
from palmwatch.pixel_model import (
    DEFAULT_INDEX_FEATURES,
    GRADIENT_TOLERANCE,
    ModelParams,
    TrainConfig,
    build_training_set,
    default_feature_names,
    featurize,
    gradient,
    load_params,
    loss,
    predict_map,
    save_params,
    standardization_stats,
    train,
)
from palmwatch.raster_core import Band, Mask, Raster, load_raster, save_raster

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
        features = featurize(raster, raster.valid_mask(), default_feature_names(raster))
        assert isinstance(features, Raster)
        assert features.band_names == ("red", "green", "blue", "nir", "ndvi", "gndvi")
        assert all(band.samples.shape == (8, 8) for band in features.bands)

    def test_ndvi_feature_matches_indices_module(self, rng):
        raster = random_raster(rng, 16, 16, band_names=("red", "green", "blue", "nir"))
        mask = raster.valid_mask()
        features = featurize(raster, mask, default_feature_names(raster))
        expected = ndvi(raster.band("nir"), raster.band("red"), mask)
        np.testing.assert_array_equal(
            features.band("ndvi").samples.view(np.uint32), expected.values.view(np.uint32)
        )

    def test_masked_pixel_yields_no_row(self, rng):
        # the masked pixel's bands stay finite and its indices are NaN, so
        # the rows with every feature finite are the other 15
        raster = random_raster(rng, 4, 4, band_names=("red", "green", "blue", "nir"))
        bits = np.ones((4, 4), bool)
        bits[2, 3] = False
        features = featurize(raster, Mask(bits), default_feature_names(raster))
        stacked = np.stack([band.samples for band in features.bands], axis=-1)
        assert stacked[np.isfinite(stacked).all(axis=-1)].shape == (15, 6)
        assert np.isnan(stacked[2, 3, 4:]).all() and np.isfinite(stacked[2, 3, :4]).all()

    def test_missing_band(self, rng):
        raster = random_raster(rng, 4, 4, band_names=("red", "nir"))
        with pytest.raises(BandLookupError, match="gndvi|green"):
            featurize(raster, raster.valid_mask(), default_feature_names(raster))

    def test_unknown_feature_name(self, rng):
        raster = random_raster(rng, 4, 4, band_names=("red", "nir"))
        with pytest.raises(BandLookupError, match="swir"):
            featurize(raster, raster.valid_mask(), ("red", "swir"))

    def test_grid_shape_mismatch(self, rng):
        raster = random_raster(rng, 5, 4, band_names=FOUR_BANDS)
        with pytest.raises(ShapeError, match="does not match raster"):
            featurize(raster, Mask(np.ones((4, 4), bool)), default_feature_names(raster))

    def test_bands_are_shared_and_indices_joined(self, rng):
        raster = random_raster(rng, 6, 5, band_names=FOUR_BANDS)
        ndvi_grid = compute_index(raster, raster.valid_mask(), "ndvi")
        with_ndvi = Raster(bands=raster.bands + (Band(name="ndvi", samples=ndvi_grid.values),))
        with mock.patch("palmwatch.pixel_model.compute_index", wraps=compute_index) as spy:
            features = featurize(with_ndvi, raster.valid_mask(), ("ndvi", "nir", "gndvi", "ndvi"))
        assert [c.args[2] for c in spy.call_args_list] == ["gndvi"]
        assert features.band_names == FOUR_BANDS + ("ndvi", "gndvi")
        assert all(a is b for a, b in zip(features.bands, with_ndvi.bands))
        assert features.band("ndvi").samples is ndvi_grid.values

    def test_empty_manifest_is_the_raster(self, rng):
        raster = random_raster(rng, 3, 3, band_names=FOUR_BANDS)
        features = featurize(raster, raster.valid_mask(), ())
        assert features.bands == raster.bands


class TestTrain:
    def test_separable_blobs_perfect_accuracy(self):
        X, y = separable_blobs()
        params = train(X, y, ("f0", "f1"))
        Xs = (X - params.norm_mean) / params.norm_std
        pred = (Xs @ params.weights + params.bias) > 0
        assert (pred == (y == 1)).mean() == 1.0

    def test_zero_epochs_initialization(self, rng, monkeypatch):
        # with no Newton iteration allowed the fit is its starting point
        monkeypatch.setattr(pixel_model, "MAX_NEWTON_ITERATIONS", 0)
        X, y = separable_blobs(50)
        params = train(X, y, ("f0", "f1"))
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
        a = train(X, y, ("f0", "f1"))
        b = train(X, y, ("f0", "f1"))
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
        standard = train(base, y, ("a", "b", "c"))
        assert (standard.norm_mean == 0).all() and (standard.norm_std == 1).all()
        pre = train((base - standard.norm_mean) / standard.norm_std, y, ("a", "b", "c"))
        np.testing.assert_array_equal(standard.weights, pre.weights)
        assert standard.bias == pre.bias

    @settings(max_examples=200, deadline=None)
    @given(
        value=st.floats(allow_nan=False, allow_infinity=False),
        rows=st.integers(1, 3000),
        other=st.lists(st.integers(-1000, 1000), min_size=2, max_size=2, unique=True),
    )
    def test_constant_feature_is_not_scaled(self, value, rows, other):
        # a column of 1000 x 0.1 has std 1.39e-17, not 0, in float64
        X = np.empty((rows, 2))
        X[:, 0] = value
        X[:, 1] = np.resize(other, rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, std = standardization_stats(X)
        assert mean[0] == value and std[0] == 1.0
        assert ((X[:, 0] - mean[0]) / std[0] == 0).all()
        if rows > 1:
            with np.errstate(over="ignore"):  # column 0's std may overflow
                assert std[1] == X.std(axis=0)[1]

    def test_reports_final_loss(self):
        X, y = separable_blobs(80)
        params = train(X, y, ("f0", "f1"))
        assert params.final_loss is not None and np.isfinite(params.final_loss)

    @pytest.mark.parametrize("ratio", [np.nan, np.inf, -1.0])
    def test_bad_negative_ratio_is_rejected(self, ratio):
        with pytest.raises(ParameterError, match="negative_ratio must be finite and >= 0"):
            TrainConfig(negative_ratio=ratio)


@st.composite
def logistic_problems(draw):
    """A small random (X, y, l2) with both labels present."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 300))
    f = draw(st.integers(1, 6))
    X = rng.normal(size=(n, f)) * rng.uniform(0.1, 10, f) + rng.uniform(-5, 5, f)
    X[:, 0] += 3.0 * (rng.random(n) < draw(st.floats(0, 1)))
    y = (rng.random(n) < draw(st.floats(0.05, 0.95))).astype(np.float64)
    y[:2] = (0.0, 1.0)
    l2 = 10.0 ** draw(st.floats(-6, 1))
    return X, y, l2


def feature_names_for(X):
    return tuple(f"f{i}" for i in range(X.shape[1]))


def exit_gradient(params, X, y, l2):
    Xs = (X - params.norm_mean) / params.norm_std
    grad_w, grad_b = gradient(params.weights, params.bias, Xs, y, l2)
    return max(np.abs(grad_w).max(), abs(grad_b))


class TestNewtonSolver:
    @settings(max_examples=60, deadline=None)
    @given(problem=logistic_problems())
    def test_gradient_within_tolerance_at_exit(self, problem):
        X, y, l2 = problem
        params = train(X, y, feature_names_for(X), TrainConfig(l2=l2))
        assert exit_gradient(params, X, y, l2) <= GRADIENT_TOLERANCE

    @settings(max_examples=60, deadline=None)
    @given(problem=logistic_problems())
    def test_loss_at_most_bfgs(self, problem):
        X, y, l2 = problem
        params = train(X, y, feature_names_for(X), TrainConfig(l2=l2))
        Xs = (X - params.norm_mean) / params.norm_std
        result = minimize(
            lambda theta: loss(theta[:-1], theta[-1], Xs, y, l2),
            np.zeros(X.shape[1] + 1),
            jac=lambda theta: np.append(*gradient(theta[:-1], theta[-1], Xs, y, l2)),
            method="BFGS",
        )
        assert params.final_loss == loss(params.weights, params.bias, Xs, y, l2)
        assert params.final_loss <= result.fun + 1e-12

    @settings(max_examples=30, deadline=None)
    @given(problem=logistic_problems())
    def test_two_runs_bit_identical(self, problem):
        X, y, l2 = problem
        a = train(X, y, feature_names_for(X), TrainConfig(l2=l2))
        b = train(X, y, feature_names_for(X), TrainConfig(l2=l2))
        np.testing.assert_array_equal(a.weights.view(np.uint64), b.weights.view(np.uint64))
        assert np.float64(a.bias).view(np.uint64) == np.float64(b.bias).view(np.uint64)
        assert a.final_loss == b.final_loss

    @pytest.mark.parametrize("seed", [65, 802])
    def test_overshooting_steps_are_halved(self, seed):
        # heavy-tailed features and no penalty, with a finite optimum:
        # on these draws undamped Newton steps diverge
        rng = np.random.default_rng(seed)
        X = rng.exponential(size=(12, 3)) ** 3
        y = (rng.random(12) < 0.5).astype(np.float64)
        params = train(X, y, feature_names_for(X), TrainConfig(l2=0.0))
        assert exit_gradient(params, X, y, 0.0) <= GRADIENT_TOLERANCE

    def test_overwhelming_l2_fits_the_bias_alone(self):
        # the weights' curvature is 1e300 and the bias's about 0.16: each
        # is judged against its own scale, so the bias still converges
        rng = np.random.default_rng(3)
        X = rng.normal(size=(300, 3))
        y = (rng.random(300) < 0.2).astype(np.float64)
        params = train(X, y, feature_names_for(X), TrainConfig(l2=1e300))
        assert np.abs(params.weights).max() < 1e-290
        assert params.bias == pytest.approx(np.log(y.mean() / (1 - y.mean())), abs=1e-12)

    def test_overwhelming_l2_stops_before_the_cap(self):
        # every step's loss change rounds to 0 at l2 = 1e300; such steps
        # used to pass the Armijo test, so all 100 iterations ran on noise
        rng = np.random.default_rng(3)
        X = rng.normal(size=(300, 3))
        y = (rng.random(300) < 0.2).astype(np.float64)
        with mock.patch.object(pixel_model, "newton_step", wraps=pixel_model.newton_step) as step:
            train(X, y, feature_names_for(X), TrainConfig(l2=1e300))
        assert step.call_count < pixel_model.MAX_NEWTON_ITERATIONS

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("extra", ["none", "constant", "repeated"])
    def test_separable_without_l2_stays_finite(self, seed, extra):
        # l2 = 0 has no finite optimum here, and a constant or repeated
        # column makes the Hessian exactly singular
        X, y = separable_blobs(seed=seed)
        if extra == "constant":
            X = np.column_stack([X, np.zeros(len(X))])
        elif extra == "repeated":
            X = np.column_stack([X, X[:, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                params = train(X, y, feature_names_for(X), TrainConfig(l2=0.0))
            except DivergenceError:
                return
        assert np.isfinite(params.weights).all() and np.isfinite(params.bias)
        assert exit_gradient(params, X, y, 0.0) <= GRADIENT_TOLERANCE


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
        # zero weights and bias predict 0.5 under any standardization
        raster = random_raster(rng, 6, 6)
        prob = predict_map(raster, raster.valid_mask(), self.params([0.0, 0.0], 0.0))
        np.testing.assert_array_equal(prob.values, np.float32(0.5))
        params = ModelParams(("red", "nir"), np.zeros(2), 0.0, rng.normal(size=2), rng.uniform(0.1, 10, 2))
        prob = predict_map(raster, raster.valid_mask(), params)
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
    """A small four-band raster whose invalid pixels hold NaN or nodata, and a mask.

    Some pixels have nir + red == 0 or nir + green == 0, where NDVI or
    gNDVI is undefined.
    """
    height, width = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nodata = draw(st.sampled_from([None, -9999.0, 0.0, float("nan")]))
    samples = {name: rng.random((height, width), dtype=np.float32) for name in FOUR_BANDS}
    for other in ("red", "green"):
        spots = rng.random((height, width)) < 0.1
        samples[other][spots] = -samples["nir"][spots]
    bands = []
    for name in FOUR_BANDS:
        samples[name][rng.random((height, width)) < 0.1] = np.nan
        if nodata is not None:
            samples[name][rng.random((height, width)) < 0.1] = nodata
        bands.append(Band(name=name, samples=samples[name]))
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


@st.composite
def scenes_under_any_mask(draw):
    """A scene of ``scenes_with_invalid_pixels`` whose bands also hold
    +-inf and +-3.4e38, under a mask drawn without regard to any band."""
    raster, _ = draw(scenes_with_invalid_pixels())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    extremes = np.array([np.inf, -np.inf, 3.4e38, -3.4e38], np.float32)
    bands = []
    for band in raster.bands:
        samples = band.samples.copy()
        spots = rng.random(samples.shape) < 0.1
        samples[spots] = rng.choice(extremes, int(spots.sum()))
        bands.append(Band(name=band.name, samples=samples))
    mask = Mask(rng.random((raster.height, raster.width)) < draw(st.sampled_from([0.5, 0.9, 1.0])))
    return Raster(bands=tuple(bands), nodata_value=raster.nodata_value), mask


@st.composite
def extreme_model_params(draw):
    """``model_params`` with some weights 0 and some stds so tiny that an
    extreme sample overflows z to +-inf."""
    params = draw(model_params())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = len(params.features)
    weights = np.where(rng.random(n) < 0.3, 0.0, params.weights)
    std = np.where(rng.random(n) < 0.3, 1e-300, params.norm_std)
    return ModelParams(params.features, weights, params.bias, params.norm_mean, std)


def unblocked_logits(raster, mask, params):
    """predict_map's z summed over the whole grid at once, in the same
    per-element order: (x - mean) / std * w added feature by feature, + b."""
    features = featurize(raster, mask, params.features)
    z = np.zeros(mask.bits.shape, dtype=np.float64)
    t = np.empty_like(z)
    with np.errstate(invalid="ignore", over="ignore"):
        for f, name in enumerate(params.features):
            np.subtract(features.band(name).samples, params.norm_mean[f], out=t, dtype=np.float64)
            t /= params.norm_std[f]
            t *= params.weights[f]
            z += t
    z += params.bias
    return z


def unblocked_predict_map(raster, mask, params):
    """The unblocked map and its validity: a pixel is valid where the mask
    holds and z is not NaN, and every invalid pixel holds NaN."""
    z = unblocked_logits(raster, mask, params)
    valid = mask.bits & ~np.isnan(z)
    values = expit(z).astype(np.float32)
    values[~valid] = np.nan
    return values, valid


def parent_rule_predict_map(raster, mask, params):
    """The map under the rule that featurize's bool plane used to carry: a
    pixel is NaN where the mask is false or a joined index is not finite,
    and elsewhere holds the expit of z as it comes, NaN or not."""
    features = featurize(raster, mask, params.features)
    valid = mask.bits.copy()
    for band in features.bands[len(raster.bands) :]:
        valid &= np.isfinite(band.samples)
    values = expit(unblocked_logits(raster, mask, params)).astype(np.float32)
    values[~valid] = np.nan
    return values


def commands_probability_map(raster, params, tile_size, cpus):
    """The samples of the probability map ``palmwatch predict`` writes for
    ``raster`` under ``params``, with ``tile_size`` prediction tiles on
    ``cpus`` CPUs, once ``palmwatch pipeline`` is checked to write the same
    bytes under the same settings."""
    with (
        tempfile.TemporaryDirectory() as tmp,
        mock.patch.object(raster_core, "usable_cpus", return_value=cpus),
        mock.patch.object(cli, "DEFAULT_TILE_SIZE", tile_size),
    ):
        root = Path(tmp)
        save_raster(raster, root / "scene")
        save_params(params, root / "model.json")
        scene, model = str(root / "scene.rhdr"), str(root / "model.json")
        assert cli.main(["predict", scene, "--model", model, "--out", str(root / "probability")]) == 0
        assert cli.main(["pipeline", "--scene", scene, "--model", model, "--out", str(root / "run")]) == 0
        for name in ("probability.rhdr", "probability.rbin"):
            assert (root / "run" / name).read_bytes() == (root / name).read_bytes(), name
        return load_raster(root / "probability.rhdr").band("palm_probability").samples


class TestPlaneByPlanePrediction:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(scene=scenes_with_invalid_pixels(), params=model_params(), block_px=st.integers(1, 700))
    def test_blocked_equals_unblocked(self, scene, params, block_px):
        # blocks above, below and not dividing the grid width, 1-px grids
        # included; invalid pixels hold NaN, infinities or nodata
        raster, mask = scene
        values, valid = unblocked_predict_map(raster, mask, params)
        with mock.patch.object(raster_core, "BLOCK_PX", block_px):
            prob = predict_map(raster, mask, params)
        np.testing.assert_array_equal(prob.valid, valid)
        np.testing.assert_array_equal(prob.values.view(np.uint32), values.view(np.uint32))

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(scene=scenes_under_any_mask(), params=extreme_model_params(), block_px=st.integers(1, 700))
    def test_invalid_set_and_finite_bits_are_the_parent_rules(self, scene, params, block_px):
        # the mask covers non-finite and nodata bands, and weights of 0
        # meet NaN indices; only the NaN an invalid pixel holds may differ
        raster, mask = scene
        parent = parent_rule_predict_map(raster, mask, params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with mock.patch.object(raster_core, "BLOCK_PX", block_px):
                prob = predict_map(raster, mask, params)
        valid = prob.valid
        np.testing.assert_array_equal(valid, np.isfinite(parent))
        np.testing.assert_array_equal(prob.values[valid].view(np.uint32), parent[valid].view(np.uint32))
        assert (prob.values[~valid].view(np.uint32) == 0x7FC00000).all()

    @pytest.mark.parametrize("shape", [(2, 70_001), (300, 1000), (1, 1)])
    def test_blocked_equals_unblocked_at_the_default_block(self, shape):
        rng = np.random.default_rng(sum(shape))
        raster = random_raster(rng, shape[1], shape[0], band_names=FOUR_BANDS)
        params = ModelParams(ALL_FEATURES, rng.uniform(-5, 5, 6), 0.3, rng.uniform(0, 1, 6), rng.uniform(0.1, 2, 6))
        values, _ = unblocked_predict_map(raster, raster.valid_mask(), params)
        prob = predict_map(raster, raster.valid_mask(), params)
        np.testing.assert_array_equal(prob.values.view(np.uint32), values.view(np.uint32))

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        scene=scenes_with_invalid_pixels(),
        params=model_params(),
        tile_size=st.integers(1, 30),
        cpus=st.sampled_from([1, 2]),
    )
    def test_tiled_equals_untiled_and_stacked_reference(self, scene, params, tile_size, cpus):
        raster, mask = scene
        # the commands predict every valid pixel, tile by tile of a plan
        # row band, and pipeline joins NDVI to each band as a feature
        tiled = commands_probability_map(raster, params, tile_size, cpus)
        untiled = predict_map(raster, raster.valid_mask(), params)
        np.testing.assert_array_equal(tiled.view(np.uint32), untiled.values.view(np.uint32))

        # the stacked formulation: one (H, W, F) array standardized in
        # float64; a pixel is valid where the mask holds and z is not NaN
        whole = predict_map(raster, mask, params)
        features = featurize(raster, mask, params.features)
        planes = [features.band(name).samples for name in params.features]
        x64 = np.stack(planes, axis=-1)[mask.bits].astype(np.float64)
        z = ((x64 - params.norm_mean) / params.norm_std) @ params.weights + params.bias
        valid = mask.bits.copy()
        valid[mask.bits] = ~np.isnan(z)
        reference = expit(z[~np.isnan(z)])
        np.testing.assert_array_equal(whole.valid, valid)
        assert (whole.values[~whole.valid].view(np.uint32) == 0x7FC00000).all()
        np.testing.assert_array_max_ulp(whole.values[whole.valid], reference.astype(np.float32), maxulp=1)

    @pytest.mark.parametrize("features", [(), ("ndvi", "red", "ndvi")])
    def test_tiled_handles_empty_and_repeated_manifests(self, rng, features):
        raster = random_raster(rng, 13, 10, band_names=FOUR_BANDS)
        n = len(features)
        params = ModelParams(features, np.ones(n), 0.3, np.zeros(n), np.ones(n))
        whole = predict_map(raster, raster.valid_mask(), params)
        tiled = commands_probability_map(raster, params, tile_size=4, cpus=2)
        np.testing.assert_array_equal(tiled.view(np.uint32), whole.values.view(np.uint32))

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

    def test_nan_logit_is_invalid(self):
        # 3e38 over a std of 1e-300 overflows float64, so z = inf - inf
        raster = make_raster({"a": np.array([[3e38, 0.5]], np.float32), "b": np.array([[3e38, 0.25]], np.float32)})
        params = ModelParams(("a", "b"), np.array([1.0, -1.0]), 0.0, np.zeros(2), np.full(2, 1e-300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prob = predict_map(raster, raster.valid_mask(), params)
        assert np.isnan(prob.values[0, 0]) and not prob.valid[0, 0]
        assert prob.valid[0, 1] and prob.values[0, 1] == 1.0


def parent_rule_training_set(scenes, negative_ratio, seed):
    """build_training_set's rows under the rule featurize's bool plane used
    to carry: a pixel is a candidate where valid_mask holds and NDVI and
    gNDVI are both finite. Rows come from the bands and compute_index."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for raster, ann in scenes:
        mask = raster.valid_mask()
        indices = [compute_index(raster, mask, name).values for name in DEFAULT_INDEX_FEATURES]
        planes = [band.samples for band in raster.bands] + indices
        valid = mask.bits & np.isfinite(indices[0]) & np.isfinite(indices[1])
        palm = rasterize_labels(ann, raster.width, raster.height)
        pos = np.flatnonzero(palm & valid)
        neg = np.flatnonzero(~palm & valid)
        keep = int(round(min(negative_ratio * len(pos), len(neg))))
        neg = neg[np.sort(rng.choice(len(neg), size=keep, replace=False))]
        for idx, label in ((pos, 1.0), (neg, 0.0)):
            xs.append(np.stack([plane.ravel()[idx] for plane in planes], axis=1).astype(np.float64))
            ys.append(np.full(len(idx), label))
    return np.concatenate(xs), np.concatenate(ys)


@st.composite
def annotated_scenes(draw):
    """Scenes of ``scenes_with_invalid_pixels``, each with a few crowns on its grid."""
    scenes = []
    for _ in range(draw(st.integers(1, 3))):
        raster, _ = draw(scenes_with_invalid_pixels())
        crowns = tuple(
            CrownAnnotation(
                id=i,
                class_label="healthy",
                cx=draw(st.floats(0, raster.width - 1)),
                cy=draw(st.floats(0, raster.height - 1)),
                radius_px=draw(st.floats(0.5, 6)),
            )
            for i in range(draw(st.integers(0, 4)))
        )
        scenes.append((raster, AnnotationSet(crowns)))
    return scenes


class TestTrainingRows:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(scenes=annotated_scenes(), ratio=st.sampled_from([0.0, 0.5, 5.0]), seed=st.integers(0, 2**32 - 1))
    def test_rows_are_the_parent_rules(self, scenes, ratio, seed):
        # bands hold NaN and nodata, and NDVI or gNDVI is undefined where
        # a denominator is 0, so index validity decides some candidates
        want_X, want_y = parent_rule_training_set(scenes, ratio, seed)
        if not want_y.any():
            # no crown covers a candidate: no row could teach the palm label
            with pytest.raises(DegenerateDataError, match="no crown covers any of the"):
                build_training_set(scenes, TrainConfig(seed=seed, negative_ratio=ratio))
            return
        X, y, names = build_training_set(scenes, TrainConfig(seed=seed, negative_ratio=ratio))
        assert names == ALL_FEATURES
        np.testing.assert_array_equal(X.view(np.uint64), want_X.view(np.uint64))
        np.testing.assert_array_equal(y, want_y)


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
