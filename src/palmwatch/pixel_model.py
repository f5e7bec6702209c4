"""Pixelwise palm-probability model.

A logistic regression over per-pixel features (raw band reflectances
followed by computed indices) stands in for a heavier segmentation
network behind the same probability-map interface: featurize a tile,
apply the model, get one palm likelihood per valid pixel. The interface
is deliberately narrow so a neural backend can be swapped in later.

Model parameters serialize to JSON as
``{"features": [...], "weights": [...], "bias": x,
"norm": {"mean": [...], "std": [...]}}`` with full round-trip precision.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import expit

from .annotations import AnnotationSet
from .errors import (
    CompatibilityError,
    DegenerateDataError,
    DivergenceError,
    FormatError,
    ParameterError,
    ShapeError,
)
from .indices import INDEX_REGISTRY, compute_index
from .jsondoc import read_document, take
from .raster_core import Mask, MaskedGrid, Raster

DEFAULT_INDEX_FEATURES = ("ndvi", "gndvi")
DEFAULT_NEGATIVE_RATIO = 5.0


# The model's output: a masked grid named "palm_probability".
ProbabilityMap = MaskedGrid


@dataclass(frozen=True)
class FeatureGrid:
    """One 2-D float32 plane per feature name, and where every feature is valid."""

    names: tuple[str, ...]
    planes: tuple[np.ndarray, ...]
    valid: np.ndarray

    @property
    def height(self) -> int:
        return self.valid.shape[0]

    @property
    def width(self) -> int:
        return self.valid.shape[1]

    def rows(self) -> np.ndarray:
        """Feature matrix of the valid pixels, float64, row-major pixel order."""
        return np.stack([plane[self.valid] for plane in self.planes], axis=1).astype(np.float64)


def default_feature_names(raster: Raster) -> tuple[str, ...]:
    return tuple(raster.band_names) + DEFAULT_INDEX_FEATURES


def feature_planes(
    raster: Raster, mask: Mask, names: tuple[str, ...]
) -> tuple[list[np.ndarray], np.ndarray]:
    """One float32 plane per feature name, and where every feature is valid.

    A band feature is that band's samples; an index feature is computed
    over ``mask`` and is valid only where the index is defined. Raises
    CompatibilityError naming every band or feature the raster cannot
    supply.
    """
    if mask.bits.shape != (raster.height, raster.width):
        raise ShapeError(
            f"mask {mask.bits.shape} does not match raster "
            f"{(raster.height, raster.width)}"
        )
    missing = set()
    for name in names:
        if not raster.has_band(name):
            required = INDEX_REGISTRY[name][0] if name in INDEX_REGISTRY else (name,)
            missing.update(b for b in required if not raster.has_band(b))
    if missing:
        raise CompatibilityError(
            f"raster with bands {list(raster.band_names)} cannot supply "
            f"features {sorted(missing)}; registered indices: {sorted(INDEX_REGISTRY)}"
        )
    valid = mask.bits.copy()
    planes = []
    for name in names:
        if raster.has_band(name):
            planes.append(raster.band(name).samples)
        else:
            index = compute_index(raster, mask, name)
            planes.append(index.values)
            valid &= index.valid
    return planes, valid


def featurize(
    raster: Raster, mask: Mask, feature_names: tuple[str, ...] | None = None
) -> FeatureGrid:
    """Raw bands and computed indices as per-pixel feature planes.

    A pixel is valid when the input mask is true and every index feature
    is defined there; invalid pixels keep whatever the planes hold (NaN,
    nodata, any finite value) and yield no training rows or predictions.
    """
    names = tuple(feature_names) if feature_names is not None else default_feature_names(raster)
    planes, valid = feature_planes(raster, mask, names)
    return FeatureGrid(names=names, planes=tuple(planes), valid=valid)


@dataclass
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 300
    batch_size: int = 4096
    seed: int = 0
    l2: float = 1e-4

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ParameterError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ParameterError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.l2 < 0:
            raise ParameterError(f"l2 must be >= 0, got {self.l2}")


@dataclass
class ModelParams:
    """Weights, bias and the feature manifest they are ordered by.

    ``norm_mean``/``norm_std`` are the standardization statistics frozen
    at training time; predictions standardize with these, never with the
    prediction-time data.
    """

    features: tuple[str, ...]
    weights: np.ndarray
    bias: float
    norm_mean: np.ndarray
    norm_std: np.ndarray
    final_loss: float | None = field(default=None, compare=False)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.norm_mean = np.asarray(self.norm_mean, dtype=np.float64)
        self.norm_std = np.asarray(self.norm_std, dtype=np.float64)
        n = len(self.features)
        if self.weights.shape != (n,) or self.norm_mean.shape != (n,) or self.norm_std.shape != (n,):
            raise ShapeError(
                f"params arrays must all have length {n} "
                f"(weights {self.weights.shape}, mean {self.norm_mean.shape}, "
                f"std {self.norm_std.shape})"
            )
        if not ((self.norm_std > 0) & (self.norm_std < np.inf)).all():
            raise ParameterError("norm std entries must be finite and > 0")
        if not all(np.isfinite(v).all() for v in (self.weights, self.bias, self.norm_mean)):
            raise ParameterError("model weights, bias and norm mean must be finite")


def loss(weights: np.ndarray, bias: float, X: np.ndarray, y: np.ndarray, l2: float) -> float:
    """Mean cross-entropy plus (l2/2)*||w||^2, numerically stable.

    Uses log(1 + e^z) - y*z, which avoids clipping probabilities.
    """
    z = X @ weights + bias
    ce = np.mean(np.logaddexp(0.0, z) - y * z)
    return float(ce + 0.5 * l2 * np.dot(weights, weights))


def gradient(
    weights: np.ndarray, bias: float, X: np.ndarray, y: np.ndarray, l2: float
) -> tuple[np.ndarray, float]:
    """Exact analytic gradient of ``loss`` w.r.t. (weights, bias).

    The L2 term contributes l2*w; the bias is not penalized.
    """
    if len(X) == 0:
        raise DegenerateDataError("gradient needs a non-empty batch")
    p = expit(X @ weights + bias)
    residual = p - y
    grad_w = X.T @ residual / len(X) + l2 * weights
    grad_b = float(residual.mean())
    return grad_w, grad_b


def standardization_stats(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean and population std; zero-variance features get std 1."""
    mean = X.mean(axis=0)
    std = X.std(axis=0, ddof=0)
    std = np.where(std > 0, std, 1.0)
    return mean, std


def train(
    X: np.ndarray,
    y: np.ndarray,
    feature_names: tuple[str, ...],
    config: TrainConfig | None = None,
) -> ModelParams:
    """Fit logistic-regression parameters by seeded mini-batch descent.

    Features are standardized with statistics taken from ``X`` and stored
    on the returned params. Weights and bias start at zero (the objective
    is convex), so zero epochs returns the 0.5-everywhere model. Raises
    DegenerateDataError when only one label value is present and
    DivergenceError (naming the epoch) if the loss goes non-finite.
    """
    config = config or TrainConfig()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(feature_names):
        raise ShapeError(
            f"X must be (n, {len(feature_names)}) for manifest {list(feature_names)}, "
            f"got {X.shape}"
        )
    if y.shape != (X.shape[0],):
        raise ShapeError(f"labels must be ({X.shape[0]},), got {y.shape}")
    if not np.isfinite(X).all():
        raise DegenerateDataError("features contain non-finite values")
    pos = int((y == 1).sum())
    if pos == 0 or pos == len(y):
        raise DegenerateDataError(
            f"training needs both labels; got {pos} positive of {len(y)}"
        )

    mean, std = standardization_stats(X)
    Xs = (X - mean) / std
    weights = np.zeros(len(feature_names), dtype=np.float64)
    bias = 0.0
    rng = np.random.default_rng(config.seed)
    n = len(y)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            grad_w, grad_b = gradient(weights, bias, Xs[batch], y[batch], config.l2)
            weights -= config.learning_rate * grad_w
            bias -= config.learning_rate * grad_b
        if not (np.isfinite(weights).all() and np.isfinite(bias)):
            raise DivergenceError(f"training loss became non-finite at epoch {epoch}")

    final = loss(weights, bias, Xs, y, config.l2)
    if not np.isfinite(final):
        raise DivergenceError(f"training loss became non-finite at epoch {config.epochs - 1}")
    return ModelParams(
        features=tuple(feature_names),
        weights=weights,
        bias=bias,
        norm_mean=mean,
        norm_std=std,
        final_loss=final,
    )


def predict_map(raster: Raster, mask: Mask, params: ModelParams) -> MaskedGrid:
    """sigmoid(w . x_standardized + b) per valid pixel.

    z is summed plane by plane in float64, in feature order. Invalid
    pixels come out NaN; what they hold may overflow or be NaN in z, so
    the loop runs silenced. Raises CompatibilityError listing the
    manifest features the raster cannot supply.
    """
    grid = featurize(raster, mask, params.features)
    z = np.zeros((grid.height, grid.width), dtype=np.float64)
    t = np.empty_like(z)
    with np.errstate(invalid="ignore", over="ignore"):
        for f, plane in enumerate(grid.planes):
            np.subtract(plane, params.norm_mean[f], out=t, dtype=np.float64)
            t /= params.norm_std[f]
            t *= params.weights[f]
            z += t
    z += params.bias
    values = expit(z, out=z).astype(np.float32)
    values[~grid.valid] = np.nan
    return MaskedGrid(values=values, valid=grid.valid)


def build_training_set(
    scenes: list[tuple[Raster, AnnotationSet]],
    feature_names: tuple[str, ...] | None = None,
    negative_ratio: float = DEFAULT_NEGATIVE_RATIO,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Assemble (X, y) pixel rows from annotated scenes.

    Every palm pixel (inside any crown disc) becomes a positive row;
    background pixels are subsampled to ``negative_ratio`` times the
    positive count (seeded, without replacement) to keep desk-scale
    training sets tractable.
    """
    from .synth_scene import rasterize_labels

    if not scenes:
        raise DegenerateDataError("no scenes to build a training set from")
    rng = np.random.default_rng(seed)
    names = None
    xs, ys = [], []
    for raster, ann in scenes:
        scene_names = (
            tuple(feature_names) if feature_names is not None else default_feature_names(raster)
        )
        if names is None:
            names = scene_names
        elif scene_names != names:
            raise CompatibilityError(f"scene features {scene_names} != {names}")

        # full-grid feature planes are cheap; materializing per-pixel rows
        # for the whole scene is not, so rows are gathered only at the
        # sampled pixels below
        planes, valid = feature_planes(raster, raster.valid_mask(), names)

        palm = rasterize_labels(ann, raster.width, raster.height)
        pos_idx = np.flatnonzero((palm & valid).ravel())
        neg_candidates = np.flatnonzero((~palm & valid).ravel())
        keep = min(len(neg_candidates), int(round(negative_ratio * len(pos_idx))))
        chosen = rng.choice(len(neg_candidates), size=keep, replace=False)
        chosen.sort()
        neg_idx = neg_candidates[chosen]
        for idx, label in ((pos_idx, 1.0), (neg_idx, 0.0)):
            xs.append(
                np.stack([p.ravel()[idx] for p in planes], axis=1).astype(np.float64)
            )
            ys.append(np.full(len(idx), label))
    return np.concatenate(xs), np.concatenate(ys), names


def save_params(params: ModelParams, path) -> None:
    payload = {
        "features": list(params.features),
        "weights": [float(w) for w in params.weights],
        "bias": float(params.bias),
        "norm": {
            "mean": [float(v) for v in params.norm_mean],
            "std": [float(v) for v in params.norm_std],
        },
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_params(path) -> ModelParams:
    where = f"model params {path}"
    payload = read_document(path, "model params")
    norm = take(payload, "norm", dict, where)
    try:
        return ModelParams(
            features=take(payload, "features", tuple[str, ...], where),
            weights=take(payload, "weights", tuple[float, ...], where),
            bias=take(payload, "bias", float, where),
            norm_mean=take(norm, "mean", tuple[float, ...], f"{where} norm"),
            norm_std=take(norm, "std", tuple[float, ...], f"{where} norm"),
        )
    except (ParameterError, ShapeError) as exc:
        raise FormatError(f"{where} are invalid: {exc}") from exc
