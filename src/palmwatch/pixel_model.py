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
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import expit

from .annotations import AnnotationSet, rasterize_labels
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
from .raster_core import Band, Mask, MaskedGrid, Raster, map_row_blocks

DEFAULT_INDEX_FEATURES = ("ndvi", "gndvi")

# train stops once every component of the gradient is this small
GRADIENT_TOLERANCE = 1e-10
# train's safety bound on its iterations, each over every row
MAX_NEWTON_ITERATIONS = 100
# a step is taken once the loss falls by at least this fraction of the
# decrease the gradient predicts for it (the Armijo condition)
ARMIJO_FRACTION = 1e-4
# loss changes this small relative to the loss are rounding noise
LOSS_ROUNDING = 16 * np.finfo(np.float64).eps
# a Newton step that passes neither line-search test even when halved
# this often (to 2**-60 of its length) cannot lower the loss: train stops
MAX_HALVINGS = 60
# a feature whose std is at most this many ulp of its mean's magnitude is
# constant up to the rounding of the mean, and is not scaled
CONSTANT_STD_ULPS = 4


def default_feature_names(raster: Raster) -> tuple[str, ...]:
    return tuple(raster.band_names) + DEFAULT_INDEX_FEATURES


def check_features(raster: Raster, mask: Mask, feature_names: tuple[str, ...]) -> tuple[str, ...]:
    """The index features among ``feature_names`` (those that are not
    bands of ``raster``, each once, in order), once ``raster`` is shown
    to supply every feature over ``mask``; no pixel is touched.

    Raises CompatibilityError naming every band the raster cannot
    supply, and ShapeError when ``mask`` is not on the raster's grid.
    """
    shape = (raster.height, raster.width)
    if mask.bits.shape != shape:
        raise ShapeError(f"mask {mask.bits.shape} does not match raster {shape}")
    indices = tuple(dict.fromkeys(n for n in feature_names if not raster.has_band(n)))
    missing = {b for n in indices for b in INDEX_REGISTRY.get(n, (n,)) if not raster.has_band(b)}
    if missing:
        raise CompatibilityError(
            f"raster with bands {list(raster.band_names)} cannot supply "
            f"features {sorted(missing)}; registered indices: {sorted(INDEX_REGISTRY)}"
        )
    return indices


def featurize(raster: Raster, mask: Mask, feature_names: tuple[str, ...]) -> Raster:
    """The feature raster: ``raster`` with each index feature that is not
    one of its bands joined as a band of its own (float32, computed over
    ``mask``); no samples are copied. A feature that is a band of
    ``raster`` is taken as it is, so an index derived once over a scene
    is reused by joining it to the scene as a band.
    Features follow the grid rule: a joined index is NaN wherever it is
    invalid, outside ``mask`` too. Raises what ``check_features``
    raises, before any index is computed.
    """
    joined = tuple(
        Band(name=name, samples=compute_index(raster, mask, name).values)
        for name in check_features(raster, mask, feature_names)
    )
    return Raster(bands=raster.bands + joined, nodata_value=raster.nodata_value, origin=raster.origin)


@dataclass
class TrainConfig:
    """Every training setting: ``seed`` and ``negative_ratio`` choose the
    background rows of ``build_training_set``, and ``l2`` penalizes the
    weights in ``train``."""

    seed: int = 0
    negative_ratio: float = 5.0
    l2: float = 1e-4

    def __post_init__(self):
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.negative_ratio < np.inf:
            raise ParameterError(f"negative_ratio must be finite and >= 0, got {self.negative_ratio}")
        if not 0 <= self.l2 < np.inf:
            raise ParameterError(f"l2 must be finite and >= 0, got {self.l2}")


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

    Uses (1 - y)*log(1 + e^z) + y*log(1 + e^-z), which is log(1 + e^z)
    - y*z without clipping probabilities and without its cancellation:
    at y = 1 and z = 8 the difference of two numbers near 8 kept only
    about 1e-15 absolute precision, too little to see a Newton step's
    decrease near the optimum.
    """
    z = X @ weights + bias
    ce = np.mean((1.0 - y) * np.logaddexp(0.0, z) + y * np.logaddexp(0.0, -z))
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
    """Per-feature mean and population std of the rows of ``X``.

    A constant feature gets its own value as mean and std 1, so it
    standardizes to exactly 0; its computed std would be rounding noise
    (1.4e-17 for a column of 0.1) or, near the float64 limit, overflow.
    A feature whose std is at most CONSTANT_STD_ULPS ulp of its mean is
    constant up to rounding and gets std 1 too.
    """
    constant = (X == X[0]).all(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.where(constant, X[0], X.mean(axis=0))
        std = X.std(axis=0, ddof=0)
        flat = constant | (std <= CONSTANT_STD_ULPS * np.spacing(np.abs(mean)))
    return mean, np.where(flat, 1.0, std)


def newton_step(
    weights: np.ndarray, bias: float, X: np.ndarray, grad: np.ndarray, l2: float
) -> np.ndarray:
    """The Newton direction of ``loss`` for (weights, bias): solves H d = -grad.

    H = [X, 1]^T diag(p(1-p)) [X, 1] / n plus ``l2`` on the weight
    diagonal (the bias is not penalized). The system is scaled to a unit
    diagonal first, so the rank cutoff of the least-squares solve judges
    each variable against its own curvature; where H is singular (l2 = 0
    with a constant or repeated feature) the minimum-norm step is taken.
    """
    n, f = X.shape
    p = expit(X @ weights + bias)
    s = p * (1.0 - p)
    sx = X * s[:, None]
    H = np.empty((f + 1, f + 1))
    H[:f, :f] = sx.T @ X / n
    H[:f, f] = H[f, :f] = sx.sum(axis=0) / n
    H[f, f] = s.mean()
    H[range(f), range(f)] += l2
    scale = np.sqrt(np.diag(H))
    scale[scale == 0] = 1.0
    u = np.linalg.lstsq(H / np.outer(scale, scale), -grad / scale, rcond=None)[0]
    return u / scale


def train(
    X: np.ndarray,
    y: np.ndarray,
    feature_names: tuple[str, ...],
    config: TrainConfig | None = None,
) -> ModelParams:
    """Fit logistic-regression parameters by damped Newton (IRLS).

    Features are standardized with statistics taken from ``X`` and stored
    on the returned params. Weights and bias start at zero. Each iteration
    takes the Newton step of the convex objective ``loss``, penalized by
    ``config.l2``, halved until the loss meets the Armijo decrease.
    Training stops once every gradient component is at most
    GRADIENT_TOLERANCE, when MAX_HALVINGS halvings find no decrease (the
    optimum to working precision), or after MAX_NEWTON_ITERATIONS
    iterations, a safety bound: a step whose loss change is rounding
    noise must lower the gradient, so even l2 = 1e300 stops on its own.
    Raises DegenerateDataError when only one label value is present and
    DivergenceError (naming the iteration) if the loss is non-finite.
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

    def objective(theta):
        return loss(theta[:-1], theta[-1], Xs, y, config.l2)

    def gradient_at(theta):
        return np.append(*gradient(theta[:-1], theta[-1], Xs, y, config.l2))

    theta = np.zeros(len(feature_names) + 1)  # the weights, then the bias
    final = objective(theta)
    if not np.isfinite(final):
        # a step is taken only to a finite loss, so only the start can fail
        raise DivergenceError("training loss became non-finite at iteration 0")
    for _ in range(MAX_NEWTON_ITERATIONS):
        grad = gradient_at(theta)
        largest = np.abs(grad).max()
        if largest <= GRADIENT_TOLERANCE:
            break
        step = newton_step(theta[:-1], theta[-1], Xs, grad, config.l2)
        armijo = ARMIJO_FRACTION * float(grad @ step)  # < 0, per unit of t
        t = 1.0
        for _ in range(MAX_HALVINGS):
            candidate = theta + t * step
            # a step so long that z overflows gives a NaN or inf loss,
            # which fails the tests below and is halved like any other
            with np.errstate(over="ignore", invalid="ignore"):
                trial = objective(candidate)
            # Armijo, on a loss that strictly falls; near the optimum the
            # decrease drowns in rounding, and a smaller gradient shows progress
            if (trial < final and trial <= final + t * armijo) or (
                abs(trial - final) <= LOSS_ROUNDING * final
                and np.abs(gradient_at(candidate)).max() < largest
            ):
                break
            t /= 2
        else:
            break
        theta, final = candidate, trial
    return ModelParams(
        features=tuple(feature_names),
        weights=theta[:-1],
        bias=float(theta[-1]),
        norm_mean=mean,
        norm_std=std,
        final_loss=final,
    )


def predict_map(raster: Raster, mask: Mask, params: ModelParams) -> MaskedGrid:
    """sigmoid(w . x_standardized + b) per valid pixel.

    z is summed plane by plane in float64, in feature order, over blocks
    of whole rows of about BLOCK_PX pixels, which the pool's threads
    share (``map_row_blocks``); each block goes straight into the float32
    result, so the result is the same for any number of threads. A pixel
    is invalid, and holds NaN (0x7fc00000), where ``mask`` is false or z
    is NaN: an invalid feature is NaN and makes z NaN at any weight, and
    so do weighted features that overflow to +inf and -inf. The blocks
    run silenced, as invalid pixels may overflow or be NaN in z. Raises
    CompatibilityError listing the manifest features the raster cannot
    supply.
    """
    features = featurize(raster, mask, params.features)
    planes = [features.band(name).samples for name in params.features]
    height, width = mask.bits.shape
    values = np.empty((height, width), dtype=np.float32)

    def block(rows, buffers):
        z, t = buffers[:, : rows.stop - rows.start]
        # numpy's error state is per thread, so each block sets its own
        with np.errstate(invalid="ignore", over="ignore"):
            z.fill(0.0)
            for f, plane in enumerate(planes):
                np.subtract(plane[rows], params.norm_mean[f], out=t, dtype=np.float64)
                t /= params.norm_std[f]
                t *= params.weights[f]
                z += t
            z += params.bias
            values[rows] = expit(z, out=z)
            values[rows][np.isnan(z) | ~mask.bits[rows]] = np.nan

    map_row_blocks(height, width, block, scratch=lambda rows: np.empty((2, rows, width)))
    values.setflags(write=False)
    return MaskedGrid(values)


def build_training_set(
    scenes: Iterable[tuple[Raster, AnnotationSet]],
    config: TrainConfig | None = None,
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Assemble (X, y) pixel rows from annotated scenes.

    The features are ``default_feature_names`` of each scene, every band
    and then DEFAULT_INDEX_FEATURES, and must be the same for every
    scene. A pixel is a candidate where the scene's ``valid_mask`` holds
    and every feature is finite. Every palm candidate (inside any crown disc)
    becomes a positive row; background candidates are subsampled to
    ``config.negative_ratio`` times the positive count (without
    replacement, seeded by ``config.seed``) to keep desk-scale training
    sets tractable. ``scenes`` may be any iterable, such as a generator
    that loads each scene from disk: one scene is held at a time, and
    only its sampled rows outlive it. Scenes whose crowns cover no
    candidate give no palm row, which is a ``DegenerateDataError``
    naming the candidate count.
    """
    config = config or TrainConfig()
    rng = np.random.default_rng(config.seed)
    names = None
    xs, ys = [], []
    positives = candidates = 0
    for raster, ann in scenes:
        scene_names = default_feature_names(raster)
        if names is None:
            names = scene_names
        elif scene_names != names:
            raise CompatibilityError(f"scene features {scene_names} != {names}")

        # the feature raster is cheap; materializing per-pixel rows for the
        # whole scene is not, so rows are gathered only at the sampled
        # pixels below
        mask = raster.valid_mask()
        features = featurize(raster, mask, names)
        # the bands are finite under the mask, so only joined indices are checked
        valid = mask.bits.copy()
        for band in features.bands[len(raster.bands) :]:
            valid &= np.isfinite(band.samples)

        palm = rasterize_labels(ann, raster.width, raster.height)
        pos_idx = np.flatnonzero((palm & valid).ravel())
        neg_candidates = np.flatnonzero((~palm & valid).ravel())
        positives += len(pos_idx)
        candidates += len(pos_idx) + len(neg_candidates)
        keep = int(round(min(config.negative_ratio * len(pos_idx), len(neg_candidates))))
        chosen = rng.choice(len(neg_candidates), size=keep, replace=False)
        chosen.sort()
        neg_idx = neg_candidates[chosen]
        for idx, label in ((pos_idx, 1.0), (neg_idx, 0.0)):
            xs.append(
                np.stack(
                    [features.band(n).samples.ravel()[idx] for n in names], axis=1
                ).astype(np.float64)
            )
            ys.append(np.full(len(idx), label))
        # release this scene before the iterable loads the next one
        del raster, ann, mask, features, valid, palm, neg_candidates
    if names is None:
        raise DegenerateDataError("no scenes to build a training set from")
    if not positives:
        raise DegenerateDataError(
            f"training needs palm pixels, but no crown covers any of the {candidates} valid pixels"
        )
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
