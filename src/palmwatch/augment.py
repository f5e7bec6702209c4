"""Deterministic, seed-driven tile augmentation.

Each operation in an AugmentSpec gets its own counter-based random
stream keyed by (seed, tile id, operation index), so neither the order
augmentations run in nor any parallelism over tiles can change outputs.

Geometric operations transform crown annotations consistently with the
pixels. A crown clipped by cropping keeps its disc parameters; crowns
that lose half or more of their pixel area are dropped.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .annotations import AnnotationSet, disc_pixels
from .errors import DomainError, FormatError, ParameterError
from .raster_core import Band, Raster

CROP_KEEP_FRACTION = 0.5


@dataclass(frozen=True)
class CropOp:
    size: int


@dataclass(frozen=True)
class GaussianNoiseOp:
    sigma: float


@dataclass(frozen=True)
class GammaOp:
    lo: float
    hi: float


@dataclass(frozen=True)
class FlipHOp:
    pass


@dataclass(frozen=True)
class FlipVOp:
    pass


@dataclass(frozen=True)
class ScaleOp:
    lo: float
    hi: float


AugmentOp = CropOp | GaussianNoiseOp | GammaOp | FlipHOp | FlipVOp | ScaleOp


@dataclass(frozen=True)
class AugmentSpec:
    operations: tuple[AugmentOp, ...]
    seed: int = 0

    def __post_init__(self):
        for op in self.operations:
            if isinstance(op, CropOp) and op.size < 1:
                raise ParameterError(f"crop size must be >= 1, got {op.size}")
            if isinstance(op, GaussianNoiseOp) and not 0 <= op.sigma < math.inf:
                raise ParameterError(f"noise sigma must be finite and >= 0, got {op.sigma}")
            if isinstance(op, GammaOp) and not (0 < op.lo <= op.hi < math.inf):
                raise ParameterError(f"gamma exponents must satisfy 0 < lo <= hi < inf, got ({op.lo}, {op.hi})")
            if isinstance(op, ScaleOp) and not (0 < op.lo <= op.hi < math.inf):
                raise ParameterError(f"scale factors must satisfy 0 < lo <= hi < inf, got ({op.lo}, {op.hi})")
        object.__setattr__(self, "operations", tuple(self.operations))


_OP_TAGS = {
    CropOp: "crop",
    GaussianNoiseOp: "gaussian_noise",
    GammaOp: "gamma",
    FlipHOp: "flip_h",
    FlipVOp: "flip_v",
    ScaleOp: "scale",
}


def spec_to_json(spec: AugmentSpec) -> str:
    ops = []
    for op in spec.operations:
        entry = {"op": _OP_TAGS[type(op)]}
        if isinstance(op, CropOp):
            entry["size"] = op.size
        elif isinstance(op, GaussianNoiseOp):
            entry["sigma"] = op.sigma
        elif isinstance(op, (GammaOp, ScaleOp)):
            entry["lo"] = op.lo
            entry["hi"] = op.hi
        ops.append(entry)
    return json.dumps({"seed": spec.seed, "operations": ops}, indent=2) + "\n"


def spec_from_json(text: str) -> AugmentSpec:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"augment spec is not valid JSON: {exc}") from exc
    operations = payload.get("operations", []) if isinstance(payload, dict) else None
    if not isinstance(operations, list):
        raise FormatError("augment spec must be an object with an 'operations' list")
    ops = []
    for i, entry in enumerate(operations):
        tag = entry.get("op") if isinstance(entry, dict) else None
        try:
            if tag == "crop":
                ops.append(CropOp(size=int(entry["size"])))
            elif tag == "gaussian_noise":
                ops.append(GaussianNoiseOp(sigma=float(entry["sigma"])))
            elif tag == "gamma":
                ops.append(GammaOp(lo=float(entry["lo"]), hi=float(entry["hi"])))
            elif tag == "flip_h":
                ops.append(FlipHOp())
            elif tag == "flip_v":
                ops.append(FlipVOp())
            elif tag == "scale":
                ops.append(ScaleOp(lo=float(entry["lo"]), hi=float(entry["hi"])))
            else:
                raise FormatError(f"operations[{i}]: unknown op {tag!r}")
        except KeyError as exc:
            raise FormatError(f"operations[{i}] ({tag}): missing field {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"operations[{i}] ({tag}): malformed field: {exc}") from exc
    try:
        seed = int(payload.get("seed", 0))
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"augment spec seed is malformed: {exc}") from exc
    return AugmentSpec(operations=tuple(ops), seed=seed)


def load_spec(path) -> AugmentSpec:
    return spec_from_json(Path(path).read_text())


def op_rng(seed: int, tile_id: int, op_index: int) -> np.random.Generator:
    """Independent Philox stream for one (tile, operation) slot.

    The key carries the spec seed; tile id and op index land in separate
    64-bit lanes of the counter, so streams never collide and results do
    not depend on evaluation order.
    """
    counter = (int(tile_id) & 0xFFFFFFFFFFFFFFFF) * 2**64 + (int(op_index) & 0xFFFFFFFFFFFFFFFF)
    return np.random.Generator(np.random.Philox(key=int(seed) & (2**128 - 1), counter=counter))


def _rebuild(tile: Raster, new_samples: list[np.ndarray]) -> Raster:
    bands = tuple(
        Band(name=b.name, samples=s, wavelength_nm=b.wavelength_nm)
        for b, s in zip(tile.bands, new_samples)
    )
    return Raster(bands=bands, nodata_value=tile.nodata_value, origin=tile.origin)


def flip_h(tile: Raster, ann: AnnotationSet) -> tuple[Raster, AnnotationSet]:
    """Mirror about the vertical axis; centroid x maps to width-1-x."""
    flipped = _rebuild(tile, [b.samples[:, ::-1] for b in tile.bands])
    w = tile.width
    return flipped, AnnotationSet(
        tuple(replace(c, cx=(w - 1) - c.cx) for c in ann.crowns)
    )


def flip_v(tile: Raster, ann: AnnotationSet) -> tuple[Raster, AnnotationSet]:
    """Mirror about the horizontal axis; centroid y maps to height-1-y."""
    flipped = _rebuild(tile, [b.samples[::-1, :] for b in tile.bands])
    h = tile.height
    return flipped, AnnotationSet(
        tuple(replace(c, cy=(h - 1) - c.cy) for c in ann.crowns)
    )


def random_crop(
    tile: Raster, ann: AnnotationSet, size: int, rng: np.random.Generator
) -> tuple[Raster, AnnotationSet]:
    """Uniformly positioned size x size crop with consistent annotations.

    Crowns keep their disc parameters shifted into crop coordinates;
    a crown retaining less than half of its original pixel area (or none)
    is dropped.
    """
    if size > tile.width or size > tile.height:
        raise ParameterError(
            f"crop size {size} exceeds tile {tile.width}x{tile.height}"
        )
    x0 = int(rng.integers(0, tile.width - size + 1))
    y0 = int(rng.integers(0, tile.height - size + 1))
    cropped = _rebuild(
        tile, [b.samples[y0 : y0 + size, x0 : x0 + size] for b in tile.bands]
    )
    kept = []
    for crown in ann.crowns:
        ys, xs = disc_pixels(crown.cx, crown.cy, crown.radius_px, tile.width, tile.height)
        original = len(xs)
        if original == 0:
            continue
        inside = (xs >= x0) & (xs < x0 + size) & (ys >= y0) & (ys < y0 + size)
        if inside.sum() < CROP_KEEP_FRACTION * original:
            continue
        kept.append(replace(crown, cx=crown.cx - x0, cy=crown.cy - y0))
    return cropped, AnnotationSet(tuple(kept))


def gaussian_noise(tile: Raster, sigma: float, rng: np.random.Generator) -> Raster:
    """Add i.i.d. zero-mean normal noise, clamped at zero reflectance.

    Nodata pixels are left bit-identical; sigma 0 is the identity.
    """
    if sigma < 0:
        raise ParameterError(f"noise sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return tile
    valid = tile.valid_mask().bits
    out = []
    for band in tile.bands:
        noise = rng.normal(0.0, sigma, size=band.samples.shape)
        noisy = np.maximum(band.samples.astype(np.float64) + noise, 0.0).astype(np.float32)
        out.append(np.where(valid, noisy, band.samples))
    return _rebuild(tile, out)


def gamma_adjust(tile: Raster, exponent: float) -> Raster:
    """Raise every valid sample to ``exponent``; expects a [0, 1] domain.

    Raises DomainError if any valid sample is negative. Nodata pixels are
    untouched. Monotone, so pixel value ordering is preserved.
    """
    if not exponent > 0:
        raise ParameterError(f"gamma exponent must be > 0, got {exponent}")
    valid = tile.valid_mask().bits
    out = []
    for band in tile.bands:
        values = band.samples[valid]
        if (values < 0).any():
            raise DomainError(
                f"band {band.name!r} has negative samples; gamma expects [0, 1] reflectance"
            )
        adjusted = band.samples.copy()
        adjusted[valid] = np.power(values.astype(np.float64), exponent).astype(np.float32)
        out.append(adjusted)
    return _rebuild(tile, out)


def scale(
    tile: Raster, ann: AnnotationSet, factor: float
) -> tuple[Raster, AnnotationSet]:
    """Bilinear resample to floor(factor * dim); annotations scale by factor.

    An output pixel is nodata when any input pixel it interpolates from
    is invalid. Factor 1 is an exact identity.
    """
    if not factor > 0:
        raise ParameterError(f"scale factor must be > 0, got {factor}")
    out_w = int(np.floor(factor * tile.width))
    out_h = int(np.floor(factor * tile.height))
    if out_w < 1 or out_h < 1:
        raise ParameterError(
            f"scale factor {factor} collapses {tile.width}x{tile.height} to "
            f"{out_w}x{out_h}"
        )

    xs = np.arange(out_w, dtype=np.float64) / factor
    ys = np.arange(out_h, dtype=np.float64) / factor
    xs = np.clip(xs, 0.0, tile.width - 1)
    ys = np.clip(ys, 0.0, tile.height - 1)
    xi = np.floor(xs).astype(np.intp)
    yi = np.floor(ys).astype(np.intp)
    fx = xs - xi
    fy = ys - yi
    xi1 = np.minimum(xi + 1, tile.width - 1)
    yi1 = np.minimum(yi + 1, tile.height - 1)

    fx2 = fx[np.newaxis, :]
    fy2 = fy[:, np.newaxis]
    w00 = (1.0 - fx2) * (1.0 - fy2)
    w01 = fx2 * (1.0 - fy2)
    w10 = (1.0 - fx2) * fy2
    w11 = fx2 * fy2

    valid = tile.valid_mask().bits
    need_x = fx2 > 0
    need_y = fy2 > 0
    out_valid = (
        valid[np.ix_(yi, xi)]
        & (~need_x | valid[np.ix_(yi, xi1)])
        & (~need_y | valid[np.ix_(yi1, xi)])
        & (~(need_x & need_y) | valid[np.ix_(yi1, xi1)])
    )
    fill = np.float32(tile.nodata_value if tile.nodata_value is not None else np.nan)

    out = []
    for band in tile.bands:
        s = band.samples.astype(np.float64)
        resampled = (
            w00 * s[np.ix_(yi, xi)]
            + w01 * s[np.ix_(yi, xi1)]
            + w10 * s[np.ix_(yi1, xi)]
            + w11 * s[np.ix_(yi1, xi1)]
        ).astype(np.float32)
        out.append(np.where(out_valid, resampled, fill))
    bands = tuple(
        Band(name=b.name, samples=s, wavelength_nm=b.wavelength_nm)
        for b, s in zip(tile.bands, out)
    )
    scaled_tile = Raster(bands=bands, nodata_value=tile.nodata_value, origin=tile.origin)
    return scaled_tile, ann.scaled(factor)


def apply_spec(
    tile: Raster, ann: AnnotationSet, spec: AugmentSpec, tile_id: int
) -> tuple[Raster, AnnotationSet]:
    """Run the spec's operations in order, one seeded stream per slot."""
    for index, op in enumerate(spec.operations):
        rng = op_rng(spec.seed, tile_id, index)
        if isinstance(op, CropOp):
            tile, ann = random_crop(tile, ann, op.size, rng)
        elif isinstance(op, GaussianNoiseOp):
            tile = gaussian_noise(tile, op.sigma, rng)
        elif isinstance(op, GammaOp):
            tile = gamma_adjust(tile, float(rng.uniform(op.lo, op.hi)))
        elif isinstance(op, FlipHOp):
            tile, ann = flip_h(tile, ann)
        elif isinstance(op, FlipVOp):
            tile, ann = flip_v(tile, ann)
        elif isinstance(op, ScaleOp):
            tile, ann = scale(tile, ann, float(rng.uniform(op.lo, op.hi)))
    return tile, ann
