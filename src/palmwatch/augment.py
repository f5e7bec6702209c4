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
from dataclasses import asdict, dataclass, replace
from typing import ClassVar, get_args

import numpy as np

from .annotations import AnnotationSet, disc_pixels
from .errors import DomainError, FormatError, ParameterError
from .jsondoc import from_fields, parse_document, read_document, take
from .raster_core import Band, Raster

CROP_KEEP_FRACTION = 0.5
# Largest scale factor a spec may ask for: output tiles grow with its
# square, so an unbounded factor is an unbounded allocation.
MAX_SCALE_FACTOR = 4.0


# Each op's ``tag`` is its "op" value in a spec's JSON.
@dataclass(frozen=True)
class CropOp:
    size: int
    tag: ClassVar[str] = "crop"


@dataclass(frozen=True)
class GaussianNoiseOp:
    sigma: float
    tag: ClassVar[str] = "gaussian_noise"


@dataclass(frozen=True)
class GammaOp:
    lo: float
    hi: float
    tag: ClassVar[str] = "gamma"


@dataclass(frozen=True)
class FlipHOp:
    tag: ClassVar[str] = "flip_h"


@dataclass(frozen=True)
class FlipVOp:
    tag: ClassVar[str] = "flip_v"


@dataclass(frozen=True)
class ScaleOp:
    lo: float
    hi: float
    tag: ClassVar[str] = "scale"


AugmentOp = CropOp | GaussianNoiseOp | GammaOp | FlipHOp | FlipVOp | ScaleOp
_OPS_BY_TAG = {op.tag: op for op in get_args(AugmentOp)}


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
            if isinstance(op, ScaleOp) and not (0 < op.lo <= op.hi <= MAX_SCALE_FACTOR):
                raise ParameterError(
                    f"scale factors must satisfy 0 < lo <= hi <= {MAX_SCALE_FACTOR}, got ({op.lo}, {op.hi})"
                )
        object.__setattr__(self, "operations", tuple(self.operations))


def spec_to_json(spec: AugmentSpec) -> str:
    ops = [{"op": op.tag, **asdict(op)} for op in spec.operations]
    return json.dumps({"seed": spec.seed, "operations": ops}, indent=2) + "\n"


def _spec_from(doc: dict, where: str) -> AugmentSpec:
    ops = []
    for i, entry in enumerate(take(doc, "operations", tuple[dict, ...], where, default=())):
        at = f"{where} operations[{i}]"
        tag = take(entry, "op", str, at)
        if tag not in _OPS_BY_TAG:
            raise FormatError(f"{at}: unknown op {tag!r}; expected one of {sorted(_OPS_BY_TAG)}")
        params = {k: v for k, v in entry.items() if k != "op"}
        ops.append(from_fields(_OPS_BY_TAG[tag], params, f"{at} ({tag})"))
    return AugmentSpec(operations=tuple(ops), seed=take(doc, "seed", int, where, default=0))


def spec_from_json(text: str) -> AugmentSpec:
    return _spec_from(parse_document(text, "augment spec"), "augment spec")


def load_spec(path) -> AugmentSpec:
    return _spec_from(read_document(path, "augment spec"), f"augment spec {path}")


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
