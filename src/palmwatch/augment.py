"""Deterministic, seed-driven tile augmentation.

Each operation in an AugmentSpec gets its own counter-based random
stream, ``raster_core.stream(seed, tile id, operation index)``, so neither
the order augmentations run in nor any parallelism over tiles can change
outputs.

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
from .jsondoc import from_fields, read_document, take
from .raster_core import MAX_SAMPLE_PARAM, Band, Raster, map_row_blocks, stream, stream_rows

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
        if not 0 <= self.seed < 2**128:
            raise ParameterError(f"augment seed must be in [0, 2**128), got {self.seed}")
        for op in self.operations:
            if isinstance(op, CropOp) and op.size < 1:
                raise ParameterError(f"crop size must be >= 1, got {op.size}")
            if isinstance(op, GaussianNoiseOp) and not 0 <= op.sigma < MAX_SAMPLE_PARAM:
                raise ParameterError(f"noise sigma must be in [0, {MAX_SAMPLE_PARAM:g}), got {op.sigma}")
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


def load_spec(path) -> AugmentSpec:
    doc = read_document(path, "augment spec")
    where = f"augment spec {path}"
    ops = []
    for i, entry in enumerate(take(doc, "operations", tuple[dict, ...], where, default=())):
        at = f"{where} operations[{i}]"
        tag = take(entry, "op", str, at)
        if tag not in _OPS_BY_TAG:
            raise FormatError(f"{at}: unknown op {tag!r}; expected one of {sorted(_OPS_BY_TAG)}")
        params = {k: v for k, v in entry.items() if k != "op"}
        ops.append(from_fields(_OPS_BY_TAG[tag], params, f"{at} ({tag})"))
    return AugmentSpec(operations=tuple(ops), seed=take(doc, "seed", int, where, default=0))


def _check_stays_valid(values, valid, nodata_bits, band_name: str, op: str) -> None:
    """Raise DomainError if a valid float32 output sample is bitwise the
    nodata value, which the output tile would silently read as nodata."""
    if nodata_bits is not None and ((values.view(np.uint32) == nodata_bits) & valid).any():
        raise DomainError(f"{op} turns a valid sample of band {band_name!r} into the nodata value")


def _rebuild(tile: Raster, new_samples: list[np.ndarray]) -> Raster:
    for s in new_samples:
        s.setflags(write=False)  # so Band keeps the array the op built, not a copy
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

    Crowns keep their disc parameters, translated into crop coordinates;
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


def _map_valid(tile: Raster, op: str, fn, *, block_rows: int | None = None) -> Raster:
    """Map every band through ``fn``, one row block at a time.

    One ``map_row_blocks`` call runs over the tile's rows on every CPU,
    with every band inside each block. A block computes its rows'
    validity (the rule of ``Raster.valid_mask``), then for each band i in
    order ``fn(i, rows, samples, block, valid)`` writes the mapped values
    of the band's float32 ``samples`` in those rows into the worker's
    float64 ``block``, which are cast into the float32 output rows. Invalid
    samples keep their bits. Raises DomainError, naming ``op``, if a
    result exceeds the float32 range or a valid sample would become the
    nodata value; the first faulty block decides which, so the error and
    the output bits do not depend on the number of CPUs.
    """
    out = [np.empty(band.samples.shape, np.float32) for band in tile.bands]

    def map_block(rows, buffer):
        block = buffer[: rows.stop - rows.start]
        valid = tile.valid_rows(rows)
        for i, (band, values) in enumerate(zip(tile.bands, out)):
            samples = band.samples[rows]
            try:
                with np.errstate(over="raise"):
                    fn(i, rows, samples, block, valid)
                    values[rows] = block
            except FloatingPointError:
                raise DomainError(f"{op} takes band {band.name!r} beyond the float32 range") from None
            _check_stays_valid(values[rows], valid, tile.nodata_bits, band.name, op)
            np.copyto(values[rows], samples, where=~valid)

    map_row_blocks(
        tile.height, tile.width, map_block,
        scratch=lambda rows: np.empty((rows, tile.width)), block_rows=block_rows,
    )
    return _rebuild(tile, out)


def gaussian_noise(tile: Raster, sigma: float, rng: np.random.Generator) -> Raster:
    """Add i.i.d. zero-mean normal noise, clamped at zero reflectance.

    Nodata pixels are left bit-identical; sigma 0 is the identity. One
    uint64 drawn from ``rng`` is the entropy of the noise: row band j
    (``raster_core.stream_rows``) of band i adds sigma times float64
    standard normals from ``stream(entropy, i, j)``. The row bands run on
    every CPU, and the result does not depend on how many there are.
    Raises DomainError if a valid sample would become the nodata value.
    """
    if not 0 <= sigma < MAX_SAMPLE_PARAM:
        raise ParameterError(f"noise sigma must be in [0, {MAX_SAMPLE_PARAM:g}), got {sigma}")
    if sigma == 0:
        return tile
    entropy = int(rng.integers(2**64, dtype=np.uint64))
    band_rows = stream_rows(tile.width)

    def add_noise(i, rows, samples, block, valid):
        stream(entropy, i, rows.start // band_rows).standard_normal(out=block)
        block *= sigma
        block += samples  # float32 samples promote exactly
        np.maximum(block, 0.0, out=block)

    return _map_valid(tile, "gaussian noise", add_noise, block_rows=band_rows)


def gamma_adjust(tile: Raster, exponent: float) -> Raster:
    """Raise every valid sample to ``exponent``; expects a [0, 1] domain.

    Raises DomainError if a valid sample is negative, if a result
    exceeds the float32 range (a sample above 1 raised to a large
    exponent), or if a result is the nodata value; the first faulty row
    block decides which (see ``_map_valid``; the row blocks run on every
    CPU). Nodata pixels are untouched. Monotone, so pixel value ordering
    is preserved.
    """
    if not exponent > 0:
        raise ParameterError(f"gamma exponent must be > 0, got {exponent}")

    def raise_to(i, rows, samples, block, valid):
        if ((samples < 0) & valid).any():
            raise DomainError(f"band {tile.bands[i].name!r} has negative samples; gamma expects [0, 1] reflectance")
        block[...] = samples  # float32 samples promote exactly
        np.power(block, exponent, out=block, where=valid)

    return _map_valid(tile, f"gamma {exponent}", raise_to)


def _axis(n_out: int, n_in: int, factor: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per output index along one axis: the source index below, the one
    above, and the fraction. When the position falls on a source index,
    the fraction is 0 and above is below, so a zero-weight corner is
    always the same pixel as one of nonzero weight."""
    pos = np.clip(np.arange(n_out, dtype=np.float64) / factor, 0.0, n_in - 1)
    below = np.floor(pos).astype(np.intp)
    return below, below + (pos > below), pos - below


def scale(
    tile: Raster, ann: AnnotationSet, factor: float
) -> tuple[Raster, AnnotationSet]:
    """Bilinear resample to floor(factor * dim); annotations scale by factor.

    Each output pixel is the weighted sum of its four corners, the source
    pixels below and above its position on each axis (see ``_axis``), and
    is nodata when any corner is invalid. Factor 1 is an exact identity.
    Works through the output's row blocks on every CPU
    (``map_row_blocks``), each computing the validity of the source rows
    it reads, so beyond the output each worker holds only block-sized
    buffers, and the bits do not depend on the number of CPUs.
    Raises DomainError if a valid output sample would be the nodata
    value; the first faulty row block decides which band it names.
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

    y0, y1, fy = _axis(out_h, tile.height, factor)
    x0, x1, fx = _axis(out_w, tile.width, factor)

    out = [np.empty((out_h, out_w), np.float32) for _ in tile.bands]
    # each axis's corner weights, below then above
    wys, wxs = (1.0 - fy, fy), (1.0 - fx, fx)

    def scale_block(rows, buffers):
        total, product = buffers[:, : rows.stop - rows.start]
        # y0 and y1 never decrease, so the block reads source rows lo:hi only
        lo, hi = y0[rows.start], y1[rows.stop - 1] + 1
        # per corner, in the order below-left, below-right, above-left,
        # above-right: its rows within lo:hi and its column (x0 or x1)
        picks = [(ys[rows] - lo, col) for ys in (y0, y1) for col in (0, 1)]
        # each corner's weight wy * wx, in the same order; only the first two
        # are kept as planes, and each band forms the others in product (IEEE
        # products commute, so corner * weight has the same bits either way)
        weights = [(wy[rows, np.newaxis], wx) for wy in wys for wx in wxs]
        planes = [np.multiply(*weight) for weight in weights[:2]]

        def corners(plane):
            """The block's four corner grids of one plane's rows lo:hi, gathered column-first."""
            cols = (np.take(plane, x0, axis=1), np.take(plane, x1, axis=1))
            return (cols[col][ys] for ys, col in picks)

        block_valid = np.logical_and.reduce(list(corners(tile.valid_rows(slice(lo, hi)))))
        for band, values in zip(tile.bands, out):
            samples = corners(band.samples[lo:hi])
            # float32 samples promote exactly; summing from 0.0 would turn -0.0 into +0.0
            total[...] = next(samples)
            total *= planes[0]
            # an inf corner can meet a zero weight or a -inf corner, which warns;
            # such an output has an invalid corner and is filled below
            with np.errstate(invalid="ignore"):
                for k, corner in enumerate(samples, start=1):
                    if k < len(planes):
                        product[...] = corner
                        product *= planes[k]
                    else:
                        np.multiply(*weights[k], out=product)
                        product *= corner
                    total += product
            values[rows] = total
            _check_stays_valid(values[rows], block_valid, tile.nodata_bits, band.name, f"scale {factor}")
            np.copyto(values[rows], tile.fill_value, where=~block_valid)

    # a worker's two buffers are shared by its blocks and bands: fresh ones fragment the heap and raise peak RSS
    map_row_blocks(out_h, out_w, scale_block, scratch=lambda rows: np.empty((2, rows, out_w)))
    return _rebuild(tile, out), ann.scaled(factor)


def apply_spec(
    tile: Raster, ann: AnnotationSet, spec: AugmentSpec, tile_id: int
) -> tuple[Raster, AnnotationSet]:
    """Run the spec's operations in order, one seeded stream per slot."""
    for index, op in enumerate(spec.operations):
        rng = stream(spec.seed, tile_id, index)
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
