"""Fixed-size tile planning, extraction and stitching for large scenes.

Windows are laid out row-major with stride = tile_size - overlap. The
final row/column is padded with nodata rather than moved inward, so
every tile a plan cuts has identical geometry; a window that needs no
padding is cut as a view of the scene, with no copy. A caller may clear
a window's padding to cut only its scene pixels.
Stitching takes one map per window in plan order, from any iterable,
discards padding and averages overlapping valid (finite) contributions;
an invalid result pixel holds ``np.nan`` whatever the maps held. It
writes each map as it arrives and keeps none, so a caller that makes the
maps lazily holds at most one of them. At overlap 0 each pixel has one
contributor, and each window's region is copied straight into the scene.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import BoundsError, CompletenessError, ParameterError, ShapeError
from .raster_core import MAX_SCENE_PIXELS, Band, MaskedGrid, Raster

DEFAULT_TILE_SIZE = 1024


@dataclass(frozen=True)
class TileWindow:
    """One planned window: scene position, unpadded extent, and padding."""

    x: int
    y: int
    width: int
    height: int
    padded_right: int = 0
    padded_bottom: int = 0

    @property
    def tile_width(self) -> int:
        return self.width + self.padded_right

    @property
    def tile_height(self) -> int:
        return self.height + self.padded_bottom


@dataclass(frozen=True)
class TilePlan:
    overlap: int
    scene_width: int
    scene_height: int
    n_cols: int
    n_rows: int
    windows: tuple[TileWindow, ...]


def _starts(extent: int, tile_size: int, stride: int) -> list[int]:
    starts = [0]
    while starts[-1] + tile_size < extent:
        starts.append(starts[-1] + stride)
    return starts


def check_tiling(tile_size: int, overlap: int) -> None:
    """Raise ParameterError unless ``tile_size >= 1``, a tile holds at most
    MAX_SCENE_PIXELS pixels and ``0 <= overlap < tile_size``."""
    if tile_size < 1:
        raise ParameterError(f"tile_size must be >= 1, got {tile_size}")
    if tile_size**2 > MAX_SCENE_PIXELS:
        raise ParameterError(f"a {tile_size}x{tile_size} tile exceeds {MAX_SCENE_PIXELS} pixels")
    if not 0 <= overlap < tile_size:
        raise ParameterError(
            f"overlap must satisfy 0 <= overlap < tile_size ({tile_size}), got {overlap}"
        )


def tile_plan(scene_w: int, scene_h: int, tile_size: int = DEFAULT_TILE_SIZE, overlap: int = 0) -> TilePlan:
    """Plan row-major windows covering a scene exactly.

    Requires 0 <= overlap < tile_size. Deterministic: equal inputs always
    produce an identical plan.
    """
    check_tiling(tile_size, overlap)
    if scene_w < 1 or scene_h < 1:
        raise ParameterError(f"scene dimensions must be >= 1, got {scene_w}x{scene_h}")
    stride = tile_size - overlap
    xs = _starts(scene_w, tile_size, stride)
    ys = _starts(scene_h, tile_size, stride)
    windows = []
    for y in ys:
        height = min(tile_size, scene_h - y)
        for x in xs:
            width = min(tile_size, scene_w - x)
            windows.append(
                TileWindow(
                    x=x,
                    y=y,
                    width=width,
                    height=height,
                    padded_right=tile_size - width,
                    padded_bottom=tile_size - height,
                )
            )
    return TilePlan(
        overlap=overlap,
        scene_width=scene_w,
        scene_height=scene_h,
        n_cols=len(xs),
        n_rows=len(ys),
        windows=tuple(windows),
    )


def window_of(grid: np.ndarray, window: TileWindow, fill) -> np.ndarray:
    """The window's tile_height x tile_width cut of a scene-sized 2-D grid.

    An unpadded window is a view of ``grid``; a padded one is a new array
    whose right/bottom strip holds ``fill``.
    """
    region = grid[window.y : window.y + window.height, window.x : window.x + window.width]
    if not (window.padded_right or window.padded_bottom):
        return region
    tile = np.full((window.tile_height, window.tile_width), fill, dtype=grid.dtype)
    tile[: window.height, : window.width] = region
    tile.setflags(write=False)
    return tile


def extract_tile(raster: Raster, window: TileWindow) -> Raster:
    """Cut one window out of a scene as a tile_height x tile_width raster.

    The padded strip (right/bottom only) holds the raster's
    ``fill_value``, so those pixels come out invalid. An unpadded tile's
    bands are views of the scene's. The tile's origin records (x, y).
    """
    if (
        window.x < 0
        or window.y < 0
        or window.x + window.width > raster.width
        or window.y + window.height > raster.height
    ):
        raise BoundsError(
            f"window at ({window.x}, {window.y}) size "
            f"{window.width}x{window.height} leaves the "
            f"{raster.width}x{raster.height} scene"
        )
    return Raster(
        bands=tuple(
            Band(name=b.name, samples=window_of(b.samples, window, raster.fill_value), wavelength_nm=b.wavelength_nm)
            for b in raster.bands
        ),
        nodata_value=raster.nodata_value,
        origin=(raster.origin[0] + window.x, raster.origin[1] + window.y),
    )


def stitch(plan: TilePlan, maps: Iterable[MaskedGrid]) -> MaskedGrid:
    """Reassemble per-tile maps into one scene-sized map.

    ``maps`` is any iterable of one map per window of the plan, in plan
    order, such as a generator that predicts each tile as it is asked
    for. Each map is written into the result as it arrives, and no
    reference to it is kept, so at most one map is held at a time.
    Padding is discarded; where unpadded windows overlap, the result is
    the arithmetic mean of the valid (finite) contributors, accumulated
    in float64. A pixel with no valid contributor holds ``np.nan``. Raises
    CompletenessError naming both counts when ``maps`` holds fewer or
    more maps than the plan has windows (a surplus is counted to its
    end), and ShapeError for a map of the wrong size.

    At overlap 0 a pixel has at most one contributor, whose mean is its
    own value, so each window's region is written straight into the
    float32 result. Adding 0.0 there turns -0.0 into +0.0 as the float64
    sum from 0.0 does, so both paths give the same bits.
    """
    shape = (plan.scene_height, plan.scene_width)
    if plan.overlap == 0:
        # the windows tile the scene exactly, so every pixel is written once
        values = np.empty(shape, dtype=np.float32)
    else:
        total = np.zeros(shape, dtype=np.float64)
        count = np.zeros(shape, dtype=np.int32)
    maps = iter(maps)
    for n, window in enumerate(plan.windows):
        pmap = next(maps, None)
        if pmap is None:
            raise CompletenessError(f"stitch got {n} tile maps for {len(plan.windows)} windows")
        if (pmap.height, pmap.width) != (window.tile_height, window.tile_width):
            raise ShapeError(
                f"tile map for window at ({window.x}, {window.y}) is "
                f"{pmap.width}x{pmap.height}, expected "
                f"{window.tile_width}x{window.tile_height}"
            )
        region = (
            slice(window.y, window.y + window.height),
            slice(window.x, window.x + window.width),
        )
        crop = (slice(window.height), slice(window.width))
        vals = pmap.values[crop]
        ok = np.isfinite(vals)
        if plan.overlap == 0:
            # an invalid pixel may hold ±inf or any NaN, a signalling one too
            with np.errstate(invalid="ignore"):
                np.add(vals, np.float32(0.0), out=values[region])
            values[region][~ok] = np.nan
        else:
            np.add(total[region], vals, out=total[region], where=ok)
            count[region] += ok
        # the next map is made while this loop waits for it; this one is done
        del pmap, vals, ok
    surplus = sum(1 for _ in maps)
    if surplus:
        raise CompletenessError(
            f"stitch got {len(plan.windows) + surplus} tile maps for {len(plan.windows)} windows"
        )

    if plan.overlap:
        valid = count > 0
        np.divide(total, count, out=total, where=valid)
        values = total.astype(np.float32)
        values[~valid] = np.nan
    values.setflags(write=False)
    return MaskedGrid(values)
