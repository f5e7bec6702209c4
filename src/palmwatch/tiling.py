"""Fixed-size tile planning, extraction and stitching for large scenes.

Windows are laid out row-major with stride = tile_size - overlap. A
window is the scene pixels it covers: the last row/column of windows is
cut at the scene's edge rather than moved inward, and its ``region`` is
the one rule for cutting a window out of a scene-sized grid, so a tile
cut from a scene is a view of it, with no copy. Only the tiles that
``palmwatch tile`` writes are padded: ``pad_tile`` fills an edge tile
out to the full tile size with nodata.
Stitching takes one window-sized map per window in plan order, from any
iterable, and averages overlapping valid (finite) contributions; an
invalid result pixel holds ``np.nan`` whatever the maps held. It writes
each map as it arrives and keeps none, so a caller that makes the maps
lazily holds at most one of them. At overlap 0 each pixel has one
contributor, and each map is copied straight into its region.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from .errors import BoundsError, CompletenessError, ParameterError, ShapeError
from .raster_core import MAX_SCENE_PIXELS, MaskedGrid, Raster

DEFAULT_TILE_SIZE = 1024


@dataclass(frozen=True)
class TileWindow:
    """One planned window: the scene pixels it covers."""

    x: int
    y: int
    width: int
    height: int

    @property
    def region(self) -> tuple[slice, slice]:
        """The (rows, cols) slices of the window in a scene-sized grid."""
        return slice(self.y, self.y + self.height), slice(self.x, self.x + self.width)


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
    windows = [
        TileWindow(x=x, y=y, width=min(tile_size, scene_w - x), height=min(tile_size, scene_h - y))
        for y in ys
        for x in xs
    ]
    return TilePlan(
        overlap=overlap,
        scene_width=scene_w,
        scene_height=scene_h,
        n_cols=len(xs),
        n_rows=len(ys),
        windows=tuple(windows),
    )


def extract_tile(raster: Raster, window: TileWindow) -> Raster:
    """Cut one window out of a scene: the tile's bands are views of the
    scene's over the window's region, and its origin records (x, y)."""
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
        bands=tuple(replace(b, samples=b.samples[window.region]) for b in raster.bands),
        nodata_value=raster.nodata_value,
        origin=(raster.origin[0] + window.x, raster.origin[1] + window.y),
    )


def pad_tile(tile: Raster, tile_size: int) -> Raster:
    """``tile`` filled out to tile_size x tile_size: the strips right of
    and below its pixels hold its ``fill_value``, so they come out
    invalid. A tile of that size already is returned as it is."""
    if (tile.width, tile.height) == (tile_size, tile_size):
        return tile
    bands = []
    for b in tile.bands:
        samples = np.full((tile_size, tile_size), tile.fill_value, dtype=np.float32)
        samples[: tile.height, : tile.width] = b.samples
        samples.setflags(write=False)
        bands.append(replace(b, samples=samples))
    return replace(tile, bands=tuple(bands))


def stitch(plan: TilePlan, maps: Iterable[MaskedGrid]) -> MaskedGrid:
    """Reassemble per-tile maps into one scene-sized map.

    ``maps`` is any iterable of one map per window of the plan, in plan
    order, such as a generator that predicts each tile as it is asked
    for. Each map is written into the result as it arrives, and no
    reference to it is kept, so at most one map is held at a time.
    Where windows overlap, the result is the arithmetic mean of the valid
    (finite) contributors, accumulated in float64. A pixel with no valid
    contributor holds ``np.nan``. Raises CompletenessError naming both
    counts when ``maps`` holds fewer or more maps than the plan has
    windows (a surplus is counted to its end), and ShapeError for a map
    that is not its window's size.

    At overlap 0 a pixel has at most one contributor, whose mean is its
    own value, so each map is written straight into its region of the
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
        if (pmap.height, pmap.width) != (window.height, window.width):
            raise ShapeError(
                f"tile map for window at ({window.x}, {window.y}) is "
                f"{pmap.width}x{pmap.height}, expected {window.width}x{window.height}"
            )
        region = window.region
        ok = np.isfinite(pmap.values)
        if plan.overlap == 0:
            # an invalid pixel may hold ±inf or any NaN, a signalling one too
            with np.errstate(invalid="ignore"):
                np.add(pmap.values, np.float32(0.0), out=values[region])
            values[region][~ok] = np.nan
        else:
            np.add(total[region], pmap.values, out=total[region], where=ok)
            count[region] += ok
        # the next map is made while this loop waits for it; this one is done
        del pmap, ok
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
