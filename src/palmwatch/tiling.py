"""Fixed-size tile planning, extraction and stitching for large scenes.

Windows are laid out row-major with stride = tile_size - overlap. The
final row/column is padded with nodata rather than shifted inward, so
every tile handed to the pixel model has identical geometry. Stitching
discards padding and averages overlapping contributions, which makes the
result independent of tile evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundsError, CompletenessError, ParameterError, ShapeError
from .raster_core import Band, MaskedGrid, Raster

DEFAULT_TILE_SIZE = 1024
DEFAULT_PREDICT_OVERLAP = 128


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
    tile_size: int
    overlap: int
    scene_width: int
    scene_height: int
    n_cols: int
    n_rows: int
    windows: tuple[TileWindow, ...]

    @property
    def stride(self) -> int:
        return self.tile_size - self.overlap

    def window_at(self, row: int, col: int) -> TileWindow:
        return self.windows[row * self.n_cols + col]


def _starts(extent: int, tile_size: int, stride: int) -> list[int]:
    starts = [0]
    while starts[-1] + tile_size < extent:
        starts.append(starts[-1] + stride)
    return starts


def tile_plan(scene_w: int, scene_h: int, tile_size: int = DEFAULT_TILE_SIZE, overlap: int = 0) -> TilePlan:
    """Plan row-major windows covering a scene exactly.

    Requires 0 <= overlap < tile_size. Deterministic: equal inputs always
    produce an identical plan.
    """
    if tile_size < 1:
        raise ParameterError(f"tile_size must be >= 1, got {tile_size}")
    if not 0 <= overlap < tile_size:
        raise ParameterError(
            f"overlap must satisfy 0 <= overlap < tile_size ({tile_size}), got {overlap}"
        )
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
        tile_size=tile_size,
        overlap=overlap,
        scene_width=scene_w,
        scene_height=scene_h,
        n_cols=len(xs),
        n_rows=len(ys),
        windows=tuple(windows),
    )


def extract_tile(raster: Raster, window: TileWindow) -> Raster:
    """Cut one window out of a scene as a tile_size x tile_size raster.

    The padded strip (right/bottom only) is filled with the raster's
    nodata value, or NaN when no nodata is declared; either way those
    pixels come out invalid. The tile's origin records (x, y).
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
    fill = np.float32(raster.nodata_value if raster.nodata_value is not None else np.nan)
    bands = []
    for band in raster.bands:
        tile = np.full((window.tile_height, window.tile_width), fill, dtype=np.float32)
        tile[: window.height, : window.width] = band.samples[
            window.y : window.y + window.height, window.x : window.x + window.width
        ]
        bands.append(Band(name=band.name, samples=tile, wavelength_nm=band.wavelength_nm))
    return Raster(
        bands=tuple(bands),
        nodata_value=raster.nodata_value,
        origin=(raster.origin[0] + window.x, raster.origin[1] + window.y),
    )


def stitch(plan: TilePlan, outputs: list[tuple[TileWindow, MaskedGrid]]) -> MaskedGrid:
    """Reassemble per-tile maps into one scene-sized map.

    Padding is discarded; where unpadded windows overlap, the result is
    the arithmetic mean of the valid contributors (accumulated in
    float64). A pixel with no valid contributor stays invalid. Every
    window of the plan must appear exactly once.
    """
    seen = {}
    for window, pmap in outputs:
        key = (window.x, window.y)
        if key in seen:
            raise CompletenessError(f"window at {key} supplied more than once")
        seen[key] = (window, pmap)
    missing = [
        (w.x, w.y) for w in plan.windows if (w.x, w.y) not in seen
    ]
    if missing:
        raise CompletenessError(f"missing stitch outputs for windows at {missing}")
    extras = set(seen) - {(w.x, w.y) for w in plan.windows}
    if extras:
        raise CompletenessError(f"outputs include windows not in the plan: {sorted(extras)}")

    total = np.zeros((plan.scene_height, plan.scene_width), dtype=np.float64)
    count = np.zeros((plan.scene_height, plan.scene_width), dtype=np.int32)
    for window, pmap in seen.values():
        if (pmap.height, pmap.width) != (window.tile_height, window.tile_width):
            raise ShapeError(
                f"tile map for window at ({window.x}, {window.y}) is "
                f"{pmap.width}x{pmap.height}, expected "
                f"{window.tile_width}x{window.tile_height}"
            )
        vals = pmap.values[: window.height, : window.width]
        ok = pmap.valid[: window.height, : window.width]
        region = (
            slice(window.y, window.y + window.height),
            slice(window.x, window.x + window.width),
        )
        total[region] += np.where(ok, vals.astype(np.float64), 0.0)
        count[region] += ok
    valid = count > 0
    values = np.full(total.shape, np.nan, dtype=np.float32)
    values[valid] = (total[valid] / count[valid]).astype(np.float32)
    return MaskedGrid(values=values, valid=valid)
