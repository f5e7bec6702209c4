"""Vegetation indices, vegetation masking and per-class index statistics.

Built-in indices are the two normalized differences

    ndvi  = (nir - red)   / (nir + red)
    gndvi = (nir - green) / (nir + green)

computed per pixel in the samples' dtype (float32 for raster bands). A
pixel is invalid exactly where the input mask is false, an operand is
NaN or infinite, or the denominator is zero; zero denominators are
never reported as 0.0 because that would masquerade as a meaningful
"equal reflectance" reading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .annotations import CLASS_LABELS, AnnotationSet, rasterize_labels
from .errors import BandLookupError, ParameterError, ShapeError
from .raster_core import Band, Mask, MaskedGrid, Raster, map_row_blocks

DEFAULT_VEGETATION_THRESHOLD = 0.2


def normalized_difference(a: np.ndarray, b: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """(a - b) / (a + b) in the inputs' dtype, finite exactly where it is valid.

    A ratio is invalid where ``ok`` is false, where a or b is NaN or
    infinite, or where a + b == 0; invalid entries hold NaN. Where
    a + b or a - b would leave the dtype's range, the ratio comes from
    the halved operands instead. No input raises a warning, and no
    arithmetic touches a pixel outside ``ok``.
    The work is split into blocks of whole rows (along the first axis)
    that the pool's threads share (``map_row_blocks``); every pixel's
    arithmetic is the same for any number of threads.
    The ratio comes back read-only, so a MaskedGrid takes it without a
    copy.
    """
    if a.shape != b.shape or a.shape != ok.shape:
        raise ShapeError(f"band/mask shapes disagree: {a.shape} vs {b.shape} vs mask {ok.shape}")
    values = np.empty(a.shape, dtype=a.dtype)
    # every input seen as rows, as views for 1-D and 2-D inputs
    n_rows, width = (a.shape[0] if a.ndim else 1), math.prod(a.shape[1:])
    a2, b2, ok2, values2 = (x.reshape(n_rows, width) for x in (a, b, ok, values))

    def block(rows, buffers):
        a, b, ok, out = a2[rows], b2[rows], ok2[rows], values2[rows]
        den, good = (x[: len(out)] for x in buffers)
        den.fill(0)
        overflow = []
        # numpy's error state is per thread, so each block sets its own
        with np.errstate(over="call", invalid="ignore", call=lambda *_: overflow.append(True)):
            np.add(a, b, out=den, where=ok)
            # a NaN or infinite operand leaves the sum non-finite (inf + -inf
            # is NaN, silently); so does an overflow, which is mended below
            np.isfinite(den, out=good)
            good &= den != 0
            out.fill(np.nan)
            np.subtract(a, b, out=out, where=good)
        if overflow:
            # where a + b or a - b left the dtype's range, both operands are
            # far above the subnormals, so halving them is exact and keeps
            # the ratio
            over = np.nonzero((np.isinf(den) | np.isinf(out)) & np.isfinite(a) & np.isfinite(b))
            half_a, half_b = a[over] / 2, b[over] / 2
            den[over] = half_a + half_b
            out[over] = half_a - half_b
            good[over] = True
        np.divide(out, den, out=out, where=good)

    def scratch(rows):
        # the block's a + b, and where its ratio is valid
        return np.empty((rows, width), a.dtype), np.empty((rows, width), bool)

    map_row_blocks(n_rows, width, block, scratch=scratch)
    values.setflags(write=False)
    return values


def ndvi(nir: Band, red: Band, mask: Mask) -> MaskedGrid:
    """Normalized difference of NIR against red reflectance, invalid
    outside ``mask``, at a NaN or infinite sample and at a zero sum."""
    return MaskedGrid(normalized_difference(nir.samples, red.samples, mask.bits), name="ndvi")


def gndvi(nir: Band, green: Band, mask: Mask) -> MaskedGrid:
    """Normalized difference of NIR against green reflectance, invalid
    outside ``mask``, at a NaN or infinite sample and at a zero sum."""
    return MaskedGrid(normalized_difference(nir.samples, green.samples, mask.bits), name="gndvi")


# index name -> the (a, b) band pair of its normalized difference (a - b) / (a + b)
INDEX_REGISTRY = {"ndvi": ("nir", "red"), "gndvi": ("nir", "green")}


def compute_index(raster: Raster, mask: Mask, name: str) -> MaskedGrid:
    """The registered index ``name`` over ``mask``: the normalized
    difference of its band pair, in float32; invalid outside ``mask``, at
    a NaN or infinite sample of the pair and where the pair sums to zero.

    Raises BandLookupError for an unknown index or a missing band.
    """
    try:
        a, b = INDEX_REGISTRY[name]
    except KeyError:
        raise BandLookupError(
            f"unknown index {name!r}; registered: {sorted(INDEX_REGISTRY)}"
        ) from None
    values = normalized_difference(raster.band(a).samples, raster.band(b).samples, mask.bits)
    return MaskedGrid(values, name=name)


def check_vegetation_threshold(threshold: float) -> None:
    """Raise ParameterError unless ``-1 <= threshold <= 1``."""
    if not -1.0 <= threshold <= 1.0:
        raise ParameterError(f"vegetation threshold must be in [-1, 1], got {threshold}")


def vegetation_mask(index: MaskedGrid, threshold: float) -> Mask:
    """Pixels strictly above ``threshold`` with a valid index value.

    The boundary is exclusive: a value exactly equal to the threshold is
    not vegetation.
    """
    check_vegetation_threshold(threshold)
    bits = index.above(threshold)
    bits.setflags(write=False)
    return Mask(bits)


@dataclass(frozen=True)
class ClassIndexStats:
    """Distribution summary of index values over one class's crown pixels.

    All statistics are None when the class has no valid pixels
    (count == 0). std_dev is the population standard deviation.
    """

    class_label: str
    index_name: str
    count: int
    mean: float | None = None
    std_dev: float | None = None
    min: float | None = None
    max: float | None = None
    q1: float | None = None
    median: float | None = None
    q3: float | None = None


def index_stats_by_class(index: MaskedGrid, annotations: AnnotationSet) -> list[ClassIndexStats]:
    """Summarize index values over the union of each class's crown pixels.

    One record per class present in ``annotations``, in canonical class
    order. Invalid index pixels are excluded. Raises BoundsError when an
    annotation's disc leaves the index grid.
    """
    annotations.check_within(index.width, index.height)
    valid = index.valid
    out = []
    for label in CLASS_LABELS:
        crowns = annotations.of_class(label)
        if not crowns:
            continue
        member = rasterize_labels(AnnotationSet(crowns), index.width, index.height)
        vals = index.values[member & valid].astype(np.float64)
        if vals.size == 0:
            out.append(ClassIndexStats(label, index.name, count=0))
            continue
        q1, median, q3 = np.percentile(vals, [25.0, 50.0, 75.0])
        out.append(
            ClassIndexStats(
                class_label=label,
                index_name=index.name,
                count=int(vals.size),
                mean=float(vals.mean()),
                std_dev=float(vals.std(ddof=0)),
                min=float(vals.min()),
                max=float(vals.max()),
                q1=float(q1),
                median=float(median),
                q3=float(q3),
            )
        )
    return out
