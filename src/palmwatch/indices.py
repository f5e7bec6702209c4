"""Vegetation indices, vegetation masking and per-class index statistics.

Built-in indices are the two normalized differences

    ndvi  = (nir - red)   / (nir + red)
    gndvi = (nir - green) / (nir + green)

computed per pixel in the samples' dtype (float32 for raster bands). A
pixel is invalid exactly where the input mask is false or the
denominator is zero; zero denominators are never reported as 0.0
because that would masquerade as a meaningful "equal reflectance"
reading.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .annotations import CLASS_LABELS, AnnotationSet
from .errors import BandLookupError, ParameterError, ShapeError
from .raster_core import Band, Mask, MaskedGrid, Raster

DEFAULT_VEGETATION_THRESHOLD = 0.2


def normalized_difference(
    a: np.ndarray, b: np.ndarray, ok: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(a - b) / (a + b) in the inputs' dtype, and where that ratio is valid.

    A ratio is invalid where ``ok`` is false or a + b == 0; invalid
    entries hold NaN. No arithmetic touches a pixel outside ``ok``, so
    the NaN, infinities or nodata such pixels hold raise no warning.
    """
    if a.shape != b.shape or a.shape != ok.shape:
        raise ShapeError(f"band/mask shapes disagree: {a.shape} vs {b.shape} vs mask {ok.shape}")
    den = np.add(a, b, out=np.zeros_like(a), where=ok)
    valid = ok & (den != 0)
    values = np.full(a.shape, np.nan, dtype=a.dtype)
    np.subtract(a, b, out=values, where=valid)
    np.divide(values, den, out=values, where=valid)
    return values, valid


def ndvi(nir: Band, red: Band, mask: Mask) -> MaskedGrid:
    """Normalized difference of NIR against red reflectance."""
    return MaskedGrid(*normalized_difference(nir.samples, red.samples, mask.bits), name="ndvi")


def gndvi(nir: Band, green: Band, mask: Mask) -> MaskedGrid:
    """Normalized difference of NIR against green reflectance."""
    return MaskedGrid(*normalized_difference(nir.samples, green.samples, mask.bits), name="gndvi")


# name -> (required bands, builder). Extensible: register new entries to make
# an index available to featurize() and the CLI by name.
INDEX_REGISTRY = {
    "ndvi": (("nir", "red"), lambda r, m: ndvi(r.band("nir"), r.band("red"), m)),
    "gndvi": (("nir", "green"), lambda r, m: gndvi(r.band("nir"), r.band("green"), m)),
}


def compute_index(raster: Raster, mask: Mask, name: str) -> MaskedGrid:
    """Compute a registered index over a raster."""
    try:
        _, builder = INDEX_REGISTRY[name]
    except KeyError:
        raise BandLookupError(
            f"unknown index {name!r}; registered: {sorted(INDEX_REGISTRY)}"
        ) from None
    return builder(raster, mask)


def vegetation_mask(index: MaskedGrid, threshold: float) -> Mask:
    """Pixels strictly above ``threshold`` with a valid index value.

    The boundary is exclusive: a value exactly equal to the threshold is
    not vegetation.
    """
    if not -1.0 <= threshold <= 1.0:
        raise ParameterError(f"vegetation threshold must be in [-1, 1], got {threshold}")
    return Mask(index.valid & (index.values > threshold))


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
    out = []
    for label in CLASS_LABELS:
        crowns = annotations.of_class(label)
        if not crowns:
            continue
        member = np.zeros((index.height, index.width), dtype=bool)
        for crown in crowns:
            ys, xs = annotations.crown_pixels(crown, index.width, index.height)
            member[ys, xs] = True
        vals = index.values[member & index.valid].astype(np.float64)
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
