"""Multiband raster model and the .rhdr/.rbin container format.

A raster is stored as two sibling files:

* ``<name>.rhdr`` -- JSON header with keys ``width``, ``height``,
  ``dtype`` (always ``"f32le"``), ``layout`` (always ``"band-sequential"``),
  ``nodata`` (number or null), ``origin`` ([x, y] pixel offset into a
  parent scene) and ``bands`` (ordered list of ``{"name", "wavelength_nm"}``).
* ``<name>.rbin`` -- bands back-to-back, each row-major, 32-bit IEEE-754
  little-endian. Its length must equal 4 * width * height * band_count.

Rasters are immutable after construction: sample arrays are copied in and
marked read-only, so any number of readers may share one safely. New pixel
values always mean a new Raster.

All bands of a raster share one pixel grid. Sources whose bands differ in
native resolution are expected to be resampled to a common grid before
ingestion; this library does no resampling of its own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import BandLookupError, FormatError, PayloadSizeError, ShapeError

HEADER_SUFFIX = ".rhdr"
PAYLOAD_SUFFIX = ".rbin"
_DTYPE_TAG = "f32le"
_LAYOUT_TAG = "band-sequential"


@dataclass(frozen=True)
class Band:
    """One spectral band: a named row-major float32 grid."""

    name: str
    samples: np.ndarray
    wavelength_nm: float | None = None

    def __post_init__(self):
        arr = np.array(self.samples, dtype=np.float32, order="C", copy=True)
        if arr.ndim != 2:
            raise ShapeError(f"band {self.name!r}: samples must be 2-D, got {arr.ndim}-D")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def height(self) -> int:
        return self.samples.shape[0]

    @property
    def width(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class Mask:
    """Per-pixel boolean qualifier for a raster (True = valid/selected)."""

    bits: np.ndarray

    def __post_init__(self):
        arr = np.array(self.bits, dtype=bool, order="C", copy=True)
        if arr.ndim != 2:
            raise ShapeError(f"mask must be 2-D, got {arr.ndim}-D")
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    def count(self) -> int:
        return int(self.bits.sum())


@dataclass(frozen=True)
class MaskedGrid:
    """One float32 value per pixel with an explicit validity mask.

    Vegetation indices and the palm-probability map are both masked
    grids; ``name`` is the band name the grid carries as a raster.
    """

    values: np.ndarray
    valid: np.ndarray
    name: str = "palm_probability"

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float32, order="C", copy=True)
        valid = np.array(self.valid, dtype=bool, order="C", copy=True)
        if values.ndim != 2 or values.shape != valid.shape:
            raise ShapeError(
                f"grid {self.name!r}: values {values.shape} and "
                f"valid {valid.shape} must be matching 2-D grids"
            )
        values.setflags(write=False)
        valid.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "valid", valid)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    def to_raster(self, origin: tuple[int, int] = (0, 0)) -> Raster:
        """Single-band raster named ``name``; invalid pixels become NaN nodata."""
        values = np.where(self.valid, self.values, np.float32(np.nan))
        return Raster(
            bands=(Band(name=self.name, samples=values),),
            nodata_value=float("nan"),
            origin=origin,
        )

    @classmethod
    def from_raster(cls, raster: Raster) -> "MaskedGrid":
        band = raster.bands[0]
        return cls(values=band.samples, valid=raster.valid_mask().bits, name=band.name)


@dataclass(frozen=True)
class Raster:
    """An ordered stack of equally-sized bands plus nodata/origin metadata.

    ``origin`` is the (x, y) pixel offset of this raster inside a parent
    scene; (0, 0) for standalone rasters. Nodata comparison is exact
    bitwise equality on the 32-bit pattern, so NaN is a legal nodata value.
    """

    bands: tuple[Band, ...]
    nodata_value: float | None = None
    origin: tuple[int, int] = (0, 0)

    def __post_init__(self):
        bands = tuple(self.bands)
        if not bands:
            raise ShapeError("raster needs at least one band")
        h, w = bands[0].samples.shape
        if w < 1 or h < 1:
            raise ShapeError(f"raster dimensions must be >= 1, got {w}x{h}")
        names = [b.name for b in bands]
        if len(set(names)) != len(names):
            raise ShapeError(f"duplicate band names: {names}")
        for b in bands[1:]:
            if b.samples.shape != (h, w):
                raise ShapeError(
                    f"band {b.name!r} is {b.width}x{b.height}, expected {w}x{h}"
                )
        object.__setattr__(self, "bands", bands)
        object.__setattr__(self, "origin", (int(self.origin[0]), int(self.origin[1])))

    @property
    def height(self) -> int:
        return self.bands[0].samples.shape[0]

    @property
    def width(self) -> int:
        return self.bands[0].samples.shape[1]

    @property
    def band_names(self) -> tuple[str, ...]:
        return tuple(b.name for b in self.bands)

    def band(self, name: str) -> Band:
        """Look up a band by name; raises listing the available names."""
        for b in self.bands:
            if b.name == name:
                return b
        raise BandLookupError(
            f"no band named {name!r}; available: {list(self.band_names)}"
        )

    def has_band(self, name: str) -> bool:
        return any(b.name == name for b in self.bands)

    def valid_mask(self) -> Mask:
        """Pixels where every band is finite and not equal to nodata.

        Nodata equality is bitwise on the float32 pattern, so a NaN
        nodata value flags exactly the NaN pixels that carry it.
        """
        bits = np.ones((self.height, self.width), dtype=bool)
        nodata_bits = None
        if self.nodata_value is not None:
            nodata_bits = np.array(self.nodata_value, dtype=np.float32).view(np.uint32)
        for b in self.bands:
            bits &= np.isfinite(b.samples)
            if nodata_bits is not None:
                bits &= b.samples.view(np.uint32) != nodata_bits
        return Mask(bits)


def _paths_for(path) -> tuple[Path, Path]:
    p = Path(path)
    if p.suffix == HEADER_SUFFIX:
        header = p
    else:
        header = p.parent / (p.name + HEADER_SUFFIX)
    payload = header.with_suffix(PAYLOAD_SUFFIX)
    return header, payload


def save_raster(raster: Raster, path) -> None:
    """Write ``raster`` as a header/payload pair.

    ``path`` may be the header path or a bare prefix; the ``.rhdr`` /
    ``.rbin`` suffixes are supplied as needed.
    """
    header_path, payload_path = _paths_for(path)
    header = {
        "width": raster.width,
        "height": raster.height,
        "dtype": _DTYPE_TAG,
        "layout": _LAYOUT_TAG,
        "nodata": raster.nodata_value,
        "origin": [raster.origin[0], raster.origin[1]],
        "bands": [
            {"name": b.name, "wavelength_nm": b.wavelength_nm} for b in raster.bands
        ],
    }
    header_path.write_text(json.dumps(header, indent=2) + "\n")
    payload = b"".join(
        np.ascontiguousarray(b.samples, dtype="<f4").tobytes() for b in raster.bands
    )
    payload_path.write_bytes(payload)


def _header_int(header: dict, key: str) -> int:
    value = header.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise FormatError(f"header field {key!r} must be a positive integer, got {value!r}")
    return value


def load_raster(path) -> Raster:
    """Read a header/payload pair back into a Raster.

    Raises FormatError for a missing or malformed header (naming the
    offending field) and PayloadSizeError when the binary payload does
    not match the header geometry.
    """
    header_path, payload_path = _paths_for(path)
    try:
        text = header_path.read_text()
    except OSError as exc:
        raise FormatError(f"cannot read header {header_path}: {exc}") from exc
    try:
        header = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"header {header_path} is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"header {header_path} must be a JSON object")

    width = _header_int(header, "width")
    height = _header_int(header, "height")
    if header.get("dtype") != _DTYPE_TAG:
        raise FormatError(f"header field 'dtype' must be {_DTYPE_TAG!r}, got {header.get('dtype')!r}")
    if header.get("layout") != _LAYOUT_TAG:
        raise FormatError(f"header field 'layout' must be {_LAYOUT_TAG!r}, got {header.get('layout')!r}")

    nodata = header.get("nodata", None)
    if nodata is not None and not isinstance(nodata, (int, float)):
        raise FormatError(f"header field 'nodata' must be a number or null, got {nodata!r}")

    origin = header.get("origin", [0, 0])
    if (
        not isinstance(origin, list)
        or len(origin) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in origin)
    ):
        raise FormatError(f"header field 'origin' must be [int, int], got {origin!r}")

    band_entries = header.get("bands")
    if not isinstance(band_entries, list) or not band_entries:
        raise FormatError("header field 'bands' must be a non-empty list")
    names = []
    wavelengths = []
    for i, entry in enumerate(band_entries):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise FormatError(f"header field 'bands[{i}]' must carry a string 'name'")
        wl = entry.get("wavelength_nm", None)
        if wl is not None and not isinstance(wl, (int, float)):
            raise FormatError(
                f"header field 'bands[{i}].wavelength_nm' must be a number or null, got {wl!r}"
            )
        names.append(entry["name"])
        wavelengths.append(None if wl is None else float(wl))
    if len(set(names)) != len(names):
        raise FormatError(f"header field 'bands' has duplicate names: {names}")

    try:
        payload = payload_path.read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read payload {payload_path}: {exc}") from exc
    expected = 4 * width * height * len(names)
    if len(payload) != expected:
        raise PayloadSizeError(
            f"payload {payload_path} holds {len(payload)} bytes, expected {expected}"
        )

    grid = np.frombuffer(payload, dtype="<f4").reshape(len(names), height, width)
    bands = tuple(
        Band(name=name, samples=grid[i], wavelength_nm=wavelengths[i])
        for i, name in enumerate(names)
    )
    return Raster(
        bands=bands,
        nodata_value=None if nodata is None else float(nodata),
        origin=(origin[0], origin[1]),
    )
