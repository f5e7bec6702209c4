"""Multiband raster model and the .rhdr/.rbin container format.

A raster is stored as two sibling files:

* ``<name>.rhdr`` -- JSON header with keys ``width``, ``height``,
  ``dtype`` (always ``"f32le"``), ``layout`` (always ``"band-sequential"``),
  ``nodata`` (number or null), ``origin`` ([x, y] pixel offset into a
  parent scene) and ``bands`` (ordered list of ``{"name", "wavelength_nm"}``).
* ``<name>.rbin`` -- bands back-to-back, each row-major, 32-bit IEEE-754
  little-endian. Its length must equal 4 * width * height * band_count.

So rows ``r0:r1`` of band ``b`` are the contiguous bytes from offset
``4·W·(b·H + r0)``. ``load_raster`` reads a scene whole or one such row
window at a time, and ``RasterWriter`` writes one row band at a time by
the same rule; this module is the only one that reads or writes a
payload.

Rasters are immutable after construction, so any number of readers may
share one safely, and new pixel values always mean a new Raster. A
``Band``, ``Mask`` or ``MaskedGrid`` keeps an array it is given as-is when
that array is 2-D, has the right dtype and is frozen: neither it nor any
array it views is writeable, and its memory comes from no other object.
Every other input is copied and frozen, so a caller's later writes never
reach the grid. Frozen arrays are therefore shared without a copy: the
bands of a loaded raster (or row window) are views of the one buffer it
was read into, and a tile cut from a scene is a view of the scene's
bands.

All bands of a raster share one pixel grid. Sources whose bands differ in
native resolution are expected to be resampled to a common grid before
ingestion; this library does no resampling of its own.
"""

from __future__ import annotations

import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import BandLookupError, BoundsError, FormatError, PayloadSizeError, ShapeError
from .jsondoc import read_document, take

HEADER_SUFFIX = ".rhdr"
PAYLOAD_SUFFIX = ".rbin"
_DTYPE_TAG = "f32le"
_LAYOUT_TAG = "band-sequential"
# Bound on every parameter that sets the scale of a generated sample: a
# scene spec's reflectances, jitter_std and noise_sigma, and an augment
# spec's noise sigma. A sample is a value plus draws of a few sigma, so
# below it every sample stays far inside float32's 3.4e38 range.
MAX_SAMPLE_PARAM = 1e30
# Largest grid the package allocates: 65536x65536 pixels, whose four
# float32 bands take 64 GiB. Far larger sizes would fail inside numpy
# with errors other than MemoryError.
MAX_SCENE_PIXELS = 2**32
# Pixel kernels work through blocks of whole rows of about this many
# pixels, so that a block's float64 buffers (8 bytes a pixel each, 1 MiB
# for two) stay in a core's L2 cache instead of streaming through memory.
BLOCK_PX = 1 << 16
# Random draws over a grid come one row band of about this many pixels at
# a time, each band from a stream of its own (see ``stream``). It is not
# BLOCK_PX, so retuning the pool never changes a drawn value.
STREAM_PX = 1 << 16


def _is_frozen(arr: np.ndarray) -> bool:
    """True when no array along ``arr``'s base chain is writeable and the
    chain ends in memory of its own (or in immutable ``bytes``)."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return arr is None or isinstance(arr, bytes)


def _frozen(arr, dtype, what: str) -> np.ndarray:
    """``arr`` itself when it is a frozen 2-D array of ``dtype``; otherwise
    a read-only C-ordered copy. Raises ShapeError unless the result is 2-D."""
    if not (isinstance(arr, np.ndarray) and arr.dtype == dtype and _is_frozen(arr)):
        arr = np.array(arr, dtype=dtype, order="C", copy=True)
        arr.setflags(write=False)
    if arr.ndim != 2:
        raise ShapeError(f"{what} must be 2-D, got {arr.ndim}-D")
    return arr


@dataclass(frozen=True)
class Band:
    """One spectral band: a named row-major float32 grid."""

    name: str
    samples: np.ndarray
    wavelength_nm: float | None = None

    def __post_init__(self):
        samples = _frozen(self.samples, np.float32, f"band {self.name!r}: samples")
        object.__setattr__(self, "samples", samples)

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
        object.__setattr__(self, "bits", _frozen(self.bits, np.bool_, "mask"))

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    def count(self) -> int:
        return int(np.count_nonzero(self.bits))


@dataclass(frozen=True)
class MaskedGrid:
    """One float32 value per pixel, valid exactly where it is finite.

    That is the rule ``Raster.valid_mask`` applies to the NaN-nodata
    raster a grid is written as, so validity survives a round trip.
    Vegetation indices and the palm-probability map are both masked
    grids; ``name`` is the band name the grid carries as a raster.
    """

    values: np.ndarray
    name: str = field(default="palm_probability", kw_only=True)

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values, np.float32, f"grid {self.name!r}: values"))

    @property
    def valid(self) -> np.ndarray:
        """Where ``values`` is finite, computed anew on each call."""
        return np.isfinite(self.values)

    def above(self, threshold: float) -> np.ndarray:
        """Where ``values`` is valid and strictly above ``threshold``.

        ``(values > t) & (values < inf)`` is ``valid & (values > t)`` for
        any threshold (NaN and -inf fail the first compare, +inf the
        second) in two compares, without a pass of ``isfinite``.
        """
        return (self.values > threshold) & (self.values < np.inf)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    def to_raster(self, origin: tuple[int, int] = (0, 0)) -> Raster:
        """Single-band NaN-nodata raster named ``name``; its samples are ``values``."""
        return Raster(
            bands=(Band(name=self.name, samples=self.values),),
            nodata_value=float("nan"),
            origin=origin,
        )

    @classmethod
    def from_raster(cls, raster: Raster) -> "MaskedGrid":
        """The grid a single-band raster holds: its samples as they are when
        nodata is None or NaN, else a copy with NaN where a sample is
        nodata. Raises ShapeError for any other band count."""
        if len(raster.bands) != 1:
            raise ShapeError(f"a grid is a single-band raster, got bands {list(raster.band_names)}")
        (band,) = raster.bands
        values = band.samples
        if raster.nodata_bits is not None:
            values = np.where(raster.valid_mask().bits, values, np.float32(np.nan))
            values.setflags(write=False)
        return cls(values, name=band.name)


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

    @property
    def nodata_bits(self) -> np.ndarray | None:
        """The float32 bit pattern of the nodata value; None when there is
        none or it is NaN, since a NaN sample is invalid whatever its bits."""
        if self.nodata_value is None or math.isnan(self.nodata_value):
            return None
        return np.array(self.nodata_value, dtype=np.float32).view(np.uint32)

    @property
    def fill_value(self) -> np.float32:
        """The float32 value a written invalid sample holds: nodata, or NaN without one."""
        return np.float32(self.nodata_value if self.nodata_value is not None else np.nan)

    def valid_mask(self) -> Mask:
        """Pixels where every band is finite and not bitwise equal to
        nodata (as a float32 pattern).

        The plane is built from ``valid_rows`` over blocks of whole rows,
        which the pool's threads share (``map_row_blocks``); the bits are
        the same for any number of threads.
        """
        bits = np.empty((self.height, self.width), np.bool_)

        def block(rows, _):
            bits[rows] = self.valid_rows(rows)

        map_row_blocks(self.height, self.width, block)
        bits.setflags(write=False)
        return Mask(bits)

    def valid_rows(self, rows: slice) -> np.ndarray:
        """``valid_mask``'s rule on the rows ``rows`` alone, as a new
        writeable array."""
        nodata_bits = self.nodata_bits
        bits = None
        for b in self.bands:
            samples = b.samples[rows]
            ok = np.isfinite(samples)
            if nodata_bits is not None:
                ok &= samples.view(np.uint32) != nodata_bits
            bits = ok if bits is None else np.logical_and(bits, ok, out=bits)
        return bits


def raster_paths(path) -> tuple[Path, Path]:
    """The (header, payload) paths of a raster's header path or prefix."""
    p = Path(path)
    if p.suffix == HEADER_SUFFIX:
        header = p
    else:
        header = p.parent / (p.name + HEADER_SUFFIX)
    payload = header.with_suffix(PAYLOAD_SUFFIX)
    return header, payload


@dataclass(frozen=True)
class RasterHeader:
    """What a ``.rhdr`` header declares: the grid, nodata, origin and the
    ordered bands as ``(name, wavelength_nm)`` pairs."""

    width: int
    height: int
    nodata_value: float | None
    origin: tuple[int, int]
    bands: tuple[tuple[str, float | None], ...]


def read_header(path) -> RasterHeader:
    """The header of the raster at ``path`` (a header path or a bare
    prefix), checked field by field; no payload byte is read.

    Raises FormatError for a missing or malformed header, naming the
    offending field.
    """
    header_path, _ = raster_paths(path)
    header = read_document(header_path, "header")
    where = f"header {header_path}"
    width = take(header, "width", int, where)
    height = take(header, "height", int, where)
    if width < 1 or height < 1:
        raise FormatError(f"{where}: 'width' and 'height' must be >= 1, got {width}x{height}")
    for key, tag in (("dtype", _DTYPE_TAG), ("layout", _LAYOUT_TAG)):
        if take(header, key, str, where) != tag:
            raise FormatError(f"{where} field {key!r} must be {tag!r}, got {header[key]!r:.80}")
    nodata = take(header, "nodata", float | None, where, default=None)
    with np.errstate(over="ignore"):
        if nodata is not None and np.isfinite(nodata) and np.isinf(np.float32(nodata)):
            raise FormatError(f"{where} field 'nodata' must be a float32 value or NaN, got {nodata!r}")
    origin = take(header, "origin", tuple[int, int], where, default=(0, 0))
    band_entries = take(header, "bands", tuple[dict, ...], where)
    if not band_entries:
        raise FormatError(f"{where} field 'bands' must be a non-empty list")
    names = [take(e, "name", str, f"{where} bands[{i}]") for i, e in enumerate(band_entries)]
    wavelengths = [
        take(e, "wavelength_nm", float | None, f"{where} bands[{i}]", default=None)
        for i, e in enumerate(band_entries)
    ]
    if len(set(names)) != len(names):
        raise FormatError(f"{where} field 'bands' has duplicate names: {names}")
    return RasterHeader(width, height, nodata, origin, tuple(zip(names, wavelengths)))


class RasterWriter:
    """Writes a raster of ``height`` rows to ``path`` one row band at a
    time, top to bottom, as a context manager.

    Each ``write`` takes the next rows as a Raster with the bands of the
    first: rows ``r0:r1`` of band ``b`` go to byte offset
    ``4·W·(b·H + r0)`` of the payload, the rule ``load_raster`` reads
    by. The header records the first row band's nodata, bands and origin;
    no row band is kept once written. Files already at the two paths are
    removed on entry, so the payload is a new file, never one that a link
    there leads to (a scene the run still reads, say). The header is
    written when the context closes with every row written; a writer
    closed short of that (by an exception) removes its payload instead,
    so no header ever describes a partial payload.
    """

    def __init__(self, path, height: int):
        self._header_path, self._payload_path = raster_paths(path)
        self._height = height
        self._top = 0
        self._header: dict | None = None
        self._file = None

    def __enter__(self) -> "RasterWriter":
        for path in (self._header_path, self._payload_path):
            path.unlink(missing_ok=True)
        self._file = open(self._payload_path, "xb")
        return self

    def write(self, rows: Raster) -> None:
        if self._header is None:
            self._header = {
                "width": rows.width,
                "height": self._height,
                "dtype": _DTYPE_TAG,
                "layout": _LAYOUT_TAG,
                "nodata": rows.nodata_value,
                "origin": [rows.origin[0], rows.origin[1]],
                "bands": [{"name": b.name, "wavelength_nm": b.wavelength_nm} for b in rows.bands],
            }
        width, names = self._header["width"], [b["name"] for b in self._header["bands"]]
        if (rows.width, list(rows.band_names)) != (width, names):
            raise ShapeError(
                f"rows {rows.width} px wide with bands {list(rows.band_names)} do not continue "
                f"a raster {width} px wide with bands {names}"
            )
        if self._top + rows.height > self._height:
            raise ShapeError(f"rows {self._top}:{self._top + rows.height} leave a raster of {self._height} rows")
        for b, band in enumerate(rows.bands):
            self._file.seek(4 * rows.width * (b * self._height + self._top))
            # a no-op for the C-ordered little-endian bands rasters usually hold
            self._file.write(np.ascontiguousarray(band.samples, dtype="<f4"))
        self._top += rows.height

    def __exit__(self, *exc_info) -> None:
        self._file.close()
        if self._top < self._height or self._header is None:
            self._payload_path.unlink(missing_ok=True)
            return
        self._header_path.write_text(json.dumps(self._header, indent=2) + "\n")


def save_raster(raster, path, height: int | None = None) -> None:
    """Write ``raster`` as a header/payload pair.

    ``raster`` is a Raster, or, given the raster's ``height`` in rows, an
    iterable of its row bands, top to bottom, each a Raster with the
    bands of the first (as ``RasterWriter`` takes them). Each band is
    written and let go before the next is asked for, so an iterable that
    makes its bands as they are asked for holds one at a time. ``path``
    may be the header path or a bare prefix; the ``.rhdr`` / ``.rbin``
    suffixes are supplied as needed.
    """
    if isinstance(raster, Raster):
        raster, height = (raster,), raster.height
    with RasterWriter(path, height) as out:
        for rows in raster:
            out.write(rows)
            # so that the next band is made after this one is let go
            del rows


def load_raster(path, rows: slice | None = None) -> Raster:
    """Read a header/payload pair back into a Raster: the whole grid, or
    only the rows ``rows`` (a slice ``r0:r1`` with 0 <= r0 < r1 <= height,
    step 1), whose origin is the header's shifted down by ``r0``.

    Raises FormatError for a missing or malformed header (naming the
    offending field), BoundsError for a window off the grid and
    PayloadSizeError when the binary payload does not match the header
    geometry; all of these before any payload byte is read. Each band's
    rows are one contiguous read, at byte offset ``4·W·(b·H + r0)``, into
    one buffer for every band, which is then frozen; the bands are views
    of it.
    """
    header = read_header(path)
    width, height = header.width, header.height
    r0, r1 = 0, height
    if rows is not None:
        r0 = 0 if rows.start is None else rows.start
        r1 = height if rows.stop is None else rows.stop
        if rows.step not in (None, 1) or not 0 <= r0 < r1 <= height:
            raise BoundsError(f"rows {rows.start}:{rows.stop}:{rows.step} are not a window of {height} rows")
    _, payload_path = raster_paths(path)
    expected = 4 * width * height * len(header.bands)
    short = False
    try:
        with open(payload_path, "rb") as f:
            # the size is checked before anything is allocated, so a header
            # claiming a huge grid over a small payload costs nothing
            size = os.fstat(f.fileno()).st_size
            if size == expected:
                grid = np.empty((len(header.bands), r1 - r0, width), dtype="<f4")
                for b, plane in enumerate(grid):
                    f.seek(4 * width * (b * height + r0))
                    short = f.readinto(plane) != plane.nbytes
                    if short:
                        break
                # a file that shrank or grew since fstat fails the check below
                size = os.fstat(f.fileno()).st_size
    except OSError as exc:
        raise FormatError(f"cannot read payload {payload_path}: {exc}") from exc
    if short or size != expected:
        raise PayloadSizeError(
            f"payload {payload_path} holds {size} bytes, expected {expected}"
        )
    grid.setflags(write=False)
    bands = tuple(
        Band(name=name, samples=grid[i], wavelength_nm=wavelength)
        for i, (name, wavelength) in enumerate(header.bands)
    )
    return Raster(bands=bands, nodata_value=header.nodata_value, origin=(header.origin[0], header.origin[1] + r0))


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def stream(entropy: int, *key: int) -> np.random.Generator:
    """The random stream of ``key`` under ``entropy``, all non-negative
    integers.

    This is the package's one rule for splitting randomness: a
    counter-based Philox generator (Salmon et al., "Parallel random
    numbers: as easy as 1, 2, 3", SC 2011) keyed through
    ``SeedSequence(entropy, spawn_key=key)``. Distinct keys give
    independent streams, and a stream depends on its key alone.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy, spawn_key=key)))


def stream_rows(width: int) -> int:
    """The rows of one row band of a grid ``width`` pixels wide,
    max(1, STREAM_PX // width).

    A kernel that draws random values over a grid draws row band j of its
    plane i from ``stream(entropy, i, j)``, in ``map_row_blocks`` blocks
    of exactly these rows, so the values depend neither on the workers nor
    on BLOCK_PX.
    """
    return max(1, STREAM_PX // max(width, 1))


# in_pool is True in the pool's threads, whose nested calls run inline
_thread = threading.local()


def _mark_pool_thread() -> None:
    _thread.in_pool = True


def _start_pool() -> None:
    """Make the process's one worker pool (see map_row_blocks), which
    starts up to one thread per CPU of the machine as work arrives and
    keeps them. A forked child makes its own: the parent's pool threads
    do not exist there."""
    global _pool
    _pool = ThreadPoolExecutor(max_workers=os.cpu_count() or 1, initializer=_mark_pool_thread)


_start_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_start_pool)


def map_row_blocks(n_rows: int, width: int, fn, *, scratch=None, block_rows: int | None = None) -> None:
    """Call ``fn(rows, buffers)`` once for every block of ``n_rows`` rows of
    ``width`` pixels.

    A block is the slice ``rows`` of ``block_rows`` whole rows, by default
    max(1, BLOCK_PX // width); the last one may be shorter. Block i goes
    to worker i mod k, where k is ``usable_cpus()``, so the process's CPU
    affinity sets it, or the number of blocks if that is smaller; each
    worker takes its blocks in order. ``scratch(rows)``, when given, is
    called with the block height once per worker in the calling thread,
    and its result is the ``buffers`` that worker hands to ``fn``;
    otherwise ``buffers`` is None. A worker stops at the first block that
    raises, and the exception of the first block that raised is raised
    here, so it is the one a single worker raises. The call returns or
    raises only after every block it queued has ended.

    With one worker the blocks run in the calling thread, and no thread
    is started. Otherwise the k workers run on the process's one pool,
    which starts up to one thread per CPU of the machine as work arrives
    and keeps them for later calls. Workers beyond that many (k exceeds
    it only when ``usable_cpus`` is patched) queue for a free thread,
    so a block must never wait on another block. Several threads may
    call at once. A call made from inside a pool thread (by a block)
    runs its blocks in that thread, as one worker, so it never waits on
    the pool it occupies. A child forked from the process gets a pool
    of its own. Idle pool threads do not keep the interpreter from
    exiting.

    ``fn`` must write only its own rows of outputs that the caller
    allocated, and must call no public palmwatch function but ``stream``
    and ``stream_rows``: a tracer that wraps those records spans on one
    stack. In a pool thread numpy's error state is the default one, not
    the caller's, so ``fn`` enters its own ``np.errstate``; and as pool
    threads outlive the call, ``fn`` changes that state only inside a
    ``with np.errstate`` block, never by ``np.seterr``, or the change
    would reach every later call's blocks on that thread.
    """
    rows = block_rows or max(1, BLOCK_PX // max(width, 1))
    blocks = [slice(top, min(top + rows, n_rows)) for top in range(0, n_rows, rows)]
    if not blocks:
        return
    k = 1 if getattr(_thread, "in_pool", False) else min(usable_cpus(), len(blocks))
    # allocated here, so that no buffer comes from a pool thread's malloc arena
    buffers = [scratch(min(rows, n_rows)) if scratch is not None else None for _ in range(k)]
    # the block each worker runs, or ran last
    current = list(range(k))

    def run(worker):
        for i in range(worker, len(blocks), k):
            current[worker] = i
            fn(blocks[i], buffers[worker])

    if k == 1:
        run(0)
        return
    futures = []
    try:
        for worker in range(k):
            futures.append(_pool.submit(run, worker))
    finally:
        wait(futures)
    failed = [worker for worker, future in enumerate(futures) if future.exception() is not None]
    if failed:
        raise futures[min(failed, key=current.__getitem__)].exception()
