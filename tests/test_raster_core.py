import json
import math
import os
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from palmwatch import raster_core
from palmwatch.errors import (
    BandLookupError,
    BoundsError,
    FormatError,
    PayloadSizeError,
    ShapeError,
)
from palmwatch.raster_core import Band, Mask, MaskedGrid, Raster, load_raster, save_raster

from conftest import address_space_cap, make_raster, random_raster


def write_container(tmp_path, header: dict, payload: bytes, stem="scene"):
    (tmp_path / f"{stem}.rhdr").write_text(json.dumps(header))
    (tmp_path / f"{stem}.rbin").write_bytes(payload)
    return tmp_path / f"{stem}.rhdr"


def minimal_header(width=2, height=2, bands=("nir", "red"), nodata=None):
    return {
        "width": width,
        "height": height,
        "dtype": "f32le",
        "layout": "band-sequential",
        "nodata": nodata,
        "origin": [0, 0],
        "bands": [{"name": n, "wavelength_nm": None} for n in bands],
    }


class TestLoad:
    def test_minimal_two_band(self, tmp_path):
        values = np.arange(8, dtype="<f4")
        path = write_container(tmp_path, minimal_header(), values.tobytes())
        raster = load_raster(path)
        assert (raster.width, raster.height) == (2, 2)
        assert raster.band_names == ("nir", "red")
        np.testing.assert_array_equal(raster.band("nir").samples, values[:4].reshape(2, 2))
        np.testing.assert_array_equal(raster.band("red").samples, values[4:].reshape(2, 2))

    def test_truncated_payload(self, tmp_path):
        path = write_container(tmp_path, minimal_header(), b"\x00" * 31)
        with pytest.raises(PayloadSizeError, match="holds 31 bytes, expected 32"):
            load_raster(path)

    def test_oversized_payload(self, tmp_path):
        path = write_container(tmp_path, minimal_header(), b"\x00" * 33)
        with pytest.raises(PayloadSizeError, match="holds 33 bytes, expected 32"):
            load_raster(path)

    def test_huge_header_over_tiny_payload_allocates_nothing(self, tmp_path):
        # 2**20 x 2**20 x 2 bands would be 8 TiB; under the cap, allocating
        # it would raise MemoryError instead of PayloadSizeError
        header = minimal_header(width=2**20, height=2**20)
        path = write_container(tmp_path, header, b"\x00" * 32)
        with address_space_cap(), pytest.raises(PayloadSizeError, match="holds 32 bytes"):
            load_raster(path)

    def test_bands_are_read_only_views_of_one_buffer(self, tmp_path, rng):
        raster = random_raster(rng, 7, 5, band_names=("a", "b", "c"))
        save_raster(raster, tmp_path / "x")
        loaded = load_raster(tmp_path / "x")
        buffer = loaded.bands[0].samples.base
        assert buffer.shape == (3, 5, 7) and not buffer.flags.writeable
        for i, band in enumerate(loaded.bands):
            assert band.samples.base is buffer and not band.samples.flags.writeable
            np.testing.assert_array_equal(band.samples, raster.bands[i].samples)

    def test_missing_header(self, tmp_path):
        with pytest.raises(FormatError):
            load_raster(tmp_path / "nope.rhdr")

    def test_bad_json(self, tmp_path):
        (tmp_path / "s.rhdr").write_text("{not json")
        (tmp_path / "s.rbin").write_bytes(b"")
        with pytest.raises(FormatError, match="JSON"):
            load_raster(tmp_path / "s.rhdr")

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda h: h.pop("width"), "width"),
            (lambda h: h.update(width=0), "width"),
            (lambda h: h.update(width="2"), "width"),
            (lambda h: h.update(dtype="f64le"), "dtype"),
            (lambda h: h.update(layout="tiled"), "layout"),
            (lambda h: h.update(nodata="x"), "nodata"),
            (lambda h: h.update(origin=[0]), "origin"),
            (lambda h: h.update(origin=[0.5, 0]), "origin"),
            (lambda h: h.update(bands=[]), "bands"),
            (lambda h: h.update(bands=[{"wavelength_nm": 1}]), "bands"),
        ],
    )
    def test_corrupt_header_names_field(self, tmp_path, mutate, field):
        header = minimal_header()
        mutate(header)
        path = write_container(tmp_path, header, b"\x00" * 32)
        with pytest.raises(FormatError, match=field):
            load_raster(path)

    @pytest.mark.parametrize("nodata", [1e300, -1e39, 3.4028236e38])
    def test_nodata_beyond_float32_names_field(self, tmp_path, nodata):
        path = write_container(tmp_path, minimal_header(nodata=nodata), b"\x00" * 32)
        with pytest.raises(FormatError, match="'nodata'"):
            load_raster(path)

    @pytest.mark.parametrize("nodata", [3.4028235e38, -3.4028235e38, float("inf"), float("nan")])
    def test_nodata_within_float32_loads(self, tmp_path, nodata):
        values = np.array([nodata, 0.5, 0.25, np.nan] * 2, dtype="<f4")
        path = write_container(tmp_path, minimal_header(nodata=nodata), values.tobytes())
        raster = load_raster(path)
        np.testing.assert_array_equal(raster.valid_mask().bits, [[False, True], [True, False]])

    def test_duplicate_band_names(self, tmp_path):
        header = minimal_header(bands=("nir", "nir"))
        path = write_container(tmp_path, header, b"\x00" * 32)
        with pytest.raises(FormatError, match="duplicate"):
            load_raster(path)


class TestSave:
    def test_single_pixel_payload_bytes(self, tmp_path):
        raster = make_raster({"red": np.array([[0.5]], dtype=np.float32)})
        save_raster(raster, tmp_path / "one")
        payload = (tmp_path / "one.rbin").read_bytes()
        assert payload == bytes.fromhex("0000003f")
        assert payload == struct.pack("<f", 0.5)

    def test_band_order_preserved(self, tmp_path, rng):
        raster = random_raster(rng, 5, 3, band_names=("nir", "red", "blue"))
        save_raster(raster, tmp_path / "ordered")
        assert load_raster(tmp_path / "ordered").band_names == ("nir", "red", "blue")

    def test_wavelengths_survive(self, tmp_path):
        raster = Raster(
            bands=(
                Band("red", np.zeros((2, 2), np.float32), wavelength_nm=660.0),
                Band("nir", np.zeros((2, 2), np.float32), wavelength_nm=None),
            )
        )
        save_raster(raster, tmp_path / "wl")
        loaded = load_raster(tmp_path / "wl")
        assert loaded.band("red").wavelength_nm == 660.0
        assert loaded.band("nir").wavelength_nm is None

    def test_unwritable_path(self, tmp_path, rng):
        raster = random_raster(rng, 2, 2)
        with pytest.raises(OSError):
            save_raster(raster, tmp_path / "no" / "such" / "dir" / "x")

    def test_row_bands_write_the_raster_bytes(self, tmp_path, rng):
        raster = random_raster(rng, 5, 7, band_names=("nir", "red"))
        save_raster(raster, tmp_path / "whole")
        bands = (
            Raster(bands=tuple(Band(b.name, b.samples[top : top + 3]) for b in raster.bands), origin=(0, top))
            for top in range(0, 7, 3)
        )
        save_raster(bands, tmp_path / "banded", 7)
        for suffix in (".rhdr", ".rbin"):
            assert (tmp_path / ("banded" + suffix)).read_bytes() == (tmp_path / ("whole" + suffix)).read_bytes()

    def test_a_link_at_the_path_is_replaced_not_written_through(self, tmp_path, rng):
        # a payload written through a link at its path used to overwrite
        # the file the link leads to, such as the scene being read
        save_raster(random_raster(rng, 4, 4), tmp_path / "scene")
        before = (tmp_path / "scene.rbin").read_bytes()
        (tmp_path / "out.rbin").symlink_to(tmp_path / "scene.rbin")
        save_raster(random_raster(rng, 3, 2, band_names=("p",)), tmp_path / "out")
        assert (tmp_path / "scene.rbin").read_bytes() == before
        assert not (tmp_path / "out.rbin").is_symlink() and load_raster(tmp_path / "out").band_names == ("p",)


class TestRoundTrip:
    def test_random_rasters_bit_exact(self, tmp_path, rng):
        for i in range(25):
            width = int(rng.integers(1, 257))
            height = int(rng.integers(1, 257))
            n_bands = int(rng.integers(1, 9))
            names = [f"b{j}" for j in range(n_bands)]
            nodata = [None, -999.0, float("nan")][i % 3]
            raster = random_raster(rng, width, height, band_names=names, nodata=nodata)
            save_raster(raster, tmp_path / f"r{i}")
            first = (tmp_path / f"r{i}.rbin").read_bytes()
            loaded = load_raster(tmp_path / f"r{i}")
            save_raster(loaded, tmp_path / f"r{i}_again")
            second = (tmp_path / f"r{i}_again.rbin").read_bytes()
            assert first == second
            for name in names:
                np.testing.assert_array_equal(
                    loaded.band(name).samples.view(np.uint32),
                    raster.band(name).samples.view(np.uint32),
                )
            assert loaded.origin == raster.origin
            if nodata is None:
                assert loaded.nodata_value is None
            elif np.isnan(nodata):
                assert np.isnan(loaded.nodata_value)
            else:
                assert loaded.nodata_value == nodata

    def test_band_values_equal_saved(self, tmp_path, rng):
        raster = random_raster(rng, 64, 64, band_names=("red", "nir"))
        save_raster(raster, tmp_path / "x")
        loaded = load_raster(tmp_path / "x")
        np.testing.assert_array_equal(loaded.band("red").samples, raster.band("red").samples)


class TestBandLookup:
    def test_present(self, rng):
        raster = random_raster(rng, 3, 3, band_names=("nir", "red"))
        assert raster.band("nir").name == "nir"

    def test_missing_lists_available(self, rng):
        raster = random_raster(rng, 3, 3, band_names=("nir", "red"))
        with pytest.raises(BandLookupError, match="swir.*nir.*red"):
            raster.band("swir")

    def test_lookup_order_independent(self, rng):
        raster = random_raster(rng, 3, 3, band_names=("a", "b", "c"))
        first = [raster.band(n).samples for n in ("a", "b", "c")]
        second = [raster.band(n).samples for n in ("c", "b", "a")][::-1]
        for x, y in zip(first, second):
            np.testing.assert_array_equal(x, y)


class TestValidMask:
    def test_all_valid(self, rng):
        raster = random_raster(rng, 8, 8)
        assert raster.valid_mask().bits.all()

    def test_single_nodata_pixel(self):
        red = np.full((4, 4), 0.25, np.float32)
        red[1, 2] = -999.0
        raster = make_raster({"red": red, "nir": np.full((4, 4), 0.5, np.float32)}, nodata=-999.0)
        mask = raster.valid_mask()
        assert not mask.bits[1, 2]
        assert mask.count() == 15

    def test_planted_count(self, rng):
        arr = rng.random((32, 32), dtype=np.float32)
        k = 17
        flat = rng.choice(arr.size, size=k, replace=False)
        arr.ravel()[flat] = -1.0
        raster = make_raster({"b": arr}, nodata=-1.0)
        assert raster.valid_mask().count() == arr.size - k

    def test_nan_nodata_bitwise(self):
        arr = np.array([[0.5, np.nan], [1.0, 2.0]], np.float32)
        raster = make_raster({"b": arr}, nodata=float("nan"))
        mask = raster.valid_mask()
        np.testing.assert_array_equal(mask.bits, [[True, False], [True, True]])

    def test_nonfinite_invalid_without_nodata(self):
        arr = np.array([[np.inf, 0.5], [np.nan, 1.0]], np.float32)
        raster = make_raster({"b": arr})
        np.testing.assert_array_equal(raster.valid_mask().bits, [[False, True], [False, True]])

    @pytest.mark.parametrize("fill", ["empty", "full", "random"])
    def test_count_is_the_number_of_set_bits(self, rng, fill):
        bits = {"empty": np.zeros((37, 53), bool), "full": np.ones((37, 53), bool), "random": rng.random((37, 53)) < 0.3}[fill]
        assert Mask(bits).count() == int(bits.sum())

    def test_idempotent(self, rng):
        raster = random_raster(rng, 16, 16, nodata=0.5)
        np.testing.assert_array_equal(raster.valid_mask().bits, raster.valid_mask().bits)


class TestInvariants:
    def test_band_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Raster(
                bands=(
                    Band("a", np.zeros((2, 2), np.float32)),
                    Band("b", np.zeros((3, 2), np.float32)),
                )
            )

    def test_duplicate_names(self):
        with pytest.raises(ShapeError, match="duplicate"):
            Raster(
                bands=(
                    Band("a", np.zeros((2, 2), np.float32)),
                    Band("a", np.zeros((2, 2), np.float32)),
                )
            )

    def test_no_bands(self):
        with pytest.raises(ShapeError):
            Raster(bands=())

    def test_samples_read_only(self):
        band = Band("a", np.zeros((2, 2), np.float32))
        with pytest.raises(ValueError):
            band.samples[0, 0] = 1.0

    def test_mask_shape(self):
        with pytest.raises(ShapeError):
            Mask(np.zeros(4, dtype=bool))

    def test_grid_from_multiband_raster(self, rng):
        with pytest.raises(ShapeError, match="single-band"):
            MaskedGrid.from_raster(random_raster(rng, 3, 2, band_names=("a", "b")))


def _frozen_array(arr):
    arr.setflags(write=False)
    return arr


# one constructor per grid type, each fed the array under test in every slot
_CONSTRUCTORS = {
    "band": (np.float32, lambda a: Band("a", a).samples),
    "mask": (np.bool_, lambda a: Mask(a).bits),
    "grid values": (np.float32, lambda a: MaskedGrid(a).values),
}


class TestZeroCopy:
    @pytest.mark.parametrize("kind", sorted(_CONSTRUCTORS))
    def test_frozen_input_is_shared(self, kind):
        dtype, build = _CONSTRUCTORS[kind]
        arr = _frozen_array(np.zeros((4, 6), dtype))
        assert build(arr) is arr
        view = arr[1:3, 2:5]  # a frozen view of a frozen base
        assert build(view) is view

    @pytest.mark.parametrize("kind", sorted(_CONSTRUCTORS))
    def test_writeable_input_is_copied_and_frozen(self, kind):
        dtype, build = _CONSTRUCTORS[kind]
        arr = np.zeros((4, 6), dtype)
        kept = build(arr)
        assert not np.shares_memory(kept, arr) and not kept.flags.writeable
        arr[0, 0] = 1
        assert kept[0, 0] == 0

    @pytest.mark.parametrize("kind", sorted(_CONSTRUCTORS))
    def test_frozen_view_of_writeable_base_is_copied(self, kind):
        dtype, build = _CONSTRUCTORS[kind]
        base = np.zeros((4, 6), dtype)
        view = _frozen_array(base[1:3])
        kept = build(view)
        assert not np.shares_memory(kept, base)
        base[1, 0] = 1
        assert kept[0, 0] == 0

    @pytest.mark.parametrize("kind", sorted(_CONSTRUCTORS))
    def test_other_dtypes_and_lists_are_converted(self, kind):
        dtype, build = _CONSTRUCTORS[kind]
        for arr in (_frozen_array(np.zeros((2, 3), np.float64)), [[0, 0, 0], [0, 0, 0]]):
            kept = build(arr)
            assert kept.dtype == dtype and kept.shape == (2, 3) and not kept.flags.writeable

    def test_frozen_bytes_buffer_is_shared(self):
        arr = np.frombuffer(bytes(24), dtype=np.float32).reshape(2, 3)
        assert Band("a", arr).samples is arr

    def test_frozen_3d_input_still_rejected(self):
        with pytest.raises(ShapeError):
            Band("a", _frozen_array(np.zeros((1, 2, 2), np.float32)))


# float32 bit patterns at the edges of validity: ±0, subnormals, the
# largest finite value, ±inf, quiet NaNs and signalling NaNs
EDGE_BITS = (
    0x00000000, 0x80000000, 0x00000001, 0x807FFFFF, 0x3F800000, 0x7F7FFFFF,
    0x7F800000, 0xFF800000, 0x7FC00000, 0xFFC00000, 0x7F800001, 0xFFA00000,
)
planes = arrays(
    np.uint32,
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.one_of(st.sampled_from(EDGE_BITS), st.integers(0, 2**32 - 1)),
).map(lambda bits: bits.view(np.float32))


class TestGridValidityRule:
    """A grid pixel is valid exactly where its value is finite, the rule
    ``valid_mask`` applies to the NaN-nodata raster the grid is written as."""

    @settings(max_examples=150, deadline=None)
    @given(plane=planes)
    def test_round_trip_keeps_validity_and_valid_bits(self, plane):
        grid = MaskedGrid(plane, name="p")
        np.testing.assert_array_equal(grid.valid, np.isfinite(plane))
        raster = grid.to_raster()
        assert raster.bands[0].samples is grid.values
        np.testing.assert_array_equal(raster.valid_mask().bits, grid.valid)
        with tempfile.TemporaryDirectory() as tmp:
            save_raster(raster, Path(tmp) / "grid")
            loaded = load_raster(Path(tmp) / "grid")
        back = MaskedGrid.from_raster(loaded)
        assert back.name == "p" and back.values is loaded.bands[0].samples
        np.testing.assert_array_equal(back.valid, grid.valid)
        np.testing.assert_array_equal(back.values[back.valid].view(np.uint32), plane[grid.valid].view(np.uint32))

    @settings(max_examples=150, deadline=None)
    @given(plane=planes, nodata=st.sampled_from([None, float("nan"), 0.0, -0.0, 1.0, 1e-45, -1e-45]))
    def test_from_raster_turns_nodata_into_nan(self, plane, nodata):
        raster = Raster(bands=(Band("p", plane),), nodata_value=nodata)
        samples = raster.bands[0].samples
        grid = MaskedGrid.from_raster(raster)
        valid = raster.valid_mask().bits
        np.testing.assert_array_equal(grid.valid, valid)
        np.testing.assert_array_equal(grid.values[valid].view(np.uint32), plane[valid].view(np.uint32))
        if raster.nodata_bits is None:
            assert grid.values is samples
        else:
            assert not np.shares_memory(grid.values, samples)
            assert np.isnan(grid.values[~valid]).all()

    @settings(max_examples=300, deadline=None)
    @given(plane=planes, data=st.data())
    def test_above_is_valid_and_greater(self, plane, data):
        # thresholds are the plane's own values, edges included
        threshold = float(plane.flat[data.draw(st.integers(0, plane.size - 1))])
        above = MaskedGrid(plane).above(threshold)
        np.testing.assert_array_equal(above, np.isfinite(plane) & (plane > threshold))

    def test_name_is_keyword_only(self):
        values = np.zeros((2, 2), np.float32)
        with pytest.raises(TypeError):
            MaskedGrid(values, np.ones((2, 2), bool))
        assert MaskedGrid(values, name="ndvi").name == "ndvi"


class _NoPayloadRead:
    """A payload file whose bytes must not be read: only its size is."""

    def __init__(self, path, mode="rb"):
        self.file = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.file.close()

    def fileno(self):
        return self.file.fileno()

    def readinto(self, buffer):
        raise AssertionError("a payload byte was read")

    read = readinto


# header mutations, each malformed, as (field, value); None deletes the field
_BAD_HEADER_FIELDS = st.sampled_from([
    ("width", 0), ("height", -1), ("width", "4"), ("dtype", "f64le"), ("layout", "pixel-interleaved"),
    ("nodata", 1e39), ("origin", [0]), ("bands", []), ("bands", [{"name": "a"}, {"name": "a"}]),
    ("bands", None), ("height", None),
])


class TestRowWindow:
    """``load_raster(path, rows)`` reads rows r0:r1 of every band: the
    whole read's rows bit for bit, the origin shifted down by r0."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_window_is_the_whole_reads_rows(self, data):
        w, h, n = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7)), data.draw(st.integers(1, 3))
        nodata = data.draw(st.sampled_from([None, float("nan"), -1.0, 0.0]))
        values = data.draw(planes.filter(lambda p: p.size >= n * h * w).map(lambda p: p.ravel()[: n * h * w]))
        values = np.where(data.draw(arrays(bool, n * h * w)), np.float32(-1.0), values).reshape(n, h, w)
        origin = (data.draw(st.integers(-5, 5)), data.draw(st.integers(-5, 5)))
        r0 = data.draw(st.integers(0, h - 1))
        r1 = data.draw(st.integers(r0 + 1, h))
        raster = Raster(
            bands=tuple(Band(f"b{i}", values[i], wavelength_nm=float(i) if i else None) for i in range(n)),
            nodata_value=nodata,
            origin=origin,
        )
        with tempfile.TemporaryDirectory() as tmp:
            save_raster(raster, Path(tmp) / "r")
            whole = load_raster(Path(tmp) / "r.rhdr")
            window = load_raster(Path(tmp) / "r", slice(r0, r1))
        assert (window.width, window.height) == (w, r1 - r0)
        assert window.origin == (origin[0], origin[1] + r0)
        assert window.nodata_value is nodata or window.nodata_value == nodata or math.isnan(nodata)
        for a, b in zip(window.bands, whole.bands, strict=True):
            assert (a.name, a.wavelength_nm) == (b.name, b.wavelength_nm)
            np.testing.assert_array_equal(a.samples.view(np.uint32), b.samples[r0:r1].view(np.uint32))
        np.testing.assert_array_equal(window.valid_mask().bits, whole.valid_mask().bits[r0:r1])

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_a_bad_container_raises_what_a_whole_read_raises_before_any_payload_byte(self, data):
        w, h, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3))
        header = minimal_header(width=w, height=h, bands=[f"b{i}" for i in range(n)])
        size = 4 * w * h * n
        if data.draw(st.booleans()):
            size += data.draw(st.integers(-size, 8).filter(lambda k: k != 0))
        else:
            field, value = data.draw(_BAD_HEADER_FIELDS)
            if value is None:
                del header[field]
            else:
                header[field] = value
        r0 = data.draw(st.integers(0, h - 1))
        r1 = data.draw(st.integers(r0 + 1, h))
        with tempfile.TemporaryDirectory() as tmp:
            path = write_container(Path(tmp), header, b"\0" * size)
            with pytest.raises((FormatError, PayloadSizeError)) as whole:
                load_raster(path)
            with mock.patch.object(raster_core, "open", _NoPayloadRead, create=True):
                with pytest.raises(type(whole.value)) as window:
                    load_raster(path, slice(r0, r1))
        assert str(window.value) == str(whole.value)

    @pytest.mark.parametrize("rows", [slice(0, 0), slice(2, 1), slice(-1, 2), slice(0, 4), slice(0, 2, 2)])
    def test_a_window_off_the_grid_is_a_bounds_error(self, tmp_path, rows):
        path = write_container(tmp_path, minimal_header(width=2, height=3), b"\0" * 48)
        with pytest.raises(BoundsError):
            load_raster(path, rows)

    def test_a_payload_that_shrinks_after_its_size_is_read_is_short(self, tmp_path):
        path = write_container(tmp_path, minimal_header(width=2, height=3), b"\0" * 48)
        fstat = os.fstat

        def shrinking(fd):
            stat = fstat(fd)
            os.truncate(tmp_path / "scene.rbin", 30)
            return stat

        with mock.patch.object(raster_core.os, "fstat", shrinking):
            with pytest.raises(PayloadSizeError, match="holds 30 bytes, expected 48"):
                load_raster(path, slice(1, 3))
