import contextlib
import resource
from pathlib import Path

import numpy as np
import pytest

from palmwatch.raster_core import Band, Raster


def make_raster(band_arrays: dict, nodata=None, origin=(0, 0)) -> Raster:
    bands = tuple(Band(name=name, samples=arr) for name, arr in band_arrays.items())
    return Raster(bands=bands, nodata_value=nodata, origin=origin)


def random_raster(rng, width, height, band_names=("red", "nir"), nodata=None) -> Raster:
    bands = tuple(
        Band(name=name, samples=rng.random((height, width), dtype=np.float32))
        for name in band_names
    )
    return Raster(bands=bands, nodata_value=nodata)


@pytest.fixture
def rng():
    return np.random.default_rng(20240803)


@contextlib.contextmanager
def address_space_cap(headroom=256 << 20):
    """Let the process map at most ``headroom`` more bytes than it maps now.

    A fuzzed size that is valid but huge (a 2000000x48 scene spec, say)
    then fails at allocation, as MemoryError, instead of taking the
    machine's memory. Without /proc/self/statm the run is uncapped.
    """
    statm = Path("/proc/self/statm")
    if not statm.is_file():
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = int(statm.read_text().split()[0]) * resource.getpagesize() + headroom
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
