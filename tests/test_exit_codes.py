"""The exit-code contract, for any scene a command may be given.

Every subcommand runs through ``cli.main`` on small scenes whose samples
are partly drawn from a pool of extremes, under a drawn nodata setting,
with crown annotations that may lie far off the grid or be far larger
than it. Whatever the input, ``main`` returns 0, 2, 3 or 4, raises
nothing (warnings are errors), prints exactly one stderr line when it
fails, and a failed ``augment`` leaves no file behind.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from palmwatch.annotations import CLASS_LABELS, AnnotationSet, CrownAnnotation, save_annotations
from palmwatch.cli import main
from palmwatch.pixel_model import ModelParams, save_params
from palmwatch.raster_core import Band, Raster, save_raster

from conftest import address_space_cap

BANDS = ("red", "green", "blue", "nir")
NODATA_SETTINGS = (None, -9999.0, 0.0, float("nan"))
EXTREMES = (0.0, -0.0, np.inf, -np.inf, np.nan, 3.4e38, -3.4e38, 1e-45, -1e-45, 1e-40, -0.5, -2.0)
FAR_COORDS = (-1e300, -1e30, -1e7, 1e7, 1e30, 1e300)
HUGE_RADII = (1e7, 1e20, 1e300)


@st.composite
def crowns(draw, width, height, clean):
    """0-3 crowns; unless ``clean``, a centre may lie far off the grid
    and a radius may dwarf it."""
    out = []
    for i in range(draw(st.integers(0, 3))):
        cx = draw(st.floats(0, width - 1))
        cy = draw(st.floats(0, height - 1))
        radius = draw(st.floats(0.5, 6))
        if not clean:
            cx = draw(st.sampled_from((cx,) + FAR_COORDS))
            cy = draw(st.sampled_from((cy,) + FAR_COORDS))
            radius = draw(st.sampled_from((radius,) + HUGE_RADII))
        out.append(
            CrownAnnotation(id=i, class_label=draw(st.sampled_from(CLASS_LABELS)), cx=cx, cy=cy, radius_px=radius)
        )
    return AnnotationSet(tuple(out))


@st.composite
def cases(draw):
    """A scene of at most 96x96, its crowns, a tile size and whether the
    scene is clean: no extreme sample and every crown on the grid."""
    clean = draw(st.booleans())
    # a clean scene is big enough that its crop survives scaling by 0.5
    width, height = (draw(st.integers(4 if clean else 1, 96)) for _ in range(2))
    nodata = draw(st.sampled_from(NODATA_SETTINGS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    share = 0.0 if clean else draw(st.sampled_from([0.01, 0.1, 0.5, 1.0]))
    pool = np.array(EXTREMES + ((nodata,) if nodata is not None else ()), np.float32)
    bands = []
    for name in BANDS:
        # reflectances far above 0, so augment's noise never clamps one to a nodata 0
        samples = rng.uniform(0.5, 1.0, (height, width)).astype(np.float32)
        spots = rng.random((height, width)) < share
        samples[spots] = rng.choice(pool, int(spots.sum()))
        bands.append(Band(name=name, samples=samples))
    scene = Raster(bands=tuple(bands), nodata_value=nodata)
    tile_size = draw(st.integers(1, 100))
    return scene, draw(crowns(width, height, clean)), tile_size, clean


def augment_spec(scene):
    """Every augment op once, with a crop that fits the scene."""
    return {
        "seed": 7,
        "operations": [
            {"op": "crop", "size": max(1, min(scene.width, scene.height) * 3 // 4)},
            {"op": "gaussian_noise", "sigma": 0.01},
            {"op": "gamma", "lo": 0.8, "hi": 1.2},
            {"op": "flip_h"},
            {"op": "flip_v"},
            {"op": "scale", "lo": 0.5, "hi": 2.0},
        ],
    }


@pytest.fixture(scope="module")
def shared(tmp_path_factory):
    """A fixed model on every band and both indices, and a small scene spec."""
    root = tmp_path_factory.mktemp("exit_codes")
    n = len(BANDS) + 2
    model = ModelParams(
        features=BANDS + ("ndvi", "gndvi"),
        weights=np.array([-2.0, -1.0, 0.5, 3.0, 4.0, 1.0]),
        bias=-1.0,
        norm_mean=np.full(n, 0.3),
        norm_std=np.full(n, 0.2),
    )
    save_params(model, root / "model.json")
    spec = {"width": 48, "height": 40, "counts": {"healthy": 2, "smallish": 1, "dead": 1}, "min_spacing": 2.0}
    (root / "synth_spec.json").write_text(json.dumps(spec))
    return root


def run(argv):
    """main's exit code and stderr lines, with warnings as errors."""
    err = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            with address_space_cap():
                code = main(argv)
    return code, err.getvalue().strip().splitlines()


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=cases())
def test_every_command_keeps_the_exit_code_contract(shared, case):
    scene, ann, tile_size, clean = case
    with tempfile.TemporaryDirectory(dir=shared) as tmp:
        root = Path(tmp)
        (root / "tiles").mkdir()
        for stem in (root / "scene", root / "tiles" / "t"):
            save_raster(scene, stem)
            save_annotations(ann, stem.with_suffix(".json"))
        (root / "spec.json").write_text(json.dumps(augment_spec(scene)))
        s, t, model = str(root / "scene.rhdr"), str(tile_size), str(shared / "model.json")
        commands = {
            "index": ["index", s, str(root / "ndvi"), "--veg-mask", str(root / "veg"),
                      "--annotations", str(root / "scene.json"), "--stats-out", str(root / "stats.csv")],
            "tile": ["tile", s, str(root / "tiled"), "--tile-size", t],
            "augment": ["augment", str(root / "tiles"), str(root / "aug"), "--spec", str(root / "spec.json")],
            "synth": ["synth", str(root / "synth"), "--spec", str(shared / "synth_spec.json")],
            "train": ["train", s, "--out", str(root / "trained.json")],
            "predict": ["predict", s, "--model", model, "--out", str(root / "prob")],
            "detect": ["detect", str(root / "prob.rhdr"), s, "--out", str(root / "dets")],
            "eval": ["eval", str(root / "dets.geojson"), str(root / "scene.json"), "--out", str(root / "metrics")],
            "pipeline": ["pipeline", "--scene", s, "--model", model, "--out", str(root / "run"),
                         "--truth", str(root / "scene.json")],
        }
        codes, errs = {}, {}
        for name, argv in commands.items():
            code, err = run(argv)
            codes[name], errs[name] = code, err
            assert code in (0, 2, 3, 4), (name, code, err)
            if code:
                assert len(err) == 1, (name, err)
        if codes["augment"]:
            assert not any((root / "aug").rglob("*"))
        if clean:
            # a clean scene takes augment's success path
            assert codes["augment"] == 0, errs["augment"]
            assert len(list((root / "aug").glob("t.*"))) == 3
