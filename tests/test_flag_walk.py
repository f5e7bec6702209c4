"""Every optional flag of every subcommand takes effect or exits 2.

The walk reads ``build_parser()``, so a new subcommand or flag fails
``test_every_flag_is_classified`` until it is listed in ``walk`` (with
runs that show its effect) or in ``EXEMPT`` (with the reason). Each case
runs a command on a tiny scene without and with the flag, given a
non-default value; the run with it must either exit 2, having written
nothing, or write outputs (every file but ``manifest.json``, and what
it prints) that differ from the run without it. A case's context
holds the other flags the flag acts with, such as the ``--veg-mask``
that ``--veg-threshold`` sets the threshold of.
"""

import contextlib
import io
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from palmwatch.annotations import AnnotationSet, CrownAnnotation, save_annotations
from palmwatch.cli import PipelineConfig, build_parser, main
from palmwatch.pixel_model import ModelParams, save_params
from palmwatch.raster_core import Band, Raster, save_raster
from palmwatch.synth_scene import SceneSpec, spec_to_json

# flags every run of the command names, which the walk does not vary
EXEMPT = {
    ("pipeline", "--scene"): "every run names the scene; without it (or --config) pipeline exits 2",
    ("pipeline", "--model"): "every run names the model; without it (or --config) pipeline exits 2",
    ("pipeline", "--out"): "every run names its output directory; without it (or --config) pipeline exits 2",
}


def tiny_spec(healthy):
    return SceneSpec(width=96, height=64, counts={"healthy": healthy, "dead": 1}, min_spacing=2.0)


def twin_crowns():
    """A 96x64 scene of two overlapping cone-shaped crowns 22 px apart,
    and the annotations of both: one component with two peaks, so that
    the split settings take effect. The crowns' annotated radius is
    small, so that training samples the background."""
    ys, xs = np.mgrid[0:64, 0:96]
    centres = ((36.0, 32.0), (58.0, 32.0))
    cone = np.max([np.clip(1 - np.hypot(xs - cx, ys - cy) / 20, 0, None) for cx, cy in centres], axis=0)
    bands = {"red": np.full((64, 96), 0.1), "green": np.full((64, 96), 0.12), "blue": np.full((64, 96), 0.05), "nir": 0.2 + 0.6 * cone}
    raster = Raster(tuple(Band(name, samples.astype(np.float32)) for name, samples in bands.items()))
    crowns = AnnotationSet(tuple(CrownAnnotation(n, "healthy", cx, cy, 8.0) for n, (cx, cy) in enumerate(centres)))
    return raster, crowns


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The twin-crown scene with its crowns, a model of its NIR alone,
    the model's map and detections, tiles and an augment spec, two scene
    specs and a manifest."""
    root = tmp_path_factory.mktemp("flag_walk")
    scene, truth, model = root / "scene.rhdr", root / "scene.json", root / "model.json"
    raster, crowns = twin_crowns()
    save_raster(raster, scene)
    save_annotations(crowns, truth)
    # probability sigmoid((nir - 0.4) / 0.1): above 0.5 within 2/3 of a cone's radius
    save_params(ModelParams(("nir",), np.array([1.0]), 0.0, np.array([0.4]), np.array([0.1])), model)
    (root / "spec_a.json").write_text(spec_to_json(tiny_spec(2)))
    (root / "spec_b.json").write_text(spec_to_json(tiny_spec(1)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["predict", str(scene), "--model", str(model), "--out", str(root / "prob")]) == 0
        # split, so that each crown is matched
        assert main(["detect", str(root / "prob.rhdr"), str(scene), "--out", str(root / "det"), "--max-area", "300"]) == 0
        assert main(["tile", str(scene), str(root / "tiles"), "--tile-size", "64"]) == 0
    spec = {"seed": 7, "operations": [{"op": "crop", "size": 48}, {"op": "gaussian_noise", "sigma": 0.01}]}
    (root / "augment.json").write_text(json.dumps(spec))
    config = PipelineConfig(scene_path=str(scene), model_path=str(model), out_dir=str(root / "run"))
    (root / "manifest.json").write_text(json.dumps(config.to_manifest()))
    return root


def walk(i, out):
    """command -> (the arguments of its every run, {flag: [(context, flag arguments), ...]}).
    ``i`` holds the inputs and ``out`` is the empty directory a run writes in."""
    scene, truth, model = i / "scene.rhdr", i / "scene.json", i / "model.json"
    split = ["--max-area", "300"]  # so that the twin crowns are split
    detector = {
        "--prob-threshold": [([], ["--prob-threshold", "0.9"])],
        "--min-area": [([], ["--min-area", "2000"])],
        "--max-area": [([], split)],
        # a window wider than the crowns' distance finds one peak
        "--split-min-distance": [(split, ["--split-min-distance", "30"])],
        "--smallish-diameter": [([], ["--smallish-diameter", "40"])],
        "--dead-ndvi-max": [([], ["--dead-ndvi-max", "0.9"])],
    }
    spec_a = ["--spec", i / "spec_a.json"]
    return {
        "index": ([scene, out / "ndvi"], {
            "--index": [([], ["--index", "gndvi"])],
            "--veg-mask": [([], ["--veg-mask", out / "veg"])],
            "--veg-threshold": [([], ["--veg-threshold", "0.5"]), (["--veg-mask", out / "veg"], ["--veg-threshold", "0.5"])],
            "--annotations": [([], ["--annotations", truth])],
            "--stats-out": [([], ["--stats-out", out / "stats.csv"]), (["--annotations", truth], ["--stats-out", out / "stats.csv"])],
        }),
        "tile": ([scene, out / "tiles"], {
            "--tile-size": [([], ["--tile-size", "40"])],
            # at the default tile size the scene is one tile, which no overlap changes
            "--overlap": [(["--tile-size", "40"], ["--overlap", "10"])],
        }),
        "augment": ([i / "tiles", out / "aug", "--spec", i / "augment.json"], {
            "--seed": [([], ["--seed", "9"])],
        }),
        # the default scene is 4096², so each run names a tiny spec; the later --spec wins
        "synth": ([out / "scene"], {
            "--spec": [(spec_a, ["--spec", i / "spec_b.json"])],
            "--seed": [(spec_a, ["--seed", "5"])],
            "--name": [(spec_a, ["--name", "other"])],
        }),
        "train": ([scene, "--out", out / "model.json"], {
            "--seed": [([], ["--seed", "3"])],
            "--neg-ratio": [([], ["--neg-ratio", "1"])],
            "--l2": [([], ["--l2", "0.5"])],
        }),
        "predict": ([scene, "--model", model, "--out", out / "prob"], {}),
        "detect": ([i / "prob.rhdr", scene, "--out", out / "det"], detector),
        "eval": ([i / "det.geojson", truth], {
            "--out": [([], ["--out", out / "run"])],
            "--max-dist": [(["--out", out / "run"], ["--max-dist", "0.1"])],
        }),
        "pipeline": (["--scene", scene, "--model", model, "--out", out / "run"], {
            **detector,
            "--truth": [([], ["--truth", truth])],
            "--max-dist": [([], ["--max-dist", "3"]), (["--truth", truth], ["--max-dist", "1"])],
            # the manifest sets every setting, so it takes no other flag
            "--config": [([], ["--config", i / "manifest.json"])],
        }),
    }


def test_every_flag_is_classified():
    table = walk(Path(), Path())
    (sub,) = (a for a in build_parser()._actions if isinstance(a.choices, dict))
    assert set(table) == set(sub.choices)
    for command, (_, cases) in table.items():
        flags = {
            max(action.option_strings, key=len)
            for action in sub.choices[command]._actions
            if action.option_strings and not action.required and action.dest != "help"
        }
        exempt = {flag for cmd, flag in EXEMPT if cmd == command}
        assert flags == set(cases) | exempt and not set(cases) & exempt, command


def outputs(argv, out):
    """main's exit code, every file it wrote in ``out`` but
    manifest.json, with its bytes, and what it printed."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(arg) for arg in argv])
    files = {
        path.relative_to(out): path.read_bytes()
        for path in out.rglob("*")
        if path.is_file() and path.name != "manifest.json"
    }
    return code, files, printed.getvalue()


CASES = [
    (command, flag, n)
    for command, (_, cases) in walk(Path(), Path()).items()
    for flag, runs in cases.items()
    for n in range(len(runs))
]


@pytest.mark.parametrize("command, flag, n", CASES)
def test_flag_takes_effect_or_exits_2(inputs, tmp_path, command, flag, n):
    out = tmp_path / "out"
    args, cases = walk(inputs, out)[command]
    context, given = cases[flag][n]
    code, files, printed = outputs([command, *args, *context], out)
    assert code == 0, f"{command} {context} exits {code} without {flag}"
    flagged = outputs([command, *args, *context, *given], out)
    if flagged[0] == 2:
        assert flagged[1] == {}, f"{command} {flag} exits 2 after writing"
    else:
        assert flagged[0] == 0
        assert flagged[1:] != (files, printed), f"{command} {flag} changes no output"
