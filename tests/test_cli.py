import contextlib
import io
import json
import math
import resource
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from palmwatch.annotations import load_annotations
from palmwatch.augment import AugmentSpec, FlipHOp, GaussianNoiseOp, spec_to_json
from palmwatch import cli
from palmwatch.cli import PipelineConfig, build_parser, config_from, main, run_pipeline
from palmwatch.crown_detect import DetectorConfig
from palmwatch.pixel_model import ModelParams, TrainConfig, save_params
from palmwatch.raster_core import MaskedGrid, load_raster, save_raster
from palmwatch.synth_scene import SceneSpec, spec_to_json as scene_spec_to_json
from palmwatch.tiling import DEFAULT_TILE_SIZE, tile_plan

from conftest import random_raster


def small_scene_spec(seed):
    return SceneSpec(
        width=220,
        height=220,
        counts={"healthy": 5, "smallish": 3, "dead": 3},
        seed=seed,
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synth scenes, a trained model, and pipeline outputs shared by tests."""
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "scene_spec.json"
    spec_path.write_text(scene_spec_to_json(small_scene_spec(0)))
    scene_paths = []
    for i in range(3):
        out = root / f"s{i}"
        assert main(["synth", str(out), "--spec", str(spec_path), "--seed", str(100 + i)]) == 0
        scene_paths.append(out / "scene.rhdr")
    model = root / "model.json"
    code = main(
        ["train", str(scene_paths[0]), str(scene_paths[1]), "--out", str(model), "--epochs", "60"]
    )
    assert code == 0
    return {"root": root, "scenes": scene_paths, "model": model, "spec": spec_path}


class TestSynth:
    def test_outputs_exist(self, workspace):
        scene_dir = workspace["scenes"][0].parent
        assert (scene_dir / "scene.rhdr").is_file()
        assert (scene_dir / "scene.rbin").is_file()
        ann = load_annotations(scene_dir / "scene.json")
        assert len(ann) == 11

    def test_seed_changes_scene(self, workspace, tmp_path):
        assert main(["synth", str(tmp_path), "--spec", str(workspace["spec"]), "--seed", "100"]) == 0
        a = load_raster(workspace["scenes"][0])
        b = load_raster(tmp_path / "scene.rhdr")
        np.testing.assert_array_equal(a.band("nir").samples, b.band("nir").samples)


class TestIndexCommand:
    def test_index_and_stats(self, workspace, tmp_path, capsys):
        scene = workspace["scenes"][0]
        ann = scene.parent / "scene.json"
        stats_out = tmp_path / "stats.csv"
        code = main(
            [
                "index",
                str(scene),
                str(tmp_path / "ndvi"),
                "--veg-mask",
                str(tmp_path / "veg"),
                "--annotations",
                str(ann),
                "--stats-out",
                str(stats_out),
            ]
        )
        assert code == 0
        assert (tmp_path / "ndvi.rhdr").is_file()
        veg = load_raster(tmp_path / "veg")
        assert set(np.unique(veg.band("veg_mask").samples)) <= {0.0, 1.0}
        lines = stats_out.read_text().strip().splitlines()
        assert lines[0].startswith("class,index,count")
        assert len(lines) == 4  # header + 3 classes


class TestTileCommand:
    def test_tiles_written(self, workspace, tmp_path):
        code = main(
            ["tile", str(workspace["scenes"][0]), str(tmp_path), "--tile-size", "128"]
        )
        assert code == 0
        names = sorted(p.name for p in tmp_path.glob("*.rhdr"))
        assert names == ["tile_0_0.rhdr", "tile_0_1.rhdr", "tile_1_0.rhdr", "tile_1_1.rhdr"]
        tile = load_raster(tmp_path / "tile_1_1.rhdr")
        assert tile.origin == (128, 128)


class TestAugmentCommand:
    def test_augments_directory(self, workspace, tmp_path):
        in_dir = tmp_path / "in"
        out_dir = tmp_path / "out"
        in_dir.mkdir()
        code = main(["tile", str(workspace["scenes"][0]), str(in_dir), "--tile-size", "128"])
        assert code == 0
        # give one tile annotations to carry along
        ann_src = workspace["scenes"][0].parent / "scene.json"
        (in_dir / "tile_0_0.json").write_text(ann_src.read_text())
        spec = AugmentSpec(operations=(FlipHOp(), GaussianNoiseOp(sigma=0.01)), seed=3)
        spec_path = tmp_path / "aug.json"
        spec_path.write_text(spec_to_json(spec))
        assert main(["augment", str(in_dir), str(out_dir), "--spec", str(spec_path)]) == 0
        assert len(list(out_dir.glob("*.rhdr"))) == 4
        assert (out_dir / "tile_0_0.json").is_file()

    def test_augment_deterministic(self, workspace, tmp_path):
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        main(["tile", str(workspace["scenes"][0]), str(in_dir), "--tile-size", "220"])
        spec_path = tmp_path / "aug.json"
        spec_path.write_text(spec_to_json(AugmentSpec(operations=(GaussianNoiseOp(0.02),), seed=9)))
        for name in ("a", "b"):
            assert main(["augment", str(in_dir), str(tmp_path / name), "--spec", str(spec_path)]) == 0
        assert (tmp_path / "a" / "tile_0_0.rbin").read_bytes() == (
            tmp_path / "b" / "tile_0_0.rbin"
        ).read_bytes()


class TestPredictDetectEval:
    def test_stage_by_stage(self, workspace, tmp_path, capsys):
        scene = workspace["scenes"][2]
        truth = scene.parent / "scene.json"
        prob = tmp_path / "prob"
        code = main(
            ["predict", str(scene), "--model", str(workspace["model"]), "--out", str(prob)]
        )
        assert code == 0
        dets = tmp_path / "dets"
        code = main(["detect", str(prob) + ".rhdr", str(scene), "--out", str(dets)])
        assert code == 0
        assert (tmp_path / "dets.geojson").is_file()
        assert (tmp_path / "dets.csv").is_file()
        code = main(
            [
                "eval",
                str(tmp_path / "dets.geojson"),
                str(truth),
                "--out",
                str(tmp_path / "run"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "precision" in out
        assert (tmp_path / "run_metrics.csv").is_file()
        payload = json.loads((tmp_path / "run_metrics.json").read_text())
        assert payload["accuracy"] > 0.8


class TestPipeline:
    def run(self, workspace, out_dir, extra=()):
        scene = workspace["scenes"][2]
        truth = scene.parent / "scene.json"
        return main(
            [
                "pipeline",
                "--scene",
                str(scene),
                "--model",
                str(workspace["model"]),
                "--truth",
                str(truth),
                "--out",
                str(out_dir),
                "--tile-size",
                "128",
                "--overlap",
                "32",
                *extra,
            ]
        )

    def test_writes_all_outputs(self, workspace, tmp_path):
        assert self.run(workspace, tmp_path / "run") == 0
        out = tmp_path / "run"
        for name in (
            "manifest.json",
            "veg_mask.rhdr",
            "probability.rhdr",
            "detections.geojson",
            "detections.csv",
            "metrics.csv",
            "metrics.json",
            "eval.json",
        ):
            assert (out / name).is_file(), name
        evaluation = json.loads((out / "eval.json").read_text())
        assert evaluation["detection"]["recall"] > 0.9
        metrics = json.loads((out / "metrics.json").read_text())
        assert "macro" in metrics
        csv_rows = (out / "metrics.csv").read_text().splitlines()
        macro_row = [r for r in csv_rows if r.startswith("macro,")]
        assert len(macro_row) == 1 and len(macro_row[0].split(",")) >= 4

    def test_rerun_byte_identical(self, workspace, tmp_path):
        assert self.run(workspace, tmp_path / "one") == 0
        assert self.run(workspace, tmp_path / "two") == 0
        for name in ("detections.geojson", "detections.csv", "metrics.csv", "probability.rbin"):
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "two" / name
            ).read_bytes(), name

    def test_jobs_do_not_change_outputs(self, workspace, tmp_path):
        assert self.run(workspace, tmp_path / "j1", ("--jobs", "1")) == 0
        assert self.run(workspace, tmp_path / "j4", ("--jobs", "4")) == 0
        for name in ("detections.geojson", "detections.csv", "probability.rbin"):
            assert (tmp_path / "j1" / name).read_bytes() == (
                tmp_path / "j4" / name
            ).read_bytes(), name

    def test_config_rerun_identical(self, workspace, tmp_path):
        assert self.run(workspace, tmp_path / "orig") == 0
        manifest = tmp_path / "orig" / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload["config"]["out_dir"] = str(tmp_path / "replay")
        replay_manifest = tmp_path / "replay_manifest.json"
        replay_manifest.write_text(json.dumps(payload))
        assert main(["pipeline", "--config", str(replay_manifest)]) == 0
        assert (tmp_path / "orig" / "detections.geojson").read_bytes() == (
            tmp_path / "replay" / "detections.geojson"
        ).read_bytes()

    def test_default_config_evaluates_each_pixel_once(self, tmp_path, monkeypatch):
        size = DEFAULT_TILE_SIZE + 1  # 2x2 tiles at the default tile size
        raster = random_raster(np.random.default_rng(3), size, size)
        save_raster(raster, tmp_path / "scene")
        # probability ~0.007 everywhere: nothing to detect, so the run stays quick
        params = ModelParams(("red", "nir"), np.zeros(2), -5.0, np.zeros(2), np.ones(2))
        save_params(params, tmp_path / "model.json")
        evaluated = []
        coverage = np.zeros((size, size), dtype=int)
        predict_map = cli.predict_map

        def spy(tile, mask, params):
            evaluated.append(tile.width * tile.height)
            x, y = tile.origin
            coverage[y : y + tile.height, x : x + tile.width] += 1
            return predict_map(tile, mask, params)

        monkeypatch.setattr(cli, "predict_map", spy)
        config = PipelineConfig(
            scene_path=str(tmp_path / "scene.rhdr"),
            model_path=str(tmp_path / "model.json"),
            out_dir=str(tmp_path / "run"),
        )
        run_pipeline(config)
        plan = tile_plan(size, size, config.tile_size, config.overlap)
        assert len(plan.windows) == len(evaluated) == 4
        assert sum(evaluated) == len(plan.windows) * DEFAULT_TILE_SIZE**2
        assert (coverage == 1).all()

    def test_missing_model_is_config_error(self, workspace, tmp_path, capsys):
        code = main(
            [
                "pipeline",
                "--scene",
                str(workspace["scenes"][0]),
                "--model",
                str(tmp_path / "missing.json"),
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 2
        assert "model" in capsys.readouterr().err
        assert not (tmp_path / "x" / "probability.rhdr").exists()

    def test_config_conflicts_with_flags(self, workspace, tmp_path):
        code = main(
            [
                "pipeline",
                "--config",
                "whatever.json",
                "--scene",
                str(workspace["scenes"][0]),
            ]
        )
        assert code == 2


class TestExitCodes:
    def test_corrupt_scene_is_data_error(self, tmp_path, workspace):
        bad = tmp_path / "bad.rhdr"
        bad.write_text("{\"width\": 2}")
        (tmp_path / "bad.rbin").write_bytes(b"")
        code = main(["index", str(bad), str(tmp_path / "out")])
        assert code == 3

    def test_truncated_payload_is_data_error(self, tmp_path, workspace):
        scene = workspace["scenes"][0]
        header = (tmp_path / "trunc.rhdr")
        header.write_text(scene.read_text())
        payload = scene.with_suffix(".rbin").read_bytes()
        (tmp_path / "trunc.rbin").write_bytes(payload[:-4])
        assert main(["index", str(header), str(tmp_path / "out")]) == 3

    def test_bad_parameter_is_config_error(self, workspace, tmp_path):
        code = main(
            ["tile", str(workspace["scenes"][0]), str(tmp_path), "--tile-size", "64", "--overlap", "64"]
        )
        assert code == 2

    # Both requests need far more address space than exists (PiB, TiB),
    # so numpy fails at once without touching memory.
    def test_oversized_annotation_is_out_of_memory(self, workspace, tmp_path, capsys):
        ann = tmp_path / "ann.json"
        ann.write_text(json.dumps(
            {"crowns": [{"id": 1, "class": "healthy", "cx": 5.0, "cy": 5.0, "radius_px": 1e7}]}
        ))
        code = main(["index", str(workspace["scenes"][0]), str(tmp_path / "ndvi"), "--annotations", str(ann)])
        assert code == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("out of memory")

    def test_oversized_tile_is_out_of_memory(self, workspace, tmp_path, capsys):
        code = main([
            "predict", str(workspace["scenes"][0]), "--model", str(workspace["model"]),
            "--out", str(tmp_path / "prob"), "--tile-size", "10000000",
        ])
        assert code == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("out of memory")

    def test_negative_synth_seed_is_config_error(self, workspace, tmp_path):
        assert main(["synth", str(tmp_path), "--spec", str(workspace["spec"]), "--seed", "-1"]) == 2

    def test_argparse_unknown_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["synth", "out", "--bogus"])
        assert err.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0


class TestFlagDefaults:
    def parse(self, *argv):
        return build_parser().parse_args(list(argv))

    def test_pipeline_defaults_are_the_config_defaults(self):
        args = self.parse("pipeline", "--scene", "s", "--model", "m", "--out", "o")
        assert config_from(PipelineConfig, args) == PipelineConfig("s", "m", "o")

    def test_detect_defaults_are_the_detector_defaults(self):
        args = self.parse("detect", "p.rhdr", "s.rhdr", "--out", "o")
        assert config_from(DetectorConfig, args) == DetectorConfig()

    def test_train_defaults_are_the_train_defaults(self):
        args = self.parse("train", "s.rhdr", "--out", "m.json")
        assert config_from(TrainConfig, args) == TrainConfig()

    def test_flags_reach_their_fields(self):
        args = self.parse(
            "pipeline", "--scene", "s", "--model", "m", "--out", "o", "--truth", "t",
            "--smallish-diameter", "9", "--max-dist", "4", "--veg-index", "gndvi", "--veg-gate",
        )
        assert config_from(PipelineConfig, args) == PipelineConfig(
            "s", "m", "o", truth_path="t", smallish_diameter_px=9.0,
            match_max_dist=4.0, veg_index="gndvi", veg_gate=True,
        )


class TestBadGridsAndModels:
    @pytest.mark.parametrize(
        "shape, origin", [((240, 220), (0, 0)), ((220, 220), (4, 0))], ids=["larger", "shifted"]
    )
    def test_detect_grid_must_match_scene(self, workspace, tmp_path, capsys, shape, origin):
        grid = MaskedGrid(np.full(shape, 0.9, np.float32), np.ones(shape, bool))
        save_raster(grid.to_raster(origin=origin), tmp_path / "prob")
        code = main(
            ["detect", str(tmp_path / "prob.rhdr"), str(workspace["scenes"][0]), "--out", str(tmp_path / "d")]
        )
        assert code == 3
        assert "does not cover the scene" in capsys.readouterr().err
        assert not (tmp_path / "d.geojson").exists()

    def test_non_finite_model_weight_is_data_error(self, workspace, tmp_path, capsys):
        payload = json.loads(workspace["model"].read_text())
        payload["weights"][0] = math.nan
        model = tmp_path / "nan_model.json"
        model.write_text(json.dumps(payload))
        code = main(
            ["pipeline", "--scene", str(workspace["scenes"][2]), "--model", str(model), "--out", str(tmp_path / "run")]
        )
        assert code == 3
        assert "nan_model.json" in capsys.readouterr().err
        assert not (tmp_path / "run" / "detections.geojson").exists()


# A valid document for each loader site; the fuzz test below also feeds
# copies with one value swapped for arbitrary JSON.
_VALID_DOCS = {
    "annotations": {"crowns": [{"id": 1, "class": "healthy", "cx": 5.0, "cy": 5.0, "radius_px": 3.0}]},
    "detections": {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [5.0, 5.0]},
                "properties": {
                    "id": 1, "class": "healthy", "score": 0.9, "diameter_px": 6.0,
                    "pixel_count": 28, "bbox": [3, 3, 7, 7], "mean_ndvi": 0.5, "mean_gndvi": 0.4,
                },
            }
        ],
    },
    # scale is left out: a valid factor of a few hundred legitimately
    # allocates gigabytes, which is not what this test is about
    "augment spec": {
        "seed": 1,
        "operations": [
            {"op": "crop", "size": 12}, {"op": "gaussian_noise", "sigma": 0.01},
            {"op": "gamma", "lo": 0.8, "hi": 1.2}, {"op": "flip_h"}, {"op": "flip_v"},
        ],
    },
    # the scene path does not exist, so a manifest that passes validation
    # still stops before any work
    "pipeline config": {"config": {"scene_path": "missing.rhdr", "model_path": "m.json", "out_dir": "o", "tile_size": 16}},
    "model params": {
        "features": ["red", "nir", "ndvi"], "weights": [0.5, 1.0, 2.0], "bias": -1.0,
        "norm": {"mean": [0.1, 0.4, 0.3], "std": [0.1, 0.2, 0.3]},
    },
    "scene spec": {
        "width": 48, "height": 48, "counts": {"healthy": 1, "smallish": 1, "dead": 0},
        "min_spacing": 1.0, "seed": 3,
    },
    # the header of the 16x16 three-band scene the raster payload holds
    "raster header": {
        "width": 16, "height": 16, "dtype": "f32le", "layout": "band-sequential",
        "nodata": None, "origin": [0, 0],
        "bands": [{"name": n, "wavelength_nm": None} for n in ("red", "green", "nir")],
    },
}

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10,
)


def _swap_one_value(draw, doc):
    if not isinstance(doc, (dict, list)) or not doc or draw(st.booleans()):
        return draw(_json_values)
    doc = dict(doc) if isinstance(doc, dict) else list(doc)
    key = draw(st.sampled_from(sorted(doc) if isinstance(doc, dict) else range(len(doc))))
    doc[key] = _swap_one_value(draw, doc[key])
    return doc


@st.composite
def _loader_inputs(draw):
    """A site and what its file holds: a mutated valid document, any JSON, or any bytes."""
    site = draw(st.sampled_from(sorted(_VALID_DOCS)))
    kind = draw(st.sampled_from(("mutated", "json", "bytes")))
    if kind == "mutated":
        return site, _swap_one_value(draw, _VALID_DOCS[site])
    if kind == "json":
        return site, draw(_json_values)
    return site, draw(st.binary(max_size=64))


@pytest.fixture(scope="module")
def loader_sites(tmp_path_factory):
    """The file each loader site reads and the command that reads it, on a 16x16 scene."""
    root = tmp_path_factory.mktemp("loaders")
    raster = random_raster(np.random.default_rng(5), 16, 16, band_names=("red", "green", "nir"))
    (root / "tiles").mkdir()
    save_raster(raster, root / "scene")
    save_raster(raster, root / "tiles" / "t")
    save_raster(raster, root / "header")
    (root / "tiles" / "t.json").write_text(json.dumps(_VALID_DOCS["annotations"]))
    (root / "truth.json").write_text(json.dumps(_VALID_DOCS["annotations"]))
    (root / "dets.geojson").write_text(json.dumps(_VALID_DOCS["detections"]))
    doc = root / "doc.json"
    header = root / "header.rhdr"
    return {
        "annotations": (doc, ["eval", str(root / "dets.geojson"), str(doc)]),
        "detections": (doc, ["eval", str(doc), str(root / "truth.json")]),
        "augment spec": (doc, ["augment", str(root / "tiles"), str(root / "aug"), "--spec", str(doc)]),
        "pipeline config": (doc, ["pipeline", "--config", str(doc)]),
        "model params": (doc, [
            "pipeline", "--scene", str(root / "scene.rhdr"), "--model", str(doc),
            "--out", str(root / "run"), "--tile-size", "16", "--overlap", "0",
        ]),
        "scene spec": (doc, ["synth", str(root / "synth"), "--spec", str(doc)]),
        "raster header": (header, ["index", str(header), str(root / "ndvi")]),
    }


@contextlib.contextmanager
def _address_space_cap(headroom=256 << 20):
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


def _run_on(loader_sites, site, doc):
    """Write ``doc`` (bytes, or a value to encode as JSON) to the site's file and run its command."""
    path, argv = loader_sites[site]
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        with _address_space_cap():
            code = main(argv)
    return code, err.getvalue().strip().splitlines()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_loader_inputs())
def test_any_loader_document_exits_cleanly(loader_sites, case):
    """Whatever file a loader reads, main() returns 0, 2 or 3 and raises nothing.

    Optional fields (an augment or scene spec's are) can make a document
    valid, so 0 is allowed; every failure is one line on stderr.
    """
    code, err = _run_on(loader_sites, *case)
    assert code in (0, 2, 3)
    if code:
        assert len(err) == 1


@pytest.mark.parametrize(
    "site, doc, expected",
    [
        ("annotations", {"crowns": [{"id": "x", "class": "healthy", "cx": 1, "cy": 1, "radius_px": 1}]}, 3),
        ("annotations", {"crowns": [{"id": 1, "class": "healthy", "cx": None, "cy": 1, "radius_px": 1}]}, 3),
        ("augment spec", [], 3),
        ("detections", [], 3),
        ("pipeline config", [], 2),
        ("pipeline config", {"config": {**_VALID_DOCS["pipeline config"]["config"], "scene_path": 7}}, 2),
        ("model params", {**_VALID_DOCS["model params"], "weights": [math.nan, 1.0, 2.0]}, 3),
        ("model params", {**_VALID_DOCS["model params"], "features": [1, "red", "nir"]}, 3),
        *((site, b"\xff\xfe{\x80}", 2 if site == "pipeline config" else 3) for site in sorted(_VALID_DOCS)),
        ("scene spec", b'{"width": 1e400}', 3),
        # with no crowns to place, width 1 (True) used to write a 1-px-wide scene
        ("scene spec", {"width": True, "counts": {"healthy": 0, "smallish": 0, "dead": 0}}, 3),
        ("scene spec", {**_VALID_DOCS["scene spec"], "widht": 48}, 3),
        ("scene spec", {**_VALID_DOCS["scene spec"], "background": {"red": math.nan}}, 2),
        ("augment spec", {"operations": [{"op": "crop", "size": 12.5}]}, 3),
        # used to warn of an overflow, write a mostly non-finite scene and exit 0
        ("scene spec", {"width": 48, "height": 48, "counts": {"healthy": 1, "smallish": 0, "dead": 0}, "noise_sigma": 1e300}, 2),
    ],
)
def test_malformed_documents_exit_with_their_code(loader_sites, site, doc, expected):
    code, err = _run_on(loader_sites, site, doc)
    assert code == expected
    assert len(err) == 1
