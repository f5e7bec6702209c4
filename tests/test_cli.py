import contextlib
import io
import json
import math
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from palmwatch.annotations import AnnotationSet, CrownAnnotation, load_annotations, save_annotations
from palmwatch.augment import AugmentSpec, FlipHOp, GaussianNoiseOp, spec_to_json
from palmwatch import cli, raster_core
from palmwatch.cli import PipelineConfig, build_parser, config_from, main, run_pipeline
from palmwatch.crown_detect import DetectorConfig
from palmwatch.indices import compute_index
from palmwatch.pixel_model import ModelParams, TrainConfig, predict_map, save_params
from palmwatch.raster_core import Band, MaskedGrid, Raster, load_raster, save_raster
from palmwatch.synth_scene import SceneSpec, generate_scene, spec_to_json as scene_spec_to_json
from palmwatch.tiling import DEFAULT_TILE_SIZE, tile_plan

from conftest import address_space_cap, random_raster


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

    def test_stats_bytes_pinned(self, tmp_path, capsys):
        # the dead crown lies wholly in nodata, so its class has no valid pixels
        red = np.full((12, 12), 0.25, np.float32)
        red[:, 8:] = -9999.0
        nir = np.linspace(0.3, 0.8, 144, dtype=np.float32).reshape(12, 12)
        save_raster(Raster((Band("red", red), Band("nir", nir)), nodata_value=-9999.0), tmp_path / "s")
        ann = AnnotationSet((CrownAnnotation(1, "healthy", 3.0, 4.0, 2.0), CrownAnnotation(2, "dead", 10.0, 6.0, 1.5)))
        save_annotations(ann, tmp_path / "a.json")
        args = ["index", str(tmp_path / "s.rhdr"), str(tmp_path / "ndvi"), "--annotations", str(tmp_path / "a.json")]
        expected = (
            "class,index,count,mean,std_dev,min,q1,median,q3,max\n"
            "healthy,ndvi,13,0.31099699093745303,0.04167227220387216,0.22409117221832275,"
            "0.27521541714668274,0.3134901523590088,0.34792524576187134,0.38441669940948486\n"
            "dead,ndvi,0,,,,,,,\n"
        )
        assert main(args) == 0
        assert capsys.readouterr().out.endswith(expected)
        assert main([*args, "--stats-out", str(tmp_path / "stats.csv")]) == 0
        assert (tmp_path / "stats.csv").read_bytes() == expected.encode()


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

    def _augment_probe(self, tmp_path, capsys, raster, op):
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        save_raster(raster, in_dir / "tile")
        spec_path = tmp_path / "aug.json"
        spec_path.write_text(json.dumps({"operations": [op]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["augment", str(in_dir), str(tmp_path / "out"), "--spec", str(spec_path)])
        assert not list((tmp_path / "out").glob("*.rhdr"))
        return code, capsys.readouterr().err.splitlines()

    def test_noise_sigma_beyond_the_sample_bound_is_config_error(self, tmp_path, capsys):
        # noise of sigma 1e300 would turn most pixels into inf at the float32 cast
        raster = random_raster(np.random.default_rng(0), 64, 64, ("red", "green", "blue", "nir"))
        code, err = self._augment_probe(tmp_path, capsys, raster, {"op": "gaussian_noise", "sigma": 1e300})
        assert code == 2
        assert len(err) == 1 and "sigma" in err[0]

    def test_gamma_beyond_float32_is_data_error(self, tmp_path, capsys):
        raster = Raster(bands=(Band("red", np.full((16, 16), 2.0, np.float32)),), nodata_value=None)
        code, err = self._augment_probe(tmp_path, capsys, raster, {"op": "gamma", "lo": 200, "hi": 200})
        assert code == 3
        assert len(err) == 1 and "'red'" in err[0]

    @pytest.mark.parametrize(
        "samples, nodata, op",
        [
            (np.full((100, 100), 0.001, np.float32), 0.0, {"op": "gaussian_noise", "sigma": 0.01}),
            (np.full((8, 8), -0.0, np.float32), 0.0, {"op": "gamma", "lo": 2.0, "hi": 2.0}),
            (np.tile(np.array([0.0, 1.0], np.float32), (70, 4)), 0.5, {"op": "scale", "lo": 2.0, "hi": 2.0}),
        ],
        ids=["noise", "gamma", "scale"],
    )
    def test_valid_sample_turned_nodata_is_data_error(self, tmp_path, capsys, samples, nodata, op):
        raster = Raster(bands=(Band("red", samples),), nodata_value=nodata)
        code, err = self._augment_probe(tmp_path, capsys, raster, op)
        assert code == 3
        assert len(err) == 1 and "'red'" in err[0] and "nodata" in err[0]
        assert not list((tmp_path / "out").iterdir())

    def test_failed_run_leaves_no_tile(self, tmp_path, capsys):
        # tile a augments fine and is written before tile b fails
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        for stem, value in (("a", 0.5), ("b", 2.0)):
            save_raster(Raster(bands=(Band("red", np.full((16, 16), value, np.float32)),)), in_dir / stem)
        spec_path = tmp_path / "aug.json"
        spec_path.write_text(json.dumps({"operations": [{"op": "gamma", "lo": 200, "hi": 200}]}))
        out_dir = tmp_path / "out"
        assert main(["augment", str(in_dir), str(out_dir), "--spec", str(spec_path)]) == 3
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not list(out_dir.iterdir())

    def test_output_directory_must_differ_from_input(self, tmp_path, capsys):
        # a failed run deletes what it wrote, which would be the input tiles
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        save_raster(Raster(bands=(Band("red", np.full((16, 16), 0.5, np.float32)),)), in_dir / "a")
        before = {p.name: p.read_bytes() for p in in_dir.iterdir()}
        spec_path = tmp_path / "aug.json"
        spec_path.write_text(json.dumps({"operations": [{"op": "flip_h"}]}))
        assert main(["augment", str(in_dir), str(tmp_path / "." / "in"), "--spec", str(spec_path)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert {p.name: p.read_bytes() for p in in_dir.iterdir()} == before

    @pytest.mark.parametrize("how", ["flag", "spec"])
    def test_seed_outside_philox_key_range_is_config_error(self, workspace, tmp_path, capsys, how):
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        assert main(["tile", str(workspace["scenes"][0]), str(in_dir), "--tile-size", "220"]) == 0
        capsys.readouterr()
        spec_path = tmp_path / "aug.json"
        seed_args = ["--seed", "-1"] if how == "flag" else []
        spec_path.write_text(json.dumps({"seed": 0 if how == "flag" else 2**128, "operations": []}))
        out_dir = tmp_path / "out"
        assert main(["augment", str(in_dir), str(out_dir), "--spec", str(spec_path), *seed_args]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "seed" in err[0]
        assert not out_dir.exists()


class TestTrainCommand:
    def test_train_holds_one_scene_at_a_time(self, tmp_path):
        paths = []
        for i in range(4):
            raster, ann = generate_scene(
                SceneSpec(width=512, height=512, counts={"healthy": 4, "smallish": 2, "dead": 2}, seed=10 + i)
            )
            save_raster(raster, tmp_path / f"s{i}")
            save_annotations(ann, tmp_path / f"s{i}.json")
            paths.append(str(tmp_path / f"s{i}.rhdr"))
        del raster, ann

        def peak(scenes):
            tracemalloc.start()
            try:
                assert main(["train", *scenes, "--out", str(tmp_path / "m.json")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the sampled rows grow with the scene count; the scenes held must not
        assert peak(paths) <= 1.5 * peak(paths[:1])

    def test_crowns_off_every_valid_pixel_are_named(self, tmp_path, capsys):
        # the only crown lies far off the 64x64 grid: no palm row, 4,096 background pixels
        raster = random_raster(np.random.default_rng(4), 64, 64, ("red", "green", "blue", "nir"))
        save_raster(raster, tmp_path / "s")
        save_annotations(AnnotationSet((CrownAnnotation(1, "healthy", 1e30, 5.0, 4.0),)), tmp_path / "s.json")
        model = tmp_path / "m.json"
        assert main(["train", str(tmp_path / "s.rhdr"), "--out", str(model)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["data error: training needs palm pixels, but no crown covers any of the 4096 valid pixels"]
        assert not model.exists()


class TestPipelineMemory:
    @pytest.mark.parametrize("size", [1024, 2048])
    def test_peak_per_scene_byte(self, tmp_path, size):
        raster, _ = generate_scene(
            SceneSpec(width=size, height=size, counts={"healthy": 8, "smallish": 4, "dead": 4}, seed=5)
        )
        save_raster(raster, tmp_path / "scene")
        scene_bytes = sum(b.samples.nbytes for b in raster.bands)
        del raster
        names = ("red", "green", "blue", "nir", "ndvi", "gndvi")
        # crowns are where NDVI exceeds 0.5; gndvi is computed and weighs nothing
        weights = np.array([0.0, 0.0, 0.0, 0.0, 20.0, 0.0])
        save_params(ModelParams(names, weights, -10.0, np.zeros(6), np.ones(6)), tmp_path / "model.json")
        config = PipelineConfig(
            scene_path=str(tmp_path / "scene.rhdr"),
            model_path=str(tmp_path / "model.json"),
            out_dir=str(tmp_path / "run"),
            tile_size=256,  # 16 and 64 tiles
            jobs=2,  # each worker holds its own block buffers
        )
        tracemalloc.start()
        try:
            assert run_pipeline(config)["detections"] > 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 1.73 and 1.65 here: the scene, the index and masks of the
        # vegetation stage, the output, and one tile's features and map.
        # Whole-scene features and every tile map held until stitching
        # took 2.38 at both sizes.
        assert peak <= 2.0 * scene_bytes


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

    def test_one_job_starts_no_thread(self, workspace, tmp_path):
        # blocks of 1024 px, so every pixel kernel has blocks to share
        with mock.patch.object(raster_core, "BLOCK_PX", 1024):
            with mock.patch.object(ThreadPoolExecutor, "submit", autospec=True, side_effect=ThreadPoolExecutor.submit) as submit:
                assert self.run(workspace, tmp_path / "two", ("--jobs", "2")) == 0
            assert submit.called
            with (
                mock.patch.object(threading.Thread, "start", side_effect=AssertionError("a thread started")) as start,
                mock.patch.object(ThreadPoolExecutor, "submit", side_effect=AssertionError("the pool ran a task")) as submit,
            ):
                assert self.run(workspace, tmp_path / "one", ("--jobs", "1")) == 0
        start.assert_not_called()
        submit.assert_not_called()

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

        def spy(tile, mask, params, **kwargs):
            evaluated.append(tile.width * tile.height)
            x, y = tile.origin
            coverage[y : y + tile.height, x : x + tile.width] += 1
            return predict_map(tile, mask, params, **kwargs)

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

    def test_classification_reads_the_scene_bands(self, workspace, tmp_path, monkeypatch):
        # prediction reads the vegetation index joined as a band; the
        # classifier's validity must not see it
        seen = []
        classify = cli.classify_detections

        def spy(detections, raster, cfg):
            seen.append(raster.band_names)
            return classify(detections, raster, cfg)

        monkeypatch.setattr(cli, "classify_detections", spy)
        scene = workspace["scenes"][2]
        config = PipelineConfig(
            scene_path=str(scene), model_path=str(workspace["model"]), out_dir=str(tmp_path / "run")
        )
        assert run_pipeline(config)["detections"] > 0
        assert seen == [load_raster(scene).band_names]

    def test_scene_band_named_like_the_index_is_the_feature(self, workspace, tmp_path):
        # the scene's own "ndvi" band, mirrored so that it differs from the
        # index of its nir and red bands, is what the model reads
        scene = load_raster(workspace["scenes"][2])
        own = compute_index(scene, scene.valid_mask(), "ndvi").values[:, ::-1]
        with_band = Raster(
            bands=scene.bands + (Band(name="ndvi", samples=np.nan_to_num(own)),),
            nodata_value=scene.nodata_value,
        )
        save_raster(with_band, tmp_path / "scene")
        params = ModelParams(("ndvi",), np.array([20.0]), -10.0, np.zeros(1), np.ones(1))
        save_params(params, tmp_path / "model.json")
        config = PipelineConfig(
            scene_path=str(tmp_path / "scene.rhdr"),
            model_path=str(tmp_path / "model.json"),
            out_dir=str(tmp_path / "run"),
            tile_size=64,
        )
        run_pipeline(config)
        written = load_raster(tmp_path / "run" / "probability.rhdr").bands[0].samples
        expected = predict_map(with_band, with_band.valid_mask(), params).values
        np.testing.assert_array_equal(written.view(np.uint32), expected.view(np.uint32))
        derived = predict_map(scene, scene.valid_mask(), params).values
        assert not np.array_equal(written, derived, equal_nan=True)

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

    def test_tile_checks_its_flags_before_reading_the_scene(self, workspace, tmp_path):
        # the scene's payload is truncated: reading it would exit 3
        scene = workspace["scenes"][0]
        header = tmp_path / "trunc.rhdr"
        header.write_text(scene.read_text())
        (tmp_path / "trunc.rbin").write_bytes(scene.with_suffix(".rbin").read_bytes()[:-4])
        assert main(["tile", str(header), str(tmp_path / "tiles"), "--tile-size", "0"]) == 2
        assert not (tmp_path / "tiles").exists()

    def test_detect_checks_its_flags_before_reading_the_map(self, workspace, tmp_path, capsys):
        # the map's payload is truncated: reading it first used to exit 3
        grid = MaskedGrid(np.full((220, 220), 0.9, np.float32))
        save_raster(grid.to_raster(), tmp_path / "p")
        (tmp_path / "p.rbin").write_bytes((tmp_path / "p.rbin").read_bytes()[:-4])
        code = main([
            "detect", str(tmp_path / "p.rhdr"), str(workspace["scenes"][0]), "--out", str(tmp_path / "o"),
            "--min-area", "0",
        ])
        assert code == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not (tmp_path / "o.geojson").exists()

    def test_eval_checks_max_dist_before_reading_inputs(self, workspace, tmp_path, capsys):
        # the detections file is no FeatureCollection: reading it first used to exit 3
        (tmp_path / "bad.geojson").write_text("{}")
        truth = workspace["scenes"][0].parent / "scene.json"
        code = main(["eval", str(tmp_path / "bad.geojson"), str(truth), "--max-dist", "nan"])
        assert code == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

    # Both requests need far more address space than exists (PiB, TiB),
    # so numpy fails at once without touching memory.
    def test_oversized_annotation_is_a_bounds_error(self, workspace, tmp_path, capsys):
        # the disc's 2e7-px bounding box used to be listed whole, and its
        # 5.68 PiB allocation failed as "out of memory"
        ann = tmp_path / "ann.json"
        ann.write_text(json.dumps(
            {"crowns": [{"id": 1, "class": "healthy", "cx": 5.0, "cy": 5.0, "radius_px": 1e7}]}
        ))
        code = main(["index", str(workspace["scenes"][0]), str(tmp_path / "ndvi"), "--annotations", str(ann)])
        assert code == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("data error: crown 1") and "leaves the 220x220 grid" in err[0]

    def test_oversized_tile_is_config_error(self, workspace, tmp_path, capsys):
        # a 10^7-px tile used to fail its allocation and exit 3
        code = main([
            "predict", str(workspace["scenes"][0]), "--model", str(workspace["model"]),
            "--out", str(tmp_path / "prob"), "--tile-size", "10000000",
        ])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error")

    @pytest.mark.parametrize("command", ["tile", "predict", "pipeline", "config"])
    def test_tile_beyond_the_grid_bound_writes_nothing(self, workspace, tmp_path, capsys, command):
        # a 2^40-px tile edge used to end in numpy's "array is too big"
        # traceback, and pipeline had written veg_mask by then
        raster = random_raster(np.random.default_rng(0), 64, 64, ("red", "green", "blue", "nir"))
        save_raster(raster, tmp_path / "scene")
        scene, model, out = str(tmp_path / "scene.rhdr"), str(workspace["model"]), tmp_path / "out"
        size = str(2**40)
        argv = {
            "tile": ["tile", scene, str(out), "--tile-size", size],
            "predict": ["predict", scene, "--model", model, "--out", str(out), "--tile-size", size],
            "pipeline": ["pipeline", "--scene", scene, "--model", model, "--out", str(out), "--tile-size", size],
        }
        if command == "config":
            config = PipelineConfig(scene_path=scene, model_path=model, out_dir=str(out), tile_size=2**40)
            (tmp_path / "manifest.json").write_text(json.dumps(config.to_manifest()))
            argv["config"] = ["pipeline", "--config", str(tmp_path / "manifest.json")]
        assert main(argv[command]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error")
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("max_dist", ["nan", "inf"])
    def test_non_finite_match_distance_is_config_error(self, workspace, tmp_path, max_dist):
        # both used to exit 0: NaN matched nothing, inf matched every pair
        scene = workspace["scenes"][2]
        truth = scene.parent / "scene.json"
        out = tmp_path / "run"
        code = main([
            "pipeline", "--scene", str(scene), "--model", str(workspace["model"]),
            "--truth", str(truth), "--out", str(out), "--max-dist", max_dist,
        ])
        assert code == 2
        assert not out.exists()  # rejected before any work
        dets = tmp_path / "dets.geojson"
        dets.write_text(json.dumps(_VALID_DOCS["detections"]))
        assert main(["eval", str(dets), str(truth), "--max-dist", max_dist]) == 2

    @pytest.mark.parametrize(
        "flags",
        [["--overlap", "2000"], ["--tile-size", "0"], ["--veg-threshold", "5"], ["--jobs", "0"]],
    )
    def test_bad_pipeline_setting_is_rejected_before_any_io(self, workspace, tmp_path, flags):
        # overlap and tile size used to be rejected only after the scene
        # was read and veg_mask written
        out = tmp_path / "run"
        code = main([
            "pipeline", "--scene", str(workspace["scenes"][2]), "--model", str(workspace["model"]),
            "--out", str(out), *flags,
        ])
        assert code == 2
        assert not out.exists()

    def test_unknown_manifest_veg_index_is_config_error(self, workspace, tmp_path, capsys):
        # used to exit 3, as a data error, after reading the scene
        out = tmp_path / "run"
        config = PipelineConfig(
            scene_path=str(workspace["scenes"][2]), model_path=str(workspace["model"]),
            out_dir=str(out), veg_index="foo",
        )
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(config.to_manifest()))
        assert main(["pipeline", "--config", str(manifest)]) == 2
        assert "veg_index" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_predict_needs_a_worker(self, workspace, tmp_path, jobs):
        # both used to exit 0
        out = tmp_path / "prob"
        code = main([
            "predict", str(workspace["scenes"][2]), "--model", str(workspace["model"]),
            "--out", str(out), "--jobs", jobs,
        ])
        assert code == 2
        assert list(tmp_path.iterdir()) == []

    def test_index_rejects_veg_threshold_before_writing(self, workspace, tmp_path):
        # the index raster used to be written before the threshold was rejected
        code = main([
            "index", str(workspace["scenes"][2]), str(tmp_path / "ndvi"),
            "--veg-mask", str(tmp_path / "veg"), "--veg-threshold", "5",
        ])
        assert code == 2
        assert list(tmp_path.iterdir()) == []

    def test_negative_synth_seed_is_config_error(self, workspace, tmp_path):
        assert main(["synth", str(tmp_path), "--spec", str(workspace["spec"]), "--seed", "-1"]) == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--seed", "-1"],
            ["--l2", "nan"],
            ["--l2", "inf"],
            ["--l2", "-1"],
            ["--neg-ratio", "nan"],
            ["--neg-ratio", "inf"],
            ["--neg-ratio", "-1"],
            ["--learning-rate", "0.1"],  # no such flag: argparse exits 2
            ["--batch-size", "32"],
        ],
    )
    def test_bad_train_parameter_is_config_error(self, workspace, tmp_path, capsys, flags):
        model = tmp_path / "m.json"
        try:
            code = main(["train", str(workspace["scenes"][0]), "--out", str(model), *flags])
        except SystemExit as err:
            code = err.code
        assert code == 2
        assert not model.exists()
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("ratio", ["nan", "inf", "-1"])
    def test_bad_neg_ratio_is_rejected_before_any_scene_is_read(self, workspace, tmp_path, ratio):
        # the scene's payload is truncated: reading it would exit 3
        scene = workspace["scenes"][0]
        header = tmp_path / "trunc.rhdr"
        header.write_text(scene.read_text())
        (tmp_path / "trunc.rbin").write_bytes(scene.with_suffix(".rbin").read_bytes()[:-4])
        (tmp_path / "trunc.json").write_text(scene.with_suffix(".json").read_text())
        model = tmp_path / "m.json"
        assert main(["train", str(header), "--out", str(model), "--neg-ratio", ratio]) == 2
        assert not model.exists()

    @pytest.mark.parametrize("flags", [["--l2", "1e300"], ["--neg-ratio", "1e308"]])
    def test_extreme_finite_train_parameters_train_quietly(self, workspace, tmp_path, flags):
        model = tmp_path / "m.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train", str(workspace["scenes"][0]), "--out", str(model), *flags]) == 0
        assert model.is_file()

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
        grid = MaskedGrid(np.full(shape, 0.9, np.float32))
        save_raster(grid.to_raster(origin=origin), tmp_path / "prob")
        code = main(
            ["detect", str(tmp_path / "prob.rhdr"), str(workspace["scenes"][0]), "--out", str(tmp_path / "d")]
        )
        assert code == 3
        assert "does not cover the scene" in capsys.readouterr().err
        assert not (tmp_path / "d.geojson").exists()

    def test_detect_rejects_a_multiband_map(self, workspace, tmp_path, capsys):
        # the scene itself is no probability map: its first band is red
        scene = workspace["scenes"][0]
        code = main(["detect", str(scene), str(scene), "--out", str(tmp_path / "d")])
        assert code == 3
        assert "single-band" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", [-0.25, 1.5, 255.0])
    def test_detect_rejects_values_outside_unit_interval(self, workspace, tmp_path, capsys, bad):
        values = np.full((220, 220), 0.9, np.float32)
        values[7, 150] = bad
        values[:, :100] = np.nan  # invalid, and not checked
        save_raster(MaskedGrid(values).to_raster(), tmp_path / "prob")
        code = main(
            ["detect", str(tmp_path / "prob.rhdr"), str(workspace["scenes"][0]), "--out", str(tmp_path / "d")]
        )
        assert code == 3
        assert "[0, 1]" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["prob.rbin", "prob.rhdr"]

    @pytest.mark.parametrize("nodata", [1e300, -1e39])
    def test_nodata_beyond_float32_is_data_error(self, workspace, tmp_path, capsys, nodata):
        scene = workspace["scenes"][0]
        header = json.loads(scene.read_text())
        header["nodata"] = nodata
        (tmp_path / "s.rhdr").write_text(json.dumps(header))
        (tmp_path / "s.rbin").write_bytes(scene.with_suffix(".rbin").read_bytes())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["index", str(tmp_path / "s.rhdr"), str(tmp_path / "ndvi")])
        assert code == 3
        assert "'nodata'" in capsys.readouterr().err
        assert not (tmp_path / "ndvi.rhdr").exists()

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

    @pytest.mark.parametrize("command", ["pipeline", "predict"])
    def test_incompatible_model_writes_nothing(self, tmp_path, capsys, command):
        raster, _ = generate_scene(SceneSpec(width=256, height=256, counts={"healthy": 2}, seed=4))
        save_raster(raster, tmp_path / "scene")
        params = ModelParams(("swir", "ndvi"), np.ones(2), 0.0, np.zeros(2), np.ones(2))
        save_params(params, tmp_path / "model.json")
        out = tmp_path / "run"
        out.mkdir()
        scene = str(tmp_path / "scene.rhdr")
        if command == "pipeline":
            args = ["pipeline", "--scene", scene, "--out", str(out)]
        else:
            args = ["predict", scene, "--out", str(out / "prob")]
        assert main(args + ["--model", str(tmp_path / "model.json")]) == 3
        assert "['swir']" in capsys.readouterr().err
        assert list(out.iterdir()) == []


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


def _with_detection_field(where, key, value):
    """The valid detections document with one number of its feature set to ``value``."""
    doc = json.loads(json.dumps(_VALID_DOCS["detections"]))
    part = doc["features"][0][where]
    part[key] = [value, 5.0] if key == "coordinates" else value
    return doc


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


def _run_on(loader_sites, site, doc):
    """Write ``doc`` (bytes, or a value to encode as JSON) to the site's file and run its command."""
    path, argv = loader_sites[site]
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        with address_space_cap():
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
        # non-finite numbers in a detection used to load; eval then exited 0
        *(
            ("detections", _with_detection_field(where, key, value), 3)
            for where, key in (
                ("geometry", "coordinates"), ("properties", "score"), ("properties", "diameter_px"),
                ("properties", "mean_ndvi"), ("properties", "mean_gndvi"),
            )
            for value in (math.nan, math.inf, -math.inf)
        ),
    ],
)
def test_malformed_documents_exit_with_their_code(loader_sites, site, doc, expected):
    code, err = _run_on(loader_sites, site, doc)
    assert code == expected
    assert len(err) == 1
