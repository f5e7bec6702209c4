import contextlib
import io
import json
import math
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from palmwatch.annotations import AnnotationSet, CrownAnnotation, load_annotations, save_annotations
from palmwatch.augment import AugmentSpec, FlipHOp, GaussianNoiseOp, spec_to_json
from palmwatch import cli, crown_detect, raster_core
from palmwatch.cli import PipelineConfig, build_parser, config_from, main, run_pipeline
from palmwatch.crown_detect import DetectorConfig
from palmwatch.indices import compute_index
from palmwatch.pixel_model import ModelParams, TrainConfig, predict_map, save_params
from palmwatch.raster_core import Band, MaskedGrid, Raster, load_raster, save_raster
from palmwatch.synth_scene import SceneSpec, generate_scene, spec_to_json as scene_spec_to_json
from palmwatch.tiling import DEFAULT_TILE_SIZE, stitch, tile_plan

from conftest import address_space_cap, random_raster


def files_in(root):
    """Every file under ``root`` with its bytes."""
    return {path.relative_to(root): path.read_bytes() for path in root.rglob("*") if path.is_file()}


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
    assert main(["train", str(scene_paths[0]), str(scene_paths[1]), "--out", str(model)]) == 0
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

    @pytest.mark.parametrize("name", ["", ".", "..", "a/b", "/abs", "../up", "s.rhdr"])
    def test_a_name_that_is_not_a_file_stem_is_refused(self, workspace, tmp_path, capsys, name):
        # "" used to write out.rhdr beside the directory and .json inside
        # it, "a/b" to make out/ and then fail with an i/o error, and
        # "s.rhdr" to write s.rhdr but s.rhdr.json, which train never finds
        args = ["synth", str(tmp_path / "out"), "--spec", str(workspace["spec"]), "--name", name]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("configuration error: --name ")
        assert list(tmp_path.iterdir()) == []

    def test_a_spec_at_the_spec_it_writes_is_refused(self, tmp_path, capsys):
        # synth used to write the seeded spec over the spec it read and exit 0
        (tmp_path / "scene_spec.json").write_text(scene_spec_to_json(small_scene_spec(0)))
        before = files_in(tmp_path)
        assert main(["synth", str(tmp_path), "--spec", str(tmp_path / "scene_spec.json"), "--seed", "5"]) == 2
        assert capsys.readouterr().err.startswith("configuration error: input ")
        assert files_in(tmp_path) == before


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

    @pytest.mark.parametrize(
        "flags",
        [["{scene}"], ["{other}", "--veg-mask", "{scene}"], ["{other}", "--annotations", "{ann}", "--stats-out", "{scene}.rhdr"]],
        ids=["out", "veg_mask", "stats_out"],
    )
    def test_an_output_at_the_scene_is_refused(self, tmp_path, capsys, flags):
        # index used to overwrite its own scene with the index map, or its
        # header with the stats CSV, and exit 0
        save_raster(random_raster(np.random.default_rng(3), 50, 40), tmp_path / "s")
        save_annotations(AnnotationSet((CrownAnnotation(1, "healthy", 20.0, 20.0, 4.0),)), tmp_path / "a.json")
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        args = [flag.format(scene=tmp_path / "s", other=tmp_path / "ndvi", ann=tmp_path / "a.json") for flag in flags]
        assert main(["index", str(tmp_path / "s.rhdr"), *args]) == 2
        assert capsys.readouterr().err.startswith("configuration error: input ")
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    @pytest.mark.parametrize(
        "flags",
        [["o", "--veg-mask", "o"], ["o", "--veg-mask", "o.rhdr"], ["o.rhdr", "--veg-mask", "o"],
         ["o", "--annotations", "a.json", "--stats-out", "o.rhdr"],
         ["o", "--veg-mask", "m", "--annotations", "a.json", "--stats-out", "m.rbin"]],
        ids=["veg_mask", "veg_mask_header", "out_header", "stats_out", "stats_out_veg_mask"],
    )
    def test_two_outputs_at_one_path_are_refused(self, tmp_path, capsys, flags):
        # index used to write the mask over the index map it had just
        # written, or the stats CSV over a raster it had written, and exit 0
        save_raster(random_raster(np.random.default_rng(3), 50, 40), tmp_path / "s")
        save_annotations(AnnotationSet((CrownAnnotation(1, "healthy", 20.0, 20.0, 4.0),)), tmp_path / "a.json")
        before = files_in(tmp_path)
        args = [flag if flag.startswith("--") else str(tmp_path / flag) for flag in flags]
        assert main(["index", str(tmp_path / "s.rhdr"), *args]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error: two outputs share a path")
        assert files_in(tmp_path) == before

    @pytest.mark.parametrize(
        "flags, needs",
        [(["--stats-out", "{tmp}/stats.csv"], "--stats-out needs --annotations"),
         (["--veg-threshold", "0.3"], "--veg-threshold needs --veg-mask"),
         (["--veg-threshold", "0.2"], "--veg-threshold needs --veg-mask")],
        ids=["stats_out", "veg_threshold", "veg_threshold_default"],
    )
    def test_a_flag_without_its_output_is_refused(self, tmp_path, capsys, flags, needs):
        # both used to exit 0 having written neither the stats CSV nor a mask
        save_raster(random_raster(np.random.default_rng(3), 50, 40), tmp_path / "s")
        before = files_in(tmp_path)
        args = [flag.format(tmp=tmp_path) for flag in flags]
        assert main(["index", str(tmp_path / "s.rhdr"), str(tmp_path / "o"), *args]) == 2
        assert capsys.readouterr().err == f"configuration error: {needs}\n"
        assert files_in(tmp_path) == before

    @pytest.mark.parametrize("suffix", ["", ".rhdr"])
    def test_printed_raster_paths_exist(self, workspace, tmp_path, capsys, suffix):
        # a header path given as a prefix used to be printed as o.rhdr.rhdr
        scene, model = str(workspace["scenes"][2]), str(workspace["model"])
        capsys.readouterr()
        assert main(["index", scene, str(tmp_path / f"o{suffix}"), "--veg-mask", str(tmp_path / f"o2{suffix}")]) == 0
        assert main(["predict", scene, "--model", model, "--out", str(tmp_path / f"p{suffix}")]) == 0
        printed = [Path(line.rsplit(" ", 1)[1]) for line in capsys.readouterr().out.splitlines()]
        assert printed == [tmp_path / "o.rhdr", tmp_path / "o2.rhdr", tmp_path / "p.rhdr"]
        assert all(path.is_file() for path in printed)

    @pytest.mark.parametrize("crowns, code", [(None, 2), ((CrownAnnotation(1, "healthy", 500.0, 20.0, 4.0),), 3)],
                             ids=["missing", "off_grid"])
    def test_bad_annotations_write_no_raster(self, tmp_path, capsys, crowns, code):
        # both used to leave the index raster and the vegetation mask written
        save_raster(random_raster(np.random.default_rng(3), 50, 40), tmp_path / "s")
        if crowns is not None:
            save_annotations(AnnotationSet(crowns), tmp_path / "a.json")
        before = files_in(tmp_path)
        args = ["index", str(tmp_path / "s.rhdr"), str(tmp_path / "ndvi"), "--veg-mask", str(tmp_path / "veg")]
        assert main([*args, "--annotations", str(tmp_path / "a.json")]) == code
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert files_in(tmp_path) == before


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

    def test_a_rerun_replaces_the_earlier_plan(self, tmp_path):
        # the first plan's nine tiles, and the annotations given to them,
        # used to stay beside the second's four
        save_raster(random_raster(np.random.default_rng(2), 600, 600), tmp_path / "scene")
        out = tmp_path / "tiles"
        out.mkdir()
        (out / "notes.txt").write_text("kept")
        assert main(["tile", str(tmp_path / "scene.rhdr"), str(out), "--tile-size", "200"]) == 0
        for name in ("tile_0_0.json", "tile_2_2.json"):
            (out / name).write_text('{"crowns": []}')
        # Arabic-Indic digits: a name tile never writes, so it is not a tile
        arabic = "tile_\u0663_\u0663.rhdr"
        (out / arabic).write_text("kept")
        assert main(["tile", str(tmp_path / "scene.rhdr"), str(out), "--tile-size", "300"]) == 0
        tiles = ["tile_0_0", "tile_0_1", "tile_1_0", "tile_1_1"]
        assert sorted(path.name for path in out.iterdir()) == sorted(
            [f"{t}.{suffix}" for t in tiles for suffix in ("rhdr", "rbin")] + ["notes.txt", arabic]
        )
        assert (load_raster(out / "tile_1_1.rhdr").width, (out / "notes.txt").read_text()) == (300, "kept")
        assert (out / arabic).read_text() == "kept"

    @pytest.mark.parametrize("nodata", [None, -9999.0, float("nan")])
    def test_tiles_cut_back_to_their_windows_stitch_to_the_scene(self, tmp_path, nodata):
        scene = random_raster(np.random.default_rng(5), 230, 130, nodata=nodata)
        save_raster(scene, tmp_path / "scene")
        assert main(["tile", str(tmp_path / "scene.rhdr"), str(tmp_path / "tiles"), "--tile-size", "100"]) == 0
        plan = tile_plan(230, 130, 100, 0)
        tiles = [load_raster(tmp_path / "tiles" / f"tile_{i // plan.n_cols}_{i % plan.n_cols}.rhdr") for i in range(len(plan.windows))]
        assert {(tile.width, tile.height, tile.nodata_value is None) for tile in tiles} == {(100, 100, nodata is None)}
        for name in scene.band_names:
            cut = [MaskedGrid(tile.band(name).samples[: w.height, : w.width]) for tile, w in zip(tiles, plan.windows)]
            stitched = stitch(plan, cut)
            np.testing.assert_array_equal(stitched.values.view(np.uint32), scene.band(name).samples.view(np.uint32))

    @pytest.mark.parametrize("nodata", [-9999.0, float("nan"), None])
    def test_edge_tiles_hold_the_fill_value_right_and_below(self, tmp_path, nodata):
        scene = random_raster(np.random.default_rng(6), 230, 130, nodata=nodata)
        save_raster(scene, tmp_path / "scene")
        args = ["tile", str(tmp_path / "scene.rhdr"), str(tmp_path / "tiles"), "--tile-size", "100", "--overlap", "20"]
        assert main(args) == 0
        plan = tile_plan(230, 130, 100, 20)
        fill = np.float32(np.nan if nodata is None else nodata).view(np.uint32)
        for i, w in enumerate(plan.windows):
            tile = load_raster(tmp_path / "tiles" / f"tile_{i // plan.n_cols}_{i % plan.n_cols}.rhdr")
            assert (tile.width, tile.height, tile.origin) == (100, 100, (w.x, w.y))
            for name in scene.band_names:
                samples = tile.band(name).samples
                np.testing.assert_array_equal(samples[: w.height, : w.width], scene.band(name).samples[w.region])
                for strip in (samples[:, w.width :], samples[w.height :, :]):
                    assert (strip.view(np.uint32) == fill).all()
            assert tile.valid_mask().count() == w.width * w.height

    def test_a_scene_at_a_tile_name_is_refused(self, tmp_path, capsys):
        # tile used to replace a scene at one of its tile names with a tile
        save_raster(random_raster(np.random.default_rng(2), 300, 300), tmp_path / "tile_0_0")
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert main(["tile", str(tmp_path / "tile_0_0.rhdr"), str(tmp_path), "--tile-size", "100"]) == 2
        assert capsys.readouterr().err.startswith("configuration error: input ")
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


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

    def test_a_spec_at_a_tile_it_writes_is_refused(self, tmp_path, capsys):
        # augment used to write tile a's annotations over the spec it read
        in_dir, out_dir = tmp_path / "in", tmp_path / "out"
        in_dir.mkdir()
        out_dir.mkdir()
        save_raster(Raster(bands=(Band("red", np.full((16, 16), 0.5, np.float32)),)), in_dir / "a")
        (out_dir / "a.json").write_text(json.dumps({"operations": [{"op": "flip_h"}]}))
        before = files_in(tmp_path)
        assert main(["augment", str(in_dir), str(out_dir), "--spec", str(out_dir / "a.json")]) == 2
        assert capsys.readouterr().err.startswith("configuration error: input ")
        assert files_in(tmp_path) == before

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

    @pytest.mark.parametrize("out", ["s.json", "link.json"])
    def test_a_model_at_a_scenes_annotations_is_refused(self, workspace, tmp_path, capsys, out):
        # train used to write the model over the annotations it read, or
        # through a link to them, and exit 0
        for suffix in (".rhdr", ".rbin", ".json"):
            (tmp_path / ("s" + suffix)).write_bytes(workspace["scenes"][0].with_suffix(suffix).read_bytes())
        (tmp_path / "link.json").symlink_to(tmp_path / "s.json")
        before = files_in(tmp_path)
        assert main(["train", str(tmp_path / "s.rhdr"), "--out", str(tmp_path / out)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: input ")
        assert files_in(tmp_path) == before


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
        )
        tracemalloc.start()
        try:
            # two CPUs: each worker holds its own block buffers; 16 and 64
            # tiles, where one tile at the default would hold a scene-sized plane
            with (
                mock.patch.object(raster_core, "usable_cpus", return_value=2),
                mock.patch.object(cli, "DEFAULT_TILE_SIZE", 256),
            ):
                assert run_pipeline(config)["detections"] > 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 0.52 and 0.23 here: one row band (of 256 rows) with its index,
        # masks and map, and the foreground samples, so the share falls as
        # the scene grows. Holding the whole probability map, detection's
        # whole planes and the classifier's position plane took 0.78 and
        # 0.60; holding the whole scene with the vegetation stage's whole
        # planes took 1.73 and 1.65; whole-scene features and every tile
        # map held until stitching took 2.38.
        assert peak <= {1024: 0.55, 2048: 0.25}[size] * scene_bytes

    def test_predict_holds_one_row_band(self, tmp_path):
        # 32 row bands of 64 rows, 8 tiles each
        width, height, tile_size = 512, 2048, 64
        raster = random_raster(np.random.default_rng(7), width, height, ("red", "green", "blue", "nir"))
        save_raster(raster, tmp_path / "scene")
        band_bytes = sum(b.samples.nbytes for b in raster.bands) * tile_size // height
        del raster
        save_params(ModelParams(("red", "nir", "ndvi"), np.ones(3), 0.0, np.zeros(3), np.ones(3)), tmp_path / "m.json")
        tracemalloc.start()
        try:
            with mock.patch.object(cli, "DEFAULT_TILE_SIZE", tile_size):
                assert main(["predict", str(tmp_path / "scene.rhdr"), "--model", str(tmp_path / "m.json"),
                             "--out", str(tmp_path / "prob")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 1.92 bands, the band's map among them. Holding the whole map (8
        # bands) took 1.67 bands besides it, 9.65 in all; reading the next
        # band before the last one was dropped took 2.36 besides it.
        assert peak <= 2 * band_bytes

    def test_detect_holds_one_row_band(self, tmp_path):
        # the same scene, its map read one row band at a time: a whole map
        # would be 8 bands' bytes by itself
        width, height, tile_size = 512, 2048, 64
        raster = random_raster(np.random.default_rng(7), width, height, ("red", "green", "blue", "nir"))
        save_raster(raster, tmp_path / "scene")
        band_bytes = sum(b.samples.nbytes for b in raster.bands) * tile_size // height
        del raster
        # about 0.2 % of the pixels, those with red below 0.002, are
        # foreground, so the samples weigh a tenth of a band
        save_params(ModelParams(("red",), np.array([-1000.0]), 2.0, np.zeros(1), np.ones(1)), tmp_path / "m.json")
        with mock.patch.object(cli, "DEFAULT_TILE_SIZE", tile_size):
            assert main(["predict", str(tmp_path / "scene.rhdr"), "--model", str(tmp_path / "m.json"),
                         "--out", str(tmp_path / "prob")]) == 0
            tracemalloc.start()
            try:
                assert main(["detect", str(tmp_path / "prob.rhdr"), str(tmp_path / "scene.rhdr"),
                             "--out", str(tmp_path / "dets"), "--min-area", "2"]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # 1.84 bands; reading the map whole took 26.9
        assert peak <= 2 * band_bytes


class TestPredictDetectEval:
    def test_predict_refuses_to_write_over_its_scene(self, workspace, tmp_path, capsys):
        # predict used to overwrite its own scene with the map and exit 0;
        # writing band by band, it would truncate the scene it still reads
        save_raster(load_raster(workspace["scenes"][2]), tmp_path / "s")
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        code = main(["predict", str(tmp_path / "s.rhdr"), "--model", str(workspace["model"]), "--out", str(tmp_path / "s")])
        assert code == 2
        assert capsys.readouterr().err.startswith("configuration error: input ")
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("fault", ["model", "payload"])
    def test_a_rejected_run_keeps_the_earlier_map(self, workspace, tmp_path, capsys, fault):
        # an incompatible model or a truncated payload used to remove the
        # earlier map at --out before it was rejected
        for suffix in (".rhdr", ".rbin"):
            (tmp_path / ("s" + suffix)).write_bytes(workspace["scenes"][2].with_suffix(suffix).read_bytes())
        args = ["predict", str(tmp_path / "s.rhdr"), "--out", str(tmp_path / "prob")]
        assert main([*args, "--model", str(workspace["model"])]) == 0
        model = workspace["model"]
        if fault == "model":
            model = tmp_path / "swir.json"
            save_params(ModelParams(("swir", "ndvi"), np.ones(2), 0.0, np.zeros(2), np.ones(2)), model)
        else:
            (tmp_path / "s.rbin").write_bytes((tmp_path / "s.rbin").read_bytes()[:-4])
        before = files_in(tmp_path)
        capsys.readouterr()
        assert main([*args, "--model", str(model)]) == 3
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert files_in(tmp_path) == before

    def test_metrics_at_the_truth_are_refused(self, tmp_path, capsys):
        # eval used to write the metrics JSON over the truth it read and exit 0
        (tmp_path / "dets.geojson").write_text(json.dumps(_VALID_DOCS["detections"]))
        (tmp_path / "r_metrics.json").write_text(json.dumps(_VALID_DOCS["annotations"]))
        before = files_in(tmp_path)
        code = main(["eval", str(tmp_path / "dets.geojson"), str(tmp_path / "r_metrics.json"), "--out", str(tmp_path / "r")])
        assert code == 2
        assert capsys.readouterr().err.startswith("configuration error: input ")
        assert files_in(tmp_path) == before

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
        for cpus in (1, 4):
            with mock.patch.object(raster_core, "usable_cpus", return_value=cpus):
                assert self.run(workspace, tmp_path / f"j{cpus}") == 0
        for name in ("detections.geojson", "detections.csv", "probability.rbin"):
            assert (tmp_path / "j1" / name).read_bytes() == (
                tmp_path / "j4" / name
            ).read_bytes(), name

    def test_one_job_starts_no_thread(self, workspace, tmp_path):
        # blocks of 1024 px, so every pixel kernel has blocks to share
        with mock.patch.object(raster_core, "BLOCK_PX", 1024):
            with (
                mock.patch.object(raster_core, "usable_cpus", return_value=2),
                mock.patch.object(ThreadPoolExecutor, "submit", autospec=True, side_effect=ThreadPoolExecutor.submit) as submit,
            ):
                assert self.run(workspace, tmp_path / "two") == 0
            assert submit.called
            with (
                mock.patch.object(raster_core, "usable_cpus", return_value=1),
                mock.patch.object(threading.Thread, "start", side_effect=AssertionError("a thread started")) as start,
                mock.patch.object(ThreadPoolExecutor, "submit", side_effect=AssertionError("the pool ran a task")) as submit,
            ):
                assert self.run(workspace, tmp_path / "one") == 0
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

    def test_manifest_with_a_thread_count_reruns_identically(self, workspace, tmp_path):
        # manifests written before the thread count was left to the CPU
        # affinity carry "jobs", those written before prediction tiles
        # stopped overlapping carry "overlap", those written before
        # prediction used one tile plan carry "tile_size", every one
        # written before the headline was always macro carries "averaging",
        # and those written before the pipeline's vegetation mask was fixed
        # carry "veg_index", "veg_threshold" and "veg_gate"; none changed an
        # output number at these values
        scene = workspace["scenes"][2]
        config = PipelineConfig(
            scene_path=str(scene), model_path=str(workspace["model"]), out_dir=str(tmp_path / "orig"),
            truth_path=str(scene.parent / "scene.json"),
        )
        run_pipeline(config)
        legacies = (
            {"jobs": 3}, {"overlap": 32}, {"jobs": 1, "overlap": 127}, {"tile_size": 128},
            {"jobs": 2, "overlap": 3, "tile_size": 7}, {"averaging": "micro"},
            {"averaging": "weighted", "jobs": 2, "tile_size": 7},
            {"veg_index": "ndvi", "veg_threshold": 0.2, "veg_gate": False},
        )
        for i, legacy in enumerate(legacies):
            replay = tmp_path / f"replay{i}"
            payload = config.to_manifest()
            payload["config"].update(out_dir=str(replay), **legacy)
            (tmp_path / "manifest.json").write_text(json.dumps(payload))
            assert main(["pipeline", "--config", str(tmp_path / "manifest.json")]) == 0
            for name in (
                "veg_mask.rbin", "probability.rbin", "detections.geojson", "detections.csv",
                "metrics.csv", "metrics.json", "eval.json",
            ):
                assert (tmp_path / "orig" / name).read_bytes() == (replay / name).read_bytes(), (legacy, name)
            written = json.loads((replay / "manifest.json").read_text())["config"]
            assert not {"jobs", "overlap", "tile_size", "averaging", "veg_index", "veg_threshold", "veg_gate"} & set(written)

    @pytest.mark.parametrize("key, value", [("veg_gate", True), ("veg_index", "gndvi"), ("veg_threshold", 0.3)])
    def test_manifest_with_another_vegetation_setting_is_refused(self, workspace, tmp_path, capsys, key, value):
        # a gated prediction or another mask cannot be rerun: the pipeline
        # writes only index's default mask and never gates prediction
        out = tmp_path / "run"
        assert self.run(workspace, out) == 0
        before = files_in(out)
        payload = json.loads((out / "manifest.json").read_text())
        payload["config"][key] = value
        (tmp_path / "manifest.json").write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["pipeline", "--config", str(tmp_path / "manifest.json")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error") and key in err[0]
        assert "palmwatch index" in err[0]
        assert files_in(out) == before

    @pytest.mark.parametrize("flags", [["--veg-gate"], ["--veg-index", "ndvi"], ["--veg-threshold", "0.2"]])
    def test_pipeline_takes_no_vegetation_setting(self, workspace, tmp_path, capsys, flags):
        # the vegetation mask's settings are index's flags alone
        with pytest.raises(SystemExit) as exc:
            self.run(workspace, tmp_path / "run", flags)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_veg_mask_is_index_default_mask(self, workspace, tmp_path):
        # one vegetation rule: the pipeline's mask is the one index writes
        out = tmp_path / "run"
        summary = run_pipeline(PipelineConfig(
            scene_path=str(workspace["scenes"][2]), model_path=str(workspace["model"]), out_dir=str(out),
        ))
        assert main(["index", str(workspace["scenes"][2]), str(tmp_path / "x"), "--veg-mask", str(tmp_path / "m")]) == 0
        for suffix in (".rhdr", ".rbin"):
            assert (out / ("veg_mask" + suffix)).read_bytes() == (tmp_path / ("m" + suffix)).read_bytes(), suffix
        veg = load_raster(tmp_path / "m.rhdr").band("veg_mask").samples
        valid = load_raster(workspace["scenes"][2]).valid_mask().count()
        assert 0 < valid and summary["vegetation_fraction"] == int(veg.sum()) / valid

    @pytest.mark.parametrize(
        "flags",
        [
            ["--scene", "scene.rhdr"],
            ["--model", "model.json"],
            ["--out", "elsewhere"],
            ["--truth", "scene.json"],
            ["--prob-threshold", "0.6"],
            ["--min-area", "5"],
            ["--max-area", "900"],
            ["--split-min-distance", "3"],
            ["--smallish-diameter", "10"],
            ["--dead-ndvi-max", "0.1"],
            ["--max-dist", "5"],
            ["--out", "elsewhere", "--max-dist", "5"],
            ["--min-area", "5", "--truth", "scene.json", "--dead-ndvi-max", "0.1"],
        ],
    )
    def test_config_rejects_every_other_flag(self, workspace, tmp_path, capsys, flags):
        # every flag but --scene, --model and --out used to be ignored
        # silently: the run took the manifest's value and exited 0
        config = PipelineConfig(
            scene_path=str(workspace["scenes"][2]), model_path=str(workspace["model"]),
            out_dir=str(tmp_path / "run"),
        )
        (tmp_path / "manifest.json").write_text(json.dumps(config.to_manifest()))
        assert main(["pipeline", "--config", str(tmp_path / "manifest.json"), *flags]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error")
        named = err[0].split("do not mix it with ")[1].split(", ")
        assert sorted(named) == sorted(flag for flag in flags if flag.startswith("--"))
        assert not (tmp_path / "run").exists()

    def test_config_takes_a_flag_at_its_default(self, workspace, tmp_path):
        config = PipelineConfig(
            scene_path=str(workspace["scenes"][2]), model_path=str(workspace["model"]),
            out_dir=str(tmp_path / "run"), min_area=5,
        )
        (tmp_path / "manifest.json").write_text(json.dumps(config.to_manifest()))
        assert main(["pipeline", "--config", str(tmp_path / "manifest.json"), "--min-area", "20"]) == 0
        assert json.loads((tmp_path / "run" / "manifest.json").read_text())["config"]["min_area"] == 5

    @pytest.mark.parametrize("second_truth", [None, "matches_nothing"])
    def test_a_rerun_leaves_no_earlier_evaluation(self, workspace, tmp_path, second_truth):
        # eval.json, metrics.csv and metrics.json of the first run used to
        # stay beside the second run's outputs
        scene = workspace["scenes"][2]
        out = tmp_path / "run"
        config = PipelineConfig(
            scene_path=str(scene), model_path=str(workspace["model"]), out_dir=str(out),
            truth_path=str(scene.parent / "scene.json"),
        )
        run_pipeline(config)
        assert json.loads((out / "eval.json").read_text())["detection"]["matched"] > 0
        # the list a run clears is every file a run with truth writes
        assert sorted(path.name for path in out.iterdir()) == sorted([*cli.PIPELINE_OUTPUTS, "manifest.json"])
        truth_path = None
        if second_truth is not None:
            truth_path = str(tmp_path / "empty.json")
            save_annotations(AnnotationSet(()), truth_path)
        summary = run_pipeline(replace(config, truth_path=truth_path))
        assert not (out / "metrics.csv").exists() and not (out / "metrics.json").exists()
        if second_truth is None:
            assert not (out / "eval.json").exists()
        else:
            assert json.loads((out / "eval.json").read_text())["detection"]["matched"] == 0
        written = {Path(path).name for path in summary["outputs"].values()} | {"probability.rbin", "veg_mask.rbin"}
        assert {path.name for path in out.iterdir()} == written

    @pytest.mark.parametrize("flag, name", [("--scene", "veg_mask"), ("--scene", "probability"), ("--truth", "eval")])
    def test_an_input_at_an_output_path_is_refused(self, workspace, tmp_path, capsys, flag, name):
        # a scene at veg_mask or probability, or truth at eval.json, used
        # to be removed or overwritten by the run that read it
        out = tmp_path / "run"
        assert self.run(workspace, out) == 0
        scene = workspace["scenes"][2]
        suffixes = (".rhdr", ".rbin") if flag == "--scene" else (".json",)
        for suffix in suffixes:
            (out / (name + suffix)).write_bytes(scene.with_suffix(suffix).read_bytes())
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        assert self.run(workspace, out, [flag, str(out / (name + suffixes[0]))]) == 2
        assert capsys.readouterr().err.startswith("configuration error: input ")
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_a_failed_rerun_leaves_no_earlier_output(self, workspace, tmp_path, monkeypatch):
        # a second run that failed in detection used to leave its veg_mask
        # and probability beside the first run's manifest and detections
        out = tmp_path / "run"
        # the later --scene wins, so the second run reads another scene
        other = ["--scene", str(workspace["scenes"][1])]
        assert self.run(workspace, out) == 0
        assert self.run(workspace, tmp_path / "fresh", other) == 0
        monkeypatch.setattr(cli, "detect_crowns", mock.Mock(side_effect=MemoryError("detection")))
        assert self.run(workspace, out, other) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        fresh = json.loads((tmp_path / "fresh" / "manifest.json").read_text())
        fresh["config"]["out_dir"] = str(out)
        assert manifest == fresh and manifest["config"]["scene_path"] == other[1]
        kept = ["probability.rbin", "probability.rhdr", "veg_mask.rbin", "veg_mask.rhdr"]
        assert sorted(path.name for path in out.iterdir()) == ["manifest.json", *kept]
        for name in kept:
            assert (out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes(), name

    def test_a_failed_config_rerun_in_place_keeps_its_manifest(self, workspace, tmp_path, monkeypatch):
        out = tmp_path / "run"
        assert self.run(workspace, out) == 0
        manifest = (out / "manifest.json").read_bytes()
        monkeypatch.setattr(cli, "detect_crowns", mock.Mock(side_effect=MemoryError("detection")))
        assert main(["pipeline", "--config", str(out / "manifest.json")]) == 3
        assert (out / "manifest.json").read_bytes() == manifest

    def test_a_rejected_model_keeps_the_earlier_run(self, workspace, tmp_path, capsys):
        # an incompatible model used to delete the earlier run's
        # eval.json, metrics.csv and metrics.json before it was rejected
        out = tmp_path / "run"
        assert self.run(workspace, out) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert {"eval.json", "metrics.csv", "metrics.json"} <= set(before)
        params = ModelParams(("swir", "ndvi"), np.ones(2), 0.0, np.zeros(2), np.ones(2))
        save_params(params, tmp_path / "swir.json")
        code = main([
            "pipeline", "--scene", str(workspace["scenes"][2]), "--model", str(tmp_path / "swir.json"),
            "--out", str(out),
        ])
        assert code == 3
        assert "['swir']" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_only_the_first_row_is_read_before_the_manifest(self, workspace, tmp_path, monkeypatch):
        # the scene check reads row 0 alone; the first row band used to be
        # read whole and held until the loop took it
        out = tmp_path / "run"
        windows = []
        load = cli.load_raster

        def spy(path, rows=None):
            windows.append((rows, (out / "manifest.json").exists()))
            return load(path, rows)

        monkeypatch.setattr(cli, "load_raster", spy)
        with mock.patch.object(cli, "DEFAULT_TILE_SIZE", 64):
            assert self.run(workspace, out) == 0
        assert [rows for rows, written in windows if not written] == [slice(0, 1)]
        assert [rows for rows, written in windows if written] == [slice(y, min(y + 64, 220)) for y in range(0, 220, 64)]

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
        assert len(tile_plan(size, size, DEFAULT_TILE_SIZE).windows) == len(evaluated) == 4
        assert sum(evaluated) == size * size
        assert (coverage == 1).all()

    def test_crowns_across_row_band_edges_keep_every_byte(self, tmp_path, monkeypatch):
        # 64-row bands cut touching crowns, split components among them;
        # every output must equal the one-band run's
        raster, ann = generate_scene(
            SceneSpec(width=200, height=256, counts={"healthy": 40, "smallish": 10, "dead": 10},
                      min_spacing=0.0, seed=11)
        )
        save_raster(raster, tmp_path / "scene")
        save_annotations(ann, tmp_path / "scene.json")
        names = ("red", "green", "blue", "nir", "ndvi", "gndvi")
        weights = np.array([0.0, 0.0, 0.0, 0.0, 20.0, 0.0])
        save_params(ModelParams(names, weights, -10.0, np.zeros(6), np.ones(6)), tmp_path / "model.json")
        splits = []
        split = crown_detect.split_touching
        monkeypatch.setattr(crown_detect, "split_touching", lambda *a: splits.append(1) or split(*a))
        runs = {}
        for tile_size in (DEFAULT_TILE_SIZE, 64):
            config = PipelineConfig(
                scene_path=str(tmp_path / "scene.rhdr"), model_path=str(tmp_path / "model.json"),
                out_dir=str(tmp_path / f"run{tile_size}"), truth_path=str(tmp_path / "scene.json"), max_area=150,
            )
            with mock.patch.object(cli, "DEFAULT_TILE_SIZE", tile_size):
                run_pipeline(config)
            runs[tile_size] = {name: (tmp_path / f"run{tile_size}" / name).read_bytes() for name in cli.PIPELINE_OUTPUTS}
        assert splits
        crossing = [
            f for f in json.loads(runs[64]["detections.geojson"])["features"]
            if any(f["properties"]["bbox"][1] < edge <= f["properties"]["bbox"][3] for edge in (64, 128, 192))
        ]
        assert len(crossing) >= 5
        for name in cli.PIPELINE_OUTPUTS:
            assert runs[64][name] == runs[DEFAULT_TILE_SIZE][name], name

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
        )
        run_pipeline(config)
        written = load_raster(tmp_path / "run" / "probability.rhdr").bands[0].samples
        expected = predict_map(with_band, with_band.valid_mask(), params).values
        np.testing.assert_array_equal(written.view(np.uint32), expected.view(np.uint32))
        derived = predict_map(scene, scene.valid_mask(), params).values
        assert not np.array_equal(written, derived, equal_nan=True)

    def test_max_dist_without_truth_is_refused(self, workspace, tmp_path, capsys):
        # it used to be ignored: every output but manifest.json was the
        # run's without it
        args = ["--scene", str(workspace["scenes"][2]), "--model", str(workspace["model"]), "--out", str(tmp_path / "run")]
        assert main(["pipeline", *args, "--max-dist", "3"]) == 2
        assert capsys.readouterr().err == "configuration error: --max-dist needs --truth\n"
        assert not (tmp_path / "run").exists()

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

    @pytest.mark.parametrize("command", ["tile"])
    def test_tile_beyond_the_grid_bound_writes_nothing(self, tmp_path, capsys, command):
        # a 2^40-px tile edge used to end in numpy's "array is too big" traceback
        raster = random_raster(np.random.default_rng(0), 64, 64, ("red", "green", "blue", "nir"))
        save_raster(raster, tmp_path / "scene")
        assert main([command, str(tmp_path / "scene.rhdr"), str(tmp_path / "out"), "--tile-size", str(2**40)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error")
        assert not list(tmp_path.glob("out*"))

    def test_prediction_takes_no_tile_size(self, workspace, tmp_path, capsys):
        # prediction always tiles at DEFAULT_TILE_SIZE; only tile sets a size
        scene, model, out = str(workspace["scenes"][0]), str(workspace["model"]), str(tmp_path / "out")
        for argv in (
            ["predict", scene, "--model", model, "--out", out, "--tile-size", "64"],
            ["pipeline", "--scene", scene, "--model", model, "--out", out, "--tile-size", "64"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments: --tile-size 64" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_headline_takes_no_averaging(self, workspace, tmp_path, capsys):
        # the headline is always macro; the metrics files hold every aggregate
        scene = workspace["scenes"][2]
        truth = str(scene.parent / "scene.json")
        dets = tmp_path / "dets.geojson"  # never read: parsing fails first
        for argv in (
            ["eval", str(dets), truth, "--out", str(tmp_path / "run"), "--averaging", "micro"],
            ["pipeline", "--scene", str(scene), "--model", str(workspace["model"]), "--truth", truth,
             "--out", str(tmp_path / "run"), "--averaging", "micro"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments: --averaging micro" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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
        [["--prob-threshold", "2"], ["--min-area", "0"]],
    )
    def test_bad_pipeline_setting_is_rejected_before_any_io(self, workspace, tmp_path, flags):
        # a bad setting used to be rejected only after the scene was read
        # and veg_mask written
        out = tmp_path / "run"
        code = main([
            "pipeline", "--scene", str(workspace["scenes"][2]), "--model", str(workspace["model"]),
            "--out", str(out), *flags,
        ])
        assert code == 2
        assert not out.exists()

    def test_unknown_manifest_veg_index_is_config_error(self, workspace, tmp_path, capsys):
        # used to exit 3, as a data error, after reading the scene
        # a config has no veg_index, so the manifest is written by hand
        out = tmp_path / "run"
        config = PipelineConfig(
            scene_path=str(workspace["scenes"][2]), model_path=str(workspace["model"]), out_dir=str(out),
        )
        payload = config.to_manifest()
        payload["config"]["veg_index"] = "foo"
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(payload))
        assert main(["pipeline", "--config", str(manifest)]) == 2
        assert "veg_index" in capsys.readouterr().err
        assert not out.exists()

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
            ["--epochs", "5"],
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
        # --max-dist parses to None, so that it is refused without --truth,
        # and the run takes the config's default
        with mock.patch.object(cli, "run_pipeline", side_effect=StopIteration) as run, pytest.raises(StopIteration):
            main(["pipeline", "--scene", "s", "--model", "m", "--out", "o"])
        assert run.call_args.args == (PipelineConfig(scene_path="s", model_path="m", out_dir="o"),)

    def test_each_pipeline_setting_is_one_flag(self):
        # a flag without a field would be ignored silently, outside --config too
        parser = build_parser()
        (subparsers,) = (a for a in parser._actions if a.choices and "pipeline" in a.choices)
        dests = {a.dest for a in subparsers.choices["pipeline"]._actions} - {"config", "help"}
        assert dests == {f.name for f in fields(PipelineConfig)}

    def test_detect_defaults_are_the_detector_defaults(self):
        args = self.parse("detect", "p.rhdr", "s.rhdr", "--out", "o")
        assert config_from(DetectorConfig, args) == DetectorConfig()

    def test_train_defaults_are_the_train_defaults(self):
        args = self.parse("train", "s.rhdr", "--out", "m.json")
        assert config_from(TrainConfig, args) == TrainConfig()

    def test_each_train_setting_is_one_flag(self):
        parser = build_parser()
        (subparsers,) = (a for a in parser._actions if a.choices and "train" in a.choices)
        dests = {a.dest for a in subparsers.choices["train"]._actions} - {"scenes", "out", "help"}
        assert dests == {f.name for f in fields(TrainConfig)}

    def test_flags_reach_their_fields(self):
        args = self.parse(
            "pipeline", "--scene", "s", "--model", "m", "--out", "o", "--truth", "t",
            "--smallish-diameter", "9", "--max-dist", "4",
        )
        assert config_from(PipelineConfig, args) == PipelineConfig(
            scene_path="s", model_path="m", out_dir="o", truth_path="t", smallish_diameter_px=9.0,
            match_max_dist=4.0,
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

    def test_detect_checks_the_grid_before_reading_the_map(self, workspace, tmp_path, capsys, monkeypatch):
        # the map is off the scene's grid and its payload is truncated: the
        # grid is the error, found from the headers alone
        save_raster(MaskedGrid(np.full((240, 220), 0.9, np.float32)).to_raster(), tmp_path / "prob")
        (tmp_path / "prob.rbin").write_bytes((tmp_path / "prob.rbin").read_bytes()[:-4])
        monkeypatch.setattr(cli, "load_raster", mock.Mock(side_effect=AssertionError("a payload was read")))
        code = main(["detect", str(tmp_path / "prob.rhdr"), str(workspace["scenes"][0]), "--out", str(tmp_path / "d")])
        assert code == 3
        assert "does not cover the scene" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["prob.rbin", "prob.rhdr"]

    def test_detect_checks_the_last_row_band(self, workspace, tmp_path, capsys, monkeypatch):
        # four row bands of 64 rows: the bad value lies in the last, read
        # after the others' samples are gathered
        values = np.full((220, 220), 0.9, np.float32)
        values[210, 30] = 1.5
        save_raster(MaskedGrid(values).to_raster(), tmp_path / "prob")
        monkeypatch.setattr(cli, "DEFAULT_TILE_SIZE", 64)
        code = main(["detect", str(tmp_path / "prob.rhdr"), str(workspace["scenes"][0]), "--out", str(tmp_path / "d")])
        assert code == 3
        assert "[0, 1], got 0.8999999761581421 to 1.5 in rows 192:220" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["prob.rbin", "prob.rhdr"]

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
    "pipeline config": {"config": {"scene_path": "missing.rhdr", "model_path": "m.json", "out_dir": "o", "min_area": 16}},
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
            "--out", str(root / "run"),
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
