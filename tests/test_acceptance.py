"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import hashlib
import json
import time
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from palmwatch import cli, raster_core
from palmwatch.annotations import CLASS_LABELS, AnnotationSet, CrownAnnotation, disc_pixels, load_annotations
from palmwatch.augment import (
    AugmentSpec,
    CropOp,
    FlipHOp,
    FlipVOp,
    GammaOp,
    GaussianNoiseOp,
    ScaleOp,
    apply_spec,
    flip_h,
    flip_v,
    gamma_adjust,
    gaussian_noise,
)
from palmwatch.cli import PipelineConfig, run_pipeline
from palmwatch.errors import DegenerateDataError
from palmwatch.evaluate import (
    confusion_matrix,
    f1_score,
    metrics,
    pearson,
    prune_features,
    split_dataset,
)
from palmwatch.indices import gndvi, ndvi
from palmwatch.pixel_model import (
    TrainConfig,
    build_training_set,
    gradient,
    loss,
    save_params,
    train,
)
from palmwatch.raster_core import Band, Mask, MaskedGrid, Raster, read_header, save_raster
from palmwatch.synth_scene import SceneSpec, generate_scene
from palmwatch.tiling import extract_tile, stitch, tile_plan


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number}: {description}")
        raise
    print(f"PASS  criterion {number}: {description}")


def test_criterion_1_metric_formula_fidelity():
    with criterion(1, "metric formulas reproduce hand evaluation; "
                      "published precision/recall recombine to 0.9478 +/- 5e-4"):
        # harmonic mean of the published table's printed precision/recall;
        # the table's own F1 differs by ~7e-4 (rounded upstream values)
        headline = f1_score(0.9551, 0.9406)
        assert abs(headline - 0.9478) <= 5e-4
        assert abs(headline - 0.9471) <= 1e-3

        # binary quadrants: rows actual, cols predicted, (neg, pos)
        cm = confusion_matrix(
            ["neg"] * 7 + ["pos"] * 3,
            ["neg"] * 6 + ["pos", "pos", "pos", "neg"],
            ("neg", "pos"),
        )
        np.testing.assert_array_equal(cm.counts, [[6, 1], [1, 2]])
        report = metrics(cm)
        tp, fp, fn, tn = 2, 1, 1, 6
        assert report.accuracy == (tp + tn) / (tp + tn + fp + fn)
        pos = report.per_class[1]
        assert pos.precision == tp / (tp + fp)
        assert pos.recall == tp / (tp + fn)
        assert pos.f1 == 2 * pos.precision * pos.recall / (pos.precision + pos.recall)

        # random multiclass matrices against independent per-class tallies
        rng = np.random.default_rng(11)
        for _ in range(20):
            classes = ("healthy", "smallish", "dead")
            counts = rng.integers(0, 50, size=(3, 3))
            counts[0, 0] += 1
            from palmwatch.evaluate import ConfusionMatrix

            report = metrics(ConfusionMatrix(classes, counts))
            assert report.accuracy == counts.trace() / counts.sum()
            for i, m in enumerate(report.per_class):
                tp = counts[i, i]
                col = counts[:, i].sum()
                row = counts[i, :].sum()
                assert m.precision == (tp / col if col else 0.0)
                assert m.recall == (tp / row if row else 0.0)
            assert abs(report.micro.f1 - report.accuracy) < 1e-12


def test_criterion_2_gradient_correctness():
    with criterion(2, "analytic gradient matches central differences, "
                      "max relative error < 1e-4 over 100 draws"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        step = 1e-3
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(8, 256))
            f = int(rng.integers(1, 9))
            X = rng.normal(size=(n, f))
            X = (X - X.mean(axis=0)) / np.maximum(X.std(axis=0), 1e-9)
            y = rng.integers(0, 2, size=n).astype(np.float64)
            weights = rng.normal(scale=0.8, size=f)
            bias = float(rng.normal(scale=0.8))
            l2 = float(rng.uniform(0, 0.01))
            grad_w, grad_b = gradient(weights, bias, X, y, l2)
            for i in range(f):
                up, down = weights.copy(), weights.copy()
                up[i] += step
                down[i] -= step
                fd = (loss(up, bias, X, y, l2) - loss(down, bias, X, y, l2)) / (2 * step)
                worst = max(worst, abs(grad_w[i] - fd) / max(abs(fd), 1e-8))
            fd_b = (
                loss(weights, bias + step, X, y, l2)
                - loss(weights, bias - step, X, y, l2)
            ) / (2 * step)
            worst = max(worst, abs(grad_b - fd_b) / max(abs(fd_b), 1e-8))
        elapsed = time.perf_counter() - start
        assert worst < 1e-4, f"max relative error {worst}"
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_3_index_invariants():
    with criterion(3, "10^6 random pixels: indices in [-1,1], antisymmetry exact, "
                      "zero denominator invalid"):
        start = time.perf_counter()
        rng = np.random.default_rng(3)
        shape = (1000, 1000)
        a = rng.random(shape, dtype=np.float32) * 2.0
        b = rng.random(shape, dtype=np.float32) * 2.0
        # plant exact zero-denominator pixels
        zero_at = rng.random(shape) < 0.001
        a[zero_at] = 0.0
        b[zero_at] = 0.0
        mask = Mask(np.ones(shape, bool))
        band_a, band_b = Band("a", a), Band("b", b)

        for index_fn in (ndvi, gndvi):
            forward = index_fn(band_a, band_b, mask)
            backward = index_fn(band_b, band_a, mask)
            vals = forward.values[forward.valid]
            assert (vals >= -1).all() and (vals <= 1).all()
            np.testing.assert_array_equal(forward.valid, backward.valid)
            np.testing.assert_array_equal(
                forward.values[forward.valid], -backward.values[backward.valid]
            )
            assert not forward.valid[zero_at].any()
            assert forward.valid.sum() == shape[0] * shape[1] - zero_at.sum()
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_criterion_4_tiling_round_trip():
    with criterion(4, "stitch(extract) bit-exact at overlap 0 on 50 random rasters; "
                      "overlap blending is the contributor mean"):
        start = time.perf_counter()
        rng = np.random.default_rng(4)
        for trial in range(50):
            w = int(rng.integers(1, 4097))
            h = int(rng.integers(1, 4097))
            tile_size = int(rng.choice([64, 256, 1024]))
            values = rng.random((h, w), dtype=np.float32)
            raster = Raster(bands=(Band("p", values),))
            plan = tile_plan(w, h, tile_size, 0)
            outputs = []
            for window in plan.windows:
                tile = extract_tile(raster, window)
                samples = tile.band("p").samples
                outputs.append(MaskedGrid(samples))
            stitched = stitch(plan, outputs)
            assert stitched.valid.all()
            np.testing.assert_array_equal(
                stitched.values.view(np.uint32), values.view(np.uint32)
            )

        # constructed two-tile overlap: stride 2 with tile 4 -> columns 2..3
        # shared; each map is its window's size, 4 wide and 2 high
        plan = tile_plan(6, 2, 4, 2)
        m0 = MaskedGrid(np.full((2, 4), 0.2, np.float32))
        m1 = MaskedGrid(np.full((2, 4), 0.6, np.float32))
        blended = stitch(plan, [m0, m1])
        np.testing.assert_array_equal(blended.values[:, 2:4], np.float32((0.2 + 0.6) / 2))
        np.testing.assert_array_equal(blended.values[:, :2], np.float32(0.2))
        np.testing.assert_array_equal(blended.values[:, 4:], np.float32(0.6))
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_5_augmentation_algebra():
    with criterion(5, "flip involutions exact, gamma-1/sigma-0 identities, "
                      "annotation consistency on 1000 random tiles"):
        start = time.perf_counter()
        rng = np.random.default_rng(5)

        def random_tile_and_annotations(width, height):
            bands = tuple(
                Band(name, rng.random((height, width), dtype=np.float32))
                for name in ("red", "nir")
            )
            tile = Raster(bands=bands)
            crowns = tuple(
                CrownAnnotation(
                    i + 1,
                    "healthy",
                    float(rng.uniform(3, width - 3)),
                    float(rng.uniform(3, height - 3)),
                    float(rng.uniform(1.5, 6.0)),
                )
                for i in range(int(rng.integers(1, 4)))
            )
            return tile, AnnotationSet(crowns)

        for _ in range(50):
            tile, ann = random_tile_and_annotations(40, 40)
            again_tile, again_ann = flip_h(*flip_h(tile, ann))
            for name in tile.band_names:
                np.testing.assert_array_equal(
                    again_tile.band(name).samples, tile.band(name).samples
                )
            assert again_ann.crowns == ann.crowns
            again_tile, again_ann = flip_v(*flip_v(tile, ann))
            for name in tile.band_names:
                np.testing.assert_array_equal(
                    again_tile.band(name).samples, tile.band(name).samples
                )
            assert again_ann.crowns == ann.crowns

            identity = gamma_adjust(tile, 1.0)
            for name in tile.band_names:
                np.testing.assert_array_equal(
                    identity.band(name).samples, tile.band(name).samples
                )
            identity = gaussian_noise(tile, 0.0, np.random.default_rng(0))
            for name in tile.band_names:
                np.testing.assert_array_equal(
                    identity.band(name).samples, tile.band(name).samples
                )

        # crop sized for the worst case: one 0.6x scale ahead of it
        op_pool = (
            CropOp(size=12),
            GaussianNoiseOp(sigma=0.02),
            GammaOp(lo=0.7, hi=1.4),
            FlipHOp(),
            FlipVOp(),
            ScaleOp(lo=0.6, hi=1.6),
        )
        for trial in range(1000):
            tile, ann = random_tile_and_annotations(
                int(rng.integers(28, 56)), int(rng.integers(28, 56))
            )
            picks = rng.choice(len(op_pool), size=int(rng.integers(1, 5)), replace=False)
            spec = AugmentSpec(
                operations=tuple(op_pool[i] for i in picks),
                seed=int(rng.integers(0, 2**63)),
            )
            out_tile, out_ann = apply_spec(tile, ann, spec, trial)
            for c in out_ann.crowns:
                ys, xs = disc_pixels(c.cx, c.cy, c.radius_px, out_tile.width, out_tile.height)
                if len(xs):
                    assert 0 <= xs.min() and xs.max() < out_tile.width
                    assert 0 <= ys.min() and ys.max() < out_tile.height
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_6_end_to_end_synthetic_oracle(tmp_path):
    with criterion(6, "4096x4096 oracle through synth, train and pipeline --truth: detection "
                      "precision/recall >= 0.98, 3-class macro F1 >= 0.95, < 120 s predicting on one CPU"):
        # the commands a user runs, on disk: four scenes to train on and a
        # fifth held out, each read back by the command that needs it
        start = time.perf_counter()
        for seed in (1000, 1001, 1002, 1003, 2000):
            assert cli.main(["synth", str(tmp_path / f"s{seed}"), "--seed", str(seed)]) == 0
        synth_s = time.perf_counter() - start

        model = tmp_path / "model.json"
        scenes = [str(tmp_path / f"s{seed}" / "scene.rhdr") for seed in (1000, 1001, 1002, 1003)]
        assert cli.main(["train", *scenes, "--seed", "0", "--out", str(model)]) == 0
        train_s = time.perf_counter() - start - synth_s

        held = tmp_path / "s2000"
        truth = load_annotations(held / "scene.json")
        header = read_header(held / "scene.rhdr")
        assert header.width == header.height == 4096
        assert len(truth) >= 150
        assert all(truth.of_class(label) for label in CLASS_LABELS)
        with mock.patch.object(raster_core, "usable_cpus", return_value=1):
            assert cli.main([
                "pipeline", "--scene", str(held / "scene.rhdr"), "--model", str(model),
                "--truth", str(held / "scene.json"), "--out", str(tmp_path / "run"),
            ]) == 0
        elapsed = time.perf_counter() - start
        pipeline_s = elapsed - synth_s - train_s

        evaluation = json.loads((tmp_path / "run" / "eval.json").read_text())
        precision = evaluation["detection"]["precision"]
        recall = evaluation["detection"]["recall"]
        macro_f1 = evaluation["classification"]["macro"]["f1"]
        print(
            f"      [detection precision {precision:.4f}, recall {recall:.4f}, macro F1 {macro_f1:.4f}, "
            f"{elapsed:.0f}s: synth {synth_s:.1f}s, train {train_s:.1f}s, pipeline {pipeline_s:.1f}s; "
            f"model sha256 {hashlib.sha256(model.read_bytes()).hexdigest()}]"
        )
        assert precision >= 0.98
        assert recall >= 0.98
        assert macro_f1 >= 0.95
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "identical manifests give byte-identical GeoJSON/CSV "
                      "across reruns and CPU counts"):
        scenes = []
        for i in range(2):
            spec = SceneSpec(
                width=320,
                height=320,
                counts={"healthy": 6, "smallish": 4, "dead": 4},
                seed=50 + i,
            )
            scenes.append(generate_scene(spec))
        config = TrainConfig(seed=0)
        X, y, names = build_training_set(scenes, config)
        params = train(X, y, names, config)
        model_path = tmp_path / "model.json"
        save_params(params, model_path)

        eval_spec = SceneSpec(
            width=320,
            height=320,
            counts={"healthy": 6, "smallish": 4, "dead": 4},
            seed=99,
        )
        raster, ann = generate_scene(eval_spec)
        scene_path = tmp_path / "scene"
        save_raster(raster, scene_path)
        from palmwatch.annotations import save_annotations

        truth_path = tmp_path / "scene.json"
        save_annotations(ann, truth_path)

        def run(out_name, cpus):
            config = PipelineConfig(
                scene_path=str(tmp_path / "scene.rhdr"),
                model_path=str(model_path),
                out_dir=str(tmp_path / out_name),
                truth_path=str(truth_path),
            )
            # 3x3 tiles
            with (
                mock.patch.object(raster_core, "usable_cpus", return_value=cpus),
                mock.patch.object(cli, "DEFAULT_TILE_SIZE", 128),
            ):
                run_pipeline(config)
            return tmp_path / out_name

        first = run("run1", cpus=1)
        second = run("run2", cpus=1)
        parallel = run("run3", cpus=3)
        compared = 0
        for name in ("detections.geojson", "detections.csv", "metrics.csv", "probability.rbin"):
            reference = (first / name).read_bytes()
            assert (second / name).read_bytes() == reference, name
            assert (parallel / name).read_bytes() == reference, name
            compared += 1
        assert compared == 4
        manifest_one = json.loads((first / "manifest.json").read_text())
        manifest_two = json.loads((second / "manifest.json").read_text())
        manifest_one["config"].pop("out_dir")
        manifest_two["config"].pop("out_dir")
        assert manifest_one == manifest_two


def test_criterion_8_split_arithmetic():
    with criterion(8, "split_dataset(4682, 0.8) yields 3745/937 and partitions exactly"):
        ids = [f"palm_{i}" for i in range(4682)]
        split = split_dataset(ids, 0.8, seed=7)
        assert len(split.train_ids) == 3745
        assert len(split.test_ids) == 937
        assert set(split.train_ids) | set(split.test_ids) == set(ids)
        assert not set(split.train_ids) & set(split.test_ids)
        again = split_dataset(ids, 0.8, seed=7)
        assert split.train_ids == again.train_ids


def test_criterion_9_pearson_properties():
    with criterion(9, "pearson self-correlation/affine invariance to 1e-12, "
                      "degenerate rejection, constant features always pruned"):
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.normal(size=400)
            y = rng.normal(size=400)
            assert abs(pearson(x, x) - 1.0) <= 1e-12
            r = pearson(x, y)
            a = float(rng.uniform(0.1, 10.0))
            b = float(rng.normal())
            assert abs(pearson(a * x + b, y) - r) <= 1e-12
            assert abs(pearson(-a * x + b, y) + r) <= 1e-12
        with pytest.raises(DegenerateDataError):
            pearson(np.full(50, 3.3), rng.normal(size=50))
        for seed in range(10):
            local = np.random.default_rng(seed)
            response = local.normal(size=100)
            kept = prune_features(
                {"const": np.full(100, 1.7), "signal": response + local.normal(size=100)},
                response,
            )
            assert "const" not in [name for name, _ in kept]
