"""The traced benchmark still binds every span it expects.

perfbench/tracing.py swaps palmwatch functions, at the module attribute
their caller looks them up by, for span recorders, and some of its
counters read parameters by name. A refactor that renames such a
binding or parameter would only show in a ``--trace 1`` benchmark run;
these tests run a small traced pipeline and a small traced augment run
so that it fails here too. The benchmark's files are only read: they
are loaded without writing bytecode next to them.
"""

import contextlib
import importlib.util
import io
import sys
import threading
from pathlib import Path
from unittest import mock

import pytest

from palmwatch import cli, indices, pixel_model, raster_core
from palmwatch.augment import AugmentSpec, CropOp, FlipHOp, FlipVOp, GammaOp, GaussianNoiseOp, ScaleOp, spec_to_json
from palmwatch.synth_scene import SceneSpec, generate_scene
from palmwatch.raster_core import save_raster
from palmwatch.annotations import save_annotations

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return _load("tracing"), _load("workloads")
    finally:
        sys.dont_write_bytecode = dont_write


def test_traced_pipeline_records_every_expected_span(perfbench, tmp_path):
    tracing, workloads = perfbench
    raster, ann = generate_scene(
        SceneSpec(width=300, height=300, counts={"healthy": 6, "smallish": 3, "dead": 3}, seed=5)
    )
    save_raster(raster, tmp_path / "scene")
    save_annotations(ann, tmp_path / "scene.json")
    config = cli.PipelineConfig(
        scene_path=str(tmp_path / "scene.rhdr"),
        model_path=str(workloads.MODEL_PATH),
        out_dir=str(tmp_path / "out"),
        truth_path=str(tmp_path / "scene.json"),
        tile_size=128,
        overlap=16,
        # healthy crowns (16-28 px across) exceed this, so split_touching runs
        max_area=150,
    )
    with tracing.installed(tracing.Tracer()) as tracer:
        cli.run_pipeline(config)
    spans = tracer.take()
    recorded = {span.name for span in spans}
    # grove's spans: every pipeline span, and split_touching
    assert set(workloads.WORKLOADS["grove"].spans) <= recorded
    metrics = tracing.layer_metrics(spans)
    assert metrics["crown_detect.split_calls"] > 0
    assert metrics["tiling.tiles"] == 9
    assert metrics["tiling.evaluated_px_ratio"] > 1.0
    assert metrics["crown_detect.detections"] > 0
    assert metrics["raster_core.bytes_read"] > 0


def test_traced_pipeline_with_worker_threads_keeps_every_span_in_order(perfbench, tmp_path):
    # worker threads may call no function the tracer wraps: its spans form
    # one stack, and a span that a worker opened would close out of order
    tracing, workloads = perfbench
    size, tile_size = 512, 384
    # the index and every tile's prediction split into several row blocks
    assert size * size > 2 * raster_core.BLOCK_PX and tile_size**2 > 2 * raster_core.BLOCK_PX
    raster, ann = generate_scene(
        SceneSpec(width=size, height=size, counts={"healthy": 10, "smallish": 4, "dead": 4}, seed=6)
    )
    save_raster(raster, tmp_path / "scene")
    save_annotations(ann, tmp_path / "scene.json")
    config = cli.PipelineConfig(
        scene_path=str(tmp_path / "scene.rhdr"),
        model_path=str(workloads.MODEL_PATH),
        out_dir=str(tmp_path / "out"),
        truth_path=str(tmp_path / "scene.json"),
        tile_size=tile_size,
        jobs=2,
        max_area=150,
    )
    # for each kernel call, whether no block of it ran in the calling thread
    off_caller = []

    def recording(map_row_blocks):
        def record(n_rows, width, fn, *args, **kwargs):
            caller, threads = threading.get_ident(), set()

            def block(rows, buffers):
                threads.add(threading.get_ident())
                fn(rows, buffers)

            map_row_blocks(n_rows, width, block, *args, **kwargs)
            off_caller.append(caller not in threads)

        return record

    with (
        tracing.installed(tracing.Tracer()) as tracer,
        mock.patch.object(indices, "map_row_blocks", recording(indices.map_row_blocks)),
        mock.patch.object(pixel_model, "map_row_blocks", recording(pixel_model.map_row_blocks)),
    ):
        cli.run_pipeline(config)
    spans = tracer.take()  # raises while a span is open
    # the veg index, then each of the four tiles' gNDVI and prediction, ran
    # on pool threads alone; the classifier's two one-row indices ran in
    # the caller
    assert off_caller == [True] * 9 + [False] * 2
    assert set(workloads.WORKLOADS["grove"].spans) <= {span.name for span in spans}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end, span.name


def test_traced_augment_records_every_expected_span(perfbench, tmp_path):
    tracing, workloads = perfbench
    tiles = tmp_path / "tiles"
    tiles.mkdir()
    for i in range(2):
        raster, ann = generate_scene(SceneSpec(width=96, height=96, counts={"healthy": 2}, seed=20 + i))
        save_raster(raster, tiles / f"tile_{i}")
        save_annotations(ann, tiles / f"tile_{i}.json")
    spec = AugmentSpec(
        operations=(CropOp(80), GaussianNoiseOp(0.01), GammaOp(0.8, 1.25), FlipHOp(), FlipVOp(), ScaleOp(0.75, 1.25)),
        seed=3,
    )
    (tmp_path / "spec.json").write_text(spec_to_json(spec))
    argv = ["augment", str(tiles), str(tmp_path / "out"), "--spec", str(tmp_path / "spec.json")]
    with tracing.installed(tracing.Tracer()) as tracer, contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    recorded = {span.name for span in tracer.take()}
    assert set(workloads.WORKLOADS["augment"].spans) <= recorded
