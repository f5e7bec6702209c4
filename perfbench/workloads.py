"""The benchmark's workloads: input generation, one op, and the op's checks.

Each workload is built so that one module does most of its work:

- survey: ``run_pipeline`` with default settings on one default
  4096x4096 scene with sparse crowns; prediction, tiling and raster I/O
  dominate and detection is light.
- grove: ``run_pipeline`` on a 2048x2048 scene of large overlapping
  crowns; oversized components go through ``split_touching`` and
  thousands of detections are matched, so ``crown_detect`` dominates.
- augment: ``palmwatch augment`` with all six ops over 16 annotated
  1024x1024 tiles; the only workload that runs ``augment``, and the one
  where ``raster_core`` mostly writes.

Inputs are a pure function of the workload seed. palmwatch sees only the
files written here.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from palmwatch import cli, pixel_model, synth_scene
from palmwatch.annotations import AnnotationSet, load_annotations, save_annotations
from palmwatch.augment import (
    AugmentSpec,
    CropOp,
    FlipHOp,
    FlipVOp,
    GammaOp,
    GaussianNoiseOp,
    ScaleOp,
    spec_to_json,
)
from palmwatch.crown_detect import load_geojson
from palmwatch.indices import ndvi
from palmwatch.raster_core import Band, Mask, Raster, load_raster, save_raster

MODEL_PATH = Path(__file__).resolve().parent / "model.json"

# Criterion-6 gates a survey op must meet.
SURVEY_MIN_DET_PRECISION = 0.98
SURVEY_MIN_DET_RECALL = 0.98
SURVEY_MIN_MACRO_F1 = 0.95

GROVE_SIZE = 2048
GROVE_COUNTS = {"healthy": 350, "smallish": 150, "dead": 200}
GROVE_DIAMETERS = {"healthy": (40.0, 64.0), "smallish": (7.0, 11.0), "dead": (40.0, 64.0)}

AUGMENT_TILES = 16
AUGMENT_TILE_SIZE = 1024
# Default crown density (175 crowns per 4096x4096 scene) on a 1024x1024 tile.
AUGMENT_TILE_COUNTS = {"healthy": 6, "smallish": 3, "dead": 2}
AUGMENT_SPEC = AugmentSpec(
    operations=(
        CropOp(896),
        GaussianNoiseOp(0.01),
        GammaOp(0.8, 1.25),
        FlipHOp(),
        FlipVOp(),
        ScaleOp(0.75, 1.25),
    ),
    seed=7,
)


class CheckFailed(Exception):
    """An op's outputs failed a correctness check."""


def derived_seed(seed: int, *tags: int) -> int:
    """A scene seed for one input of a workload, independent across tags."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1, np.uint64)[0] >> 1)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 22), b""):
            digest.update(block)
    return digest.hexdigest()


def sha256_tree(root: Path) -> str:
    """One digest over every file below ``root``: sorted relative names and bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(sha256_file(path).encode())
    return digest.hexdigest()


def _write_scene(raster: Raster, ann: AnnotationSet, stem: Path) -> None:
    save_raster(raster, stem)
    save_annotations(ann, stem.with_suffix(".json"))


def _install_model(inputs: Path) -> str:
    """Copy the fixed model into the inputs and check that palmwatch loads it."""
    target = inputs / "model.json"
    shutil.copyfile(MODEL_PATH, target)
    pixel_model.load_params(target)
    return sha256_file(target)


# ---------------------------------------------------------------------------
# set-up: generate and write inputs (and load the model)


def setup_survey(seed: int, inputs: Path) -> dict:
    raster, ann = synth_scene.generate_scene(synth_scene.SceneSpec(seed=derived_seed(seed, 2)))
    _write_scene(raster, ann, inputs / "scene")
    return {"model_sha256": _install_model(inputs)}


def setup_grove(seed: int, inputs: Path) -> dict:
    """Two seeded layers of large crowns; per pixel the higher-NDVI layer wins.

    The truth is the union of both layers' crowns, renumbered, so crowns
    overlap and touching components exceed the detector's max_area.
    """
    layers = [
        synth_scene.generate_scene(
            synth_scene.SceneSpec(
                width=GROVE_SIZE,
                height=GROVE_SIZE,
                counts=dict(GROVE_COUNTS),
                diameter_ranges=dict(GROVE_DIAMETERS),
                min_spacing=0.0,
                seed=derived_seed(seed, 3, k),
            )
        )
        for k in range(2)
    ]
    (a, ann_a), (b, ann_b) = layers
    everywhere = Mask(np.ones((GROVE_SIZE, GROVE_SIZE), dtype=bool))
    ndvi_a = ndvi(a.band("nir"), a.band("red"), everywhere).values
    ndvi_b = ndvi(b.band("nir"), b.band("red"), everywhere).values
    take_b = ndvi_b > ndvi_a
    composite = Raster(
        bands=tuple(
            Band(name=x.name, samples=np.where(take_b, y.samples, x.samples))
            for x, y in zip(a.bands, b.bands)
        ),
        nodata_value=None,
        origin=(0, 0),
    )
    crowns = [
        dataclasses.replace(crown, id=i)
        for i, crown in enumerate((*ann_a.crowns, *ann_b.crowns), start=1)
    ]
    _write_scene(composite, AnnotationSet(tuple(crowns)), inputs / "scene")
    return {"model_sha256": _install_model(inputs)}


def setup_augment(seed: int, inputs: Path) -> dict:
    tiles = inputs / "tiles"
    tiles.mkdir()
    for i in range(AUGMENT_TILES):
        spec = synth_scene.SceneSpec(
            width=AUGMENT_TILE_SIZE,
            height=AUGMENT_TILE_SIZE,
            counts=dict(AUGMENT_TILE_COUNTS),
            seed=derived_seed(seed, 4, i),
        )
        raster, ann = synth_scene.generate_scene(spec)
        _write_scene(raster, ann, tiles / f"tile_{i:02d}")
    (inputs / "augment_spec.json").write_text(spec_to_json(AUGMENT_SPEC))
    return {}


# ---------------------------------------------------------------------------
# ops: what a user runs; each returns what its check needs


def _cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise CheckFailed(f"palmwatch {argv[0]} exited with {rc}")
    return out.getvalue()


def op_pipeline(inputs: Path, out: Path):
    return cli.run_pipeline(
        cli.PipelineConfig(
            scene_path=str(inputs / "scene.rhdr"),
            model_path=str(inputs / "model.json"),
            out_dir=str(out),
            truth_path=str(inputs / "scene.json"),
        )
    )


def op_augment(inputs: Path, out: Path):
    return _cli([
        "augment",
        str(inputs / "tiles"),
        str(out / "tiles"),
        "--spec",
        str(inputs / "augment_spec.json"),
    ])


# ---------------------------------------------------------------------------
# checks: raise CheckFailed; return output digests and quality figures


def _check_pipeline(out: Path, summary: dict) -> tuple[dict, dict]:
    evaluation = summary.get("evaluation")
    if evaluation is None or "classification" not in evaluation:
        raise CheckFailed("pipeline produced no evaluation against the truth")
    n = summary["detections"]
    load_raster(out / "probability.rhdr")
    load_raster(out / "veg_mask.rhdr")
    if len(load_geojson(out / "detections.geojson")) != n:
        raise CheckFailed("detections.geojson does not hold every detection")
    with open(out / "detections.csv", newline="") as f:
        if len(list(csv.DictReader(f))) != n:
            raise CheckFailed("detections.csv does not hold every detection")
    with open(out / "metrics.csv", newline="") as f:
        if not list(csv.reader(f)):
            raise CheckFailed("metrics.csv is empty")
    digests = {
        name: sha256_file(out / name)
        for name in ("probability.rbin", "detections.geojson", "detections.csv", "metrics.csv")
    }
    detection = evaluation["detection"]
    quality = {
        "det_precision": detection["precision"],
        "det_recall": detection["recall"],
        "macro_f1": evaluation["classification"]["macro"]["f1"],
    }
    return digests, quality


def check_survey(inputs: Path, out: Path, summary: dict) -> tuple[dict, dict]:
    digests, quality = _check_pipeline(out, summary)
    if not (
        quality["det_precision"] >= SURVEY_MIN_DET_PRECISION
        and quality["det_recall"] >= SURVEY_MIN_DET_RECALL
        and quality["macro_f1"] >= SURVEY_MIN_MACRO_F1
    ):
        raise CheckFailed(f"survey misses the criterion-6 gates: {quality}")
    return digests, quality


def check_grove(inputs: Path, out: Path, summary: dict) -> tuple[dict, dict]:
    return _check_pipeline(out, summary)


def check_augment(inputs: Path, out: Path, _result) -> tuple[dict, dict]:
    tiles = out / "tiles"
    lo = math.floor(AUGMENT_SPEC.operations[0].size * AUGMENT_SPEC.operations[-1].lo)
    hi = math.floor(AUGMENT_SPEC.operations[0].size * AUGMENT_SPEC.operations[-1].hi)
    for header in sorted((inputs / "tiles").glob("*.rhdr")):
        tile = load_raster(tiles / header.name)
        load_annotations(tiles / header.with_suffix(".json").name)
        if not (lo <= tile.width <= hi and lo <= tile.height <= hi):
            raise CheckFailed(f"{header.stem} came out {tile.width}x{tile.height}")
    return {"augmented_tiles": sha256_tree(tiles)}, {}


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path], dict]
    op: Callable[[Path, Path], object]
    check: Callable[[Path, Path, object], tuple[dict, dict]]
    # input megapixels one op processes
    mpx: float
    # spans every traced op must record; a binding that is never hit
    # fails the op instead of reading as zero
    spans: tuple[str, ...]


_PIPELINE_SPANS = (
    "cli.run_pipeline",
    "raster_core.load_raster",
    "raster_core.save_raster",
    "annotations.load_annotations",
    "pixel_model.load_params",
    "indices.compute_index",
    "indices.vegetation_mask",
    "tiling.tile_plan",
    "tiling.extract_tile",
    "pixel_model.predict_map",
    "pixel_model.featurize",
    "tiling.stitch",
    "crown_detect.detect_crowns",
    "crown_detect.classify_detections",
    "crown_detect.match_detections",
    "crown_detect.write_geojson",
    "crown_detect.write_csv",
    "evaluate.confusion_matrix",
    "evaluate.metrics",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="survey",
            setup=setup_survey,
            op=op_pipeline,
            check=check_survey,
            mpx=4096 * 4096 / 1e6,
            spans=_PIPELINE_SPANS,
        ),
        Workload(
            name="grove",
            setup=setup_grove,
            op=op_pipeline,
            check=check_grove,
            mpx=GROVE_SIZE * GROVE_SIZE / 1e6,
            spans=_PIPELINE_SPANS + ("crown_detect.split_touching",),
        ),
        Workload(
            name="augment",
            setup=setup_augment,
            op=op_augment,
            check=check_augment,
            mpx=AUGMENT_TILES * AUGMENT_TILE_SIZE * AUGMENT_TILE_SIZE / 1e6,
            spans=(
                "cli.main",
                "raster_core.load_raster",
                "raster_core.save_raster",
                "annotations.load_annotations",
                "annotations.save_annotations",
                "augment.apply_spec",
                "augment.random_crop",
                "augment.gaussian_noise",
                "augment.gamma_adjust",
                "augment.flip_h",
                "augment.flip_v",
                "augment.scale",
            ),
        ),
    )
}
