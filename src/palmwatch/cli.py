"""palmwatch command-line interface and the composed pipeline.

Subcommands cover each stage (index, tile, augment, synth, train,
predict, detect, eval) plus ``pipeline``, which chains
mask -> tile -> predict -> stitch -> detect -> classify and, when ground
truth is supplied, match -> confusion matrix -> metrics. Every tunable
constant is a documented flag, and a JSON run manifest capturing all of
them is written next to the outputs; rerunning from the same manifest
reproduces every output byte for byte.

Exit codes: 0 success, 2 configuration error, 3 data/format error
(or an allocation that fails), 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import zlib
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .annotations import CLASS_LABELS, AnnotationSet, load_annotations, save_annotations
from .augment import apply_spec, load_spec as load_augment_spec
from .crown_detect import (
    DetectorConfig,
    check_max_centroid_dist,
    classify_detections,
    detect_crowns,
    load_geojson,
    match_detections,
    write_csv,
    write_geojson,
)
from .errors import ConfigurationError, DataError, DomainError, PalmwatchError, ShapeError
from .evaluate import (
    AVERAGING_MODES,
    confusion_matrix,
    metrics,
    report_to_dict,
    write_metrics_csv,
    write_metrics_json,
)
from .indices import (
    DEFAULT_VEGETATION_THRESHOLD,
    INDEX_REGISTRY,
    check_vegetation_threshold,
    compute_index,
    index_stats_by_class,
    vegetation_mask,
)
from .jsondoc import from_fields, read_document, take
from .pixel_model import (
    DEFAULT_NEGATIVE_RATIO,
    ModelParams,
    TrainConfig,
    build_training_set,
    check_features,
    check_negative_ratio,
    load_params,
    predict_map,
    save_params,
    train,
)
from .raster_core import Band, Mask, MaskedGrid, Raster, load_raster, save_raster
from .synth_scene import SceneSpec, generate_scene, load_spec as load_scene_spec, spec_to_json
from .tiling import (
    DEFAULT_PREDICT_OVERLAP,
    DEFAULT_TILE_SIZE,
    check_tiling,
    extract_tile,
    stitch,
    tile_plan,
    window_of,
)


@dataclass
class PipelineConfig:
    """Every knob of the composed pipeline; serialized as the run manifest."""

    scene_path: str
    model_path: str
    out_dir: str
    truth_path: str | None = None
    veg_index: str = "ndvi"
    veg_threshold: float = DEFAULT_VEGETATION_THRESHOLD
    veg_gate: bool = False
    tile_size: int = DEFAULT_TILE_SIZE
    overlap: int = DEFAULT_PREDICT_OVERLAP
    jobs: int | None = None
    prob_threshold: float = DetectorConfig.prob_threshold
    min_area: int = DetectorConfig.min_area
    max_area: int = DetectorConfig.max_area
    split_min_distance: float = DetectorConfig.split_min_distance
    smallish_diameter_px: float = DetectorConfig.smallish_diameter_px
    dead_ndvi_max: float = DetectorConfig.dead_ndvi_max
    match_max_dist: float = 10.0
    averaging: str = "macro"

    def detector_config(self) -> DetectorConfig:
        return config_from(DetectorConfig, self)

    def to_manifest(self) -> dict:
        return {"palmwatch_version": __version__, "config": asdict(self)}

    @classmethod
    def from_manifest(cls, payload: dict) -> "PipelineConfig":
        config = take(payload, "config", dict, "manifest", error=ConfigurationError)
        return from_fields(cls, config, "manifest config", ConfigurationError)


def config_from(cls, source):
    """Build dataclass ``cls`` from the same-named attributes of ``source``.

    ``source`` is a parsed argparse namespace (each flag's ``dest`` is
    its field name) or another config object.
    """
    return cls(**{f.name: getattr(source, f.name) for f in fields(cls)})


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise ConfigurationError(f"{what} not found: {p}")
    return p


def _mask_to_raster(mask: Mask, name: str, origin=(0, 0)) -> Raster:
    samples = mask.bits.astype(np.float32)
    samples.setflags(write=False)
    return Raster(
        bands=(Band(name=name, samples=samples),),
        nodata_value=None,
        origin=origin,
    )


def check_prediction_settings(tile_size: int, overlap: int, jobs: int | None) -> None:
    """Raise ConfigurationError unless predict_tiled accepts these settings."""
    check_tiling(tile_size, overlap)
    if jobs is not None and jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")


def predict_tiled(
    scene: Raster,
    prediction_mask: Mask,
    params: ModelParams,
    tile_size: int,
    overlap: int,
    jobs: int | None = None,
) -> MaskedGrid:
    """Tile the scene, predict tile by tile in plan order, stitch.

    The model's features are checked against the scene before any pixel
    work. Each window is cut from the scene (``extract_tile``, a view
    where it needs no padding) and predicted over the prediction mask's
    window; ``predict_map`` takes each feature that is a band of the
    scene as it is and derives the others over the tile, so an index
    that a caller joined to the scene as a band is reused. Tile maps
    stream into ``stitch`` as they are predicted, so besides the scene
    and the output only one tile's features and map are alive. ``jobs``
    worker threads (None: every CPU this process may use) share the row
    blocks of each pixel kernel; every pixel's arithmetic is the same for
    any ``jobs``, so the result is too.
    """
    check_features(scene, prediction_mask, params.features)
    plan = tile_plan(scene.width, scene.height, tile_size, overlap)
    maps = (
        predict_map(
            extract_tile(scene, window),
            Mask(window_of(prediction_mask.bits, window, False)),
            params,
            workers=jobs,
        )
        for window in plan.windows
    )
    return stitch(plan, maps)


def evaluate_detections(detections, truth: AnnotationSet, max_dist: float, averaging: str):
    """Match detections to truth, then score the matched crowns' classes.

    Returns the eval.json payload (detection counts, precision and
    recall, and when anything matched the confusion matrix and
    classification metrics), the confusion matrix and the metrics
    report; the last two are None when nothing matched.
    """
    result = match_detections(detections, truth, max_dist)
    n_matched = len(result.matches)
    payload = {
        "detection": {
            "truth_crowns": len(truth),
            "detections": len(detections),
            "matched": n_matched,
            "false_positives": len(result.false_positives),
            "false_negatives": len(result.false_negatives),
            "precision": n_matched / len(detections) if detections else 0.0,
            "recall": n_matched / len(truth) if len(truth) else 0.0,
            "max_centroid_dist": max_dist,
        }
    }
    if not n_matched:
        return payload, None, None
    actual = [crown.class_label for _, crown in result.matches]
    predicted = [det.class_label for det, _ in result.matches]
    cm = confusion_matrix(actual, predicted, CLASS_LABELS)
    report = metrics(cm, averaging=averaging)
    payload["confusion"] = {"classes": list(cm.classes), "counts": cm.counts.tolist()}
    payload["classification"] = report_to_dict(report)
    return payload, cm, report


def run_pipeline(config: PipelineConfig) -> dict:
    """Execute the composed pipeline and return a result summary.

    Writes into ``config.out_dir``: manifest.json, veg_mask raster,
    probability raster, detections.geojson/.csv, and (with truth)
    metrics.csv/.json plus an eval.json holding detection-level counts
    and the confusion matrix.
    """
    scene_path = _require_file(config.scene_path, "scene")
    model_path = _require_file(config.model_path, "model")
    truth = None
    if config.truth_path is not None:
        truth_path = _require_file(config.truth_path, "truth annotations")
    if config.veg_index not in INDEX_REGISTRY:
        raise ConfigurationError(
            f"veg_index must be one of {sorted(INDEX_REGISTRY)}, got {config.veg_index!r}"
        )
    check_vegetation_threshold(config.veg_threshold)
    check_prediction_settings(config.tile_size, config.overlap, config.jobs)
    if config.averaging not in AVERAGING_MODES:
        raise ConfigurationError(f"averaging must be one of {AVERAGING_MODES}, got {config.averaging!r}")
    check_max_centroid_dist(config.match_max_dist)
    detector = config.detector_config()

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    scene = load_raster(scene_path)
    params = load_params(model_path)
    if config.truth_path is not None:
        truth = load_annotations(truth_path)

    valid = scene.valid_mask(workers=config.jobs)
    # an incompatible model fails here, before any output is written
    check_features(scene, valid, params.features)
    index = compute_index(scene, valid, config.veg_index, workers=config.jobs)
    veg = vegetation_mask(index, config.veg_threshold)
    save_raster(_mask_to_raster(veg, "veg_mask", scene.origin), out_dir / "veg_mask")
    veg_fraction = veg.count() / max(valid.count(), 1)

    prediction_mask = valid
    if config.veg_gate:
        gated = valid.bits & veg.bits
        gated.setflags(write=False)  # so Mask keeps the plane instead of copying it
        prediction_mask = Mask(gated)
        del gated  # the del after prediction frees the plane only if nothing else holds it
    # the index joins the scene as a band, so a model that reads it as a
    # feature takes it as it is; a scene band of that name comes first
    features = scene
    if not scene.has_band(config.veg_index):
        features = Raster(
            bands=scene.bands + (Band(name=config.veg_index, samples=index.values),),
            nodata_value=scene.nodata_value,
            origin=scene.origin,
        )
    prob = predict_tiled(
        features, prediction_mask, params, config.tile_size, config.overlap, config.jobs
    )
    # the pixel stage's planes would otherwise sit under detection's peak
    del valid, index, veg, prediction_mask, features
    save_raster(prob.to_raster(origin=scene.origin), out_dir / "probability")

    detections = detect_crowns(prob, detector)
    classify_detections(detections, scene, detector)
    write_geojson(detections, out_dir / "detections.geojson", origin=scene.origin)
    write_csv(detections, out_dir / "detections.csv", origin=scene.origin)

    summary = {
        "scene": str(scene_path),
        "scene_size": [scene.width, scene.height],
        "vegetation_fraction": veg_fraction,
        "detections": len(detections),
        "outputs": {
            "veg_mask": str(out_dir / "veg_mask.rhdr"),
            "probability": str(out_dir / "probability.rhdr"),
            "geojson": str(out_dir / "detections.geojson"),
            "csv": str(out_dir / "detections.csv"),
        },
    }

    if truth is not None:
        eval_payload, _, report = evaluate_detections(
            detections, truth, config.match_max_dist, config.averaging
        )
        if report is not None:
            write_metrics_csv(report, out_dir / "metrics.csv")
            write_metrics_json(report, out_dir / "metrics.json")
            summary["outputs"]["metrics_csv"] = str(out_dir / "metrics.csv")
            summary["outputs"]["metrics_json"] = str(out_dir / "metrics.json")
        (out_dir / "eval.json").write_text(json.dumps(eval_payload, indent=2) + "\n")
        summary["outputs"]["eval"] = str(out_dir / "eval.json")
        summary["evaluation"] = eval_payload

    (out_dir / "manifest.json").write_text(
        json.dumps(config.to_manifest(), indent=2, sort_keys=True) + "\n"
    )
    summary["outputs"]["manifest"] = str(out_dir / "manifest.json")
    return summary


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_index(args) -> int:
    if args.veg_mask is not None:
        check_vegetation_threshold(args.veg_threshold)
    scene = load_raster(_require_file(args.scene, "scene"))
    valid = scene.valid_mask()
    index = compute_index(scene, valid, args.index)
    save_raster(index.to_raster(origin=scene.origin), args.out)
    print(f"wrote {args.index} map to {args.out}.rhdr")
    if args.veg_mask is not None:
        veg = vegetation_mask(index, args.veg_threshold)
        save_raster(_mask_to_raster(veg, "veg_mask", scene.origin), args.veg_mask)
        print(
            f"vegetation (> {args.veg_threshold}): {veg.count()} px "
            f"({veg.count() / max(valid.count(), 1):.1%} of valid); wrote {args.veg_mask}.rhdr"
        )
    if args.annotations is not None:
        ann = load_annotations(_require_file(args.annotations, "annotations"))
        columns = ("class_label", "index_name", "count", "mean", "std_dev", "min", "q1", "median", "q3", "max")
        buffer = io.StringIO()
        # a class with no valid pixels has None statistics, which csv writes as empty fields
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(("class", "index", *columns[2:]))
        writer.writerows([getattr(s, c) for c in columns] for s in index_stats_by_class(index, ann))
        text = buffer.getvalue()
        if args.stats_out is not None:
            Path(args.stats_out).write_text(text)
            print(f"wrote per-class stats to {args.stats_out}")
        else:
            print(text, end="")
    return 0


def _cmd_tile(args) -> int:
    check_tiling(args.tile_size, args.overlap)
    scene = load_raster(_require_file(args.scene, "scene"))
    plan = tile_plan(scene.width, scene.height, args.tile_size, args.overlap)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, window in enumerate(plan.windows):
        row, col = divmod(i, plan.n_cols)
        save_raster(extract_tile(scene, window), out_dir / f"tile_{row}_{col}")
    print(f"wrote {len(plan.windows)} tiles ({plan.n_rows}x{plan.n_cols}) to {out_dir}")
    return 0


def _cmd_augment(args) -> int:
    spec = load_augment_spec(_require_file(args.spec, "augment spec"))
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    in_dir = Path(args.in_dir)
    if not in_dir.is_dir():
        raise ConfigurationError(f"input directory not found: {in_dir}")
    out_dir = Path(args.out_dir)
    if out_dir.resolve() == in_dir.resolve():
        raise ConfigurationError(f"output directory {out_dir} is the input directory")
    out_dir.mkdir(parents=True, exist_ok=True)
    headers = sorted(in_dir.glob("*.rhdr"))
    if not headers:
        raise ConfigurationError(f"no .rhdr tiles in {in_dir}")
    written = []
    try:
        for header in headers:
            tile = load_raster(header)
            ann_path = header.with_suffix(".json")
            ann = load_annotations(ann_path) if ann_path.is_file() else AnnotationSet(())
            # tile id from the file stem keeps streams stable when the
            # directory gains or loses other tiles
            tile_id = zlib.crc32(header.stem.encode())
            out_tile, out_ann = apply_spec(tile, ann, spec, tile_id)
            # names are stem + suffix: a stem may itself contain dots
            written += [out_dir / (header.stem + suffix) for suffix in (".rhdr", ".rbin", ".json")]
            save_raster(out_tile, out_dir / header.stem)
            save_annotations(out_ann, out_dir / (header.stem + ".json"))
    except BaseException:
        # so no tile left in the output directory looks finished
        for path in written:
            path.unlink(missing_ok=True)
        raise
    print(f"augmented {len(headers)} tiles into {out_dir}")
    return 0


def _cmd_synth(args) -> int:
    spec = load_scene_spec(_require_file(args.spec, "scene spec")) if args.spec else SceneSpec()
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    raster, ann = generate_scene(spec)
    save_raster(raster, out_dir / args.name)
    save_annotations(ann, out_dir / (args.name + ".json"))
    (out_dir / (args.name + "_spec.json")).write_text(spec_to_json(spec))
    print(
        f"wrote {raster.width}x{raster.height} scene with {len(ann)} crowns "
        f"to {out_dir / args.name}.rhdr"
    )
    return 0


def _cmd_train(args) -> int:
    config = config_from(TrainConfig, args)
    check_negative_ratio(args.neg_ratio)
    paths = []
    for scene_path in args.scenes:
        header = _require_file(scene_path, "scene")
        ann_path = header.with_suffix(".json")
        _require_file(ann_path, f"annotations for {header.name}")
        paths.append((header, ann_path))
    # scenes are read one at a time, as build_training_set asks for them
    X, y, names = build_training_set(
        ((load_raster(header), load_annotations(ann_path)) for header, ann_path in paths),
        negative_ratio=args.neg_ratio,
        seed=config.seed,
    )
    params = train(X, y, names, config)
    save_params(params, args.out)
    print(
        f"trained on {len(y)} rows ({int(y.sum())} palm) from {len(paths)} scenes; "
        f"final loss {params.final_loss:.6f}; wrote {args.out}"
    )
    return 0


def _cmd_predict(args) -> int:
    check_prediction_settings(args.tile_size, args.overlap, args.jobs)
    scene = load_raster(_require_file(args.scene, "scene"))
    params = load_params(_require_file(args.model, "model"))
    prob = predict_tiled(
        scene, scene.valid_mask(workers=args.jobs), params, args.tile_size, args.overlap, args.jobs
    )
    save_raster(prob.to_raster(origin=scene.origin), args.out)
    print(f"wrote probability map to {args.out}.rhdr")
    return 0


def _cmd_detect(args) -> int:
    cfg = config_from(DetectorConfig, args)
    prob_raster = load_raster(_require_file(args.prob, "probability map"))
    scene = load_raster(_require_file(args.scene, "scene"))
    if (prob_raster.width, prob_raster.height, prob_raster.origin) != (
        scene.width,
        scene.height,
        scene.origin,
    ):
        raise ShapeError(
            f"probability map ({prob_raster.width}x{prob_raster.height} at "
            f"{prob_raster.origin}) does not cover the scene's grid "
            f"({scene.width}x{scene.height} at {scene.origin})"
        )
    prob = MaskedGrid.from_raster(prob_raster)
    probs = prob.values[prob.valid]
    if probs.size and not (probs.min() >= 0 and probs.max() <= 1):
        raise DomainError(
            f"probability map values must lie in [0, 1], got {probs.min()} to {probs.max()}"
        )
    detections = detect_crowns(prob, cfg)
    classify_detections(detections, scene, cfg)
    write_geojson(detections, args.out + ".geojson", origin=scene.origin)
    write_csv(detections, args.out + ".csv", origin=scene.origin)
    by_class = {}
    for det in detections:
        by_class[det.class_label] = by_class.get(det.class_label, 0) + 1
    print(f"{len(detections)} crowns: " + ", ".join(f"{k}={v}" for k, v in sorted(by_class.items())))
    print(f"wrote {args.out}.geojson and {args.out}.csv")
    return 0


def _cmd_eval(args) -> int:
    check_max_centroid_dist(args.match_max_dist)
    detections = load_geojson(_require_file(args.detections, "detections"))
    truth = load_annotations(_require_file(args.truth, "truth annotations"))
    payload, cm, report = evaluate_detections(
        detections, truth, args.match_max_dist, args.averaging
    )
    det = payload["detection"]
    print(
        f"detection: {det['matched']} matched, {det['false_positives']} FP, "
        f"{det['false_negatives']} FN "
        f"(precision {det['precision']:.4f}, recall {det['recall']:.4f})"
    )
    if report is None:
        print("no matches; classification metrics skipped")
        return 0
    print(cm.format())
    p, r, f = report.headline()
    print(
        f"accuracy {report.accuracy:.4f}; {args.averaging}: "
        f"precision {p:.4f}, recall {r:.4f}, F1 {f:.4f}"
    )
    if args.out is not None:
        write_metrics_csv(report, args.out + "_metrics.csv")
        write_metrics_json(report, args.out + "_metrics.json")
        print(f"wrote {args.out}_metrics.csv and {args.out}_metrics.json")
    return 0


def _cmd_pipeline(args) -> int:
    if args.config is not None:
        if args.scene_path or args.model_path or args.out_dir:
            raise ConfigurationError("--config replaces --scene/--model/--out; do not mix them")
        path = _require_file(args.config, "pipeline manifest")
        config = PipelineConfig.from_manifest(read_document(path, "manifest", ConfigurationError))
    else:
        if not (args.scene_path and args.model_path and args.out_dir):
            raise ConfigurationError("pipeline needs --scene, --model and --out (or --config)")
        config = config_from(PipelineConfig, args)
    summary = run_pipeline(config)
    print(f"scene {summary['scene']} ({summary['scene_size'][0]}x{summary['scene_size'][1]})")
    print(f"vegetation fraction {summary['vegetation_fraction']:.3f}")
    print(f"detections: {summary['detections']}")
    if "evaluation" in summary:
        det = summary["evaluation"]["detection"]
        print(
            f"detection precision {det['precision']:.4f}, recall {det['recall']:.4f} "
            f"({det['matched']}/{det['truth_crowns']} matched)"
        )
        cls = summary["evaluation"].get("classification")
        if cls:
            mode = cls["averaging"]
            agg = cls[mode]
            print(
                f"classification accuracy {cls['accuracy']:.4f}; {mode} F1 {agg['f1']:.4f}"
            )
    print(f"outputs in {config.out_dir}")
    return 0


def _add_tiling_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tile-size", type=int, default=DEFAULT_TILE_SIZE, help="tile edge in px (default %(default)s)")
    parser.add_argument("--overlap", type=int, default=DEFAULT_PREDICT_OVERLAP, help="tile overlap for prediction (default %(default)s)")
    parser.add_argument("--jobs", type=int, default=PipelineConfig.jobs, help="worker threads per pixel kernel (default: every CPU the process may use)")


def _add_detector_flags(parser: argparse.ArgumentParser) -> None:
    d = DetectorConfig
    parser.add_argument("--prob-threshold", type=float, default=d.prob_threshold, help="crown probability threshold (default %(default)s)")
    parser.add_argument("--min-area", type=int, default=d.min_area, help="minimum crown area in px (default %(default)s)")
    parser.add_argument("--max-area", type=int, default=d.max_area, help="area above which components are split (default %(default)s)")
    parser.add_argument("--split-min-distance", type=float, default=d.split_min_distance, help="half-width in px of the split-marker window: a marker is the highest point within it (default %(default)s)")
    parser.add_argument("--smallish-diameter", dest="smallish_diameter_px", type=float, default=d.smallish_diameter_px, help="diameter cutoff for the smallish class (default %(default)s)")
    parser.add_argument("--dead-ndvi-max", type=float, default=d.dead_ndvi_max, help="mean NDVI at or below which a crown is dead (default %(default)s)")


def _add_eval_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-dist", dest="match_max_dist", type=float, default=PipelineConfig.match_max_dist, help="truth match radius in px (default %(default)s)")
    parser.add_argument("--averaging", default=PipelineConfig.averaging, choices=AVERAGING_MODES, help="headline averaging mode (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="palmwatch",
        description="Detect and classify palm crowns in multiband imagery.",
    )
    parser.add_argument("--version", action="version", version=f"palmwatch {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    indices = sorted(INDEX_REGISTRY)

    p = sub.add_parser("index", help="compute a vegetation index (and optional mask/stats)")
    p.add_argument("scene", help="scene .rhdr path")
    p.add_argument("out", help="output prefix for the index raster")
    p.add_argument("--index", default=PipelineConfig.veg_index, choices=indices, help="index to compute (default %(default)s)")
    p.add_argument("--veg-mask", default=None, help="also write a vegetation mask raster to this prefix")
    p.add_argument(
        "--veg-threshold",
        type=float,
        default=DEFAULT_VEGETATION_THRESHOLD,
        help="strict lower bound for vegetation (default %(default)s)",
    )
    p.add_argument("--annotations", default=None, help="crown annotations for per-class stats")
    p.add_argument("--stats-out", default=None, help="write per-class stats CSV here instead of stdout")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("tile", help="split a scene into fixed-size tiles")
    p.add_argument("scene", help="scene .rhdr path")
    p.add_argument("out_dir", help="directory for tile_{row}_{col} containers")
    p.add_argument("--tile-size", type=int, default=DEFAULT_TILE_SIZE, help="tile edge in px (default %(default)s)")
    p.add_argument("--overlap", type=int, default=0, help="overlap between tiles in px (default %(default)s)")
    p.set_defaults(func=_cmd_tile)

    p = sub.add_parser("augment", help="apply a seeded augmentation spec to a tile directory")
    p.add_argument("in_dir", help="directory of .rhdr tiles (+ optional sibling .json annotations)")
    p.add_argument("out_dir", help="output directory")
    p.add_argument("--spec", required=True, help="augmentation spec JSON")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("synth", help="generate a synthetic annotated scene")
    p.add_argument("out_dir", help="output directory")
    p.add_argument("--spec", default=None, help="scene spec JSON (defaults are used otherwise)")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.add_argument("--name", default="scene", help="output file stem (default %(default)r)")
    p.set_defaults(func=_cmd_synth)

    t = TrainConfig
    p = sub.add_parser("train", help="train the pixel model on annotated scenes")
    p.add_argument("scenes", nargs="+", help=".rhdr scenes; annotations expected at <stem>.json")
    p.add_argument("--out", required=True, help="output model JSON path")
    p.add_argument("--epochs", type=int, default=t.epochs, help="Newton iteration cap; each iteration uses every row (default %(default)s)")
    p.add_argument("--l2", type=float, default=t.l2, help="L2 penalty on the weights, finite (default %(default)s)")
    p.add_argument("--seed", type=int, default=t.seed, help="background-row sampling seed (default %(default)s)")
    p.add_argument(
        "--neg-ratio",
        type=float,
        default=DEFAULT_NEGATIVE_RATIO,
        help="background rows sampled per palm row (default %(default)s)",
    )
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="predict a palm-probability map for a scene")
    p.add_argument("scene", help="scene .rhdr path")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--out", required=True, help="output prefix for the probability raster")
    _add_tiling_flags(p)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("detect", help="detect and classify crowns in a probability map")
    p.add_argument("prob", help="probability raster .rhdr path")
    p.add_argument("scene", help="source scene .rhdr path (for spectra)")
    p.add_argument("--out", required=True, help="output prefix for .geojson/.csv")
    _add_detector_flags(p)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("eval", help="score detections against truth annotations")
    p.add_argument("detections", help="detections GeoJSON path")
    p.add_argument("truth", help="truth annotations JSON path")
    _add_eval_flags(p)
    p.add_argument("--out", default=None, help="output prefix for metrics files")
    p.set_defaults(func=_cmd_eval)

    c = PipelineConfig
    p = sub.add_parser("pipeline", help="run mask -> predict -> detect -> (eval) end to end")
    p.add_argument("--scene", dest="scene_path", default=None, help="scene .rhdr path")
    p.add_argument("--model", dest="model_path", default=None, help="model JSON path")
    p.add_argument("--out", dest="out_dir", default=None, help="output directory")
    p.add_argument("--truth", dest="truth_path", default=c.truth_path, help="truth annotations JSON (enables metrics)")
    p.add_argument("--config", default=None, help="rerun from a manifest.json (replaces other path flags)")
    p.add_argument("--veg-index", default=c.veg_index, choices=indices, help="index for the vegetation mask (default %(default)s)")
    p.add_argument(
        "--veg-threshold",
        type=float,
        default=c.veg_threshold,
        help="strict lower bound for vegetation (default %(default)s)",
    )
    p.add_argument(
        "--veg-gate",
        action="store_true",
        default=c.veg_gate,
        help="restrict prediction to vegetation pixels (off by default: the mask is advisory)",
    )
    _add_tiling_flags(p)
    _add_detector_flags(p)
    _add_eval_flags(p)
    p.set_defaults(func=_cmd_pipeline)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3
    except PalmwatchError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
