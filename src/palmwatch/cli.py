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
import os
import re
import sys
import zlib
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .annotations import CLASS_LABELS, AnnotationSet, load_annotations, save_annotations
from .augment import apply_spec, load_spec as load_augment_spec
from .crown_detect import (
    DetectorConfig,
    PixelSamples,
    check_max_centroid_dist,
    classify_detections,
    detect_crowns,
    load_geojson,
    match_detections,
    write_csv,
    write_geojson,
)
from .errors import ConfigurationError, DataError, DomainError, FormatError, PalmwatchError, ShapeError
from .evaluate import (
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
    ModelParams,
    TrainConfig,
    build_training_set,
    check_features,
    load_params,
    predict_map,
    save_params,
    train,
)
from .raster_core import (
    Band, Mask, MaskedGrid, Raster, RasterWriter, load_raster, raster_paths, read_header, save_raster,
)
from .synth_scene import SceneSpec, generate_scene, load_spec as load_scene_spec, spec_to_json
from .tiling import (
    DEFAULT_TILE_SIZE,
    TilePlan,
    check_tiling,
    extract_tile,
    pad_tile,
    stitch,
    tile_plan,
)


VEGETATION_INDEX = "ndvi"  # the index of ``index``'s default vegetation mask


@dataclass(kw_only=True)
class PipelineConfig(DetectorConfig):
    """Every knob of the composed pipeline: the detector's and these;
    serialized as the run manifest. The vegetation mask has none: a run
    writes ``index``'s default mask."""

    scene_path: str
    model_path: str
    out_dir: str
    truth_path: str | None = None
    match_max_dist: float = 10.0

    def __post_init__(self):
        super().__post_init__()
        check_max_centroid_dist(self.match_max_dist)

    def to_manifest(self) -> dict:
        return {"palmwatch_version": __version__, "config": asdict(self)}

    @classmethod
    def from_manifest(cls, payload: dict) -> "PipelineConfig":
        config = take(payload, "config", dict, "manifest")
        # older manifests record a thread count, a prediction tile size and
        # margin, and which aggregate to headline, none of which ever changed
        # an output number
        legacy = ("jobs", "overlap", "tile_size", "averaging")
        config = {key: value for key, value in config.items() if key not in legacy}
        # nor did the vegetation settings at their defaults; any other
        # value asked for a mask or a gate that no run makes now
        for key, default in {"veg_index": VEGETATION_INDEX, "veg_threshold": DEFAULT_VEGETATION_THRESHOLD, "veg_gate": False}.items():
            value = config.pop(key, default)
            if value != default or type(value) is not type(default):
                raise ConfigurationError(
                    f"manifest config {key} {value!r} cannot be rerun: pipeline writes only the default vegetation "
                    "mask and never gates prediction; write another mask with palmwatch index"
                )
        return from_fields(cls, config, "manifest config")


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


def _refuse_to_replace(inputs, replaced) -> None:
    """Raise ConfigurationError when an input file is one of the paths
    ``replaced`` that a run removes or writes. A symbolic link, input or
    output, counts as itself and as its target."""
    replaced = {entry for path in map(Path, replaced) for entry in (path.parent.resolve() / path.name, path.resolve())}
    for path in map(Path, inputs):
        if {path.parent.resolve() / path.name, path.resolve()} & replaced:
            raise ConfigurationError(f"input {path} is a file this run replaces")


def _mask_to_raster(mask: Mask, name: str, origin=(0, 0)) -> Raster:
    samples = mask.bits.astype(np.float32)
    samples.setflags(write=False)
    return Raster(
        bands=(Band(name=name, samples=samples),),
        nodata_value=None,
        origin=origin,
    )


def _plan_rows(plan: TilePlan):
    """Each plan row, top to bottom: its scene rows and the one-row plan
    of its row band, the row's windows shifted up to the band's top."""
    for first in range(0, len(plan.windows), plan.n_cols):
        windows = plan.windows[first : first + plan.n_cols]
        top, height = windows[0].y, windows[0].height
        row_plan = replace(plan, scene_height=height, n_rows=1, windows=tuple(replace(w, y=0) for w in windows))
        yield slice(top, top + height), row_plan


def _tile_maps(features: Raster, mask: Mask, windows, params: ModelParams):
    """The map of each of ``windows`` of ``features`` in turn, under
    ``mask``. A feature that is a band of ``features``, such as an index
    a caller joined, is taken as it is. The model reads each pixel's own
    features alone, so no tiling could change an output byte.
    """
    for window in windows:
        # bound until the next map is made: predict_map runs slower when
        # the previous map's memory was handed back just before
        pmap = predict_map(extract_tile(features, window), Mask(mask.bits[window.region]), params)
        yield pmap


def evaluate_detections(detections, truth: AnnotationSet, max_dist: float):
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
    report = metrics(cm)
    payload["confusion"] = {"classes": list(cm.classes), "counts": cm.counts.tolist()}
    payload["classification"] = report_to_dict(report)
    return payload, cm, report


# every file run_pipeline writes into its output directory but manifest.json
PIPELINE_OUTPUTS = (
    "veg_mask.rhdr", "veg_mask.rbin", "probability.rhdr", "probability.rbin",
    "detections.geojson", "detections.csv", "eval.json", "metrics.csv", "metrics.json",
)


def _check_scene(scene_path: Path, features):
    """The scene's header, once its payload size and its bands' fit to
    ``features`` (band and index names) are checked from its first row
    alone, before a prediction removes or writes anything."""
    header = read_header(scene_path)
    row = load_raster(scene_path, slice(0, 1))
    check_features(row, row.valid_mask(), features)
    return header


def _write_detections(parts: list, cfg: DetectorConfig, prefix, origin) -> list:
    """The crowns in the foreground samples ``parts`` (a scene's row
    bands, top to bottom; the list is emptied), detected and classified
    by ``cfg`` and written to ``prefix``.geojson and ``prefix``.csv."""
    samples = PixelSamples.join(parts)
    parts.clear()
    detections = detect_crowns(samples, cfg)
    classify_detections(detections, samples, cfg)
    write_geojson(detections, f"{prefix}.geojson", origin=origin)
    write_csv(detections, f"{prefix}.csv", origin=origin)
    return detections


def run_pipeline(config: PipelineConfig) -> dict:
    """Execute the composed pipeline and return a result summary.

    Writes into ``config.out_dir``: manifest.json, veg_mask raster,
    probability raster, detections.geojson/.csv, and (with truth)
    metrics.csv/.json plus an eval.json holding detection-level counts
    and the confusion matrix. Nothing in the directory changes until the
    model and truth are read and the scene is checked as ``predict``
    checks it (its header, its payload size and its bands' fit to the
    model and to NDVI's bands, from its first row); then every
    other file of PIPELINE_OUTPUTS is removed and manifest.json is
    written before the first output, so each file there comes from the
    settings its manifest records, even when the run fails later.

    Neither the scene nor the probability map is ever held whole. One
    loop walks the prediction plan a plan row at a time; per row band it
    reads the band, writes its vegetation rows to veg_mask (``index``'s
    default mask, NDVI > DEFAULT_VEGETATION_THRESHOLD, which never gates
    prediction: every valid pixel is predicted, as in ``predict``),
    ``stitch``es the band's tile maps on the row's one-row plan, gathers
    the foreground samples (``PixelSamples``: the pixels above
    ``prob_threshold``, with their probability and band samples) and
    hands the band map to ``save_raster``, and it releases the band and
    its map before the next band is read. Detection and classification
    read the samples alone, as in ``detect``, so memory holds one row
    band's planes besides the foreground samples.
    """
    scene_path = _require_file(config.scene_path, "scene")
    model_path = _require_file(config.model_path, "model")
    inputs = [*raster_paths(scene_path), model_path]
    if config.truth_path is not None:
        truth_path = _require_file(config.truth_path, "truth annotations")
        inputs.append(truth_path)
    out_dir = Path(config.out_dir)
    _refuse_to_replace(inputs, [out_dir / name for name in (*PIPELINE_OUTPUTS, "manifest.json")])

    params = load_params(model_path)
    truth = None if config.truth_path is None else load_annotations(truth_path)
    # the index is computed from its band pair, whatever bands the scene has
    scene = _check_scene(scene_path, (*params.features, *INDEX_REGISTRY[VEGETATION_INDEX]))
    plan = tile_plan(scene.width, scene.height, DEFAULT_TILE_SIZE)

    out_dir.mkdir(parents=True, exist_ok=True)
    # an earlier run's outputs in this directory must not pass for this run's
    for name in PIPELINE_OUTPUTS:
        (out_dir / name).unlink(missing_ok=True)
    (out_dir / "manifest.json").write_text(json.dumps(config.to_manifest(), indent=2, sort_keys=True) + "\n")

    valid_px = veg_px = 0
    parts = []

    def probability_rows():
        nonlocal valid_px, veg_px
        for rows, row_plan in _plan_rows(plan):
            band = load_raster(scene_path, rows)
            valid = band.valid_mask()
            index = compute_index(band, valid, VEGETATION_INDEX)
            veg = vegetation_mask(index, DEFAULT_VEGETATION_THRESHOLD)
            veg_out.write(_mask_to_raster(veg, "veg_mask", band.origin))
            valid_px += valid.count()
            veg_px += veg.count()
            # the index joins the band, unless a band of its name comes
            # first, so a model that reads it as a feature takes it as it is
            features = band if band.has_band(VEGETATION_INDEX) else Raster(
                band.bands + (Band(VEGETATION_INDEX, index.values),), band.nodata_value, band.origin
            )
            del index, veg
            prob = stitch(row_plan, _tile_maps(features, valid, row_plan.windows, params))
            parts.append(PixelSamples.gather(prob, config.prob_threshold, band, height=scene.height, top=rows.start))
            origin = band.origin
            # so that the next band is read after this one is freed
            del band, features, valid
            yield prob.to_raster(origin)
            del prob

    with RasterWriter(out_dir / "veg_mask", scene.height) as veg_out:
        save_raster(probability_rows(), out_dir / "probability", scene.height)
    veg_fraction = veg_px / max(valid_px, 1)
    detections = _write_detections(parts, config, out_dir / "detections", scene.origin)

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
        eval_payload, _, report = evaluate_detections(detections, truth, config.match_max_dist)
        if report is not None:
            write_metrics_csv(report, out_dir / "metrics.csv")
            write_metrics_json(report, out_dir / "metrics.json")
            summary["outputs"]["metrics_csv"] = str(out_dir / "metrics.csv")
            summary["outputs"]["metrics_json"] = str(out_dir / "metrics.json")
        (out_dir / "eval.json").write_text(json.dumps(eval_payload, indent=2) + "\n")
        summary["outputs"]["eval"] = str(out_dir / "eval.json")
        summary["evaluation"] = eval_payload

    summary["outputs"]["manifest"] = str(out_dir / "manifest.json")
    return summary


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_index(args) -> int:
    # a flag whose output is not asked for would change nothing
    if args.stats_out is not None and args.annotations is None:
        raise ConfigurationError("--stats-out needs --annotations")
    if args.veg_threshold is not None and args.veg_mask is None:
        raise ConfigurationError("--veg-threshold needs --veg-mask")
    threshold = DEFAULT_VEGETATION_THRESHOLD if args.veg_threshold is None else args.veg_threshold
    check_vegetation_threshold(threshold)
    outputs = [path for prefix in (args.out, args.veg_mask) if prefix is not None for path in raster_paths(prefix)]
    if args.stats_out is not None:
        outputs.append(Path(args.stats_out))
    # a later output written to an earlier one's path would replace it
    if len({path.resolve() for path in outputs}) < len(outputs):
        raise ConfigurationError(f"two outputs share a path among {', '.join(map(str, outputs))}")
    scene_path = _require_file(args.scene, "scene")
    inputs = [*raster_paths(scene_path)]
    if args.annotations is not None:
        ann_path = _require_file(args.annotations, "annotations")
        inputs.append(ann_path)
    _refuse_to_replace(inputs, outputs)
    if args.annotations is not None:
        # crowns off the grid fail before any raster is written
        ann = load_annotations(ann_path)
        header = read_header(scene_path)
        ann.check_within(header.width, header.height)
    scene = load_raster(scene_path)
    valid = scene.valid_mask()
    index = compute_index(scene, valid, args.index)
    save_raster(index.to_raster(origin=scene.origin), args.out)
    print(f"wrote {args.index} map to {raster_paths(args.out)[0]}")
    if args.veg_mask is not None:
        veg = vegetation_mask(index, threshold)
        save_raster(_mask_to_raster(veg, "veg_mask", scene.origin), args.veg_mask)
        print(
            f"vegetation (> {threshold}): {veg.count()} px "
            f"({veg.count() / max(valid.count(), 1):.1%} of valid); wrote {raster_paths(args.veg_mask)[0]}"
        )
    if args.annotations is not None:
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
    scene_path = _require_file(args.scene, "scene")
    # an earlier plan's tiles and their annotations in the output directory
    # must not pass for this plan's; only the names tile writes (ASCII
    # digits) go, and they hold every file there that this plan writes
    out_dir = Path(args.out_dir)
    earlier = [path for path in out_dir.glob("tile_*_*.*") if re.fullmatch(r"tile_[0-9]+_[0-9]+\.(rhdr|rbin|json)", path.name)]
    _refuse_to_replace(raster_paths(scene_path), earlier)
    scene = load_raster(scene_path)
    plan = tile_plan(scene.width, scene.height, args.tile_size, args.overlap)
    out_dir.mkdir(parents=True, exist_ok=True)
    for path in earlier:
        path.unlink()
    for i, window in enumerate(plan.windows):
        row, col = divmod(i, plan.n_cols)
        save_raster(pad_tile(extract_tile(scene, window), args.tile_size), out_dir / f"tile_{row}_{col}")
    print(f"wrote {len(plan.windows)} tiles ({plan.n_rows}x{plan.n_cols}) to {out_dir}")
    return 0


def _cmd_augment(args) -> int:
    spec_path = _require_file(args.spec, "augment spec")
    spec = load_augment_spec(spec_path)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    in_dir = Path(args.in_dir)
    if not in_dir.is_dir():
        raise ConfigurationError(f"input directory not found: {in_dir}")
    out_dir = Path(args.out_dir)
    if out_dir.resolve() == in_dir.resolve():
        raise ConfigurationError(f"output directory {out_dir} is the input directory")
    headers = sorted(in_dir.glob("*.rhdr"))
    if not headers:
        raise ConfigurationError(f"no .rhdr tiles in {in_dir}")
    # names are stem + suffix: a stem may itself contain dots
    outputs = [out_dir / (header.stem + suffix) for header in headers for suffix in (".rhdr", ".rbin", ".json")]
    _refuse_to_replace([spec_path], outputs)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = 0
    try:
        for header in headers:
            tile = load_raster(header)
            ann_path = header.with_suffix(".json")
            ann = load_annotations(ann_path) if ann_path.is_file() else AnnotationSet(())
            # tile id from the file stem keeps streams stable when the
            # directory gains or loses other tiles
            tile_id = zlib.crc32(header.stem.encode())
            out_tile, out_ann = apply_spec(tile, ann, spec, tile_id)
            written += 3
            save_raster(out_tile, out_dir / header.stem)
            save_annotations(out_ann, out_dir / (header.stem + ".json"))
    except BaseException:
        # so no tile left in the output directory looks finished
        for path in outputs[:written]:
            path.unlink(missing_ok=True)
        raise
    print(f"augmented {len(headers)} tiles into {out_dir}")
    return 0


def _cmd_synth(args) -> int:
    # the outputs are <out_dir>/<name> plus a suffix, so the name must be a
    # file stem; save_raster would write a name ending in .rhdr as the header
    name = args.name
    if name in ("", ".", "..") or any(sep and sep in name for sep in (os.sep, os.altsep)) or name.endswith(".rhdr"):
        raise ConfigurationError(f"--name {name!r} is not a file stem")
    out_dir = Path(args.out_dir)
    inputs = [_require_file(args.spec, "scene spec")] if args.spec else []
    _refuse_to_replace(inputs, [out_dir / (args.name + suffix) for suffix in (".rhdr", ".rbin", ".json", "_spec.json")])
    spec = load_scene_spec(inputs[0]) if inputs else SceneSpec()
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
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
    paths = []
    for scene_path in args.scenes:
        header = _require_file(scene_path, "scene")
        ann_path = header.with_suffix(".json")
        _require_file(ann_path, f"annotations for {header.name}")
        paths.append((header, ann_path))
    _refuse_to_replace([path for header, ann_path in paths for path in (*raster_paths(header), ann_path)], [args.out])
    # scenes are read one at a time, as build_training_set asks for them
    X, y, names = build_training_set(
        ((load_raster(header), load_annotations(ann_path)) for header, ann_path in paths),
        config,
    )
    params = train(X, y, names, config)
    save_params(params, args.out)
    print(
        f"trained on {len(y)} rows ({int(y.sum())} palm) from {len(paths)} scenes; "
        f"final loss {params.final_loss:.6f}; wrote {args.out}"
    )
    return 0


def _cmd_predict(args) -> int:
    scene_path = _require_file(args.scene, "scene")
    model_path = _require_file(args.model, "model")
    _refuse_to_replace([*raster_paths(scene_path), model_path], raster_paths(args.out))
    params = load_params(model_path)
    scene = _check_scene(scene_path, params.features)
    plan = tile_plan(scene.width, scene.height, DEFAULT_TILE_SIZE)

    def probability_rows():
        for rows, row_plan in _plan_rows(plan):
            band = load_raster(scene_path, rows)
            prob = stitch(row_plan, _tile_maps(band, band.valid_mask(), row_plan.windows, params))
            origin = band.origin
            # so that the next band is read after this one is freed
            del band
            yield prob.to_raster(origin)
            del prob

    save_raster(probability_rows(), args.out, scene.height)
    print(f"wrote probability map to {raster_paths(args.out)[0]}")
    return 0


def _cmd_detect(args) -> int:
    cfg = config_from(DetectorConfig, args)
    prob_path = _require_file(args.prob, "probability map")
    grid = read_header(prob_path)
    scene_path = _require_file(args.scene, "scene")
    scene = read_header(scene_path)
    if (grid.width, grid.height, grid.origin) != (scene.width, scene.height, scene.origin):
        raise ShapeError(
            f"probability map ({grid.width}x{grid.height} at {grid.origin}) does not cover the "
            f"scene's grid ({scene.width}x{scene.height} at {scene.origin})"
        )
    # the map and the scene are read one plan row band at a time, keeping
    # the foreground samples alone
    parts = []
    for rows, _ in _plan_rows(tile_plan(scene.width, scene.height, DEFAULT_TILE_SIZE)):
        prob = MaskedGrid.from_raster(load_raster(prob_path, rows))
        probs = prob.values[prob.valid]
        if probs.size and not (probs.min() >= 0 and probs.max() <= 1):
            raise DomainError(
                f"probability map values must lie in [0, 1], got {probs.min()} to {probs.max()} "
                f"in rows {rows.start}:{rows.stop}"
            )
        del probs
        parts.append(
            PixelSamples.gather(prob, cfg.prob_threshold, load_raster(scene_path, rows), height=scene.height, top=rows.start)
        )
        del prob
    detections = _write_detections(parts, cfg, args.out, scene.origin)
    by_class = {}
    for det in detections:
        by_class[det.class_label] = by_class.get(det.class_label, 0) + 1
    print(f"{len(detections)} crowns: " + ", ".join(f"{k}={v}" for k, v in sorted(by_class.items())))
    print(f"wrote {args.out}.geojson and {args.out}.csv")
    return 0


def _cmd_eval(args) -> int:
    check_max_centroid_dist(args.match_max_dist)
    detections_path = _require_file(args.detections, "detections")
    truth_path = _require_file(args.truth, "truth annotations")
    if args.out is not None:
        _refuse_to_replace([detections_path, truth_path], [args.out + "_metrics.csv", args.out + "_metrics.json"])
    detections = load_geojson(detections_path)
    truth = load_annotations(truth_path)
    payload, cm, report = evaluate_detections(detections, truth, args.match_max_dist)
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
    p, r, f = report.macro
    print(
        f"accuracy {report.accuracy:.4f}; macro: "
        f"precision {p:.4f}, recall {r:.4f}, F1 {f:.4f}"
    )
    if args.out is not None:
        write_metrics_csv(report, args.out + "_metrics.csv")
        write_metrics_json(report, args.out + "_metrics.json")
        print(f"wrote {args.out}_metrics.csv and {args.out}_metrics.json")
    return 0


def _cmd_pipeline(parser: argparse.ArgumentParser, args) -> int:
    if args.config is not None:
        # the manifest sets every other flag, so one given as well would be ignored
        mixed = [
            action.option_strings[0]
            for action in parser._actions
            if action.option_strings
            and action.dest != "config"
            and getattr(args, action.dest, action.default) != action.default
        ]
        if mixed:
            raise ConfigurationError(
                f"--config replaces every other pipeline flag; do not mix it with {', '.join(mixed)}"
            )
        path = _require_file(args.config, "pipeline manifest")
        # a malformed manifest is a configuration error, not a data error
        try:
            config = PipelineConfig.from_manifest(read_document(path, "manifest"))
        except FormatError as exc:
            raise ConfigurationError(str(exc)) from exc
    else:
        if not (args.scene_path and args.model_path and args.out_dir):
            raise ConfigurationError("pipeline needs --scene, --model and --out (or --config)")
        # the match radius would change nothing without truth to match
        if args.match_max_dist is None:
            args.match_max_dist = PipelineConfig.match_max_dist
        elif args.truth_path is None:
            raise ConfigurationError("--max-dist needs --truth")
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
            print(f"classification accuracy {cls['accuracy']:.4f}; macro F1 {cls['macro']['f1']:.4f}")
    print(f"outputs in {config.out_dir}")
    return 0


def _add_detector_flags(parser: argparse.ArgumentParser) -> None:
    d = DetectorConfig
    parser.add_argument("--prob-threshold", type=float, default=d.prob_threshold, help="crown probability threshold (default %(default)s)")
    parser.add_argument("--min-area", type=int, default=d.min_area, help="minimum crown area in px (default %(default)s)")
    parser.add_argument("--max-area", type=int, default=d.max_area, help="area above which components are split (default %(default)s)")
    parser.add_argument("--split-min-distance", type=float, default=d.split_min_distance, help="half-width in px of the split-marker window: a marker is the highest point within it (default %(default)s)")
    parser.add_argument("--smallish-diameter", dest="smallish_diameter_px", type=float, default=d.smallish_diameter_px, help="diameter cutoff for the smallish class (default %(default)s)")
    parser.add_argument("--dead-ndvi-max", type=float, default=d.dead_ndvi_max, help="mean NDVI at or below which a crown is dead (default %(default)s)")


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
    p.add_argument("--index", default=VEGETATION_INDEX, choices=indices, help="index to compute (default %(default)s)")
    p.add_argument("--veg-mask", default=None, help="also write a vegetation mask raster to this prefix")
    p.add_argument(
        "--veg-threshold",
        type=float,
        default=None,
        help=f"strict lower bound for vegetation in --veg-mask, which it needs (default {DEFAULT_VEGETATION_THRESHOLD})",
    )
    p.add_argument("--annotations", default=None, help="crown annotations for per-class stats")
    p.add_argument("--stats-out", default=None, help="write per-class stats CSV here instead of stdout; needs --annotations")
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
    p.add_argument("--seed", type=int, default=t.seed, help="background-row sampling seed (default %(default)s)")
    p.add_argument(
        "--neg-ratio",
        dest="negative_ratio",
        type=float,
        default=t.negative_ratio,
        help="background rows sampled per palm row (default %(default)s)",
    )
    p.add_argument("--l2", type=float, default=t.l2, help="L2 penalty on the weights, finite (default %(default)s)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="predict a palm-probability map for a scene")
    p.add_argument("scene", help="scene .rhdr path")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--out", required=True, help="output prefix for the probability raster")
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
    p.add_argument("--max-dist", dest="match_max_dist", type=float, default=PipelineConfig.match_max_dist, help="truth match radius in px (default %(default)s)")
    p.add_argument("--out", default=None, help="output prefix for metrics files")
    p.set_defaults(func=_cmd_eval)

    c = PipelineConfig
    p = sub.add_parser("pipeline", help="run mask -> predict -> detect -> (eval) end to end")
    p.add_argument("--scene", dest="scene_path", default=None, help="scene .rhdr path")
    p.add_argument("--model", dest="model_path", default=None, help="model JSON path")
    p.add_argument("--out", dest="out_dir", default=None, help="output directory")
    p.add_argument("--truth", dest="truth_path", default=c.truth_path, help="truth annotations JSON (enables metrics)")
    p.add_argument("--config", default=None, help="rerun from a manifest.json (replaces every other flag)")
    _add_detector_flags(p)
    p.add_argument("--max-dist", dest="match_max_dist", type=float, default=None, help=f"truth match radius in px; needs --truth (default {c.match_max_dist})")
    p.set_defaults(func=partial(_cmd_pipeline, p))
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
