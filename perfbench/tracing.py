"""Span recording around palmwatch's public functions, from outside the package.

A traced run replaces each function in ``BINDINGS``, at the module
attribute its caller looks it up by, with a wrapper that records a span:
name (``<layer>.<function>``), start, end, parent span and a few counts taken from the
call's arguments and result. The originals are put back when the run
ends; nothing under ``src/`` is edited. Spans stay in memory and are
written out by the caller when the run ends.

A span's self time is its duration minus the time its direct children
cover. Calls are sequential (every workload runs with ``jobs=1``), so
children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name=name, start=time.perf_counter(), parent=parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def take(self) -> list[Span]:
        """Return the recorded spans and start a fresh list."""
        if self._open:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans


def _raster_bytes(path) -> int:
    """Header plus payload size of a raster container (computed, not measured)."""
    p = Path(path)
    header = p if p.suffix == ".rhdr" else p.parent / (p.name + ".rhdr")
    return header.stat().st_size + header.with_suffix(".rbin").stat().st_size


def _count_split(args, parts):
    kept = sum(1 for _, xs in parts if len(xs) >= args["cfg"].min_area)
    return {"split_px": len(args["pixels"][0]), "parts": len(parts), "parts_kept": kept}


# (module the caller looks the name up in, attribute, span name, counter).
# A counter maps the call's bound arguments and its result to counts.
BINDINGS = (
    ("cli", "main", "cli.main", None),
    ("cli", "run_pipeline", "cli.run_pipeline", None),
    ("cli", "load_raster", "raster_core.load_raster", lambda a, r: {"bytes_read": _raster_bytes(a["path"])}),
    ("cli", "save_raster", "raster_core.save_raster", lambda a, r: {"bytes_written": _raster_bytes(a["path"])}),
    ("cli", "load_annotations", "annotations.load_annotations", None),
    ("cli", "save_annotations", "annotations.save_annotations", None),
    ("cli", "compute_index", "indices.compute_index", None),
    ("pixel_model", "compute_index", "indices.compute_index", None),
    ("cli", "vegetation_mask", "indices.vegetation_mask", None),
    ("cli", "tile_plan", "tiling.tile_plan",
     lambda a, plan: {"tiles": len(plan.windows), "scene_px": a["scene_w"] * a["scene_h"]}),
    ("cli", "extract_tile", "tiling.extract_tile", None),
    ("cli", "stitch", "tiling.stitch", None),
    ("cli", "load_params", "pixel_model.load_params", None),
    ("cli", "predict_map", "pixel_model.predict_map",
     lambda a, r: {"evaluated_px": a["raster"].width * a["raster"].height}),
    ("pixel_model", "featurize", "pixel_model.featurize", None),
    ("cli", "detect_crowns", "crown_detect.detect_crowns", lambda a, dets: {"detections": len(dets)}),
    ("crown_detect", "split_touching", "crown_detect.split_touching", _count_split),
    ("cli", "classify_detections", "crown_detect.classify_detections", None),
    ("cli", "match_detections", "crown_detect.match_detections",
     lambda a, r: {"match_pairs": len(a["detections"]) * len(a["truth"])}),
    ("cli", "write_geojson", "crown_detect.write_geojson", None),
    ("cli", "write_csv", "crown_detect.write_csv", None),
    ("cli", "confusion_matrix", "evaluate.confusion_matrix", None),
    ("cli", "metrics", "evaluate.metrics", None),
    ("cli", "apply_spec", "augment.apply_spec", None),
    ("augment", "random_crop", "augment.random_crop", None),
    ("augment", "gaussian_noise", "augment.gaussian_noise", None),
    ("augment", "gamma_adjust", "augment.gamma_adjust", None),
    ("augment", "flip_h", "augment.flip_h", None),
    ("augment", "flip_v", "augment.flip_v", None),
    ("augment", "scale", "augment.scale", None),
    ("synth_scene", "generate_scene", "synth_scene.generate_scene", None),
)


def _wrap(tracer: Tracer, name: str, fn, counter):
    signature = inspect.signature(fn) if counter else None

    @functools.wraps(fn)
    def recorded(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if counter is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            tracer.spans[index].counts.update(counter(bound.arguments, result))
        return result

    return recorded


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every binding for a recording wrapper; restore them on exit."""
    saved = []
    try:
        for module_name, attr, name, counter in BINDINGS:
            module = importlib.import_module(f"palmwatch.{module_name}")
            original = getattr(module, attr)
            setattr(module, attr, _wrap(tracer, name, original, counter))
            saved.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    return [span.duration - child for span, child in zip(spans, child_time)]


# Per-layer time metric -> spans whose self time it sums.
TIME_METRICS = {
    "raster_core.load_s": ("raster_core.load_raster",),
    "raster_core.save_s": ("raster_core.save_raster",),
    "indices.compute_s": ("indices.compute_index", "indices.vegetation_mask"),
    "tiling.extract_s": ("tiling.tile_plan", "tiling.extract_tile"),
    "tiling.stitch_s": ("tiling.stitch",),
    "pixel_model.featurize_s": ("pixel_model.featurize",),
    "pixel_model.predict_s": ("pixel_model.predict_map",),
    "crown_detect.detect_s": ("crown_detect.detect_crowns",),
    "crown_detect.split_s": ("crown_detect.split_touching",),
    "crown_detect.classify_s": ("crown_detect.classify_detections",),
    "crown_detect.match_s": ("crown_detect.match_detections",),
    "crown_detect.export_s": ("crown_detect.write_geojson", "crown_detect.write_csv"),
    "evaluate.metrics_s": ("evaluate.confusion_matrix", "evaluate.metrics"),
    "augment.crop_s": ("augment.random_crop",),
    "augment.noise_s": ("augment.gaussian_noise",),
    "augment.gamma_s": ("augment.gamma_adjust",),
    "augment.flip_s": ("augment.flip_h", "augment.flip_v"),
    "augment.scale_s": ("augment.scale",),
    "annotations.io_s": ("annotations.load_annotations", "annotations.save_annotations"),
    "synth_scene.generate_s": ("synth_scene.generate_scene",),
    "cli.run_pipeline_self_s": ("cli.run_pipeline",),
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one op from its spans.

    Byte, tile and pair counts are computed from sizes and
    arguments, not measured. A layer the op never entered reads 0.
    """
    selfs = self_times(spans)
    out = {
        metric: sum(s for span, s in zip(spans, selfs) if span.name in names)
        for metric, names in TIME_METRICS.items()
    }

    def total(key):
        return sum(span.counts.get(key, 0) for span in spans)

    splits = [span for span in spans if span.name == "crown_detect.split_touching"]
    scene_px = total("scene_px")
    out.update({
        "raster_core.bytes_read": total("bytes_read"),
        "raster_core.bytes_written": total("bytes_written"),
        "tiling.tiles": total("tiles"),
        "tiling.evaluated_px_ratio": total("evaluated_px") / scene_px if scene_px else 0.0,
        "crown_detect.split_calls": len(splits),
        "crown_detect.split_px": total("split_px"),
        "crown_detect.split_parts_kept_ratio": (
            total("parts_kept") / total("parts") if total("parts") else 0.0
        ),
        "crown_detect.match_pairs": total("match_pairs"),
        "crown_detect.detections": total("detections"),
    })
    return out


def span_table(spans_per_op: list[list[Span]]) -> list[dict]:
    """Calls, median total and median self seconds per op, by span name."""
    per_op = []
    for spans in spans_per_op:
        rows: dict[str, list] = {}
        for span, s in zip(spans, self_times(spans)):
            row = rows.setdefault(span.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += span.duration
            row[2] += s
        per_op.append(rows)
    names = sorted({name for rows in per_op for name in rows})
    table = []
    for name in names:
        cells = [rows.get(name, [0, 0.0, 0.0]) for rows in per_op]
        table.append({
            "span": name,
            "calls": statistics.median(c[0] for c in cells),
            "total_s": statistics.median(c[1] for c in cells),
            "self_s": statistics.median(c[2] for c in cells),
        })
    return table


def spans_to_json(spans: list[Span], origin: float) -> list[dict]:
    return [
        {
            "name": s.name,
            "start_s": s.start - origin,
            "end_s": s.end - origin,
            "parent": s.parent,
            "counts": s.counts,
        }
        for s in spans
    ]
