"""palmwatch benchmark: three workloads, end-to-end metrics untraced, per-layer metrics traced.

Run from the repository root:

    python3 perfbench/run.py --workload survey --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics (set-up time, seconds per
op, input megapixels per second, peak RSS of the timed phase).
``--trace 1`` runs the same ops once untraced and once with every public
palmwatch function wrapped in a span recorder, and reports the per-layer
metrics, the self time of each span and the tracing overhead (traced
minus untraced seconds per op).

Each run builds its inputs from ``--seed`` in a set-up process (three
times untraced, for a median set-up time), then times ops in a fresh
process, so peak RSS covers the workload and not the scene generation.
Work files go to ``.perfbench_work/<workload>``. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# The keys of workloads.WORKLOADS, listed here so that the parent process
# never imports palmwatch and fails cleanly when the sources are missing.
WORKLOAD_NAMES = ("survey", "grove", "augment")
SETUP_REPS = 3
MIN_OPS = 3
MAX_OPS = 50
# Every run, set-up included, ends within this many seconds or fails.
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s": "s",
    "mpx_per_s": "Mpx/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "raster_core.load_s": "s",
    "raster_core.save_s": "s",
    "raster_core.bytes_read": "B",
    "raster_core.bytes_written": "B",
    "indices.compute_s": "s",
    "tiling.extract_s": "s",
    "tiling.stitch_s": "s",
    "tiling.tiles": "count",
    "tiling.evaluated_px_ratio": "ratio",
    "pixel_model.featurize_s": "s",
    "pixel_model.predict_s": "s",
    "crown_detect.detect_s": "s",
    "crown_detect.split_s": "s",
    "crown_detect.split_calls": "count",
    "crown_detect.split_px": "count",
    "crown_detect.split_parts_kept_ratio": "ratio",
    "crown_detect.classify_s": "s",
    "crown_detect.match_s": "s",
    "crown_detect.match_pairs": "count",
    "crown_detect.detections": "count",
    "crown_detect.export_s": "s",
    "evaluate.metrics_s": "s",
    "evaluate.det_precision": "ratio",
    "evaluate.det_recall": "ratio",
    "evaluate.macro_f1": "ratio",
    "augment.crop_s": "s",
    "augment.noise_s": "s",
    "augment.gamma_s": "s",
    "augment.flip_s": "s",
    "augment.scale_s": "s",
    "annotations.io_s": "s",
    "synth_scene.generate_s": "s",
    "cli.run_pipeline_self_s": "s",
    "trace.overhead_s": "s",
}


def blas_threads() -> str:
    return str(len(os.sched_getaffinity(0)))


# ---------------------------------------------------------------------------
# child processes: set-up and the timed phase


def child_setup(args) -> dict:
    import tracing
    from workloads import WORKLOADS, sha256_tree

    workload = WORKLOADS[args.workload]
    inputs = Path(args.inputs)
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    tracer = tracing.Tracer()
    with tracing.installed(tracer) if args.trace else contextlib.nullcontext():
        start = time.perf_counter()
        info = workload.setup(args.seed, inputs)
        setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s, "inputs_sha256": sha256_tree(inputs), **info}
    if args.trace:
        result["generate_s"] = tracing.layer_metrics(tracer.take())["synth_scene.generate_s"]
    return result


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def child_measure(args) -> dict:
    import tracing
    from workloads import WORKLOADS, CheckFailed

    workload = WORKLOADS[args.workload]
    inputs, out = Path(args.inputs), Path(args.out)
    tracer = tracing.Tracer()
    # A timed phase runs for its share of --seconds and at least MIN_OPS
    # ops, so its median is never the first op of the process, which runs
    # cold (allocator arenas, page cache; a cold survey op ran about 20 %
    # slower). The traced run starts with one untimed op, so that its
    # overhead compares warm ops with warm ops.
    phases = [("untraced", args.seconds, MIN_OPS)]
    if args.trace:
        phases = [
            ("warmup", 0.0, 1),
            ("untraced", args.seconds / 2, MIN_OPS),
            ("traced", args.seconds / 2, MIN_OPS),
        ]
    ops, traced_spans = [], []
    for phase, budget, min_ops in phases:
        traced = phase == "traced"
        spent = 0.0
        for count in itertools.count(1):
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            record = {"phase": phase, "seconds": 0.0, "ok": False}
            try:
                with tracing.installed(tracer) if traced else contextlib.nullcontext():
                    start = time.perf_counter()
                    try:
                        result = workload.op(inputs, out)
                    finally:
                        record["seconds"] = time.perf_counter() - start
                spans = tracer.take()
                record["digests"], record["quality"] = workload.check(inputs, out, result)
                if traced:
                    missing = sorted(set(workload.spans) - {s.name for s in spans})
                    if missing:
                        raise CheckFailed(f"no span recorded for {missing}")
                    record["layers"] = tracing.layer_metrics(spans)
                    traced_spans.append(spans)
                record["ok"] = True
            except Exception as exc:  # an op that raises counts as failed; the run goes on
                traceback.print_exc(file=sys.stderr)
                record["error"] = repr(exc)
                tracer.take()
            ops.append(record)
            spent += record["seconds"]
            if (spent >= budget and count >= min_ops) or len(ops) >= MAX_OPS:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Repeating an op on the same inputs, traced or not, must give the same bytes.
    reference = next((op["digests"] for op in ops if op["ok"]), None)
    for op in ops:
        if op["ok"] and op["digests"] != reference:
            op["ok"] = False
            op["error"] = "outputs differ from the first op of the run"

    result = {
        "ops": ops,
        "peak_rss_mb": peak_rss_mb,
        "mpx_per_op": workload.mpx,
        "env": _environment(),
    }
    if traced_spans:
        result["span_table"] = tracing.span_table(traced_spans)
        origin = traced_spans[0][0].start
        Path(args.spans).write_text(
            json.dumps([tracing.spans_to_json(s, origin) for s in traced_spans]) + "\n"
        )
    return result


# ---------------------------------------------------------------------------
# the parent: one workload end to end


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def _child(role: str, args: list[str], result_path: Path, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = blas_threads()
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(Path(__file__)), "--role", role, "--result", str(result_path), *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError(f"no time left for the {role} process")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{role} process exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{role} process exited with {proc.returncode}")
    return json.loads(result_path.read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(int(trace)), "--inputs", str(work / "inputs")]
    setups = [
        _child("setup", common, work / f"setup_{i}.json", deadline)
        for i in range(1 if trace else SETUP_REPS)
    ]
    measured = _child(
        "measure",
        common + ["--out", str(work / "out"), "--spans", str(work / "spans.json")],
        work / "measure.json",
        deadline,
    )
    ops = measured["ops"]
    ok_ops = [op for op in ops if op["ok"]]
    same_inputs = len({s["inputs_sha256"] for s in setups}) == 1
    op_s = statistics.median(op["seconds"] for op in ops if op["phase"] == "untraced")
    if trace:
        traced = [op for op in ok_ops if op["phase"] == "traced"]
        layers = {key: 0.0 for key in PER_LAYER_UNITS}
        if traced:
            for key in traced[0]["layers"]:
                layers[key] = statistics.median(op["layers"][key] for op in traced)
            layers["trace.overhead_s"] = statistics.median(op["seconds"] for op in traced) - op_s
        for key, value in (ok_ops[0]["quality"] if ok_ops else {}).items():
            if f"evaluate.{key}" in layers:
                layers[f"evaluate.{key}"] = value
        layers["synth_scene.generate_s"] = setups[0]["generate_s"]
        metrics = {key: {"value": value, "unit": PER_LAYER_UNITS[key]} for key, value in layers.items()}
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "op_s": op_s,
            "mpx_per_s": measured["mpx_per_op"] / op_s,
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        metrics = {key: {"value": value, "unit": END_TO_END_UNITS[key]} for key, value in values.items()}
    failed = len(ops) - len(ok_ops)
    return {
        "summary": {
            "correct": failed == 0 and same_inputs,
            "attempted": len(ops),
            "failed": failed,
            "metrics": metrics,
        },
        "setups": setups,
        "measured": measured,
        "same_inputs": same_inputs,
    }


def report(name: str, run: dict) -> None:
    """Human-readable lines; the machine-readable result is the last line."""
    measured = run["measured"]
    print(f"[{name}] env {json.dumps(measured['env'], sort_keys=True)}")
    setup = run["setups"][0]
    print(f"[{name}] inputs sha256 {setup['inputs_sha256']}" + ("" if run["same_inputs"] else " (set-ups disagree)"))
    if "model_sha256" in setup:
        print(f"[{name}] fixed model sha256 {setup['model_sha256']}")
    for i, op in enumerate(measured["ops"]):
        state = "ok" if op["ok"] else f"FAILED {op.get('error')}"
        print(f"[{name}] op {i} {op['phase']} {op['seconds']:.4f} s {state}")
    ok = next((op for op in measured["ops"] if op["ok"]), None)
    if ok is not None:
        for key, digest in ok["digests"].items():
            print(f"[{name}] output sha256 {digest}  {key}")
        for key, value in ok["quality"].items():
            print(f"[{name}] quality {key} {value!r}")
    for row in measured.get("span_table", []):
        print(
            f"[{name}] span {row['span']:<36} calls {row['calls']:>7g} "
            f"total {row['total_s']:9.4f} s  self {row['self_s']:9.4f} s"
        )
    summary = run["summary"]
    print(f"[{name}] correct {summary['correct']} attempted {summary['attempted']} failed {summary['failed']}")
    for key, metric in summary["metrics"].items():
        print(f"[{name}] {key} {metric['value']:.6g} {metric['unit']}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    parser.add_argument("--inputs", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role is not None:
        child = child_setup if args.role == "setup" else child_measure
        Path(args.result).write_text(json.dumps(child(args)) + "\n")
        return 0
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running child before the exception leaves it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "palmwatch" / "__init__.py").is_file():
        print(f"perfbench: no palmwatch sources at {SRC / 'palmwatch'}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        runs = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, run in runs.items():
        report(name, run)
    if args.workload == "all":
        print(json.dumps({name: run["summary"] for name, run in runs.items()}))
    else:
        print(json.dumps(runs[args.workload]["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
