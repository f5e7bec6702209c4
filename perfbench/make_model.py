"""Rebuild perfbench/model.json, the fixed model the survey and grove workloads load.

The model goes through ``palmwatch train``: four default 4096x4096
synthetic scenes (scene seeds 1000-1003, the training scenes of
acceptance criterion 6) are written to disk and trained on with the
default TrainConfig (shuffle seed 0).

Run from the repository root:

    python3 perfbench/make_model.py

It takes about a minute and 2 GB of memory on a 2-CPU machine. The
scenes go to .perfbench_work/make_model and are deleted afterwards.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODEL_PATH = HERE / "model.json"
SCENE_SEEDS = (1000, 1001, 1002, 1003)
TRAIN_SEED = 0


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from palmwatch import cli
    from palmwatch.annotations import save_annotations
    from palmwatch.raster_core import save_raster
    from palmwatch.synth_scene import SceneSpec, generate_scene

    work = ROOT / ".perfbench_work" / "make_model"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        headers = []
        for seed in SCENE_SEEDS:
            raster, ann = generate_scene(SceneSpec(seed=seed))
            stem = work / f"scene_{seed}"
            save_raster(raster, stem)
            save_annotations(ann, stem.with_suffix(".json"))
            headers.append(str(stem) + ".rhdr")
            del raster
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["train", *headers, "--out", str(MODEL_PATH), "--seed", str(TRAIN_SEED)])
        print(out.getvalue(), end="")
        if rc != 0:
            return rc
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"sha256 {hashlib.sha256(MODEL_PATH.read_bytes()).hexdigest()}  {MODEL_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
