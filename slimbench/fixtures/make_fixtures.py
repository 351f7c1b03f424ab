"""Regenerate the benchmark's committed network fixtures.

Runs the pipeline `gen-world -> oracle -> train-nav -> train-aux` through
the slimnav CLI, once per adaptation mode, on one pinned small config, and
copies the trained navigation and auxiliary-actor weights next to this file
as `C/nav.bin`, `C/actor.bin`, `S/nav.bin` and `S/actor.bin`. The wall time,
exit code and printed output of every stage, the gate verdict and the sha256
of every weight file go to `manifest.json`.

A stage that exits non-zero after writing its weights is recorded, not
hidden: train-aux exits 4 when its path-length gate fails, and its weights
are still the ones the benchmark flies.

Usage, from the repository root:

    python3 slimbench/fixtures/make_fixtures.py [--work-dir DIR]

It takes a few minutes per mode on a 2-core machine.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

# The pinned small config; every other key keeps the CLI default.
OVERRIDES = (
    "world.dims=[48,48,8]",
    "oracle.n_train_paths=200",
    "nav.hidden=[64,64]",
    "nav.max_epochs=15",
    "nav.refine_rollouts=100",
    "aux.total_env_steps=2000",
)
STAGES = ("gen-world", "oracle", "train-nav", "train-aux")
COPIES = {"nav_weights.bin": "nav.bin", "aux_actor.bin": "actor.bin"}
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CLI = "import sys; from slimnav.cli import entry; sys.argv[0] = 'slimnav'; entry()"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_mode(mode: str, work: Path, env: dict) -> dict:
    out_dir = work / mode
    shutil.rmtree(out_dir, ignore_errors=True)
    args = ["--set", f"mode={mode}", "--set", f"out_dir={out_dir}"]
    for item in OVERRIDES:
        args += ["--set", item]
    stages = []
    for stage in STAGES:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", CLI, stage, *args],
                              env=env, capture_output=True, text=True,
                              check=False)
        wall = time.perf_counter() - t0
        # artifact paths are recorded relative to the work directory
        stages.append({"stage": stage, "wall_s": round(wall, 3),
                       "exit_code": proc.returncode,
                       "stdout": proc.stdout.replace(str(work), "$WORK")
                       .strip().splitlines(),
                       "stderr": proc.stderr.replace(str(work), "$WORK")
                       .strip().splitlines()})
        print(f"mode {mode} {stage}: exit {proc.returncode} in {wall:.1f}s",
              flush=True)
        # exit 4 (gate failed) still leaves the trained weights behind
        if proc.returncode not in (0, 4):
            raise SystemExit(f"{stage} failed for mode {mode}:\n{proc.stderr}")
    gate = (out_dir / "gate.txt").read_text().splitlines()
    dest = HERE / mode
    dest.mkdir(exist_ok=True)
    files = {}
    for src_name, dst_name in COPIES.items():
        shutil.copyfile(out_dir / src_name, dest / dst_name)
        files[f"{mode}/{dst_name}"] = sha256(dest / dst_name)
    return {"stages": stages, "gate": gate[1:], "files": files}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work-dir", default=str(ROOT / ".bench_out" / "fixtures"),
                        help="where the CLI writes its artifacts")
    args = parser.parse_args()
    work = Path(args.work_dir).resolve()
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({k: "1" for k in THREAD_PINS})
    manifest = {
        "overrides": list(OVERRIDES),
        "machine": {"platform": platform.platform(), "nproc": os.cpu_count(),
                    "python": platform.python_version()},
        "thread_pins": {k: "1" for k in THREAD_PINS},
        "modes": {mode: run_mode(mode, work, env) for mode in ("C", "S")},
    }
    (HERE / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
