"""Shared helpers of the perfbench commands: building the harness from the
sources of the checkout, preparing the weights, running one workload."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
CACHE = "mpcnn_cache_perfbench"  # under ROOT; .gitignore's mpcnn_cache*/
WORKLOADS = ["stream_cascade", "batch_cascade", "serve_fleet", "scene_motion"]


class BenchError(Exception):
    pass


def harness_env():
    """The pinned environment every harness process runs in."""
    env = dict(os.environ)
    env["MPCNN_TUNE"] = "off"
    env["MPCNN_INTEGRITY"] = "off"
    for key in ("MPCNN_CACHE_DIR", "MPCNN_ISA", "MPCNN_THREADS",
                "MPCNN_BNN_EXEC"):
        env.pop(key, None)
    return env


def build():
    """Configures (once) and builds the harness; a no-op when current."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("the mpcnn sources (src/) are not in this checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD.parent / "perfbench-build.log"
    with open(log_path, "w") as log:
        if not (BUILD / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                raise BenchError(f"cmake configure failed, see {log_path}")
        cmd = ["cmake", "--build", str(BUILD), "-j", "4"]
        if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                          cwd=ROOT).returncode != 0:
            raise BenchError(f"build failed, see {log_path}")


def harness(traced=False):
    return BUILD / ("perfbench_traced" if traced else "perfbench")


def mpcnn_cli():
    return BUILD / "mpcnn" / "tools" / "mpcnn_cli"


def weights_ready():
    return (ROOT / CACHE / "weights.ok").is_file()


def prepare_weights():
    """Trains the default weights the workloads load (A, C and the BNN)
    into CACHE, checks every file with `mpcnn_cli verify`, and marks the
    cache ready.  Progress goes to stderr."""
    cache = ROOT / CACHE
    cache.mkdir(exist_ok=True)
    (cache / "weights.ok").unlink(missing_ok=True)
    proc = subprocess.run([str(harness()), "--prepare", "--cache", CACHE],
                          cwd=ROOT, env=harness_env(),
                          stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise BenchError("training the weights failed")
    files = sorted(p for p in cache.glob("*.bin"))
    if not files:
        raise BenchError(f"no weights were written to {cache}")
    for path in files:
        proc = subprocess.run([str(mpcnn_cli()), "verify", str(path)],
                              cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise BenchError(f"{path} failed verification")
    (cache / "weights.ok").write_text(
        "".join(f"{p.name} {p.stat().st_size}\n" for p in files))
