#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload grid_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root. Configures and builds perfbench/ (which
compiles the library sources under src/) into the build directory named by
CARGO_TARGET_DIR, default .bench_build/, then runs the harness with the same
arguments. The harness prints human-readable lines and, as its last line, one
JSON object with the keys correct, attempted, failed and metrics. Build
output goes to stderr. Exits non-zero without a result if the build or the
run fails.
"""

import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(bench_dir, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", bench_dir, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            # Leave no half-configured tree behind for the next attempt.
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, env=env).returncode == 0


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(bench_dir, build_dir):
        log("build failed")
        return 1
    binary = os.path.join(build_dir, "perfbench")
    cmd = [binary, *sys.argv[1:],
           "--workdir", os.path.join(build_dir, "work"),
           "--pins", os.path.join(bench_dir, "pinned_digests.txt")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S}s")
        return 1


if __name__ == "__main__":
    sys.exit(main())
