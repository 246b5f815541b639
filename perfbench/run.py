#!/usr/bin/env python3
"""Builds and runs the serving benchmark (perfbench/serve_bench.cc).

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench_serve from the checkout's own
sources with CMake (Release) under $CARGO_TARGET_DIR, default .bench_build;
later calls only rebuild what changed. Build output goes to stderr, so the
last line of stdout is perfbench_serve's JSON result. Exits non-zero without a
result when the sources are missing, the build fails, or perfbench_serve fails.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; fails the run on error."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"failed ({proc.returncode}): {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no osum source tree at {ROOT}")
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = [line.split("=", 1)[1].strip() for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [HERE]:  # configured for another checkout: start over
            shutil.rmtree(build_dir)
    if not os.path.isfile(cache):
        run_logged(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], timeout=120)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", build_dir, "--target", "perfbench_serve",
                "-j", jobs], timeout=600)
    return os.path.join(build_dir, "perfbench_serve")


def check_result(stdout, traced):
    """Fails the run unless the last line reports exactly the manifest's
    metrics for this mode (per_layer when traced, else end_to_end), each in
    the manifest's unit."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("the last line of perfbench_serve's output is not a result")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        manifest = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in manifest["per_layer" if traced else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != wanted:
        fail(f"metrics {got} do not match BENCHMARK.json {wanted}")


def main():
    binary = build()
    try:
        proc = subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        fail(f"perfbench_serve exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"perfbench_serve exited with {proc.returncode}")
    traced = "--trace" in sys.argv and \
        sys.argv[sys.argv.index("--trace") + 1:][:1] == ["1"]
    check_result(proc.stdout, traced)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
