#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and
builds perfbench/ (which compiles the program from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later
runs rebuild incrementally. The benchmark's last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.
Everything the run writes, the source JIT's temporary files included,
stays under the build directory; traces of --trace 1 runs land in
<build>/out. A traced run reports every per-layer metric BENCHMARK.json
lists; those of layers the workload does not run read 0.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("offline-table1", "online-open")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# A run must end within 180 s; the first run of a checkout also builds.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j4"],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Let a terminated run reach the cleanup below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.exists(os.path.join(BENCH_DIR, "..", "src",
                                       "CMakeLists.txt")):
        log("no program sources next to perfbench/ (expected src/)")
        return 2

    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                          ".bench_build"))
    build_dir = os.path.join(root, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 2

    out_dir = os.path.join(build_dir, "out")
    tmp_dir = os.path.join(build_dir, f"tmp-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(tmp_dir, exist_ok=True)
    # The source JIT and the system compiler write under TMPDIR.
    env = dict(os.environ, TMPDIR=tmp_dir)
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", out_dir]
    process = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                               text=True)
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} exceeded {RUN_TIMEOUT_S} s")
        return 3
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        shutil.rmtree(tmp_dir, ignore_errors=True)

    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        log(f"{args.workload} exited with {process.returncode}")
        return process.returncode or 4
    result = json.loads(lines[-1])
    if args.trace:
        with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json")) as spec:
            for metric in json.load(spec)["per_layer"]:
                result["metrics"].setdefault(
                    metric["name"], {"value": 0, "unit": metric["unit"]})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
