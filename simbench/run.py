#!/usr/bin/env python3
"""Build and run the simulator benchmark (see simbench/METRICS.md).

Run from the root of a checkout:

  python3 simbench/run.py --workload fig8-matrix --seed 1 --seconds 35 --trace 0
  python3 simbench/run.py --selftest

The first call configures and builds the library and the benchmark with
release flags under $CARGO_TARGET_DIR (default .bench_build); later
calls only rebuild what changed.  Build output goes to stderr, so the
benchmark's last stdout line (a JSON object) is the result.  --trace 1
also writes a Chrome trace-event file to
<build dir>/simbench-traces/<workload>.trace.json.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir, target):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("simbench: library sources not found; run from a full checkout")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", target,
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    target_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_root, "simbench")
    try:
        if args.selftest:
            return subprocess.run([build(build_dir, "simbench_test")]).returncode
        if not args.workload:
            parser.error("--workload is required")
        binary = build(build_dir, "simbench")
    except subprocess.CalledProcessError as err:
        print(f"simbench: build failed: {err}", file=sys.stderr)
        return 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--pins", os.path.join(HERE, "pins.txt")]
    if args.trace == "1":
        trace_dir = os.path.join(ROOT, target_root, "simbench-traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(trace_dir, f"{args.workload}.trace.json")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
