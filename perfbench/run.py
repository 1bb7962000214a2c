#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload refresh_saturated --seed 1 \\
        --seconds 25 --trace 0

Run from the repository root. The first run configures and builds
hira_core from ../src plus the perfbench program into the build
directory ($CARGO_TARGET_DIR, default .bench_build); later runs only
rebuild what changed. Every HIRA_* variable is removed from the
program's environment, so an ambient shell cannot change a workload.
The program's last line of stdout is the result object.

Seeds: DEFAULT_SEED is the seed the benchmark is tuned on and
HELDOUT_SEED one it was not tuned on; the checks must pass on both.
"""

import argparse
import os
import subprocess
import sys

DEFAULT_SEED = 1
HELDOUT_SEED = 7919

# A run must end within 180 s; leave room for the rebuild check.
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    src = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("run.py: no src/ next to perfbench/; run from the "
                 "repository root")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", src, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workers", type=int, default=0,
                    help="sweep threads (default: min(4, nproc))")
    args = ap.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        exe = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.workers > 0:
        cmd += ["--workers", str(args.workers)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir, f"spans-{args.workload}-{args.seed}.json")]
    env = {k: v for k, v in os.environ.items() if not k.startswith("HIRA_")}
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
