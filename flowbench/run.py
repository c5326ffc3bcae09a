#!/usr/bin/env python3
"""Builds the CNFET design kit and flowbench from source, then runs one
workload of the end-to-end benchmark.

    python3 flowbench/run.py --workload rca_route --seed 1 \
        --seconds 20 --trace 0

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) and the run's scratch files to .bench_work, both
relative to the working directory. The last line on stdout is the run's
JSON result; build and child output go to stderr and log files.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.dirname(HERE)
WORKLOADS = ["rca_route", "cla_route", "rca_opt", "serve_mix"]


def build(build_dir):
    """Configures and builds; returns the bin dir or exits on failure."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [
        ["cmake", "--build", build_dir, "-j", jobs, "--target",
         "flowbench", "cnfetc", "cnfetd"],
    ]
    # A configured tree re-runs cmake by itself when a CMakeLists changes.
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as log:
        for step in steps:
            code = subprocess.run(step, stdout=log,
                                  stderr=subprocess.STDOUT).returncode
            if code:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.exit("flowbench: build failed (%s)" % " ".join(step[:2]))
    return os.path.join(build_dir, "bin")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (os.path.isfile(os.path.join(SOURCE, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(SOURCE, "src", "api"))):
        sys.exit("flowbench: the kit's sources are not next to %s" % HERE)

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bin_dir = build(build_dir)
    work = os.path.abspath(os.path.join(".bench_work", args.workload))
    result = subprocess.run(
        [os.path.join(bin_dir, "flowbench"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--bin", bin_dir, "--work", work],
        stdout=subprocess.PIPE, text=True)
    sys.stdout.write(result.stdout)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
