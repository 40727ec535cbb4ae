#!/usr/bin/env python3
"""Build the benchmark harness (Release) and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload vcc_sweep --seed 1 --seconds 20 --trace 0

The harness is built under .bench_build/perfbench on first use.  Build
output goes to stderr, so the last line of stdout is the harness's JSON
result.  The metric names and units the harness reports come from
BENCHMARK.json, handed over as a small table file.  Every other argument
is handed to the harness unchanged (see perfbench/README.md).  Exits
non-zero without a result if the source tree is missing or the build
fails.
"""
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")


def build():
    if not (os.path.isfile("CMakeLists.txt")
            and os.path.isfile(os.path.join("src", "sim", "simulation.hh"))):
        sys.exit("perfbench: run from the root of an iraw checkout "
                 "(no CMakeLists.txt / src/ here)")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD_DIR, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench")


def metric_table():
    """Write BENCHMARK.json's metrics as "<block> <name> <unit>" lines."""
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    path = os.path.join(BUILD_DIR, "metrics.tsv")
    with open(path, "w") as f:
        for block in ("end_to_end", "per_layer"):
            for m in bench[block]:
                f.write(f"{block} {m['name']} {m['unit']}\n")
    return path


def git_sha():
    """HEAD of the checkout, or "unknown" when it is not a repository
    (git is kept from searching the directories above it)."""
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    binary = build()
    argv = [binary] + sys.argv[1:] + ["--metrics", metric_table(),
                                      "--git-sha", git_sha(),
                                      "--argv", " ".join(sys.argv)]
    return subprocess.run(argv).returncode


if __name__ == "__main__":
    sys.exit(main())
