#!/usr/bin/env python3
"""Build the end-to-end serving benchmark and run one workload.

Run from anywhere inside a full checkout of the repository:

    python3 bench/e2e/run.py --workload estimate_warm --seed 1 \
        --seconds 30 --trace 0

It builds the library and the `sjsel` CLI with the repository's own
CMakeLists.txt (Release, under .bench_build/sjsel at the repository root),
then bench/e2e against that build (under .bench_build/e2e), and replaces
itself with e2e_bench. The work directory, .bench_build/e2e/work, belongs
to the e2e_bench binary that filled it: when a rebuild changes the binary,
the directory is emptied, so pools and exact counts made by other code are
never reused.
Build output goes to stderr; stdout is e2e_bench's, whose last line is
the JSON result. Exits non-zero, printing no result, if the build fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    """Builds sjsel and e2e_bench; returns e2e_bench's path or None."""
    sjsel_dir = os.path.join(BUILD, "sjsel")
    e2e_dir = os.path.join(BUILD, "e2e")
    steps = [
        ["cmake", "-S", ROOT, "-B", sjsel_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", sjsel_dir, "--target", "sjsel", "sjsel_tool",
         "-j", "4"],
        ["cmake", "-S", HERE, "-B", e2e_dir, "-DSJSEL_BUILD_DIR=" + sjsel_dir],
        ["cmake", "--build", e2e_dir, "--target", "e2e_bench", "-j", "4"],
    ]
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(e2e_dir, "e2e_bench")


def work_dir(bench):
    """The work directory, emptied first if another binary filled it."""
    digest = hashlib.sha256()
    with open(bench, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    path = os.path.join(os.path.dirname(bench), "work")
    stamp = os.path.join(path, "BENCH_ID")
    try:
        with open(stamp, encoding="utf-8") as f:
            current = f.read() == digest.hexdigest()
    except OSError:
        current = False
    if not current:
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        with open(stamp, "w", encoding="utf-8") as f:
            f.write(digest.hexdigest())
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = build()
    if bench is None:
        return 1
    workdir = work_dir(bench)
    # Replaced by the bench rather than waiting on it, so stopping this
    # process stops the bench (and the server, which dies with the bench).
    sys.stdout.flush()
    os.execv(bench, [
        bench,
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%g" % args.seconds,
        "--trace=%d" % args.trace,
        "--workdir=" + workdir,
        "--benchmark-json=" + os.path.join(ROOT, "BENCHMARK.json"),
    ])


if __name__ == "__main__":
    sys.exit(main())
