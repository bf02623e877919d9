#!/usr/bin/env python3
"""Build and run the fleet performance ledger.

    python3 perf_ledger/run.py --workload mix|field|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
library plus the ledger binary (Release) into .bench_build/ledger; later
calls rebuild incrementally. Build output goes to stderr; the binary's
standard output, whose last line is the JSON result, passes through
unchanged. Exits nonzero without a result when the sources are missing or
the build or the run fails.
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ledger")
BINARY = os.path.join(BUILD, "perf_ledger")
STATE = os.path.join(BUILD, "fingerprints")
# Each call's output must stay under the run's time limit even on a cold
# build, so the build is bounded separately from the measured run.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perf_ledger: " + msg, file=sys.stderr)
    sys.exit(2)


def run_step(cmd, timeout):
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail("failed (exit %d): %s" % (done.returncode, " ".join(cmd)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("repository sources not found next to perf_ledger/")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_step(["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_step(["cmake", "--build", BUILD, "-j", jobs, "--target", "perf_ledger"],
             BUILD_TIMEOUT_S)


def stamp():
    """Identity of what the run's outputs depend on: the binary and specs."""
    h = hashlib.sha256()
    with open(BINARY, "rb") as f:
        h.update(f.read())
    specs = os.path.join(HERE, "specs")
    for name in sorted(os.listdir(specs)):
        with open(os.path.join(specs, name), "rb") as f:
            h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()


def main():
    build()
    # Fingerprints of earlier runs (digests and work counts per workload and
    # seed) are only comparable while the binary and the specs stay the same.
    current = stamp()
    stamp_file = os.path.join(STATE, "stamp")
    try:
        with open(stamp_file) as f:
            stale = f.read() != current
    except FileNotFoundError:
        stale = True
    if stale:
        shutil.rmtree(STATE, ignore_errors=True)
        os.makedirs(STATE)
        with open(stamp_file, "w") as f:
            f.write(current)
    cmd = [BINARY, "--specs", os.path.join(HERE, "specs"), "--state", STATE]
    cmd += sys.argv[1:]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
