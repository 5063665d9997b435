#!/usr/bin/env python3
"""End-to-end benchmark of the BOSON-1 library (see README.md).

Run from the repository root:

    python3 e2ebench/run.py --workload paper_bend --seed 1 --seconds 30 --trace 0

Builds the benchmark (e2ebench/CMakeLists.txt) into .bench_build/e2ebench,
writes the single-threaded reference fingerprint of the determinism probe,
runs the workload in a fresh process and prints one JSON object as the last line of
standard output: correct, attempted, failed and the metrics (end-to-end with
--trace 0, per-layer with --trace 1).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
WORKLOADS = ("paper_bend", "campaign_mix", "served_campaign")
REFERENCE_TIMEOUT_S = 30
RUN_TIMEOUT_S = 140


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(2)


def clean_env():
    """The caller's environment without any BOSON_* setting, so ambient knobs
    (threads, reuse, cache, backend, scale, seed, trace) cannot change what is
    measured."""
    return {k: v for k, v in os.environ.items() if not k.startswith("BOSON_")}


def build(env):
    for needed in ("src/CMakeLists.txt", "tools/boson_serve.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("the library sources are missing (%s); run from a checkout of the repository"
                 % needed)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, env=env, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "4", "--target", "e2e_bench",
                    "e2e_serve"], check=True, env=env, stdout=sys.stderr)


def run_child(argv, env, timeout):
    """Run one benchmark process in its own process group; on timeout the
    whole group (including any campaign daemon it started) is killed."""
    child = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        fail("%s timed out after %d s" % (argv[1], timeout))
    if child.returncode != 0:
        fail("%s exited with code %d" % (argv[1], child.returncode))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--inject", choices=("gradient", "drop_row"),
                        help="corrupt one output to show the checks catch it")
    args = parser.parse_args()

    env = clean_env()
    build(env)
    bench = os.path.join(BUILD_DIR, "e2e_bench")
    work = os.path.join(BUILD_DIR, "work", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        # The bit-identity baseline: the fixed probe campaign on one worker and
        # one thread, made anew for every invocation.
        reference = os.path.join(work, "reference.json")
        run_child([bench, "probe", "--workers", "1", "--out", reference, "--work-dir", work],
                  dict(env, BOSON_THREADS="1"), REFERENCE_TIMEOUT_S)

        argv = [bench, "run", "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", args.trace,
                "--reference", reference, "--work-dir", work,
                "--serve-bin", os.path.join(BUILD_DIR, "e2e_serve")]
        if args.inject:
            argv += ["--inject", args.inject]
        lines = run_child(argv, env, RUN_TIMEOUT_S).strip().splitlines()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not lines:
        fail("the benchmark printed no result")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or result["attempted"] < 1:
        fail("malformed result line: " + lines[-1])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
