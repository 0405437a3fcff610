#!/usr/bin/env python3
"""Build and run the TESLA benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oltp_inline --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles ../src) in
.bench_build/perfbench as a Release build; later calls rebuild only what
changed. The last line of stdout is the result record; the line before it is
the detail record (seed, machine fingerprint, checks). Build output and the
human-readable table go to stderr. Scratch files (captures, span dumps) go to
.bench_build/work. Exits non-zero, without a result, if the build fails.
`--workload all` runs every workload in turn, each printing its own records,
and exits non-zero if any run fails a correctness check.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["oltp_inline", "oltp_observed", "sessions_keyed", "replay_capture"]


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def source_id(root):
    """The git sha of the checkout, or a digest of its sources outside git."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
            if sha:
                return sha
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, subdirs, files in sorted(os.walk(os.path.join(root, top))):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def build(root, build_dir, targets):
    """Configures (once) and builds `targets`; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("configure failed")
            return False
    command = ["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets
    if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        log("build failed")
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    work_dir = os.path.join(root, ".bench_build", "work")

    if args.self_test:
        if not build(root, build_dir, ["perfbench_tests"]):
            return 1
        return subprocess.run([os.path.join(build_dir, "perfbench_tests")]).returncode

    if not build(root, build_dir, ["perfbench"]):
        return 1
    os.makedirs(work_dir, exist_ok=True)
    sid = source_id(root)
    all_correct = True
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        command = [os.path.join(build_dir, "perfbench"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", repr(args.seconds),
                   "--trace", str(args.trace), "--work-dir", work_dir, "--source-id", sid]
        env = dict(os.environ)
        if workload == "replay_capture":
            # Pin glibc's mmap threshold at its default (128 KiB). Pinning
            # turns off the dynamic threshold, which otherwise rises in
            # whichever processes happen to free a large mapped block early:
            # those run ReplayFile's large transient allocations ~1.5x faster
            # than the rest, and the figures split into two modes across runs.
            tunable = "glibc.malloc.mmap_threshold=131072"
            env["GLIBC_TUNABLES"] = ":".join(filter(None, [env.get("GLIBC_TUNABLES"), tunable]))
        try:
            # The run is bounded by --seconds plus set-up and the layer table.
            result = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                                    timeout=min(args.seconds * 3 + 60, 170))
        except subprocess.TimeoutExpired:
            log("benchmark timed out")
            return 1
        sys.stdout.write(result.stdout)
        sys.stdout.flush()
        if result.returncode != 0:
            return result.returncode
        lines = result.stdout.strip().splitlines()
        all_correct = all_correct and bool(lines) and json.loads(lines[-1])["correct"]
    return 0 if all_correct or args.workload != "all" else 3


if __name__ == "__main__":
    sys.exit(main())
