#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 aqvbench/run.py --workload plan_cold --seed 1 --seconds 10 --trace 0
    python3 aqvbench/run.py --workload all          # every workload, one process each
    python3 aqvbench/run.py --self-test             # the instruments' own checks

Run it from the repository root. The first run configures and builds the
module libraries and the aqvbench binary into .bench_build/ (Release) and
runs the self-test; later runs rebuild incrementally. Each workload runs in
a fresh process; its last stdout line is the result JSON. README.md
documents the workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = ".bench_build"
BINARY = os.path.join(BUILD, "aqvbench")
WORKLOADS = ["plan_cold", "serve_hot", "ingest_durable"]


def fail(message, code=2):
    print("aqvbench: " + message, file=sys.stderr)
    sys.exit(code)


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def source_sha256():
    """Digest of the measured sources, so a result names its code even
    outside git."""
    digest = hashlib.sha256()
    for base in ("src", "aqvbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()


def build():
    """Configures once, builds incrementally; build chatter goes to stderr."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources next to the benchmark (src/CMakeLists.txt missing)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(ROOT, BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "aqvbench", "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "aqvbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step), 1)
    stamp = os.path.join(ROOT, BUILD, "selftest.stamp")
    built = str(os.path.getmtime(os.path.join(ROOT, BINARY)))
    if not os.path.exists(stamp) or open(stamp).read() != built:
        if run_binary(["--self-test"], stdout=sys.stderr) != 0:
            fail("self-test failed", 1)
        with open(stamp, "w") as f:
            f.write(built)


def run_binary(args, stdout=None):
    cmd = [os.path.join(".", BINARY), "--work-dir", BUILD] + args
    return subprocess.run(cmd, cwd=ROOT, stdout=stdout).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload or --self-test is required")
    build()
    if args.self_test:
        sys.exit(run_binary(["--self-test"]))
    sha, source = git_sha(), source_sha256()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        sys.stdout.flush()
        code = run_binary(["--workload", workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", str(args.trace),
                           "--git-sha", sha, "--source-sha256", source])
        if code != 0:
            fail("workload %s exited with %d" % (workload, code), 1)


if __name__ == "__main__":
    main()
