#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Workloads: audited-session, bulk-exchange, query-mix (the three that
BENCHMARK.json gates) and sweep-drain (see perfbench/METRICS.md).

The benchmark is the C++ program in perfbench/src, built together with
the hsis library from this checkout's sources (RelWithDebInfo) into a
directory of this checkout's own under $CARGO_TARGET_DIR or .bench_build
(see build_root). The program prints a provenance line, the named
metrics with units and, as its last line, one JSON object with the keys
correct, attempted, failed and metrics; this script checks that the
metric names match BENCHMARK.json and passes the program's exit code on
(nonzero on any wrong result).
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
SELF_TEST_TIMEOUT_S = 900


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_root():
    """This checkout's own directory under the build root.

    The name carries a digest of the checkout's path, so two checkouts
    that share $CARGO_TARGET_DIR never build or run each other's
    sources.
    """
    base = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                           or os.path.join(ROOT, ".bench_build"))
    key = hashlib.sha256(os.path.realpath(ROOT).encode()).hexdigest()[:12]
    return os.path.join(base, "perfbench-" + key)


def build(out_dir):
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("no hsis source tree here (missing %s)" % needed)
    build_dir = os.path.join(out_dir, "build")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def revision():
    """`git describe` where there is git, else a digest of the sources."""
    def git(*args):
        done = subprocess.run(["git", "-C", ROOT] + list(args),
                              capture_output=True, text=True, timeout=10)
        return done.stdout.strip() if done.returncode == 0 else ""

    try:
        # Only this checkout's own repository, never one around it.
        top = git("rev-parse", "--show-toplevel")
        if top and os.path.samefile(top, ROOT):
            described = git("describe", "--always", "--dirty")
            if described:
                return described
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def check_metric_names(result_line, traced):
    """The result's metrics must be exactly BENCHMARK.json's list."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if traced else "end_to_end"]}
    got = {name: m["unit"]
           for name, m in json.loads(result_line)["metrics"].items()}
    if wanted != got:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(wanted) - set(got)), sorted(set(got) - set(wanted))))


def main(argv):
    out_dir = build_root()
    binary = build(out_dir)
    traces = os.path.join(out_dir, "traces")
    work = os.path.join(out_dir, "work")
    os.makedirs(traces, exist_ok=True)
    os.makedirs(work, exist_ok=True)
    self_test = "--self-test" in argv
    timeout = SELF_TEST_TIMEOUT_S if self_test else RUN_TIMEOUT_S
    cmd = [binary] + argv + ["--rev", revision(), "--trace-dir", traces,
                             "--work-dir", work]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % timeout)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0 and not self_test:
        check_metric_names(lines[-1], "--trace" in argv and
                           argv[argv.index("--trace") + 1] == "1")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
