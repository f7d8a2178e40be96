#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 perfbench/run.py --workload <calib_methods|pack_stream|design_sweep>
                             --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout.  The first call configures and
builds perfbench/ (which builds the library from ../src) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
re-check the build.  All arguments go to the benchmark binary, whose
last stdout line is the JSON result.  Build output goes to stderr.  A
failed build exits 1 without printing a result.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(out):
    """Configure (once) and build the benchmark; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    return subprocess.call(
        ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr) == 0


def source_sha():
    """sha256 over the library and benchmark sources (provenance)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_describe():
    if not os.path.exists(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unavailable (not a git checkout)"
    r = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unavailable"


def main():
    if not shutil.which("cmake"):
        print("perfbench: cmake not found", file=sys.stderr)
        return 1
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env = dict(os.environ,
               PERFBENCH_GIT_DESCRIBE=git_describe(),
               PERFBENCH_SOURCE_SHA=source_sha())
    return subprocess.call([os.path.join(out, "perfbench")] + sys.argv[1:],
                           cwd=ROOT, env=env)


if __name__ == "__main__":
    sys.exit(main())
