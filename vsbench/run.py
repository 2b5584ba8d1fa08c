#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 vsbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 vsbench/run.py --pin NAME      # regenerate NAME's pinned outputs

Run it from the root of a checkout.  It configures vsbench/CMakeLists.txt
(which pulls in the library and the `vs` tool from src/ and tools/) into the
build directory named by $CARGO_TARGET_DIR, or .bench_build when that is
unset, builds an optimised `vsbench` and `vs`, and runs `vsbench` with the
given arguments.  Scratch files (the serve workload's socket, journal and
log) go to .bench_run.  The last line of standard output is the result JSON
printed by `vsbench`.  Build output goes to vsbench_build.log in the build
directory, and to standard error when the build fails.
"""

import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "vsbench")
RUN_DIR = ".bench_run"
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def run_logged(cmd, log):
    """Runs a build step, sending its output to `log`; True on success."""
    result = subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
    return result.returncode == 0


def build():
    """Configures and builds vsbench and vs; returns the build directory."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "vsbench_build.log")
    with open(log_path, "w") as log:
        ok = (os.path.exists(os.path.join(out, "CMakeCache.txt"))
              or run_logged(["cmake", "-S", BENCH_DIR, "-B", out,
                             "-DCMAKE_BUILD_TYPE=Release"], log))
        ok = ok and run_logged(["cmake", "--build", out, "-j", jobs(),
                                "--target", "vsbench", "vs_cli"], log)
    if not ok:
        with open(log_path) as log:
            sys.stderr.write(log.read())
        sys.stderr.write("vsbench: build failed\n")
        return None
    return out


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = rev.stdout.split()
        if (rev.returncode == 0 and len(lines) == 2
                and os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "vsbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def main(argv):
    out = build()
    if out is None:
        return 1
    vsbench = os.path.join(out, "vsbench")
    vs = os.path.join(out, "vs_tools", "vs")
    cmd = [vsbench] + argv + ["--pins", os.path.join("vsbench", "pins")]
    if "--pin" not in argv:
        cmd += ["--run-dir", RUN_DIR, "--vs", vs, "--commit", source_revision()]
    # Own process group, so a run cut by the timeout takes the `vs serve`
    # child it may have started down with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("vsbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
