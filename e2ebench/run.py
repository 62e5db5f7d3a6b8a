#!/usr/bin/env python3
"""Build the end-to-end benchmark program from source and run it.

Usage (from the repository root):

    python3 e2ebench/run.py --workload <small_rw|kv_ycsb_a|bulk_rw> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is built with CMake into $CARGO_TARGET_DIR/e2ebench (default
.bench_build/e2ebench under the repository root). Build output goes to
stderr; the benchmark's stdout is passed through, and its last line is the
JSON result. With --trace 1 the spans are written to trace_<workload>.json
in the build directory. Exits non-zero, without a result, if the build
or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "e2ebench")


def run_quiet(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("e2ebench: command failed: %s\n" % " ".join(cmd))
    return proc.returncode == 0


def build(out):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    return run_quiet(["cmake", "--build", out, "--target", "clio_e2ebench",
                      "-j", "4"])


def main(argv):
    args = list(argv)
    if "--trace" not in args or "--workload" not in args:
        sys.stderr.write(__doc__)
        return 2
    out = build_dir()
    if not build(out):
        return 1
    workload = args[args.index("--workload") + 1]
    if args[args.index("--trace") + 1] == "1":
        args += ["--trace-out", os.path.join(out, "trace_%s.json" % workload)]
    binary = os.path.join(out, "clio_e2ebench")
    proc = subprocess.Popen([binary] + args, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("e2ebench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
