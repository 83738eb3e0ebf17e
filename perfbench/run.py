#!/usr/bin/env python3
"""Build the perfbench program from source and run one benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0

Every argument is passed to the perfbench program (see perfbench/README.md). The
build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
inside the checkout; build output goes to stderr, so the program's result
is the last line of stdout. A traced run (--trace 1) also writes its
spans next to the build. The exit code is the program's.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(target="perfbench"):
    """Configure, then build @target; returns the binary path."""
    out = build_dir()
    cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and \
            not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode:
        sys.exit("perfbench: configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "--target", target, "-j", jobs],
                      stdout=sys.stderr, cwd=ROOT).returncode:
        sys.exit("perfbench: build failed")
    return os.path.join(out, target)


def commit():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def main(argv):
    binary = build()
    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        workload = args[args.index("--workload") + 1] \
            if "--workload" in args[:-1] else ""
        name = workload if workload.replace("_", "").isalnum() else "run"
        args += ["--spans", os.path.join(build_dir(), f"spans-{name}.json")]
    env = dict(os.environ, PERFBENCH_COMMIT=commit())
    return subprocess.run([binary] + args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
