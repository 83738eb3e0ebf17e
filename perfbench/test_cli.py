#!/usr/bin/env python3
"""Check the perfbench program's handling of bad input, then its unit tests.

Usage, from the root of a checkout:

    python3 perfbench/test_cli.py

Builds the program and its tests (see run.py), checks that every kind
of bad input exits 2 with a message on stderr and prints nothing on
stdout, then runs perfbench_test. Exits non-zero on any failure.
"""

import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BAD = [
    (["--workload", "nope", "--seed", "1"], {}),
    (["--workload", "figures", "--seed", "x1"], {}),
    (["--workload", "figures", "--seed", "-3"], {}),
    (["--workload", "figures", "--seed", "1", "--frobnicate", "1"], {}),
    (["--workload", "figures", "--seed", "1", "--trace", "yes"], {}),
    (["--workload", "figures"], {}),
    (["--workload", "figures", "--seed", "1"], {"SNPU_TIMING_CACHE": "0"}),
]


def main():
    binary = run.build("perfbench")
    tests = run.build("perfbench_test")
    failures = 0
    for args, env in BAD:
        res = subprocess.run([binary] + args, cwd=run.ROOT,
                             env=dict(os.environ, **env),
                             capture_output=True, text=True, timeout=60)
        ok = res.returncode == 2 and res.stderr.strip() and not res.stdout
        print(("ok   " if ok else "FAIL ") + " ".join(args),
              f"{env or ''} -> {res.returncode}: {res.stderr.strip()}")
        failures += not ok
    failures += subprocess.run([tests], cwd=run.ROOT).returncode != 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
