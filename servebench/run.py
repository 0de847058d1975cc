#!/usr/bin/env python3
"""Build the serving benchmark from source and run one workload.

Run from the root of a source checkout:

    python3 servebench/run.py --workload point_read --seed 1 --seconds 10 --trace 0

Arguments go to servebench.exe unchanged; its last line of output is
the JSON result.  Build output goes to stderr.  Exits non-zero, without
a result, when the checkout holds no sources to build.
"""

import os
import subprocess
import sys


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("servebench", "dune"))):
        print("servebench: run from the root of a source checkout "
              "(dune-project, lib/ and servebench/ are needed)", file=sys.stderr)
        return 2
    # the dune cache would write outside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./servebench/servebench.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("servebench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join("_build", "default", "servebench", "servebench.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
