#!/usr/bin/env python3
"""Build and run memshield's benchmark (the Go harness in perfbench/_harness).

Run from the repository root:

    python3 perfbench/run.py --workload fleet-sshd-integrated --seed 2007 --seconds 30 --trace 0

The harness is built from source on every call (the go build cache makes a
rebuild cheap). Every file the go tool writes -- build cache, temp files,
telemetry, the binary -- stays under .bench_build/ in the current directory.
A failed build exits 1 without printing a result. Everything else, including
the exit code and the JSON result on the last line of standard output, comes
from the harness itself.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_harness")
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    for var, sub in (
        ("GOCACHE", "gocache"),
        ("GOMODCACHE", "gomodcache"),
        ("GOPATH", "gopath"),
        ("GOTMPDIR", "tmp"),
        ("XDG_CONFIG_HOME", "config"),
        ("XDG_CACHE_HOME", "cache"),
    ):
        env[var] = os.path.join(build, sub)
        os.makedirs(env[var], exist_ok=True)
    # The harness needs only the standard library and the repository's own
    # module: never fetch a toolchain or a module.
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOWORK="off", GOFLAGS="")
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."], cwd=src, env=env, stdout=sys.stderr
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
