#!/usr/bin/env python3
"""Build and run the perfledger benchmark.

Run from the repository root:

    python3 perfledger/run.py --workload cold-pass --seed 1 --seconds 10 --trace 0

The Go program is built from source into .bench_build/perfledger with a
build cache inside that directory, so nothing is written outside the
checkout. Build output goes to standard error; the program's standard
output is passed through unchanged, its last line being the JSON result.
The exit code is the program's, or 1 when the build fails (as it does in
a directory holding only the benchmark, without the module it measures).
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build", "perfledger")
    os.makedirs(out, exist_ok=True)
    exe = os.path.join(out, "perfledger")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "TMPDIR": os.path.join(out, "tmp"),
        "GOFLAGS": "-mod=mod",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOENV": "off",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["TMPDIR"], exist_ok=True)
    build = subprocess.run(["go", "build", "-trimpath", "-buildvcs=false", "-o", exe, "."], cwd=src, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfledger: build failed", file=sys.stderr)
        return 1
    return subprocess.run([exe] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
