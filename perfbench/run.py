#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the repository root.

    python3 perfbench/run.py --workload paper-dense --seed 1 --seconds 25 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that builds
against the repository's sources through a replace directive, so it needs
the full source tree next to it. Build outputs, the Go build cache and the
run's snapshots stay under .bench_build/ in the repository root. All
arguments are passed to the benchmark binary; its exit code is returned.
"""

import os
import subprocess
import sys


def main() -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isdir(os.path.join(root, "internal")):
        print("perfbench: the repository sources are missing next to perfbench/; nothing to build", file=sys.stderr)
        return 2

    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOENV": "off",
        # Go's local telemetry counters live under the user config dir.
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
    })
    for d in (env["GOCACHE"], env["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)

    binary = os.path.join(build, "perfbench-bin")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    workdir = os.path.join(build, "perfbench")
    cmd = [binary, "--root", root, "--workdir", workdir] + sys.argv[1:]
    return subprocess.run(cmd, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
