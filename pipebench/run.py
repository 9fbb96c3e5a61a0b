#!/usr/bin/env python3
"""Build and run the pipeline benchmark.

Usage (from the repository root):

    python3 pipebench/run.py --workload <scale-wan|exact-small|churn> \
        --seed <n> --seconds <s> --trace <0|1>

Builds `pipebench` (release, offline) into `$CARGO_TARGET_DIR`, default
`.bench_build`, then runs it with the given arguments. Build output goes
to stderr; the benchmark's stdout passes through unchanged, so its last
line is the result object. The exit code is the benchmark's, or cargo's
when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def provenance(cmd):
    """First line of `cmd`'s output, or "unknown" when it cannot run."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("pipebench: build failed", file=sys.stderr)
        return build.returncode
    env["PIPEBENCH_COMMIT"] = provenance(["git", "rev-parse", "HEAD"])
    env["PIPEBENCH_RUSTC"] = provenance(["rustc", "-V"])
    binary = os.path.join(os.path.abspath(os.path.join(ROOT, target)), "release", "pipebench")
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
