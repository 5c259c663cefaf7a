#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <flat-biomed|ml-scale50k|serve-mixed> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package (perfbench/Cargo.toml) in release mode
against the repository's crates, then runs it with the same arguments
plus provenance (rustc version, git revision when there is one). The
benchmark's standard output passes through unchanged; its last line is
the JSON result. Build output goes to standard error. The exit code is
the benchmark's, or the build's when the build fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
# A run must end well inside three minutes; a hung program is a failure.
RUN_TIMEOUT_S = 170


def capture(cmd):
    """First line of a command's output, or 'unknown' when it fails."""
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts
    that are not git repositories."""
    digest = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "crates", "vendor", os.path.join("perfbench", "src")]
    for root in roots:
        paths = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(root) for f in files
        )
        for path in sorted(paths):
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(target, "release", "kraftwerk-perfbench")
    revision = capture(["git", "rev-parse", "HEAD"]) if os.path.exists(".git") else source_digest()
    cmd = [binary, *sys.argv[1:], "--rustc", capture(["rustc", "-V"]), "--revision", revision]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
