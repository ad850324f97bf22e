#!/usr/bin/env python3
"""Build gaplan and the benchmark from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload hot-keys --seed 1 --seconds 10 --trace 0

Workloads: hot-keys, cold-mix, overload-hanoi (see BENCHMARK.json). Both
cargo builds go to $CARGO_TARGET_DIR (default .bench_build). The last line
on stdout is the JSON result; everything before it is provenance and a
readable metric table. Exits non-zero without a result when the build or
the run fails.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run still going after this long is stopped, servers included.
RUN_TIMEOUT_S = 170
# What the source digest covers, relative to the repository root.
SOURCE_PATHS = ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "data", "examples", "perfbench"]
SKIP_DIRS = {"target", ".bench_build", ".git", "__pycache__"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        fail("no Cargo.toml at the repository root; run from a full checkout")
    manifests = [os.path.join(ROOT, "Cargo.toml"), os.path.join(HERE, "Cargo.toml")]
    for manifest, extra in zip(manifests, [["--bin", "gaplan"], []]):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest] + extra
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def source_digest():
    """SHA-256 over the path and bytes of every source file, so a result
    names the code it measured even where there is no git history."""
    digest = hashlib.sha256()
    for top in SOURCE_PATHS:
        base = os.path.join(ROOT, top)
        files = [base] if os.path.isfile(base) else []
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
        for path in files:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["hot-keys", "cold-mix", "overload-hanoi"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    build(env)

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--gaplan", os.path.join(target, "release", "gaplan"),
        "--root", ROOT,
        "--scratch", os.path.join(target, "perfbench"),
        "--git-sha", git_sha(),
        "--source-digest", source_digest(),
        "--cmdline", " ".join(["python3"] + sys.argv),
    ]
    # A session of its own, so a timeout stops the servers it started too.
    child = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if code != 0:
        fail(f"benchmark exited with {code}")


if __name__ == "__main__":
    main()
