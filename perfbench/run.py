#!/usr/bin/env python3
"""Benchmark of the containment engine: one workload, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds `imin-serve` and the `perfbench`
binary from source (release profile, into $CARGO_TARGET_DIR, default
`.bench_build`), then runs `perfbench`, which starts `imin-serve` on a
loopback ephemeral port, drives the workload from two connections, checks
the answers, and prints one JSON result object as its last stdout line.
Workloads and metrics are listed in BENCHMARK.json; which layer metric
should move which end-to-end metric is in perfbench/metric_map.json.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

WORKLOADS = ("vertex-distinct", "families", "sketch-hot", "restart")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(top) for f in files)
        for path in sorted(paths):
            if "/target/" in path:
                continue
            digest.update(path.encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return "src-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    for needed in ("Cargo.toml", "crates/engine/Cargo.toml", "perfbench/Cargo.toml"):
        if not os.path.isfile(needed):
            fail(f"{needed} not found: run from the root of a full checkout")

    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml",
             "--bins", "-p", "imin-perfbench", "-p", "imin-engine"]
    try:
        done = subprocess.run(build, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail(f"build failed: {err}")
    if done.returncode != 0:
        fail(f"build failed with code {done.returncode}")

    out_dir = os.path.join(target, "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    bench = [os.path.join(target, "release", "perfbench"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", args.trace,
              "--server", os.path.join(target, "release", "imin-serve"),
              "--out-dir", out_dir, "--commit", source_id()]
    sys.stdout.flush()
    # Its own process group, so a timeout also stops the servers it started.
    proc = subprocess.Popen(bench, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # nothing should be left; make sure
    except ProcessLookupError:
        pass
    sys.exit(code)


if __name__ == "__main__":
    main()
