#!/usr/bin/env python3
"""srra benchmark entry point.

    python3 perfbench/run.py --workload warm_hits --seed 1 --seconds 10 --trace 0

Builds the repository's srrad/srra binaries and the benchmark's own load
generator (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR (default
.bench_build), runs one workload, and prints the result document as the last
line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics of the traced in-process replay. Build and run logs go to
standard error. Exits non-zero, printing no result, when the build or the run
fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("warm_hits", "cold_mix", "dse_sweep")
RUN_DEADLINE_S = 170  # the whole invocation, build check included


def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_dir(root):
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(root, path)


def build(root, timeout_s=850):
    """Configures (once) and builds srra_bench; returns its path or None."""
    out = build_dir(root)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "srra_bench", "-j", "4"])
    deadline = time.monotonic() + timeout_s
    for step in steps:
        try:
            done = subprocess.run(step, cwd=root, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: build step failed: {e}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(step)}", file=sys.stderr)
            return None
    binary = os.path.join(out, "srra_bench")
    return binary if os.access(binary, os.X_OK) else None


def live_members(pgid):
    """Processes of group `pgid` that are still running (zombies have ended;
    only their reaping by init is pending)."""
    live = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            live += 1
    return live


def kill_group(proc):
    """SIGKILLs srra_bench's process group and waits (up to 10 s) until every
    process of it has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return  # every process of the group has ended
    deadline = time.monotonic() + 10
    while live_members(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.05)


def run_bench(binary, root, args, extra=(), timeout_s=RUN_DEADLINE_S):
    """Runs srra_bench once; returns (result dict or None, stderr text)."""
    out = build_dir(root)
    work = os.path.join(out, "work", f"{args.workload}-{os.getpid()}")
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}", f"--work={work}"]
    if args.trace:
        os.makedirs(os.path.join(out, "trace"), exist_ok=True)
        cmd.append(f"--trace-out={os.path.join(out, 'trace', args.workload + '.spans')}")
    cmd.extend(extra)
    # Its own process group, so a run past its deadline is killed together
    # with the srrad / srra children it started.
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        kill_group(proc)
        proc.communicate()
        shutil.rmtree(work, ignore_errors=True)
        return None, f"perfbench: run exceeded {timeout_s:.0f} s\n"
    if proc.returncode != 0:
        kill_group(proc)  # a crashed srra_bench leaves no daemon behind
        shutil.rmtree(work, ignore_errors=True)
        return None, stderr + f"perfbench: srra_bench exited with {proc.returncode}\n"
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, stderr + "perfbench: no result line\n"
    return result, stderr


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv):
    args = parse_args(argv)
    start = time.monotonic()
    root = repo_root()
    binary = build(root)
    if binary is None:
        return 3
    # A first build may take minutes (the contract allows it); a no-op build
    # check counts against the run's own deadline.
    elapsed = time.monotonic() - start
    remaining = RUN_DEADLINE_S - elapsed if elapsed < 60 else RUN_DEADLINE_S
    result, log = run_bench(binary, root, args, timeout_s=remaining)
    sys.stderr.write(log)
    if result is None:
        return 4
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
