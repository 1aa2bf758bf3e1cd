#!/usr/bin/env python3
"""Self-test of the srra benchmark (separate from the timed runs).

    python3 perfbench/selftest.py [--seed N]

Builds like run.py, then checks:

1. contract  -- every workload prints exactly BENCHMARK.json's end-to-end
                metrics (--trace 0) and per-layer metrics (--trace 1), with
                all answer checks passing and no failed operation;
2. frontier  -- for dse_sweep's seeded spaces, `srra pareto --prune=stats`
                has the same registers-vs-cycles frontier points as
                `--prune=off` on the same space;
3. faults    -- a daemon under a server.write fault plan and a generator
                under a client.read plan: failed operations and client
                retries are counted, no answer is wrong, and the generator
                finishes its run.

Exits non-zero on the first failed check.
"""

import argparse
import csv
import io
import json
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build/run helpers)


def fail(message):
    print(f"selftest: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def bench_args(workload, seed, seconds, trace):
    return argparse.Namespace(workload=workload, seed=seed, seconds=seconds, trace=trace)


def check_contract(binary, root, seed):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in (w["name"] for w in spec["workloads"]):
            result, log = run.run_bench(binary, root, bench_args(workload, seed, 2, trace),
                                        extra=["--setups=1"])
            if result is None:
                fail(f"{workload} --trace {trace} printed no result:\n{log}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                fail(f"{workload} --trace {trace}: metrics {sorted(set(got) ^ set(want))} "
                     "differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{workload} --trace {trace}: {result['attempted']} attempted, "
                     f"{result['failed']} failed, correct={result['correct']}:\n{log}")
            if trace == 0 and any(m["value"] <= 0 for m in result["metrics"].values()):
                fail(f"{workload}: an end-to-end metric is not positive: {result['metrics']}")
            print(f"selftest: contract {workload} --trace {trace}: ok")


def frontier_points(output):
    # Drop the --prune=stats summary line; keep (kernel, registers, cycles).
    rows = csv.reader(io.StringIO(re.sub(r"\APrune: [^\n]*\n\n", "", output)))
    return sorted((r[1], int(r[6]), int(r[8])) for r in rows
                  if r and r[0] == "registers_vs_cycles")


def check_frontier(binary, root, seed):
    srra = os.path.join(run.build_dir(root), "srra", "srra")
    spaces = subprocess.run([binary, "--workload=dse_sweep", f"--seed={seed}",
                             "--list-dse-spaces=1"], capture_output=True, text=True, check=True)
    for line in spaces.stdout.split("\n"):
        if not line.strip():
            continue
        tiles, unroll = line.split()
        base = [srra, "pareto", "--kernel=all", "--algos=paper", "--interchange",
                f"--tiles={tiles}", f"--unroll={unroll}", "--budgets=8:128", "--jobs=4",
                "--format=csv"]
        pruned = subprocess.run(base + ["--prune=stats"], capture_output=True, text=True,
                                check=True).stdout
        full = subprocess.run(base + ["--prune=off"], capture_output=True, text=True,
                              check=True).stdout
        a, b = frontier_points(pruned), frontier_points(full)
        if not a or a != b:
            fail(f"pruned frontier differs from --prune=off (tiles {tiles}, unroll {unroll})")
        print(f"selftest: frontier tiles={tiles} unroll={unroll}: {len(a)} points equal")


def check_faults(binary, root, seed):
    # Torn and stalled daemon writes (a stall outlives the client deadline)
    # plus failing client reads.
    extra = ["--setups=1", "--io-timeout-ms=300",
             "--daemon-fault-plan=seed=3;server.write=torn@n=97,delay=700@n=389",
             "--client-fault-plan=seed=5;client.read=eio@n=151"]
    result, log = run.run_bench(binary, root, bench_args("warm_hits", seed, 3, 0), extra=extra)
    if result is None:
        fail(f"the generator did not survive the fault plan:\n{log}")
    retries = re.search(r"(\d+) client retries", log)
    if retries is None or int(retries.group(1)) == 0:
        fail(f"no client retries counted under the fault plan:\n{log}")
    if result["failed"] == 0:
        fail(f"no failed operation counted under the fault plan:\n{log}")
    if not result["correct"]:
        fail(f"a fault produced a wrong answer:\n{log}")
    print(f"selftest: faults: {result['attempted']} attempted, {result['failed']} failed, "
          f"{retries.group(1)} retries: ok")


def main():
    parser = argparse.ArgumentParser(description="srra benchmark self-test")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    root = run.repo_root()
    binary = run.build(root)
    if binary is None:
        fail("build failed")
    check_frontier(binary, root, args.seed)
    check_faults(binary, root, args.seed)
    check_contract(binary, root, args.seed)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
