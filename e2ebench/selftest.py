#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark, run at tiny sizes.

Usage (from the repository root):  python3 e2ebench/selftest.py

1. A tiny pass of each workload, untraced and traced, emits exactly the
   metrics BENCHMARK.json names, each with its unit, and passes its checks.
2. A deliberately corrupted answer on each workload is counted as a failure
   and makes the command exit non-zero.
3. Two different workload seeds give different instance digests but the
   same metric set.
Exits non-zero when any check fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY_SECONDS = "1"


def run(workload, seed, trace, *extra):
    """Runs one tiny pass; returns (exit code, result line, results doc)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", TINY_SECONDS, "--trace",
         str(trace), "--tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    path = os.path.join(ROOT, ".bench_results",
                        f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as f:
        document = json.load(f)
    return proc.returncode, result, document


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            problems.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, result, _ = run(workload, 1, trace)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(code == 0 and result["correct"] and result["failed"] == 0,
                  f"{workload} trace={trace}: tiny pass is correct")
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"},
                  f"{workload} trace={trace}: result line has exactly the "
                  "four result keys")
            check(units == expected[trace],
                  f"{workload} trace={trace}: emits every BENCHMARK.json "
                  "metric with its unit")

        code, result, _ = run(workload, 1, 0, "--corrupt")
        check(code != 0 and not result["correct"] and result["failed"] >= 1,
              f"{workload}: a corrupted answer is counted as a failure")

    _, first, doc_a = run("tabu_10k", 1, 0)
    _, second, doc_b = run("tabu_10k", 2, 0)
    check(doc_a["facts"]["instance_digests"] !=
          doc_b["facts"]["instance_digests"],
          "tabu_10k: seeds 1 and 2 give different instance digests")
    check(set(first["metrics"]) == set(second["metrics"]),
          "tabu_10k: seeds 1 and 2 give the same metric set")

    print(f"{len(problems)} self-test failure(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
