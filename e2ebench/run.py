#!/usr/bin/env python3
"""End-to-end benchmark of the emp solver and solve service.

Usage (from the repository root):

    python3 e2ebench/run.py --workload tabu_10k --seed 1 --seconds 20 --trace 0

Builds e2ebench/ (a CMake package that compiles ../src) into the directory
named by $CARGO_TARGET_DIR (default .bench_build), runs one workload, and
writes the results document, stamped with a machine fingerprint, to
.bench_results/<workload>-seed<seed>-trace<trace>.json (the Chrome trace of
a traced run lands beside it). Prints every metric as "name value unit" and,
as the last line, one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. Exits non-zero when any answer failed its check.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tabu_10k", "construct_250k", "service_mixed")
RUN_TIMEOUT_S = 170
BUILD_JOBS = 4


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build():
    """Configures once, then lets CMake rebuild whatever changed."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out, "--target", "e2ebench", "-j",
         str(BUILD_JOBS)],
        check=True, stdout=sys.stderr)
    return os.path.join(out, "e2ebench")


def results_dir():
    path = os.path.join(ROOT, ".bench_results")
    os.makedirs(path, exist_ok=True)
    return path


def source_digest():
    """sha256 over the library and benchmark sources, in path order."""
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_commit():
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def fingerprint(facts):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": facts.get("compiler", "unknown"),
        "build_type": facts.get("build_type", "unknown"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (a few hundred areas)")
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: corrupt the first answer")
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"e2ebench: build failed: {error}")
        return 3

    out_dir = results_dir()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir]
    if args.tiny:
        command.append("--tiny")
    if args.corrupt:
        command.append("--corrupt")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s")
        return 4
    if run.returncode != 0:
        log(f"e2ebench: benchmark program exited with {run.returncode}")
        return 4
    document = json.loads(run.stdout)
    document["workload"] = args.workload
    document["seed"] = args.seed
    document["seconds"] = args.seconds
    document["trace"] = args.trace
    document["fingerprint"] = fingerprint(document["facts"])
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(document, f, indent=2)
        f.write("\n")

    for reason in document["failures"]:
        log(f"e2ebench: FAILED {reason}")
    metrics = document["per_layer" if args.trace else "end_to_end"]
    for metric, entry in sorted(metrics.items()):
        print(f"{metric} {entry['value']!r} {entry['unit']}")
    print(json.dumps({
        "correct": document["correct"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": metrics,
    }))
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
