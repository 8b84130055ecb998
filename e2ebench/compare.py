#!/usr/bin/env python3
"""Compares two sets of e2ebench results documents.

Usage (from the repository root):

    python3 e2ebench/compare.py --base .bench_results/old/*.json \
        --head .bench_results/new/*.json

Each side is a list of results files written by run.py. For every
(workload, trace, metric) it prints the median of each side and the change
as a share of the base median. Refuses (exit 2) to compare results whose
machine fingerprints differ in core count, compiler or build type; the git
commit and source digest are shown, since they are what a comparison of two
versions is expected to differ in.
"""

import argparse
import json
import statistics
import sys

MACHINE_KEYS = ("nproc", "compiler", "build_type")


def load(paths):
    documents = []
    for path in paths:
        with open(path) as f:
            documents.append(json.load(f))
    return documents


def medians(documents):
    """{(workload, trace, metric): (median, unit)}"""
    values = {}
    for doc in documents:
        section = doc["per_layer"] if doc["trace"] else doc["end_to_end"]
        for name, entry in section.items():
            key = (doc["workload"], doc["trace"], name)
            values.setdefault(key, ([], entry["unit"]))[0].append(
                entry["value"])
    return {k: (statistics.median(v), unit) for k, (v, unit) in
            values.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args()
    base, head = load(args.base), load(args.head)

    machines = {tuple(d["fingerprint"][k] for k in MACHINE_KEYS)
                for d in base + head}
    if len(machines) != 1:
        print("refusing to compare: machine fingerprints differ "
              f"({', '.join(MACHINE_KEYS)}): {sorted(machines)}",
              file=sys.stderr)
        return 2
    for label, docs in (("base", base), ("head", head)):
        commits = sorted({d["fingerprint"]["git_commit"] for d in docs})
        sources = sorted({d["fingerprint"]["source_sha256"][:12]
                          for d in docs})
        print(f"{label}: commit {', '.join(commits)} "
              f"source {', '.join(sources)}")

    base_m, head_m = medians(base), medians(head)
    print(f"{'workload':16s} {'t':1s} {'metric':32s} {'base':>14s} "
          f"{'head':>14s} {'change':>8s} unit")
    for key in sorted(set(base_m) & set(head_m)):
        (b, unit), (h, _) = base_m[key], head_m[key]
        change = f"{(h - b) / b:+.1%}" if b else "-"
        print(f"{key[0]:16s} {key[1]:1d} {key[2]:32s} {b:14.6g} {h:14.6g} "
              f"{change:>8s} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
