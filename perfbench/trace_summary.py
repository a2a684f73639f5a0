#!/usr/bin/env python3
"""Per-layer self time of a perfbench trace.

    python3 perfbench/trace_summary.py <trace.tsv>

A trace is the span file the driver writes with --trace 1: one span per
line, tab-separated `id parent request start_ns end_ns name`, where the
name is `<layer>.<call>` (query, api, core, solver, graph, wal, server,
or harness for the benchmark's own request/batch/commit spans). A span's
self time is its duration minus the part of its interval that its child
spans cover. Prints self time per layer and per span name.
"""

import collections
import sys


def load(path):
    spans = []
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                continue
            sid, parent, request, start, end, name = \
                line.rstrip("\n").split("\t")
            spans.append((int(sid), int(parent), int(request), int(start),
                          int(end), name))
    return spans


def covered_ns(start, end, intervals):
    """Length of [start, end) covered by the union of `intervals`."""
    total = 0
    cursor = start
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            total += e - s
            cursor = e
    return total


def self_ns_by_name(spans):
    children = collections.defaultdict(list)
    for sid, parent, _, start, end, _ in spans:
        if parent:
            children[parent].append((start, end))
    by_name = collections.defaultdict(int)
    for sid, _, _, start, end, name in spans:
        by_name[name] += (end - start) - covered_ns(start, end,
                                                    children.get(sid, ()))
    return by_name


def self_ms_by_layer(spans):
    layers = collections.defaultdict(float)
    for name, ns in self_ns_by_name(spans).items():
        layers[name.split(".", 1)[0]] += ns / 1e6
    return dict(layers)


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    spans = load(sys.argv[1])
    counts = collections.Counter(s[5] for s in spans)
    print(f"{len(spans)} spans")
    for layer, ms in sorted(self_ms_by_layer(spans).items(),
                            key=lambda kv: -kv[1]):
        print(f"{layer:10s} {ms:12.3f} ms self")
    for name, ns in sorted(self_ns_by_name(spans).items(),
                           key=lambda kv: -kv[1]):
        print(f"  {name:24s} {ns / 1e6:12.3f} ms self  {counts[name]:8d} spans")


if __name__ == "__main__":
    main()
