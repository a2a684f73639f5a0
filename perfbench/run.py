#!/usr/bin/env python3
"""Repository benchmark: builds the ecrpq library from source and runs one
workload of the perfbench driver.

    python3 perfbench/run.py --workload serve_rpq --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. The first run configures and builds
perfbench/ (and the library under src/) into the build directory
(CARGO_TARGET_DIR when set, else .bench_build); later runs only re-check
that build. Durable data dirs and trace files are written under that
directory and removed again.

The driver binary prints one line per metric and a RESULT line; this
script keeps every line for the reader and prints, as its last line, one
JSON object with the keys correct/attempted/failed/metrics. With --trace 0
the metrics are the end_to_end list of BENCHMARK.json, with --trace 1 the
per_layer list (the per-layer self times come from trace_summary.py).
For one workload, setup_s (process start to the first timed operation)
is the median over the measured process and SETUP_RUNS - 1 more that
stop after setup; --workload all reports each workload's single process.

--workload all runs the three workloads in turn and prints every metric
each of them measures (its own names, such as read_p50_ms or recovery_s,
with sample counts and tail percentiles); its JSON line keys the metrics
as <workload>/<name>. WORKLOADS.md describes the workloads.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, HERE)
import trace_summary  # noqa: E402

WORKLOADS = ["serve_rpq", "ecrpq_batch", "ingest_recover"]
RUN_LIMIT_S = 175  # every run must end within 180 s
BUILD_LIMIT_S = 840  # the first run of a checkout may take 900 s
# setup_s is the median over this many processes: the measured run and
# SETUP_RUNS - 1 more that stop after their setup.
SETUP_RUNS = 5


def fail(message):
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.abspath(os.path.join(ROOT, target))
    if os.path.commonpath([path, ROOT]) != ROOT:
        fail(f"build directory {path} is outside the checkout")
    return os.path.join(path, "perfbench")


def build(out_dir, deadline):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("library sources (src/) not found in this checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        left = deadline - time.monotonic()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=max(1.0, left))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    binary = os.path.join(out_dir, "perfbench")
    if not os.path.isfile(binary):
        fail("build produced no perfbench binary")
    return binary


def contract_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    return [(m["name"], m["unit"]) for m in entries]


def run_workload(binary, out_dir, workload, args, time_left,
                 setup_only=False):
    """Runs one workload; returns (human-readable lines, RESULT dict)."""
    tag = f"{workload}-{args.seed}-{os.getpid()}"
    data_dir = os.path.join(out_dir, "data", tag)
    trace_path = os.path.join(out_dir, "traces", tag + ".tsv")
    shutil.rmtree(data_dir, ignore_errors=True)
    os.makedirs(data_dir)
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir, "--trace-out", trace_path,
           "--setup-only", "1" if setup_only else "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, time_left))
    except subprocess.TimeoutExpired:
        fail(f"{workload} run timed out")
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    lines, result = [], None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            lines.append(line)
    if proc.returncode != 0 or result is None:
        fail(f"{workload}: benchmark binary exited with {proc.returncode}")
    if args.trace:
        spans = trace_summary.load(trace_path)
        for layer, self_ms in sorted(trace_summary.self_ms_by_layer(spans)
                                     .items()):
            result["metrics"][f"{layer}.self_ms"] = {"value": self_ms,
                                                     "unit": "ms"}
            lines.append(f"metric {layer}.self_ms = {self_ms:.4f} ms  "
                         f"[self time over {len(spans)} spans]")
        os.remove(trace_path)
    return lines, result


def setup_only_seconds(binary, out_dir, args, run_start):
    """setup_s of one more process that stops after its setup."""
    _, result = run_workload(
        binary, out_dir, args.workload, args,
        RUN_LIMIT_S - 5 - (time.monotonic() - run_start), setup_only=True)
    return result["metrics"]["setup_s"]["value"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    started = time.monotonic()
    out_dir = build_dir()
    first_build = not os.path.exists(os.path.join(out_dir, "perfbench"))
    binary = build(out_dir, started + (BUILD_LIMIT_S if first_build
                                       else RUN_LIMIT_S / 2))
    # The run budget starts after the build: a first-run build may use
    # most of its own allowance.
    run_start = time.monotonic() if first_build else started

    if args.workload == "all":
        merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            print(f"== {workload}")
            lines, result = run_workload(binary, out_dir, workload, args,
                                         RUN_LIMIT_S * 3)
            print("\n".join(lines))
            merged["correct"] &= bool(result["correct"])
            merged["attempted"] += int(result["attempted"])
            merged["failed"] += int(result["failed"])
            for name, metric in result["metrics"].items():
                merged["metrics"][f"{workload}/{name}"] = metric
        print(json.dumps(merged))
        return

    lines, result = run_workload(
        binary, out_dir, args.workload, args,
        RUN_LIMIT_S - 5 - (time.monotonic() - run_start))
    print("\n".join(lines))
    metrics = result["metrics"]
    if not args.trace:
        setups = [metrics["setup_s"]["value"]]
        setups += [setup_only_seconds(binary, out_dir, args, run_start)
                   for _ in range(SETUP_RUNS - 1)]
        metrics["setup_s"]["value"] = statistics.median(setups)
        print(f"metric setup_s = {metrics['setup_s']['value']:.6f} s  "
              f"[median of {len(setups)} processes, each from its start to "
              f"its first timed operation: "
              + ", ".join(f"{v:.4f}" for v in setups) + "]")
    wanted = contract_metrics(args.trace)
    if args.trace:
        for name, unit in wanted:
            metrics.setdefault(name, {"value": 0.0, "unit": unit})
    out = {}
    for name, unit in wanted:
        if name not in metrics:
            fail(f"metric {name} missing from the run")
        if metrics[name]["unit"] != unit:
            fail(f"metric {name} has unit {metrics[name]['unit']}, "
                 f"BENCHMARK.json says {unit}")
        out[name] = {"value": metrics[name]["value"], "unit": unit}
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": out}))


if __name__ == "__main__":
    main()
