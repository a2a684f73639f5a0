#!/usr/bin/env python3
"""A/B benchmark two commits with alternating pairs of runs.

    scripts/ab_bench.py BASE CHANGE --perfbench ingest_recover \\
        --seconds 18 --pairs 10 --scratch /tmp/ab
    scripts/ab_bench.py BASE CHANGE --gbench bench_parallel_scaling \\
        --filter 'large/JoinPipeline/threads/1' --pairs 6 --scratch /tmp/ab
    scripts/ab_bench.py BASE CHANGE --perfbench serve_rpq \\
        --setup-only 40 --scratch /tmp/ab

BASE and CHANGE are git revisions, or WORKTREE for the files of the
current checkout including uncommitted changes. Each side is unpacked
under --scratch (`git archive` of a revision; for WORKTREE a copy of the
tracked and untracked, not ignored files), which leaves the repository
itself alone, and built there into a build directory of its own:
perfbench/run.py builds into the directory CARGO_TARGET_DIR names, and a
Google Benchmark binary is built by CMake in Release. A revision's
directory is reused by later runs; a WORKTREE copy is refreshed.

Pair i runs both sides back to back, BASE first in even pairs and CHANGE
first in odd ones, so drift in the machine's load hits both sides alike.
A perfbench pair runs the workload at seed --seed-start + i on both
sides and reads every metric the perfbench binary prints (run.py's JSON
line wins where both give one, as for the setup_s median); a pair that
is not `correct` or has failed operations is reported. A Google Benchmark pair
runs the binary with --benchmark_filter and reads each case's real time.

--setup-only N replaces the pairs of full runs with N pairs of perfbench
processes that stop after their setup (the processes run.py adds to a
run for its setup_s median), alternated the same way, at seed
--seed-start + i. A setup-only process takes well under a second, so
enough pairs to judge setup_s fit where ten full pairs cannot: a full
run gives one setup_s median of five processes per 18 s.

The report gives, per metric, each side's median, quartiles and IQR, the
change of the medians, and the number of pairs the change won. Higher is
better for the metrics BENCHMARK.json marks so and for rates (perfbench
unit 1/s), lower for every other. Nothing here needs the network, and
nothing under perfbench/ is edited.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".ab_build"
METRIC_LINE = re.compile(r"^metric (\S+) = ([-+0-9.eE]+|nan|inf) (\S*)")
HIGHER = set()  # rates seen in perfbench metric lines


def log(message):
    print(f"ab_bench: {message}", file=sys.stderr, flush=True)


def run(cmd, cwd=None, env=None, check=True):
    proc = subprocess.run(cmd, cwd=cwd, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if check and proc.returncode != 0:
        out = proc.stdout[-4000:] if proc.stdout else ""
        sys.exit(f"ab_bench: {' '.join(cmd)} failed ({proc.returncode})\n"
                 f"{out}")
    return proc


def git(*args):
    return run(["git", "-C", ROOT, *args]).stdout.strip()


def checkout(rev, label, scratch):
    """Materializes `rev` under `scratch`; returns the directory."""
    if rev == "WORKTREE":
        target = os.path.join(scratch, f"{label}-worktree")
        if os.path.isdir(target):  # a fresh copy; the build dir is kept
            for entry in os.listdir(target):
                if entry != BUILD_DIR:
                    path = os.path.join(target, entry)
                    if os.path.isdir(path):
                        shutil.rmtree(path)
                    else:
                        os.remove(path)
        files = git("ls-files", "-co", "--exclude-standard", "-z").split("\0")
        for name in filter(None, files):
            src = os.path.join(ROOT, name)
            if not os.path.isfile(src):
                continue  # listed but deleted in the working tree
            dst = os.path.join(target, name)
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            shutil.copy2(src, dst)
        return target
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    target = os.path.join(scratch, f"{label}-{sha[:12]}")
    if os.path.isdir(target):
        log(f"reusing {target}")
        return target
    os.makedirs(target)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", target], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        sys.exit(f"ab_bench: git archive {sha} failed")
    return target


def side_env():
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = BUILD_DIR
    return env


def build_gbench(directory, binary):
    build = os.path.join(directory, BUILD_DIR, "gbench")
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        run(["cmake", "-S", directory, "-B", build,
             "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run(["cmake", "--build", build, "-j", jobs, "--target", binary])
    return os.path.join(build, binary)


def perfbench_once(directory, args, seed):
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.perfbench,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = run(cmd, cwd=directory, env=side_env(), check=False)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if proc.returncode != 0 or not lines:
        sys.exit(f"ab_bench: perfbench run failed in {directory}\n"
                 f"{proc.stdout[-4000:]}")
    result = json.loads(lines[-1])
    # Every metric line the perfbench binary printed, then the JSON
    # line's metrics (run.py's own values, such as the setup_s median,
    # win).
    metrics = {}
    for line in proc.stdout.splitlines():
        match = METRIC_LINE.match(line)
        if match:
            metrics[match.group(1)] = float(match.group(2))
            if match.group(3) == "1/s":
                HIGHER.add(match.group(1))
    metrics.update({name: m["value"]
                    for name, m in result["metrics"].items()})
    ok = result.get("correct") is True and result.get("failed") == 0
    return metrics, ok


def setup_only_once(directory, args, seed):
    """The metrics of one perfbench process that stops after its setup."""
    # run.py builds into <build dir>/perfbench; the binary is in there.
    out_dir = os.path.join(directory, BUILD_DIR, "perfbench")
    scratch = os.path.join(out_dir, "ab-setup-only")
    data_dir = os.path.join(scratch, "data")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(data_dir)
    cmd = [os.path.join(out_dir, "perfbench"),
           "--workload", args.perfbench, "--seed", str(seed),
           "--seconds", "1", "--trace", "0", "--data-dir", data_dir,
           "--trace-out", os.path.join(scratch, "trace.tsv"),
           "--setup-only", "1"]
    try:
        proc = run(cmd, cwd=directory, check=False)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    results = [l for l in proc.stdout.splitlines() if l.startswith("RESULT ")]
    if proc.returncode != 0 or not results:
        sys.exit(f"ab_bench: setup-only run failed in {directory}\n"
                 f"{proc.stdout[-4000:]}")
    result = json.loads(results[-1][len("RESULT "):])
    return {name: m["value"] for name, m in result["metrics"].items()}, True


def gbench_once(binary, directory, args):
    cmd = [binary, f"--benchmark_filter={args.filter}",
           "--benchmark_format=json"]
    if args.min_time:
        cmd.append(f"--benchmark_min_time={args.min_time}")
    proc = subprocess.run(cmd, cwd=directory, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    if proc.returncode != 0:
        sys.exit(f"ab_bench: {binary} failed ({proc.returncode})")
    data = json.loads(proc.stdout[proc.stdout.index("{"):])
    scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}
    metrics = {}
    for case in data.get("benchmarks", []):
        if case.get("run_type", "iteration") != "iteration":
            continue
        metrics[case["name"] + " [ms]"] = (case["real_time"] *
                                          scale[case["time_unit"]])
    if not metrics:
        sys.exit(f"ab_bench: filter {args.filter!r} matched no case")
    return metrics, True


def higher_is_better(directory):
    better = set(HIGHER)
    path = os.path.join(directory, "BENCHMARK.json")
    if os.path.exists(path):
        with open(path) as f:
            spec = json.load(f)
        for group in ("end_to_end", "per_layer"):
            for metric in spec.get(group, []):
                if metric.get("better") == "higher":
                    better.add(metric["name"])
    return better


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(samples, higher, failures, pairs):
    names = sorted(set(samples["base"]) & set(samples["change"]))
    width = max([len(n) for n in names] + [6])
    print(f"{'metric':<{width}}  {'side':<6} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'iqr':>12}   change   wins")
    for name in names:
        base = samples["base"][name]
        change = samples["change"][name]
        n = min(len(base), len(change))
        up = name in higher
        wins = sum(1 for b, c in zip(base, change)
                   if (c > b if up else c < b))
        row = {}
        for side, values in (("base", base), ("change", change)):
            q1, med, q3 = quartiles(values)
            row[side] = {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}
        rel = (row["change"]["median"] / row["base"]["median"] - 1
               if row["base"]["median"] else float("nan"))
        for side in ("base", "change"):
            r = row[side]
            tail = (f"  {rel:+7.1%}  {wins:>2}/{n}"
                    f"{' (higher is better)' if up else ''}"
                    if side == "change" else "")
            print(f"{name if side == 'base' else '':<{width}}  {side:<6} "
                  f"{r['median']:>12.4g} {r['q1']:>12.4g} {r['q3']:>12.4g} "
                  f"{r['iqr']:>12.4g}{tail}")
    for side, bad in failures.items():
        if bad:
            print(f"{side}: pairs {bad} were not correct or had failed "
                  "operations")
    print(f"{pairs} pairs")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--scratch", required=True,
                        help="directory for the checkouts and builds")
    parser.add_argument("--pairs", type=int, default=10)
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--perfbench", metavar="WORKLOAD")
    what.add_argument("--gbench", metavar="BINARY")
    parser.add_argument("--seconds", type=int, default=18)
    parser.add_argument("--seed-start", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--filter", default=".")
    parser.add_argument("--min-time", default="")
    parser.add_argument("--setup-only", type=int, default=0, metavar="N",
                        help="with --perfbench: N pairs of setup-only "
                             "processes instead of --pairs full runs")
    args = parser.parse_args()
    if args.setup_only and not args.perfbench:
        parser.error("--setup-only needs --perfbench")
    pairs = args.setup_only or args.pairs

    scratch = os.path.abspath(args.scratch)
    os.makedirs(scratch, exist_ok=True)
    sides = {label: checkout(rev, label, scratch)
             for label, rev in (("base", args.base), ("change", args.change))}
    runner = {}
    for label, directory in sides.items():
        log(f"building {label} in {directory}")
        if args.perfbench:
            # The first run of a checkout builds it; its numbers are
            # discarded.
            perfbench_once(directory, argparse.Namespace(
                perfbench=args.perfbench, seconds=1, trace=0),
                args.seed_start)
            once = setup_only_once if args.setup_only else perfbench_once
            runner[label] = (lambda d, f: lambda i: f(
                d, args, args.seed_start + i))(directory, once)
        else:
            binary = build_gbench(directory, args.gbench)
            runner[label] = (lambda b, d: lambda i: gbench_once(
                b, d, args))(binary, directory)
    samples = {"base": {}, "change": {}}
    failures = {"base": [], "change": []}
    for i in range(pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for label in order:
            metrics, ok = runner[label](i)
            if not ok:
                failures[label].append(i)
            for name, value in metrics.items():
                samples[label].setdefault(name, []).append(value)
        log(f"pair {i + 1}/{pairs} done")
    report(samples, higher_is_better(sides["change"]), failures, pairs)

if __name__ == "__main__":
    main()
