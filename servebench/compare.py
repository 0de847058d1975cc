#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare two of them.

  python3 servebench/compare.py collect OUT BASE [CHANGE]
                                [--workloads a,b] [--seeds 1-10]
                                [--seconds N] [--trace 0|1]
      BASE and CHANGE are source checkouts that hold servebench/.
      With BASE alone: run its servebench/run.py once per workload and
      seed; the output of each run goes to OUT/<workload>/seed-<n>.txt.
      With CHANGE too: for each workload and seed run both back to
      back, BASE first on every other seed and CHANGE first on the
      rest, into OUT/base/... and OUT/change/...

  python3 servebench/compare.py spread OUT
      Per workload and end-to-end metric: median, interquartile range
      (IQR) and IQR as a share of the median, against the metric's
      bound from BENCHMARK.json.

  python3 servebench/compare.py compare BASE CHANGE
      Per workload and end-to-end metric: each side's median and IQR,
      how many seed pairs each side won (ties count for neither), and
      a verdict:
        worse      the change's median is worse than the base's by more
                   than the metric's bound
        better     the change wins at least 9 of 10 pairs and the
                   medians differ by more than the base's IQR
        unresolved either side's IQR exceeds the bound, and not every
                   run of the change beats every run of the base
        no change  otherwise
      Exits 1 when any verdict is "worse".

Quartiles are Python's statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json")


def load_spec():
    with open(SPEC) as f:
        spec = json.load(f)
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_one(checkout, out_dir, w, s, args):
    cmd = [sys.executable, os.path.join("servebench", "run.py"), "--workload", w, "--seed", str(s),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    t0 = time.time()
    out = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    took = time.time() - t0
    os.makedirs(os.path.join(out_dir, w), exist_ok=True)
    with open(os.path.join(out_dir, w, "seed-%d.txt" % s), "w") as f:
        f.write(out.stdout)
    last = out.stdout.strip().splitlines()[-1:] or [""]
    print("%-8s %-14s seed %-3d exit %d %5.1fs  %s" % (
        os.path.basename(out_dir), w, s, out.returncode, took, last[0][:70]), flush=True)


def collect(args):
    spec, _ = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    for w in workloads:
        for i, s in enumerate(parse_seeds(args.seeds)):
            if args.change is None:
                run_one(args.base, args.out, w, s, args)
                continue
            sides = [(args.base, "base"), (args.change, "change")]
            for checkout, name in (sides if i % 2 == 0 else sides[::-1]):
                run_one(checkout, os.path.join(args.out, name), w, s, args)


def read_runs(root):
    """{workload: {seed: result}} from OUT/<workload>/seed-<n>.txt."""
    runs = {}
    for w in sorted(os.listdir(root)):
        d = os.path.join(root, w)
        if not os.path.isdir(d):
            continue
        for name in sorted(os.listdir(d)):
            if not (name.startswith("seed-") and name.endswith(".txt")):
                continue
            with open(os.path.join(d, name)) as f:
                lines = f.read().strip().splitlines()
            try:
                res = json.loads(lines[-1])
            except (IndexError, ValueError):
                continue
            runs.setdefault(w, {})[int(name[5:-4])] = res
    return runs


def values(by_seed, metric):
    return {s: r["metrics"][metric]["value"] for s, r in by_seed.items()
            if metric in r.get("metrics", {})}


def median_iqr(xs):
    if len(xs) < 2:
        return (xs[0] if xs else float("nan")), 0.0
    q = statistics.quantiles(xs, n=4)
    return statistics.median(xs), q[2] - q[0]


def share(num, den):
    return num / den if den else float("inf")


def spread(args):
    _, metrics = load_spec()
    runs = read_runs(args.out)
    worst = 0.0
    print("%-14s %-26s %5s %14s %12s %8s %6s" % ("workload", "metric", "runs", "median", "IQR", "IQR/med", "bound"))
    for w, by_seed in runs.items():
        bad = [s for s, r in by_seed.items() if not r.get("correct") or r.get("failed")]
        for name, m in metrics.items():
            xs = list(values(by_seed, name).values())
            if not xs:
                continue
            med, iqr = median_iqr(xs)
            rel = share(iqr, abs(med))
            mark = "" if rel <= m["bound"] / 3 else (" > bound/3" if rel <= m["bound"] else " > BOUND")
            if name != "setup_s":
                worst = max(worst, rel / m["bound"])
            print("%-14s %-26s %5d %14.4f %12.4f %8.3f %6.2f%s" % (w, name, len(xs), med, iqr, rel, m["bound"], mark))
        if bad:
            print("%-14s runs with failures: seeds %s" % (w, bad))
    print("largest spread, as a share of its bound (setup_s excluded): %.2f" % worst)


def verdict(a, b, m):
    """a, b: {seed: value}.  Returns (verdict, relative change, wins)."""
    xa, xb = list(a.values()), list(b.values())
    ma, ia = median_iqr(xa)
    mb, ib = median_iqr(xb)
    lower = m["better"] == "lower"
    worse_by = share(mb - ma, abs(ma)) if lower else share(ma - mb, abs(ma))
    pairs = [(a[s], b[s]) for s in a if s in b]
    b_wins = sum(1 for x, y in pairs if (y < x if lower else y > x))
    a_wins = sum(1 for x, y in pairs if (x < y if lower else x > y))
    wins = "%d/%d/%d" % (b_wins, a_wins, len(pairs))
    if worse_by > m["bound"]:
        return "worse", worse_by, wins
    if pairs and b_wins >= 0.9 * len(pairs) and abs(mb - ma) > ia:
        return "better", worse_by, wins
    all_better = all((y < x if lower else y > x) for x in xa for y in xb)
    if max(share(ia, abs(ma)), share(ib, abs(mb))) > m["bound"] and not all_better:
        return "unresolved", worse_by, wins
    return "no change", worse_by, wins


def compare(args):
    _, metrics = load_spec()
    base, change = read_runs(args.base), read_runs(args.change)
    any_worse = False
    summary = []
    print("%-14s %-26s %12s %10s %12s %10s %8s %9s  %s" % (
        "workload", "metric", "base med", "base IQR", "change med", "chg IQR", "worse by",
        "wins c/b/n", "verdict"))
    for w in sorted(set(base) & set(change)):
        row = []
        for name, m in metrics.items():
            a, b = values(base[w], name), values(change[w], name)
            if not a or not b:
                continue
            v, worse_by, wins = verdict(a, b, m)
            any_worse |= v == "worse"
            ma, ia = median_iqr(list(a.values()))
            mb, ib = median_iqr(list(b.values()))
            print("%-14s %-26s %12.4f %10.4f %12.4f %10.4f %+7.1f%% %9s  %s" % (
                w, name, ma, ia, mb, ib, 100 * worse_by, wins, v))
            row.append("%s=%s" % (name, v))
        summary.append("%-14s %s" % (w, ", ".join(row)))
    print()
    for line in summary:
        print(line)
    return 1 if any_worse else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out")
    c.add_argument("base")
    c.add_argument("change", nargs="?")
    c.add_argument("--workloads", default="")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--seconds", type=int, default=None)
    c.add_argument("--trace", type=int, default=0)
    s = sub.add_parser("spread")
    s.add_argument("out")
    k = sub.add_parser("compare")
    k.add_argument("base")
    k.add_argument("change")
    args = p.parse_args()
    if args.cmd == "collect":
        collect(args)
        return 0
    if args.cmd == "spread":
        spread(args)
        return 0
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
