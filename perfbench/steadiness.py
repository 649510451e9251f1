#!/usr/bin/env python3
"""Steadiness report: runs the benchmark once per seed on each workload and
prints, per end-to-end metric, the median, the quartiles and the spread
(Q3 - Q1) / median, with the quartiles of statistics.quantiles(n=4).
A spread above the metric's bound in BENCHMARK.json is marked UNRESOLVED,
setup_s included.

Run from the repository root:

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads saturated,...]
                                    [--json out.json]
    python3 perfbench/steadiness.py --from out.json [--against base.json]
                                    [--repeat]

The first form builds the benchmark (cargo, release) and then calls the
binary directly, so that build output does not interleave with the runs.
The runs are interleaved: for each seed in turn, every workload once, in
an order rotated from seed to seed, so that a change in the host's speed
is spread over all workloads instead of landing on one.

The second form reports on saved results. With --against it also gives
each median's change against another saved set (e.g. a parent commit's)
and marks a change worse than the metric's bound as WORSE. With --repeat
the other set is an earlier pass of the same code: then a change beyond
the bound in either direction is marked UNRESOLVED, since the two passes
should agree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_all(bench, workloads, seeds):
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                    "--manifest-path", "perfbench/Cargo.toml"],
                   check=True, env=dict(os.environ, CARGO_TARGET_DIR=target))
    exe = os.path.join(target, "release", "perfbench")
    results = {w: [] for w in workloads}
    for i, seed in enumerate(seeds):
        for w in workloads[i % len(workloads):] + workloads[:i % len(workloads)]:
            cmd = [exe, "--workload", w, "--seed", str(seed), "--seconds",
                   str(bench["run_seconds"]), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            if p.returncode != 0:
                sys.exit(f"{' '.join(cmd)} failed:\n{p.stderr}")
            out = json.loads(p.stdout.strip().splitlines()[-1])
            run = {k: v["value"] for k, v in out["metrics"].items()}
            results[w].append(run)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v:.6g}" for k, v in run.items()), file=sys.stderr)
    return results


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--json", default="")
    ap.add_argument("--from", dest="saved", default="")
    ap.add_argument("--against", default="")
    ap.add_argument("--repeat", action="store_true")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    if args.saved:
        with open(args.saved) as f:
            results = json.load(f)
    else:
        workloads = args.workloads.split(",") if args.workloads else [
            w["name"] for w in bench["workloads"]]
        results = run_all(bench, workloads, seeds_of(args.seeds))
        if args.json:
            with open(args.json, "w") as f:
                json.dump(results, f, indent=1)
    base = {}
    if args.against:
        with open(args.against) as f:
            base = json.load(f)

    head = "| workload | metric | median | Q1 | Q3 | spread | bound |"
    rule = "|---|---|---|---|---|---|---|"
    if base:
        head += " base median | change |"
        rule += "---|---|"
    print(head + " |")
    print(rule + "---|")
    for w, runs in results.items():
        for name in runs[0]:
            vals = [r[name] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = metrics[name]["bound"]
            flags = []
            if spread > bound:
                flags.append("UNRESOLVED")
            row = (f"| {w} | {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                   f"{spread:.3f} | {bound} |")
            if base:
                old = statistics.median(r[name] for r in base[w])
                change = (med - old) / old
                worse = -change if metrics[name]["better"] == "higher" else change
                if args.repeat and abs(change) > bound:
                    flags.append("UNRESOLVED")
                elif worse > bound:
                    flags.append("WORSE")
                row += f" {old:.6g} | {change:+.3f} |"
            print(row + f" {' '.join(dict.fromkeys(flags))} |")


if __name__ == "__main__":
    main()
