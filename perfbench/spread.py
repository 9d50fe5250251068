#!/usr/bin/env python3
"""Runs the benchmark over a set of seeds and reports each metric's median
and spread (interquartile range over median), per workload and checkout.

    python3 perfbench/spread.py --workload hall --seeds 1-10 --seconds 20

With several --checkout directories (for an A/B comparison of a parent and a
change on one host) every seed runs once in each checkout, and the order of
the checkouts alternates from one seed to the next. --out writes the summary
as JSON, including the host fingerprint each checkout reported.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(checkout, workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[0])["host"], json.loads(lines[-1])


def summarize(values):
    if len(values) < 2:
        return {"median": values[0], "values": values}
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--checkout", action="append", help="repository root to run in (default: .)")
    ap.add_argument("--out", help="write the summary here as JSON")
    args = ap.parse_args()
    checkouts = args.checkout or ["."]

    summary = {}
    for wl in args.workload:
        runs = {c: [] for c in checkouts}
        hosts = {}
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = checkouts if i % 2 == 0 else checkouts[::-1]
            for c in order:
                host, res = run_once(c, wl, seed, args.seconds, args.trace)
                hosts[c] = host
                runs[c].append(res)
                print(f"{wl} seed {seed} {os.path.basename(os.path.abspath(c))}: attempted {res['attempted']} "
                      f"failed {res['failed']} correct {res['correct']}", file=sys.stderr)
        for c in checkouts:
            names = sorted(runs[c][0]["metrics"])
            metrics = {}
            for n in names:
                vals = [r["metrics"][n]["value"] for r in runs[c]]
                metrics[n] = dict(summarize(vals), unit=runs[c][0]["metrics"][n]["unit"])
            summary.setdefault(wl, {})[c] = {
                "host": hosts[c],
                "attempted": sum(r["attempted"] for r in runs[c]),
                "failed": sum(r["failed"] for r in runs[c]),
                "metrics": metrics,
            }
            print(f"== {wl} @ {c}  ({len(runs[c])} runs)")
            for n, m in metrics.items():
                print(f"  {n:36s} median {m['median']:<14.6g} spread {m.get('spread', float('nan')):.4f} {m['unit']}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
