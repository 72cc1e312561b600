"""Run-to-run spread of the end-to-end metrics, and drift between sets.

Runs the benchmark once per seed on each named workload (tracing off)
and prints, per metric, the median and the interquartile range as a
share of the median, next to the metric's bound from BENCHMARK.json.
Every metric, setup_s included, counts towards the verdict.  With
--compare, reads two files written by --out instead and prints, per
workload and metric, how far the second set's median is from the
first's, against the bound.  Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 --out a.jsonl compile tune tune-scale serve
    python3 perfbench/spread.py --compare a.jsonl b.jsonl
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def verdict(share, bound):
    if share <= bound / 3:
        return "OK"
    return "IN BOUND" if share <= bound else "OVER"


def load(path):
    """{workload: {metric: [values]}} from a file written by --out."""
    sets = {}
    for line in open(path):
        rec = json.loads(line)
        for k, v in rec["result"]["metrics"].items():
            sets.setdefault(rec["workload"], {}).setdefault(k, []).append(v["value"])
    return sets


def compare(a, b, bounds, better):
    sa, sb = load(a), load(b)
    worst = 0.0
    for w in sa:
        if w not in sb:
            print(f"== {w}: not in {b}")
            worst = float("inf")
            continue
        print(f"== {w}: median of {b} against {a}")
        for k, vs in sa[w].items():
            m1, m2 = statistics.median(vs), statistics.median(sb[w][k])
            worse = (m2 - m1) / m1 if better[k] == "lower" else (m1 - m2) / m1
            worst = max(worst, worse / bounds[k])
            print(f"  {k:14s} {m1:14.6g} -> {m2:14.6g}  worse by {worse:+7.3f}"
                  f"  bound {bounds[k]:.2f}  {verdict(max(worse, 0.0), bounds[k])}")
    print(f"worst drift / bound: {worst:.2f}")
    return worst <= 1.0


def measure(args, bench, bounds):
    seconds = args.seconds or bench["run_seconds"]
    worst = 0.0
    for w in args.workloads:
        values = {}
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            line = out.stdout.strip().splitlines()[-1]
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": w, "seed": seed,
                                        "result": json.loads(line)}) + "\n")
            res = json.loads(line)
            if not res["correct"]:
                print(f"{w} seed {seed}: not correct", file=sys.stderr)
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print(f"== {w} ({len(seeds_of(args.seeds))} seeds, {seconds} s)")
        for k, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            worst = max(worst, spread / bounds[k])
            print(f"  {k:14s} median {med:14.6g}  spread {spread:6.3f}"
                  f"  bound {bounds[k]:.2f}  {verdict(spread, bounds[k])}")
    print(f"worst spread / bound: {worst:.2f}")
    return worst <= 1.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out", help="append every result line to this file")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    if args.compare:
        ok = compare(*args.compare, bounds, better)
    else:
        ok = measure(args, bench, bounds)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
