"""Steadiness of the benchmark on one commit.

    python3 perfbench/steady.py --runs 10 --first-seed 1 --out perfbench/out/set1.json
    python3 perfbench/steady.py --runs 10 --first-seed 101 --against perfbench/out/set1.json

Run from the root of a checkout. It runs the BENCHMARK.json command --runs
times on every workload, each run with its own seed and the workloads taking
turns, then prints for each workload and end-to-end metric the median, the
quartiles and the quartile spread as a share of the median, next to the
metric's bound, with the jobs attempted and failed. With --against it also
prints how far each median moved from a set saved earlier with --out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction


def run_once(spec: dict, workload: str, seed: int, seconds: int) -> dict:
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="save every run's result here as JSON")
    parser.add_argument("--against", help="a set saved earlier with --out")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    results: dict[str, list[dict]] = {w: [] for w in names}
    for i in range(args.runs):
        for w in names:
            res = run_once(spec, w, args.first_seed + i, seconds)
            results[w].append(res)
            print(f"run {i + 1}/{args.runs} {w}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in res["metrics"].items()), file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seconds": seconds, "first_seed": args.first_seed, "results": results}, fh, indent=1)
    before = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            before = json.load(fh)["results"]

    print(f"{args.runs} runs of {seconds} s per workload, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
    header = f"{'workload':13s} {'metric':12s} {'unit':4s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s} {'bound':>6s}"
    print(header + ("  median vs before" if before else ""))
    for w in names:
        runs = results[w]
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        for m in spec["end_to_end"]:
            med, q1, q3, spread = summarize([r["metrics"][m["name"]]["value"] for r in runs])
            note = "" if m["name"] == "setup_s" else (" steady" if spread < m["bound"] / 3 else
                                                      " within" if spread <= m["bound"] else " WIDE")
            line = (f"{w:13s} {m['name']:12s} {m['unit']:4s} {med:10.5g} {q1:10.5g} {q3:10.5g} "
                    f"{spread:7.1%} {m['bound']:6.0%}{note}")
            if before:
                old = statistics.median(r["metrics"][m["name"]]["value"] for r in before[w])
                worse = (old - med) / old if m["better"] == "higher" else (med - old) / old
                line += f"  {worse:+.1%} worse{' OVER BOUND' if worse > m['bound'] else ''}"
            print(line)
        print(f"{w:13s} jobs: {attempted} attempted, {failed} failed, "
              f"failed share {'the same in every run' if len(shares) == 1 else 'DIFFERS between runs'}"
              f" ({', '.join(str(s) for s in sorted(shares))}), correct in "
              f"{sum(r['correct'] for r in runs)}/{len(runs)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
