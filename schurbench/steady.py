"""Steadiness mode: repeat each workload over several seeds and summarise.

    python3 schurbench/steady.py [--workloads W ...] [--seeds N]
                                 [--first-seed S] [--seconds S] [--traced]

Runs ``run.py`` once per workload and seed, one run at a time, and prints the
median, the quartiles and the spread ((q3 - q1) / median) of every metric,
next to the metric's bound from BENCHMARK.json: "under a third" of it,
"within" it, or "OVER". With ``--traced`` it also
makes a traced run per seed, summarises the per-layer metrics, and reports
the tracing overhead: the median traced ``round_ref`` (read from the trace
files' headers) minus the median untraced ``round_ref``. The summary is written to
``schurbench/out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else (values[0],) * 3)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)

    seeds = range(args.first_seed, args.first_seed + args.seeds)
    summary = {}
    for workload in args.workloads:
        runs = {0: [], 1: []}
        traced_rounds = []
        for seed in seeds:
            for trace in (0, 1) if args.traced else (0,):
                res = run_once(workload, seed, args.seconds, trace)
                runs[trace].append(res)
                print(f"{workload} seed {seed} trace {trace}: attempted "
                      f"{res['attempted']} failed {res['failed']} correct "
                      f"{res['correct']}", flush=True)
                if trace:
                    path = OUT / f"trace-{workload}-seed{seed}.jsonl"
                    with open(path) as fh:
                        traced_rounds.append(json.loads(fh.readline())["round_ref"])
        entry = {"failed_share": sorted({r["failed"] / r["attempted"]
                                         for r in runs[0] + runs[1]})}
        for trace, results in runs.items():
            for metric in results[0]["metrics"] if results else ():
                stats = summarise([r["metrics"][metric]["value"] for r in results])
                stats["unit"] = results[0]["metrics"][metric]["unit"]
                entry[metric] = stats
                bound = bounds.get(metric)
                flag = ""
                if bound is not None:
                    verdict = ("under a third" if stats["spread"] < bound / 3
                               else "within" if stats["spread"] <= bound else "OVER")
                    flag = f"bound {bound:.2f}: {verdict}"
                print(f"  {workload:9s} {metric:32s} median {stats['median']:12.5g} "
                      f"q1 {stats['q1']:12.5g} q3 {stats['q3']:12.5g} "
                      f"spread {stats['spread']:7.4f} {stats['unit']:6s} {flag}")
        if traced_rounds:
            untraced = entry["round_ref"]["median"]
            traced = statistics.median(traced_rounds)
            entry["tracing_overhead_s"] = traced - untraced
            print(f"  {workload:9s} tracing overhead: traced round_ref "
                  f"{traced:.4f} - untraced {untraced:.4f} = "
                  f"{traced - untraced:+.4f} ref ({(traced / untraced - 1) * 100:+.1f}%)")
        print(f"  {workload:9s} failed share: {entry['failed_share']}")
        summary[workload] = entry
    OUT.mkdir(exist_ok=True)
    (OUT / "steady.json").write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
