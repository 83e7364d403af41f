"""Run one workload on several seeds and print, per metric, the median and
the interquartile range as a share of the median, the figure the
benchmark's bounds in BENCHMARK.json are compared against.

    python3 perfbench/spread.py --workload notebook-1t --runs 10 [--trace 1]
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    a = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    seconds = a.seconds or spec["run_seconds"]
    values = {}
    for seed in range(a.first_seed, a.first_seed + a.runs):
        out = subprocess.run(
            spec["command"] + ["--workload", a.workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(a.trace)],
            check=True, capture_output=True, text=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
              flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for k, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        b = bounds.get(k)
        note = f" bound={b} ({'ok' if spread < b / 3 else 'WIDE'})" if b else ""
        print(f"{k:32s} median={med:.6g} iqr/median={spread:.4f}{note}")


if __name__ == "__main__":
    sys.exit(main())
