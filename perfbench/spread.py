"""Run-to-run spread of the end-to-end metrics, and the baseline record.

    python3 perfbench/spread.py --workloads kernels --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --out perfbench/results/BENCH_1.json

Runs ``run.py`` once per (workload, seed), one run at a time, with the
``run_seconds`` of BENCHMARK.json.  For each end-to-end metric it prints the
median, the quartiles and the interquartile distance as a share of the
median, next to the metric's bound.  ``--out`` also makes one traced run per
workload (on the first seed) and writes everything, with the environment
fingerprint, as a baseline record.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

import stats

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    return result


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"run_seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, 0) for seed in args.seeds]
        print(f"{workload}: {sum(r['attempted'] for r in runs)} ops, "
              f"{sum(r['failed'] for r in runs)} failed")
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = stats.quartile_spread(values)
            worst = max(worst, share / bound)
            print(f"  {name:<18} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {share:7.2%} (bound {bound:.0%})")
            summary[name] = {"values": values, "median": med, "q1": q1, "q3": q3,
                             "spread": share, "bound": bound}
        entry = {"failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "end_to_end": summary}
        if args.out:
            traced = run_once(workload, args.seeds[0], args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            name = f"{workload}-seed{args.seeds[0]}-trace0.json"
            entry["fingerprint"] = json.loads(
                (ROOT / ".perfbench_out" / name).read_text())["fingerprint"]
        record["workloads"][workload] = entry
    print(f"largest spread, as a share of its bound: {worst:.2f}")
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
